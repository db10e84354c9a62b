"""Run one voxflow CLI command with span tracing.

    python3 benchmarks/launcher.py SPANS.json COMMAND_ID -- ARGV...

Wraps the public functions listed in BINDINGS at the binding the caller
resolves, calls ``voxflow.cli.main(ARGV)``, writes the spans to SPANS.json
and exits with the command's exit code. voxflow must be importable
(``PYTHONPATH=src``).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402


def _path_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _estimate(args, kwargs, result):
    from voxflow.variational import default_threads
    return {"grid": list(args[0][0].data.shape[1:]),
            "levels": result.motion.nz,
            "threads": kwargs.get("threads") or default_threads(),
            "trace_rows": sum(len(t) for t in result.traces),
            "traced_levels": sum(1 for t in result.traces if t)}


def _evaluate(args, kwargs, result):
    obj, u = args[0], args[1]
    per_pair = sum(-(-obj.ny // k) * -(-obj.nx // k) for k in obj.active_scales)
    return {"grid": list(u.shape[-2:]), "cells": obj.n_pairs * obj.nz * per_pair}


def _cells(args, kwargs, result):
    return {"cells": int(args[0].data.size)}


def _scored(args, kwargs, result):
    thr = result.thresholds[0]
    return {"cells": sum(result.tables[(lead, thr)].total for lead in result.leads)}


_ANALYSES = ("rainy_ratio", "monthwise_boxstats", "reflectivity_corr_matrix",
             "motion_pair_corr", "motion_corr_matrix", "coverage_ratio",
             "coverage_vs_corr_histogram", "rank_outliers",
             "cell_split_diagnostic")

#: (binding, span name, attribute function)
BINDINGS = [
    ("voxflow.rvol.read_rvol", "rvol.read", _path_bytes),
    ("voxflow.rvol.read_motion", "rvol.read", _path_bytes),
    ("voxflow.rvol.write_rvol", "rvol.write", _path_bytes),
    ("voxflow.rvol.write_motion", "rvol.write", _path_bytes),
    ("voxflow.cli.volume_to_rain", "transform.volume_to_rain", None),
    ("voxflow.analysis.volume_to_rain", "transform.volume_to_rain", None),
    ("voxflow.cli.rain_to_dbz", "transform.rain_to_dbz", None),
    ("voxflow.cli.estimate_variational", "variational.estimate", _estimate),
    ("voxflow.flow.SequenceObjective.__init__", "flow.objective_init", None),
    ("voxflow.flow.SequenceObjective.evaluate", "flow.evaluate", _evaluate),
    ("voxflow.cli.extrapolate", "advect.extrapolate", None),
    ("voxflow.advect.advect_once", "advect.advect_once", _cells),
    ("voxflow.cli.verify_nowcast", "verify.verify_nowcast", _scored),
    ("voxflow.svgplot.line_chart", "svgplot.write", None),
    ("voxflow.svgplot.heatmap", "svgplot.write", None),
    ("voxflow.svgplot.box_plot", "svgplot.write", None),
] + [(f"voxflow.analysis.{fn}", f"analysis.{fn}", None) for fn in _ANALYSES]


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: launcher.py SPANS.json COMMAND_ID -- ARGV...",
              file=sys.stderr)
        return 2
    spans_path, command, cli_argv = argv[0], argv[1], argv[3:]
    import voxflow.cli

    tracer = Tracer(command)
    for binding, name, attrs in BINDINGS:
        tracer.install(binding, name, attrs)
    span = tracer.open("cli.main")
    try:
        return voxflow.cli.main(cli_argv)
    finally:
        tracer.close(span)
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
