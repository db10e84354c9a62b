"""Per-layer metrics from the spans of one traced pass.

Each layer is a ``src/voxflow/`` module. Times are seconds summed over the
pass's commands; a layer the workload never calls reports 0.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import covered, self_time

#: analyze --which value -> per-layer metric of the analysis layer
ANALYSIS_METRICS = {
    "ratios": "analysis.rainy_ratio_s",
    "refl-corr": "analysis.reflectivity_corr_s",
    "motion-corr": "analysis.motion_corr_s",
    "histogram": "analysis.histogram_s",
    "outliers": "analysis.outliers_s",
    "split": "analysis.split_diagnostic_s",
}


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """dumps: one {"command": id, "spans": [...]} per traced command."""
    named = defaultdict(list)
    for dump in dumps:
        for span in dump["spans"]:
            named[span["name"]].append(span)

    def total(name: str) -> float:
        return sum((_dur(s) for s in named[name]), 0.0)

    def attr_sum(name: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in named[name])

    m: dict[str, float] = {}

    read_s, write_s = total("rvol.read"), total("rvol.write")
    m["rvol.read_s"], m["rvol.write_s"] = read_s, write_s
    m["rvol.bytes_read"] = attr_sum("rvol.read", "bytes")
    m["rvol.bytes_written"] = attr_sum("rvol.write", "bytes")
    m["rvol.read_mb_per_s"] = _ratio(m["rvol.bytes_read"] / 1e6, read_s)
    m["rvol.write_mb_per_s"] = _ratio(m["rvol.bytes_written"] / 1e6, write_s)

    m["transform.volume_to_rain_s"] = total("transform.volume_to_rain")
    m["transform.volume_to_rain_calls"] = len(named["transform.volume_to_rain"])
    m["transform.rain_to_dbz_s"] = total("transform.rain_to_dbz")

    evaluate_s = total("flow.evaluate")
    m["flow.evaluate_calls"] = len(named["flow.evaluate"])
    m["flow.evaluate_s"] = evaluate_s
    m["flow.objective_init_s"] = total("flow.objective_init")
    m["flow.warped_cells_per_s"] = _ratio(attr_sum("flow.evaluate", "cells"),
                                          evaluate_s)

    # fine: the estimate's full grid; coarse: the smallest grid the
    # command evaluated, i.e. the coarsest pyramid stage
    fine, coarse = [], []
    est_s = est_self = busy_capacity = levels = accepted = 0.0
    for dump in dumps:
        spans = dump["spans"]
        evals = [s for s in spans if s["name"] == "flow.evaluate"]
        children = [s for s in spans if s["name"].startswith("flow.")]
        for est in (s for s in spans if s["name"] == "variational.estimate"):
            a = est["attrs"]
            est_s += _dur(est)
            est_self += self_time(est, children)
            busy_capacity += _dur(est) * a["threads"]
            levels += a["levels"]
            accepted += a["trace_rows"] - a["traced_levels"]
            fine += [s for s in evals if s["attrs"]["grid"] == a["grid"]]
        if evals:
            smallest = min(s["attrs"]["grid"][0] * s["attrs"]["grid"][1]
                           for s in evals)
            coarse += [s for s in evals
                       if s["attrs"]["grid"][0] * s["attrs"]["grid"][1] == smallest]
    m["flow.evaluate_ms_fine"] = 1e3 * _ratio(sum(map(_dur, fine)), len(fine))
    m["flow.evaluate_ms_coarse"] = 1e3 * _ratio(sum(map(_dur, coarse)), len(coarse))
    m["variational.estimate_s"] = est_s
    m["variational.self_s"] = est_self
    m["variational.evals_per_level"] = _ratio(m["flow.evaluate_calls"], levels)
    m["variational.fullres_accept_ratio"] = _ratio(accepted, len(fine))
    m["variational.thread_efficiency"] = _ratio(evaluate_s, busy_capacity)

    advect_s = total("advect.advect_once")
    m["advect.advect_once_calls"] = len(named["advect.advect_once"])
    m["advect.lead_ms"] = 1e3 * _ratio(advect_s, m["advect.advect_once_calls"])
    m["advect.cells_per_s"] = _ratio(attr_sum("advect.advect_once", "cells"),
                                     advect_s)

    m["verify.verify_nowcast_s"] = total("verify.verify_nowcast")
    m["verify.cells_scored"] = attr_sum("verify.verify_nowcast", "cells")

    for name in ANALYSIS_METRICS.values():
        m[name] = 0.0
    for dump in dumps:
        which = dump["command"].split()[-1]
        if which in ANALYSIS_METRICS:
            spans = [(s["start"], s["end"]) for s in dump["spans"]
                     if s["name"].startswith("analysis.")]
            m[ANALYSIS_METRICS[which]] += covered(spans, float("-inf"),
                                                  float("inf"))
    m["analysis.motion_pair_corr_calls"] = len(named["analysis.motion_pair_corr"])
    m["svgplot.write_s"] = total("svgplot.write")
    return m
