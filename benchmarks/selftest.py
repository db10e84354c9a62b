"""Self-test of the benchmark's own arithmetic and failure accounting.

    python3 benchmarks/selftest.py

Run from the repository root (the failure-accounting test runs a real
voxflow command from ``src/``).
"""

from __future__ import annotations

import io
import shutil
import sys
import tempfile
import threading
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from layers import layer_metrics  # noqa: E402
from tracing import Tracer, covered, self_time  # noqa: E402
from workloads import Command, Workload  # noqa: E402


def _span(name, start, end, **attrs):
    return {"name": name, "start": start, "end": end, "attrs": attrs}


class SelfTime(unittest.TestCase):
    def test_union_of_children(self):
        parent = _span("p", 0.0, 10.0)
        # two overlapping children from different threads count once; a
        # child reaching past the parent's end is clipped
        children = [_span("a", 1.0, 3.0), _span("b", 2.0, 4.0),
                    _span("c", 9.0, 12.0)]
        self.assertAlmostEqual(covered([(1, 3), (2, 4), (9, 12)], 0, 10), 4.0)
        self.assertAlmostEqual(self_time(parent, children), 6.0)

    def test_no_children(self):
        self.assertAlmostEqual(self_time(_span("p", 2.0, 5.5), []), 3.5)

    def test_variational_self_s(self):
        grid = [16, 16]
        spans = [
            _span("variational.estimate", 0.0, 10.0, grid=grid, levels=2,
                  threads=2, trace_rows=5, traced_levels=2),
            _span("flow.objective_init", 0.5, 1.0),
            _span("flow.evaluate", 1.0, 6.0, grid=grid, cells=100),
            _span("flow.evaluate", 2.0, 7.0, grid=grid, cells=100),
        ]
        m = layer_metrics([{"command": "estimate x", "spans": spans}])
        self.assertAlmostEqual(m["variational.self_s"], 10.0 - 6.5)
        self.assertAlmostEqual(m["variational.thread_efficiency"], 10.0 / 20.0)
        self.assertAlmostEqual(m["variational.fullres_accept_ratio"], 3 / 2)
        self.assertEqual(m["flow.evaluate_calls"], 2)
        self.assertAlmostEqual(m["flow.warped_cells_per_s"], 200 / 10.0)


class Spans(unittest.TestCase):
    def test_worker_thread_parent_is_open_main_span(self):
        tracer = Tracer("cmd")
        outer = tracer.open("outer")

        def work():
            tracer.close(tracer.open("inner"))

        t = threading.Thread(target=work)
        t.start()
        t.join()
        tracer.close(outer)
        inner = next(s for s in tracer.spans if s["name"] == "inner")
        self.assertEqual(inner["parent"], outer["id"])
        self.assertEqual(inner["command"], "cmd")
        self.assertIsNone(outer["parent"])


class FailureAccounting(unittest.TestCase):
    def setUp(self):
        (ROOT / ".bench_work").mkdir(exist_ok=True)

    def tearDown(self):
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    def test_forced_failure_counts(self):
        def commands(inputs, out):
            return [Command("nowcast missing", "nowcast",
                            ["nowcast", str(inputs / "missing.rvol"),
                             str(inputs / "missing.rmf"), "-k", "1",
                             "-o", str(out / "x.rvol")])]

        forced = Workload("forced", {}, lambda seed, inputs, gen: None,
                          commands, lambda inputs, out: ([], {}))
        work = Path(tempfile.mkdtemp(prefix="selftest-",
                                     dir=ROOT / ".bench_work"))
        try:
            with redirect_stdout(io.StringIO()) as report:
                _, attempted, failed = run.measure(forced, 0, 0.0, False,
                                                   ROOT, work)
        finally:
            shutil.rmtree(work)
        self.assertEqual((attempted, failed), (1, 1))
        self.assertRegex(report.getvalue(), r"fail_ratio\s+1 ratio")


if __name__ == "__main__":
    unittest.main()
