"""Fixtures shared by the test modules: the benchmark's workload module,
read and never changed, the corpus its set-up builds and the peak-RSS runner."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def workloads():
    """benchmarks/workloads.py, loaded without putting benchmarks/ on
    sys.path: its scenes, set-ups and shapes let an oracle run on the very
    inputs the benchmark times."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def corpus_inputs(workloads, tmp_path_factory):
    """The seed-1 corpus_analyze inputs, built by the benchmark's own
    set-up: four volumes of 8 frames, 8 levels at 128^2, each with its
    .truth.rmf."""
    from voxflow.synth import generate
    d = tmp_path_factory.mktemp("corpus_analyze")
    workloads.WORKLOADS["corpus_analyze"].setup(1, d, generate)
    return d


@pytest.fixture(scope="session")
def peak_rss():
    """Runs an argv, with src/ as its PYTHONPATH, under tests/peak_rss.py (a
    small stdlib parent) and returns the runner's exit code and peak RSS."""
    root = Path(__file__).resolve().parents[1]

    def measure(argv, cwd=None) -> dict:
        out = subprocess.run(
            [sys.executable, root / "tests" / "peak_rss.py", *map(str, argv)],
            cwd=cwd, env=dict(os.environ, PYTHONPATH=str(root / "src")),
            stdout=subprocess.PIPE, check=True)
        return json.loads(out.stdout.splitlines()[-1])
    return measure
