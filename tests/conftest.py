"""Fixtures shared by the test modules: the benchmark's workload module,
read and never changed, and the corpus its set-up builds."""

import importlib.util
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
