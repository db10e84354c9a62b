"""The traced benchmark run wraps voxflow functions by dotted name; every
name it lists must still resolve, or the traced run loses its layers."""

import importlib.util
import pkgutil
import sys
from pathlib import Path

LAUNCHER = Path(__file__).resolve().parents[1] / "benchmarks" / "launcher.py"


def test_every_binding_resolves(monkeypatch):
    # the launcher puts its own directory on sys.path to import its tracer;
    # both the path entry and the imported module are dropped on teardown
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "tracing", None)
    del sys.modules["tracing"]
    spec = importlib.util.spec_from_file_location("bench_launcher", LAUNCHER)
    launcher = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launcher)
    assert launcher.BINDINGS
    for binding, _, _ in launcher.BINDINGS:
        assert callable(pkgutil.resolve_name(binding)), binding
