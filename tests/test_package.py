"""The voxflow package itself: an import that loads nothing else, and one
version."""

import os
import re
import subprocess
import sys
from pathlib import Path

import voxflow

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_no_submodule_and_no_numpy():
    """Each name is imported from the module that defines it, so a fresh
    import of the package loads none of its modules and no NumPy."""
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, voxflow; print(sorted(m for m in sys.modules "
         "if m.startswith(('voxflow.', 'numpy'))))"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60, check=True)
    assert child.stdout.strip() == "[]", child.stdout


def test_version_is_the_project_version():
    """__version__ and pyproject.toml's [project] version are the same
    string (its version line is read as text: tomllib is Python 3.11+)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    versions = re.findall(r'^version\s*=\s*"([^"]+)"\s*$', project,
                          re.MULTILINE)
    assert versions == [voxflow.__version__]
