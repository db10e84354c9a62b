"""The CI workflow adds to tier-1 only what a pytest process cannot check.
Every oracle lives in tests/, which each change runs before it is pushed;
a step holding a heredoc, a cmp or a python -c one-liner is an oracle
that only CI would run. The peak-RSS bounds need a small parent process,
tests/peak_rss.py, which must read the child's peak, not this process's."""

import re
import sys
from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"

#: the step that needs what tier-1 lacks: an installed package
EXEMPT = {"The voxflow console script"}
#: the benchmark steps' one check of run.py's JSON result
CORRECT = ("| python3 -c \"import json, sys; sys.exit(0 if "
           "json.load(sys.stdin)['correct'] is True else 1)\"")
ORACLE = re.compile(r"<<|\bcmp\b|\bpython3? -c\b")


def test_no_step_holds_an_inline_oracle():
    # read as text: PyYAML is not among the packages CI installs
    steps = re.split(r"^      - ", WORKFLOW.read_text(), flags=re.MULTILINE)[1:]
    names = [re.match(r"(?:name|uses): (.*)", step).group(1) for step in steps]
    assert EXEMPT <= set(names)
    found = []
    for name, step in zip(names, steps):
        lines = [line.strip() for line in step.splitlines()
                 if not line.strip().startswith("#")]
        if name.startswith("Benchmark "):
            lines = [line for line in lines if line != CORRECT]
        if name not in EXEMPT and any(map(ORACLE.search, lines)):
            found.append(name)
    assert not found, found


@pytest.mark.skipif(sys.platform != "linux",
                    reason="ru_maxrss is KiB on Linux only")
def test_runner_reads_the_child_not_the_test_process(peak_rss):
    # a child waited for by this process itself would read at least the
    # 200 MB held here: Linux carries the high-water mark over fork and exec
    import resource
    held = b"\1" * (200 << 20)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss >= 200 << 10
    result = peak_rss([sys.executable, "-c", "pass"])
    assert result["returncode"] == 0 and result["peak_rss_mb"] < 50, result
    del held
