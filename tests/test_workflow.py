"""The CI workflow adds to tier-1 only what a pytest process cannot check.
Every oracle lives in tests/, which each change runs before it is pushed;
a step holding a heredoc, a cmp or a python -c one-liner is an oracle
that only CI would run."""

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"

#: steps that need what tier-1 lacks: an installed package, or a peak RSS
#: read from a small parent, as a pytest process's own high-water mark
#: carries over fork and exec
EXEMPT = {"The voxflow console script", "Estimate memory at crop scale",
          "Nowcast and verify memory at crop scale",
          "Analyze memory at crop scale", "Synth memory at crop scale"}
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
