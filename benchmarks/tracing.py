"""In-memory span tracing for one voxflow CLI command.

A span is one call of a wrapped public function: its name, start and end
(``time.perf_counter`` seconds), the id of its parent span, the command id
and a few attributes computed from the call's arguments and result. Each
thread keeps its own span stack, so calls made from the estimator's level
pool nest correctly. A worker thread whose stack is empty takes the
innermost open span of the main thread as its parent, which is where the
pool was started from. Spans stay in memory and are written once, as JSON,
when the command ends.

Wrappers are installed at the binding the caller resolves: a name imported
into the calling module (``voxflow.cli.extrapolate``), a module attribute
looked up at call time (``voxflow.rvol.read_rvol``), or a class attribute
(``voxflow.flow.SequenceObjective.evaluate``).
"""

from __future__ import annotations

import functools
import itertools
import json
import pkgutil
import threading
import time


class Tracer:
    def __init__(self, command: str):
        self.command = command
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def _stack(self) -> list[int]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def open(self, name: str) -> dict:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        span = {"id": next(self._ids), "name": name, "parent": parent,
                "command": self.command, "thread": threading.get_ident(),
                "start": time.perf_counter(), "end": None, "attrs": {}}
        stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, fn, name: str, attrs=None):
        """Return fn wrapped in a span; attrs(args, kwargs, result) -> dict
        runs after the span has closed, so its cost is not timed."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
            return result
        return traced

    def install(self, binding: str, name: str, attrs=None) -> None:
        """Wrap the callable at a dotted binding such as
        'voxflow.cli.extrapolate' or 'voxflow.flow.SequenceObjective.evaluate'."""
        owner_path, attr = binding.rsplit(".", 1)
        owner = pkgutil.resolve_name(owner_path)
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, attrs))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"command": self.command, "spans": self.spans}, fh)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: dict, children: list[dict]) -> float:
    """The span's duration minus the time its children cover. Children
    running concurrently on several threads are counted once."""
    return (span["end"] - span["start"]) - covered(
        [(c["start"], c["end"]) for c in children], span["start"], span["end"])
