"""voxflow benchmark: run one workload through the CLI and report metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports voxflow from ``src/``. The run
builds the workload's seeded inputs several times (``setup_s`` is the
median CPU time), runs one untimed warm-up command, then repeats the
workload's CLI commands, each as its own child process with its wall time,
CPU time and peak RSS taken from ``os.wait4``, until S seconds are spent
(at least one pass). With
``--trace 1`` it also measures CLI start-up and repeats the commands once
more through the span-tracing launcher. It checks every output, prints a
readable report, and prints as its last line one JSON object with the
metrics that BENCHMARK.json lists for the mode. Scratch files live under
``.bench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

#: BLAS and OpenMP threads per process, for the children and the benchmark
CHILD_THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

#: set-up repeats: at least MIN, then more while they take under BUDGET s
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_BUDGET_S = 3, 25, 1.0
STARTUP_REPEATS = 5
MAX_PASSES = 20
#: a child still running this long after the benchmark started is killed,
#: and counts as a failed command, so a run ends within 180 s
DEADLINE_S = 170.0
STARTED = time.monotonic()

#: command kinds; each gets a summed stage time
STAGES = ("estimate", "nowcast", "verify", "analyze")


def run_child(argv: list[str], env: dict, log: Path) -> dict:
    """Spawn one child, wait for it with os.wait4 and return its wall time,
    CPU time (user + system), peak RSS, exit code and whether it failed
    (non-zero exit or a traceback on stderr)."""
    with open(log.with_suffix(".out"), "wb") as out, \
            open(log.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(
            max(1.0, DEADLINE_S - (time.monotonic() - STARTED)), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = log.with_suffix(".err").read_text(errors="replace")
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "returncode": proc.returncode,
            "failed": proc.returncode != 0 or "Traceback" in stderr,
            "stderr": stderr}


def child_env(root: Path, overrides: dict) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env.update(CHILD_THREAD_VARS)
    for key, value in overrides.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def run_pass(commands, env: dict, out: Path, spans: bool = False) -> list[dict]:
    """Run the commands in order; with spans, through the tracing launcher."""
    out.mkdir(parents=True, exist_ok=True)
    results = []
    for i, cmd in enumerate(commands):
        log = out / f"cmd{i}"
        if spans:
            argv = [sys.executable, str(HERE / "launcher.py"),
                    str(log.with_suffix(".spans.json")), cmd.label, "--",
                    *cmd.argv]
        else:
            argv = [sys.executable, "-m", "voxflow.cli", *cmd.argv]
        res = run_child(argv, env, log)
        res.update(label=cmd.label, kind=cmd.kind)
        if spans:
            path = log.with_suffix(".spans.json")
            res["spans"] = json.loads(path.read_text()) if path.exists() else \
                {"command": cmd.label, "spans": []}
        results.append(res)
    return results


def digests(out: Path) -> dict[str, str]:
    """sha256 of every motion file and CSV a pass wrote."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.suffix in (".rmf", ".csv")}


def environment(workload, env: dict, root: Path) -> dict:
    import numpy
    import scipy

    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):  # older numpy has no dict mode
        blas = None
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"workload": workload.name, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "caches": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "VOXFLOW_THREADS": env.get("VOXFLOW_THREADS", "unset (1)"),
            "thread_vars": {k: v for k, v in sorted(env.items())
                            if k.endswith("_NUM_THREADS")},
            "commit": commit or "unknown (not a git checkout)"}


def median(values):
    return statistics.median(values) if values else 0.0


def set_up(workload, seed: int, inputs: Path) -> tuple[float, float]:
    """Build the inputs repeatedly; returns the median set-up time and the
    median time spent in voxflow.synth.generate."""
    from workloads import timed_setup
    setups = []
    while len(setups) < SETUP_MIN_REPEATS or (
            len(setups) < SETUP_MAX_REPEATS
            and sum(s for s, _ in setups) < SETUP_BUDGET_S):
        setups.append(timed_setup(workload, seed, inputs))
    return median([s for s, _ in setups]), median([g for _, g in setups])


def timed_passes(workload, inputs: Path, env: dict, work: Path,
                 seconds: float) -> tuple[list[list[dict]], list[dict], Path]:
    """Repeat the commands until `seconds` are spent, at least once. Returns
    the passes, the output digests of each, and the last pass's directory
    (the only one kept)."""
    passes, prints, last = [], [], None
    t0 = time.perf_counter()
    while len(passes) < MAX_PASSES:
        out = work / f"pass{len(passes)}"
        passes.append(run_pass(workload.commands(inputs, out), env, out))
        prints.append(digests(out))
        if last is not None:
            shutil.rmtree(last)
        last = out
        if time.perf_counter() - t0 >= seconds:
            break
    return passes, prints, last


def measure(workload, seed: int, seconds: float, trace: bool,
            root: Path, work: Path) -> tuple[dict, int, int]:
    from layers import layer_metrics

    env = child_env(root, workload.env)
    print("env " + json.dumps(environment(workload, env, root)), flush=True)
    inputs = work / "inputs"
    metrics = dict(zip(("setup_s", "synth.generate_s"),
                       set_up(workload, seed, inputs)))

    warm = run_child([sys.executable, "-m", "voxflow.cli", "--help"], env,
                     work / "warmup")
    if warm["failed"]:
        print(f"warm-up failed:\n{warm['stderr']}", file=sys.stderr)
    if trace:
        metrics["cli.startup_s"] = median(
            [run_child([sys.executable, "-c", "import voxflow.cli"], env,
                       work / "startup")["wall_s"]
             for _ in range(STARTUP_REPEATS)])

    passes, prints, last = timed_passes(workload, inputs, env, work, seconds)
    results = [r for p in passes for r in p]
    if trace:
        out = work / "traced"
        traced = run_pass(workload.commands(inputs, out), env, out, spans=True)
        prints.append(digests(out))
        metrics.update(layer_metrics([r["spans"] for r in traced]))

    checks, skill = workload.check(inputs, last)
    if len(prints) > 1:
        same = all(p == prints[0] for p in prints[1:])
        checks.append(("RMF, trace CSV and metrics CSV byte-identical across "
                       f"{len(prints)} repeats", same,
                       "identical" if same else "differ"))

    per_cmd = {}
    for r in results:
        per_cmd.setdefault(r["label"], []).append(r)
    cmd_wall = {k: median([r["wall_s"] for r in v]) for k, v in per_cmd.items()}
    metrics["cli.pipeline_s"] = median([sum(r["wall_s"] for r in p) for p in passes])
    metrics["pipeline_cpu_s"] = median([sum(r["cpu_s"] for r in p) for p in passes])
    metrics["peak_rss_mb"] = max(median([r["rss_mb"] for r in v])
                                 for v in per_cmd.values())
    for stage in STAGES:
        metrics[f"cli.{stage}_s"] = sum(
            (w for k, w in cmd_wall.items() if per_cmd[k][0]["kind"] == stage), 0.0)
    metrics["cli.commands"] = len(passes[0])
    metrics["variational.epe_cells"] = skill.get("epe_cells", 0.0)
    metrics["verify.mae_last_mmh"] = skill.get("mae_last_mmh", 0.0)
    metrics["verify.ets_last_5mmh"] = skill.get("ets_last_5mmh", 0.0)
    if trace:
        results += traced
        metrics["trace.overhead_ratio"] = \
            sum(r["cpu_s"] for r in traced) / metrics["pipeline_cpu_s"]

    failed_cmds = [r for r in results if r["failed"]]
    attempted = len(results) + len(checks)
    failed = len(failed_cmds) + sum(1 for c in checks if not c[1])
    print(f"{len(passes)} timed pass(es) of {len(passes[0])} commands"
          + (", plus one traced pass" if trace else ""))
    for label, runs in per_cmd.items():
        print(f"  {label:<24} {cmd_wall[label]:9.4f} s  "
              f"rss {max(r['rss_mb'] for r in runs):8.1f} MB")
    for r in failed_cmds:
        print(f"FAILED command {r['label']} (exit {r['returncode']}):\n"
              f"{r['stderr']}", file=sys.stderr)
    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print_e2e(metrics, skill, failed / attempted,
              {r["kind"] for r in passes[0]})
    return metrics, attempted, failed


def print_e2e(metrics: dict, skill: dict, fail_ratio: float,
              kinds: set[str]) -> None:
    """The end-to-end figures by name and unit, including those the JSON
    keeps elsewhere: stage times, fail_ratio and skill."""
    rows = [("setup_s", metrics["setup_s"], "s CPU"),
            ("pipeline_s", metrics["cli.pipeline_s"], "s"),
            ("pipeline_cpu_s", metrics["pipeline_cpu_s"], "s CPU")]
    rows += [(f"{s}_s", metrics[f"cli.{s}_s"], "s") for s in STAGES if s in kinds]
    rows += [("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
             ("fail_ratio", fail_ratio, "ratio")]
    units = {"epe_cells": "cells", "mae_last_mmh": "mm/h",
             "ets_last_5mmh": "ratio", "mae_last_cmax_mmh": "mm/h"}
    rows += [(k, skill[k], u) for k, u in units.items() if k in skill]
    for name, value, unit in rows:
        print(f"e2e {name:<20} {value:12.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # before numpy is first imported, so the set-up stays single-threaded
    os.environ.update(CHILD_THREAD_VARS)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "voxflow" / "cli.py").is_file() or \
            not spec_path.is_file():
        print("error: run from the repository root: src/voxflow and "
              "BENCHMARK.json are required", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics, attempted, failed = measure(
            WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]} for m in wanted}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
