"""The four benchmark workloads: seeded inputs, CLI commands, output checks.

Inputs are built from the synth presets through the public ``voxflow.synth``
API rather than with ``voxflow synth``, because that command ignores
``--seed`` for these presets. Every cell of every level gets its own
sub-cell start offset drawn from the seed; velocities are left as the
preset has them, so the ground-truth motion, the EPE bounds and the
integer-shift oracle keep their meaning. One offset per level and cell,
rather than one per volume, also averages the seed's effect on how many
steps the estimator takes over the levels.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import time
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Callable

import numpy as np

#: Desk-scale estimator flags from the README, after --mode.
DESK_ESTIMATE = ["--inputs", "8", "--scales", "1,2,4"]
START_FRAME = 7
PRECIP_MMH = 0.1


@dataclass
class Command:
    label: str
    kind: str
    argv: list[str]


@dataclass
class Workload:
    name: str
    #: environment overrides for the CLI children; None removes the variable
    env: dict[str, str | None]
    #: (seed, inputs dir, generate) -> None; generate wraps voxflow.synth.generate
    setup: Callable
    #: (inputs dir, outputs dir) -> list[Command]
    commands: Callable
    #: (inputs dir, outputs dir) -> (checks [(name, ok, detail)], skill {name: value})
    check: Callable


def _scenario(name: str, rng: np.random.Generator, **kw):
    from voxflow import synth
    scn = synth.preset(name, **kw)
    z, n = scn.shape[1], len(scn.cells)
    return dataclasses.replace(scn, level_offsets=rng.uniform(-0.5, 0.5, (z, n, 2)))


def _write(path: Path, vol, truth=None) -> None:
    from voxflow import rvol
    rvol.write_rvol(path, vol)
    if truth is not None:
        rvol.write_motion(path.with_suffix(".truth.rmf"), truth)


def _metrics_csv(path: Path) -> dict[tuple[int, str, str], float]:
    with open(path, newline="") as fh:
        return {(int(r["lead_steps"]), r["metric"], r["threshold_mmh"]):
                float(r["value"]) for r in csv.DictReader(fh)}


def _epe(inputs: Path, stem: str, motion: Path, levels=None) -> float:
    from voxflow import rvol
    from voxflow.grid import MotionField
    from voxflow.transform import volume_to_rain
    from voxflow.variational import mean_endpoint_error
    vol = rvol.read_rvol(inputs / f"{stem}.rvol")
    truth = rvol.read_motion(inputs / f"{stem}.truth.rmf")
    est = rvol.read_motion(motion)
    precip = volume_to_rain(vol, START_FRAME).data > PRECIP_MMH
    if levels is not None:
        est, truth = MotionField(est.u[levels]), MotionField(truth.u[levels])
        precip = precip[levels]
    return mean_endpoint_error(est, truth, precip)


def _forecast(stem: str, inputs: Path, out: Path, motion: Path, leads: int,
              volume: str | None = None) -> list[Command]:
    volume = volume or stem
    fc = out / f"{stem}.fc.rvol"
    return [
        Command(f"nowcast {stem}", "nowcast",
                ["nowcast", str(inputs / f"{volume}.rvol"), str(motion),
                 "-k", str(leads), "--start-frame", str(START_FRAME),
                 "-o", str(fc)]),
        Command(f"verify {stem}", "verify",
                ["verify", str(fc), str(inputs / f"{volume}.rvol"),
                 "-o", str(out / f"{stem}.metrics.csv")]),
    ]


def _estimate(stem: str, inputs: Path, out: Path, mode: str = "3d",
              volume: str | None = None) -> Command:
    return Command(f"estimate {stem}", "estimate",
                   ["estimate", str(inputs / f"{volume or stem}.rvol"),
                    "--mode", mode, *DESK_ESTIMATE, "-o", str(out / f"{stem}.rmf")])


def _checked(checks: list, name: str, fn: Callable):
    """Run one check; a check that raises fails with the error as detail."""
    try:
        ok, detail = fn()
    except Exception as exc:  # noqa: BLE001 - any error fails the check
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    checks.append((name, bool(ok), detail))


# --- desk_shear ---------------------------------------------------------

#: independent seeded scenes per run; the estimator's step count varies with
#: the input by about 10%, so the run averages over two scenes
SHEAR_SCENES = 2


def _shear_setup(seed: int, inputs: Path, generate) -> None:
    from voxflow.grid import cmax
    for i in range(SHEAR_SCENES):
        vol, truth = generate(_scenario("shear2", np.random.default_rng([seed, i]),
                                        seed=seed))
        _write(inputs / f"shear{i}.rvol", vol, truth)
        _write(inputs / f"shear{i}_cmax.rvol", cmax(vol))


def _shear_commands(inputs: Path, out: Path) -> list[Command]:
    cmds = []
    for i in range(SHEAR_SCENES):
        s3, s2 = f"shear{i}_3d", f"shear{i}_cmax"
        cmds += [_estimate(s3, inputs, out, volume=f"shear{i}"),
                 _estimate(s2, inputs, out, mode="2d-cmax", volume=s2),
                 *_forecast(s3, inputs, out, out / f"{s3}.rmf", 16,
                            volume=f"shear{i}"),
                 *_forecast(s2, inputs, out, out / f"{s2}.rmf", 16)]
    return cmds


def _shear_check(inputs: Path, out: Path):
    checks, scores = [], {}
    for i in range(SHEAR_SCENES):
        stem, motion = f"shear{i}", out / f"shear{i}_3d.rmf"
        for z in range(2):
            def level_epe(z=z, stem=stem, motion=motion):
                epe = _epe(inputs, stem, motion, levels=slice(z, z + 1))
                return epe < 0.5, f"{epe:.4f}"
            _checked(checks, f"{stem} 3d level {z} EPE < 0.5", level_epe)

        def mae_order(stem=stem, motion=motion):
            m3 = _metrics_csv(out / f"{stem}_3d.metrics.csv")
            mae3 = m3[(16, "mae", "")]
            mae2 = _metrics_csv(out / f"{stem}_cmax.metrics.csv")[(16, "mae", "")]
            for key, value in (("epe_cells", _epe(inputs, stem, motion)),
                               ("mae_last_mmh", mae3),
                               ("ets_last_5mmh", m3[(16, "ets", "5")]),
                               ("mae_last_cmax_mmh", mae2)):
                scores.setdefault(key, []).append(value)
            return mae3 < mae2, f"3d {mae3:.4f} vs cmax {mae2:.4f}"
        _checked(checks, f"{stem} 3d lead-16 MAE < CMAX-arm lead-16 MAE",
                 mae_order)
    return checks, {k: float(np.mean(v)) for k, v in scores.items()}


# --- desk_uniform8 --------------------------------------------------------

def _uniform_setup(seed: int, inputs: Path, generate) -> None:
    vol, truth = generate(_scenario("uniform", np.random.default_rng(seed),
                                    frames=24, seed=seed))
    _write(inputs / "uniform.rvol", vol, truth)


def _uniform_commands(inputs: Path, out: Path) -> list[Command]:
    return [_estimate("uniform", inputs, out),
            *_forecast("uniform", inputs, out, out / "uniform.rmf", 16)]


def _uniform_check(inputs: Path, out: Path):
    checks, skill = [], {}

    def epe():
        v = _epe(inputs, "uniform", out / "uniform.rmf")
        skill["epe_cells"] = v
        return v < 0.2, f"{v:.4f}"
    _checked(checks, "EPE < 0.2", epe)

    def finite():
        m = _metrics_csv(out / "uniform.metrics.csv")
        skill.update(mae_last_mmh=m[(16, "mae", "")],
                     ets_last_5mmh=m[(16, "ets", "5")])
        return math.isfinite(skill["mae_last_mmh"]), f"{skill['mae_last_mmh']:.4f}"
    _checked(checks, "lead-16 MAE is finite", finite)
    return checks, skill


# --- crop_nowcast ---------------------------------------------------------

CROP_FRAMES, CROP_LEADS = 16, 8


def _crop_setup(seed: int, inputs: Path, generate) -> None:
    vol, truth = generate(_scenario("uniform", np.random.default_rng(seed),
                                    frames=CROP_FRAMES, crop_scale=True,
                                    seed=seed))
    _write(inputs / "crop.rvol", vol, truth)


def _crop_commands(inputs: Path, out: Path) -> list[Command]:
    return _forecast("crop", inputs, out, inputs / "crop.truth.rmf", CROP_LEADS)


def _crop_check(inputs: Path, out: Path):
    checks, skill = [], {}

    def exact():
        m = _metrics_csv(out / "crop.metrics.csv")
        mae, ets = m[(CROP_LEADS, "mae", "")], m[(CROP_LEADS, "ets", "5")]
        skill.update(mae_last_mmh=mae, ets_last_5mmh=ets)
        return abs(mae) < 1e-4 and abs(ets - 1.0) < 1e-9, \
            f"MAE {mae:.3g}, ETS {ets:.10g}"
    _checked(checks, f"integer shift is exact at lead {CROP_LEADS}", exact)
    return checks, skill


# --- corpus_analyze -------------------------------------------------------

CORPUS_VOLUMES = 4
ANALYSES = ("ratios", "refl-corr", "motion-corr", "histogram", "outliers",
            "split")


def _corpus_stems(rng: np.random.Generator) -> list[tuple[str, str]]:
    """(stem, preset) per volume: presets alternate from a seeded start, and
    the stems' timestamps fall in three consecutive months."""
    first = int(rng.integers(2))
    out = []
    for i in range(CORPUS_VOLUMES):
        day = datetime(2024, 6 + i % 3, 1) + timedelta(
            days=int(rng.integers(28)), minutes=5 * int(rng.integers(288)))
        name = ("uniform", "shear8")[(first + i) % 2]
        out.append((f"{day:%Y%m%d_%H%M}_{i}", name))
    return out


def _corpus_setup(seed: int, inputs: Path, generate) -> None:
    rng = np.random.default_rng(seed)
    for stem, name in _corpus_stems(rng):
        vol, truth = generate(_scenario(name, rng, seed=seed))
        _write(inputs / f"{stem}.rvol", vol, truth)


def _corpus_commands(inputs: Path, out: Path) -> list[Command]:
    return [Command(f"analyze {w}", "analyze",
                    ["analyze", str(inputs), "--which", w, "-o", str(out)])
            for w in ANALYSES]


def _corr_values(path: Path, columns=None) -> list[float]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    keys = columns or [k for k in rows[0] if k != "level"]
    return [float(r[k]) for r in rows for k in keys]


def _corpus_check(inputs: Path, out: Path):
    checks = []
    stems = sorted(p.stem for p in inputs.glob("*.rvol"))
    expected = {
        "ratios": ["rainy_ratios.csv", "rainy_ratios.svg",
                   "rainy_ratio_monthwise.csv", "rainy_ratio_monthwise.svg"],
        "refl-corr": ["reflectivity_corr.csv", "reflectivity_corr.svg"],
        "motion-corr": ["motion_corr_both.csv", "motion_corr_u.csv",
                        "motion_corr_v.csv", "motion_corr.svg",
                        "motion_corr_monthwise.csv", "motion_corr_monthwise.svg"],
        "histogram": ["coverage_vs_corr.csv", "coverage_vs_corr_samples.csv",
                      "coverage_vs_corr.svg"],
        "outliers": ["outliers.csv"],
        "split": [f"{s}_split{ext}" for s in stems for ext in (".csv", ".svg")],
    }
    for which, names in expected.items():
        def present(names=names):
            missing = [n for n in names if not (out / n).is_file()]
            return not missing, f"missing {missing}" if missing else "ok"
        _checked(checks, f"{which} writes its CSV and SVG files", present)

    corr_files = {"reflectivity_corr.csv": None, "motion_corr_both.csv": None,
                  "motion_corr_u.csv": None, "motion_corr_v.csv": None,
                  "coverage_vs_corr_samples.csv": ["correlation"],
                  "outliers.csv": ["correlation"]}
    for name, columns in corr_files.items():
        def in_range(name=name, columns=columns):
            vals = _corr_values(out / name, columns)
            bad = [v for v in vals if not (math.isnan(v) or -1.0 <= v <= 1.0)]
            return vals and not bad, f"{len(vals)} values, {len(bad)} outside [-1, 1]"
        _checked(checks, f"{name} correlations in [-1, 1] or NaN", in_range)
    return checks, {}


WORKLOADS = {
    "desk_shear": Workload("desk_shear", {"VOXFLOW_THREADS": None},
                           _shear_setup, _shear_commands, _shear_check),
    "desk_uniform8": Workload("desk_uniform8", {"VOXFLOW_THREADS": "2"},
                              _uniform_setup, _uniform_commands, _uniform_check),
    "crop_nowcast": Workload("crop_nowcast", {"VOXFLOW_THREADS": None},
                             _crop_setup, _crop_commands, _crop_check),
    "corpus_analyze": Workload("corpus_analyze", {"VOXFLOW_THREADS": None},
                               _corpus_setup, _corpus_commands, _corpus_check),
}


def timed_setup(workload: Workload, seed: int, inputs: Path) -> tuple[float, float]:
    """Build the workload's input files once; returns the CPU seconds of the
    whole set-up and of the voxflow.synth.generate calls in it. CPU time,
    unlike wall time, does not count time the host gives to other guests."""
    from voxflow import synth
    spent = [0.0]

    def generate(scn):
        t0 = time.process_time()
        try:
            return synth.generate(scn)
        finally:
            spent[0] += time.process_time() - t0

    inputs.mkdir(parents=True, exist_ok=True)
    t0 = time.process_time()
    workload.setup(seed, inputs, generate)
    return time.process_time() - t0, spent[0]
