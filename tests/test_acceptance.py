"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Estimator-based criteria run the loss at pooling scales (1, 2, 4): the
largest default kernel is proportioned for 512-crop geometry and visibly
biases pooled warps at the 128-cell desk scale used here.
"""

import functools
import time

import numpy as np
import pytest

from voxflow.advect import advect_once, extrapolate
from voxflow.analysis import cell_split_diagnostic, motion_corr_matrix
from voxflow.denoise import denoise_volume, morphological_clean
from voxflow.flow import LossConfig, gradient_check, loss_divergence, loss_multiscale
from voxflow.grid import (
    NO_ECHO_DBZ,
    MotionField,
    RadarVolume,
    RainField,
    cmax,
    cmax_field,
)
from voxflow.cli import main as cli_main
from voxflow.synth import clean_copy, generate, preset
from voxflow.transform import volume_to_rain
from voxflow.variational import estimate_variational, mean_endpoint_error
from voxflow.verify import ContingencyTable, contingency, continuous_metrics, precision_recall_ets

from test_denoise import clean_oracle

ACCEPT_CFG = LossConfig(scales=(1, 2, 4))

#: Cells counted as precipitating when scoring endpoint errors.
PRECIP_MMH = 0.1


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:2d}] FAIL  {desc}")
                raise
            print(f"[criterion {num:2d}] PASS  {desc}")
        return wrapper
    return deco


def rain_frames(vol, t_range):
    return [volume_to_rain(vol, t) for t in t_range]


@criterion(1, "analytic gradients match central finite differences")
def test_gradient_correctness():
    t0 = time.time()
    err = gradient_check(LossConfig(), n_instances=20, size=16, seed=0)
    elapsed = time.time() - t0
    assert err < 1e-4, f"max relative error {err:.3e}"
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"


@criterion(2, "uniform motion recovered within 0.2 cells on every level")
def test_motion_recovery_uniform():
    vol, truth = generate(preset("uniform"))
    inputs = rain_frames(vol, range(8))
    t0 = time.time()
    res = estimate_variational(inputs, cfg=ACCEPT_CFG)
    per_level = (time.time() - t0) / vol.shape[1]
    precip = volume_to_rain(vol, 7).data > PRECIP_MMH
    epe = mean_endpoint_error(res.motion, truth, precip)
    assert epe < 0.2, f"mean endpoint error {epe:.3f}"
    assert per_level < 30.0, f"{per_level:.1f}s per level"


@criterion(3, "per-level estimation beats the CMAX composite under shear")
def test_shear_contrast():
    vol, truth = generate(preset("shear2"))
    n = 8
    inputs = rain_frames(vol, range(n))
    future = rain_frames(vol, range(n, 24))
    res3d = estimate_variational(inputs, future=future, cfg=ACCEPT_CFG)
    precip = volume_to_rain(vol, n - 1).data > PRECIP_MMH
    for z in range(2):
        epe = mean_endpoint_error(MotionField(res3d.motion.u[z:z + 1]),
                                  MotionField(truth.u[z:z + 1]),
                                  precip[z:z + 1])
        assert epe < 0.5, f"3d level {z} endpoint error {epe:.3f}"

    cvol = cmax(vol)
    res2d = estimate_variational(rain_frames(cvol, range(n)),
                                 future=rain_frames(cvol, range(n, 24)),
                                 cfg=ACCEPT_CFG)
    cmax_precip = volume_to_rain(cvol, n - 1).data > PRECIP_MMH
    for z in range(2):
        epe = mean_endpoint_error(res2d.motion, MotionField(truth.u[z:z + 1]),
                                  cmax_precip)
        assert epe > 1.0, f"2d-cmax error vs level {z} only {epe:.3f}"

    leads3d = extrapolate(volume_to_rain(vol, n - 1), res3d.motion, 16)
    leads2d = extrapolate(volume_to_rain(cvol, n - 1), res2d.motion, 16)
    obs16 = cmax_field(volume_to_rain(vol, n - 1 + 16))
    mae3d = continuous_metrics(cmax_field(leads3d[-1]), obs16)[1]
    mae2d = continuous_metrics(leads2d[-1], obs16)[1]
    assert mae3d < mae2d, f"CMAX MAE at lead 16: 3d {mae3d:.4f} vs 2d {mae2d:.4f}"


@criterion(4, "independent level motion splits the composite cell")
def test_cell_splitting_artifact():
    vol, truth = generate(preset("split"))
    leads = extrapolate(volume_to_rain(vol, 7), truth, 16)
    diag = cell_split_diagnostic(leads, threshold=1.0)
    assert (diag.level_counts == 1).all(), "per-level component count changed"
    assert max(diag.cmax_counts[:8]) >= 2, \
        f"composite never split by lead 8: {diag.cmax_counts[:8]}"
    truth16 = cell_split_diagnostic([volume_to_rain(vol, 7 + 16)],
                                    threshold=1.0)
    forecast_cells = diag.cmax_rainy_cells[-1]
    observed_cells = truth16.cmax_rainy_cells[0]
    assert forecast_cells > 1.1 * observed_cells, \
        f"coverage bias too small: {forecast_cells} vs {observed_cells}"


@criterion(5, "divergence penalty trades smoothness for little data loss")
def test_divergence_penalty_effect():
    vol, _ = generate(preset("noisy"))
    inputs = rain_frames(vol, range(8))
    res_lo = estimate_variational(
        inputs, cfg=LossConfig(beta=1e-3, scales=(1, 2, 4)))
    res_hi = estimate_variational(
        inputs, cfg=LossConfig(beta=0.3, scales=(1, 2, 4)))
    div_lo = loss_divergence(res_lo.motion)
    div_hi = loss_divergence(res_hi.motion)
    assert div_hi < div_lo, f"mean |div|: {div_hi:.4f} !< {div_lo:.4f}"
    data_lo = loss_multiscale(inputs, res_lo.motion, ACCEPT_CFG)
    data_hi = loss_multiscale(inputs, res_hi.motion, ACCEPT_CFG)
    assert data_hi <= 1.2 * data_lo, \
        f"data term degraded beyond 20%: {data_hi:.4f} vs {data_lo:.4f}"


@criterion(6, "categorical metrics match hand-computed and brute-force values")
def test_metric_oracle():
    t = ContingencyTable(hits=50, misses=10, false_alarms=10,
                         correct_negatives=930)
    p, r, ets = precision_recall_ets(t)
    assert abs(ets - 0.6988) < 1e-4
    assert abs(ets - 46.4 / 66.4) < 1e-12
    all_yes = ContingencyTable(hits=60, misses=0, false_alarms=940,
                               correct_negatives=0)
    assert precision_recall_ets(all_yes)[2] == pytest.approx(0.0, abs=1e-12)

    rng = np.random.default_rng(6)
    for _ in range(50):
        pred = rng.uniform(0, 12, (1, 64, 64))
        obs = rng.uniform(0, 12, (1, 64, 64))
        thr = float(rng.uniform(0.5, 10.0))
        tbl = contingency(RainField(data=pred), RainField(data=obs), thr)
        h = m = fa = cn = 0
        for pv, ov in zip(pred.ravel(), obs.ravel()):
            py, oy = pv >= thr, ov >= thr
            if py and oy:
                h += 1
            elif oy:
                m += 1
            elif py:
                fa += 1
            else:
                cn += 1
        assert (tbl.hits, tbl.misses, tbl.false_alarms,
                tbl.correct_negatives) == (h, m, fa, cn)


@criterion(7, "advection reproduces integer shifts and obeys the max principle")
def test_advection_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        data = rng.uniform(0.0, 15.0, (1, 20, 20))
        f = RainField(data=data)
        dx = int(rng.integers(-3, 4))
        dy = int(rng.integers(-3, 4))
        u = np.zeros((1, 2, 20, 20))
        u[0, 0] = dx
        u[0, 1] = dy
        out = advect_once(f, MotionField(u))
        # interior rows/cols present in both views shift bit-exactly
        ys = slice(max(dy, 0), 20 + min(dy, 0))
        xs = slice(max(dx, 0), 20 + min(dx, 0))
        ys_src = slice(max(-dy, 0), 20 + min(-dy, 0))
        xs_src = slice(max(-dx, 0), 20 + min(-dx, 0))
        assert np.array_equal(out.data[0][ys, xs], data[0][ys_src, xs_src])
        # zero motion is the bit-exact identity
        ident = advect_once(f, MotionField.zero(1, 20, 20))
        assert np.array_equal(ident.data, data)
        # max principle under arbitrary fractional motion
        w = MotionField(rng.uniform(-2, 2, (1, 2, 20, 20)))
        frac = advect_once(f, w)
        assert frac.data.max() <= data.max() + 1e-12
        assert frac.data.min() >= min(0.0, data.min()) - 1e-12


@criterion(8, "motion correlation matrices show the expected vertical structure")
def test_correlation_analysis():
    mfs, vols = [], []
    for seed in range(3):
        vol, truth = generate(preset("uniform", seed=seed))
        mfs.append(truth)
        vols.append(vol)
    m = motion_corr_matrix(mfs, vols)
    assert np.nanmin(m) >= 0.999, f"uniform dataset min entry {np.nanmin(m):.4f}"

    mfs, vols = [], []
    for seed in range(3):
        vol, truth = generate(preset("shear8", seed=seed))
        mfs.append(truth)
        vols.append(vol)
    m = motion_corr_matrix(mfs, vols)
    adjacent = [m[i, i + 1] for i in range(7)]
    assert min(adjacent) > 0.9, f"adjacent correlations {adjacent}"
    assert m[0, 7] < 0.3, f"extreme-level correlation {m[0, 7]:.3f}"
    # decay with vertical separation
    assert (np.diff(m[0, 1:]) < 0).all()


@criterion(9, "denoising removes speckle, keeps cores, matches the set oracle")
def test_denoise():
    scn = preset("noisy")
    vol, _ = generate(scn)
    clean_vol, _ = generate(clean_copy(scn))
    out = denoise_volume(vol)
    injected = (vol.data > 0) & ~(clean_vol.data > 0)
    assert injected.any()
    assert not (out.data[injected] > 0).any(), "injected noise survived"
    # output support is a subset of the input support
    assert not ((out.data > 0) & ~(vol.data > 0)).any()

    # isolated strong core survives the cleanup
    plane = np.full((32, 32), NO_ECHO_DBZ)
    plane[10, 10] = 45.0
    plane[22, 22] = 20.0
    core_vol = RadarVolume(data=plane[None, None], z_levels=[500.0])
    cleaned = morphological_clean(core_vol)
    assert cleaned.data[0, 0, 10, 10] == 45.0
    assert cleaned.data[0, 0, 22, 22] == NO_ECHO_DBZ

    rng = np.random.default_rng(9)
    for _ in range(5):
        plane = np.where(rng.random((32, 32)) < 0.35,
                         rng.uniform(5.0, 55.0, (32, 32)), NO_ECHO_DBZ)
        got = morphological_clean(
            RadarVolume(data=plane[None, None], z_levels=[500.0]))
        np.testing.assert_array_equal(got.data[0, 0], clean_oracle(plane))


@criterion(10, "the synth-estimate-nowcast-verify pipeline is byte-identical")
def test_pipeline_determinism(tmp_path):
    outputs = []
    for name in ("run1", "run2"):
        d = tmp_path / name
        d.mkdir()
        vol = d / "s.rvol"
        assert cli_main(["synth", "--preset", "shear2", "-o", str(vol),
                         "--seed", "42"]) == 0
        mf = d / "s.rmf"
        assert cli_main(["estimate", str(vol), "--mode", "3d", "--inputs",
                         "8", "--scales", "1,2,4", "-o", str(mf)]) == 0
        fc = d / "s.fc.rvol"
        assert cli_main(["nowcast", str(vol), str(mf), "-k", "16",
                         "--start-frame", "7", "-o", str(fc)]) == 0
        csv = d / "s.metrics.csv"
        assert cli_main(["verify", str(fc), str(vol), "-o", str(csv)]) == 0
        outputs.append((csv.read_bytes(),
                        (d / "s_trace.csv").read_bytes()))
    assert outputs[0][0] == outputs[1][0], "metric CSVs differ between runs"
    assert outputs[0][1] == outputs[1][1], "loss traces differ between runs"
