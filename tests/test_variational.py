import numpy as np
import pytest

from voxflow.advect import advect_once
from voxflow.errors import DivergedError
from voxflow.flow import LossConfig
from voxflow.grid import DBR_FLOOR, MotionField, RainField, Space
from voxflow.lucas_kanade import estimate_lucas_kanade
from voxflow.synth import GaussianCell, SyntheticScenario, generate
from voxflow.transform import volume_to_rain
from voxflow.variational import (
    LevelStatus,
    OptimizerConfig,
    estimate_variational,
    mean_endpoint_error,
)

FAST_CFG = LossConfig(scales=(1, 2, 4))
FAST_OPT = OptimizerConfig(max_iters=120)


def blob_scene(nz=1, velocities=None, t_count=2, seed=0):
    vel = np.asarray(velocities if velocities is not None
                     else [[[1.0, 0.0]]] * nz, dtype=float)
    cells = [GaussianCell(30.0, 30.0, 45.0, 14.0),
             GaussianCell(44.0, 22.0, 38.0, 8.0)]
    vel = np.repeat(vel[:, :1, :], len(cells), axis=1)
    scn = SyntheticScenario(shape=(t_count, nz, 64, 64), cells=cells,
                            velocities=vel,
                            z_levels=500.0 * (1 + np.arange(nz)), seed=seed)
    return generate(scn)


def wide_blob_scene(velocities, t_count=2, ny=128, nx=128):
    """Cells large relative to the pooling scales, the regime the
    multi-scale objective is built for."""
    cells = [GaussianCell(70.0, 45.0, 48.0, 30.0),
             GaussianCell(40.0, 88.0, 42.0, 20.0)]
    vel = np.repeat(np.asarray(velocities, float)[:, :1, :], len(cells), axis=1)
    scn = SyntheticScenario(shape=(t_count, vel.shape[0], ny, nx), cells=cells,
                            velocities=vel,
                            z_levels=500.0 * (1 + np.arange(vel.shape[0])))
    return generate(scn)


class TestEstimateVariational:
    def test_recovers_exact_translation_of_two_frames(self):
        vol, truth = wide_blob_scene([[[3.0, 0.0]]], t_count=2)
        inputs = [volume_to_rain(vol, 0), volume_to_rain(vol, 1)]
        res = estimate_variational(inputs, cfg=FAST_CFG, opt=FAST_OPT)
        pm = volume_to_rain(vol, 1).data > 0.1
        assert mean_endpoint_error(res.motion, truth, pm) < 0.1
        assert res.statuses == [LevelStatus.OK]

    def test_identical_frames_give_near_zero_field(self):
        vol, _ = blob_scene(velocities=[[[0.0, 0.0]]], t_count=4)
        inputs = [volume_to_rain(vol, t) for t in range(4)]
        res = estimate_variational(inputs, cfg=FAST_CFG, opt=FAST_OPT)
        assert np.abs(res.motion.u).max() < 0.05

    def test_per_level_shear_and_cmax_compromise(self):
        vol, truth = blob_scene(nz=2, velocities=[[[3.0, 0.0]], [[0.0, 3.0]]],
                                t_count=6)
        inputs = [volume_to_rain(vol, t) for t in range(6)]
        res = estimate_variational(inputs, cfg=FAST_CFG, opt=FAST_OPT)
        pm = volume_to_rain(vol, 5).data > 0.1
        for z in range(2):
            epe = mean_endpoint_error(MotionField(res.motion.u[z:z + 1]),
                                      MotionField(truth.u[z:z + 1]),
                                      pm[z:z + 1])
            assert epe < 0.5

    def test_no_signal_level_flagged_and_zero(self):
        data = np.full((3, 2, 32, 32), DBR_FLOOR)
        yg, xg = np.mgrid[0:32, 0:32]
        for t in range(3):
            data[t, 0] += 12.0 * np.exp(-((yg - 16.0) ** 2
                                          + (xg - 10.0 - t) ** 2) / 20.0)
        frames = [RainField(data=data[t], space=Space.DBR) for t in range(3)]
        res = estimate_variational(frames, cfg=FAST_CFG, opt=FAST_OPT)
        assert res.statuses[0] == LevelStatus.OK
        assert res.statuses[1] == LevelStatus.NO_SIGNAL
        np.testing.assert_array_equal(res.motion.u[1], 0.0)

    @pytest.mark.filterwarnings("error")
    def test_level_that_never_accepts_a_step_is_flagged(self):
        # a 1e30-cell step sends every departure out of the domain: each
        # trial is rejected, the field stays zero and the level is not OK
        vol, _ = blob_scene(nz=2, velocities=[[[1.0, 0.0]], [[0.0, 1.0]]],
                            t_count=3)
        inputs = [volume_to_rain(vol, t) for t in range(3)]
        res = estimate_variational(
            inputs, cfg=FAST_CFG, opt=OptimizerConfig(max_iters=3,
                                                      step_size=1e30))
        assert res.statuses == [LevelStatus.NO_ACCEPTED_STEP] * 2
        np.testing.assert_array_equal(res.motion.u, 0.0)

    def test_divergence_error_carries_iteration(self):
        # a field with real signal plus NaN contamination diverges at once
        yg, xg = np.mgrid[0:16, 0:16]
        bad = DBR_FLOOR + 10.0 * np.exp(-((yg - 8.0) ** 2 + (xg - 8.0) ** 2) / 8.0)
        bad = bad[None].copy()
        bad[0, :2] = np.nan
        frames = [RainField(data=bad.copy(), space=Space.DBR,
                            mask=np.ones((1, 16, 16), bool)) for _ in range(2)]
        with pytest.raises(DivergedError) as err:
            estimate_variational(frames, cfg=FAST_CFG, opt=FAST_OPT)
        assert err.value.iteration == 0

    def test_trace_is_non_increasing(self):
        vol, _ = blob_scene(velocities=[[[1.5, -1.0]]], t_count=4)
        inputs = [volume_to_rain(vol, t) for t in range(4)]
        res = estimate_variational(inputs, cfg=FAST_CFG, opt=FAST_OPT)
        vals = [row[0] for row in res.traces[0]]
        assert len(vals) > 2
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_level_permutation_permutes_output(self):
        vol, _ = blob_scene(nz=2, velocities=[[[2.0, 0.0]], [[0.0, 2.0]]],
                            t_count=3)
        inputs = [volume_to_rain(vol, t) for t in range(3)]
        res = estimate_variational(inputs, cfg=FAST_CFG, opt=FAST_OPT)
        flipped = [RainField(data=f.data[::-1].copy(), space=f.space,
                             mask=f.mask[::-1].copy()) for f in inputs]
        res_flipped = estimate_variational(flipped, cfg=FAST_CFG, opt=FAST_OPT)
        np.testing.assert_array_equal(res.motion.u[0], res_flipped.motion.u[1])
        np.testing.assert_array_equal(res.motion.u[1], res_flipped.motion.u[0])

    def test_future_frames_extend_the_fit(self):
        vol, truth = blob_scene(velocities=[[[2.0, 1.0]]], t_count=6)
        frames = [volume_to_rain(vol, t) for t in range(6)]
        res = estimate_variational(frames[:3], future=frames[3:],
                                   cfg=FAST_CFG, opt=FAST_OPT)
        pm = volume_to_rain(vol, 5).data > 0.1
        assert mean_endpoint_error(res.motion, truth, pm) < 0.3

    def test_deterministic_across_runs(self):
        vol, _ = blob_scene(velocities=[[[1.0, 1.0]]], t_count=3)
        inputs = [volume_to_rain(vol, t) for t in range(3)]
        a = estimate_variational(inputs, cfg=FAST_CFG, opt=FAST_OPT)
        b = estimate_variational(inputs, cfg=FAST_CFG, opt=FAST_OPT)
        np.testing.assert_array_equal(a.motion.u, b.motion.u)

    def test_parallel_levels_match_sequential(self):
        vol, _ = blob_scene(nz=2, velocities=[[[2.0, 0.0]], [[0.0, 2.0]]],
                            t_count=3)
        inputs = [volume_to_rain(vol, t) for t in range(3)]
        seq = estimate_variational(inputs, cfg=FAST_CFG, opt=FAST_OPT, threads=1)
        par = estimate_variational(inputs, cfg=FAST_CFG, opt=FAST_OPT, threads=2)
        np.testing.assert_array_equal(seq.motion.u, par.motion.u)
        assert seq.statuses == par.statuses

    def test_optimizer_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(max_iters=0)
        with pytest.raises(ValueError):
            OptimizerConfig(step_size=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(momentum=1.0)


class TestAgreementWithBaseline:
    def test_variational_and_lk_agree_on_uniform_translation(self):
        from voxflow.transform import rain_to_dbr

        # medium cells whose overlapping tails give the local 2-D texture the
        # windowed baseline needs
        vol, truth = blob_scene(velocities=[[[1.0, 0.0]]], t_count=4)
        frames = [volume_to_rain(vol, t) for t in range(4)]
        var = estimate_variational(frames, cfg=FAST_CFG, opt=FAST_OPT)
        lk = estimate_lucas_kanade(rain_to_dbr(frames[-2]).data[0],
                                   rain_to_dbr(frames[-1]).data[0])
        pm = frames[-1].data[0] > 0.5
        diff = np.sqrt(((var.motion.u[0] - lk.motion.u[0]) ** 2).sum(axis=0))
        assert np.median(diff[pm]) < 0.3
