import numpy as np
import pytest

from voxflow.advect import advect_once
from voxflow.errors import DivergedError
from voxflow.flow import LossConfig, SequenceObjective
from voxflow.grid import DBR_FLOOR, MotionField, RainField, Space
from voxflow.lucas_kanade import estimate_lucas_kanade
from voxflow.synth import GaussianCell, SyntheticScenario, generate
from voxflow.transform import rain_to_dbr, volume_to_rain
from voxflow.variational import (
    MISS_DECAY,
    MIN_STEP,
    RESET_AFTER,
    STEP_DECAY,
    LevelStatus,
    OptimizerConfig,
    _descend,
    _pyramid_depth,
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

    def test_levels_are_estimated_independently(self):
        """Each level of a multi-level estimate is, bit for bit, that level
        estimated alone as a one-level field."""
        vol, _ = blob_scene(nz=3, velocities=[[[2.0, 0.0]], [[0.0, 2.0]],
                                              [[-1.0, 1.5]]], t_count=3)
        inputs = [volume_to_rain(vol, t) for t in range(3)]
        res = estimate_variational(inputs, cfg=FAST_CFG, opt=FAST_OPT)
        assert not np.array_equal(res.motion.u[0], res.motion.u[1])
        for z in range(3):
            alone = estimate_variational(
                [RainField(f.data[z], f.space, f.mask[z]) for f in inputs],
                cfg=FAST_CFG, opt=FAST_OPT)
            np.testing.assert_array_equal(res.motion.u[z], alone.motion.u[0])
            assert [res.statuses[z]] == alone.statuses
            assert [res.traces[z]] == alone.traces

    def test_starts_no_thread(self, monkeypatch):
        import threading

        def refuse(thread):
            raise AssertionError(f"estimate_variational started {thread!r}")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setenv("VOXFLOW_THREADS", "2")
        vol, _ = blob_scene(nz=2, velocities=[[[2.0, 0.0]], [[0.0, 2.0]]],
                            t_count=3)
        inputs = [volume_to_rain(vol, t) for t in range(3)]
        res = estimate_variational(inputs, cfg=FAST_CFG, opt=FAST_OPT)
        assert res.statuses == [LevelStatus.OK] * 2

    @pytest.mark.parametrize("scales", [(64,), (1000, 64), (10 ** 6,)])
    def test_scales_that_leave_no_4x4_grid_are_rejected(self, scales):
        vol, _ = wide_blob_scene([[[1.0, 0.0]]], t_count=2)
        inputs = [volume_to_rain(vol, t) for t in range(2)]
        k = min(scales)
        with pytest.raises(ValueError) as err:
            estimate_variational(inputs, cfg=LossConfig(scales=scales),
                                 opt=FAST_OPT)
        assert str(err.value) == (
            f"no pooling scale leaves a 4 x 4 grid of the 128 x 128 frames: "
            f"the smallest, {k}, leaves {128 // k} x {128 // k}")

    def test_float32_objective_warps_each_stage(self, monkeypatch):
        from voxflow import variational
        dtypes = []

        class Recording(SequenceObjective):
            def __init__(self, frames, masks, cfg):
                dtypes.extend(f.dtype for f in frames)
                super().__init__(frames, masks, cfg)

        monkeypatch.setattr(variational, "SequenceObjective", Recording)
        vol, _ = wide_blob_scene([[[1.0, 0.0]]], t_count=2)
        inputs = [volume_to_rain(vol, t) for t in range(2)]
        res = estimate_variational(inputs, cfg=FAST_CFG, opt=FAST_OPT)
        assert dtypes and set(dtypes) == {np.dtype(np.float32)}
        assert res.motion.u.dtype == np.float64

    def test_optimizer_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(max_iters=0)
        for step in (0.0, -1.0, float("nan"), float("inf"), 1e308):
            with pytest.raises(ValueError, match="step_size must lie in"):
                OptimizerConfig(step_size=step)
        assert OptimizerConfig(step_size=1e35).step_size == 1e35
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


def _ref_descend(obj, u, opt, trace, global_only=False):
    """_descend as it was when a reset evaluated the best iterate again;
    returns its result and the number of resets."""
    best_total, data, div, grad = obj.evaluate(u, want_grad=True)
    trace.append((best_total, data, div))
    u_best, u_cur = u.copy(), u
    vel = np.zeros_like(u)
    step, misses, accepted, rejected, resets = opt.step_size, 0, 0, 0, 0
    for _ in range(opt.max_iters):
        if global_only:
            grad = np.broadcast_to(grad.mean(axis=(2, 3), keepdims=True),
                                   grad.shape)
        gmax = float(np.abs(grad).max())
        if gmax < 1e-14:
            break
        vel = opt.momentum * vel - (step / gmax) * grad
        u_cur = u_cur + vel
        total, data, div, grad = obj.evaluate(u_cur, want_grad=True)
        if total < best_total:
            best_total, u_best, misses = total, u_cur.copy(), 0
            accepted += 1
            trace.append((total, data, div))
        else:
            misses += 1
            rejected += 1
            step *= MISS_DECAY
            vel *= 0.5
            if misses >= RESET_AFTER:
                u_cur = u_best.copy()
                vel[:] = 0.0
                _, _, _, grad = obj.evaluate(u_cur, want_grad=True)
                misses = 0
                resets += 1
        step *= STEP_DECAY
        if step < MIN_STEP:
            break
    return (u_best, accepted, rejected), resets


class TestDescendReset:
    @pytest.mark.parametrize("global_only", [False, True])
    def test_reset_keeps_the_best_gradient_instead_of_evaluating(self, global_only):
        vol, _ = blob_scene(velocities=[[[1.5, -1.0]]], t_count=4)
        frames = [rain_to_dbr(volume_to_rain(vol, t)) for t in range(4)]
        obj = SequenceObjective([f.data for f in frames],
                                [f.mask for f in frames], FAST_CFG)
        calls = []
        evaluate = obj.evaluate
        obj.evaluate = lambda u, want_grad=True: (
            calls.append(1), evaluate(u, want_grad))[1]
        opt = OptimizerConfig(max_iters=80, step_size=1.0, momentum=0.95)
        u0 = np.zeros((1, 2, 64, 64))
        want_trace, got_trace = [], []
        want, resets = _ref_descend(obj, u0, opt, want_trace, global_only)
        ref_calls = len(calls)
        calls.clear()
        got = _descend(obj, u0, opt, got_trace, global_only)
        assert resets > 0
        assert len(calls) == ref_calls - resets
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1:] == want[1:]
        assert got_trace == want_trace


def _counted_depth(levels, ny, nx):
    """The pyramid depth as _optimize_level once counted it down."""
    n_pyr = levels
    while n_pyr > 1 and min(ny, nx) // (2 ** (n_pyr - 1)) < 16:
        n_pyr -= 1
    return n_pyr


class TestPyramidDepth:
    SIDES = (1, 2, 15, 16, 17, 31, 32, 33, 47, 63, 64, 65, 127, 128, 129,
             255, 256, 257, 511, 512, 513, 1000, 4096, 65535, 65536, 100_000)

    def test_closed_form_equals_the_counted_depth(self):
        for levels in range(1, 20):
            for ny in self.SIDES:
                for nx in self.SIDES:
                    assert _pyramid_depth(levels, ny, nx) == \
                        _counted_depth(levels, ny, nx), (levels, ny, nx)

    def test_huge_level_count_is_capped_by_the_grid(self):
        # the counted-down loop took tens of seconds here
        assert _pyramid_depth(100_000, 128, 128) == 4
        assert _pyramid_depth(10 ** 18, 512, 300) == 5
