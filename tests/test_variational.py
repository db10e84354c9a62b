import dataclasses
import tracemalloc

import numpy as np
import pytest

from voxflow import variational
from voxflow.advect import advect_once, extrapolate
from voxflow.errors import DivergedError
from voxflow.flow import LossConfig, SequenceObjective
from voxflow.grid import DBR_FLOOR, MotionField, RainField
from voxflow.synth import GaussianCell, SyntheticScenario, generate, preset
from voxflow.transform import rain_to_dbr, volume_to_rain
from voxflow.variational import (
    LevelStatus,
    _descend,
    _pyramid_depth,
    estimate_variational,
    mean_endpoint_error,
)
from voxflow.verify import verify_nowcast

FAST_CFG = LossConfig(scales=(1, 2, 4))


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
        res = estimate_variational(inputs, cfg=FAST_CFG)
        pm = volume_to_rain(vol, 1).data > 0.1
        assert mean_endpoint_error(res.motion, truth, pm) < 0.1
        assert res.statuses == [LevelStatus.OK]

    def test_identical_frames_give_near_zero_field(self):
        vol, _ = blob_scene(velocities=[[[0.0, 0.0]]], t_count=4)
        inputs = [volume_to_rain(vol, t) for t in range(4)]
        res = estimate_variational(inputs, cfg=FAST_CFG)
        assert np.abs(res.motion.u).max() < 0.05

    def test_per_level_shear_and_cmax_compromise(self):
        vol, truth = blob_scene(nz=2, velocities=[[[3.0, 0.0]], [[0.0, 3.0]]],
                                t_count=6)
        inputs = [volume_to_rain(vol, t) for t in range(6)]
        res = estimate_variational(inputs, cfg=FAST_CFG)
        pm = volume_to_rain(vol, 5).data > 0.1
        for z in range(2):
            epe = mean_endpoint_error(MotionField(res.motion.u[z:z + 1]),
                                      MotionField(truth.u[z:z + 1]),
                                      pm[z:z + 1])
            assert epe < 0.5

    def test_no_signal_level_flagged_and_zero(self):
        # level 0 holds a moving cell 12 dBR above the floor, level 1 no
        # rain
        data = np.zeros((3, 2, 32, 32))
        yg, xg = np.mgrid[0:32, 0:32]
        for t in range(3):
            dbr = DBR_FLOOR + 12.0 * np.exp(-((yg - 16.0) ** 2
                                              + (xg - 10.0 - t) ** 2) / 20.0)
            data[t, 0] = np.power(10.0, dbr / 10.0)
        frames = [RainField(data=data[t]) for t in range(3)]
        res = estimate_variational(frames, cfg=FAST_CFG)
        assert res.statuses[0] == LevelStatus.OK
        assert res.statuses[1] == LevelStatus.NO_SIGNAL
        np.testing.assert_array_equal(res.motion.u[1], 0.0)

    @pytest.mark.filterwarnings("error")
    def test_level_that_never_accepts_a_step_is_flagged(self, monkeypatch):
        # a 1e30-cell step sends every departure out of the domain: each
        # trial is rejected, the field stays zero and the level is not OK
        monkeypatch.setattr(variational, "STEP_SIZE", 1e30)
        monkeypatch.setattr(variational, "MAX_ITERS", 3)
        vol, _ = blob_scene(nz=2, velocities=[[[1.0, 0.0]], [[0.0, 1.0]]],
                            t_count=3)
        inputs = [volume_to_rain(vol, t) for t in range(3)]
        res = estimate_variational(inputs, cfg=FAST_CFG)
        assert res.statuses == [LevelStatus.NO_ACCEPTED_STEP] * 2
        np.testing.assert_array_equal(res.motion.u, 0.0)

    def test_divergence_error_carries_iteration(self):
        # dBR frames with real signal plus NaN contamination diverge at
        # once (rain_to_dbr takes a NaN rate to the floor, so only the
        # level's own dBR frames can carry one)
        yg, xg = np.mgrid[0:16, 0:16]
        bad = DBR_FLOOR + 10.0 * np.exp(-((yg - 8.0) ** 2 + (xg - 8.0) ** 2) / 8.0)
        bad[:2] = np.nan
        with pytest.raises(DivergedError) as err:
            variational._optimize_level([bad.copy() for _ in range(2)],
                                        [np.ones((16, 16), bool)] * 2,
                                        FAST_CFG)
        assert err.value.iteration == 0

    def test_one_frame_is_rejected(self):
        frame = RainField(data=np.zeros((1, 16, 16)))
        with pytest.raises(ValueError, match="need at least 2 input frames"):
            estimate_variational([frame], cfg=FAST_CFG)

    def test_frames_of_mixed_shapes_are_rejected(self):
        frames = [RainField(data=np.zeros(shape))
                  for shape in ((1, 16, 16), (1, 16, 16), (2, 16, 16))]
        with pytest.raises(ValueError, match="all frames must share one "
                                             "shape"):
            estimate_variational(frames, cfg=FAST_CFG)

    def test_trace_is_non_increasing(self):
        vol, _ = blob_scene(velocities=[[[1.5, -1.0]]], t_count=4)
        inputs = [volume_to_rain(vol, t) for t in range(4)]
        res = estimate_variational(inputs, cfg=FAST_CFG)
        vals = [row[0] for row in res.traces[0]]
        assert len(vals) > 2
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_level_permutation_permutes_output(self):
        vol, _ = blob_scene(nz=2, velocities=[[[2.0, 0.0]], [[0.0, 2.0]]],
                            t_count=3)
        inputs = [volume_to_rain(vol, t) for t in range(3)]
        res = estimate_variational(inputs, cfg=FAST_CFG)
        flipped = [RainField(data=f.data[::-1].copy(),
                             mask=f.mask[::-1].copy()) for f in inputs]
        res_flipped = estimate_variational(flipped, cfg=FAST_CFG)
        np.testing.assert_array_equal(res.motion.u[0], res_flipped.motion.u[1])
        np.testing.assert_array_equal(res.motion.u[1], res_flipped.motion.u[0])

    def test_future_frames_extend_the_fit(self):
        vol, truth = blob_scene(velocities=[[[2.0, 1.0]]], t_count=6)
        frames = [volume_to_rain(vol, t) for t in range(6)]
        res = estimate_variational(frames[:3], future=frames[3:],
                                   cfg=FAST_CFG)
        pm = volume_to_rain(vol, 5).data > 0.1
        assert mean_endpoint_error(res.motion, truth, pm) < 0.3

    def test_future_frames_fit_as_the_whole_sequence(self):
        # the diagnostic fit: inputs plus future frames give the bytes of
        # the same frames passed as the inputs, as estimate --inputs T does
        vol, _ = blob_scene(velocities=[[[2.0, 1.0]]], t_count=5)
        frames = [volume_to_rain(vol, t) for t in range(5)]
        split = estimate_variational(frames[:2], future=frames[2:],
                                     cfg=FAST_CFG)
        whole = estimate_variational(frames, cfg=FAST_CFG)
        assert split.motion.u.tobytes() == whole.motion.u.tobytes()
        assert split.traces == whole.traces

    def test_deterministic_across_runs(self):
        vol, _ = blob_scene(velocities=[[[1.0, 1.0]]], t_count=3)
        inputs = [volume_to_rain(vol, t) for t in range(3)]
        a = estimate_variational(inputs, cfg=FAST_CFG)
        b = estimate_variational(inputs, cfg=FAST_CFG)
        np.testing.assert_array_equal(a.motion.u, b.motion.u)

    def test_levels_are_estimated_independently(self):
        """Each level of a multi-level estimate is, bit for bit, that level
        estimated alone as a one-level field."""
        vol, _ = blob_scene(nz=3, velocities=[[[2.0, 0.0]], [[0.0, 2.0]],
                                              [[-1.0, 1.5]]], t_count=3)
        inputs = [volume_to_rain(vol, t) for t in range(3)]
        res = estimate_variational(inputs, cfg=FAST_CFG)
        assert not np.array_equal(res.motion.u[0], res.motion.u[1])
        for z in range(3):
            alone = estimate_variational(
                [RainField(f.data[z:z + 1], f.mask[z:z + 1])
                 for f in inputs],
                cfg=FAST_CFG)
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
        res = estimate_variational(inputs, cfg=FAST_CFG)
        assert res.statuses == [LevelStatus.OK] * 2

    @pytest.mark.parametrize("scales", [(64,), (1000, 64), (10 ** 6,)])
    def test_scales_that_leave_no_4x4_grid_are_rejected(self, scales):
        vol, _ = wide_blob_scene([[[1.0, 0.0]]], t_count=2)
        inputs = [volume_to_rain(vol, t) for t in range(2)]
        k = min(scales)
        with pytest.raises(ValueError) as err:
            estimate_variational(inputs, cfg=LossConfig(scales=scales))
        assert str(err.value) == (
            f"no pooling scale leaves a 4 x 4 grid of the 128 x 128 frames: "
            f"the smallest, {k}, leaves {128 // k} x {128 // k}")

    def test_float32_objective_warps_each_stage(self, monkeypatch):
        dtypes = []

        class Recording(SequenceObjective):
            def __init__(self, frames, masks, cfg):
                dtypes.extend(f.dtype for f in frames)
                super().__init__(frames, masks, cfg)

        monkeypatch.setattr(variational, "SequenceObjective", Recording)
        vol, _ = wide_blob_scene([[[1.0, 0.0]]], t_count=2)
        inputs = [volume_to_rain(vol, t) for t in range(2)]
        res = estimate_variational(inputs, cfg=FAST_CFG)
        assert dtypes and set(dtypes) == {np.dtype(np.float32)}
        assert res.motion.u.dtype == np.float64


class TestStopPrecision:
    """The MIN_STEP and MIN_GAIN stops end each descent at the precision the
    pipeline resolves; they must not cost end-point error. The largest
    level errors read about 0.028 on uniform and 0.061 on shear2; under
    the momentum descent, MIN_STEP = 2e-2 cells let them reach about 0.075
    on both."""

    @staticmethod
    def _level_errors(name):
        """Per-level end-point error of a preset's estimate at the CLI
        settings (8 inputs, scales 1,2,4), over the last input's cells
        above 0.1 mm/h."""
        vol, truth = generate(preset(name))
        inputs = [volume_to_rain(vol, t) for t in range(8)]
        res = estimate_variational(inputs, cfg=FAST_CFG)
        precip = inputs[-1].data > 0.1
        return [mean_endpoint_error(MotionField(res.motion.u[z:z + 1]),
                                    MotionField(truth.u[z:z + 1]),
                                    precip[z:z + 1])
                for z in range(truth.u.shape[0])]

    @pytest.mark.parametrize("name, bound", [("uniform", 0.05),
                                             ("shear2", 0.07)])
    def test_every_level_keeps_its_end_point_error(self, name, bound):
        epes = self._level_errors(name)
        assert max(epes) < bound, epes

    def test_vertically_sheared_levels_keep_their_end_point_error(self):
        # the eight shear8 levels read about 0.47, then 0.31-0.36; a level
        # that kept the level below's motion unrefined lost up to 0.11
        # cells under the momentum descent
        epes = self._level_errors("shear8")
        assert epes[0] < 0.65 and max(epes[1:]) < 0.45, epes


class TestStopPrecisionForecast:
    """The stops must not cost forecast skill, which the end-point error
    alone does not show: with MIN_STEP = 2e-2 the uniform EPE below moves
    by 0.001 at most, but the lead-16 MAE rises from 0.090 to 0.148 mm/h
    (seed 1) and from 0.104 to 0.142 (seed 2); seeds 0-6 read 0.090-0.105
    at 5e-3 and 0.141-0.148 at 2e-2."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_uniform_lead_16_mae(self, seed):
        # the uniform preset with a seeded sub-cell start offset per level
        # and cell; 8 inputs, scales 1,2,4, 16 leads from frame 7
        scn = preset("uniform", frames=24, seed=seed)
        z, n = scn.shape[1], len(scn.cells)
        offsets = np.random.default_rng(seed).uniform(-0.5, 0.5, (z, n, 2))
        vol, _ = generate(dataclasses.replace(scn, level_offsets=offsets))
        inputs = [volume_to_rain(vol, t) for t in range(8)]
        motion = estimate_variational(inputs, cfg=FAST_CFG).motion
        report = verify_nowcast(
            [extrapolate(inputs[7], motion, 16)],
            [[volume_to_rain(vol, t) for t in range(8, 24)]])
        mae = report.continuous(16)[1]
        assert mae < 0.125, mae


class TestEvaluationCount:
    def test_uniform_preset_evaluations(self, monkeypatch):
        # an exact counter where a timer cannot see a 25 % regression: the
        # momentum descent evaluated the objective 402 times here, the
        # quasi-Newton one about 175
        calls = []
        evaluate = SequenceObjective.evaluate
        monkeypatch.setattr(SequenceObjective, "evaluate",
                            lambda self, u, want_grad=True: (
                                calls.append(1), evaluate(self, u, want_grad))[1])
        vol, _ = generate(preset("uniform"))
        inputs = [volume_to_rain(vol, t) for t in range(8)]
        estimate_variational(inputs, cfg=FAST_CFG)
        assert len(calls) <= 250, len(calls)


def level_alone(inputs, z):
    """Level z of the frames, estimated alone as a one-level field."""
    return estimate_variational(
        [RainField(f.data[z:z + 1], f.mask[z:z + 1])
         for f in inputs],
        cfg=FAST_CFG)


class TestStartFromBelow:
    def test_equal_motion_starts_each_level_from_below(self, monkeypatch):
        calls = []
        evaluate = SequenceObjective.evaluate
        monkeypatch.setattr(SequenceObjective, "evaluate",
                            lambda self, u, want_grad=True: (
                                calls.append(1), evaluate(self, u, want_grad))[1])
        vol, truth = blob_scene(nz=3, velocities=[[[2.0, 0.0]]] * 3,
                                t_count=3)
        inputs = [volume_to_rain(vol, t) for t in range(3)]
        res = estimate_variational(inputs, cfg=FAST_CFG)
        stacked = len(calls)
        calls.clear()
        for z in range(3):
            level_alone(inputs, z)
        assert res.from_below == [False, True, True]
        assert stacked < len(calls)
        assert res.statuses == [LevelStatus.OK] * 3
        pm = volume_to_rain(vol, 2).data > 0.1
        for z in range(3):
            epe = mean_endpoint_error(MotionField(res.motion.u[z:z + 1]),
                                      MotionField(truth.u[z:z + 1]),
                                      pm[z:z + 1])
            assert epe < 0.2, (z, epe)

    def test_shear_keeps_each_level_its_own_start(self):
        vol, _ = generate(preset("shear2", frames=4))
        inputs = [volume_to_rain(vol, t) for t in range(4)]
        res = estimate_variational(inputs, cfg=FAST_CFG)
        assert res.from_below == [False, False]
        for z in range(2):
            alone = level_alone(inputs, z)
            assert res.motion.u[z].tobytes() == alone.motion.u[0].tobytes()
            assert [res.statuses[z]] == alone.statuses
            assert [res.traces[z]] == alone.traces

    def test_stuck_levels_start_from_zero(self, monkeypatch):
        monkeypatch.setattr(variational, "STEP_SIZE", 1e30)
        monkeypatch.setattr(variational, "MAX_ITERS", 3)
        vol, _ = blob_scene(nz=3, velocities=[[[1.0, 0.0]]] * 3, t_count=3)
        inputs = [volume_to_rain(vol, t) for t in range(3)]
        res = estimate_variational(inputs, cfg=FAST_CFG)
        assert res.statuses == [LevelStatus.NO_ACCEPTED_STEP] * 3
        assert res.from_below == [False] * 3
        np.testing.assert_array_equal(res.motion.u, 0.0)


def _push_pairs(memory, pairs):
    for s, y in pairs:
        memory.push(s, np.zeros_like(s), y, np.zeros_like(y))


def _dense_bfgs_step(pairs, grad):
    """-H grad with H the BFGS inverse-Hessian approximation built densely
    from the pairs, oldest first, starting from s.y / y.y of the newest
    times the identity."""
    s_last, y_last = pairs[-1]
    n = grad.size
    h = (s_last.ravel() @ y_last.ravel()) / (y_last.ravel() @ y_last.ravel()) \
        * np.eye(n)
    for s, y in pairs:
        s, y = s.ravel(), y.ravel()
        rho = 1.0 / (s @ y)
        v = np.eye(n) - rho * np.outer(y, s)
        h = v.T @ h @ v + rho * np.outer(s, s)
    return -(h @ grad.ravel()).reshape(grad.shape)


class TestCurvature:
    SHAPE = (1, 2, 3, 4)

    @staticmethod
    def pairs(count, seed=0):
        """(s, y) pairs of a random positive-definite quadratic, rounded to
        the float32 the memory keeps."""
        rng = np.random.default_rng(seed)
        n = int(np.prod(TestCurvature.SHAPE))
        a = rng.normal(size=(n, n))
        a = a @ a.T + n * np.eye(n)
        out = []
        for _ in range(count):
            s = (0.01 * rng.normal(size=n)).astype(np.float32).astype(float)
            y = (a @ s).astype(np.float32).astype(float)
            out.append((s.reshape(TestCurvature.SHAPE),
                        y.reshape(TestCurvature.SHAPE)))
        return out

    @pytest.mark.parametrize("count", [1, 3, 5])
    def test_two_loop_equals_the_dense_bfgs_step(self, count):
        # five pairs overflow the ring: only the last HISTORY count
        pairs = self.pairs(count)
        memory = variational._Curvature(self.SHAPE)
        _push_pairs(memory, pairs)
        grad = 1e-3 * np.random.default_rng(1).normal(size=self.SHAPE)
        got = np.empty(self.SHAPE)
        longest = memory.direction(grad, got)
        want = _dense_bfgs_step(pairs[-variational.HISTORY:], grad)
        assert np.abs(want).max() < 4 * variational.STEP_SIZE
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
        assert longest == np.abs(got).max()

    def test_pair_without_positive_curvature_is_skipped(self):
        pairs = self.pairs(2)
        memory = variational._Curvature(self.SHAPE)
        _push_pairs(memory, pairs)
        s, _ = self.pairs(1, seed=3)[0]
        for y in (-s, np.zeros_like(s)):
            assert not memory.push(s, np.zeros_like(s), y, np.zeros_like(y))
        assert memory.count == 2
        grad = 1e-3 * np.random.default_rng(1).normal(size=self.SHAPE)
        got = np.empty(self.SHAPE)
        memory.direction(grad, got)
        np.testing.assert_allclose(got, _dense_bfgs_step(pairs, grad),
                                   rtol=1e-9, atol=0)

    def test_non_descent_direction_clears_the_memory(self):
        # a pair held with negative rho turns the recursion into an ascent
        # direction for a gradient orthogonal to its s
        s = np.zeros(self.SHAPE)
        s[0, 0] = 1.0
        memory = variational._Curvature(self.SHAPE)
        assert memory.push(s, np.zeros_like(s), s, np.zeros_like(s))
        memory.rho[:] = -1.0 / 12.0
        grad = np.zeros(self.SHAPE)
        grad[0, 1] = np.linspace(-1.0, 2.0, 12).reshape(3, 4)
        got = np.empty(self.SHAPE)
        assert memory.direction(grad, got) == variational.STEP_SIZE
        assert memory.count == 0
        np.testing.assert_array_equal(
            got, grad * (-variational.STEP_SIZE / 2.0))

    def test_steps_are_capped(self):
        memory = variational._Curvature(self.SHAPE)
        s = np.full(self.SHAPE, 1e-3)
        assert memory.push(s, np.zeros_like(s), 1e-6 * s, np.zeros_like(s))
        got = np.empty(self.SHAPE)
        assert memory.direction(np.full(self.SHAPE, 1.0), got) == \
            4 * variational.STEP_SIZE
        np.testing.assert_allclose(got, -4 * variational.STEP_SIZE)


class TestDescendReset:
    """The descent's trials and stops."""

    @pytest.mark.parametrize("global_only", [False, True])
    def test_gradients_only_at_full_steps_and_accepted_iterates(
            self, global_only):
        vol, _ = blob_scene(velocities=[[[1.5, -1.0]]], t_count=4)
        fields = [volume_to_rain(vol, t) for t in range(4)]
        obj = SequenceObjective([rain_to_dbr(f) for f in fields],
                                [f.mask for f in fields], FAST_CFG)
        calls = []
        evaluate = obj.evaluate

        def recording(u, want_grad=True):
            out = evaluate(u, want_grad)
            calls.append((u.copy(), want_grad, out[0]))
            return out
        obj.evaluate = recording
        trace = []
        _, best, accepted, _ = _descend(
            obj, np.zeros((1, 2, 64, 64)), trace, global_only)
        assert calls[0][1] and len(trace) == accepted + 1
        backtracked = 0
        low = calls[0][2]
        for (u_prev, grad_prev, total_prev), (u, want_grad, total) in zip(
                calls, calls[1:]):
            kept = total_prev <= low
            low = min(low, total_prev)
            if not want_grad:
                # a backtrack follows a rejected trial
                assert not kept
            elif not grad_prev:
                # the gradient of an accepted backtracked trial, once
                assert kept and u.tobytes() == u_prev.tobytes()
                assert total == total_prev
                backtracked += 1
            else:
                # a full step from the start or an accepted full step
                assert kept
        assert backtracked > 0
        assert min(low, calls[-1][2]) == best == trace[-1][0]

    def test_stage_stops_after_max_iters_trials(self, monkeypatch):
        # every 1e30-cell trial leaves the domain and is rejected, so only
        # the cap ends the stage: the start and three trials
        vol, _ = blob_scene(velocities=[[[1.5, -1.0]]], t_count=3)
        fields = [volume_to_rain(vol, t) for t in range(3)]
        obj = SequenceObjective([rain_to_dbr(f) for f in fields],
                                [f.mask for f in fields], FAST_CFG)
        calls = []
        evaluate = obj.evaluate
        obj.evaluate = lambda u, want_grad=True: (
            calls.append(1), evaluate(u, want_grad))[1]
        monkeypatch.setattr(variational, "STEP_SIZE", 1e30)
        monkeypatch.setattr(variational, "MAX_ITERS", 3)
        u0 = np.zeros((1, 2, 64, 64))
        trace = []
        u, best, accepted, rejected = _descend(obj, u0, trace)
        assert len(calls) == 4
        assert (accepted, rejected) == (0, 3)
        assert len(trace) == 1 and trace[0][0] == best
        np.testing.assert_array_equal(u, 0.0)


def _counted_depth(levels, ny, nx):
    """The pyramid depth as _optimize_level once counted it down."""
    n_pyr = levels
    while n_pyr > 1 and min(ny, nx) // (2 ** (n_pyr - 1)) < 16:
        n_pyr -= 1
    return n_pyr


class TestPyramidDepth:
    SIDES = (1, 2, 15, 16, 17, 31, 32, 33, 47, 63, 64, 65, 127, 128, 129,
             255, 256, 257, 511, 512, 513, 1000, 4096, 65535, 65536, 100_000)

    def test_closed_form_equals_the_counted_depth(self, monkeypatch):
        for levels in range(1, 20):
            monkeypatch.setattr(variational, "PYRAMID_STAGES", levels)
            for ny in self.SIDES:
                for nx in self.SIDES:
                    assert _pyramid_depth(ny, nx) == \
                        _counted_depth(levels, ny, nx), (levels, ny, nx)

    def test_huge_level_count_is_capped_by_the_grid(self, monkeypatch):
        # the counted-down loop took tens of seconds here
        monkeypatch.setattr(variational, "PYRAMID_STAGES", 100_000)
        assert _pyramid_depth(128, 128) == 4
        monkeypatch.setattr(variational, "PYRAMID_STAGES", 10 ** 18)
        assert _pyramid_depth(512, 300) == 5


class TestMeanEndpointError:
    @staticmethod
    def fields():
        rng = np.random.default_rng(5)
        return (MotionField(rng.normal(size=(2, 2, 8, 8))),
                MotionField(rng.normal(size=(2, 2, 8, 8))))

    def test_a_level_mask_applies_to_every_level(self):
        est, truth = self.fields()
        mask = np.random.default_rng(6).random((8, 8)) > 0.5
        assert mean_endpoint_error(est, truth, mask) == \
            mean_endpoint_error(est, truth, np.stack([mask, mask]))

    @pytest.mark.parametrize("shape", [(3, 8, 8), (8,), (8, 9), (1, 8, 8),
                                       (2, 2, 8, 8)])
    def test_a_mask_of_another_shape_is_an_error(self, shape):
        est, truth = self.fields()
        with pytest.raises(ValueError) as err:
            mean_endpoint_error(est, truth, np.ones(shape, bool))
        assert str(err.value) == (
            f"mask shape {shape} is neither the fields' Z x Y x X (2, 8, 8) "
            f"nor Y x X (8, 8)")

    def test_an_empty_mask_is_an_error(self):
        est, truth = self.fields()
        with pytest.raises(ValueError, match="empty evaluation mask"):
            mean_endpoint_error(est, truth, np.zeros((8, 8), bool))

    def test_float32_fields_are_compared_in_float64(self):
        """Two float32 fields, as read_motion gives, score as their float64
        copies do, with a mask and without."""
        est, truth = (MotionField(mf.u.astype(np.float32))
                      for mf in self.fields())
        wide = [MotionField(mf.u.astype(np.float64)) for mf in (est, truth)]
        mask = np.random.default_rng(7).random((2, 8, 8)) > 0.5
        assert mean_endpoint_error(est, truth) == mean_endpoint_error(*wide)
        assert mean_endpoint_error(est, truth, mask) == \
            mean_endpoint_error(*wide, mask)


class TestLevelMemory:
    def test_one_desk_level_descent_peak(self):
        # level 0 of the uniform preset as the estimator sees it: 8 dBR
        # frames, scales 1,2,4. The descent holds one workspace shared by
        # the loss scales and no stage frames beside the objective's pooled
        # stacks; per-scale workspaces took 9.7 MiB, and keeping the
        # float32 stage frames adds 0.6 MiB
        vol, _ = generate(preset("uniform"))
        fields = [volume_to_rain(vol, t) for t in range(8)]
        frames = [rain_to_dbr(f)[0] for f in fields]
        masks = [f.mask[0] for f in fields]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            variational._optimize_level(frames, masks, FAST_CFG)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 8.0 * 2 ** 20, peak / 2 ** 20
