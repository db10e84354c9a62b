import numpy as np
import pytest

from voxflow.advect import advect_once
from voxflow.errors import NoOverlapError
from voxflow.flow import (
    Criterion,
    LossConfig,
    SequenceObjective,
    divergence,
    gradient_check,
    loss_divergence,
    loss_multiscale,
    loss_total,
)
from voxflow.grid import MotionField, RainField, Space


def dbr_field(data, mask=None):
    return RainField(data=np.asarray(data, float), space=Space.DBR, mask=mask)


def uniform_motion(ux, uy, nz=1, ny=16, nx=16):
    u = np.zeros((nz, 2, ny, nx))
    u[:, 0] = ux
    u[:, 1] = uy
    return MotionField(u)


#: The one-step data term: the multiscale term at the finest scale only.
ONE_STEP = LossConfig(scales=(1,))


def smooth_random(rng, ny=16, nx=16, lo=-10.0, hi=5.0):
    from scipy.ndimage import gaussian_filter
    f = gaussian_filter(rng.normal(size=(ny, nx)), 2.0)
    f = (f - f.min()) / (f.max() - f.min())
    return lo + (hi - lo) * f


class TestLossSingle:
    def test_zero_when_next_is_exact_advection(self):
        rng = np.random.default_rng(0)
        f0 = dbr_field(smooth_random(rng)[None])
        mf = uniform_motion(1.0, -2.0)
        f1 = advect_once(f0, mf)
        assert loss_multiscale([f0, f1], mf, ONE_STEP) == pytest.approx(
            0.0, abs=1e-12)

    def test_zero_for_stationary_pair(self):
        rng = np.random.default_rng(1)
        f = dbr_field(smooth_random(rng)[None])
        assert loss_multiscale([f, f], uniform_motion(0.0, 0.0), ONE_STEP) == 0.0

    def test_constant_offset_gives_mae_one(self):
        rng = np.random.default_rng(2)
        base = smooth_random(rng)[None]
        f0 = dbr_field(base)
        f1 = dbr_field(base + 1.0)
        got = loss_multiscale([f0, f1], uniform_motion(0.0, 0.0), ONE_STEP)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_mse_criterion_squares(self):
        rng = np.random.default_rng(3)
        base = smooth_random(rng)[None]
        cfg = LossConfig(scales=(1,), criterion=Criterion.MSE_DBR)
        got = loss_multiscale([dbr_field(base), dbr_field(base + 2.0)],
                              uniform_motion(0.0, 0.0), cfg)
        assert got == pytest.approx(4.0, abs=1e-12)

    def test_no_overlap_raises(self):
        f0 = dbr_field(np.zeros((1, 4, 4)), mask=np.zeros((1, 4, 4), bool))
        f1 = dbr_field(np.zeros((1, 4, 4)))
        with pytest.raises(NoOverlapError):
            loss_multiscale([f0, f1], uniform_motion(0.0, 0.0, ny=4, nx=4),
                            ONE_STEP)


class TestLossSequence:
    def test_zero_on_self_consistent_sequence(self):
        rng = np.random.default_rng(4)
        mf = uniform_motion(0.75, -0.5)
        frames = [dbr_field(smooth_random(rng)[None])]
        for _ in range(5):
            frames.append(advect_once(frames[-1], mf))
        assert loss_multiscale(frames, mf, ONE_STEP) == pytest.approx(
            0.0, abs=1e-6)

    def test_positive_at_wrong_motion(self):
        rng = np.random.default_rng(5)
        mf = uniform_motion(1.0, 0.0)
        frames = [dbr_field(smooth_random(rng)[None])]
        for _ in range(4):
            frames.append(advect_once(frames[-1], mf))
        assert loss_multiscale(frames, uniform_motion(0.0, 0.0), ONE_STEP) > 0.01

    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            loss_multiscale([dbr_field(np.zeros((1, 4, 4)))],
                            uniform_motion(0.0, 0.0, ny=4, nx=4), ONE_STEP)


class TestLossMultiscale:
    def test_single_scale_equals_sequence(self):
        # the pair-averaged mean error of one backward warp per frame pair
        rng = np.random.default_rng(6)
        frames = [dbr_field(smooth_random(rng)[None]) for _ in range(3)]
        mf = uniform_motion(0.3, 0.2)
        per_pair = []
        for f0, f1 in zip(frames, frames[1:]):
            warped = advect_once(f0, mf)
            valid = warped.mask & f1.mask
            per_pair.append(np.abs(warped.data - f1.data)[valid].mean())
        assert loss_multiscale(frames, mf, ONE_STEP) == pytest.approx(
            np.mean(per_pair), rel=1e-12)

    def test_pooled_and_rescaled_loss_small_at_true_uniform_motion(self):
        rng = np.random.default_rng(7)
        mf = uniform_motion(2.0, 0.0, ny=32, nx=32)
        frames = [dbr_field(smooth_random(rng, 32, 32)[None])]
        for _ in range(3):
            frames.append(advect_once(frames[-1], mf))
        at_truth = loss_multiscale(frames, mf)
        at_zero = loss_multiscale(frames, uniform_motion(0.0, 0.0, ny=32, nx=32))
        # coarse scales carry an intrinsic resampling floor, so "near zero"
        # means well below the mismatched-motion level
        assert at_truth < 0.5 * at_zero
        fine = LossConfig(scales=(1,))
        assert loss_multiscale(frames, mf, fine) < 0.05 * \
            loss_multiscale(frames, uniform_motion(0.0, 0.0, ny=32, nx=32), fine)

    def test_pooling_suppresses_checkerboard_noise(self):
        yg, xg = np.mgrid[0:32, 0:32]
        noise = np.where((yg + xg) % 2 == 0, -5.0, -9.0)
        frames = [dbr_field(noise[None]), dbr_field(noise[None] * 0 - 7.0)]
        mf = uniform_motion(0.0, 0.0, ny=32, nx=32)
        fine = loss_multiscale(frames, mf, LossConfig(scales=(1,)))
        coarse = loss_multiscale(frames, mf, LossConfig(scales=(8,)))
        assert coarse < 0.05 * fine


def central_diff_divergence(ux, uy):
    """Plain central differences, the reference for interior cells."""
    ny, nx = ux.shape
    out = np.zeros((ny, nx))
    for y in range(1, ny - 1):
        for x in range(1, nx - 1):
            out[y, x] = (ux[y, x + 1] - ux[y, x - 1]) / 2.0 \
                + (uy[y + 1, x] - uy[y - 1, x]) / 2.0
    return out


class TestDivergence:
    def test_constant_field_is_zero(self):
        div = divergence(uniform_motion(3.0, -2.0))
        np.testing.assert_allclose(div, 0.0, atol=1e-12)

    def test_unit_ramp_gives_one(self):
        ny = nx = 12
        yg, xg = np.mgrid[0:ny, 0:nx].astype(float)
        u = np.zeros((1, 2, ny, nx))
        u[0, 0] = xg
        div = divergence(MotionField(u))
        np.testing.assert_allclose(div[0, 1:-1, 1:-1], 1.0, atol=1e-12)

    def test_sobel_matches_central_differences_on_smooth_ramps(self):
        # on linear fields Sobel/8 and central differences agree exactly
        ny = nx = 10
        yg, xg = np.mgrid[0:ny, 0:nx].astype(float)
        u = np.zeros((1, 2, ny, nx))
        u[0, 0] = 0.7 * xg - 0.2 * yg
        u[0, 1] = 0.4 * yg + 0.1 * xg
        div = divergence(MotionField(u))
        oracle = central_diff_divergence(u[0, 0], u[0, 1])
        np.testing.assert_allclose(div[0, 1:-1, 1:-1],
                                   oracle[1:-1, 1:-1], atol=1e-12)

    def test_rigid_rotation_is_divergence_free(self):
        ny = nx = 16
        yg, xg = np.mgrid[0:ny, 0:nx].astype(float)
        c = (ny - 1) / 2.0
        u = np.zeros((1, 2, ny, nx))
        u[0, 0] = -(yg - c)
        u[0, 1] = xg - c
        div = divergence(MotionField(u))
        np.testing.assert_allclose(div[0, 1:-1, 1:-1], 0.0, atol=1e-10)


class TestLossDivergence:
    def test_constant_field(self):
        assert loss_divergence(uniform_motion(5.0, 5.0)) == 0.0

    def test_ramp_gives_one(self):
        ny = nx = 12
        yg, xg = np.mgrid[0:ny, 0:nx].astype(float)
        u = np.zeros((1, 2, ny, nx))
        u[0, 0] = xg
        assert loss_divergence(MotionField(u)) == pytest.approx(1.0)

    def test_homogeneous_of_degree_one(self):
        rng = np.random.default_rng(8)
        u = rng.normal(size=(2, 2, 12, 12))
        mf = MotionField(u)
        assert loss_divergence(MotionField(3.0 * u)) == pytest.approx(
            3.0 * loss_divergence(mf))
        assert loss_divergence(MotionField(-2.0 * u)) == pytest.approx(
            2.0 * loss_divergence(mf))


class TestLossTotal:
    def test_beta_bounds_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(beta=0.0)
        with pytest.raises(ValueError):
            LossConfig(beta=1.0)
        with pytest.raises(ValueError):
            LossConfig(beta=-0.5)

    def test_perfect_uniform_fit_is_divergence_free_zero(self):
        rng = np.random.default_rng(9)
        mf = uniform_motion(2.0, 0.0)
        frames = [dbr_field(smooth_random(rng)[None])]
        frames.append(advect_once(frames[0], mf))
        cfg = LossConfig(scales=(1,))
        assert loss_total(frames, mf, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_two_term_arithmetic(self):
        rng = np.random.default_rng(10)
        frames = [dbr_field(smooth_random(rng)[None]) for _ in range(3)]
        u = rng.normal(0.0, 0.5, (1, 2, 16, 16))
        mf = MotionField(u)
        cfg = LossConfig(beta=0.5)
        expect = 0.5 * loss_multiscale(frames, mf, cfg) + 0.5 * loss_divergence(mf)
        assert loss_total(frames, mf, cfg) == pytest.approx(expect, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            frames = [dbr_field(smooth_random(rng)[None]) for _ in range(2)]
            mf = MotionField(rng.normal(0, 1, (1, 2, 16, 16)))
            assert loss_total(frames, mf) >= 0.0


class TestGradients:
    def test_analytic_matches_finite_differences_mae(self):
        assert gradient_check(LossConfig(), n_instances=3, seed=0) < 1e-4

    def test_analytic_matches_finite_differences_mse(self):
        cfg = LossConfig(criterion=Criterion.MSE_DBR)
        assert gradient_check(cfg, n_instances=3, seed=1) < 1e-4

    def test_gradient_with_heavier_divergence_weight(self):
        assert gradient_check(LossConfig(beta=0.6), n_instances=2, seed=2) < 1e-4

    def test_evaluate_consistent_with_loss_total(self):
        rng = np.random.default_rng(12)
        frames = [dbr_field(smooth_random(rng)[None]) for _ in range(3)]
        mf = MotionField(rng.normal(0, 0.5, (1, 2, 16, 16)))
        cfg = LossConfig()
        obj = SequenceObjective([f.data for f in frames],
                                [f.mask for f in frames], cfg)
        total, data, div, grad = obj.evaluate(mf.u)
        assert total == loss_total(frames, mf)
        assert data == loss_multiscale(frames, mf)
        assert div == loss_divergence(mf)
        assert total == pytest.approx((1 - cfg.beta) * data + cfg.beta * div)
        assert grad.shape == mf.u.shape

    def test_batch_matches_separate_calls_bitwise(self):
        # masked, two levels, three pairs, a grid no scale divides
        rng = np.random.default_rng(14)
        frames = [np.maximum(rng.normal(-5.0, 6.0, (2, 13, 19)), -15.0)
                  for _ in range(4)]
        masks = [rng.random((2, 13, 19)) > 0.05 for _ in range(4)]
        for crit in Criterion:
            obj = SequenceObjective(frames, masks,
                                    LossConfig(scales=(1, 2, 4), criterion=crit))
            u = rng.uniform(-2.0, 2.0, (3, 2, 2, 2, 13, 19))
            total, data, div, grad = obj.evaluate(u)
            assert total.shape == data.shape == div.shape == (3, 2)
            assert grad.shape == u.shape
            for j in np.ndindex(3, 2):
                t1, d1, v1, g1 = obj.evaluate(u[j])
                assert (total[j], data[j], div[j]) == (t1, d1, v1)
                assert grad[j].tobytes() == g1.tobytes()

    def test_batch_with_an_empty_pair_is_infinite(self):
        rng = np.random.default_rng(15)
        frames = [smooth_random(rng)[None] for _ in range(2)]
        obj = SequenceObjective(frames, [np.ones((1, 16, 16), bool)] * 2,
                                LossConfig())
        u = np.zeros((2, 1, 2, 16, 16))
        u[1, :, 0] = 40.0  # every departure leaves the domain
        total, data, _, _ = obj.evaluate(u, want_grad=False)
        assert total == data == np.inf

    def test_masked_cells_get_no_data_gradient(self):
        rng = np.random.default_rng(13)
        mask = np.ones((1, 16, 16), bool)
        mask[0, :, 8:] = False
        frames = [dbr_field(smooth_random(rng)[None], mask=mask.copy())
                  for _ in range(2)]
        cfg = LossConfig(beta=1e-9, scales=(1,))
        obj = SequenceObjective([f.data for f in frames],
                                [f.mask for f in frames], cfg)
        _, _, _, grad = obj.evaluate(uniform_motion(0.25, 0.0).u)
        # far inside the masked half nothing constrains the motion
        assert np.abs(grad[0, :, :, 12:]).max() < 1e-9
