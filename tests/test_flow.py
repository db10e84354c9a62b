import tracemalloc

import numpy as np
import pytest

from voxflow.advect import advect_once
from voxflow.errors import NoOverlapError
from voxflow.flow import (
    SOBEL_X,
    SOBEL_Y,
    LossConfig,
    SequenceObjective,
    _check_instances,
    _gaussian,
    _sobel_adjoint,
    _sobel_interior,
    _Workspace,
    divergence,
    gradient_check,
    loss_divergence,
    loss_multiscale,
    loss_total,
)
from voxflow.grid import DBR_FLOOR, MotionField, RainField, avg_pool2d, upsample2d
from voxflow.synth import generate, preset
from voxflow.transform import rain_to_dbr, volume_to_rain


def rain_field(dbr, mask=None):
    """The mm/h field whose rain_to_dbr is dbr, up to rounding."""
    return RainField(data=np.power(10.0, np.asarray(dbr, float) / 10.0),
                     mask=mask)


def advect_dbr(dbr, mask, mf):
    """One advect_once step of a dBR frame and its mask: the warp of the
    frame's height above DBR_FLOOR, whose 0 mm/h inflow is the floor."""
    out = advect_once(RainField(data=dbr - DBR_FLOOR, mask=mask), mf)
    return out.data + DBR_FLOOR, out.mask


def dbr_data_term(frames, masks, mf, cfg):
    """The data term of loss_multiscale on dBR frames."""
    return SequenceObjective(frames, masks, cfg).evaluate(
        mf.u, want_grad=False)[1]


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
        f0 = rain_field(smooth_random(rng)[None])
        mf = uniform_motion(1.0, -2.0)
        f1 = advect_once(f0, mf)
        assert loss_multiscale([f0, f1], mf, ONE_STEP) == pytest.approx(
            0.0, abs=1e-12)

    def test_zero_for_stationary_pair(self):
        rng = np.random.default_rng(1)
        f = rain_field(smooth_random(rng)[None])
        assert loss_multiscale([f, f], uniform_motion(0.0, 0.0), ONE_STEP) == 0.0

    def test_constant_offset_gives_mae_one(self):
        rng = np.random.default_rng(2)
        base = smooth_random(rng)[None]
        f0 = rain_field(base)
        f1 = rain_field(base + 1.0)
        got = loss_multiscale([f0, f1], uniform_motion(0.0, 0.0), ONE_STEP)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_no_overlap_raises(self):
        f0 = rain_field(np.zeros((1, 4, 4)), mask=np.zeros((1, 4, 4), bool))
        f1 = rain_field(np.zeros((1, 4, 4)))
        with pytest.raises(NoOverlapError):
            loss_multiscale([f0, f1], uniform_motion(0.0, 0.0, ny=4, nx=4),
                            ONE_STEP)


class TestLossSequence:
    def test_zero_on_self_consistent_sequence(self):
        rng = np.random.default_rng(4)
        mf = uniform_motion(0.75, -0.5)
        frames = [smooth_random(rng)[None]]
        masks = [np.ones(frames[0].shape, bool)]
        for _ in range(5):
            frame, mask = advect_dbr(frames[-1], masks[-1], mf)
            frames.append(frame)
            masks.append(mask)
        assert dbr_data_term(frames, masks, mf, ONE_STEP) == pytest.approx(
            0.0, abs=1e-6)

    def test_positive_at_wrong_motion(self):
        rng = np.random.default_rng(5)
        mf = uniform_motion(1.0, 0.0)
        frames = [rain_field(smooth_random(rng)[None])]
        for _ in range(4):
            frames.append(advect_once(frames[-1], mf))
        assert loss_multiscale(frames, uniform_motion(0.0, 0.0), ONE_STEP) > 0.01

    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            loss_multiscale([rain_field(np.zeros((1, 4, 4)))],
                            uniform_motion(0.0, 0.0, ny=4, nx=4), ONE_STEP)


class TestLossMultiscale:
    def test_single_scale_equals_sequence(self):
        # the pair-averaged mean error of one backward warp per frame pair
        rng = np.random.default_rng(6)
        frames = [rain_field(smooth_random(rng)[None]) for _ in range(3)]
        mf = uniform_motion(0.3, 0.2)
        per_pair = []
        for f0, f1 in zip(frames, frames[1:]):
            warped, mask = advect_dbr(rain_to_dbr(f0), f0.mask, mf)
            valid = mask & f1.mask
            per_pair.append(np.abs(warped - rain_to_dbr(f1))[valid].mean())
        assert loss_multiscale(frames, mf, ONE_STEP) == pytest.approx(
            np.mean(per_pair), rel=1e-12)

    def test_pooled_and_rescaled_loss_small_at_true_uniform_motion(self):
        rng = np.random.default_rng(7)
        mf = uniform_motion(2.0, 0.0, ny=32, nx=32)
        frames = [rain_field(smooth_random(rng, 32, 32)[None])]
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
        frames = [rain_field(noise[None]), rain_field(noise[None] * 0 - 7.0)]
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


class TestSobelSlices:
    """The interior-slice stencil and its adjoint against scipy.ndimage."""

    @pytest.mark.parametrize("grid", [(1, 1), (1, 5), (2, 3), (3, 3), (17, 29)])
    def test_divergence_interior_is_ndimage_and_border_is_zero(self, grid):
        from scipy import ndimage
        u = np.random.default_rng(0).normal(size=(2, 2) + grid)
        u[..., ::2, ::3] *= 0.0  # signed zeros, whose sign must carry over
        got = divergence(MotionField(u))
        axes = (-2, -1)
        want = (ndimage.correlate(u[:, 0], SOBEL_X, mode="nearest", axes=axes)
                + ndimage.correlate(u[:, 1], SOBEL_Y, mode="nearest", axes=axes))
        assert got.shape == want.shape and got.dtype == want.dtype
        inner = np.zeros(grid, bool)
        inner[1:-1, 1:-1] = True
        assert np.array_equal(got[:, inner].view(np.uint64),
                              want[:, inner].view(np.uint64))
        assert not got[:, ~inner].view(np.uint64).any()  # +0.0 only

    @pytest.mark.parametrize("lead", [(), (2, 3)])
    @pytest.mark.parametrize("grid", [(1, 1), (1, 3), (4, 2), (3, 3), (15, 22)])
    def test_adjoint_is_ndimage_convolve_of_zero_bordered_signs(self, grid, lead):
        from scipy import ndimage
        g = np.random.default_rng(1).choice([-1.0, -0.0, 0.0, 1.0],
                                            size=lead + grid)
        full = np.zeros(lead + (grid[0] + 2, grid[1] + 2))
        full[..., 1:-1, 1:-1] = g
        for got, kernel in zip(_sobel_adjoint(g, _Workspace()), (SOBEL_X, SOBEL_Y)):
            want = ndimage.convolve(full, kernel, mode="constant", axes=(-2, -1))
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("seed", range(4))
    def test_adjoint_is_the_transpose_of_the_stencil(self, seed):
        # <forward(a), h> = <a, adjoint(h)>, both components at once
        rng = np.random.default_rng(seed)
        grid = (3 + 5 * seed, 4 + 3 * seed)
        a = rng.normal(size=(2, 2) + grid)
        h = rng.normal(size=(2, grid[0] - 2, grid[1] - 2))
        lhs = np.vdot(_sobel_interior(a, _Workspace()), h)
        dux, duy = _sobel_adjoint(h, _Workspace())
        rhs = np.vdot(a[:, 0], dux) + np.vdot(a[:, 1], duy)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestGaussian:
    """gradient_check's smoothing against scipy.ndimage.gaussian_filter,
    on grids smaller than its 8-cell radius (5^2, 9^2) and larger."""

    @pytest.mark.parametrize("grid", [(5, 5), (9, 9), (16, 16), (33, 33),
                                      (5, 33)])
    def test_equals_ndimage_gaussian_filter(self, grid):
        from scipy import ndimage
        rng = np.random.default_rng(grid[0] * grid[1])
        for _ in range(4):
            a = rng.normal(0.0, 4.0, grid)
            got = _gaussian(a)
            want = ndimage.gaussian_filter(a, 2.0)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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

    def test_levels_add_in_order(self):
        # 12 levels: np.sum pairs 8 or more, and on this field it rounds
        # apart from the in-order sum
        u = np.random.default_rng(4).normal(size=(12, 2, 10, 10))
        per_level = np.abs(_sobel_interior(u, _Workspace())).reshape(12, -1)
        total = 0.0
        for level_sum in per_level.sum(axis=-1):
            total += level_sum
        assert loss_divergence(MotionField(u)) == total / per_level.size


class TestLossTotal:
    def test_beta_bounds_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(beta=0.0)
        with pytest.raises(ValueError):
            LossConfig(beta=1.0)
        with pytest.raises(ValueError):
            LossConfig(beta=-0.5)

    @pytest.mark.parametrize("scales", [(2.5,), (1, 2.0), (float("nan"),),
                                        (float("inf"),), ("2",), "124", 2],
                             ids=["2.5", "2.0", "nan", "inf", "str", "one str",
                                  "bare int"])
    def test_non_integer_scales_rejected(self, scales):
        with pytest.raises(ValueError, match="scales must be"):
            LossConfig(scales=scales)

    def test_scale_out_of_range_rejected(self):
        # the command line rejects these while parsing; library callers
        # reach this check
        with pytest.raises(ValueError) as err:
            LossConfig(scales=(1, 0))
        assert str(err.value) == \
            "scales must be non-empty, each >= 1, got (1, 0)"
        for scales in [(), (0,), (-2,), (4, -1)]:
            with pytest.raises(ValueError, match="each >= 1"):
                LossConfig(scales=scales)

    def test_numpy_integer_scales_kept(self):
        cfg = LossConfig(scales=np.array([1, 2, 4]))
        assert cfg.scales == (1, 2, 4)
        assert all(type(k) is int for k in cfg.scales)

    def test_perfect_uniform_fit_is_divergence_free_zero(self):
        rng = np.random.default_rng(9)
        mf = uniform_motion(2.0, 0.0)
        frames = [rain_field(smooth_random(rng)[None])]
        frames.append(advect_once(frames[0], mf))
        cfg = LossConfig(scales=(1,))
        assert loss_total(frames, mf, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_two_term_arithmetic(self):
        rng = np.random.default_rng(10)
        frames = [rain_field(smooth_random(rng)[None]) for _ in range(3)]
        u = rng.normal(0.0, 0.5, (1, 2, 16, 16))
        mf = MotionField(u)
        cfg = LossConfig(beta=0.5)
        expect = 0.5 * loss_multiscale(frames, mf, cfg) + 0.5 * loss_divergence(mf)
        assert loss_total(frames, mf, cfg) == pytest.approx(expect, rel=1e-12)

    def test_motion_of_another_grid_or_level_count_is_rejected(self):
        rng = np.random.default_rng(12)
        frames = [rain_field(smooth_random(rng)[None]) for _ in range(2)]
        with pytest.raises(ValueError, match=r"motion grid \(16, 12\) != "
                                             r"field grid \(16, 16\)"):
            loss_total(frames, uniform_motion(0.5, 0.0, nx=12))
        with pytest.raises(ValueError,
                           match="motion has Z=2, fields have Z=1"):
            loss_total(frames, uniform_motion(0.5, 0.0, nz=2))

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            frames = [rain_field(smooth_random(rng)[None]) for _ in range(2)]
            mf = MotionField(rng.normal(0, 1, (1, 2, 16, 16)))
            assert loss_total(frames, mf) >= 0.0


class TestGradients:
    def test_analytic_matches_finite_differences_mae(self):
        assert gradient_check(LossConfig(), n_instances=3, seed=0) < 1e-4

    def test_gradient_with_heavier_divergence_weight(self):
        assert gradient_check(LossConfig(beta=0.6), n_instances=2, seed=2) < 1e-4

    def test_evaluate_consistent_with_loss_total(self):
        rng = np.random.default_rng(12)
        frames = [rain_field(smooth_random(rng)[None]) for _ in range(3)]
        mf = MotionField(rng.normal(0, 0.5, (1, 2, 16, 16)))
        cfg = LossConfig()
        obj = SequenceObjective([rain_to_dbr(f) for f in frames],
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
        obj = SequenceObjective(frames, masks, LossConfig(scales=(1, 2, 4)))
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
        frames = [smooth_random(rng)[None] for _ in range(2)]
        cfg = LossConfig(beta=1e-9, scales=(1,))
        obj = SequenceObjective(frames, [mask.copy() for _ in frames], cfg)
        _, _, _, grad = obj.evaluate(uniform_motion(0.25, 0.0).u)
        # far inside the masked half nothing constrains the motion
        assert np.abs(grad[0, :, :, 12:]).max() < 1e-9


# The objective as it was before evaluate() reused a workspace: every
# array allocated afresh, the divergence over the whole plane from
# scipy.ndimage and read on an interior mask (see TestSobelSlices). Kept as
# the reference that the workspace evaluate must match bit for bit.

def _ref_bilinear(planes, xs, ys, want_grad):
    h, w = planes.shape[-2:]
    x0, y0 = np.floor(xs), np.floor(ys)
    wx, wy = xs - x0, ys - y0
    x0i = np.minimum(np.maximum(x0, 0), w - 1).astype(np.int64)
    y0i = np.minimum(np.maximum(y0, 0), h - 1).astype(np.int64)
    x1i = np.minimum(x0i + 1, w - 1)
    row0, row1 = y0i * w, np.minimum(y0i + 1, h - 1) * w
    flat = planes.reshape(planes.shape[:-2] + (-1,))
    f00, f01, f10, f11 = (flat.take(i, axis=-1) for i in (
        row0 + x0i, row0 + x1i, row1 + x0i, row1 + x1i))
    cx, cy = 1 - wx, 1 - wy
    out = cy * (cx * f00 + wx * f01) + wy * (cx * f10 + wx * f11)
    if not want_grad:
        return out, None, None
    return (out, cy * (f01 - f00) + wy * (f11 - f10),
            cx * (f10 - f00) + wx * (f11 - f01))


def _ref_warp_stack(sources, masks, targets, vx, vy, want_grad):
    n_pairs, ny, nx = targets.shape
    xs = np.arange(nx, dtype=np.float64) - vx
    ys = np.arange(ny, dtype=np.float64)[:, None] - vy
    warped, gx, gy = _ref_bilinear(sources, xs, ys, want_grad)
    per_pair = (n_pairs,) + (1,) * (vx.ndim - 2) + (ny, nx)
    valid = (xs >= 0) & (xs <= nx - 1) & (ys >= 0) & (ys <= ny - 1)
    if masks is not None:
        xn = np.clip(np.rint(xs), 0, nx - 1).astype(np.int64)
        yn = np.clip(np.rint(ys), 0, ny - 1).astype(np.int64)
        flat = masks[:-1].reshape(n_pairs, -1)
        valid = np.logical_and(valid, flat.take(yn * nx + xn, axis=-1))
        valid = valid & masks[1:].reshape(per_pair)
    counts = valid.reshape(valid.shape[:-2] + (-1,)).sum(axis=-1)
    r = np.where(valid, warped - targets.reshape(per_pair), 0.0)
    sums = np.abs(r).reshape(r.shape[:-2] + (-1,)).sum(axis=-1)
    dr = np.sign(r)
    if not want_grad:
        return sums, counts, None, None
    return sums, counts, -dr * gx, -dr * gy


def _ref_unpool_grad(g, k, ny, nx):
    if k == 1:
        return g.copy()
    up = upsample2d(g, k) / float(k ** 3)
    out = up[..., :ny, :nx].copy()
    uy, ux = up.shape[-2:]
    if uy > ny:
        out[..., ny - 1, :] += up[..., ny:, :nx].sum(axis=-2)
    if ux > nx:
        out[..., nx - 1] += up[..., :ny, nx:].sum(axis=-1)
    if uy > ny and ux > nx:
        out[..., ny - 1, nx - 1] += up[..., ny:, nx:].sum(axis=(-2, -1))
    return out


def _ref_evaluate(obj, u, want_grad=True):
    from scipy import ndimage
    cfg = obj.cfg
    batch = u.shape[:-4]
    n_scales = len(obj.active_scales)
    grad = np.zeros_like(u) if want_grad else None
    data_val = np.zeros(batch)
    for k in obj.active_scales:
        n_tot = np.zeros((obj.n_pairs,) + batch)
        per_z = []
        for z in range(obj.nz):
            sources, mstack, targets = obj.pooled[k][z]
            v = u[..., z, :, :, :]
            if k > 1:
                v = avg_pool2d(v, k) / k
            sums, counts, dvx, dvy = _ref_warp_stack(
                sources, mstack, targets, v[..., 0, :, :], v[..., 1, :, :],
                want_grad)
            per_z.append((sums, dvx, dvy))
            n_tot += counts
        if (n_tot == 0).any():
            return np.inf, np.inf, 0.0, grad
        w = 1.0 / (n_tot * obj.n_pairs * n_scales)
        for z, (sums, dvx, dvy) in enumerate(per_z):
            data_val += (sums * w).sum(axis=0)
            if want_grad:
                gx = np.einsum("p...,p...yx->...yx", w, dvx)
                gy = np.einsum("p...,p...yx->...yx", w, dvy)
                grad[..., z, 0, :, :] += _ref_unpool_grad(gx, k, obj.ny, obj.nx)
                grad[..., z, 1, :, :] += _ref_unpool_grad(gy, k, obj.ny, obj.nx)

    axes = (-2, -1)
    div = (ndimage.correlate(u[..., 0, :, :], SOBEL_X, mode="nearest", axes=axes)
           + ndimage.correlate(u[..., 1, :, :], SOBEL_Y, mode="nearest", axes=axes))
    inner = np.zeros((obj.ny, obj.nx), bool)
    inner[1:-1, 1:-1] = True
    inner_cells = np.flatnonzero(inner)
    n_int = inner_cells.size * obj.nz
    div_val = np.zeros(batch)
    if n_int:
        cells = div.reshape(div.shape[:-2] + (-1,)).take(inner_cells, axis=-1)
        per_level = np.abs(cells).sum(axis=-1)
        div_val = sum(np.moveaxis(per_level, -1, 0)) / n_int
    if want_grad and n_int > 0:
        g = np.where(inner, np.sign(div), 0.0)
        dux = ndimage.convolve(g, SOBEL_X, mode="constant", axes=axes)
        duy = ndimage.convolve(g, SOBEL_Y, mode="constant", axes=axes)
        grad[..., 0, :, :] = (1.0 - cfg.beta) * grad[..., 0, :, :] \
            + cfg.beta * dux / n_int
        grad[..., 1, :, :] = (1.0 - cfg.beta) * grad[..., 1, :, :] \
            + cfg.beta * duy / n_int
    elif want_grad:
        grad *= (1.0 - cfg.beta)
    total = (1.0 - cfg.beta) * data_val + cfg.beta * div_val
    if not batch:
        total, data_val, div_val = float(total), float(data_val), float(div_val)
    return total, data_val, div_val, grad


def _same_bytes(a, b):
    if a is None or b is None:
        return a is None and b is None
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestWorkspaceEvaluate:
    """evaluate() writes into arrays kept across calls; its results must
    be the reference's, bit for bit, whatever the earlier calls were."""

    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_equal_to_allocating_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        nz = 1 + seed % 2
        ny, nx = [(16, 16), (13, 19), (24, 9)][seed % 3]
        n_frames = 2 + seed % 3
        frames = [np.maximum(rng.normal(-3.0, 8.0, (nz, ny, nx)), -15.0)
                  for _ in range(n_frames)]
        if seed % 3:
            masks = [rng.random((nz, ny, nx)) > 0.1 for _ in range(n_frames)]
        else:
            masks = [np.ones((nz, ny, nx), bool)] * n_frames
        cfg = LossConfig(beta=[0.1, 0.6][seed % 2],
                         scales=[(1, 2, 4), (1, 3), (2, 4, 8)][seed % 3])
        obj = SequenceObjective(frames, masks, cfg)
        # batch shapes change between calls, so arrays are both reused and
        # replaced; motions range from sub-cell to far out of the domain
        for call, batch in enumerate([(), (3,), (), (2, 2), (3,), ()]):
            amp = [0.4, 2.5, 30.0][call % 3]
            u = rng.uniform(-amp, amp, batch + (nz, 2, ny, nx))
            u[..., 0, 0, 1, 2] = [1e30, -1e30][call % 2]
            want_grad = call != 4
            got = obj.evaluate(u, want_grad=want_grad)
            want = _ref_evaluate(obj, u, want_grad=want_grad)
            assert all(_same_bytes(a, b) for a, b in zip(got, want)), call

    def test_bitwise_equal_at_the_desk_shape(self, workloads):
        """8 float64 dBR frames of the seed-1 desk_uniform8 input (8 levels
        at 128^2), built through the benchmark's own scenario, all valid
        and with a masked block, at scales 1,2,4 and 1,2,4,8, for one
        motion and a batch of two, with and without the gradient."""
        vol, truth = generate(workloads._scenario(
            "uniform", np.random.default_rng(1), frames=24, seed=1))
        frames = [volume_to_rain(vol, t) for t in range(8)]
        data = [rain_to_dbr(f) for f in frames]
        masked = [f.mask.copy() for f in frames]
        for m in masked:
            m[:, 40:72, 24:80] = False
        u = truth.u + np.random.default_rng(1).uniform(-0.5, 0.5, truth.u.shape)
        for masks in ([f.mask for f in frames], masked):
            for scales in ((1, 2, 4), (1, 2, 4, 8)):
                obj = SequenceObjective(data, masks, LossConfig(scales=scales))
                for field in (u, np.stack([u, truth.u])):
                    for want_grad in (True, False):
                        got = obj.evaluate(field, want_grad)
                        want = _ref_evaluate(obj, field, want_grad)
                        assert all(_same_bytes(a, b) for a, b in zip(
                            got, want)), (scales, field.shape, want_grad)

    def test_lost_overlap_is_infinite_as_in_reference(self):
        rng = np.random.default_rng(7)
        frames = [smooth_random(rng)[None] for _ in range(3)]
        obj = SequenceObjective(frames, [np.ones((1, 16, 16), bool)] * 3,
                                LossConfig())
        u = np.full((1, 2, 16, 16), 40.0)
        for _ in range(2):
            got, want = obj.evaluate(u), _ref_evaluate(obj, u)
            assert got[:3] == want[:3] == (np.inf, np.inf, 0.0)
            assert _same_bytes(got[3], want[3])

    def test_later_calls_leave_a_returned_gradient_unchanged(self):
        rng = np.random.default_rng(8)
        frames = [smooth_random(rng)[None] for _ in range(3)]
        masks = [rng.random((1, 16, 16)) > 0.1 for _ in range(3)]
        obj = SequenceObjective(frames, masks, LossConfig())
        u1 = rng.uniform(-1.0, 1.0, (1, 2, 16, 16))
        g1 = obj.evaluate(u1)[3]
        kept = g1.copy()
        for u in (u1 + 0.5, rng.uniform(-1.0, 1.0, (2, 1, 2, 16, 16)), u1 - 0.5):
            g = obj.evaluate(u)[3]
            assert not np.shares_memory(g, g1)
        assert g1.tobytes() == kept.tobytes()

    def test_allocates_only_the_returned_gradient(self):
        # the desk-scale objective: one 128^2 level, 8 frames, scales 1,2,4
        obj, u = _desk_objective(128)
        peak, grad = _evaluate_peak(obj, u)
        assert peak - grad.nbytes < 64 * 1024

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_grid_a_scale_does_not_divide_allocates_no_more(self, dtype):
        # 130^2: scales 2 and 4 pad the motion, into a workspace array
        peak_128, _ = _evaluate_peak(*_desk_objective(128, dtype))
        peak_130, grad = _evaluate_peak(*_desk_objective(130, dtype))
        assert peak_130 <= peak_128 + grad.nbytes

    def test_scales_share_one_set_of_buffers(self):
        # the coarser scales' arrays are views of the full-resolution
        # scale's, so they add almost nothing to the call that builds them
        peaks = {scales: _evaluate_peak(*_desk_objective(128, np.float32,
                                                         scales),
                                        warm_up=False)[0]
                 for scales in ((1,), (1, 2, 4))}
        assert peaks[1, 2, 4] <= 1.1 * peaks[1,], peaks


def _desk_objective(n, dtype=np.float64, scales=(1, 2, 4)):
    """One n x n level, 8 frames, scales 1,2,4 unless given, and a motion
    to score."""
    y, x = np.mgrid[0:n, 0:n]
    frames = [np.maximum(10.0 * np.sin((x - 1.3 * t) / 9.0)
                         * np.cos((y - 0.7 * t) / 11.0), -15.0)[None]
              .astype(dtype) for t in range(8)]
    masks = [np.ones((1, n, n), bool)] * 8
    obj = SequenceObjective(frames, masks, LossConfig(scales=scales))
    return obj, np.random.default_rng(9).uniform(-1.0, 1.0, (1, 2, n, n))


def _evaluate_peak(obj, u, warm_up=True):
    """(peak bytes traced during one evaluate, after a warm-up call unless
    warm_up is False, the gradient it returned)."""
    if warm_up:
        obj.evaluate(u)
    # NumPy's ufunc loops may stage operands in buffers of up to bufsize
    # elements whatever the array sizes; the smallest bufsize keeps them
    # out of the count, which is then of arrays alone
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    old = np.setbufsize(16)
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        grad = obj.evaluate(u)[3]
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        np.setbufsize(old)
        if not tracing:
            tracemalloc.stop()
    return peak, grad


def _loss_and_grads(frames, masks, cfg, u):
    """(total, gradient) of the float64 and of the float32 objective."""
    got = []
    for dtype in (np.float64, np.float32):
        obj = SequenceObjective([f.astype(dtype) for f in frames], masks, cfg)
        total, _, _, grad = obj.evaluate(u)
        assert grad.dtype == np.float64
        got.append((total, grad))
    return got


@pytest.fixture(scope="module")
def desk_levels():
    """(name, frames, masks, truth motion) of every level of the shear2,
    uniform and rotation desk scenes: the 8 dBR input frames the estimator
    sees."""
    levels = []
    for name in ("shear2", "uniform", "rotation"):
        vol, truth = generate(preset(name))
        fields = [volume_to_rain(vol, t) for t in range(8)]
        frames = [rain_to_dbr(f) for f in fields]
        for z in range(vol.shape[1]):
            levels.append((f"{name}/{z}", [f[z][None] for f in frames],
                           [f.mask[z][None] for f in fields], truth.u[z][None]))
    return levels


class TestFloat32Objective:
    """Float32 frames warp in float32; the result must stay close to the
    float64 objective's, which gradient_check validates."""

    def test_gradient_check_is_unchanged(self):
        assert gradient_check(LossConfig(), 20, 16, 0) == 2.6629501089035085e-06

    def test_matches_float64_on_the_gradient_check_instances(self):
        for frames, masks, u in _check_instances(20, 16, 0):
            (t64, g64), (t32, g32) = _loss_and_grads(frames, masks,
                                                     LossConfig(), u)
            assert abs(t32 - t64) <= 1e-6 * abs(t64)
            assert np.abs(g32 - g64).max() <= 1e-5 * np.abs(g64).max()

    def test_matches_float64_on_desk_levels(self, desk_levels):
        # Part-way to the truth and at it. At zero motion some pooled
        # residuals are ties that the two dtypes round to different signs
        # (float64 to about 1e-15), so sign(r) there, and the MAE
        # subgradient, is noise.
        cfg = LossConfig(scales=(1, 2, 4))
        for name, frames, masks, truth in desk_levels:
            for frac in (0.5, 0.9, 1.0):
                (t64, g64), (t32, g32) = _loss_and_grads(frames, masks, cfg,
                                                         frac * truth)
                assert abs(t32 - t64) <= 1e-5 * t64, (name, frac)
                # sign(r) flips on the few cells where r is about zero, so
                # the difference is bounded in L1, not cell by cell
                assert np.abs(g32 - g64).sum() <= 1e-3 * np.abs(g64).sum(), \
                    (name, frac)

    def test_motion_past_the_float32_range_leaves_the_grid(self):
        # a departure of 1e300 cells overflows float32; clipped, it is
        # outside like one of 1e36 cells (RuntimeWarning is an error here)
        rng = np.random.default_rng(4)
        frames = [smooth_random(rng)[None].astype(np.float32)
                  for _ in range(3)]
        obj = SequenceObjective(frames, [np.ones((1, 16, 16), bool)] * 3,
                                LossConfig(scales=(1, 2)))
        u = np.repeat(rng.uniform(-1.0, 1.0, (1, 1, 2, 16, 16)), 2, axis=0)
        u[0, 0, 0, 3, 3], u[1, 0, 0, 3, 3] = 1e300, 1e36
        _, data, _, grad = obj.evaluate(u)
        assert np.isfinite(grad).all()
        assert data[0] == data[1]
        assert grad[0].tobytes() == grad[1].tobytes()

    def test_float32_frames_give_float32_warp_planes(self):
        rng = np.random.default_rng(3)
        frames = [np.maximum(rng.normal(-3.0, 8.0, (2, 13, 19)), -15.0)
                  .astype(np.float32) for _ in range(3)]
        masks = [rng.random((2, 13, 19)) > 0.1 for _ in range(3)]
        obj = SequenceObjective(frames, masks, LossConfig(scales=(1, 2, 4)))
        u = rng.uniform(-2.0, 2.0, (2, 2, 13, 19))
        total, _, _, grad = obj.evaluate(u)
        assert isinstance(total, float) and grad.dtype == np.float64
        for k in obj.active_scales:
            sources, _, targets = obj.pooled[k][0]
            assert sources.dtype == targets.dtype == np.float32
        # every scale shares the one workspace
        arrays = obj._ws._buffers
        for name in ("xs", "ys", "warped", "level_grads",
                     *(("work", i) for i in range(6)),
                     *(("weight", i) for i in range(4))):
            assert arrays[name].dtype == np.float32, name
        # the motion and its data-term gradient stay float64
        for name in ("g", "v", "v_padded"):
            assert arrays[name].dtype == np.float64, name


class TestFloat32Motion:
    """A float32 motion field, as synth's truth and read_motion give, is
    read in float64: every result is the bytes of its float64 copy's."""

    @staticmethod
    def _motion(rng, nz=2, ny=13, nx=19):
        return rng.uniform(-2.0, 2.0, (nz, 2, ny, nx)).astype(np.float32)

    @pytest.mark.parametrize("frame_dtype", [np.float64, np.float32])
    def test_evaluate(self, frame_dtype):
        rng = np.random.default_rng(21)
        frames = [np.maximum(rng.normal(-3.0, 8.0, (2, 13, 19)), -15.0)
                  .astype(frame_dtype) for _ in range(3)]
        masks = [rng.random((2, 13, 19)) > 0.1 for _ in range(3)]
        obj = SequenceObjective(frames, masks, LossConfig(scales=(1, 2, 4)))
        u32 = self._motion(rng)
        for u in (u32, np.stack([u32, -u32])):
            for want_grad in (True, False):
                got = obj.evaluate(u, want_grad)
                want = obj.evaluate(u.astype(np.float64), want_grad)
                if want_grad:
                    assert got[3].dtype == np.float64
                for a, b in zip(got, want):
                    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_losses_and_divergence(self):
        rng = np.random.default_rng(22)
        u32 = self._motion(rng)
        mf32, mf64 = MotionField(u32), MotionField(u32.astype(np.float64))
        assert mf32.u.dtype == np.float32
        phi = [rain_field(np.maximum(rng.normal(-3.0, 8.0, (2, 13, 19)), -15.0))
               for _ in range(3)]
        got, want = divergence(mf32), divergence(mf64)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        for fn in (loss_divergence, lambda mf: loss_total(phi, mf),
                   lambda mf: loss_multiscale(phi, mf)):
            assert fn(mf32) == fn(mf64)
