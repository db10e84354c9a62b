import tracemalloc

import numpy as np
import pytest

from voxflow import grid
from voxflow.advect import _advect_masks, _advect_planes, _departures
from voxflow.grid import (
    NO_ECHO_DBZ,
    MotionField,
    RadarVolume,
    RainField,
    avg_pool2d,
    cmax,
    pool_mask_all,
    upsample2d,
)


def block_mean_oracle(field, k):
    """Explicit per-block loop, the reference for avg_pool2d."""
    ny, nx = field.shape
    out = np.zeros((ny // k, nx // k))
    for i in range(ny // k):
        for j in range(nx // k):
            out[i, j] = field[i * k:(i + 1) * k, j * k:(j + 1) * k].mean()
    return out


class TestAvgPool:
    def test_2x2_block(self):
        f = np.array([[1.0, 1.0], [3.0, 3.0]])
        np.testing.assert_allclose(avg_pool2d(f, 2), [[2.0]])

    def test_identity_k1(self):
        f = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(avg_pool2d(f, 1), f)

    def test_ramp_against_block_loop(self):
        f = np.arange(16.0).reshape(4, 4)
        np.testing.assert_allclose(avg_pool2d(f, 2), block_mean_oracle(f, 2))

    def test_random_against_block_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = rng.normal(size=(8, 12))
            for k in (1, 2, 4):
                np.testing.assert_allclose(avg_pool2d(f, k),
                                           block_mean_oracle(f, k))

    def test_preserves_global_mean(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(16, 16))
        for k in (2, 4, 8):
            assert avg_pool2d(f, k).mean() == pytest.approx(f.mean())

    def test_pads_by_replication(self):
        f = np.array([[1.0, 2.0, 3.0]])
        out = avg_pool2d(f, 2)
        assert out.shape == (1, 2)
        assert out[0, 1] == pytest.approx(3.0)  # replicated edge

    def test_padding_buffer_gives_the_bytes_of_np_pad(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(2, 3, 13, 19))
        for k in (2, 3, 4):
            py, px = -13 % k, -19 % k
            want = np.pad(f, [(0, 0), (0, 0), (0, py), (0, px)], mode="edge")
            padded = np.full(want.shape, np.nan)
            got = avg_pool2d(f, k, padded=padded)
            assert padded.tobytes() == want.tobytes()
            assert got.tobytes() == avg_pool2d(f, k).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_equal_to_numpy_block_mean(self, dtype):
        # k < 8 adds strided views in the order NumPy's mean sums a block;
        # signed zeros included, as both sum from 0.0
        rng = np.random.default_rng(6)
        for shape in [(2, 37, 45), (3, 2, 16, 16), (64, 40)]:
            f = rng.normal(size=shape).astype(dtype)
            f[..., ::3, ::2] = -0.0
            f[..., 1::5, ::3] = 0.0
            for k in range(2, 10):
                ny, nx = shape[-2:]
                padded = np.pad(f, [(0, 0)] * (f.ndim - 2)
                                + [(0, -ny % k), (0, -nx % k)], mode="edge")
                want = padded.reshape(
                    f.shape[:-2] + (padded.shape[-2] // k, k,
                                    padded.shape[-1] // k, k)).mean(
                                        axis=(-3, -1))
                got = avg_pool2d(f, k)
                assert got.dtype == dtype
                assert got.tobytes() == want.tobytes(), (shape, k)
                out, row = np.full_like(want, np.nan), np.full_like(want, np.nan)
                assert avg_pool2d(f, k, out=out, row=row) is out
                assert out.tobytes() == want.tobytes(), (shape, k)

    def test_keeps_a_floating_dtype(self):
        f = np.arange(30.0).reshape(5, 6)
        for dtype in (np.float32, np.float64):
            for k in (1, 2, 4):
                assert avg_pool2d(f.astype(dtype), k).dtype == dtype
        assert avg_pool2d(np.arange(16).reshape(4, 4), 2).dtype == np.float64
        assert avg_pool2d(np.ones((4, 4), bool), 1).dtype == np.float64

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            avg_pool2d(np.zeros((4, 4)), 0)
        with pytest.raises(ValueError):
            avg_pool2d(np.zeros((4, 4)), -2)


class TestPoolMask:
    def test_all_valid_block_required(self):
        m = np.ones((4, 4), bool)
        m[0, 1] = False
        out = pool_mask_all(m, 2)
        assert not out[0, 0]
        assert out[0, 1] and out[1, 0] and out[1, 1]

    def test_padding_is_invalid(self):
        m = np.ones((3, 4), bool)
        out = pool_mask_all(m, 2)
        assert out.shape == (2, 2)
        assert not out[1].any()  # padded row blocks


class TestMaxPoolVertical:
    def _vol(self, data, levels=None):
        z = data.shape[1]
        levels = levels if levels is not None else 500.0 * (1 + np.arange(z))
        return RadarVolume(data=data, z_levels=levels)

    def test_pairwise_max(self):
        data = np.zeros((1, 2, 2, 2))
        data[0, 0] = [[1, 5], [2, 2]]
        data[0, 1] = [[3, 4], [0, 7]]
        out = cmax(self._vol(data))
        np.testing.assert_array_equal(out.data[0, 0], [[3, 5], [2, 7]])
        assert out.z_levels[0] == 1000.0

    def test_invalid_cells_ignored_unless_all_invalid(self):
        data = np.zeros((1, 2, 1, 2))
        data[0, 0] = [[10.0, 10.0]]
        data[0, 1] = [[50.0, 50.0]]
        mask = np.ones((2, 1, 2), bool)
        mask[1, 0, 0] = False          # one level invalid: other wins
        mask[:, 0, 1] = False          # whole column invalid
        vol = RadarVolume(data=data, z_levels=[500.0, 1000.0], mask=mask)
        out = cmax(vol)
        assert out.data[0, 0, 0, 0] == 10.0
        assert out.mask[0, 0, 0]
        assert not out.mask[0, 0, 1]

    def test_non_finite_valid_cells_are_skipped(self):
        # volume_to_rain leaves a non-finite cell invalid, so the maximum
        # skips it; a column with no finite valid cell holds -inf
        data = np.array([[[[np.nan, 40.0, -np.inf, np.nan]],
                          [[20.0, np.inf, np.inf, np.nan]]]])
        vol = RadarVolume(data=data, z_levels=[500.0, 1000.0])
        out = cmax(vol)
        assert out.data[0, 0, 0].tolist() == [20.0, 40.0, -np.inf, -np.inf]
        assert out.mask[0, 0].tolist() == [True] * 4


def pool_max_reference(data, mask, fill):
    """The column maximum by copy and overwrite: cells that are invalid or
    not finite take the dtype's lowest value, the levels are reduced, and a
    column without a valid cell takes fill."""
    lowest = -np.inf if data.dtype.kind == "f" else np.iinfo(data.dtype).min
    data = data.copy()
    data[~(mask & np.isfinite(data))] = lowest
    data = data.max(axis=-3, keepdims=True)
    pooled = mask.any(axis=0, keepdims=True)
    data[..., ~pooled[0]] = fill
    return data, pooled


class TestColumnMax:
    def _case(self, rng, dtype, values):
        """A 3 x 4 x 5 x 6 array drawn from values and a 4 x 5 x 6 mask
        with two all-invalid columns."""
        data = rng.choice(np.asarray(values, dtype), (3, 4, 5, 6))
        mask = rng.random((4, 5, 6)) > 0.3
        mask[:, 0, :2] = False
        return data, mask

    def _check(self, data, mask, fill):
        before = data.copy()
        got = grid.column_max(data, mask & np.isfinite(data), mask, fill)
        want = pool_max_reference(data, mask, fill)
        assert got[0].dtype == data.dtype and got[0].shape == want[0].shape
        assert got[0].tobytes() == want[0].tobytes()
        np.testing.assert_array_equal(got[1], want[1])
        assert data.tobytes() == before.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_float64_equals_the_overwriting_reference(self, seed):
        rng = np.random.default_rng(seed)
        data, mask = self._case(rng, np.float64, [
            np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, -3.25, 47.0])
        # both orders of the signed zeros in one valid column
        data[:, :2, 1, 1] = [-0.0, 0.0]
        data[:, :2, 1, 2] = [0.0, -0.0]
        mask[:2, 1, 1:3] = True
        self._check(data, mask, NO_ECHO_DBZ)
        self._check(data[0], mask, np.nan)  # no leading time axis

    @pytest.mark.parametrize("seed", range(4))
    def test_uint8_codes_equal_the_overwriting_reference(self, seed):
        rng = np.random.default_rng(seed)
        data, mask = self._case(rng, np.uint8, [0, 1, 64, 200, 254, 255])
        mask &= (data != 255).all(axis=0)  # the reader's static mask
        self._check(data, mask, 255)

    def test_cmax_field_takes_valid_non_finite_rates(self):
        data = np.array([[[np.inf, 2.0, 5.0]], [[1.0, np.nan, 3.0]]])
        mask = np.array([[[True, True, False]], [[True, True, False]]])
        out = grid.cmax_field(RainField(data=data, mask=mask))
        assert np.array_equal(out.data, [[[np.inf, np.nan, 0.0]]],
                              equal_nan=True)
        assert out.mask.tolist() == [[[True, True, False]]]

    def test_cmax_field_of_float32_is_the_float64_copys(self):
        rng = np.random.default_rng(5)
        data = rng.choice(np.array([np.inf, np.nan, 0.0, 0.25, 3.4e38, 7.0],
                                   np.float32), (3, 5, 6))
        mask = rng.random((3, 5, 6)) > 0.4
        mask[:, 0, :2] = False
        got = grid.cmax_field(RainField(data=data, mask=mask))
        want = grid.cmax_field(RainField(data=data.astype(np.float64),
                                         mask=mask))
        assert got.data.dtype == np.float64
        assert got.data.tobytes() == want.data.tobytes()
        assert got.mask.tobytes() == want.mask.tobytes()

    def test_cmax_holds_no_float64_copy_of_the_volume(self):
        rng = np.random.default_rng(3)
        vol = RadarVolume(data=rng.normal(20.0, 10.0, (12, 8, 64, 64)),
                          z_levels=500.0 * np.arange(1, 9),
                          mask=rng.random((8, 64, 64)) > 0.1)
        want = pool_max_reference(vol.data, vol.mask, NO_ECHO_DBZ)
        tracemalloc.start()
        try:
            out = cmax(vol)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < vol.data.nbytes / 2
        assert out.data.tobytes() == want[0].tobytes()


def hand_bilinear(field, x, y):
    """Explicit 4-neighbor evaluation with zero outside the domain."""
    ny, nx = field.shape
    x0, y0 = int(np.floor(x)), int(np.floor(y))
    wx, wy = x - x0, y - y0
    total = 0.0
    for dy, dx, w in ((0, 0, (1 - wy) * (1 - wx)), (0, 1, (1 - wy) * wx),
                      (1, 0, wy * (1 - wx)), (1, 1, wy * wx)):
        yy, xx = y0 + dy, x0 + dx
        if 0 <= yy < ny and 0 <= xx < nx:
            total += w * field[yy, xx]
    return total


def warp_plane(plane, mask, ux, uy):
    """One backward warp of a 2-D plane and its mask through advection's
    own departure geometry and kernels, the motion checked as a
    MotionField."""
    mf = MotionField(np.stack([ux, uy])[None])
    corners, nearest = _departures(*mf.level(0), *plane.shape)
    return (next(_advect_planes(plane, corners, 1)),
            next(_advect_masks(mask, nearest, 1)))


def bilinear_sample(field, x, y):
    """Bilinear value of field at (x, y), taken from warp_plane: output
    cell (0, 0) departs from (x, y) when its motion is (-x, -y)."""
    ux = np.zeros(field.shape)
    uy = np.zeros(field.shape)
    ux[0, 0] = -x
    uy[0, 0] = -y
    out, _ = warp_plane(field, np.ones(field.shape, bool), ux, uy)
    return out[0, 0]


class TestBilinearSample:
    def test_exact_at_nodes(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(5, 7))
        for y in range(5):
            for x in range(7):
                assert bilinear_sample(f, x, y) == pytest.approx(f[y, x])

    def test_midpoint(self):
        f = np.array([[0.0, 2.0]])
        assert bilinear_sample(f, 0.5, 0.0) == pytest.approx(1.0)

    @pytest.mark.filterwarnings("error")
    def test_outside_with_zero_policy_matches_hand_oracle(self):
        f = np.full((3, 3), 4.0)
        got = bilinear_sample(f, -0.5, 1.0)
        assert got == pytest.approx(hand_bilinear(f, -0.5, 1.0))
        assert got == pytest.approx(2.0)  # half the boundary value
        # departures far beyond the int64 range are 0 mm/h and invalid
        for x, y in ((1e30, 1.0), (-1e30, 1.0), (1.0, 1e30), (1.0, -1e30)):
            ux = np.zeros(f.shape)
            uy = np.zeros(f.shape)
            ux[0, 0], uy[0, 0] = -x, -y
            out, valid = warp_plane(f, np.ones(f.shape, bool), ux, uy)
            assert out[0, 0] == hand_bilinear(f, x, y) == 0.0
            assert not np.signbit(out[0, 0]) and not valid[0, 0]

    def test_random_points_match_hand_oracle(self):
        rng = np.random.default_rng(9)
        f = rng.normal(size=(6, 6))
        for _ in range(50):
            x = rng.uniform(-2, 7)
            y = rng.uniform(-2, 7)
            assert bilinear_sample(f, x, y) == pytest.approx(
                hand_bilinear(f, x, y), abs=1e-12)

    def test_linear_in_field(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=(5, 5))
        g = rng.normal(size=(5, 5))
        a, b = 2.5, -1.25
        for _ in range(20):
            x = rng.uniform(-1, 5.5)
            y = rng.uniform(-1, 5.5)
            lhs = bilinear_sample(a * f + b * g, x, y)
            rhs = a * bilinear_sample(f, x, y) + b * bilinear_sample(g, x, y)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_nan_coordinates_rejected(self):
        with pytest.raises(ValueError):
            bilinear_sample(np.zeros((3, 3)), np.nan, 0.0)


def corner_reference(planes, xs, ys, pad=0):
    """Samples and point derivatives of a stack padded by pad cells before
    each axis, from the four clamped corner cells of each point, written
    out by hand in the kernel's order of operations."""
    h, w = planes.shape[-2:]
    x0, y0 = np.floor(xs), np.floor(ys)
    wx, wy = xs - x0, ys - y0
    cx, cy = 1 - wx, 1 - wy
    c0 = np.clip(x0 + pad, 0, w - 1).astype(np.int64)
    r0 = np.clip(y0 + pad, 0, h - 1).astype(np.int64)
    c1, r1 = np.minimum(c0 + 1, w - 1), np.minimum(r0 + 1, h - 1)
    f00, f01 = planes[..., r0, c0], planes[..., r0, c1]
    f10, f11 = planes[..., r1, c0], planes[..., r1, c1]
    return (cy * (cx * f00 + wx * f01) + wy * (cx * f10 + wx * f11),
            cy * (f01 - f00) + wy * (f11 - f10),
            cx * (f10 - f00) + wx * (f11 - f01))


class TestBilinearSplit:
    """bilinear_geometry followed by bilinear_apply samples as the corner
    expression written out by hand, and the apply step gives the same bytes
    with fresh or caller-owned buffers."""

    def batched_case(self, rng):
        planes = rng.normal(size=(3, 2, 9, 11))  # (P, ..., Y, X)
        xs = rng.uniform(-3.0, 13.0, (4, 9, 11))  # points with a batch axis
        ys = rng.uniform(-3.0, 11.0, (4, 9, 11))
        xs[0, 0, :3] = (-1e30, 1e30, 4.0)  # far outside and on a node
        return planes, xs, ys

    def test_apply_equals_hand_reference_with_gradient(self):
        planes, xs, ys = self.batched_case(np.random.default_rng(21))
        want = corner_reference(planes, xs, ys, pad=1)
        geometry = grid.bilinear_geometry(xs, ys, 9, 11, pad=1)
        got = grid.bilinear_apply(planes, geometry, want_grad=True)
        shape = (3, 2, 4, 9, 11)
        assert [r.shape for r in got] == [shape] * 3
        for a, b in zip(want, got):
            assert a.tobytes() == b.tobytes()
        out = np.full(shape, np.nan)
        work = [np.full(shape, np.nan) for _ in range(6)]
        for _ in range(2):  # buffers holding an earlier result are reused
            split = grid.bilinear_apply(planes, geometry, want_grad=True,
                                        out=out, work=work)
            assert split[0] is out
            for a, b in zip(want, split):
                assert a.tobytes() == b.tobytes()

    def test_matches_corner_expression(self):
        planes, xs, ys = self.batched_case(np.random.default_rng(22))
        (i00, i01, i10, i11), cx, wx, cy, wy = geometry = \
            grid.bilinear_geometry(xs, ys, 9, 11)
        out, gx, gy = grid.bilinear_apply(planes, geometry, want_grad=True)
        flat = planes.reshape(3, 2, -1)
        f00, f01, f10, f11 = (flat[..., i] for i in (i00, i01, i10, i11))
        expect = cy * (cx * f00 + wx * f01) + wy * (cx * f10 + wx * f11)
        assert out.tobytes() == expect.tobytes()
        assert gx.tobytes() == (cy * (f01 - f00) + wy * (f11 - f10)).tobytes()
        assert gy.tobytes() == (cx * (f10 - f00) + wx * (f11 - f01)).tobytes()

    def test_mask_geometry_then_apply_equals_hand_reference(self):
        rng = np.random.default_rng(23)
        masks = rng.uniform(size=(3, 9, 11)) > 0.3
        xs = rng.uniform(-2.0, 12.0, (9, 11))
        ys = rng.uniform(-2.0, 10.0, (9, 11))
        nearest, valid = grid.mask_geometry(xs, ys, 9, 11)
        out = np.ones((3, 9, 11), dtype=bool)
        assert grid.mask_apply(masks, (nearest, valid), out=out) is out
        np.testing.assert_array_equal(
            grid.mask_apply(masks, grid.mask_geometry(xs, ys, 9, 11)), out)
        inside = (xs >= 0) & (xs <= 10) & (ys >= 0) & (ys <= 8)
        np.testing.assert_array_equal(valid, inside)
        yn = np.clip(np.rint(ys), 0, 8).astype(int)
        xn = np.clip(np.rint(xs), 0, 10).astype(int)
        np.testing.assert_array_equal(out, inside & masks[:, yn, xn])


class TestTypes:
    def test_radar_volume_invariants(self):
        with pytest.raises(ValueError):
            RadarVolume(data=np.zeros((1, 2, 3, 3)), z_levels=[1000.0, 500.0])
        with pytest.raises(ValueError):
            RadarVolume(data=np.zeros((1, 2, 3, 3)), z_levels=[500.0])
        with pytest.raises(ValueError):
            RadarVolume(data=np.zeros((1, 2, 3, 3)), z_levels=[500.0, 1000.0],
                        mask=np.ones((2, 3, 4), bool))
        with pytest.raises(ValueError, match=r"data must be 4-D T x Z x Y x "
                                             r"X, got shape \(2, 3, 3\)"):
            RadarVolume(data=np.zeros((2, 3, 3)), z_levels=[500.0, 1000.0])
        with pytest.raises(ValueError, match="rho_hv shape must match data "
                                             "shape"):
            RadarVolume(data=np.zeros((2, 1, 3, 3)), z_levels=[500.0],
                        rho_hv=np.ones((1, 1, 3, 3)))

    def test_radar_volume_keeps_float32_and_float64(self):
        for dtype in (np.float32, np.float64):
            data = np.arange(6.0, dtype=dtype).reshape(1, 1, 2, 3)
            vol = RadarVolume(data=data, z_levels=[500.0])
            assert vol.data is data
            assert [part.data.dtype for part in vol] == [dtype]
        for data in (np.arange(6).reshape(1, 1, 2, 3),
                     np.arange(6, dtype=np.float16).reshape(1, 1, 2, 3),
                     [[[[0, 1], [2, 3]]]]):
            vol = RadarVolume(data=data, z_levels=[500.0])
            assert vol.data.dtype == np.float64
            np.testing.assert_array_equal(vol.data, np.asarray(data))

    def test_rain_field_keeps_float32_and_float64(self):
        for dtype in (np.float32, np.float64):
            data = np.arange(6.0, dtype=dtype).reshape(1, 2, 3)
            assert RainField(data=data).data is data
        for data in (np.arange(6).reshape(1, 2, 3),
                     np.arange(6, dtype=np.float16).reshape(1, 2, 3),
                     [[[0, 1], [2, 3]]]):
            f = RainField(data=data)
            assert f.data.dtype == np.float64
            np.testing.assert_array_equal(f.data, np.asarray(data))
        with pytest.raises(ValueError, match="negative"):
            RainField(data=np.array([[[-1.0]]], np.float32))

    def test_motion_field_keeps_float32_and_float64(self):
        for dtype in (np.float32, np.float64):
            u = np.arange(32.0, dtype=dtype).reshape(1, 2, 4, 4)
            assert MotionField(u).u is u
        for u in (np.arange(32).reshape(1, 2, 4, 4),
                  np.arange(32, dtype=np.float16).reshape(1, 2, 4, 4)):
            mf = MotionField(u)
            assert mf.u.dtype == np.float64
            np.testing.assert_array_equal(mf.u, u)
        assert MotionField.zero(2, 3, 4).u.dtype == np.float64

    @pytest.mark.parametrize("with_rho", [False, True])
    def test_radar_volume_iterates_its_frames(self, with_rho):
        rng = np.random.default_rng(3)
        data = rng.uniform(-30.0, 60.0, (3, 2, 4, 5))
        rho = rng.uniform(0.0, 1.0, data.shape) if with_rho else None
        vol = RadarVolume(data=data, z_levels=[500.0, 1500.0], dt=150.0,
                          mask=rng.random((2, 4, 5)) < 0.8, rho_hv=rho)
        frames = list(vol)
        assert len(frames) == 3
        for t, f in enumerate(frames):
            assert f.shape == (1, 2, 4, 5) and f.dt == 150.0
            assert np.shares_memory(f.data, vol.data)
            assert f.data.tobytes() == data[t:t + 1].tobytes()
            assert f.mask is vol.mask and f.z_levels is vol.z_levels
            if with_rho:
                assert f.rho_hv.tobytes() == rho[t:t + 1].tobytes()
            else:
                assert f.rho_hv is None

    def test_rain_field_space_floor(self):
        with pytest.raises(ValueError, match="negative"):
            RainField(data=np.array([[[-1.0]]]))

    def test_floor_ignores_masked_and_non_finite_values(self):
        # one masked-out negative value and non-finite values, -inf among
        # them, are not checked
        data = np.array([[[-1.0, np.nan, -np.inf, 1.0]]])
        mask = np.array([[[False, True, True, True]]])
        RainField(data=data, mask=mask)
        RainField(data=np.full((1, 2, 2), np.nan))
        # an empty valid set passes, a valid negative value does not
        RainField(data=data, mask=np.zeros_like(mask))
        with pytest.raises(ValueError, match="negative"):
            RainField(data=data, mask=~mask)

    @pytest.mark.parametrize("data, mask", [
        (np.zeros((4, 4)), None),
        (np.zeros((4,)), None),
        (np.zeros((1, 1, 4, 4)), None),
        (np.zeros((1, 4, 4)), np.ones((4, 4), bool)),
        (np.zeros((2, 4, 4)), np.ones((1, 4, 4), bool)),
        (np.zeros((1, 4, 4)), np.ones((1, 4, 5), bool)),
    ])
    def test_rain_field_takes_only_z_y_x(self, data, mask):
        # no promotion of a 2-D field and no broadcast of a 2-D mask
        with pytest.raises(ValueError, match="Z x Y x X"):
            RainField(data, mask=mask)

    @pytest.mark.parametrize("shape", [(2, 4, 4), (1, 3, 4, 4), (4, 4),
                                       (1, 1, 2, 4, 4)])
    def test_motion_field_takes_only_z_2_y_x(self, shape):
        with pytest.raises(ValueError, match="Z x 2 x Y x X"):
            MotionField(np.zeros(shape))

    def test_radar_volume_has_no_frame_method(self):
        vol = RadarVolume(data=np.zeros((2, 1, 3, 3)), z_levels=[500.0])
        assert not hasattr(vol, "frame")

    def test_motion_field_must_be_finite(self):
        u = np.zeros((1, 2, 4, 4))
        u[0, 0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            MotionField(u)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("z", [0, 3, 7])
    def test_motion_field_rejects_non_finite_in_any_level(self, z, bad):
        u = np.zeros((8, 2, 4, 4))
        u[z, 1, 3, 2] = bad
        with pytest.raises(ValueError, match="finite everywhere"):
            MotionField(u)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_float32_motion_field_rejects_non_finite(self, bad):
        u = np.zeros((2, 2, 4, 4), np.float32)
        u[1, 0, 2, 1] = bad
        with pytest.raises(ValueError, match="finite everywhere"):
            MotionField(u)

    def test_empty_motion_field_is_accepted(self):
        assert MotionField(np.zeros((0, 2, 4, 4))).nz == 0

    def test_motion_field_check_copies_nothing(self):
        # the finiteness check reduces the field: a boolean copy of it
        # would take one byte per cell
        u = np.zeros((8, 2, 512, 512))
        tracemalloc.start()
        try:
            MotionField(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < u.size

    def test_upsample_inverts_pool_for_constant_blocks(self):
        f = upsample2d(np.array([[1.0, 2.0], [3.0, 4.0]]), 3)
        np.testing.assert_allclose(avg_pool2d(f, 3),
                                   [[1.0, 2.0], [3.0, 4.0]])
