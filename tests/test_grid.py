import numpy as np
import pytest

from voxflow.advect import warp_plane
from voxflow.grid import (
    MotionField,
    RadarVolume,
    RainField,
    Space,
    avg_pool2d,
    cmax,
    max_pool_vertical,
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
        out = max_pool_vertical(self._vol(data), 2)
        np.testing.assert_array_equal(out.data[0, 0], [[3, 5], [2, 7]])
        assert out.z_levels[0] == 1000.0

    def test_associative_16_to_1(self):
        rng = np.random.default_rng(11)
        data = rng.uniform(-30, 60, size=(2, 16, 6, 6))
        vol = self._vol(data)
        direct = max_pool_vertical(vol, 16)
        staged = max_pool_vertical(max_pool_vertical(vol, 2), 8)
        np.testing.assert_array_equal(direct.data, staged.data)
        np.testing.assert_array_equal(direct.mask, staged.mask)
        assert direct.z_levels[0] == staged.z_levels[0]

    def test_invalid_cells_ignored_unless_all_invalid(self):
        data = np.zeros((1, 2, 1, 2))
        data[0, 0] = [[10.0, 10.0]]
        data[0, 1] = [[50.0, 50.0]]
        mask = np.ones((2, 1, 2), bool)
        mask[1, 0, 0] = False          # one level invalid: other wins
        mask[:, 0, 1] = False          # whole column invalid
        vol = RadarVolume(data=data, z_levels=[500.0, 1000.0], mask=mask)
        out = max_pool_vertical(vol, 2)
        assert out.data[0, 0, 0, 0] == 10.0
        assert out.mask[0, 0, 0]
        assert not out.mask[0, 0, 1]

    def test_rejects_non_divisible(self):
        data = np.zeros((1, 3, 2, 2))
        with pytest.raises(ValueError):
            max_pool_vertical(self._vol(data), 2)

    def test_cmax_is_full_pool(self):
        rng = np.random.default_rng(5)
        data = rng.uniform(-30, 60, size=(1, 4, 3, 3))
        vol = self._vol(data)
        np.testing.assert_array_equal(cmax(vol).data,
                                      max_pool_vertical(vol, 4).data)


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


def bilinear_sample(field, x, y):
    """Bilinear value of field at (x, y), taken from advect.warp_plane with
    fill 0: output cell (0, 0) departs from (x, y) when its motion is
    (-x, -y)."""
    ux = np.zeros(field.shape)
    uy = np.zeros(field.shape)
    ux[0, 0] = -x
    uy[0, 0] = -y
    out, _ = warp_plane(field, np.ones(field.shape, bool), ux, uy, fill=0.0)
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
        # departures far beyond the int64 range take the fill value, invalid
        for x, y in ((1e30, 1.0), (-1e30, 1.0), (1.0, 1e30), (1.0, -1e30)):
            assert bilinear_sample(f, x, y) == hand_bilinear(f, x, y) == 0.0
            ux = np.zeros(f.shape)
            uy = np.zeros(f.shape)
            ux[0, 0], uy[0, 0] = -x, -y
            out, valid = warp_plane(f, np.ones(f.shape, bool), ux, uy,
                                    fill=-15.0)
            assert out[0, 0] == -15.0 and not valid[0, 0]

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


class TestTypes:
    def test_radar_volume_invariants(self):
        with pytest.raises(ValueError):
            RadarVolume(data=np.zeros((1, 2, 3, 3)), z_levels=[1000.0, 500.0])
        with pytest.raises(ValueError):
            RadarVolume(data=np.zeros((1, 2, 3, 3)), z_levels=[500.0])
        with pytest.raises(ValueError):
            RadarVolume(data=np.zeros((1, 2, 3, 3)), z_levels=[500.0, 1000.0],
                        mask=np.ones((2, 3, 4), bool))

    def test_rain_field_space_floor(self):
        with pytest.raises(ValueError):
            RainField(data=np.array([[-1.0]]), space=Space.MMH)
        with pytest.raises(ValueError):
            RainField(data=np.array([[-20.0]]), space=Space.DBR)
        RainField(data=np.array([[-15.0]]), space=Space.DBR)

    def test_motion_field_must_be_finite(self):
        u = np.zeros((1, 2, 4, 4))
        u[0, 0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            MotionField(u)

    def test_upsample_inverts_pool_for_constant_blocks(self):
        f = upsample2d(np.array([[1.0, 2.0], [3.0, 4.0]]), 3)
        np.testing.assert_allclose(avg_pool2d(f, 3),
                                   [[1.0, 2.0], [3.0, 4.0]])
