import numpy as np
import pytest

from voxflow.advect import (
    _advect_planes,
    _departures,
    advect_once,
    extrapolate,
)
from voxflow.grid import (
    MotionField,
    RainField,
    bilinear_apply,
    bilinear_geometry,
    mask_apply,
    mask_geometry,
)


def uniform_motion(ux, uy, nz=1, ny=16, nx=16):
    u = np.zeros((nz, 2, ny, nx))
    u[:, 0] = ux
    u[:, 1] = uy
    return MotionField(u)


def random_field(rng, nz=1, ny=16, nx=16):
    return RainField(data=rng.uniform(0.0, 20.0, (nz, ny, nx)))


class TestAdvectOnce:
    def test_zero_motion_is_bit_exact_identity(self):
        rng = np.random.default_rng(0)
        f = random_field(rng)
        out = advect_once(f, uniform_motion(0.0, 0.0))
        np.testing.assert_array_equal(out.data, f.data)
        np.testing.assert_array_equal(out.mask, f.mask)

    def test_integer_shift_moves_delta(self):
        data = np.zeros((1, 20, 20))
        data[0, 10, 10] = 5.0
        f = RainField(data=data)
        out = advect_once(f, uniform_motion(1.0, 0.0, ny=20, nx=20))
        assert out.data[0, 10, 11] == 5.0
        assert out.data[0, 10, 10] == 0.0

    def test_integer_shift_is_exact_on_interior(self):
        rng = np.random.default_rng(1)
        f = random_field(rng, ny=24, nx=24)
        out = advect_once(f, uniform_motion(3.0, -2.0, ny=24, nx=24))
        np.testing.assert_array_equal(out.data[0, :22, 3:], f.data[0, 2:, :21])

    def test_half_cell_shift_matches_hand_bilinear_on_5x5(self):
        data = np.zeros((1, 5, 5))
        data[0, 2, 2] = 1.0
        f = RainField(data=data)
        out = advect_once(f, uniform_motion(0.5, 0.0, ny=5, nx=5))
        # backward warp: out(y,x) = f(y, x-0.5) -> half weight from each donor
        expect = np.zeros((5, 5))
        expect[2, 2] = 0.5
        expect[2, 3] = 0.5
        np.testing.assert_allclose(out.data[0], expect)

    def test_mask_advects_with_nearest_neighbor(self):
        data = np.ones((1, 8, 8))
        mask = np.ones((1, 8, 8), bool)
        mask[0, 4, 4] = False
        f = RainField(data=data, mask=mask)
        out = advect_once(f, uniform_motion(1.0, 0.0, ny=8, nx=8))
        assert not out.mask[0, 4, 5]
        # inflow column has no upstream data
        assert not out.mask[0, :, 0].any()

    def test_shape_mismatch_rejected(self):
        f = random_field(np.random.default_rng(0))
        with pytest.raises(ValueError):
            advect_once(f, uniform_motion(1.0, 0.0, ny=8, nx=8))
        with pytest.raises(ValueError):
            advect_once(f, uniform_motion(1.0, 0.0, nz=3))

    def test_max_principle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            f = random_field(rng, ny=12, nx=12)
            mf = uniform_motion(rng.uniform(-2, 2), rng.uniform(-2, 2),
                                ny=12, nx=12)
            out = advect_once(f, mf)
            assert out.data.max() <= f.data.max() + 1e-12
            assert out.data.min() >= min(0.0, f.data.min()) - 1e-12

    def test_mass_conserved_for_interior_flow(self):
        # compactly supported blob, fractional divergence-free (uniform) flow
        yg, xg = np.mgrid[0:32, 0:32]
        blob = 10.0 * np.exp(-((yg - 16) ** 2 + (xg - 16) ** 2) / 18.0)
        blob[blob < 1e-6] = 0.0
        f = RainField(data=blob[None])
        out = advect_once(f, uniform_motion(0.5, 0.25, ny=32, nx=32))
        assert out.data.sum() == pytest.approx(f.data.sum(), rel=0.01)

    def test_equivariance_under_translation(self):
        rng = np.random.default_rng(3)
        base = np.zeros((1, 24, 24))
        base[0, 8:14, 8:14] = rng.uniform(1, 5, (6, 6))
        shifted = np.roll(base, 2, axis=2)
        mf = uniform_motion(1.0, 0.0, ny=24, nx=24)
        a = advect_once(RainField(data=base), mf)
        b = advect_once(RainField(data=shifted), mf)
        np.testing.assert_allclose(np.roll(a.data, 2, axis=2)[0, :, 4:],
                                   b.data[0, :, 4:], atol=1e-12)

    def test_step_in_the_padded_buffer_is_the_kernel_into_another(self):
        # each step's kernel writes into the padded plane it samples; that
        # must give the bytes of the kernel writing into a separate buffer,
        # and inflow, here from the left and the bottom, is exactly 0 mm/h
        rng = np.random.default_rng(18)
        ny, nx = 14, 17
        plane = rng.uniform(0.0, 20.0, (ny, nx))
        ux = rng.uniform(0.1, 2.9, (ny, nx))
        uy = rng.uniform(-2.9, -0.1, (ny, nx))
        corners, _ = _departures(ux, uy, ny, nx)
        padded = np.zeros((ny + 3, nx + 3))
        padded[2:-1, 2:-1] = plane
        want = bilinear_apply(padded, corners)[0]
        got = next(_advect_planes(plane, corners, 1))
        assert got.tobytes() == want.tobytes()
        # all four corners of a departure left of x = -1 or below the last
        # row lie in the padding
        inflow = ((np.arange(nx) - ux < -1)
                  | (np.arange(ny)[:, None] - uy >= ny))
        assert inflow[:, 0].any() and inflow[-1].any() and not inflow.all()
        zeros = np.zeros(np.count_nonzero(inflow))
        assert got[inflow].tobytes() == zeros.tobytes()


class TestExtrapolate:
    def test_k_steps_shift_k_columns(self):
        data = np.zeros((1, 16, 16))
        data[0, 8, 2] = 7.0
        f = RainField(data=data)
        leads = extrapolate(f, uniform_motion(1.0, 0.0), 5)
        assert len(leads) == 5
        for k, lead in enumerate(leads, start=1):
            assert lead.data[0, 8, 2 + k] == 7.0
            assert lead.data[0].sum() == 7.0

    def test_constant_field_invariant_away_from_inflow(self):
        f = RainField(data=np.full((1, 16, 16), 3.0))
        leads = extrapolate(f, uniform_motion(0.5, -0.5), 4)
        # inflow enters from the left (u_x > 0) and bottom (u_y < 0);
        # the contaminated band grows by at most |u|+1 cells per step
        np.testing.assert_allclose(leads[-1].data[0, :8, 8:], 3.0)

    def test_rejects_bad_lead_count(self):
        f = RainField(data=np.zeros((1, 4, 4)))
        with pytest.raises(ValueError):
            extrapolate(f, uniform_motion(0.0, 0.0, ny=4, nx=4), 0)

    def test_advection_and_column_max_do_not_commute_under_shear(self):
        from voxflow.grid import cmax_field

        yg, xg = np.mgrid[0:32, 0:32]
        blob = 8.0 * np.exp(-((yg - 16) ** 2 + (xg - 10) ** 2) / 8.0)
        field = RainField(data=np.stack([blob, blob]))
        u = np.zeros((2, 2, 32, 32))
        u[0, 0] = 2.0  # lower level moves east twice as fast
        u[1, 0] = 1.0
        sheared = MotionField(u)
        pooled_first = advect_once(cmax_field(field),
                                   MotionField(u[:1]))
        pooled_last = cmax_field(advect_once(field, sheared))
        assert not np.allclose(pooled_first.data, pooled_last.data)


def reference_leads(f, mf, k):
    """k one-step warps, each plane on its own through grid's bilinear and
    nearest-cell geometry-then-apply pairs: the per-lead path the
    level-outer extrapolate must reproduce byte for byte. The geometry is
    float64 and its four weights are rounded to the field's dtype, so a
    float32 field is warped in float32."""
    _, ny, nx = f.data.shape
    data, mask = f.data, f.mask
    leads = []
    for _ in range(k):
        out = np.empty_like(data)
        out_mask = np.empty_like(mask)
        for z in range(f.nz):
            ux, uy = mf.level(z)
            xs = np.arange(nx, dtype=np.float64) - ux
            ys = np.arange(ny, dtype=np.float64)[:, None] - uy
            padded = np.pad(data[z], ((2, 1), (2, 1)))
            corners, *weights = bilinear_geometry(xs, ys, *padded.shape,
                                                  pad=2)
            out[z] = bilinear_apply(padded, (corners, *(
                w.astype(data.dtype) for w in weights)))[0]
            out_mask[z] = mask_apply(mask[z], mask_geometry(xs, ys, ny, nx))
        data, mask = out, out_mask
        leads.append((data, mask))
    return leads


def rotation_motion(nz, ny, nx, rng):
    """A different rotation plus fractional drift on every level."""
    yg, xg = np.mgrid[0:ny, 0:nx].astype(float)
    u = np.empty((nz, 2, ny, nx))
    for z in range(nz):
        omega = 0.02 * (z + 1)
        u[z, 0] = -omega * (yg - ny / 2) + rng.uniform(-1.5, 1.5)
        u[z, 1] = omega * (xg - nx / 2) + rng.uniform(-1.5, 1.5)
    return MotionField(u)


def assert_leads_equal_bytes(leads, reference):
    assert len(leads) == len(reference)
    for lead, (data, mask) in zip(leads, reference):
        assert lead.data.tobytes() == data.tobytes()
        assert lead.mask.tobytes() == mask.tobytes()


class TestFloat32Motion:
    def test_leads_are_those_of_the_float64_copy(self):
        """A float32 motion field, as read_motion gives, advects as its
        float64 copy does, with a sink and without."""
        rng = np.random.default_rng(12)
        f = random_field(rng, nz=2, ny=20, nx=24)
        mf = MotionField(rotation_motion(2, 20, 24, rng).u.astype(np.float32))
        wide = MotionField(mf.u.astype(np.float64))
        assert mf.u.dtype == np.float32
        want = extrapolate(f, wide, 3)
        assert_leads_equal_bytes(extrapolate(f, mf, 3),
                                 [(w.data, w.mask) for w in want])

        def sunk(motion):
            planes = []
            extrapolate(f, motion, 3, sink=lambda t, z, plane, valid:
                        planes.append((t, z, plane.tobytes(), valid.tobytes())))
            return planes
        assert sunk(mf) == sunk(wide)


class TestExtrapolateMatchesPerLeadWarps:
    def test_fractional_and_rotational_motion(self):
        rng = np.random.default_rng(11)
        f = random_field(rng, ny=20, nx=24)
        for mf in (uniform_motion(0.37, -1.61, ny=20, nx=24),
                   rotation_motion(1, 20, 24, rng)):
            assert_leads_equal_bytes(extrapolate(f, mf, 5),
                                     reference_leads(f, mf, 5))

    def test_levels_with_different_motion(self):
        rng = np.random.default_rng(12)
        f = random_field(rng, nz=3, ny=18, nx=22)
        mf = rotation_motion(3, 18, 22, rng)
        assert_leads_equal_bytes(extrapolate(f, mf, 4),
                                 reference_leads(f, mf, 4))

    def test_partially_masked_field(self):
        rng = np.random.default_rng(13)
        data = rng.uniform(0.0, 20.0, (2, 16, 16))
        mask = rng.uniform(size=data.shape) > 0.2
        f = RainField(data=data, mask=mask)
        mf = rotation_motion(2, 16, 16, rng)
        assert_leads_equal_bytes(extrapolate(f, mf, 6),
                                 reference_leads(f, mf, 6))

    def test_zero_motion_is_bit_exact_identity(self):
        rng = np.random.default_rng(14)
        mask = rng.uniform(size=(2, 16, 16)) > 0.3
        f = RainField(data=rng.uniform(0.0, 20.0, (2, 16, 16)), mask=mask)
        for lead in extrapolate(f, uniform_motion(0.0, 0.0, nz=2), 3):
            assert lead.data.tobytes() == f.data.tobytes()
            assert lead.mask.tobytes() == f.mask.tobytes()

    def test_advect_once_is_first_lead(self):
        rng = np.random.default_rng(15)
        f = random_field(rng, nz=2)
        mf = rotation_motion(2, 16, 16, rng)
        once = advect_once(f, mf)
        first = extrapolate(f, mf, 1)[0]
        assert once.data.tobytes() == first.data.tobytes()
        assert once.mask.tobytes() == first.mask.tobytes()

    def test_float32_field_matches_float32_per_lead_warps(self):
        # fractional, rotational and per-level motion over a partially
        # masked float32 field: float32 leads, each the float32 reference's
        # bytes, within float32 rounding of the float64 copy's leads
        rng = np.random.default_rng(19)
        mask = rng.uniform(size=(3, 18, 22)) > 0.2
        f = RainField(data=rng.uniform(0.0, 20.0, (3, 18, 22))
                      .astype(np.float32), mask=mask)
        wide = RainField(data=f.data.astype(np.float64), mask=mask)
        for mf in (uniform_motion(0.37, -1.61, nz=3, ny=18, nx=22),
                   rotation_motion(3, 18, 22, rng)):
            leads = extrapolate(f, mf, 5)
            assert all(lead.data.dtype == np.float32 for lead in leads)
            assert_leads_equal_bytes(leads, reference_leads(f, mf, 5))
            for lead, want in zip(leads, extrapolate(wide, mf, 5)):
                assert lead.mask.tobytes() == want.mask.tobytes()
                np.testing.assert_allclose(lead.data, want.data, rtol=1e-5,
                                           atol=1e-5)

    def test_float32_zero_motion_is_bit_exact_identity(self):
        rng = np.random.default_rng(20)
        f = RainField(data=rng.uniform(0.0, 20.0, (2, 16, 16))
                      .astype(np.float32))
        for lead in extrapolate(f, uniform_motion(0.0, 0.0, nz=2), 3):
            assert lead.data.tobytes() == f.data.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_motion_rejected(self, bad):
        # MotionField's check is the only one: the departures of a finite
        # motion are finite
        f = random_field(np.random.default_rng(16), nz=2)
        u = uniform_motion(0.5, 0.5, nz=2).u
        u[1, 1, 3, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            extrapolate(f, MotionField(u), 3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_lead_count_below_one_rejected(self, k):
        f = random_field(np.random.default_rng(17))
        with pytest.raises(ValueError, match="lead count"):
            extrapolate(f, uniform_motion(0.5, 0.5), k)


class TestExtrapolateSink:
    def test_sink_receives_views_of_the_level_planes(self):
        # each level's leads arrive as bare Y x X planes in one buffer of
        # the field's dtype, with one mask, the AND of the level's lead
        # masks; neither is copied per lead
        for dtype in (np.float64, np.float32):
            rng = np.random.default_rng(16)
            mask = rng.uniform(size=(2, 16, 16)) > 0.2
            f = RainField(data=rng.uniform(0.0, 20.0, (2, 16, 16))
                          .astype(dtype), mask=mask)
            mf = rotation_motion(2, 16, 16, rng)
            leads = extrapolate(f, mf, 3)
            seen = []

            def sink(t, z, plane, valid):
                assert plane.shape == valid.shape == (16, 16)
                assert plane.dtype == dtype and valid.dtype == bool
                assert plane.tobytes() == leads[t].data[z].tobytes()
                seen.append((z, plane, valid))

            assert extrapolate(f, mf, 3, sink=sink) is None
            assert [z for z, _, _ in seen] == [0, 0, 0, 1, 1, 1]
            for z in range(2):
                level = [(d, m) for zz, d, m in seen if zz == z]
                want = np.logical_and.reduce([lead.mask[z] for lead in leads])
                assert level[0][1].tobytes() == want.tobytes()
                for d, m in level[1:]:
                    assert np.shares_memory(d, level[0][0])
                    assert np.shares_memory(m, level[0][1])
