import numpy as np
import pytest

from voxflow.denoise import (DIAMOND, denoise_volume, diamond_morphology,
                             morphological_clean, polarimetric_filter)
from voxflow.grid import NO_ECHO_DBZ, RadarVolume
from voxflow.synth import clean_copy, generate, preset

DIAMOND_OFFSETS = [(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)]


def erode_oracle(mask):
    ny, nx = mask.shape
    out = np.zeros_like(mask)
    for y in range(ny):
        for x in range(nx):
            ok = True
            for dy, dx in DIAMOND_OFFSETS:
                yy, xx = y + dy, x + dx
                if not (0 <= yy < ny and 0 <= xx < nx) or not mask[yy, xx]:
                    ok = False
                    break
            out[y, x] = ok
    return out


def dilate_oracle(mask):
    ny, nx = mask.shape
    out = np.zeros_like(mask)
    for y in range(ny):
        for x in range(nx):
            for dy, dx in DIAMOND_OFFSETS:
                yy, xx = y + dy, x + dx
                if 0 <= yy < ny and 0 <= xx < nx and mask[yy, xx]:
                    out[y, x] = True
                    break
    return out


def opening_oracle(mask, iterations):
    out = mask.copy()
    for _ in range(iterations):
        out = erode_oracle(out)
    for _ in range(iterations):
        out = dilate_oracle(out)
    return out


def clean_oracle(plane, open_iters=2, protect_dbz=40.0, dilate_iters=2):
    """Set-based reference implementation of the per-level cleanup."""
    echo = plane > 0.0
    opened = opening_oracle(echo, open_iters)
    protected = plane > protect_dbz
    for _ in range(dilate_iters):
        protected = dilate_oracle(protected)
    out = plane.copy()
    out[echo & ~opened & ~protected] = NO_ECHO_DBZ
    return out


def make_vol(planes):
    data = np.asarray(planes, dtype=float)[None]  # T=1
    z = data.shape[1]
    return RadarVolume(data=data, z_levels=500.0 * (1 + np.arange(z)))


class TestPolarimetricFilter:
    def test_low_rho_removed_high_kept(self):
        data = np.full((1, 1, 2, 2), 30.0)
        rho = np.array([[[[0.3, 0.95], [0.59, 0.6]]]])
        vol = RadarVolume(data=data, z_levels=[500.0], rho_hv=rho)
        out = polarimetric_filter(vol)
        assert out.data[0, 0, 0, 0] == NO_ECHO_DBZ
        assert out.data[0, 0, 0, 1] == 30.0
        assert out.data[0, 0, 1, 0] == NO_ECHO_DBZ
        assert out.data[0, 0, 1, 1] == 30.0
        np.testing.assert_array_equal(out.mask, vol.mask)

    def test_unit_rho_is_identity(self):
        data = np.random.default_rng(0).uniform(-30, 60, (2, 1, 4, 4))
        vol = RadarVolume(data=data, z_levels=[500.0],
                          rho_hv=np.ones_like(data))
        out = polarimetric_filter(vol)
        np.testing.assert_array_equal(out.data, data)

    def test_requires_rho(self):
        vol = make_vol([np.zeros((3, 3))])
        with pytest.raises(ValueError):
            polarimetric_filter(vol)


class TestMorphologicalClean:
    def test_isolated_weak_pixel_removed(self):
        plane = np.full((9, 9), NO_ECHO_DBZ)
        plane[4, 4] = 20.0
        out = morphological_clean(make_vol([plane]))
        assert out.data[0, 0, 4, 4] == NO_ECHO_DBZ

    def test_isolated_strong_core_preserved(self):
        plane = np.full((9, 9), NO_ECHO_DBZ)
        plane[4, 4] = 45.0
        out = morphological_clean(make_vol([plane]))
        assert out.data[0, 0, 4, 4] == 45.0

    def test_solid_block_interior_preserved(self):
        plane = np.full((28, 28), NO_ECHO_DBZ)
        plane[4:24, 4:24] = 20.0
        out = morphological_clean(make_vol([plane]))
        np.testing.assert_array_equal(out.data[0, 0, 8:20, 8:20], 20.0)
        np.testing.assert_array_equal(out.data[0, 0],
                                      clean_oracle(plane))

    def test_matches_set_morphology_oracle_on_random_fields(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            plane = np.where(rng.random((32, 32)) < 0.35,
                             rng.uniform(5, 55, (32, 32)), NO_ECHO_DBZ)
            out = morphological_clean(make_vol([plane]))
            np.testing.assert_array_equal(out.data[0, 0], clean_oracle(plane))

    def test_support_never_grows(self):
        rng = np.random.default_rng(5)
        plane = np.where(rng.random((24, 24)) < 0.4,
                         rng.uniform(5, 55, (24, 24)), NO_ECHO_DBZ)
        out = morphological_clean(make_vol([plane]))
        assert not ((out.data[0, 0] > 0) & ~(plane > 0)).any()

    def test_idempotent_on_protected_cells(self):
        rng = np.random.default_rng(13)
        plane = np.where(rng.random((24, 24)) < 0.4,
                         rng.uniform(5, 55, (24, 24)), NO_ECHO_DBZ)
        once = morphological_clean(make_vol([plane]))
        twice = morphological_clean(once)
        removed_more = (once.data > 40.0) & ~(twice.data > 40.0)
        assert not removed_more.any()

    def test_no_vertical_coupling(self):
        rng = np.random.default_rng(17)
        planes = [np.where(rng.random((16, 16)) < 0.3,
                           rng.uniform(5, 55, (16, 16)), NO_ECHO_DBZ)
                  for _ in range(3)]
        direct = morphological_clean(make_vol(planes))
        permuted = morphological_clean(make_vol([planes[2], planes[0], planes[1]]))
        np.testing.assert_array_equal(direct.data[0, 1], permuted.data[0, 2])
        np.testing.assert_array_equal(direct.data[0, 0], permuted.data[0, 1])

    def test_diamond_is_cross(self):
        np.testing.assert_array_equal(
            DIAMOND, [[0, 1, 0], [1, 1, 1], [0, 1, 0]])


class TestDiamondMorphology:
    """diamond_morphology against scipy.ndimage, on stacks and on planes
    thinner than the element, which the 32^2 oracle above never meets."""

    @pytest.mark.parametrize("iterations", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(1, 1, 1, 1), (1, 1, 1, 9), (2, 3, 9, 1),
                                       (3, 2, 2, 2), (2, 2, 3, 5), (2, 3, 11, 11),
                                       (1, 2, 17, 6)])
    def test_stack_equals_ndimage(self, shape, iterations):
        from scipy import ndimage
        rng = np.random.default_rng(sum(shape) + iterations)
        element = DIAMOND[None, None]
        for density in (0.3, 0.6, 0.9):
            mask = rng.random(shape) < density
            for op, ref in ((np.logical_and, ndimage.binary_erosion),
                            (np.logical_or, ndimage.binary_dilation)):
                got = diamond_morphology(mask, iterations, op)
                want = ref(mask, structure=element, iterations=iterations)
                assert got.dtype == bool and np.array_equal(got, want)
            opened = diamond_morphology(
                diamond_morphology(mask, iterations, np.logical_and),
                iterations, np.logical_or)
            assert np.array_equal(opened, ndimage.binary_opening(
                mask, structure=element, iterations=iterations))

    @pytest.mark.parametrize("iterations", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 8), (8, 1), (2, 2), (3, 4),
                                       (12, 9)])
    def test_plane_dilation_equals_ndimage_default_element(self, shape,
                                                           iterations):
        # the speckle guard of synth.generate dilates one plane
        from scipy import ndimage
        rng = np.random.default_rng(sum(shape) * iterations)
        for density in (0.05, 0.3):
            mask = rng.random(shape) < density
            assert np.array_equal(
                diamond_morphology(mask, iterations, np.logical_or),
                ndimage.binary_dilation(mask, iterations=iterations))


class TestDenoiseOnNoisyPreset:
    def test_speckles_removed_cores_kept(self):
        scn = preset("noisy")
        vol, _ = generate(scn)
        clean_vol, _ = generate(clean_copy(scn))
        out = denoise_volume(vol)
        # injected echo (speckle;clutter) away from real cells must be gone
        injected = (vol.data > 0) & ~(clean_vol.data > 0)
        assert injected.any()
        assert not (out.data[injected] > 0).any()
        # the real cells survive: compare support in the interior of cells
        strong = clean_vol.data > 20.0
        assert (out.data[strong] > 0).mean() > 0.99

    def test_clutter_removed_by_rho(self):
        scn = preset("noisy")
        vol, _ = generate(scn)
        out = polarimetric_filter(vol)
        assert not (out.data[vol.rho_hv < 0.6] > 0).any()
