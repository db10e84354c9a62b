import dataclasses
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from voxflow.advect import advect_once
from voxflow.grid import NO_ECHO_DBZ, MotionField, RadarVolume
from voxflow.rvol import write_motion, write_rvol
from voxflow.synth import (
    CLUTTER_RHO,
    ECHO_FLOOR_DBZ,
    PRESET_NAMES,
    SPECKLE_DBZ,
    GaussianCell,
    SyntheticScenario,
    _cell_position,
    _cell_start,
    clean_copy,
    generate,
    preset,
)
from voxflow.transform import volume_to_rain


class TestDeterminism:
    @pytest.mark.parametrize("name", ["uniform", "rotation", "shear2",
                                      "shear8", "noisy", "split"])
    def test_same_seed_same_bits(self, name):
        va, ta = generate(preset(name, seed=3))
        vb, tb = generate(preset(name, seed=3))
        np.testing.assert_array_equal(va.data, vb.data)
        np.testing.assert_array_equal(ta.u, tb.u)

    def test_different_seed_changes_noise(self):
        va, _ = generate(preset("noisy", seed=1))
        vb, _ = generate(preset("noisy", seed=2))
        assert not np.array_equal(va.data, vb.data)


class TestGroundTruthConsistency:
    @pytest.mark.parametrize("name", ["uniform", "rotation", "shear2",
                                      "shear8", "split"])
    def test_advecting_frames_with_truth_reproduces_next(self, name):
        scn = preset(name)
        vol, truth = generate(scn)
        t_checks = range(min(4, vol.shape[0] - 1))
        for t in t_checks:
            cur = volume_to_rain(vol, t)
            nxt = volume_to_rain(vol, t + 1)
            adv = advect_once(cur, truth)
            joint = adv.mask & nxt.mask
            mae = np.abs(adv.data - nxt.data)[joint].mean()
            assert mae < 0.02 * nxt.data.max(), f"{name} frame {t}"

    def test_zero_velocity_scene_is_static(self):
        cells = [GaussianCell(20.0, 20.0, 40.0, 5.0)]
        scn = SyntheticScenario(shape=(4, 1, 48, 48), cells=cells,
                                velocities=np.zeros((1, 1, 2)),
                                z_levels=[500.0])
        vol, truth = generate(scn)
        for t in range(1, 4):
            np.testing.assert_array_equal(vol.data[t], vol.data[0])
        np.testing.assert_array_equal(truth.u, 0.0)

    def test_uniform_translation_is_exact(self):
        cells = [GaussianCell(24.0, 10.0, 40.0, 4.0)]
        scn = SyntheticScenario(shape=(5, 1, 48, 48), cells=cells,
                                velocities=np.array([[[1.0, 0.0]]]),
                                z_levels=[500.0])
        vol, _ = generate(scn)
        for t in range(1, 5):
            np.testing.assert_allclose(vol.data[t, 0, :, t:],
                                       vol.data[0, 0, :, :-t], atol=1e-12)


class TestPresets:
    def test_uniform_has_identical_velocity_everywhere(self):
        scn = preset("uniform")
        assert scn.shape == (8, 8, 128, 128)
        np.testing.assert_array_equal(scn.velocities[..., 0], 3.0)
        np.testing.assert_array_equal(scn.velocities[..., 1], -2.0)
        _, truth = generate(scn)
        np.testing.assert_array_equal(truth.u[:, 0], 3.0)
        np.testing.assert_array_equal(truth.u[:, 1], -2.0)

    def test_shear2_velocities_are_orthogonal_unit3(self):
        scn = preset("shear2")
        v0 = scn.velocities[0, 0]
        v1 = scn.velocities[1, 0]
        assert np.hypot(*v0) == pytest.approx(3.0)
        assert np.hypot(*v1) == pytest.approx(3.0)
        assert np.dot(v0, v1) == pytest.approx(0.0)

    def test_noisy_injects_speckle_and_clutter(self):
        scn = preset("noisy")
        assert scn.speckle_prob == pytest.approx(0.001)
        assert len(scn.clutter_cells) == 1
        vol, _ = generate(scn)
        clean, _ = generate(clean_copy(scn))
        assert vol.rho_hv is not None
        assert (vol.rho_hv < 0.6).any()
        injected = (vol.data > 0) & ~(clean.data > 0)
        frac = injected[:, :, :, :].mean()
        assert 0.0 < frac < 0.05  # clutter blob support plus sparse speckle

    def test_split_levels_align_at_forecast_start(self):
        vol, truth = generate(preset("split"))
        # at t=7 both levels hold the cell at the same place
        np.testing.assert_allclose(vol.data[7, 0], vol.data[7, 1], atol=1e-9)
        # the true continuation stays aligned
        np.testing.assert_allclose(vol.data[15, 0], vol.data[15, 1], atol=1e-9)
        # ground truth carries the observed (input-window) shear
        assert truth.u[0, 0, 0, 0] == 2.0
        assert truth.u[1, 0, 0, 0] == 1.0

    def test_crop_scale_geometry(self):
        scn = preset("uniform", crop_scale=True)
        assert scn.shape == (24, 8, 512, 512)

    @pytest.mark.parametrize("name", [n for n in PRESET_NAMES if n != "uniform"])
    def test_crop_scale_of_another_preset_is_rejected(self, name):
        with pytest.raises(ValueError, match="crop_scale applies to the "
                                             "uniform preset only"):
            preset(name, crop_scale=True)

    def test_frames_override(self):
        scn = preset("uniform", frames=24)
        assert scn.shape[0] == 24

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            preset("tornado")


class TestScenarioValidation:
    def test_amplitude_range_enforced(self):
        with pytest.raises(ValueError):
            GaussianCell(0.0, 0.0, 80.0, 2.0)
        with pytest.raises(ValueError):
            GaussianCell(0.0, 0.0, -5.0, 2.0)

    def test_velocity_shape_enforced(self):
        cells = [GaussianCell(5.0, 5.0, 30.0, 2.0)]
        with pytest.raises(ValueError):
            SyntheticScenario(shape=(2, 2, 16, 16), cells=cells,
                              velocities=np.zeros((1, 1, 2)))

    def test_cell_outside_grid_warns(self):
        cells = [GaussianCell(200.0, 5.0, 30.0, 2.0)]
        scn = SyntheticScenario(shape=(2, 1, 16, 16), cells=cells,
                                velocities=np.zeros((1, 1, 2)),
                                z_levels=[500.0])
        with pytest.warns(UserWarning):
            generate(scn)

    def test_background_is_no_echo(self):
        vol, _ = generate(preset("uniform"))
        assert (vol.data == NO_ECHO_DBZ).any()
        assert vol.data.min() == NO_ECHO_DBZ


# --- reference renderer: whole-plane formulas, one new array per step ------

def _ref_render_frame(scn, z, t, yg, xg):
    plane = np.full(yg.shape, -np.inf)
    amp_scale = 1.0 if scn.level_amp_scale is None else scn.level_amp_scale[z]
    for b, cell in enumerate(scn.cells):
        cy, cx = _cell_position(scn, z, b, t)
        amp = min(max(cell.amplitude_dbz * amp_scale, 0.0), 70.0)
        r2 = (yg - cy) ** 2 + (xg - cx) ** 2
        plane = np.maximum(plane, amp * np.exp(-r2 / (2.0 * cell.sigma ** 2)))
    return plane


def _ref_truth_field(scn):
    t, z, ny, nx = scn.shape
    yg, xg = np.mgrid[0:ny, 0:nx].astype(np.float64)
    u = np.zeros((z, 2, ny, nx))
    if scn.rotation_omega is not None:
        cy, cx = (ny - 1) / 2.0, (nx - 1) / 2.0
        ang = scn.rotation_omega
        dy, dx = yg - cy, xg - cx
        back_y = cy + dy * math.cos(ang) - dx * math.sin(ang)
        back_x = cx + dy * math.sin(ang) + dx * math.cos(ang)
        for zi in range(z):
            u[zi, 0] = xg - back_x
            u[zi, 1] = yg - back_y
        return MotionField(u)
    if not scn.cells:
        return MotionField(u)
    for zi in range(z):
        centers = np.array([_cell_start(scn, zi, b) for b in range(len(scn.cells))])
        d2 = ((yg[None] - centers[:, 0, None, None]) ** 2
              + (xg[None] - centers[:, 1, None, None]) ** 2)
        nearest = np.argmin(d2, axis=0)
        vel = scn.velocities[zi]
        u[zi, 0] = vel[:, 0][nearest]
        u[zi, 1] = vel[:, 1][nearest]
    return MotionField(u)


def _ref_generate(scn):
    from scipy import ndimage
    t_count, z_count, ny, nx = scn.shape
    rng = np.random.default_rng(scn.seed)
    yg, xg = np.mgrid[0:ny, 0:nx].astype(np.float64)
    data = np.empty((t_count, z_count, ny, nx))
    rho = None
    if scn.clutter_cells:
        rho = np.full((t_count, z_count, ny, nx), 0.97)
    clutter_planes = []
    for cl in scn.clutter_cells:
        r2 = (yg - cl.y) ** 2 + (xg - cl.x) ** 2
        clutter_planes.append(cl.amplitude_dbz * np.exp(-r2 / (2.0 * cl.sigma ** 2)))
    for t in range(t_count):
        for z in range(z_count):
            plane = _ref_render_frame(scn, z, t, yg, xg)
            plane = np.where(plane >= ECHO_FLOOR_DBZ, plane, NO_ECHO_DBZ)
            if scn.speckle_prob > 0:
                hits = rng.random((ny, nx)) < scn.speckle_prob
                near_echo = ndimage.binary_dilation(plane > NO_ECHO_DBZ,
                                                    iterations=3)
                hits &= ~near_echo
                amps = rng.uniform(*SPECKLE_DBZ, size=(ny, nx))
                plane = np.where(hits, amps, plane)
            for cp in clutter_planes:
                clutter = np.where(cp >= ECHO_FLOOR_DBZ, cp, -np.inf)
                in_clutter = clutter > plane
                plane = np.where(in_clutter, clutter, plane)
                if rho is not None:
                    rho[t, z][in_clutter] = CLUTTER_RHO
            data[t, z] = plane
    vol = RadarVolume(data=data, z_levels=scn.z_levels, rho_hv=rho)
    return vol, _ref_truth_field(scn)


def _motion_file(path, mf):
    """The bytes write_motion writes for mf, or None where it refuses the
    field, leaving no file."""
    try:
        write_motion(path, mf)
    except ValueError:
        assert not path.exists()
        return None
    return path.read_bytes()


def _assert_same_bytes(scn):
    """generate's volume and truth motion are the float64 references
    rounded once to float32 (the truth stays float64 where a velocity
    overflows float32), and write_rvol and write_motion write the same
    files from either; write_rvol as f32 and as u8 codes."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # cells starting outside
        got, got_truth = generate(scn)
        want, want_truth = _ref_generate(scn)
    with np.errstate(over="ignore"):
        truth32 = want_truth.u.astype(np.float32)
    if not np.isfinite(truth32).all():
        truth32 = want_truth.u
    for name, a, b in (("data", got.data, want.data.astype(np.float32)),
                       ("mask", got.mask, want.mask),
                       ("rho_hv", got.rho_hv, want.rho_hv),
                       ("truth", got_truth.u, truth32)):
        if b is None:
            assert a is None, name
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    with tempfile.TemporaryDirectory() as d:
        for quantize in (False, True):
            files = [Path(d) / f"{side}.rvol" for side in ("got", "want")]
            for path, vol in zip(files, (got, want)):
                write_rvol(path, vol, quantize=quantize)
            assert files[0].read_bytes() == files[1].read_bytes(), \
                f"write_rvol, quantize={quantize}"
        files = [Path(d) / f"{side}.rmf" for side in ("got", "want")]
        assert _motion_file(files[0], got_truth) == \
            _motion_file(files[1], want_truth), "write_motion"


@st.composite
def _scenarios(draw):
    t_count = draw(st.integers(1, 3))
    z_count = draw(st.integers(1, 2))
    ny, nx = draw(st.integers(1, 24)), draw(st.integers(1, 24))

    def centre(n):
        # inside, on either edge of and outside the grid
        return draw(st.one_of(st.sampled_from([0.0, n - 1.0, -0.5, n - 0.5, n]),
                              st.floats(-2.0 * n - 10.0, 3.0 * n + 10.0)))

    near_floor = st.floats(ECHO_FLOOR_DBZ - 1e-12, ECHO_FLOOR_DBZ + 1e-12)
    cells = [GaussianCell(centre(ny), centre(nx),
                          draw(st.one_of(near_floor, st.floats(0.0, 70.0))),
                          draw(st.floats(0.3, 1e4)))
             for _ in range(draw(st.integers(0, 3)))]
    n = max(len(cells), 1)
    speed = st.floats(-3.0, 3.0)
    vel = np.array(draw(st.lists(speed, min_size=z_count * n * 2,
                                 max_size=z_count * n * 2))).reshape(z_count, n, 2)
    amp_scale = draw(st.one_of(
        st.none(), st.lists(st.floats(0.5, 1.5), min_size=z_count,
                            max_size=z_count)))
    # sub-cell offsets as the benchmark draws them, or ones that carry a
    # cell across a grid edge
    shift = st.one_of(st.floats(-0.5, 0.5),
                      st.floats(-2.0 * max(ny, nx), 2.0 * max(ny, nx)))
    offsets = draw(st.one_of(st.none(), st.lists(
        shift, min_size=z_count * len(cells) * 2,
        max_size=z_count * len(cells) * 2)))
    if offsets is not None:
        offsets = np.array(offsets).reshape(z_count, len(cells), 2)
    return SyntheticScenario(shape=(t_count, z_count, ny, nx), cells=cells,
                             velocities=vel, level_amp_scale=amp_scale,
                             level_offsets=offsets)


class TestByteIdentityWithReference:
    """generate keeps every output byte of the whole-plane formulas: its
    float32 volume and truth hold them rounded once, and the RVOL and RMF1
    files match."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets(self, name, seed):
        _assert_same_bytes(preset(name, seed=seed))

    @pytest.mark.parametrize("name", ["uniform", "shear2", "shear8"])
    def test_presets_with_level_offsets(self, name):
        """The benchmark's inputs: seeded sub-cell offsets per level and
        cell."""
        scn = preset(name)
        z, n = scn.shape[1], len(scn.cells)
        rng = np.random.default_rng(PRESET_NAMES.index(name))
        _assert_same_bytes(dataclasses.replace(
            scn, level_offsets=rng.uniform(-0.5, 0.5, (z, n, 2))))

    def test_crop_scale(self):
        _assert_same_bytes(preset("uniform", crop_scale=True, frames=2))

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scn=_scenarios())
    def test_random_cells(self, scn):
        _assert_same_bytes(scn)

    def test_amplitude_at_the_floor_renders_its_centre(self):
        cells = [GaussianCell(3.0, 4.0, ECHO_FLOOR_DBZ, 2.0)]
        scn = SyntheticScenario(shape=(1, 1, 8, 8), cells=cells)
        vol, _ = generate(scn)
        assert vol.data[0, 0, 3, 4] == ECHO_FLOOR_DBZ
        assert (vol.data > NO_ECHO_DBZ).sum() == 1
        _assert_same_bytes(scn)

    def test_velocities_equal_but_for_the_sign_of_zero(self):
        """0.0 == -0.0, but each cell's region keeps its own bytes."""
        cells = [GaussianCell(4.0, 4.0, 30.0, 2.0), GaussianCell(12.0, 12.0, 30.0, 2.0)]
        vel = np.array([[[0.0, 1.0], [-0.0, 1.0]]])
        _assert_same_bytes(SyntheticScenario(shape=(2, 1, 16, 16), cells=cells,
                                             velocities=vel))

    def test_centres_so_far_that_every_distance_is_inf(self):
        """Where every squared distance overflows, argmin picks cell 0."""
        cells = [GaussianCell(1e200, 3.0, 30.0, 2.0), GaussianCell(-1e200, 5.0, 30.0, 2.0)]
        vel = np.array([[[1.0, 2.0], [-3.0, 0.5]]])
        scn = SyntheticScenario(shape=(2, 1, 8, 8), cells=cells, velocities=vel)
        with np.errstate(over="ignore"):
            _assert_same_bytes(scn)

    @pytest.mark.parametrize("far", ["nan centre", "2 sigma^2 overflows"])
    def test_cell_with_nan_values_far_from_its_centre(self, far):
        """NaN values blank every cell they reach, however far from the
        centre: a centre that is inf - inf, or a distance that is inf / inf."""
        cells = [GaussianCell(4.0, 4.0, 30.0, 2.0)]
        if far == "nan centre":
            # y = 10 + 1e308 * 2 - 1e308 * 2 is inf - inf at t = 4
            cells.append(GaussianCell(10.0, 10.0, 30.0, 2.0))
            kw = dict(velocities=np.array([[[0.0, 0.0], [0.0, 1e308]]]),
                      switch_t=2,
                      switch_velocities=np.array([[[0.0, 0.0], [0.0, -1e308]]]))
        else:
            cells.append(GaussianCell(1e200, 3.0, 1.0, 1e154))
            kw = {}
        scn = SyntheticScenario(shape=(5, 1, 16, 16), cells=cells, **kw)
        with np.errstate(over="ignore", invalid="ignore"), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            vol, _ = generate(scn)
            _assert_same_bytes(scn)
        assert vol.data[4, 0, 4, 4] == NO_ECHO_DBZ

    def test_velocity_beyond_float32_keeps_a_float64_truth(self):
        """RMF1 cannot store such a truth, and write_motion refuses it."""
        cells = [GaussianCell(4.0, 4.0, 30.0, 2.0)]
        scn = SyntheticScenario(shape=(1, 1, 8, 8), cells=cells,
                                velocities=np.array([[[0.0, 1e39]]]))
        _, truth = generate(scn)
        assert truth.u.dtype == np.float64 and (truth.u[0, 1] == 1e39).all()
        with tempfile.TemporaryDirectory() as d:
            assert _motion_file(Path(d) / "t.rmf", truth) is None

    def test_peak_memory_is_a_few_planes(self):
        """Beyond the arrays it returns, generate holds a few planes at
        once (its work plane, the truth field's nearest-distance planes and
        MotionField's finiteness check), not one per cell or arithmetic
        step."""
        scn = preset("shear8")
        plane = 8 * scn.shape[2] * scn.shape[3]
        generate(preset("shear8", frames=1))  # first-use allocations of NumPy
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            vol, truth = generate(scn)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        kept = vol.data.nbytes + vol.mask.nbytes + truth.u.nbytes
        assert peak - kept < 6 * plane


class TestParameterValidation:
    """Parameters the renderer cannot draw fail at construction, naming
    the field."""

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, 0.0, -1.0])
    def test_cell_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            GaussianCell(10.0, 10.0, 30.0, sigma)

    @pytest.mark.parametrize("y, x", [(math.nan, 5.0), (5.0, math.inf)])
    def test_cell_centre(self, y, x):
        with pytest.raises(ValueError, match="centre"):
            GaussianCell(y, x, 30.0, 2.0)

    # array cases keep the positional ids pytest once gave them, so that
    # removing a case renames no other
    @pytest.mark.parametrize("field, value", [
        ("level_offsets", np.full((1, 1, 2), np.nan)),
        pytest.param("level_amp_scale", np.array([np.nan]),
                     id="level_amp_scale-value3"),
        ("speckle_prob", 2.0),
        ("speckle_prob", -0.1),
        ("speckle_prob", math.nan),
        ("rotation_omega", math.nan),
        pytest.param("switch_velocities", np.zeros(3),
                     id="switch_velocities-value8"),
        pytest.param("switch_velocities", np.full((1, 1, 2), np.inf),
                     id="switch_velocities-value9"),
    ])
    def test_scenario_field(self, field, value):
        kw = {"switch_t": 1} if field == "switch_velocities" else {}
        with pytest.raises(ValueError, match=field):
            SyntheticScenario(shape=(2, 1, 16, 16),
                              cells=[GaussianCell(5.0, 5.0, 30.0, 2.0)],
                              **kw, **{field: value})

    def test_switch_t_needs_switch_velocities(self):
        with pytest.raises(ValueError, match="switch_velocities"):
            SyntheticScenario(shape=(2, 1, 16, 16),
                              cells=[GaussianCell(5.0, 5.0, 30.0, 2.0)],
                              switch_t=1)
