import numpy as np
import pytest

from voxflow.advect import advect_once
from voxflow.grid import NO_ECHO_DBZ
from voxflow.synth import (
    GaussianCell,
    SyntheticScenario,
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

    def test_amplitude_trend_breaks_persistence(self):
        cells = [GaussianCell(24.0, 24.0, 30.0, 4.0)]
        scn = SyntheticScenario(shape=(3, 1, 48, 48), cells=cells,
                                velocities=np.zeros((1, 1, 2)),
                                amplitude_trend=5.0, z_levels=[500.0])
        vol, _ = generate(scn)
        assert vol.data[2].max() > vol.data[0].max() + 5.0
