from contextlib import ExitStack
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxflow import analysis
from voxflow.analysis import (
    OutlierSample,
    cell_split_diagnostic,
    count_components,
    coverage_ratio,
    coverage_vs_corr_histogram,
    monthwise_boxstats,
    motion_corr_matrix,
    motion_pair_corr,
    rainy_ratio,
    rank_outliers,
    reflectivity_corr_matrix,
)
from voxflow.grid import NO_ECHO_DBZ, MotionField, RadarVolume, RainField, cmax
from voxflow.rvol import RvolReader, read_rvol, write_rvol
from voxflow.synth import generate, preset
from voxflow.transform import volume_to_rain


def vol_from_planes(planes, mask=None):
    data = np.asarray(planes, float)[None]
    z = data.shape[1]
    return RadarVolume(data=data, z_levels=500.0 * (1 + np.arange(z)), mask=mask)


class TestRainyRatio:
    def test_empty_volume(self):
        vol = vol_from_planes([np.full((8, 8), NO_ECHO_DBZ)])
        np.testing.assert_array_equal(rainy_ratio(vol, [0.0, 20.0]), 0.0)

    def test_half_above_threshold(self):
        plane = np.full((4, 4), NO_ECHO_DBZ)
        plane[:2] = 25.0
        vol = vol_from_planes([plane])
        out = rainy_ratio(vol, [20.0])
        assert out[0, 0] == pytest.approx(0.5)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        vol = vol_from_planes([rng.uniform(-30, 60, (16, 16)) for _ in range(3)])
        out = rainy_ratio(vol, [0.0, 20.0, 40.0])
        assert (np.diff(out, axis=1) <= 0).all()

    def test_masked_cells_excluded(self):
        plane = np.full((4, 4), 30.0)
        mask = np.ones((1, 4, 4), bool)
        mask[0, 0] = False
        vol = vol_from_planes([plane], mask=mask)
        out = rainy_ratio(vol, [20.0])
        assert out[0, 0] == pytest.approx(1.0)


class TestReflectivityCorr:
    def test_identical_levels_give_ones(self):
        rng = np.random.default_rng(1)
        plane = rng.uniform(0, 50, (12, 12))
        vol = vol_from_planes([plane, plane.copy()])
        m = reflectivity_corr_matrix([vol])
        np.testing.assert_allclose(m, 1.0)

    def test_anticorrelated_levels(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(10, 50, (12, 12))
        b = 2 * a.mean() - a  # mirror around the mean, stays positive
        vol = vol_from_planes([a, b])
        m = reflectivity_corr_matrix([vol])
        assert m[0, 1] == pytest.approx(-1.0)

    def test_independent_levels_near_zero(self):
        rng = np.random.default_rng(3)
        vols = [vol_from_planes([rng.uniform(1, 50, (32, 32)),
                                 rng.uniform(1, 50, (32, 32))])
                for _ in range(12)]
        m = reflectivity_corr_matrix(vols)
        n = 32 * 32
        assert abs(m[0, 1]) < 3.0 / np.sqrt(n)

    def test_requires_echo_on_all_levels(self):
        quiet = np.full((8, 8), NO_ECHO_DBZ)
        loud = np.full((8, 8), 30.0)
        vol = vol_from_planes([loud, quiet])
        m = reflectivity_corr_matrix([vol])
        assert np.isnan(m[0, 1])

    def test_generator_equals_list_bit_for_bit(self):
        vols = [generate(preset(name, frames=4))[0] for name in ("shear8", "uniform")]
        from_list = reflectivity_corr_matrix(vols)
        from_generator = reflectivity_corr_matrix(v for v in vols)
        assert from_list.tobytes() == from_generator.tobytes()

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no volumes"):
            reflectivity_corr_matrix(iter([]))

    @pytest.mark.filterwarnings("error")
    def test_non_finite_cells_are_skipped_as_on_file(self, tmp_path):
        # valid cells holding +-inf or NaN in every frame: the RVOL file
        # stores them as invalid, and the volume in memory skips them
        vol = generate(preset("shear8", frames=3))[0]
        vol.data[:, 0, 40, 50:53] = [np.inf, -np.inf, np.nan]
        vol.data[:, 5, 60:62, 70] = np.inf
        assert vol.mask[:, 40, 50:53].all() and vol.mask[5, 60:62, 70].all()
        path = tmp_path / "v.rvol"
        write_rvol(path, vol)
        in_memory = reflectivity_corr_matrix([vol])
        with RvolReader(path) as reader:
            from_file = reflectivity_corr_matrix([reader])
        assert np.isfinite(in_memory).all()
        assert in_memory.tobytes() == from_file.tobytes()

    @pytest.mark.parametrize("levels", [(3, 2), (2, 3)])
    def test_mixed_level_counts_rejected(self, levels):
        rng = np.random.default_rng(5)
        vols = [vol_from_planes([rng.uniform(1, 50, (8, 8)) for _ in range(z)])
                for z in levels]
        with pytest.raises(ValueError, match=f"volume 1 has Z={levels[1]}, "
                                             f"expected Z={levels[0]}"):
            reflectivity_corr_matrix(vols)

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(4)
        vol = vol_from_planes([rng.uniform(0, 50, (10, 10)) for _ in range(4)])
        m = reflectivity_corr_matrix([vol])
        np.testing.assert_allclose(m, m.T)
        np.testing.assert_allclose(np.diag(m), 1.0)

    def test_invariant_under_positive_affine_transform(self):
        rng = np.random.default_rng(14)
        a = rng.uniform(5, 50, (12, 12))
        b = rng.uniform(5, 50, (12, 12))
        base = reflectivity_corr_matrix([vol_from_planes([a, b])])
        scaled = reflectivity_corr_matrix([vol_from_planes([2.5 * a + 3.0, b])])
        np.testing.assert_allclose(scaled, base, atol=1e-12)


class TestMotionCorr:
    def _sample(self, u_by_level, echo=35.0):
        nz = len(u_by_level)
        planes = [np.full((16, 16), echo) for _ in range(nz)]
        vol = vol_from_planes(planes)
        u = np.zeros((nz, 2, 16, 16))
        for z, (ux, uy) in enumerate(u_by_level):
            u[z, 0] = ux
            u[z, 1] = uy
        return MotionField(u), vol

    def test_identical_motion_gives_ones(self):
        mf, vol = self._sample([(3.0, -2.0), (3.0, -2.0), (3.0, -2.0)])
        m = motion_corr_matrix([mf], [vol])
        np.testing.assert_allclose(m, 1.0)

    def test_quarter_turn_of_isotropic_field_decorrelates(self):
        rng = np.random.default_rng(5)
        from scipy.ndimage import gaussian_filter
        vals = []
        for _ in range(30):
            wx = gaussian_filter(rng.normal(size=(16, 16)), 2.0)
            wy = gaussian_filter(rng.normal(size=(16, 16)), 2.0)
            u = np.zeros((2, 2, 16, 16))
            u[0, 0], u[0, 1] = wx, wy
            u[1, 0], u[1, 1] = -wy, wx  # rotated 90 degrees
            planes = [np.full((16, 16), 35.0)] * 2
            vol = vol_from_planes(planes)
            vals.append(motion_pair_corr(MotionField(u), vol, 0, 1))
        assert abs(np.mean(vals)) < 0.12

    def test_matrix_is_mean_of_pair_correlations(self):
        rng = np.random.default_rng(11)
        mfs, vols = [], []
        for _ in range(3):
            data = rng.uniform(-10.0, 50.0, (4, 3, 12, 12))
            vols.append(RadarVolume(data=data, z_levels=[500.0, 1000.0, 1500.0]))
            mfs.append(MotionField(rng.normal(0.0, 1.0, (3, 2, 12, 12))))
        for component in ("both", "u", "v"):
            m = motion_corr_matrix(mfs, vols, component=component)
            for i in range(3):
                for j in range(i + 1, 3):
                    rs = [motion_pair_corr(mf, vol, i, j, component)
                          for mf, vol in zip(mfs, vols)]
                    assert m[i, j] == m[j, i] == sum(rs) / len(rs)

    def test_float32_motion_correlates_as_its_float64_copy(self):
        rng = np.random.default_rng(13)
        vol = RadarVolume(data=rng.uniform(-10.0, 50.0, (4, 3, 12, 12)),
                          z_levels=[500.0, 1000.0, 1500.0])
        mf = MotionField(rng.normal(0.0, 1.0, (3, 2, 12, 12))
                         .astype(np.float32))
        wide = MotionField(mf.u.astype(np.float64))
        for component in ("both", "u", "v"):
            assert motion_corr_matrix([mf], [vol], component).tobytes() == \
                motion_corr_matrix([wide], [vol], component).tobytes()

    def test_precip_mask_restricts_region(self):
        # levels agree inside the precipitating half, disagree outside
        planes = [np.full((16, 16), NO_ECHO_DBZ) for _ in range(2)]
        for p in planes:
            p[:, :8] = 35.0
        vol = vol_from_planes(planes)
        u = np.zeros((2, 2, 16, 16))
        u[:, 0, :, :8] = 2.0
        u[:, 1, :, :8] = -1.0
        u[0, 0, :, 8:] = 5.0
        u[1, 0, :, 8:] = -5.0
        mf = MotionField(u)
        assert motion_pair_corr(mf, vol, 0, 1) == pytest.approx(1.0)

    @pytest.mark.parametrize("levels", [(3, 2), (2, 3)])
    def test_mixed_level_counts_rejected(self, levels):
        samples = [self._sample([(1.0, 0.5)] * z) for z in levels]
        mfs, vols = zip(*samples)
        with pytest.raises(ValueError, match=f"sample 1 has Z={levels[1]}, "
                                             f"expected Z={levels[0]}"):
            motion_corr_matrix(mfs, vols)

    def test_motion_on_another_grid_rejected(self):
        _, vol = self._sample([(1.0, 0.5)] * 2)
        mf = MotionField(np.zeros((2, 2, 8, 8)))
        message = r"motion grid \(8, 8\) differs from volume grid \(16, 16\)"
        with pytest.raises(ValueError, match=message):
            motion_pair_corr(mf, vol, 0, 1)
        with pytest.raises(ValueError, match=message):
            motion_corr_matrix([mf], [vol])

    def test_shear8_truth_structure(self):
        vol, truth = generate(preset("shear8"))
        m = motion_corr_matrix([truth], [vol])
        for i in range(7):
            assert m[i, i + 1] > 0.9
        assert m[0, 7] < 0.3
        # smooth decay away from the diagonal
        first_row = m[0, 1:]
        assert (np.diff(first_row) < 0).all()


def _rain_rule_corr(mf, vol, i, j, component):
    """Reference motion_pair_corr: the region is where the summed
    time-mean volume_to_rain of levels i and j exceeds 0 mm/h, on cells
    valid at both levels."""
    rain = sum(volume_to_rain(vol, t).data for t in range(vol.shape[0]))
    rain = rain / vol.shape[0]
    region = (rain[i] + rain[j] > 0.0) & vol.mask[i] & vol.mask[j]
    if region.sum() < 2:
        return float("nan")
    (ui, vi), (uj, vj) = mf.level(i), mf.level(j)
    a, b = {"u": (ui[region], uj[region]), "v": (vi[region], vj[region]),
            "both": (np.concatenate([ui[region], vi[region]]),
                     np.concatenate([uj[region], vj[region]]))}[component]
    return analysis._pearson(a, b)


def _hostile_sample(seed):
    """A 3 x 4 x 10 x 10 volume of no echo with scattered rain, faint
    -31.5 dBZ echo in one frame only, NaN, +-inf and -50 dBZ cells and
    masked cells; levels 2 and 3 hold no echo in most samples. Also a
    random motion field."""
    rng = np.random.default_rng(seed)
    t, z, n = 3, 4, 10
    data = np.full((t, z, n, n), NO_ECHO_DBZ)
    top = 4 if seed % 3 == 0 else 2  # levels that may hold echo
    for value, count in ((35.0, 12), (-31.5, 10), (np.nan, 10),
                         (np.inf, 10), (-np.inf, 6), (-50.0, 6)):
        levels = top if np.isfinite(value) and value > NO_ECHO_DBZ else z
        cells = (rng.integers(t, size=count), rng.integers(levels, size=count),
                 rng.integers(n, size=count), rng.integers(n, size=count))
        data[cells] = value
    mask = rng.random((z, n, n)) < 0.8
    vol = RadarVolume(data=data, z_levels=500.0 * (1 + np.arange(z)), mask=mask)
    return MotionField(rng.normal(0.0, 1.0, (z, 2, n, n))), vol


class TestMotionRegionOracle:
    """motion_pair_corr and motion_corr_matrix find their region without
    converting to rain; the old rain rule must give the same numbers."""

    SEEDS = range(6)

    @pytest.mark.parametrize("component", ["both", "u", "v"])
    def test_pair_corr_equals_rain_rule(self, component):
        got, want = [], []
        for seed in self.SEEDS:
            mf, vol = _hostile_sample(seed)
            for i in range(4):
                for j in range(i + 1, 4):
                    got.append(motion_pair_corr(mf, vol, i, j, component))
                    want.append(_rain_rule_corr(mf, vol, i, j, component))
        assert np.array_equal(got, want, equal_nan=True)
        # both finite and NaN correlations are compared
        assert 0 < np.isnan(want).sum() < len(want)

    @pytest.mark.parametrize("component", ["both", "u", "v"])
    def test_matrix_equals_rain_rule(self, component):
        mfs, vols = zip(*(_hostile_sample(seed) for seed in self.SEEDS))
        want = np.eye(4)
        for i in range(4):
            for j in range(i + 1, 4):
                rs = [_rain_rule_corr(mf, vol, i, j, component)
                      for mf, vol in zip(mfs, vols)]
                rs = [r for r in rs if not np.isnan(r)]
                want[i, j] = want[j, i] = sum(rs) / len(rs) if rs else np.nan
        got = motion_corr_matrix(mfs, vols, component=component)
        assert np.array_equal(got, want, equal_nan=True)


class TestMotionSamples:
    """A MotionSample keeps a volume's echo and mask planes, which is all
    the motion correlations read."""

    @pytest.mark.parametrize("component", ["both", "u", "v"])
    def test_samples_give_the_volumes_correlations(self, component):
        mfs, vols = zip(*(_hostile_sample(seed) for seed in range(6)))
        samples = [analysis.motion_sample(mf, vol) for mf, vol in zip(mfs, vols)]
        for s, vol in zip(samples, vols):
            assert s.echo.shape == s.mask.shape == vol.shape[1:]
            assert not np.shares_memory(s.echo, vol.data)
        # the CLI's composition: each sample's rows, averaged at the end
        got = analysis.pair_mean(4, [r for s in samples
                                     for r in analysis.sample_rows(s, component)])
        want = motion_corr_matrix(mfs, vols, component=component)
        assert got.tobytes() == want.tobytes()
        for s, mf, vol in zip(samples, mfs, vols):
            assert np.array_equal(
                analysis.sample_pair_corr(s, 0, 3, component),
                motion_pair_corr(mf, vol, 0, 3, component), equal_nan=True)

    def test_sample_checks_match_the_volume_checks(self):
        mf, vol = _hostile_sample(0)
        s = analysis.motion_sample(mf, vol)
        with pytest.raises(ValueError, match="level index 4 outside"):
            analysis.sample_pair_corr(s, 0, 4)
        short = MotionField(mf.u[:3])
        for call in (lambda: analysis.sample_pair_corr(
                        analysis.motion_sample(short, vol), 0, 1),
                     lambda: motion_corr_matrix([short], [vol])):
            with pytest.raises(ValueError, match="level counts differ"):
                call()
        with pytest.raises(ValueError, match="no samples given"):
            motion_corr_matrix([], [])


def _whole_ratio(vol, thresholds):
    """rainy_ratio counted on the whole T x Z x Y x X array at once."""
    z = vol.shape[1]
    counts = np.array([np.count_nonzero((vol.data > thr) & vol.mask,
                                        axis=(0, 2, 3)) for thr in thresholds],
                      np.int64).reshape(len(thresholds), z).T
    denom = (vol.shape[0] * vol.mask.sum(axis=(1, 2)))[:, None]
    return np.divide(counts, denom, out=np.zeros(counts.shape),
                     where=denom > 0)


def _forms(vols, tmp_path, stack):
    """(volumes, forms) twice: the volumes, then the same volumes written as
    RVOL and read back whole. Each form holds one entry per volume: the
    volume itself, a list of its frames and, for the files, an open
    RvolReader, which stack closes."""
    paths = [tmp_path / f"{n}.rvol" for n in range(len(vols))]
    for vol, path in zip(vols, paths):
        write_rvol(path, vol)
    read = [read_rvol(path) for path in paths]
    readers = [stack.enter_context(RvolReader(path)) for path in paths]
    return [(vols, [vols, [list(v) for v in vols]]),
            (read, [read, [list(v) for v in read], readers])]


class TestFramesGiveTheWholeVolumeResults:
    """Each volume statistic iterates its volume one frame at a time and
    gives the same bytes on a RadarVolume, a list of its frames and an open
    RvolReader of its file; the ratios are those of the whole volume
    counted at once. The in-memory volumes hold NaN, +-inf and masked
    cells."""

    SEEDS = range(6)

    def test_ratios(self, tmp_path, monkeypatch):
        for seed in self.SEEDS:
            with ExitStack() as stack:
                for (whole,), forms in _forms([_hostile_sample(seed)[1]],
                                              tmp_path, stack):
                    for thresholds in ((0.0, 20.0), (-31.5, np.inf), ()):
                        want = _whole_ratio(whole, thresholds).tobytes()
                        for (form,) in forms:
                            assert rainy_ratio(form, thresholds).tobytes() \
                                == want
                    for thr in (20.0, -32.0):
                        monkeypatch.setattr(analysis, "COVERAGE_DBZ", thr)
                        want = float(_whole_ratio(cmax(whole), (thr,))[0, 0])
                        for (form,) in forms:
                            assert coverage_ratio(form) == want

    def test_reflectivity_corr(self, tmp_path):
        vols = [generate(preset(name, frames=4))[0]
                for name in ("shear8", "uniform")]
        with ExitStack() as stack:
            for wholes, forms in _forms(vols, tmp_path, stack):
                want = reflectivity_corr_matrix(wholes).tobytes()
                for form in forms:
                    assert reflectivity_corr_matrix(form).tobytes() == want

    @pytest.mark.parametrize("component", ["both", "u", "v"])
    def test_motion_corr(self, tmp_path, component):
        mfs, vols = zip(*(_hostile_sample(seed) for seed in self.SEEDS))
        with ExitStack() as stack:
            for wholes, forms in _forms(vols, tmp_path, stack):
                want = motion_corr_matrix(mfs, wholes, component).tobytes()
                for form in forms:
                    got = motion_corr_matrix(mfs, form, component)
                    assert got.tobytes() == want
                    for mf, whole, one in zip(mfs, wholes, form):
                        assert np.array_equal(
                            motion_pair_corr(mf, one, 0, 1, component),
                            motion_pair_corr(mf, whole, 0, 1, component),
                            equal_nan=True)

    def test_sample_rows_average_to_the_matrix(self):
        mfs, vols = zip(*(_hostile_sample(seed) for seed in self.SEEDS))
        rows = [r for mf, vol in zip(mfs, vols)
                for r in analysis.sample_rows(analysis.motion_sample(mf, vol))]
        assert analysis.pair_mean(4, rows).tobytes() == \
            motion_corr_matrix(mfs, vols).tobytes()

    def test_no_frames_rejected(self):
        mf, _ = _hostile_sample(0)
        for call in (lambda: rainy_ratio(iter([]), (0.0,)),
                     lambda: coverage_ratio([]),
                     lambda: analysis.motion_sample(mf, [])):
            with pytest.raises(ValueError, match="no frames given"):
                call()


class TestFloat32Volumes:
    """A float32 volume gives the bytes of its float64 copy: thresholds
    are compared and correlations summed in float64."""

    @staticmethod
    def _pair(seed):
        rng = np.random.default_rng(seed)
        data = rng.uniform(-40.0, 60.0, (3, 2, 40, 50)).astype(np.float32)
        # 20.1 and 0.1 round up in float32: above their float64 thresholds
        data[0, 0, :3, 0] = [20.1, 0.1, -31.9]
        data[1, 1, 5:8, 5] = [np.nan, np.inf, -np.inf]
        mask = rng.random((2, 40, 50)) < 0.9
        mask[1, 5:8, 5] = False
        return [RadarVolume(data=data.astype(dtype), z_levels=[500.0, 1000.0],
                            mask=mask) for dtype in (np.float32, np.float64)]

    def test_rainy_ratio(self):
        for seed in range(3):
            f32, f64 = self._pair(seed)
            thresholds = (20.1, 0.1, -31.9, 35.0)
            assert rainy_ratio(f32, thresholds).tobytes() == \
                rainy_ratio(f64, thresholds).tobytes()
            one = RadarVolume(data=np.float32([[[[20.1]]]]), z_levels=[500.0])
            assert rainy_ratio(one, (20.1,))[0, 0] == 1.0

    def test_pearson_and_reflectivity_corr(self):
        rng = np.random.default_rng(7)
        # large, nearly equal samples, where float32 sums lose digits
        a = (45.0 + rng.normal(0.0, 0.01, 20_000)).astype(np.float32)
        b = (a + rng.normal(0.0, 0.01, a.size)).astype(np.float32)
        assert analysis._pearson(a, b) == \
            analysis._pearson(a.astype(np.float64), b.astype(np.float64))
        for seed in range(3):
            f32, f64 = self._pair(seed)
            assert reflectivity_corr_matrix([f32]).tobytes() == \
                reflectivity_corr_matrix([f64]).tobytes()

    def test_coverage_ratio(self, monkeypatch):
        monkeypatch.setattr(analysis, "COVERAGE_DBZ", 20.1)
        f32, f64 = self._pair(0)
        assert coverage_ratio(f32) == coverage_ratio(f64)


class TestMonthwiseBoxstats:
    def test_single_month_constant(self):
        ts = [datetime(2021, 6, 1) + timedelta(hours=i) for i in range(5)]
        stats = monthwise_boxstats([2.0] * 5, ts)
        s = stats[6]
        assert s.q1 == s.median == s.q3 == 2.0
        assert s.outliers == []

    def test_values_1_to_100(self):
        ts = [datetime(2021, 3, 1) + timedelta(minutes=i) for i in range(100)]
        stats = monthwise_boxstats(list(range(1, 101)), ts)
        s = stats[3]
        assert s.median == pytest.approx(50.5)
        assert s.q1 == pytest.approx(25.75)
        assert s.q3 == pytest.approx(75.25)

    def test_outliers_reported_not_clipped(self):
        ts = [datetime(2021, 1, 5)] * 11
        vals = [10.0] * 10 + [1000.0]
        stats = monthwise_boxstats(vals, ts)
        assert stats[1].outliers == [1000.0]
        assert stats[1].hi_whisker == pytest.approx(10.0)


class TestCoverageHistogram:
    def test_single_bin_for_identical_samples(self):
        counts, _, _ = coverage_vs_corr_histogram([(0.3, 0.8)] * 7)
        assert counts.sum() == 7
        assert (counts > 0).sum() == 1

    def test_twenty_fixed_bins_per_axis(self):
        counts, xe, ye = coverage_vs_corr_histogram([(0.3, 0.8)])
        assert counts.shape == (20, 20)
        assert (xe[0], xe[-1], ye[0], ye[-1]) == (0.0, 1.0, -1.0, 1.0)
        # the returned edges are the module's own, which cannot be changed
        with pytest.raises(ValueError, match="read-only"):
            xe[0] = 0.5

    def test_mass_conservation(self):
        rng = np.random.default_rng(6)
        samples = [(rng.uniform(0, 1), rng.uniform(-1, 1)) for _ in range(200)]
        counts, _, _ = coverage_vs_corr_histogram(samples)
        assert counts.sum() == 200

    def test_bimodal_dataset_recovers_two_modes(self):
        rng = np.random.default_rng(7)
        a = [(rng.normal(0.2, 0.01), rng.normal(0.9, 0.01)) for _ in range(50)]
        b = [(rng.normal(0.8, 0.01), rng.normal(-0.5, 0.01)) for _ in range(50)]
        counts, xe, ye = coverage_vs_corr_histogram(a + b)
        # two well-separated occupied regions
        occupied = np.argwhere(counts > 10)
        assert len(occupied) >= 2
        spread = occupied.max(axis=0) - occupied.min(axis=0)
        assert spread.max() > 5

    def test_coverage_ratio_on_synthetic(self):
        vol, _ = generate(preset("uniform"))
        cov = coverage_ratio(vol)
        assert 0.0 < cov < 0.5


class TestRankOutliers:
    def _s(self, sid, minute, cov, corr):
        return OutlierSample(sample_id=sid,
                             timestamp=datetime(2021, 5, 1, 12, minute),
                             coverage=cov, correlation=corr)

    def test_dominant_sample_selected_first(self, monkeypatch):
        monkeypatch.setattr(analysis, "TOP_K", 2)
        monkeypatch.setattr(analysis, "GAP_MINUTES", 10.0)
        samples = [self._s("a", 0, 0.9, -0.5), self._s("b", 30, 0.5, 0.2),
                   self._s("c", 59, 0.2, 0.9)]
        out = rank_outliers(samples)
        assert out.ids[0] == "a"
        assert not out.exhausted

    def test_tie_broken_by_earlier_timestamp(self, monkeypatch):
        monkeypatch.setattr(analysis, "TOP_K", 1)
        samples = [self._s("late", 40, 0.5, 0.0), self._s("early", 10, 0.5, 0.0)]
        out = rank_outliers(samples)
        assert out.ids == ["early"]

    def test_temporal_dedup_keeps_better_ranked(self, monkeypatch):
        monkeypatch.setattr(analysis, "TOP_K", 2)
        samples = [self._s("a", 0, 0.9, -0.9), self._s("b", 5, 0.8, -0.8),
                   self._s("c", 0, 0.1, 0.9)]
        out = rank_outliers(samples)
        assert "a" in out.ids and "b" not in out.ids

    def test_samples_sixty_minutes_apart_are_both_kept(self):
        # "a" ranks first; "b" is 59 minutes from it and "c" exactly 60
        samples = [self._s("a", 0, 0.9, -0.9), self._s("b", 59, 0.8, -0.8),
                   self._s("c", 0, 0.1, 0.9)]
        samples[2].timestamp += timedelta(minutes=60)
        out = rank_outliers(samples)
        assert out.ids == ["a", "c"]
        assert out.exhausted

    def test_k_larger_than_dataset_flags(self):
        out = rank_outliers([self._s("a", 0, 0.5, 0.5)])
        assert out.ids == ["a"]
        assert out.exhausted

    def test_no_samples_flags(self):
        out = rank_outliers([])
        assert out.ids == []
        assert out.exhausted

    def test_k_zero_selects_nothing(self, monkeypatch):
        monkeypatch.setattr(analysis, "TOP_K", 0)
        out = rank_outliers([self._s("a", 0, 0.5, 0.5), self._s("b", 30, 0.2, 0.1)])
        assert out.ids == []
        assert not out.exhausted

    def test_invariant_under_monotone_rescaling(self, monkeypatch):
        monkeypatch.setattr(analysis, "TOP_K", 5)
        monkeypatch.setattr(analysis, "GAP_MINUTES", 0.0)
        rng = np.random.default_rng(8)
        samples = [self._s(f"s{i}", i % 60, rng.uniform(0, 1),
                           rng.uniform(-1, 1)) for i in range(20)]
        base = rank_outliers(samples).ids
        rescaled = [OutlierSample(s.sample_id, s.timestamp,
                                  np.exp(3 * s.coverage),
                                  np.tanh(s.correlation) * 7)
                    for s in samples]
        assert rank_outliers(rescaled).ids == base

    @pytest.mark.parametrize("bad", ["coverage", "correlation"])
    def test_non_finite_sample_rejected_in_any_order(self, bad):
        samples = [self._s("a", 0, 0.5, 0.1), self._s("b", 20, 0.4, 0.2),
                   self._s("c", 40, 0.2, 0.3)]
        setattr(samples[1], bad, float("nan"))
        for order in (samples, samples[::-1]):
            with pytest.raises(ValueError, match="sample 'b' .* finite"):
                rank_outliers(order)


class TestCellSplitDiagnostic:
    def _gauss(self, cy, cx, amp=8.0, sig=3.0, n=48):
        yg, xg = np.mgrid[0:n, 0:n]
        return amp * np.exp(-((yg - cy) ** 2 + (xg - cx) ** 2) / (2 * sig ** 2))

    def test_single_coherent_cell_stays_one(self):
        seq = []
        for k in range(8):
            plane = self._gauss(24, 10 + 2 * k)
            seq.append(RainField(data=np.stack([plane, plane])))
        diag = cell_split_diagnostic(seq, threshold=1.0)
        assert diag.cmax_counts == [1] * 8
        assert diag.split_detected is False

    def test_shear_splits_composite_but_not_levels(self):
        seq = []
        for k in range(12):
            low = self._gauss(24, 8 + 2 * k, sig=2.0)
            high = self._gauss(24, 8 + 1 * k, sig=2.0)
            seq.append(RainField(data=np.stack([low, high])))
        diag = cell_split_diagnostic(seq, threshold=1.0)
        assert max(diag.cmax_counts) >= 2
        assert (diag.level_counts == 1).all()
        assert diag.split_detected

    def test_generator_gives_the_counts_of_a_list(self):
        seq = [RainField(data=np.stack([self._gauss(24, 8 + 2 * k, sig=2.0),
                                        self._gauss(24, 8 + k, sig=2.0)]))
               for k in range(6)]
        want = cell_split_diagnostic(seq, threshold=1.0)
        got = cell_split_diagnostic((f for f in seq), threshold=1.0)
        assert got.cmax_counts == want.cmax_counts
        assert got.cmax_rainy_cells == want.cmax_rainy_cells
        assert np.array_equal(got.level_counts, want.level_counts)
        for empty in ([], iter([])):
            with pytest.raises(ValueError, match="empty nowcast sequence"):
                cell_split_diagnostic(empty)

    def test_float32_field_counts_as_its_float64_copy(self):
        # 0.7 rounds down in float32: cells holding float32(0.7) are below
        # the threshold in float64, and must not count as wet
        rng = np.random.default_rng(22)
        data = rng.choice(np.array([0.0, 0.7, 0.71, 5.0], np.float32),
                          (4, 2, 16, 16))
        seq = [RainField(data=d, mask=rng.random(d.shape) > 0.1)
               for d in data]
        got = cell_split_diagnostic(seq, threshold=0.7)
        want = cell_split_diagnostic(
            [RainField(data=f.data.astype(np.float64), mask=f.mask)
             for f in seq], threshold=0.7)
        assert got.cmax_counts == want.cmax_counts
        assert got.cmax_rainy_cells == want.cmax_rainy_cells
        assert np.array_equal(got.level_counts, want.level_counts)

    def test_empty_field_counts_zero(self):
        seq = [RainField(data=np.zeros((2, 16, 16)))]
        diag = cell_split_diagnostic(seq, threshold=1.0)
        assert diag.cmax_counts == [0]

    def test_component_counting_is_4_connected(self):
        plane = np.zeros((5, 5), bool)
        plane[1, 1] = True
        plane[2, 2] = True  # diagonal neighbors are separate components
        assert count_components(plane) == 2
        plane[1, 2] = True
        assert count_components(plane) == 1


def _label_count(plane):
    """Reference count: scipy.ndimage.label with the 4-connected diamond."""
    from scipy import ndimage
    from voxflow.denoise import DIAMOND
    return int(ndimage.label(plane, structure=DIAMOND)[1])


def _serpentine(arches, depth):
    """One serpentine of arches (two legs two columns apart, joined on
    their top row) whose neighbours join on the bottom row. Arch j's top is
    higher the more times 2 divides j, a ruler sequence, so the arches merge
    pairwise over about log2(arches) hooking rounds."""
    g = np.zeros((depth + 2, 4 * arches - 1), bool)
    for j in range(arches):
        twos = (j & -j).bit_length() - 1 if j else depth
        top = depth - min(twos, depth)
        g[top:, 4 * j] = g[top:, 4 * j + 2] = True
        g[top, 4 * j:4 * j + 3] = True
    g[-1] = True
    g[-1, 1::4] = False
    return g


#: name: (plane, its number of 4-connected components)
_HARD_PLANES = {
    "empty": (np.zeros((17, 23), bool), 0),
    "all wet": (np.ones((17, 23), bool), 1),
    "checkerboard": (np.indices((40, 40)).sum(axis=0) % 2 == 1, 800),
    "one row": (np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1]], bool), 4),
    "one column": (np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1]], bool).T, 4),
    "one cell": (np.ones((1, 1), bool), 1),
    "serpentine comb": (_serpentine(64, 7), 1),
    "serpentine comb, flipped": (_serpentine(64, 7)[::-1, ::-1], 1),
}


@st.composite
def _wet_stacks(draw):
    """(P, H, W) boolean stacks of 1 to 3 planes from 1 x 1 to 40 x 40 with
    wet densities from 0.05 to 0.95."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 40)),
             draw(st.integers(1, 40)))
    density = draw(st.floats(0.05, 0.95))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.random(shape) < density


def _split_of_stack(stack):
    """cell_split_diagnostic of one lead whose levels are the stack."""
    data = np.where(stack, 2.0, 0.0)
    return cell_split_diagnostic([RainField(data=data)],
                                 threshold=1.0)


class TestCountComponents:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(stack=_wet_stacks())
    def test_equals_ndimage_label(self, stack):
        diag = _split_of_stack(stack)
        assert diag.cmax_counts == [_label_count(stack.any(axis=0))]
        want = [_label_count(plane) for plane in stack]
        assert diag.level_counts.tolist() == [want]
        assert [count_components(plane) for plane in stack] == want

    @pytest.mark.parametrize("name", sorted(_HARD_PLANES))
    def test_hard_planes_equal_ndimage_label(self, name):
        plane, want = _HARD_PLANES[name]
        assert _label_count(plane) == want
        assert count_components(plane) == want
        assert _split_of_stack(plane[None]).level_counts.tolist() == [[want]]

    def test_non_boolean_plane_counts_nonzero_cells(self):
        plane = np.array([[0.0, 2.5, 0.0], [np.nan, 0.0, -1.0]])
        assert count_components(plane) == 3

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3, 4)])
    def test_non_2d_plane_rejected(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            count_components(np.ones(shape, bool))
