from datetime import datetime, timedelta

import numpy as np
import pytest

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
from voxflow.grid import NO_ECHO_DBZ, MotionField, RadarVolume, RainField, Space
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
        cov = coverage_ratio(vol, threshold_dbz=20.0)
        assert 0.0 < cov < 0.5


class TestRankOutliers:
    def _s(self, sid, minute, cov, corr):
        return OutlierSample(sample_id=sid,
                             timestamp=datetime(2021, 5, 1, 12, minute),
                             coverage=cov, correlation=corr)

    def test_dominant_sample_selected_first(self):
        samples = [self._s("a", 0, 0.9, -0.5), self._s("b", 30, 0.5, 0.2),
                   self._s("c", 59, 0.2, 0.9)]
        out = rank_outliers(samples, 2, gap_minutes=10)
        assert out.ids[0] == "a"
        assert not out.exhausted

    def test_tie_broken_by_earlier_timestamp(self):
        samples = [self._s("late", 40, 0.5, 0.0), self._s("early", 10, 0.5, 0.0)]
        out = rank_outliers(samples, 1, gap_minutes=5)
        assert out.ids == ["early"]

    def test_temporal_dedup_keeps_better_ranked(self):
        samples = [self._s("a", 0, 0.9, -0.9), self._s("b", 5, 0.8, -0.8),
                   self._s("c", 0, 0.1, 0.9)]
        out = rank_outliers(samples, 2, gap_minutes=60)
        assert "a" in out.ids and "b" not in out.ids

    def test_k_larger_than_dataset_flags(self):
        out = rank_outliers([self._s("a", 0, 0.5, 0.5)], 5)
        assert out.ids == ["a"]
        assert out.exhausted

    def test_k_zero_selects_nothing(self):
        out = rank_outliers([self._s("a", 0, 0.5, 0.5), self._s("b", 30, 0.2, 0.1)], 0)
        assert out.ids == []
        assert not out.exhausted

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="top-k must be >= 0"):
            rank_outliers([self._s("a", 0, 0.5, 0.5)], -1)

    def test_invariant_under_monotone_rescaling(self):
        rng = np.random.default_rng(8)
        samples = [self._s(f"s{i}", i % 60, rng.uniform(0, 1),
                           rng.uniform(-1, 1)) for i in range(20)]
        base = rank_outliers(samples, 5, gap_minutes=0).ids
        rescaled = [OutlierSample(s.sample_id, s.timestamp,
                                  np.exp(3 * s.coverage),
                                  np.tanh(s.correlation) * 7)
                    for s in samples]
        assert rank_outliers(rescaled, 5, gap_minutes=0).ids == base


class TestCellSplitDiagnostic:
    def _gauss(self, cy, cx, amp=8.0, sig=3.0, n=48):
        yg, xg = np.mgrid[0:n, 0:n]
        return amp * np.exp(-((yg - cy) ** 2 + (xg - cx) ** 2) / (2 * sig ** 2))

    def test_single_coherent_cell_stays_one(self):
        seq = []
        for k in range(8):
            plane = self._gauss(24, 10 + 2 * k)
            seq.append(RainField(data=np.stack([plane, plane]),
                                 space=Space.MMH))
        diag = cell_split_diagnostic(seq, threshold=1.0)
        assert diag.cmax_counts == [1] * 8
        assert diag.split_detected is False

    def test_shear_splits_composite_but_not_levels(self):
        seq = []
        for k in range(12):
            low = self._gauss(24, 8 + 2 * k, sig=2.0)
            high = self._gauss(24, 8 + 1 * k, sig=2.0)
            seq.append(RainField(data=np.stack([low, high]), space=Space.MMH))
        diag = cell_split_diagnostic(seq, threshold=1.0)
        assert max(diag.cmax_counts) >= 2
        assert (diag.level_counts == 1).all()
        assert diag.split_detected

    def test_empty_field_counts_zero(self):
        seq = [RainField(data=np.zeros((2, 16, 16)), space=Space.MMH)]
        diag = cell_split_diagnostic(seq, threshold=1.0)
        assert diag.cmax_counts == [0]

    def test_component_counting_is_4_connected(self):
        plane = np.zeros((5, 5), bool)
        plane[1, 1] = True
        plane[2, 2] = True  # diagonal neighbors are separate components
        assert count_components(plane) == 2
        plane[1, 2] = True
        assert count_components(plane) == 1
