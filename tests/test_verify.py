import numpy as np
import pytest

from voxflow.errors import NoOverlapError
from voxflow.grid import RainField, cmax_field
from voxflow.verify import (
    ContingencyTable,
    contingency,
    continuous_metrics,
    precision_recall_ets,
    verify_nowcast,
)


def mmh(data, mask=None):
    return RainField(data=np.asarray(data, float), mask=mask)


class TestContinuousMetrics:
    def test_perfect(self):
        rng = np.random.default_rng(0)
        f = mmh(rng.uniform(0, 10, (1, 8, 8)))
        assert continuous_metrics(f, f) == (0.0, 0.0, 0.0)

    def test_constant_offset(self):
        rng = np.random.default_rng(1)
        obs = rng.uniform(0, 10, (1, 8, 8))
        me, mae, mse = continuous_metrics(mmh(obs + 2.0), mmh(obs))
        assert me == pytest.approx(2.0)
        assert mae == pytest.approx(2.0)
        assert mse == pytest.approx(4.0)

    def test_cancellation_vs_magnitude(self):
        yg, xg = np.mgrid[0:8, 0:8]
        obs = np.where((yg + xg) % 2 == 0, 1.0, 0.0)[None]
        # prediction flips the checkerboard: per-cell error is +-1
        pred = 1.0 - obs
        me, mae, mse = continuous_metrics(mmh(pred), mmh(obs))
        assert me == pytest.approx(0.0)
        assert mae == pytest.approx(1.0)
        assert mse == pytest.approx(1.0)

    def test_empty_joint_mask_raises(self):
        a = mmh(np.zeros((1, 4, 4)), mask=np.zeros((1, 4, 4), bool))
        b = mmh(np.zeros((1, 4, 4)))
        with pytest.raises(NoOverlapError):
            continuous_metrics(a, b)

    def test_mismatched_shapes_are_rejected(self):
        with pytest.raises(ValueError, match=r"shape mismatch: pred "
                                             r"\(2, 4, 4\) vs obs \(1, 4, 4\)"):
            continuous_metrics(mmh(np.zeros((2, 4, 4))),
                               mmh(np.zeros((1, 4, 4))))

    def test_invariant_under_joint_masking(self):
        rng = np.random.default_rng(2)
        obs = rng.uniform(0, 10, (1, 10, 10))
        pred = obs + rng.normal(0, 1, obs.shape).clip(-obs)
        mask = rng.random((1, 10, 10)) < 0.7
        full = continuous_metrics(mmh(pred, mask.copy()), mmh(obs, mask.copy()))
        # masking both identically only drops excluded cells
        sub_pred = np.where(mask, pred, 0.0)
        sub = continuous_metrics(mmh(sub_pred, mask.copy()),
                                 mmh(np.where(mask, obs, 0.0), mask.copy()))
        assert full == pytest.approx(sub)


def contingency_oracle(pred, obs, thr):
    """Brute-force per-pixel loop."""
    h = m = fa = cn = 0
    for p, o in zip(pred.ravel(), obs.ravel()):
        py, oy = p >= thr, o >= thr
        if py and oy:
            h += 1
        elif not py and oy:
            m += 1
        elif py and not oy:
            fa += 1
        else:
            cn += 1
    return h, m, fa, cn


class TestContingency:
    def test_perfect_forecast(self):
        rng = np.random.default_rng(3)
        f = mmh(rng.uniform(0, 10, (1, 8, 8)))
        t = contingency(f, f, 1.0)
        assert t.misses == 0 and t.false_alarms == 0

    def test_all_yes_forecast(self):
        rng = np.random.default_rng(4)
        obs = np.zeros((1, 25, 40))
        flat = obs.reshape(-1)
        flat[rng.choice(1000, 60, replace=False)] = 5.0
        pred = np.full_like(obs, 5.0)
        t = contingency(mmh(pred), mmh(obs), 1.0)
        assert (t.hits, t.misses, t.false_alarms, t.correct_negatives) == \
            (60, 0, 940, 0)

    def test_threshold_above_max_all_negative(self):
        rng = np.random.default_rng(5)
        obs = rng.uniform(0, 3, (1, 6, 6))
        t = contingency(mmh(obs), mmh(obs), 100.0)
        assert t.correct_negatives == 36 and t.hits == 0

    def test_matches_brute_force_loop_on_random_fields(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            pred = rng.uniform(0, 12, (1, 64, 64))
            obs = rng.uniform(0, 12, (1, 64, 64))
            thr = float(rng.uniform(0.5, 10))
            t = contingency(mmh(pred), mmh(obs), thr)
            assert (t.hits, t.misses, t.false_alarms, t.correct_negatives) == \
                contingency_oracle(pred, obs, thr)

    def test_counts_total_equals_valid_cells(self):
        rng = np.random.default_rng(7)
        mask = rng.random((1, 16, 16)) < 0.8
        pred = mmh(rng.uniform(0, 10, (1, 16, 16)) * mask, mask.copy())
        obs = mmh(rng.uniform(0, 10, (1, 16, 16)) * mask, mask.copy())
        t = contingency(pred, obs, 2.0)
        assert t.total == int(mask.sum())

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ContingencyTable(hits=-1)


class TestPrecisionRecallEts:
    def test_perfect_scores_one(self):
        t = ContingencyTable(hits=50, misses=0, false_alarms=0,
                             correct_negatives=950)
        assert precision_recall_ets(t) == pytest.approx((1.0, 1.0, 1.0))

    def test_hand_computed_table(self):
        # h=50, m=10, fa=10, cn=930, N=1000: hits_rand = 60*60/1000 = 3.6
        # ets = 46.4 / 66.4
        t = ContingencyTable(hits=50, misses=10, false_alarms=10,
                             correct_negatives=930)
        p, r, e = precision_recall_ets(t)
        assert p == pytest.approx(50 / 60)
        assert r == pytest.approx(50 / 60)
        assert e == pytest.approx(46.4 / 66.4, abs=1e-10)
        assert e == pytest.approx(0.6988, abs=1e-4)

    def test_all_yes_forecast_scores_zero_ets(self):
        t = ContingencyTable(hits=60, misses=0, false_alarms=940,
                             correct_negatives=0)
        p, r, e = precision_recall_ets(t)
        assert r == 1.0
        assert e == pytest.approx(0.0, abs=1e-12)

    def test_all_no_forecast_scores_zero_ets(self):
        t = ContingencyTable(hits=0, misses=60, false_alarms=0,
                             correct_negatives=940)
        _, _, e = precision_recall_ets(t)
        assert e == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_denominators_are_nan(self):
        t = ContingencyTable(hits=0, misses=0, false_alarms=0,
                             correct_negatives=100)
        p, r, e = precision_recall_ets(t)
        assert np.isnan(p) and np.isnan(r) and np.isnan(e)

    def test_ets_bounded_by_recall(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            h, m, fa, cn = rng.integers(0, 200, 4)
            t = ContingencyTable(hits=int(h), misses=int(m),
                                 false_alarms=int(fa),
                                 correct_negatives=int(cn))
            p, r, e = precision_recall_ets(t)
            if not (np.isnan(e) or np.isnan(r)):
                assert e <= r + 1e-12
                assert e <= 1.0 + 1e-12


class TestVerifyNowcast:
    def test_persistence_on_stationary_scene(self):
        rng = np.random.default_rng(9)
        obs = mmh(rng.uniform(0, 10, (1, 12, 12)))
        report = verify_nowcast([[obs] * 4], [[obs] * 4])
        for lead in report.leads:
            assert report.continuous(lead) == pytest.approx((0.0, 0.0, 0.0))
            p, r, e = report.categorical(lead, 1.0)
            assert e == pytest.approx(1.0)

    def test_float32_fields_score_as_their_float64_copies(self):
        # sums and counts are taken in float64: two samples of three
        # two-level leads, partly masked, give the float64 copies' report
        rng = np.random.default_rng(21)

        def sample():
            return [RainField(data=rng.uniform(0.0, 12.0, (2, 9, 7))
                              .astype(np.float32),
                              mask=rng.random((2, 9, 7)) > 0.2)
                    for _ in range(3)]

        def wide(fields):
            return [RainField(data=f.data.astype(np.float64), mask=f.mask)
                    for f in fields]

        preds, obss = [sample(), sample()], [sample(), sample()]
        got = verify_nowcast(preds, obss)
        want = verify_nowcast(map(wide, preds), map(wide, obss))
        assert got._continuous == want._continuous
        assert got.tables == want.tables
        p, o = preds[0][0], obss[0][0]
        assert continuous_metrics(p, o) == continuous_metrics(*wide([p, o]))
        assert contingency(p, o, 5.0) == contingency(*wide([p, o]), 5.0)

    def test_volumetric_inputs_are_cmax_pooled(self):
        low = np.zeros((2, 6, 6))
        low[0] = 4.0
        low[1, 2, 2] = 9.0
        pred = mmh(low)
        flat = mmh(np.maximum(low[0], low[1])[None])
        report = verify_nowcast([[pred]], [[flat]])
        assert report.continuous(1) == pytest.approx((0.0, 0.0, 0.0))

    def test_micro_aggregation_pools_counts(self):
        a_pred = mmh(np.full((1, 4, 4), 5.0))
        a_obs = mmh(np.full((1, 4, 4), 5.0))
        b_pred = mmh(np.zeros((1, 4, 4)))
        b_obs = mmh(np.full((1, 4, 4), 5.0))
        report = verify_nowcast([[a_pred], [b_pred]], [[a_obs], [b_obs]])
        tbl = report.tables[(1, 1.0)]
        assert tbl.hits == 16 and tbl.misses == 16
        assert report.samples == 2

    def test_true_motion_mae_bounded_by_interpolation_smear(self):
        from voxflow.advect import extrapolate
        from voxflow.synth import generate, preset
        from voxflow.transform import volume_to_rain

        vol, truth = generate(preset("uniform", frames=24))
        leads = extrapolate(volume_to_rain(vol, 7), truth, 16)
        obs = [volume_to_rain(vol, 8 + t) for t in range(16)]
        report = verify_nowcast([leads], [obs])
        me, mae, mse = report.continuous(16)
        field_mean = obs[-1].data[obs[-1].mask].mean()
        assert mae < 0.05 * field_mean

    def test_zero_motion_mae_grows_with_lead_on_moving_scene(self):
        yg, xg = np.mgrid[0:32, 0:32]
        frames = []
        for t in range(6):
            blob = 8.0 * np.exp(-((yg - 16) ** 2 + (xg - 8 - 3 * t) ** 2) / 12.0)
            frames.append(mmh(blob[None]))
        persistence = [frames[0]] * 5
        report = verify_nowcast([persistence], [frames[1:]])
        maes = [report.continuous(lead)[1] for lead in report.leads]
        assert all(b > a for a, b in zip(maes, maes[1:]))

    def test_one_sample_equals_single_field_scores(self):
        rng = np.random.default_rng(12)
        mask = rng.random((3, 16, 16)) > 0.2
        preds = [mmh(rng.gamma(0.6, 6.0, (3, 16, 16)), mask) for _ in range(3)]
        obss = [mmh(rng.gamma(0.6, 6.0, (3, 16, 16)), mask) for _ in range(3)]
        report = verify_nowcast([preds], [obss])
        assert report.thresholds == [1.0, 5.0, 10.0]
        for lead, (pred, obs) in enumerate(zip(preds, obss), start=1):
            p, o = cmax_field(pred), cmax_field(obs)
            assert report.continuous(lead) == continuous_metrics(p, o)
            for thr in report.thresholds:
                assert report.tables[(lead, thr)] == contingency(p, o, thr)

    def test_one_level_fields_score_their_valid_cells_as_given(self):
        # pooling a one-level field only fills its invalid cells, which the
        # scores never read: the report is that of the unpooled fields
        rng = np.random.default_rng(13)
        fields = []
        for i in range(6):
            data = rng.gamma(0.6, 6.0, (1, 16, 16))
            mask = rng.random((1, 16, 16)) > 0.3
            data[~mask] = rng.choice([np.nan, np.inf, 1e9], (~mask).sum())
            # a valid infinite forecast rate is scored like any other
            data[0, 0, :2] = [np.inf if i < 3 else 2.0, 0.0]
            mask[0, 0, :2] = True
            fields.append(mmh(data, mask))
        preds, obss = fields[:3], fields[3:]
        report = verify_nowcast([preds], [obss])
        for lead, (pred, obs) in enumerate(zip(preds, obss), start=1):
            valid = pred.mask & obs.mask
            d = pred.data[valid] - obs.data[valid]
            assert report._continuous[lead] == (
                float(d.sum()), float(np.abs(d).sum()), float((d * d).sum()),
                int(valid.sum()))
            for thr in report.thresholds:
                assert report.tables[(lead, thr)] == contingency(pred, obs, thr)

    def _samples(self):
        """Forecasts of two samples, then their observations: 3 leads each."""
        rng = np.random.default_rng(21)
        return [[mmh(rng.gamma(0.6, 6.0, (2, 8, 8))) for _ in range(3)]
                for _ in range(4)]

    def test_iterators_give_the_scores_of_lists(self):
        fields = self._samples()
        preds, obss = fields[:2], fields[2:]
        want = verify_nowcast(preds, obss)
        got = verify_nowcast((iter(p) for p in preds), iter(map(iter, obss)))
        assert (got.leads, got.samples) == (want.leads, want.samples)
        assert got._continuous == want._continuous and got.tables == want.tables
        one = verify_nowcast(preds[:1], obss[:1])
        assert verify_nowcast([iter(preds[0])],
                              [iter(obss[0])]).tables == one.tables

    def test_a_generator_is_held_one_lead_at_a_time(self):
        import weakref
        made = []

        def leads(n):
            for _ in range(n):
                # every earlier lead is freed before the next is made
                assert all(ref() is None for ref in made)
                f = mmh(np.full((2, 4, 4), 3.0))
                made.append(weakref.ref(f))
                yield f
                del f

        for samples in (1, 2):
            made.clear()
            preds = (leads(5) for _ in range(samples))
            obss = [[mmh(np.full((1, 4, 4), 3.0))] * 5] * samples
            assert verify_nowcast(preds, obss).leads == [1, 2, 3, 4, 5]
            assert len(made) == 5 * samples

    @pytest.mark.parametrize("what, sample", [
        ("forecast lead", 0), ("observed lead", 0), ("forecast lead", 1),
        ("observed lead", 1), ("extra lead", 1), ("sample", None)])
    def test_counts_that_differ_are_found_while_consuming(self, what, sample):
        fields = self._samples()
        preds, obss = fields[:2], fields[2:]
        message = "every sample must cover the same lead times"
        if what == "sample":
            obss.pop()
            message = "forecast and observation sample counts differ"
        elif what == "forecast lead":
            preds[sample].pop()
        elif what == "observed lead":
            obss[sample].pop()
        else:
            preds[sample].append(preds[sample][0])
            obss[sample].append(obss[sample][0])
        with pytest.raises(ValueError, match=message):
            verify_nowcast((iter(s) for s in preds), (iter(s) for s in obss))

    def test_no_forecast_is_an_error(self):
        for empty in ([], iter([])):
            with pytest.raises(ValueError, match="no forecasts given"):
                verify_nowcast(empty, empty)
