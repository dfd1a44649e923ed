import numpy as np
import pytest

from tempex import metrics as mt
from tempex import nets
from tempex.data import TimeSeriesDataset


class TestAupAur:
    def test_perfect_detector(self, rng):
        truth = rng.uniform(0, 1, (4, 5)) > 0.6
        if not truth.any() or truth.all():
            truth[0, 0], truth[-1, -1] = True, False
        aup, aur = mt.aup_aur(truth.astype(np.float64), truth)
        assert aup == 1.0 and aur == 1.0

    def test_all_positive_detector(self, rng):
        truth = rng.uniform(0, 1, (6, 3)) > 0.5
        truth[0, 0], truth[-1, -1] = True, False
        aup, aur = mt.aup_aur(np.ones((6, 3)), truth)
        assert aur == 1.0
        assert aup == pytest.approx(truth.mean())

    def test_all_zero_map_selects_nothing(self, rng):
        truth = rng.uniform(0, 1, (6, 3)) > 0.5
        truth[0, 0], truth[-1, -1] = True, False
        assert mt.aup_aur(np.zeros((6, 3)), truth) == (0.0, 0.0)

    def test_matches_brute_force_sweep(self, rng):
        # hand-looped oracle over the same quantile grid
        scores = rng.uniform(0, 1, (3, 2))
        truth = rng.uniform(0, 1, (3, 2)) > 0.4
        truth[0, 0], truth[1, 1] = True, False
        s, a = scores.ravel(), truth.ravel()
        ps, rs = [], []
        for lvl in (np.arange(100) + 1) / 101:
            tau = np.quantile(s, lvl)
            pred = s > tau
            if pred.sum() == 0:
                continue
            ps.append((pred & a).sum() / pred.sum())
            rs.append((pred & a).sum() / a.sum())
        aup, aur = mt.aup_aur(scores, truth)
        assert aup == pytest.approx(np.mean(ps))
        assert aur == pytest.approx(np.mean(rs))

    def test_monotone_rescaling_invariance(self, rng):
        scores = rng.uniform(0, 1, (5, 4))
        truth = rng.uniform(0, 1, (5, 4)) > 0.5
        truth[0, 0], truth[1, 1] = True, False
        base = mt.aup_aur(scores, truth)
        warped = mt.aup_aur(scores ** 3 * 0.2 + 0.05, truth)
        assert base == pytest.approx(warped)

    def test_degenerate_truth_rejected(self):
        with pytest.raises(ValueError):
            mt.aup_aur(np.zeros((2, 2)), np.ones((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            mt.aup_aur(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))


class TestInformationEntropy:
    def setup_method(self):
        self.truth = np.array([[True, False]])

    def test_half_mask_information(self):
        scores = np.array([[0.5, 0.9]])
        assert mt.information(scores, self.truth) == pytest.approx(np.log(2))

    def test_half_mask_entropy(self):
        scores = np.array([[0.5, 0.9]])
        assert mt.entropy(scores, self.truth) == pytest.approx(np.log(2))

    def test_saturated_mask_limits(self):
        truth = np.array([[True, True]])
        scores = np.array([[0.0, 1.0]])
        assert mt.entropy(scores, truth) == 0.0
        # the m=0 cell contributes 0; the m=1 cell -ln(eps) after clipping
        assert mt.information(scores, truth) == pytest.approx(
            -np.log(mt.EPS), rel=1e-3)

    def test_information_monotone(self, rng):
        truth = rng.uniform(0, 1, (3, 3)) > 0.5
        truth[0, 0] = True
        scores = rng.uniform(0.1, 0.8, (3, 3))
        bumped = scores.copy()
        bumped[0, 0] += 0.1
        assert mt.information(bumped, truth) > mt.information(scores, truth)

    def test_entropy_peaks_at_half(self):
        truth = np.array([[True]])
        assert mt.entropy(np.array([[0.5]]), truth) > \
            mt.entropy(np.array([[0.3]]), truth) > \
            mt.entropy(np.array([[0.1]]), truth)

    def test_report_bundles_all_four(self, rng):
        scores = rng.uniform(0, 1, (4, 2))
        truth = rng.uniform(0, 1, (4, 2)) > 0.5
        truth[0, 0], truth[1, 1] = True, False
        rep = mt.ground_truth_report(scores, truth)
        assert 0.0 <= rep.aup <= 1.0 and 0.0 <= rep.aur <= 1.0
        assert rep.information >= 0.0 and rep.entropy >= 0.0


class TestTopCells:
    def test_selects_exact_count(self, rng):
        scores = rng.uniform(0, 1, (3, 4, 5))
        sel = mt.top_cells_mask(scores, 0.25)
        assert (sel.reshape(3, -1).sum(axis=1) == 5).all()

    def test_tie_break_lexicographic(self):
        scores = np.full((1, 2, 2), 0.7)
        sel = mt.top_cells_mask(scores, 0.5)
        np.testing.assert_array_equal(sel[0], [[True, True], [False, False]])

    def test_zero_cell_fraction_rejected(self):
        with pytest.raises(ValueError):
            mt.top_cells_mask(np.zeros((1, 10, 10)), 0.001)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, rng, bad):
        # a NaN makes every quantile threshold NaN, so AUP/AUR would fall
        # back to the constant-map result; a sort would rank it
        scores = rng.uniform(0, 1, (2, 5, 3))
        truth = scores > 0.5
        truth[0, 0, 0], truth[-1, -1, -1] = True, False
        scores[1, 2, 0] = bad
        with pytest.raises(ValueError, match="aup_aur: scores must be "
                                             "finite"):
            mt.aup_aur(scores, truth)
        with pytest.raises(ValueError, match="top_cells_mask: scores must "
                                             "be finite"):
            mt.top_cells_mask(scores, 0.2)

    def test_comp_suff_partition(self, rng):
        scores = rng.uniform(0, 1, (2, 5, 3))
        top = mt.top_cells_mask(scores, 0.4)
        # Suff masks the complement: the two selections tile every cell
        np.testing.assert_array_equal(top | ~top, np.ones_like(top))
        assert not (top & ~top).any()


class TestSubstitute:
    def test_zeros(self):
        X = np.arange(6, dtype=np.float64).reshape(1, 3, 2)
        cells = np.zeros_like(X, dtype=bool)
        cells[0, 1, 0] = True
        out = mt.substitute(X, cells, mt.ZEROS)
        assert out[0, 1, 0] == 0.0
        assert (out[~cells] == X[~cells]).all()

    def test_time_average(self):
        X = np.arange(6, dtype=np.float64).reshape(1, 3, 2)
        cells = np.zeros_like(X, dtype=bool)
        cells[0, 2, 1] = True
        out = mt.substitute(X, cells, mt.TIME_AVERAGE)
        assert out[0, 2, 1] == pytest.approx(X[0, :, 1].mean())

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            mt.substitute(np.zeros((1, 2, 2)),
                          np.zeros((1, 2, 2), dtype=bool), "median")


@pytest.fixture(scope="module")
def seq_classifier():
    """Sequence classifier keyed on late channel-0 values."""
    rng = np.random.default_rng(7)
    X = rng.uniform(-1, 1, (150, 12, 2))
    y = (X[:, 8:, 0].mean(axis=1) > 0).astype(np.int64)
    c = nets.init_classifier(np.random.default_rng(8), 2, 12,
                             readout=nets.FINAL_STEP)
    c, _ = nets.train_classifier(TimeSeriesDataset(X=X, y=y), c,
                                 nets.TrainConfig(epochs=80, lr=0.02, seed=9))
    return c.freeze(), TimeSeriesDataset(X=X, y=y)


class TestMaskedPrediction:
    def test_insensitive_cells_leave_predictions(self, seq_classifier, rng):
        model, ds = seq_classifier
        # score only the early window the model ignores
        scores = np.zeros_like(ds.X)
        scores[:, :3, 1] = 1.0
        rep = mt.masked_prediction_metrics(model, ds, scores, 0.05, mt.ZEROS)
        base = float(np.mean(
            (nets.predict_proba(ds.X, model) > 0.5).astype(int) == ds.y))
        assert rep.comprehensiveness == pytest.approx(0.0, abs=0.05)
        assert rep.accuracy == pytest.approx(base, abs=0.05)

    def test_masking_signal_cells_hurts(self, seq_classifier):
        model, ds = seq_classifier
        signal = np.zeros_like(ds.X)
        signal[:, 8:, 0] = 1.0
        rep = mt.masked_prediction_metrics(model, ds, signal, 0.2, mt.ZEROS)
        noise = np.zeros_like(ds.X)
        noise[:, :4, 1] = 1.0
        rep0 = mt.masked_prediction_metrics(model, ds, noise, 0.2, mt.ZEROS)
        assert rep.comprehensiveness > rep0.comprehensiveness
        assert rep.cross_entropy > rep0.cross_entropy
        assert rep.accuracy < rep0.accuracy
        # keeping just the signal cells should retain the prediction
        assert rep.sufficiency < rep0.sufficiency

    def test_hand_computed_toy(self):
        # classifier surrogate: probability rises with x[t0, i0]; with
        # uniform scores ties pick the first cells, so we place the pivotal
        # cell first and verify Comp by direct evaluation
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, (4, 1, 2))
        y = (X[:, 0, 0] > 0).astype(np.int64)
        c = nets.init_classifier(np.random.default_rng(1), 2, 6,
                                 readout=nets.FINAL_STEP)
        c, _ = nets.train_classifier(
            TimeSeriesDataset(X=X, y=y), c,
            nets.TrainConfig(epochs=5, lr=0.01, seed=2))
        c.freeze()
        ds = TimeSeriesDataset(X=X, y=y)
        scores = np.full_like(X, 0.5)
        rep = mt.masked_prediction_metrics(c, ds, scores, 0.5, mt.ZEROS)
        # oracle: ties select cell (t=0, i=0); recompute Comp by hand
        p0 = nets.predict_proba(X, c)
        Xm = X.copy()
        Xm[:, 0, 0] = 0.0
        pm = nets.predict_proba(Xm, c)
        cls = (p0 > 0.5).astype(float)
        want = np.mean(np.where(cls == 1, p0, 1 - p0)
                       - np.where(cls == 1, pm, 1 - pm))
        assert rep.comprehensiveness == pytest.approx(want)

    def test_bad_fraction(self, seq_classifier):
        model, ds = seq_classifier
        with pytest.raises(ValueError):
            mt.masked_prediction_metrics(model, ds, np.zeros_like(ds.X),
                                         1.5, mt.ZEROS)


class TestAggregate:
    def test_identical_maps_zero_ci(self):
        scores = np.tile(np.arange(6, dtype=np.float64).reshape(1, 3, 2),
                         (5, 1, 1))
        agg = mt.aggregate_importance(scores)
        assert (agg["per_feature"]["ci95"] == 0).all()
        assert (agg["per_time"]["ci95"] == 0).all()

    def test_two_sample_mean(self):
        scores = np.zeros((2, 1, 1))
        scores[1] = 1.0
        agg = mt.aggregate_importance(scores)
        assert agg["per_feature"]["mean"][0] == pytest.approx(0.5)

    def test_ci_close_to_bootstrap(self, rng):
        scores = rng.uniform(0, 1, (60, 4, 3))
        agg = mt.aggregate_importance(scores)
        per_feat = scores.mean(axis=1)  # (N, n)
        boots = np.empty((2000, 3))
        for i in range(2000):
            idx = rng.integers(0, 60, 60)
            boots[i] = per_feat[idx].mean(axis=0)
        lo, hi = np.percentile(boots, [2.5, 97.5], axis=0)
        boot_width = hi - lo
        normal_width = 2 * agg["per_feature"]["ci95"]
        np.testing.assert_allclose(normal_width, boot_width, rtol=0.2)

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            mt.aggregate_importance(np.zeros((1, 2, 2)))


class TestMaskingCurve:
    def test_k_zero_rate_is_one(self, seq_classifier):
        model, ds = seq_classifier
        curve = mt.positive_rate_masking_curve(model, ds, [0])
        assert curve["mask_first"][0] == 1.0
        assert curve["mask_last"][0] == 1.0

    def test_full_masking_matches_zero_input(self, seq_classifier):
        model, ds = seq_classifier
        T = ds.X.shape[1]
        curve = mt.positive_rate_masking_curve(model, ds, [T])
        p_zero = nets.predict_proba(np.zeros((1, T, ds.X.shape[2])), model)
        want = float(p_zero[0] > 0.5)
        assert curve["mask_first"][0] == want
        assert curve["mask_last"][0] == want

    def test_late_signal_hit_harder_by_last_masking(self, seq_classifier):
        model, ds = seq_classifier
        curve = mt.positive_rate_masking_curve(model, ds, [4])
        assert curve["mask_last"][0] < curve["mask_first"][0]

    def test_no_positive_samples(self, seq_classifier):
        model, ds = seq_classifier
        sub = TimeSeriesDataset(X=np.full((3, 12, 2), -1.0),
                                y=np.zeros(3, dtype=np.int64))
        p = nets.predict_proba(sub.X, model)
        if (p > 0.5).any():
            pytest.skip("constant negative input still predicted positive")
        with pytest.raises(ValueError):
            mt.positive_rate_masking_curve(model, sub, [1])
