import numpy as np
import pytest

from fairdp.dataio import Dataset
from fairdp.errors import DataError
from fairdp.metrics import (GroupReport, _positive_rates, demographic_parity_gap,
                            equalized_odds_gaps, group_report, privacy_impact)
from fairdp.model import ModelSpec, forward


def make_data(features, labels, groups, num_groups=2, num_classes=2):
    names = tuple(f"g{k}" for k in range(num_groups))
    return Dataset(np.asarray(features, dtype=float), np.asarray(labels),
                   np.asarray(groups), names, num_classes)


def perfect_params():
    # strong weight on the single feature: predicts 1 iff x > 0
    return np.array([-20.0, 20.0, 0.0, 0.0])


SPEC1D = ModelSpec.softmax(1, 2)


def predicted(spec, params, data):
    """Each row's predicted class, as the fairness gaps read it."""
    return group_report(spec, params, data).predictions


def labeled_1d(labels, groups):
    labels = np.asarray(labels)
    x = (2.0 * labels - 1.0)[:, None]
    return make_data(x, labels, groups)


def report_from(acc, counts, names=("g0", "g1")):
    acc = np.asarray(acc, dtype=float)
    counts = np.asarray(counts)
    overall = float((acc * counts).sum() / counts.sum())
    return GroupReport(tuple(names), acc, np.zeros_like(acc), counts, overall,
                       np.zeros(0, dtype=np.int64))


class TestGroupReport:
    def test_perfect_classifier(self):
        data = labeled_1d([0, 1, 0, 1], [0, 0, 1, 1])
        rep = group_report(SPEC1D, perfect_params(), data)
        np.testing.assert_array_equal(rep.accuracy, [1.0, 1.0])
        assert rep.overall_accuracy == 1.0

    def test_weighted_mean_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(10, 60))
            data = labeled_1d(rng.integers(0, 2, n), rng.integers(0, 2, n))
            if np.any(data.group_sizes() == 0):
                continue
            params = rng.standard_normal(4)
            rep = group_report(SPEC1D, params, data)
            weighted = (rep.accuracy * rep.counts).sum() / rep.counts.sum()
            assert rep.overall_accuracy == pytest.approx(weighted, abs=1e-12)

    def test_sizes_10_90_weighting(self):
        # group 0: 10 rows at accuracy 0.5; group 1: 90 rows at accuracy 1.0
        labels = np.array([0, 1] * 5 + [1] * 90)
        x = np.ones((100, 1))  # predicts class 1 everywhere
        data = make_data(x, labels, [0] * 10 + [1] * 90)
        rep = group_report(SPEC1D, perfect_params(), data)
        np.testing.assert_allclose(rep.accuracy, [0.5, 1.0])
        assert rep.overall_accuracy == pytest.approx(0.95)

    def test_empty_group_rejected(self):
        data = labeled_1d([0, 1], [0, 0])
        with pytest.raises(DataError, match="g1"):
            group_report(SPEC1D, perfect_params(), data)

    def test_predictions_are_argmax_of_forward(self):
        rng = np.random.default_rng(3)
        spec = ModelSpec.mlp(3, 5, 4, l2=0.01)
        data = Dataset(rng.standard_normal((40, 3)), rng.integers(0, 4, 40),
                       np.arange(40) % 2, ("g0", "g1"), 4)
        params = rng.standard_normal(spec.param_count)
        rep = group_report(spec, params, data)
        np.testing.assert_array_equal(
            rep.predictions, np.argmax(forward(spec, params, data.features), axis=1))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        data = labeled_1d(rng.integers(0, 2, 30), rng.integers(0, 2, 30))
        perm = rng.permutation(30)
        shuffled = make_data(data.features[perm], data.labels[perm],
                             data.groups[perm])
        params = rng.standard_normal(4)
        a = group_report(SPEC1D, params, data)
        b = group_report(SPEC1D, params, shuffled)
        np.testing.assert_allclose(a.accuracy, b.accuracy, atol=1e-15)
        np.testing.assert_allclose(a.mean_loss, b.mean_loss, atol=1e-12)


class TestPrivacyImpact:
    def test_identical_reports_pass(self):
        rep = report_from([0.9, 0.8], [50, 50])
        impact = privacy_impact(rep, rep, tau=0.05)
        np.testing.assert_array_equal(impact.delta, [0.0, 0.0])
        assert impact.max_pairwise_gap == 0.0
        assert impact.passes

    def test_reported_disparate_case_fails(self):
        # deltas (-0.0707, -0.6807) gap 0.61 exceeds tau = 0.05
        nonprivate = report_from([0.9903, 0.9292], [5958, 500])
        private = report_from([0.9903 - 0.0707, 0.9292 - 0.6807], [5958, 500])
        impact = privacy_impact(private, nonprivate, tau=0.05)
        np.testing.assert_allclose(impact.delta, [-0.0707, -0.6807], atol=1e-12)
        assert impact.max_pairwise_gap == pytest.approx(0.61, abs=1e-12)
        assert not impact.passes

    def test_balanced_case_passes(self):
        # deltas (-0.0281, -0.0432) gap 0.0151 within tau = 0.05
        nonprivate = report_from([0.9903, 0.9292], [5958, 500])
        private = report_from([0.9903 - 0.0281, 0.9292 - 0.0432], [5958, 500])
        impact = privacy_impact(private, nonprivate, tau=0.05)
        assert impact.max_pairwise_gap == pytest.approx(0.0151, abs=1e-12)
        assert impact.passes

    def test_antisymmetric_under_swap(self):
        a = report_from([0.9, 0.7], [10, 10])
        b = report_from([0.8, 0.75], [10, 10])
        fwd = privacy_impact(a, b, tau=0.05)
        rev = privacy_impact(b, a, tau=0.05)
        np.testing.assert_allclose(rev.delta, -fwd.delta, atol=1e-15)
        assert rev.max_pairwise_gap == pytest.approx(fwd.max_pairwise_gap)

    def test_group_mismatch_rejected(self):
        a = report_from([0.9, 0.7], [10, 10], names=("a", "b"))
        b = report_from([0.9, 0.7], [10, 10], names=("a", "c"))
        with pytest.raises(ValueError, match="mismatch"):
            privacy_impact(a, b, tau=0.05)

    def test_three_group_max_pairwise(self):
        a = report_from([0.9, 0.8, 0.7], [5, 5, 5], names=("x", "y", "z"))
        b = report_from([0.9, 0.9, 0.9], [5, 5, 5], names=("x", "y", "z"))
        impact = privacy_impact(a, b, tau=0.05)
        assert impact.max_pairwise_gap == pytest.approx(0.2)


def brute_force_rates(preds, labels, groups, positive, num_groups):
    """Independent loop-based oracle for parity and odds rates."""
    pos_rate, tpr, fpr = [], [], []
    for k in range(num_groups):
        sel = [i for i in range(len(preds)) if groups[i] == k]
        pos_rate.append(np.mean([preds[i] == positive for i in sel]))
        true_pos = [i for i in sel if labels[i] == positive]
        true_neg = [i for i in sel if labels[i] != positive]
        tpr.append(np.mean([preds[i] == positive for i in true_pos])
                   if true_pos else np.nan)
        fpr.append(np.mean([preds[i] == positive for i in true_neg])
                   if true_neg else np.nan)
    return pos_rate, tpr, fpr


def max_gap(values):
    finite = [v for v in values if np.isfinite(v)]
    if len(finite) < 2:
        return float("nan")
    return max(finite) - min(finite)


class TestFairnessGaps:
    def test_empty_group_rejected(self):
        data = labeled_1d([0, 1], [0, 0])
        predictions = np.array([0, 1])
        with pytest.raises(DataError, match="empty group"):
            demographic_parity_gap(predictions, data)
        with pytest.raises(DataError, match="empty group"):
            equalized_odds_gaps(predictions, data)

    def test_constant_classifier_has_zero_parity_gap(self):
        data = labeled_1d([0, 1, 0, 1], [0, 0, 1, 1])
        params = np.array([0.0, 0.0, 10.0, 0.0])  # always predicts class 0
        assert demographic_parity_gap(predicted(SPEC1D, params, data), data) == 0.0

    def test_opposite_groups_gap_one(self):
        x = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        data = make_data(x, [1, 1, 0, 0], [0, 0, 1, 1])
        # predicts 1 for group 0 rows (x > 0), 0 for group 1 rows
        assert demographic_parity_gap(predicted(SPEC1D, perfect_params(), data), data) == 1.0

    def test_perfect_classifier_zero_odds_gaps(self):
        data = labeled_1d([0, 1, 0, 1], [0, 0, 1, 1])
        assert equalized_odds_gaps(predicted(SPEC1D, perfect_params(), data), data) == (0.0, 0.0)

    def test_inverted_group_odds_gap_one(self):
        # classifier equals the label for group 0, inverted for group 1
        x = np.array([[1.0], [-1.0], [-1.0], [1.0]])
        data = make_data(x, [1, 0, 1, 0], [0, 0, 1, 1])
        tpr_gap, fpr_gap = equalized_odds_gaps(predicted(SPEC1D, perfect_params(), data), data)
        assert (tpr_gap, fpr_gap) == (1.0, 1.0)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        spec = ModelSpec.softmax(3, 2)
        for trial in range(30):
            n = int(rng.integers(8, 40))
            num_groups = int(rng.integers(2, 4))
            x = rng.standard_normal((n, 3))
            labels = rng.integers(0, 2, n)
            groups = np.concatenate([np.arange(num_groups),
                                     rng.integers(0, num_groups, n - num_groups)])
            data = Dataset(x, labels, groups,
                           tuple(f"g{k}" for k in range(num_groups)), 2)
            params = rng.standard_normal(spec.param_count)
            preds = np.argmax(forward(spec, params, x), axis=1)
            pos_rate, tpr, fpr = brute_force_rates(preds, labels, groups, 1,
                                                   num_groups)
            got_dp = demographic_parity_gap(predicted(spec, params, data), data)
            assert got_dp == pytest.approx(max_gap(pos_rate), abs=1e-12)
            import warnings
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got_tpr, got_fpr = equalized_odds_gaps(predicted(spec, params, data), data)
            for got, want in ((got_tpr, max_gap(tpr)), (got_fpr, max_gap(fpr))):
                if np.isnan(want):
                    assert np.isnan(got)
                else:
                    assert got == pytest.approx(want, abs=1e-12)

    def test_rates_equal_per_group_loop(self):
        # the one masked bincount against the per-group loop it replaced,
        # bit for bit: 0/1 sums are exact, so each rate is the same division
        rng = np.random.default_rng(12)
        for trial in range(30):
            n, num_groups = int(rng.integers(6, 50)), int(rng.integers(2, 5))
            groups = np.concatenate([np.arange(num_groups),
                                     rng.integers(0, num_groups, n - num_groups)])
            data = Dataset(np.zeros((n, 1)), rng.integers(0, 2, n), groups,
                           tuple(f"g{k}" for k in range(num_groups)), 2)
            hit = rng.integers(0, 2, n).astype(np.float64)
            for condition in (None, data.labels == 1, data.labels == 0):
                mask = np.ones(n, dtype=bool) if condition is None else condition
                loop = np.full(num_groups, np.nan)
                for k in range(num_groups):
                    sel = mask & (groups == k)
                    if sel.any():
                        loop[k] = hit[sel].mean()
                np.testing.assert_array_equal(_positive_rates(hit, data, condition), loop)

    def test_missing_label_value_warns_and_excludes(self):
        # groups 1 and 2 have no positive labels: their TPRs are undefined
        x = np.array([[1.0], [-1.0], [-1.0], [-1.0], [-1.0]])
        data = make_data(x, [1, 0, 0, 0, 0], [0, 0, 1, 1, 2], num_groups=3)
        with pytest.warns(UserWarning) as record:
            tpr_gap, fpr_gap = equalized_odds_gaps(predicted(SPEC1D, perfect_params(), data), data)
        assert len(record) == 1  # one warning per undefined rate, not per group
        message = str(record[0].message)
        assert "no positive labels" in message
        assert "'g1'" in message and "'g2'" in message and "'g0'" not in message
        assert np.isnan(tpr_gap)  # only one group has a defined TPR
        assert fpr_gap == 0.0
