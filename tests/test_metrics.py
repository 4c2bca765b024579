"""Metric oracles: every rank statistic is checked against an in-test
brute-force pair enumeration, and the scalar metrics against hand values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidemil.dataio import SurvivalRecord
from slidemil.errors import MetricUndefinedError, ValidationError
from slidemil.metrics import (
    MAX_REDRAW_FACTOR,
    auc,
    balanced_accuracy,
    bootstrap_ci,
    cohens_kappa,
    concordance_index,
    km_curve,
    logrank_test,
    mean_squared_error,
    pearson_r,
    rejection_curve,
    risk_sets,
)


def _auc_pairs(labels, scores):
    """O(n^2) Mann-Whitney enumeration."""
    pos = [s for l, s in zip(labels, scores) if l == 1]
    neg = [s for l, s in zip(labels, scores) if l == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_and_inverted(self):
        assert auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0
        assert auc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_all_tied_is_half(self):
        assert auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_hand_value_with_one_tie(self):
        # pairs: (0.7 vs 0.3) win, (0.7 vs 0.7) tie, (0.2 vs 0.3) loss,
        # (0.2 vs 0.7) loss -> (1 + 0.5) / 4
        assert auc([0, 0, 1, 1], [0.3, 0.7, 0.7, 0.2]) == 0.375

    def test_matches_pair_enumeration_exactly(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 40))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # integer scores force plenty of exact ties
            scores = rng.integers(0, 5, n).astype(float)
            assert auc(labels, scores) == _auc_pairs(labels, scores)

    def test_single_class_undefined(self):
        with pytest.raises(MetricUndefinedError):
            auc([1, 1], [0.2, 0.4])


class TestBalancedAccuracy:
    def test_hand_values(self):
        # class 0 recall 1/2, class 1 recall 2/2
        assert balanced_accuracy([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75
        assert balanced_accuracy([0, 1, 2], [0, 1, 2]) == 1.0

    def test_ignores_class_imbalance(self):
        # 90 correct negatives drown plain accuracy but not BACC
        truth = [0] * 90 + [1] * 10
        pred = [0] * 90 + [1] * 5 + [0] * 5
        assert balanced_accuracy(truth, pred) == 0.75

    def test_classes_only_in_pred_do_not_add_terms(self):
        # truth has one class; pred invents another
        assert balanced_accuracy([0, 0], [0, 1]) == 0.5

    def test_empty_undefined(self):
        with pytest.raises(MetricUndefinedError):
            balanced_accuracy([], [])


def _kappa_reference(truth, pred, weighting):
    """Independent confusion-matrix implementation."""
    cats = sorted(set(truth) | set(pred))
    k = len(cats)
    idx = {c: i for i, c in enumerate(cats)}
    obs = np.zeros((k, k))
    for t, p in zip(truth, pred):
        obs[idx[t], idx[p]] += 1
    obs /= len(truth)
    exp = np.outer(obs.sum(1), obs.sum(0))
    if weighting == "quadratic" and k > 1:
        w = np.array([[((i - j) / (k - 1)) ** 2 for j in range(k)] for i in range(k)])
    else:
        w = 1.0 - np.eye(k)
    return 1.0 - (w * obs).sum() / (w * exp).sum()


class TestKappa:
    def test_perfect_agreement_is_one(self):
        assert cohens_kappa([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0
        assert cohens_kappa([0, 1, 2, 1], [0, 1, 2, 1], weighting="quadratic") == 1.0

    def test_unweighted_hand_value(self):
        # 2x2: obs agreement 0.6, chance 0.5 -> kappa 0.2
        truth = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
        pred = [0, 0, 0, 1, 1, 1, 1, 1, 0, 0]
        assert cohens_kappa(truth, pred) == pytest.approx(0.2, abs=1e-12)

    def test_matches_reference_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 30))
            truth = rng.integers(0, 4, n).tolist()
            pred = rng.integers(0, 4, n).tolist()
            for weighting in ("none", "quadratic"):
                try:
                    got = cohens_kappa(truth, pred, weighting=weighting)
                except MetricUndefinedError:
                    continue
                ref = _kappa_reference(truth, pred, weighting)
                assert got == pytest.approx(ref, abs=1e-12)

    def test_quadratic_penalizes_distance(self):
        truth = [0, 0, 2, 2]
        near = [1, 1, 1, 1]  # off by one everywhere
        far = [2, 2, 0, 0]   # off by two everywhere
        q_near = cohens_kappa(truth, near, weighting="quadratic")
        q_far = cohens_kappa(truth, far, weighting="quadratic")
        assert q_near > q_far

    def test_single_category_undefined(self):
        with pytest.raises(MetricUndefinedError):
            cohens_kappa([1, 1, 1], [1, 1, 1])

    def test_unknown_weighting_rejected(self):
        with pytest.raises(ValidationError):
            cohens_kappa([0, 1], [0, 1], weighting="linear")


class TestPearson:
    def test_frozen_reference_value(self):
        got = pearson_r([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert got == pytest.approx(0.9819805060619656, abs=1e-15)

    def test_exact_linear_is_one(self):
        x = np.array([1.0, 2.0, 5.0, -3.0])
        assert pearson_r(x, 2.0 * x + 1.0) == pytest.approx(1.0, abs=1e-12)
        assert pearson_r(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_numpy_corrcoef(self, rng):
        x = rng.standard_normal(40)
        y = rng.standard_normal(40)
        assert pearson_r(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)

    def test_constant_input_undefined(self):
        with pytest.raises(MetricUndefinedError):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short_undefined(self):
        with pytest.raises(MetricUndefinedError):
            pearson_r([1.0], [2.0])


class TestMse:
    def test_hand_value(self):
        assert mean_squared_error([0.0, 2.0], [1.0, 0.0]) == 2.5
        assert mean_squared_error([3.0], [3.0]) == 0.0


def _cindex_pairs(times, events, risks):
    wins = ties = n_pairs = 0
    n = len(times)
    for i in range(n):
        if events[i] != 1:
            continue
        for j in range(n):
            if times[i] < times[j]:
                n_pairs += 1
                if risks[i] > risks[j]:
                    wins += 1
                elif risks[i] == risks[j]:
                    ties += 1
    return (wins + 0.5 * ties) / n_pairs


class TestConcordance:
    def test_perfect_ranking(self):
        # higher risk, earlier event
        times = [1.0, 2.0, 3.0, 4.0]
        events = [1, 1, 1, 1]
        risks = [4.0, 3.0, 2.0, 1.0]
        assert concordance_index(times, events, risks) == 1.0

    def test_hand_value_with_censoring(self):
        # only subject 0 (event, t=1) anchors pairs: vs t=2 and t=3
        times = [1.0, 2.0, 3.0]
        events = [1, 0, 0]
        risks = [5.0, 7.0, 1.0]
        assert concordance_index(times, events, risks) == 0.5

    def test_matches_pair_enumeration(self, rng):
        for _ in range(60):
            n = int(rng.integers(3, 25))
            times = rng.integers(1, 8, n).astype(float)  # forces time ties
            events = (rng.random(n) < 0.7).astype(int)
            risks = rng.integers(0, 4, n).astype(float)  # forces risk ties
            try:
                got = concordance_index(times, events, risks)
            except MetricUndefinedError:
                continue
            assert got == _cindex_pairs(times, events, risks)

    def test_tied_times_are_not_comparable(self):
        with pytest.raises(MetricUndefinedError):
            concordance_index([2.0, 2.0], [1, 1], [1.0, 3.0])

    def test_no_events_undefined(self):
        with pytest.raises(MetricUndefinedError):
            concordance_index([1.0, 2.0], [0, 0], [1.0, 2.0])


# survival times on a grid of halves, so that ties are common, and query
# times from below the smallest to above the largest, on the grid and off it
_GRID_TIMES = st.integers(1, 12).map(lambda k: k / 2)
_QUERY_TIMES = st.one_of(_GRID_TIMES, st.floats(-1.0, 8.0, allow_nan=False))


def _log_sum_exp(log_weights):
    """log(sum(exp(w))) by brute force: the largest term factored out, and
    the rest summed exactly by fsum inside log1p; -inf for no mass."""
    if not log_weights or max(log_weights) == -math.inf:
        return -math.inf
    rest = sorted(log_weights)
    top = rest.pop()
    return top + math.log1p(math.fsum(math.exp(w - top) for w in rest))


# log weights over a range whose exp would overflow and underflow, and -inf
# for a zero weight
_LOG_WEIGHTS = st.one_of(st.just(-math.inf), st.floats(-800.0, 800.0, allow_nan=False))


class TestRiskSets:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_brute_force_loops(self, data):
        n = data.draw(st.integers(0, 25))
        times = data.draw(st.lists(_GRID_TIMES, min_size=n, max_size=n))
        events = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        at = data.draw(st.lists(_QUERY_TIMES, max_size=10))
        log_weights = data.draw(st.none() | st.lists(_LOG_WEIGHTS, min_size=n, max_size=n))
        at_risk, n_events = risk_sets(times, events, at, log_weights)
        assert at_risk.shape == n_events.shape == (len(at),)
        assert n_events.dtype.kind == "i"
        for k, t in enumerate(at):
            assert n_events[k] == sum(e for s, e in zip(times, events) if s == t)
            if log_weights is None:
                want = sum(1 for s in times if s >= t)
                assert at_risk.dtype.kind == "i" and at_risk[k] == want
            else:
                want = _log_sum_exp([w for s, w in zip(times, log_weights) if s >= t])
                assert at_risk[k] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_hand_table(self):
        # times 1, 2, 2+, 3, 3+ with weights 1, 2, 4, 8, 0
        at_risk, n_events = risk_sets(
            [2.0, 1.0, 3.0, 2.0, 3.0], [1, 1, 1, 0, 0], [0.5, 2.0, 2.5, 4.0],
            log_weights=[math.log(2.0), 0.0, math.log(8.0), math.log(4.0), -math.inf])
        np.testing.assert_allclose(at_risk, [math.log(15.0), math.log(14.0), math.log(8.0),
                                             -math.inf], rtol=1e-15)
        np.testing.assert_array_equal(n_events, [0, 1, 0, 0])


class TestKaplanMeier:
    def test_textbook_table(self):
        # times 1,2+,3,4: events at 1, 3, 4 with censoring at 2
        times = [1.0, 2.0, 3.0, 4.0]
        events = [1, 0, 1, 1]
        curve = km_curve(times, events)
        np.testing.assert_array_equal(curve.times, [1.0, 3.0, 4.0])
        np.testing.assert_array_equal(curve.at_risk, [4, 2, 1])
        np.testing.assert_allclose(curve.survival,
                                   [3 / 4, 3 / 4 * 1 / 2, 0.0], atol=1e-15)

    def test_tied_events_single_step(self):
        curve = km_curve([1.0, 1.0, 2.0], [1, 1, 0])
        np.testing.assert_array_equal(curve.times, [1.0])
        np.testing.assert_allclose(curve.survival, [1 / 3])

    def test_all_censored_is_flat(self):
        curve = km_curve([1.0, 2.0], [0, 0])
        assert len(curve.times) == 0

    def test_empty_undefined(self):
        with pytest.raises(MetricUndefinedError):
            km_curve([], [])


def _logrank_reference(group_a, group_b):
    """Independent per-time 2x2 table enumeration."""
    ta = np.array([r.time for r in group_a])
    ea = np.array([r.event for r in group_a])
    tb = np.array([r.time for r in group_b])
    eb = np.array([r.event for r in group_b])
    all_t = np.unique(np.concatenate([ta[ea == 1], tb[eb == 1]]))
    o_minus_e = 0.0
    var = 0.0
    for t in all_t:
        na = (ta >= t).sum()
        nb = (tb >= t).sum()
        nt = na + nb
        da = ((ta == t) & (ea == 1)).sum()
        db = ((tb == t) & (eb == 1)).sum()
        dt = da + db
        o_minus_e += da - dt * na / nt
        if nt > 1:
            var += dt * (na / nt) * (nb / nt) * (nt - dt) / (nt - 1)
    stat = o_minus_e ** 2 / var
    return stat, math.erfc(math.sqrt(stat / 2.0))


def _groups(a, b):
    """(times, events, in_group_a) arrays of two record lists, group a first."""
    records = list(a) + list(b)
    return ([r.time for r in records], [r.event for r in records],
            [True] * len(a) + [False] * len(b))


class TestLogrank:
    def test_hand_computed_table(self):
        # group a events at 1, 2; group b event at 3: work the three tables
        # t=1: na=2 nb=2 da=1 dt=1 -> e=0.5, v=0.25
        # t=2: na=1 nb=2 da=1 dt=1 -> e=1/3, v=2/9
        # t=3: na=0 nb=2 da=0 dt=1 -> e=0,   v=0... na=0 so v=0
        a = [SurvivalRecord(time=1.0, event=1), SurvivalRecord(time=2.0, event=1)]
        b = [SurvivalRecord(time=3.0, event=1), SurvivalRecord(time=4.0, event=0)]
        stat, p = logrank_test(*_groups(a, b))
        o_minus_e = (1 - 0.5) + (1 - 1 / 3) + (0 - 0.0)
        var = 0.25 + 2 / 9 + 0.0
        assert stat == pytest.approx(o_minus_e ** 2 / var, abs=1e-9)
        assert p == pytest.approx(math.erfc(math.sqrt(stat / 2.0)), abs=1e-15)

    def test_identical_groups_score_near_zero(self, rng):
        recs = [SurvivalRecord(time=float(t), event=1)
                for t in rng.exponential(1.0, 20) + 0.01]
        stat, p = logrank_test(*_groups(recs, recs))
        assert stat == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0, abs=1e-9)

    def test_matches_reference_random(self, rng):
        for _ in range(20):
            def draw():
                n = int(rng.integers(3, 15))
                return [SurvivalRecord(time=float(rng.integers(1, 6)),
                                       event=int(rng.random() < 0.7))
                        for _ in range(n)]
            a, b = draw(), draw()
            try:
                stat, p = logrank_test(*_groups(a, b))
            except MetricUndefinedError:
                continue
            ref_stat, ref_p = _logrank_reference(a, b)
            assert stat == pytest.approx(ref_stat, abs=1e-9)
            assert p == pytest.approx(ref_p, abs=1e-12)

    def test_separated_groups_are_significant(self):
        a = [SurvivalRecord(time=float(t), event=1) for t in range(1, 11)]
        b = [SurvivalRecord(time=float(t + 100), event=1) for t in range(1, 11)]
        stat, p = logrank_test(*_groups(a, b))
        assert p < 0.01

    def test_empty_group_undefined(self):
        with pytest.raises(MetricUndefinedError):
            logrank_test(*_groups([], [SurvivalRecord(time=1.0, event=1)]))
        with pytest.raises(MetricUndefinedError):
            logrank_test(*_groups([SurvivalRecord(time=1.0, event=1)], []))

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ValidationError):
            logrank_test([1.0, 2.0], [1, 1], [True])

    def test_no_events_undefined(self):
        a = [SurvivalRecord(time=1.0, event=0)]
        b = [SurvivalRecord(time=2.0, event=0)]
        with pytest.raises(MetricUndefinedError):
            logrank_test(*_groups(a, b))


class TestBootstrap:
    def test_seed_determinism(self, rng):
        labels = rng.integers(0, 2, 60)
        labels[:2] = [0, 1]
        scores = rng.random(60)
        r1 = bootstrap_ci(auc, (labels, scores), n_replicates=200, seed=9)
        r2 = bootstrap_ci(auc, (labels, scores), n_replicates=200, seed=9)
        assert r1 == r2

    def test_point_estimate_is_full_sample(self, rng):
        labels = np.array([0, 1] * 20)
        scores = rng.random(40)
        res = bootstrap_ci(auc, (labels, scores), n_replicates=50)
        assert res.point == auc(labels, scores)

    def test_ci_is_percentile_interval(self, rng):
        x = rng.standard_normal(50)
        y = x + 0.4 * rng.standard_normal(50)
        res = bootstrap_ci(pearson_r, (x, y), n_replicates=300, seed=1)
        assert res.ci_low <= res.mean <= res.ci_high
        assert res.ci_low <= res.point <= res.ci_high
        assert res.std > 0
        assert res.n_replicates == 300

    def test_undefined_replicates_are_redrawn(self):
        # one positive among many: single-class resamples occur and must be
        # skipped, not counted
        labels = np.array([1] + [0] * 9)
        scores = np.arange(10, dtype=float)
        res = bootstrap_ci(auc, (labels, scores), n_replicates=100, seed=0)
        assert res.n_replicates == 100
        assert math.isfinite(res.mean)

    def test_degenerate_data_hits_redraw_cap(self):
        # a metric defined on the full sample but on no resample must exhaust
        # the redraw budget instead of looping forever
        calls = {"n": 0}

        def flaky(t, p):
            calls["n"] += 1
            if calls["n"] == 1:
                return 0.5
            raise MetricUndefinedError("resample rejected")

        data = (np.zeros(4), np.zeros(4))
        with pytest.raises(ValidationError):
            bootstrap_ci(flaky, data, n_replicates=10)
        assert calls["n"] == 1 + MAX_REDRAW_FACTOR * 10 == 1 + 100 * 10

    def test_undefined_point_estimate_propagates(self):
        labels = np.array([1, 1, 1, 1])  # AUC undefined on the full sample
        scores = np.arange(4, dtype=float)
        with pytest.raises(MetricUndefinedError):
            bootstrap_ci(auc, (labels, scores), n_replicates=10)

    def test_empty_data_rejected(self):
        with pytest.raises(ValidationError):
            bootstrap_ci(auc, (np.array([]), np.array([])))


class TestRejectionCurve:
    def test_drops_highest_uncertainty_first(self):
        truth = np.array([0, 1, 0, 1])
        pred = np.array([0, 1, 1, 0])  # wrong on the last two
        unc = np.array([0.1, 0.2, 0.9, 0.8])
        curve = dict(rejection_curve(balanced_accuracy, truth, pred, unc,
                                     [0.0, 0.25, 0.5]))
        assert curve[0.0] == 0.5
        # dropping the single most uncertain sample removes one error
        assert curve[0.25] == pytest.approx(0.75)
        assert curve[0.5] == 1.0

    def test_k_is_ceil_of_fraction(self):
        truth = np.zeros(5, dtype=int)
        truth[0] = 1
        pred = truth.copy()
        unc = np.arange(5, dtype=float)
        seen = {}

        def probe(t, p):
            seen[len(t)] = True
            return balanced_accuracy(t, p)

        rejection_curve(probe, truth, pred, unc, [0.1, 0.2, 0.5])
        # ceil(0.5) = 1, ceil(1.0) = 1, ceil(2.5) = 3 samples dropped
        assert set(seen) == {4, 2}

    def test_ties_break_by_original_order(self):
        truth = np.array([0, 1, 0, 1])
        pred = np.array([1, 1, 0, 1])
        unc = np.ones(4)
        dropped = []

        def probe(t, p):
            dropped.append(len(t))
            return 0.0

        rejection_curve(probe, truth, pred, unc, [0.25, 0.5])
        assert dropped == [3, 2]
        # with all-equal uncertainty the stable order drops index 0 first:
        # the wrong prediction at index 0 disappears at q = 0.25
        curve = dict(rejection_curve(balanced_accuracy, truth, pred, unc, [0.25]))
        assert curve[0.25] == 1.0

    def test_undefined_tail_reported_as_none(self):
        # dropping enough samples leaves a single class and AUC undefines
        truth = np.array([1, 0, 0, 0])
        pred = np.array([0.9, 0.1, 0.2, 0.3])
        unc = np.array([9.0, 1.0, 1.0, 1.0])  # the only positive drops first
        curve = dict(rejection_curve(auc, truth, pred, unc, [0.0, 0.25]))
        assert curve[0.0] == 1.0
        assert curve[0.25] is None

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValidationError):
            rejection_curve(balanced_accuracy, [0, 1], [0, 1], [0.1, 0.2], [1.0])

    def test_misaligned_rejected(self):
        with pytest.raises(ValidationError):
            rejection_curve(balanced_accuracy, [0, 1], [0], [0.1, 0.2], [0.0])
