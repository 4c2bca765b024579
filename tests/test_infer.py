"""Sliding-window ensemble inference and the uncertainty decomposition."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from slidemil.dataio import SlideBag, SurvivalRecord
from slidemil.errors import ValidationError
from slidemil.fingerprint import RunConfig
from slidemil.inference import (
    BaselineSurvival,
    aggregate_patient,
    adjust_patient_uncertainty,
    chunk_windows,
    decompose_uncertainty,
    ensemble_outputs,
    entropy,
    estimate_baseline_survival,
    inference_windows,
    log_mean_exp,
    median_event_time,
    predict_classification,
    predict_regression,
    predict_survival,
    prediction_to_json,
    window_count,
)
from slidemil.model import GatedAttentionMIL

from conftest import assert_window_close, make_bag


def _model(d=8, h=4, c=3, seed=0, dtype=np.float32):
    m = GatedAttentionMIL(d, h, c, dtype=dtype)
    m.init_params(np.random.default_rng(seed))
    return m


class TestChunkWindows:
    @pytest.mark.parametrize("d,expected", [(1024, 13), (1536, 21), (2560, 37)])
    def test_reference_counts_at_h256_s64(self, d, expected):
        cw = chunk_windows(d, 256, 64)
        assert cw.n_chunks == expected
        assert cw.windows[0] == (0, 256)
        assert cw.windows[-1] == (d - 256, d)

    def test_windows_cover_every_dimension(self):
        cw = chunk_windows(1024, 256, 64)
        covered = np.zeros(1024, dtype=bool)
        for s, e in cw.windows:
            assert e - s == 256
            covered[s:e] = True
        assert covered.all()

    def test_full_width_window_when_h_equals_d(self):
        cw = chunk_windows(128, 128, 32)
        assert cw.windows == ((0, 128),)
        assert cw.n_chunks == 1

    def test_clamped_final_window_on_ragged_stride(self):
        # (300 - 256) = 44 is not a multiple of 64: one aligned start at 0
        # plus the clamped final window at 44
        cw = chunk_windows(300, 256, 64)
        assert cw.windows == ((0, 256), (44, 300))
        assert cw.n_chunks == 2

    def test_ragged_grid_general_case(self):
        cw = chunk_windows(20, 8, 5)
        assert cw.windows == ((0, 8), (5, 13), (10, 18), (12, 20))

    def test_window_count_matches_listed_windows(self):
        # every grid up to D=40, including H == D and clamped final windows
        for d in range(1, 41):
            for h in range(1, d + 1):
                for s in range(1, d + 1):
                    starts = sorted(set(range(0, d - h + 1, s)) | {d - h})
                    assert chunk_windows(d, h, s).windows == tuple((a, a + h) for a in starts)
                    assert window_count(d, h, s) == len(starts)

    def test_window_count_at_the_largest_header_dimension(self):
        d = 2**32 - 1  # 67,108,860 aligned starts and the clamped D - H
        assert window_count(d, 256, 64) == (d - 256) // 64 + 2

    def test_window_wider_than_embedding_rejected(self):
        with pytest.raises(ValidationError):
            chunk_windows(100, 128, 32)

    def test_bad_stride_rejected(self):
        with pytest.raises(ValidationError):
            chunk_windows(128, 64, 0)

    def test_config_window_count_includes_clamped_tail(self):
        # the aligned grid has (300 - 256) // 64 + 1 = 1 window; K counts the
        # clamped tail window the remainder adds
        cfg = RunConfig(task="classification", bag_size=4, hidden_dim=256,
                        stride=64, dropout=0.25, batch_size=32,
                        learning_rate=3e-4, weight_decay=1e-4, warmup_epochs=5,
                        max_epochs=100, patience=10, seed=42)
        assert inference_windows(cfg, 300).n_chunks == 2

    def test_full_bag_mode_sees_one_full_window(self):
        cfg = RunConfig(task="classification", bag_size=4, hidden_dim=64,
                        stride=16, dropout=0.25, batch_size=1,
                        learning_rate=3e-4, weight_decay=1e-4, warmup_epochs=5,
                        max_epochs=100, patience=10, seed=42,
                        training_mode="full_bag_batch1")
        assert inference_windows(cfg, 128).windows == ((0, 128),)


class TestEntropyDecomposition:
    def test_entropy_oracle_values(self):
        assert entropy([1.0, 0.0]) == 0.0
        assert entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-15)
        assert entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-15)

    def test_zero_probability_convention(self):
        # 0 log 0 = 0: adding impossible classes must not change the entropy
        assert entropy([0.3, 0.7, 0.0, 0.0]) == entropy([0.3, 0.7])

    def test_additive_identity_random_matrices(self, rng):
        for _ in range(200):
            k = int(rng.integers(1, 9))
            c = int(rng.integers(2, 7))
            probs = rng.dirichlet(np.ones(c), size=k)
            h_total, h_aleatoric, mi = decompose_uncertainty(probs)
            assert abs(h_total - h_aleatoric - mi) <= 1e-12 or mi == 0.0
            assert mi >= 0.0
            assert h_total <= math.log(c) + 1e-12

    def test_identical_chunks_have_zero_mi_exactly(self):
        # 4 identical rows: the float mean of 4 equal values is exact, so
        # the decomposition cancels bitwise
        row = np.array([0.1, 0.2, 0.7])
        probs = np.tile(row, (4, 1))
        h_total, h_aleatoric, mi = decompose_uncertainty(probs)
        assert mi == 0.0
        assert h_total == h_aleatoric

    def test_disagreeing_chunks_have_positive_mi(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        h_total, h_aleatoric, mi = decompose_uncertainty(probs)
        assert h_aleatoric == 0.0
        assert mi == pytest.approx(math.log(2), abs=1e-15)

    def test_large_negative_mi_is_an_error(self):
        # malformed rows (a negative mass the entropy sum drops) push the
        # mean per-row entropy above the mixture entropy; that signals a
        # broken probability pipeline rather than rounding noise
        probs = np.array([[0.5, 0.5, 0.4], [0.5, 0.5, -0.4]])
        with pytest.raises(ValidationError):
            decompose_uncertainty(probs)


class TestEnsembleOutputs:
    def test_matches_manual_per_window_forward(self, rng):
        m = _model()
        bag = make_bag(rng, 6, 8)
        wins = chunk_windows(8, 4, 2)
        out = ensemble_outputs(m, bag, wins)
        assert out.shape == (wins.n_chunks, 3)
        x = bag.embeddings[None]
        mask = np.ones((1, 6), dtype=bool)
        for k, (s, e) in enumerate(wins.windows):
            ref = m.forward(x, mask, np.arange(s, e)).outputs[0]
            assert_window_close(out[k], ref, m.dtype)

    def test_attention_is_mean_over_windows(self, rng):
        m = _model()
        bag = make_bag(rng, 5, 8)
        wins = chunk_windows(8, 4, 2)
        _, att = ensemble_outputs(m, bag, wins, return_attention=True)
        np.testing.assert_allclose(att.sum(), 1.0, atol=1e-12)
        x = bag.embeddings[None]
        mask = np.ones((1, 5), dtype=bool)
        ref = np.mean([m.forward(x, mask, np.arange(s, e)).attention[0]
                       for s, e in wins.windows], axis=0, dtype=np.float64)
        assert_window_close(att, ref, m.dtype)

    def test_dim_mismatch_rejected(self, rng):
        m = _model(d=8)
        bag = make_bag(rng, 5, 6)
        with pytest.raises(ValidationError):
            ensemble_outputs(m, bag, chunk_windows(6, 4, 2))

    def test_bag_is_never_copied(self, rng):
        # D = 8H: per-window activations are a few (N, H) arrays, an eighth
        # of the bag each; a copy or column gather of the bag would exceed it
        m = GatedAttentionMIL(512, 64, 2)
        m.init_params(rng)
        bag = make_bag(rng, 2000, 512)
        wins = chunk_windows(512, 64, 64)
        ensemble_outputs(m, bag, wins, return_attention=True)  # warm caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ensemble_outputs(m, bag, wins, return_attention=True)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        ratio = peak / bag.embeddings.nbytes
        assert ratio < 0.75, f"ensemble peak is {ratio:.2f}x the bag's bytes"


class TestPredictClassification:
    def test_predicted_class_follows_mean_logits(self):
        # craft per-chunk logits where argmax of mean logits disagrees with
        # argmax of mean probs: one saturated outlier chunk dominates the
        # logit average while two moderate chunks win the probability vote
        wins = chunk_windows(6, 2, 2)
        assert wins.n_chunks == 3

        class Stub(GatedAttentionMIL):
            def forward_windows(self, x, windows):
                logit_rows = {0: np.array([30.0, 0.0]),
                              2: np.array([-1.0, 1.0]),
                              4: np.array([-1.0, 1.0])}
                _, attention = super().forward_windows(x, windows)
                return np.stack([logit_rows[start] for start, _ in windows]), attention

        stub = Stub(6, 2, 2)
        stub.init_params(np.random.default_rng(0))
        bag = make_bag(np.random.default_rng(1), 3, 6)
        pred = predict_classification(stub, bag, wins)
        # mean logits (28/3, 2/3) pick class 0; mean probs (~0.41, ~0.59)
        # would pick class 1; the contract says logits decide
        assert int(np.argmax(pred.mean_probs)) == 1
        assert pred.predicted_class == 0

    def test_probability_rows_are_simplex(self, rng):
        m = _model()
        bag = make_bag(rng, 7, 8)
        pred = predict_classification(m, bag, chunk_windows(8, 4, 2))
        np.testing.assert_allclose(pred.per_chunk_probs.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(pred.mean_probs.sum(), 1.0, atol=1e-12)
        assert abs(pred.h_total - pred.h_aleatoric - pred.mutual_info) <= 1e-12 \
            or pred.mutual_info == 0.0

    def test_logit_shift_invariance_of_class_and_probs(self, rng):
        # float64: a float32 head rounds o + 7 to its own ulp (4.8e-7), which
        # moves the probabilities by about 1e-7 of their value
        m = _model(dtype=np.float64)
        bag = make_bag(rng, 6, 8)
        wins = chunk_windows(8, 4, 2)
        pred = predict_classification(m, bag, wins)
        shifted = _model(dtype=np.float64)
        shifted.params["head_bias"] = m.params["head_bias"] + 7.0
        pred2 = predict_classification(shifted, bag, wins)
        assert pred2.predicted_class == pred.predicted_class
        np.testing.assert_allclose(pred2.mean_probs, pred.mean_probs, atol=1e-12)
        np.testing.assert_allclose(pred2.mean_logits, pred.mean_logits + 7.0, atol=1e-6)

    def test_single_window_collapses_to_zero_mi(self, rng):
        m = _model()
        bag = make_bag(rng, 6, 8)
        pred = predict_classification(m, bag, chunk_windows(8, 8, 2))
        assert pred.mutual_info == 0.0


class TestPredictRegression:
    def test_mean_and_population_std(self, rng):
        m = _model(c=1)
        bag = make_bag(rng, 6, 8)
        pred = predict_regression(m, bag, chunk_windows(8, 4, 2))
        np.testing.assert_allclose(pred.mean_value, pred.per_chunk_values.mean())
        # ddof = 0: the chunks are the whole ensemble, not a sample
        np.testing.assert_allclose(pred.std_value, pred.per_chunk_values.std(ddof=0))

    def test_identical_chunks_give_zero_std(self, rng):
        m = _model(c=1)
        bag = make_bag(rng, 6, 8)
        pred = predict_regression(m, bag, chunk_windows(8, 8, 2))
        assert pred.std_value == 0.0
        assert pred.mean_value == pred.per_chunk_values[0]


class TestLogMeanExp:
    def test_oracle_small_values(self):
        vals = np.array([0.0, math.log(3.0)])
        # log((1 + 3) / 2) = log 2
        assert log_mean_exp(vals) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_constant_vector_is_identity(self):
        assert log_mean_exp(np.array([-3.7, -3.7, -3.7])) == pytest.approx(-3.7, abs=1e-12)

    def test_overflow_safe(self):
        assert log_mean_exp(np.array([1000.0, 1000.0])) == pytest.approx(1000.0)


class TestBaselineSurvival:
    def test_breslow_hand_oracle(self):
        # three subjects, zero risk scores: exp(eta) = 1 everywhere
        # t=1 event: d=1, at-risk=3 -> H=1/3; t=2 event: d=1, at-risk=2 -> H=1/3+1/2
        records = [SurvivalRecord(time=1.0, event=1),
                   SurvivalRecord(time=2.0, event=1),
                   SurvivalRecord(time=3.0, event=0)]
        base = estimate_baseline_survival(np.zeros(3), records)
        np.testing.assert_array_equal(base.event_times, [1.0, 2.0])
        np.testing.assert_allclose(base.survival,
                                   [math.exp(-1 / 3), math.exp(-(1 / 3 + 1 / 2))],
                                   atol=1e-15)

    def test_nonzero_risks_weight_the_denominator(self):
        records = [SurvivalRecord(time=1.0, event=1),
                   SurvivalRecord(time=2.0, event=0)]
        eta = np.array([math.log(2.0), math.log(3.0)])
        base = estimate_baseline_survival(eta, records)
        # at-risk mass at t=1 is 2 + 3 = 5
        np.testing.assert_allclose(base.survival, [math.exp(-1 / 5)], atol=1e-15)

    def test_before_first_event_survival_is_one(self):
        records = [SurvivalRecord(time=5.0, event=1)]
        base = estimate_baseline_survival(np.zeros(1), records)
        assert base.at(0.0)[0] == 1.0
        assert base.at(4.999)[0] == 1.0
        assert base.at(5.0)[0] < 1.0

    def test_step_function_is_right_continuous(self):
        records = [SurvivalRecord(time=1.0, event=1),
                   SurvivalRecord(time=2.0, event=1)]
        base = estimate_baseline_survival(np.zeros(2), records)
        s = base.at([0.5, 1.0, 1.5, 2.0, 99.0])
        assert s[1] == s[2]  # constant between events
        assert s[3] == s[4]  # constant after the last event
        assert s[0] > s[1] > s[3]

    def test_tied_event_times_counted_together(self):
        records = [SurvivalRecord(time=1.0, event=1),
                   SurvivalRecord(time=1.0, event=1),
                   SurvivalRecord(time=2.0, event=0)]
        base = estimate_baseline_survival(np.zeros(3), records)
        np.testing.assert_allclose(base.survival, [math.exp(-2 / 3)], atol=1e-15)

    def test_risks_800_apart_fit_without_warning(self):
        # exp(eta - max eta) underflows to 0 at eta = -800; the log-space
        # at-risk sums keep log R(2) = -800, so log H_0(2) = log(1 + e^800)
        records = [SurvivalRecord(time=1.0, event=1),
                   SurvivalRecord(time=2.0, event=1)]
        base = estimate_baseline_survival(np.array([0.0, -800.0]), records)
        np.testing.assert_allclose(base.log_cum_hazard, [0.0, 800.0], rtol=1e-15)
        assert base.at(2.0, -800.0)[0] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_no_events_rejected(self):
        with pytest.raises(ValidationError):
            estimate_baseline_survival(np.zeros(2),
                                       [SurvivalRecord(time=1.0, event=0),
                                        SurvivalRecord(time=2.0, event=0)])

    def test_median_event_time(self):
        records = [SurvivalRecord(time=t, event=e)
                   for t, e in [(1.0, 1), (9.0, 0), (3.0, 1), (2.0, 1)]]
        assert median_event_time(records) == 2.0
        with pytest.raises(ValidationError):
            median_event_time([SurvivalRecord(time=1.0, event=0)])


class TestPredictSurvival:
    def _setup(self, rng):
        m = _model(c=1)
        bag = make_bag(rng, 6, 8)
        records = [SurvivalRecord(time=float(t), event=1) for t in (1.0, 2.0, 3.0)]
        base = estimate_baseline_survival(np.zeros(3), records)
        return m, bag, base

    def test_risk_is_log_mean_exp_of_chunks(self, rng):
        m, bag, base = self._setup(rng)
        pred = predict_survival(m, bag, chunk_windows(8, 4, 2), base, [1.5])
        assert pred.risk == pytest.approx(log_mean_exp(pred.per_chunk_risk), abs=1e-12)
        assert pred.mean_risk == pytest.approx(pred.per_chunk_risk.mean())
        assert pred.var_risk == pytest.approx(pred.per_chunk_risk.var(ddof=0))

    def test_survival_curves_pin_to_baseline_power(self, rng):
        m, bag, base = self._setup(rng)
        times = [0.5, 1.5, 2.5]
        pred = predict_survival(m, bag, chunk_windows(8, 4, 2), base, times)
        s0 = base.at(times)
        for k, eta in enumerate(pred.per_chunk_risk):
            np.testing.assert_allclose(pred.per_chunk_survival[k],
                                       s0 ** math.exp(eta), atol=1e-15)
        np.testing.assert_allclose(pred.mean_survival,
                                   pred.per_chunk_survival.mean(axis=0), atol=1e-15)
        np.testing.assert_allclose(pred.unc_survival,
                                   pred.per_chunk_survival.std(axis=0), atol=1e-15)

    def test_probabilities_stay_in_unit_interval(self, rng):
        m, bag, base = self._setup(rng)
        pred = predict_survival(m, bag, chunk_windows(8, 4, 2), base,
                                [0.0, 1.0, 2.0, 3.0, 10.0])
        assert (pred.mean_survival >= 0).all() and (pred.mean_survival <= 1).all()


class TestRiskShift:
    """A Cox model fixes its risks only up to one added constant: adding it to
    every train risk and to the slide's risks (through the head bias) must
    leave the survival curves where they are, however large it is."""

    TIMES = [0.5, 1.0, 2.5, 3.0, 4.0, 9.0]  # before, at, between and after the events

    @classmethod
    def _predict(cls, shift):
        m = _model(c=1, dtype=np.float64)
        m.params["head_bias"] = m.params["head_bias"] + shift
        records = [SurvivalRecord(time=t, event=e) for t, e in
                   [(1.0, 1), (1.0, 1), (2.0, 0), (3.0, 1), (3.0, 0), (4.0, 1), (5.0, 0)]]
        train_risks = np.random.default_rng(3).normal(0.0, 1.0, len(records)) + shift
        base = estimate_baseline_survival(train_risks, records)
        bag = make_bag(np.random.default_rng(4), 6, 8)
        return predict_survival(m, bag, chunk_windows(8, 4, 2), base, cls.TIMES)

    @pytest.mark.parametrize("shift", [-700.0, 700.0])
    def test_curves_do_not_move(self, shift):
        ref, moved = self._predict(0.0), self._predict(shift)
        assert ((ref.per_chunk_survival > 0.05) & (ref.per_chunk_survival < 0.95)).any()
        for name in ("per_chunk_survival", "mean_survival", "unc_survival"):
            np.testing.assert_allclose(getattr(moved, name), getattr(ref, name),
                                       rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("shift", [-800.0, 800.0])
    def test_no_warning_past_exp_overflow(self, shift):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pred = self._predict(shift)
        assert np.isfinite(pred.per_chunk_survival).all()
        assert (pred.per_chunk_survival[:, 0] == 1.0).all()  # before the first event


class TestPredictionAttention:
    @pytest.mark.parametrize("task", ["classification", "regression", "survival"])
    def test_every_prediction_carries_the_mean_attention(self, rng, task):
        m = _model(c=3 if task == "classification" else 1)
        bag = make_bag(rng, 6, 8)
        wins = chunk_windows(8, 4, 2)
        if task == "classification":
            pred = predict_classification(m, bag, wins)
        elif task == "regression":
            pred = predict_regression(m, bag, wins)
        else:
            base = estimate_baseline_survival(np.zeros(1), [SurvivalRecord(time=1.0, event=1)])
            pred = predict_survival(m, bag, wins, base, [1.0])
        _, attention = m.forward_windows(bag.embeddings, wins.windows)
        assert np.array_equal(pred.attention, attention.mean(axis=0, dtype=np.float64))
        np.testing.assert_allclose(pred.attention.sum(), 1.0, atol=1e-12)


class TestPatientAggregation:
    def test_uncertainty_shrinks_by_sqrt_n(self):
        assert adjust_patient_uncertainty(1.0, 4) == 0.5
        assert adjust_patient_uncertainty(0.3, 1) == 0.3
        with pytest.raises(ValidationError):
            adjust_patient_uncertainty(1.0, 0)

    def test_classification_aggregate(self, rng):
        m = _model()
        wins = chunk_windows(8, 4, 2)
        preds = [predict_classification(m, make_bag(rng, 6, 8, f"s{i}"), wins)
                 for i in range(3)]
        agg = aggregate_patient(preds)
        assert agg["n_wsi"] == 3
        np.testing.assert_allclose(agg["mean_logits"],
                                   np.mean([p.mean_logits for p in preds], axis=0))
        np.testing.assert_allclose(agg["mean_probs"],
                                   np.mean([p.mean_probs for p in preds], axis=0))
        assert agg["predicted_class"] == int(np.argmax(agg["mean_logits"]))
        assert agg["mutual_info"] >= 0.0

    def test_regression_aggregate(self, rng):
        m = _model(c=1)
        wins = chunk_windows(8, 4, 2)
        preds = [predict_regression(m, make_bag(rng, 6, 8, f"s{i}"), wins)
                 for i in range(4)]
        agg = aggregate_patient(preds)
        expected_unc = np.mean([p.std_value for p in preds]) / 2.0
        assert agg["uncertainty"] == pytest.approx(expected_unc, abs=1e-15)

    def test_survival_aggregate(self, rng):
        m = _model(c=1)
        records = [SurvivalRecord(time=float(t), event=1) for t in (1.0, 2.0)]
        base = estimate_baseline_survival(np.zeros(2), records)
        wins = chunk_windows(8, 4, 2)
        preds = [predict_survival(m, make_bag(rng, 6, 8, f"s{i}"), wins, base, [1.5])
                 for i in range(4)]
        agg = aggregate_patient(preds)
        assert agg["risk"] == pytest.approx(np.mean([p.risk for p in preds]))
        expected = np.mean([p.unc_survival[0] for p in preds]) / 2.0
        assert agg["unc_survival"][0] == pytest.approx(expected, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_patient([])


class TestJsonRecords:
    def test_classification_schema(self, rng):
        m = _model()
        pred = predict_classification(m, make_bag(rng, 5, 8), chunk_windows(8, 4, 2))
        doc = prediction_to_json(pred)
        assert doc.keys() == {"slide_id", "task", "mean_logits", "mean_probs",
                              "per_chunk_probs", "predicted_class", "h_total",
                              "h_aleatoric", "mutual_info"}
        assert doc["task"] == "classification"
        import json
        json.dumps(doc)  # every value must be JSON-serializable

    def test_regression_schema(self, rng):
        m = _model(c=1)
        pred = predict_regression(m, make_bag(rng, 5, 8), chunk_windows(8, 4, 2))
        doc = prediction_to_json(pred)
        assert doc.keys() == {"slide_id", "task", "mean_value", "std_value",
                              "per_chunk_values"}

    def test_survival_schema(self, rng):
        m = _model(c=1)
        records = [SurvivalRecord(time=1.0, event=1)]
        base = estimate_baseline_survival(np.zeros(1), records)
        pred = predict_survival(m, make_bag(rng, 5, 8), chunk_windows(8, 4, 2),
                                base, [1.0])
        doc = prediction_to_json(pred)
        assert doc.keys() == {"slide_id", "task", "risk", "mean_risk", "var_risk",
                              "per_chunk_risk", "eval_times", "mean_survival",
                              "unc_survival"}

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            prediction_to_json({"not": "a prediction"})
