"""Patch subsampling, feature-subspace draws, and the task-aware batch samplers."""

import math
from itertools import combinations

import numpy as np
import pytest

from slidemil.dataio import SurvivalRecord
from slidemil.errors import ValidationError
from slidemil.sampling import (
    balanced_batches,
    full_feature_indices,
    plain_batches,
    regression_batches,
    sample_feature_indices,
    sample_patches,
    survival_batches,
)

from conftest import make_bag


class TestSamplePatches:
    def test_subsample_without_replacement(self, rng):
        bag = make_bag(rng, 100, 4)
        fixed = sample_patches(bag, 50, rng)
        assert fixed.embeddings.shape == (50, 4)
        assert fixed.valid_mask.all()
        # every row is one of the originals, no duplicates
        matches = (fixed.embeddings[:, None, :] == bag.embeddings[None, :, :]).all(-1)
        row_of = matches.argmax(1)
        assert matches[np.arange(50), row_of].all()
        assert len(set(row_of.tolist())) == 50

    def test_subsample_preserves_original_order(self, rng):
        # rows are gathered ascending by original index, so the first column of
        # a bag holding its own indices comes out sorted
        bag = make_bag(rng, 30, 3)
        bag.embeddings[:, 0] = np.arange(30, dtype=np.float32)
        fixed = sample_patches(bag, 10, rng)
        assert (np.diff(fixed.embeddings[:, 0]) > 0).all()

    def test_small_bag_zero_padded(self, rng):
        bag = make_bag(rng, 30, 4)
        fixed = sample_patches(bag, 50, rng)
        assert fixed.valid_mask[:30].all()
        assert not fixed.valid_mask[30:].any()
        assert np.array_equal(fixed.embeddings[:30], bag.embeddings)
        assert (fixed.embeddings[30:] == 0).all()

    def test_exact_size_identity_without_rng(self, rng):
        bag = make_bag(rng, 16, 4)
        state_before = rng.bit_generator.state
        fixed = sample_patches(bag, 16, rng)
        assert np.array_equal(fixed.embeddings, bag.embeddings)
        assert fixed.valid_mask.all()
        # the degenerate path must not consume randomness
        assert rng.bit_generator.state == state_before

    @pytest.mark.parametrize("n_patches", [5, 16, 40])
    def test_out_buffer_matches_a_fresh_sample(self, n_patches):
        # a NaN-filled buffer shows any row sample_patches leaves unwritten
        bag = make_bag(np.random.default_rng(1), n_patches, 4)
        fresh_rng, out_rng = np.random.default_rng(5), np.random.default_rng(5)
        fresh = sample_patches(bag, 16, fresh_rng)
        buf = np.full((16, 4), np.nan, dtype=np.float32)
        into = sample_patches(bag, 16, out_rng, out=buf)
        assert into.embeddings is buf
        assert np.array_equal(into.embeddings, fresh.embeddings)
        assert np.array_equal(into.valid_mask, fresh.valid_mask)
        assert (buf[~into.valid_mask] == 0).all()
        assert out_rng.bit_generator.state == fresh_rng.bit_generator.state

    @pytest.mark.parametrize("shape,dtype", [((15, 4), np.float32), ((16, 3), np.float32),
                                             ((16, 4), np.float64)])
    def test_out_buffer_of_wrong_shape_or_dtype_rejected(self, rng, shape, dtype):
        with pytest.raises(ValidationError):
            sample_patches(make_bag(rng, 30, 4), 16, rng, out=np.zeros(shape, dtype=dtype))


class TestFeatureIndices:
    def test_sorted_distinct_in_range(self, rng):
        for _ in range(50):
            fs = sample_feature_indices(32, 8, rng)
            idx = fs.indices
            assert len(idx) == 8
            assert (np.diff(idx) > 0).all()
            assert idx[0] >= 0 and idx[-1] < 32

    def test_full_when_h_equals_d(self, rng):
        assert np.array_equal(sample_feature_indices(8, 8, rng).indices, np.arange(8))
        assert np.array_equal(full_feature_indices(8).indices, np.arange(8))

    def test_h_larger_than_d_rejected(self, rng):
        with pytest.raises(ValidationError):
            sample_feature_indices(4, 5, rng)

    def test_all_subsets_reachable(self):
        # D=4, H=2: all 6 subsets occur over many draws
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(500):
            seen.add(tuple(sample_feature_indices(4, 2, rng).indices.tolist()))
        assert seen == {tuple(c) for c in combinations(range(4), 2)}


def _batch_class_counts(batch, labels):
    values, counts = np.unique(labels[batch], return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


class TestBalancedBatches:
    def test_two_class_even_split(self, rng):
        labels = np.array([0] * 40 + [1] * 24)
        plan = balanced_batches(labels, 32, rng)
        for batch in plan.batches:
            counts = _batch_class_counts(batch, labels)
            assert counts == {0: 16, 1: 16}

    def test_three_class_quota_with_remainder(self, rng):
        labels = np.repeat([0, 1, 2], 30)
        plan = balanced_batches(labels, 32, rng)
        for batch in plan.batches:
            counts = sorted(_batch_class_counts(batch, labels).values())
            assert counts == [10, 11, 11]

    def test_epoch_length_is_ceil(self, rng):
        labels = np.array([0, 1] * 35)  # n = 70
        plan = balanced_batches(labels, 32, rng)
        assert plan.epoch_length == math.ceil(70 / 32) == 3
        assert len(plan.batches) == 3

    def test_single_class_degenerate(self, rng):
        labels = np.zeros(10, dtype=int)
        plan = balanced_batches(labels, 4, rng)
        for batch in plan.batches:
            assert len(batch) == 4
            assert (labels[batch] == 0).all()

    def test_minority_resampled_with_replacement(self, rng):
        # 3 positives cannot fill 16-per-batch quotas without replacement
        labels = np.array([0] * 61 + [1] * 3)
        plan = balanced_batches(labels, 32, rng)
        pos_pool = set(range(61, 64))
        for batch in plan.batches:
            counts = _batch_class_counts(batch, labels)
            assert counts.get(1, 0) == 16
            assert set(b for b in batch if b >= 61) <= pos_pool

    def test_majority_not_resampled_until_exhausted(self, rng):
        labels = np.array([0] * 64 + [1] * 4)
        plan = balanced_batches(labels, 32, rng)
        seen_majorities = [b for batch in plan.batches for b in batch if labels[b] == 0]
        # epoch needs ceil(68/32) * 16 = 48 majority slots from a pool of 64:
        # all distinct when the pool suffices
        assert len(seen_majorities) == len(set(seen_majorities))

    def test_batch_too_small_for_classes_rejected(self, rng):
        with pytest.raises(ValidationError):
            balanced_batches(np.arange(5), 4, rng)

    def test_spread_at_most_one_over_many_epochs(self):
        rng = np.random.default_rng(123)
        labels = np.array([0] * 50 + [1] * 9 + [2] * 3)
        for _ in range(100):
            plan = balanced_batches(labels, 16, rng)
            for batch in plan.batches:
                counts = _batch_class_counts(batch, labels)
                values = [counts.get(c, 0) for c in (0, 1, 2)]
                assert max(values) - min(values) <= 1

    def test_identical_seed_identical_plan(self):
        labels = np.array([0, 1, 2] * 20)
        p1 = balanced_batches(labels, 9, np.random.default_rng(5))
        p2 = balanced_batches(labels, 9, np.random.default_rng(5))
        assert p1.batches == p2.batches
        assert p1.epoch_length == p2.epoch_length


class TestRegressionBatches:
    def test_uniform_targets_equal_bin_quota(self, rng):
        targets = np.linspace(0.0, 1.0, 100)
        plan = regression_batches(targets, 30, rng, n_bins=10)
        edges = np.quantile(targets, np.linspace(0, 1, 11))
        for batch in plan.batches:
            assert len(batch) == 30
            bins = np.searchsorted(edges[1:-1], targets[batch], side="right")
            _, counts = np.unique(bins, return_counts=True)
            assert (counts == 3).all(), "each decile contributes floor(30/10) = 3"

    def test_default_bin_count_clamps_to_n(self, rng):
        targets = np.arange(4.0)
        plan = regression_batches(targets, 4, rng)  # min(10, n) = 4 bins
        for batch in plan.batches:
            assert sorted(targets[batch].tolist()) == [0.0, 1.0, 2.0, 3.0]

    def test_constant_targets_degenerate_to_plain(self, rng):
        targets = np.full(20, 3.3)
        plan = regression_batches(targets, 8, rng)
        assert plan.epoch_length == math.ceil(20 / 8)
        seen = sorted(b for batch in plan.batches[:2] for b in batch)
        assert len(set(seen)) == len(seen), "plain batching does not resample"

    def test_single_bin_degenerate_to_plain(self, rng):
        targets = np.linspace(0, 1, 12)
        plan = regression_batches(targets, 4, rng, n_bins=1)
        seen = sorted(b for batch in plan.batches for b in batch)
        assert seen == list(range(12))

    def test_nonfinite_rejected(self, rng):
        with pytest.raises(ValidationError):
            regression_batches(np.array([0.0, np.nan]), 2, rng)

    def test_identical_seed_identical_plan(self):
        targets = np.sin(np.arange(50.0))
        p1 = regression_batches(targets, 10, np.random.default_rng(3))
        p2 = regression_batches(targets, 10, np.random.default_rng(3))
        assert p1.batches == p2.batches


def _records(times, events):
    return [SurvivalRecord(time=float(t), event=int(e)) for t, e in zip(times, events)]


class TestSurvivalBatches:
    def test_half_event_rate_even_quota(self, rng):
        recs = _records(np.arange(1, 65), [1, 0] * 32)
        plan = survival_batches(recs, 32, rng)
        events = np.array([r.event for r in recs])
        for batch in plan.batches:
            assert events[batch].sum() == 16

    def test_rare_events_clamp_to_one(self, rng):
        # event rate 1/64 rounds to 0; the clamp guarantees one per batch
        recs = _records(np.arange(1, 65), [1] + [0] * 63)
        plan = survival_batches(recs, 32, rng)
        events = np.array([r.event for r in recs])
        for batch in plan.batches:
            assert events[batch].sum() == 1

    def test_every_batch_has_an_event_100_epochs(self):
        rng = np.random.default_rng(77)
        recs = _records(rng.exponential(1, 50) + 0.01, rng.random(50) < 0.15)
        if not any(r.event for r in recs):
            recs[0] = SurvivalRecord(time=recs[0].time, event=1)
        events = np.array([r.event for r in recs])
        for _ in range(100):
            plan = survival_batches(recs, 16, rng)
            for batch in plan.batches:
                assert events[batch].sum() >= 1

    def test_all_events_all_event_batches(self, rng):
        recs = _records(np.arange(1, 21), [1] * 20)
        plan = survival_batches(recs, 8, rng)
        for batch in plan.batches:
            assert len(batch) == 8

    def test_zero_events_rejected(self, rng):
        with pytest.raises(ValidationError):
            survival_batches(_records([1, 2, 3], [0, 0, 0]), 2, rng)

    def test_temporal_mixing(self):
        # every batch spans the time range rather than clustering one tercile
        rng = np.random.default_rng(9)
        times = np.linspace(1, 300, 90)
        recs = _records(times, [1] * 90)
        plan = survival_batches(recs, 30, rng)
        terciles = np.quantile(times, [1 / 3, 2 / 3])
        for batch in plan.batches:
            t = times[batch]
            groups = {int(np.searchsorted(terciles, v, side="right")) for v in t}
            assert groups == {0, 1, 2}, "each batch draws from all time terciles"

    def test_identical_seed_identical_plan(self):
        recs = _records(np.arange(1, 41), [1, 0] * 20)
        p1 = survival_batches(recs, 10, np.random.default_rng(4))
        p2 = survival_batches(recs, 10, np.random.default_rng(4))
        assert p1.batches == p2.batches


class TestPlainBatches:
    def test_partition_covers_everything(self, rng):
        plan = plain_batches(23, 5, rng)
        assert plan.epoch_length == math.ceil(23 / 5)
        flat = sorted(b for batch in plan.batches for b in batch)
        assert flat == list(range(23))

    def test_batch_size_one(self, rng):
        plan = plain_batches(7, 1, rng)
        assert [len(b) for b in plan.batches] == [1] * 7
