"""Seeded synthetic corpus generator: determinism, planted structure, targets."""

import numpy as np
import pytest

from slidemil.dataio import SurvivalRecord, load_bags, load_manifest
from slidemil.errors import ValidationError
from slidemil.metrics import auc
from slidemil.synthetic import SyntheticSpec, generate_synthetic_dataset, write_synthetic_dataset


def _cls_spec(**kw):
    base = dict(task="classification", n_bags=60, patches_per_bag_range=(6, 15),
                embed_dim=12, signal_fraction=0.2, signal_strength=2.0,
                positive_rate=0.5, seed=7)
    base.update(kw)
    return SyntheticSpec(**base)


class TestDeterminism:
    def test_same_spec_same_bytes(self):
        m1, bags1, sig1 = generate_synthetic_dataset(_cls_spec())
        m2, bags2, sig2 = generate_synthetic_dataset(_cls_spec())
        assert [e.slide_id for e in m1.entries] == [e.slide_id for e in m2.entries]
        assert [e.label for e in m1.entries] == [e.label for e in m2.entries]
        assert [e.split for e in m1.entries] == [e.split for e in m2.entries]
        for sid in bags1:
            assert np.array_equal(bags1[sid].embeddings.view(np.uint32),
                                  bags2[sid].embeddings.view(np.uint32))
        assert sig1 == sig2

    def test_different_seed_differs(self):
        _, bags1, _ = generate_synthetic_dataset(_cls_spec(seed=7))
        _, bags2, _ = generate_synthetic_dataset(_cls_spec(seed=8))
        sid = sorted(bags1)[0]
        assert not np.array_equal(bags1[sid].embeddings, bags2[sid].embeddings)


class TestClassificationStructure:
    def test_exact_positive_count(self):
        spec = _cls_spec(n_bags=100, positive_rate=0.5, seed=7)
        manifest, _, _ = generate_synthetic_dataset(spec)
        labels = [e.label for e in manifest.entries]
        assert sum(labels) == 50

    def test_planted_only_in_positive_bags(self):
        spec = _cls_spec()
        manifest, bags, signal = generate_synthetic_dataset(spec)
        label_of = {e.slide_id: e.label for e in manifest.entries}
        for sid, idx in signal.items():
            n = bags[sid].n_patches
            if label_of[sid] == 1:
                # count is round-half-up of fraction * N
                expected = int(np.floor(spec.signal_fraction * n + 0.5))
                assert len(idx) == expected
                assert all(0 <= j < n for j in idx)
                assert len(set(idx)) == len(idx)
            else:
                assert idx == []

    def test_planted_mean_shift_direction(self):
        # planted patches in positive bags sit strength away from the rest,
        # along a single shared direction
        spec = _cls_spec(n_bags=200, embed_dim=16, signal_strength=4.0,
                         signal_fraction=0.4, patches_per_bag_range=(20, 40), seed=3)
        manifest, bags, signal = generate_synthetic_dataset(spec)
        label_of = {e.slide_id: e.label for e in manifest.entries}
        diffs = []
        for sid, idx in signal.items():
            if label_of[sid] != 1 or not idx:
                continue
            x = bags[sid].embeddings.astype(np.float64)
            rest = np.setdiff1d(np.arange(len(x)), idx)
            diffs.append(x[idx].mean(axis=0) - x[rest].mean(axis=0))
        mean_diff = np.mean(diffs, axis=0)
        assert abs(np.linalg.norm(mean_diff) - spec.signal_strength) < 0.25
        # all per-bag differences align with the common direction
        unit = mean_diff / np.linalg.norm(mean_diff)
        cosines = [d @ unit / np.linalg.norm(d) for d in diffs]
        assert np.mean(cosines) > 0.8

    def test_patch_counts_within_range(self):
        spec = _cls_spec()
        _, bags, _ = generate_synthetic_dataset(spec)
        lo, hi = spec.patches_per_bag_range
        for bag in bags.values():
            assert lo <= bag.n_patches <= hi

    def test_split_sizes(self):
        # every corpus splits 60/20/20
        spec = _cls_spec(n_bags=100)
        manifest, _, _ = generate_synthetic_dataset(spec)
        counts = {s: sum(e.split == s for e in manifest.entries)
                  for s in ("train", "val", "test")}
        assert counts["train"] == 60 and counts["val"] == 20 and counts["test"] == 20

    def test_splits_stratified_by_label(self):
        spec = _cls_spec(n_bags=100, positive_rate=0.3, seed=11)
        manifest, _, _ = generate_synthetic_dataset(spec)
        for split in ("train", "val", "test"):
            entries = manifest.split_entries(split)
            rate = np.mean([e.label for e in entries])
            assert abs(rate - 0.3) < 0.06, f"{split} prevalence drifted to {rate}"

    def test_zero_signal_gives_chance_level_oracle(self):
        # with signal_strength 0 there is nothing to find: the best linear
        # read-out of the bag means scores at chance on held-out bags
        spec = _cls_spec(n_bags=300, embed_dim=8, signal_strength=1e-12, seed=5)
        manifest, bags, _ = generate_synthetic_dataset(spec)
        train = manifest.split_entries("train")
        test = manifest.split_entries("test")
        xtr = np.stack([bags[e.slide_id].embeddings.mean(0) for e in train])
        ytr = np.array([e.label for e in train])
        direction = xtr[ytr == 1].mean(0) - xtr[ytr == 0].mean(0)
        xte = np.stack([bags[e.slide_id].embeddings.mean(0) for e in test])
        yte = np.array([e.label for e in test])
        value = auc(yte, xte @ direction)
        # null AUC band for 30/30 held-out bags, ~3 sigma
        assert abs(value - 0.5) < 0.25


class TestRegressionStructure:
    def test_target_equals_projected_bag_mean(self):
        spec = SyntheticSpec(task="regression", n_bags=40, patches_per_bag_range=(5, 10),
                             embed_dim=6, signal_strength=1.5, seed=9)
        manifest, bags, _ = generate_synthetic_dataset(spec)
        # default coefficient vector: strength times the hidden unit direction;
        # recover it by least squares and check exact reproduction
        x = np.stack([bags[e.slide_id].embeddings.astype(np.float64).mean(0)
                      for e in manifest.entries])
        y = np.array([e.label for e in manifest.entries])
        coef, *_ = np.linalg.lstsq(x, y, rcond=None)
        assert np.allclose(x @ coef, y, atol=1e-4)
        assert abs(np.linalg.norm(coef) - 1.5) < 0.05


class TestSurvivalStructure:
    def test_censoring_rate_near_target(self):
        spec = SyntheticSpec(task="survival", n_bags=600, patches_per_bag_range=(5, 10),
                             embed_dim=8, signal_strength=1.0, censoring_rate=0.3, seed=4)
        manifest, _, _ = generate_synthetic_dataset(spec)
        events = np.array([e.label.event for e in manifest.entries])
        censored = 1.0 - events.mean()
        assert abs(censored - 0.3) < 0.06

    def test_zero_censoring_all_events(self):
        spec = SyntheticSpec(task="survival", n_bags=50, patches_per_bag_range=(5, 10),
                             embed_dim=8, censoring_rate=0.0, seed=4)
        manifest, _, _ = generate_synthetic_dataset(spec)
        assert all(e.label.event == 1 for e in manifest.entries)

    def test_times_positive(self):
        spec = SyntheticSpec(task="survival", n_bags=80, patches_per_bag_range=(5, 10),
                             embed_dim=8, censoring_rate=0.3, seed=4)
        manifest, _, _ = generate_synthetic_dataset(spec)
        assert all(e.label.time > 0 for e in manifest.entries)
        assert all(isinstance(e.label, SurvivalRecord) for e in manifest.entries)

    def test_higher_risk_shorter_time(self):
        # projected bag mean is the log-hazard: rank correlation with observed
        # event times must be strongly negative
        spec = SyntheticSpec(task="survival", n_bags=400, patches_per_bag_range=(5, 10),
                             embed_dim=8, signal_strength=2.0, censoring_rate=0.0, seed=6)
        manifest, bags, _ = generate_synthetic_dataset(spec)
        x = np.stack([bags[e.slide_id].embeddings.astype(np.float64).mean(0)
                      for e in manifest.entries])
        t = np.array([e.label.time for e in manifest.entries])
        # recover the hazard direction from log-times by least squares
        coef, *_ = np.linalg.lstsq(x, -np.log(t), rcond=None)
        risk = x @ coef
        order = np.argsort(risk)
        lo, hi = t[order[:100]], t[order[-100:]]
        assert np.median(hi) < np.median(lo)


class TestSpecValidation:
    def test_fraction_range(self):
        with pytest.raises(ValidationError):
            _cls_spec(signal_fraction=0.0)
        with pytest.raises(ValidationError):
            _cls_spec(signal_fraction=1.2)
        _cls_spec(signal_fraction=1.0)  # inclusive upper edge is allowed

    def test_patch_range_ordering(self):
        with pytest.raises(ValidationError):
            _cls_spec(patches_per_bag_range=(10, 5))

    def test_censoring_range(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(task="survival", n_bags=10, patches_per_bag_range=(4, 6),
                          embed_dim=4, censoring_rate=1.0)

    def test_negative_seed(self):
        # numpy seeds generators with non-negative integers only
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            _cls_spec(seed=-1)


class TestDiskOutput:
    def test_write_then_load_matches_generate(self, tmp_path):
        spec = _cls_spec(n_bags=20)
        manifest = write_synthetic_dataset(spec, tmp_path)
        back = load_manifest(tmp_path / "manifest.json")
        assert [e.slide_id for e in back.entries] == [e.slide_id for e in manifest.entries]
        bags_disk = load_bags(back, tmp_path)
        _, bags_mem, _ = generate_synthetic_dataset(spec)
        for sid in bags_mem:
            assert np.array_equal(bags_disk[sid].embeddings, bags_mem[sid].embeddings)
