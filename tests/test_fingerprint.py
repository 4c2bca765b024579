"""Dataset fingerprint statistics and the rule-based config derivation."""

import dataclasses
import json

import numpy as np
import pytest

from slidemil.dataio import DatasetManifest, ManifestEntry, SlideBag, SurvivalRecord
from slidemil.errors import ValidationError
from slidemil.fingerprint import (
    DataFingerprint,
    RunConfig,
    compute_fingerprint,
    derive_config,
)
from slidemil.inference import inference_windows

from conftest import make_bag


def _manifest_with_counts(rng, counts, embed_dim=8, split="train"):
    entries, bags = [], {}
    for i, n in enumerate(counts):
        sid = f"s{i}"
        bags[sid] = make_bag(rng, n, embed_dim, sid)
        entries.append(ManifestEntry(slide_id=sid, patient_id=sid,
                                     embedding_path=f"{sid}.emb",
                                     split=split, label=i % 2))
    return DatasetManifest(entries=entries, task="classification"), bags


def _fp(median, d, task="classification", **kw):
    base = dict(patch_count_median=float(median), patch_count_iqr=0.0,
                patch_count_p5=float(median), patch_count_p95=float(median),
                embed_dim=d, n_train=10, n_val=5, n_test=5, task=task)
    if task == "classification":
        base["class_prevalence"] = [0.5, 0.5]
    elif task == "survival":
        base["event_rate"] = 0.5
        base["time_horizon_max"] = 10.0
    else:
        base["target_min"], base["target_max"] = 0.0, 1.0
    base.update(kw)
    return DataFingerprint(**base)


class TestFingerprintStatistics:
    def test_percentiles_linear_interpolation(self, rng):
        # order statistics 10, 20, 30 interpolate to p5 = 11 and p95 = 29
        manifest, bags = _manifest_with_counts(rng, [10, 20, 30])
        fp = compute_fingerprint(manifest, bags)
        assert fp.patch_count_median == 20.0
        assert fp.patch_count_p5 == pytest.approx(11.0)
        assert fp.patch_count_p95 == pytest.approx(29.0)

    def test_single_slide_degenerate(self, rng):
        manifest, bags = _manifest_with_counts(rng, [42])
        fp = compute_fingerprint(manifest, bags)
        assert fp.patch_count_median == fp.patch_count_p5 == fp.patch_count_p95 == 42.0

    def test_statistics_use_train_split_only(self, rng):
        m_train, bags = _manifest_with_counts(rng, [10, 20, 30])
        extra = make_bag(rng, 500, 8, "huge")
        entries = list(m_train.entries) + [
            ManifestEntry(slide_id="huge", patient_id="huge", embedding_path="huge.emb",
                          split="test", label=0)]
        manifest = DatasetManifest(entries=entries, task="classification")
        bags = dict(bags, huge=extra)
        fp = compute_fingerprint(manifest, bags)
        assert fp.patch_count_median == 20.0
        assert fp.n_test == 1

    def test_class_prevalence(self, rng):
        manifest, bags = _manifest_with_counts(rng, [5, 5, 5, 5])
        fp = compute_fingerprint(manifest, bags)
        assert fp.class_prevalence == pytest.approx([0.5, 0.5])
        assert sum(fp.class_prevalence) == pytest.approx(1.0, abs=1e-9)

    def test_survival_event_rate_and_horizon(self, rng):
        entries, bags = [], {}
        for i, (t, ev) in enumerate([(1.0, 1), (2.0, 0), (5.0, 1), (3.0, 0)]):
            sid = f"s{i}"
            bags[sid] = make_bag(rng, 6, 8, sid)
            entries.append(ManifestEntry(slide_id=sid, patient_id=sid,
                                         embedding_path=f"{sid}.emb", split="train",
                                         label=SurvivalRecord(time=t, event=ev)))
        manifest = DatasetManifest(entries=entries, task="survival")
        fp = compute_fingerprint(manifest, bags)
        assert fp.event_rate == pytest.approx(0.5)
        assert fp.time_horizon_max == pytest.approx(5.0)

    def test_empty_train_split_rejected(self, rng):
        manifest, bags = _manifest_with_counts(rng, [5, 6], split="val")
        with pytest.raises(ValidationError):
            compute_fingerprint(manifest, bags)

    def test_percentile_ordering_invariant(self, rng):
        for seed in range(10):
            r = np.random.default_rng(seed)
            counts = r.integers(3, 200, size=r.integers(2, 30)).tolist()
            manifest, bags = _manifest_with_counts(r, counts)
            fp = compute_fingerprint(manifest, bags)
            assert fp.patch_count_p5 <= fp.patch_count_median <= fp.patch_count_p95


class TestDeriveConfig:
    def test_reference_rule_table(self):
        cfg = derive_config(_fp(1000, 1024))
        assert cfg.bag_size == 500
        assert cfg.hidden_dim == 256
        assert cfg.stride == 64
        assert inference_windows(cfg, 1024).n_chunks == 13
        assert cfg.batch_size == 32
        assert cfg.dropout == 0.25
        assert cfg.learning_rate == 3e-4
        assert cfg.weight_decay == 1e-4
        assert cfg.warmup_epochs == 5
        assert cfg.max_epochs == 100
        assert cfg.patience == 10
        assert cfg.seed == 42
        assert cfg.training_mode == "nnmil"

    def test_small_embed_dim_clamps(self):
        cfg = derive_config(_fp(100, 128))
        assert cfg.hidden_dim == 128
        assert cfg.stride == 32
        assert inference_windows(cfg, 128).n_chunks == 1

    def test_virchow_dims(self):
        assert inference_windows(derive_config(_fp(1000, 2560)), 2560).n_chunks == 37

    def test_bag_size_rounds_half_up(self):
        assert derive_config(_fp(141, 64)).bag_size == 71  # 70.5 rounds up
        assert derive_config(_fp(140, 64)).bag_size == 70
        assert derive_config(_fp(1, 64)).bag_size == 1  # max(1, round(0.5))

    def test_tiny_hidden_dim_keeps_stride_positive(self):
        cfg = derive_config(_fp(10, 2))
        assert cfg.hidden_dim == 2
        assert cfg.stride == 1  # max(1, 2 // 4)

    def test_survival_learning_rate(self):
        assert derive_config(_fp(100, 64, task="survival")).learning_rate == 1e-4
        assert derive_config(_fp(100, 64, task="regression")).learning_rate == 3e-4

    def test_override_wins_and_is_recorded(self):
        cfg = derive_config(_fp(1000, 1024), overrides={"learning_rate": 1e-3})
        assert cfg.learning_rate == 1e-3
        assert cfg.overrides == {"learning_rate": 1e-3}

    def test_hidden_dim_override_rederives_stride(self):
        cfg = derive_config(_fp(1000, 1024), overrides={"hidden_dim": 128})
        assert cfg.hidden_dim == 128
        assert cfg.stride == 32
        assert inference_windows(cfg, 1024).n_chunks == 29  # (1024 - 128) / 32 + 1

    def test_stride_override_beats_rederivation(self):
        cfg = derive_config(_fp(1000, 1024), overrides={"hidden_dim": 128, "stride": 16})
        assert cfg.stride == 16
        assert inference_windows(cfg, 1024).n_chunks == 57  # (1024 - 128) / 16 + 1

    def test_unknown_override_rejected(self):
        with pytest.raises(ValidationError):
            derive_config(_fp(1000, 1024), overrides={"momentum": 0.9})

    def test_task_argument_must_match_fingerprint(self):
        with pytest.raises(ValidationError):
            derive_config(_fp(100, 64, task="survival"), task="classification")


class TestConfigSerialization:
    def test_json_roundtrip_identity(self, tmp_path):
        cfg = derive_config(_fp(1000, 1024), overrides={"batch_size": 16})
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        assert RunConfig.from_json(path) == cfg

    def test_rederive_is_deterministic(self):
        fp = _fp(317, 768)
        assert derive_config(fp) == derive_config(fp)

    def test_json_field_names(self, tmp_path):
        path = tmp_path / "cfg.json"
        derive_config(_fp(100, 64)).to_json(path)
        doc = json.loads(path.read_text())
        for key in ("task", "bag_size", "hidden_dim", "stride", "dropout",
                    "batch_size", "learning_rate", "weight_decay", "warmup_epochs",
                    "max_epochs", "patience", "seed", "training_mode"):
            assert key in doc

    def test_invariants_enforced(self):
        cfg = derive_config(_fp(100, 64))
        with pytest.raises(ValidationError):
            dataclasses.replace(cfg, bag_size=0)
        with pytest.raises(ValidationError):
            dataclasses.replace(cfg, training_mode="bogus")

    def test_fingerprint_json_roundtrip(self, tmp_path):
        fp = _fp(141, 512)
        path = tmp_path / "fp.json"
        fp.to_json(path)
        assert DataFingerprint.from_json(path) == fp
