"""Dataset fingerprint statistics and the rule-based config derivation."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from slidemil.dataio import (_FIELD_TYPES, TASKS, DatasetManifest, ManifestEntry, SlideBag,
                             SurvivalRecord)
from slidemil.errors import ValidationError
from slidemil.fingerprint import (
    DataFingerprint,
    RunConfig,
    compute_fingerprint,
    derive_config,
)
from slidemil.inference import inference_windows
from slidemil.synthetic import SyntheticSpec

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

    def test_class_prevalence_counts_every_declared_class(self, rng):
        # classes without a train slide get prevalence 0, one bincount for all
        manifest, bags = _manifest_with_counts(rng, [5, 5, 5, 5])
        manifest = DatasetManifest(entries=manifest.entries, task="classification",
                                   n_classes=4)
        fp = compute_fingerprint(manifest, bags)
        assert fp.class_prevalence == [0.5, 0.5, 0.0, 0.0]

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

    def test_task_override_rejected(self):
        # the learning rate and the loss follow the fingerprint's task
        with pytest.raises(ValidationError, match="task comes from the fingerprint"):
            derive_config(_fp(100, 64), overrides={"task": "regression"})

    def test_full_bag_mode_rejected_for_survival(self):
        # one slide per batch: a one-slide Cox batch has zero gradient
        with pytest.raises(ValidationError, match="full_bag_batch1"):
            derive_config(_fp(100, 64, task="survival"),
                          overrides={"training_mode": "full_bag_batch1"})
        for task in ("classification", "regression"):
            cfg = derive_config(_fp(100, 64, task=task),
                                overrides={"training_mode": "full_bag_batch1"})
            assert cfg.training_mode == "full_bag_batch1"


# config settings no run can train with, and the error each gives (H = 16)
_UNTRAINABLE = [
    ("learning_rate", -1e-3, "learning_rate must be >= 0, got -0.001"),
    ("learning_rate", math.nan, "RunConfig.learning_rate must be a finite float, got nan"),
    ("learning_rate", math.inf, "RunConfig.learning_rate must be a finite float, got inf"),
    ("weight_decay", -1e-4, "weight_decay must be >= 0, got -0.0001"),
    ("weight_decay", math.nan, "RunConfig.weight_decay must be a finite float, got nan"),
    ("warmup_epochs", -1, "warmup_epochs must be >= 0"),
    ("dropout", 1.0, "dropout must lie in [0, 1)"),
    ("dropout", -0.1, "dropout must lie in [0, 1)"),
    ("dropout", math.nan, "RunConfig.dropout must be a finite float, got nan"),
    ("seed", -1, "seed must be >= 0"),
    ("stride", 17, "stride 17 exceeds hidden_dim 16"),
]


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

    @pytest.mark.parametrize("field", ["bag_size", "hidden_dim", "stride", "batch_size",
                                       "max_epochs", "patience"])
    def test_counts_below_one_rejected(self, field):
        # hidden_dim=0 gives zero-width windows; max_epochs=0 trains nothing;
        # patience=0 stops after the first epoch
        cfg = derive_config(_fp(100, 64))
        with pytest.raises(ValidationError, match=f"{field} must be >= 1"):
            dataclasses.replace(cfg, **{field: 0})

    @pytest.mark.parametrize("field,value,message", _UNTRAINABLE,
                             ids=[f"{f}={v}" for f, v, _ in _UNTRAINABLE])
    def test_untrainable_setting_rejected(self, field, value, message):
        # stride > hidden_dim: windows (0,16), (17,33), ... never read feature 16
        cfg = derive_config(_fp(100, 64), overrides={"hidden_dim": 16})
        with pytest.raises(ValidationError, match=re.escape(message)):
            dataclasses.replace(cfg, **{field: value})

    def test_boundary_settings_accepted(self):
        # lr 0 freezes a run; S == H tiles the features without overlap
        cfg = derive_config(_fp(100, 64), overrides={"hidden_dim": 16})
        cfg = dataclasses.replace(cfg, learning_rate=0.0, weight_decay=0.0, warmup_epochs=0,
                                  dropout=0.0, seed=0, patience=1, stride=16)
        assert inference_windows(cfg, 64).windows == ((0, 16), (16, 32), (32, 48), (48, 64))

    @pytest.mark.parametrize("field,value", [("bag_size", "abc"), ("stride", 4.0),
                                             ("learning_rate", "3e-4"), ("seed", True),
                                             ("task", 1), ("overrides", []),
                                             # past float range: float() cannot hold it
                                             pytest.param("learning_rate", 10**400,
                                                          id="learning_rate-10**400")])
    def test_wrongly_typed_field_names_it(self, field, value):
        cfg = derive_config(_fp(100, 64))
        with pytest.raises(ValidationError, match=field):
            dataclasses.replace(cfg, **{field: value})

    def test_numpy_numbers_accepted(self):
        cfg = derive_config(_fp(100, 64))
        assert dataclasses.replace(cfg, seed=np.int64(3), dropout=np.float32(0.5)).seed == 3

    def test_fingerprint_json_roundtrip(self, tmp_path):
        fp = _fp(141, 512)
        path = tmp_path / "fp.json"
        fp.to_json(path)
        assert DataFingerprint.from_json(path) == fp


# the fields of a valid instance of each record the CLI reads from JSON
_RECORDS = {
    RunConfig: lambda: dataclasses.asdict(derive_config(_fp(100, 64))),
    DataFingerprint: lambda: dataclasses.asdict(_fp(100, 64)),
    SyntheticSpec: lambda: dict(task="classification", n_bags=10,
                                patches_per_bag_range=(4, 6), embed_dim=4),
}


class TestRecordFieldTypes:
    """Every field of every JSON record is type-checked: a field whose
    annotation the checker does not know fails here, not when a file loads."""

    @pytest.mark.parametrize("cls,name", [(cls, f.name) for cls in _RECORDS
                                          for f in dataclasses.fields(cls)],
                             ids=lambda v: getattr(v, "__name__", v))
    def test_wrong_type_names_the_field(self, cls, name):
        field = next(f for f in dataclasses.fields(cls) if f.name == name)
        assert field.type.removesuffix(" | None") in _FIELD_TYPES
        with pytest.raises(ValidationError, match=f"{cls.__name__}.{name} must be"):
            cls(**{**_RECORDS[cls](), name: object()})

    @pytest.mark.parametrize("cls", list(_RECORDS), ids=lambda c: c.__name__)
    def test_unknown_task_rejected(self, cls):
        with pytest.raises(ValidationError, match="unknown task 'foo'"):
            cls(**{**_RECORDS[cls](), "task": "foo"})

    @pytest.mark.parametrize("value", [[3, 4.5], [3], [3, 4, 5], [True, 4], "34"])
    def test_pair_of_ints_checks_length_and_elements(self, value):
        spec = _RECORDS[SyntheticSpec]()
        with pytest.raises(ValidationError, match="patches_per_bag_range must be"):
            SyntheticSpec(**{**spec, "patches_per_bag_range": value})
        # a JSON list is held as a tuple
        assert SyntheticSpec(**{**spec, "patches_per_bag_range": [3, 4]}) \
            .patches_per_bag_range == (3, 4)

    def test_optional_fields_accept_none_and_check_elements(self):
        doc = _RECORDS[DataFingerprint]()
        assert DataFingerprint(**{**doc, "class_prevalence": None}).class_prevalence is None
        with pytest.raises(ValidationError, match="class_prevalence must be"):
            DataFingerprint(**{**doc, "class_prevalence": [0.5, "0.5"]})
        with pytest.raises(ValidationError, match="embed_dim must be int"):
            DataFingerprint(**{**doc, "embed_dim": None})

    @pytest.mark.parametrize("task", TASKS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("cls,name", [(cls, f.name) for cls in _RECORDS
                                          for f in dataclasses.fields(cls)
                                          if f.type.removesuffix(" | None")
                                          in ("float", "list[float]")],
                             ids=lambda v: getattr(v, "__name__", v))
    def test_every_real_field_must_be_finite(self, cls, name, value, task):
        # whether or not the task reads the field
        kind = next(f.type for f in dataclasses.fields(cls) if f.name == name)
        bad = [value] if kind.startswith("list") else value
        with pytest.raises(ValidationError, match=f"{cls.__name__}.{name} must be a .*finite"):
            cls(**{**_RECORDS[cls](), "task": task, name: bad})

    @pytest.mark.parametrize("name,value", [
        ("class_prevalence", [math.nan, math.nan]), ("class_prevalence", [1.0, math.inf]),
        ("target_min", -math.inf), ("target_max", math.inf), ("time_horizon_max", math.nan)])
    def test_fingerprint_statistics_must_be_finite(self, name, value):
        with pytest.raises(ValidationError, match=f"DataFingerprint.{name} must be a .*finite"):
            DataFingerprint(**{**_RECORDS[DataFingerprint](), name: value})


class TestFingerprintRanges:
    """Counts, patch-count statistics and class prevalences are never
    negative, and a prevalence is at most 1; the error names the field."""

    @pytest.mark.parametrize("name", ["n_train", "n_val", "n_test", "embed_dim"])
    def test_negative_count_names_the_field(self, name):
        with pytest.raises(ValidationError, match=f"DataFingerprint.{name} must be >= 0, got -1"):
            DataFingerprint(**{**_RECORDS[DataFingerprint](), name: -1})

    @pytest.mark.parametrize("name", ["patch_count_median", "patch_count_iqr",
                                      "patch_count_p5", "patch_count_p95"])
    def test_negative_patch_count_statistic_names_the_field(self, name):
        # the sign is checked before the percentiles' order, so the error
        # names the field; derive_config planned bag size 1 from a median of -7
        with pytest.raises(ValidationError,
                           match=f"DataFingerprint.{name} must be >= 0, got -7.0"):
            DataFingerprint(**{**_RECORDS[DataFingerprint](), name: -7.0})

    @pytest.mark.parametrize("prevalence", [[1.5, -0.5], [-0.25, 1.25], [0.5, 0.75, -0.25]])
    def test_prevalence_outside_unit_interval_rejected(self, prevalence):
        # each sums to 1, so the sum check alone let them through
        with pytest.raises(ValidationError,
                           match=re.escape("DataFingerprint.class_prevalence must lie in [0, 1]")):
            DataFingerprint(**{**_RECORDS[DataFingerprint](), "class_prevalence": prevalence})

    def test_zero_is_accepted(self):
        fp = DataFingerprint(**{**_RECORDS[DataFingerprint](), "n_val": 0, "n_test": 0,
                                "patch_count_iqr": 0.0, "class_prevalence": [1.0, 0.0]})
        assert (fp.n_val, fp.n_test, fp.class_prevalence) == (0, 0, [1.0, 0.0])
