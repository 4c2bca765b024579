"""Dataset fingerprinting and rule-based derivation of the run configuration.

Rules: bag size M = max(1, round(median patch count / 2)); attention hidden
size H = min(256, D); inference stride S = max(1, H // 4); batch size 32;
dropout 0.25; AdamW lr 3e-4 (1e-4 for survival) with weight decay 1e-4;
5 warmup epochs, up to 100 epochs, patience 10; seed 42. The windows and
their number K come from the grid ``inference.inference_windows`` returns
(``model.ChunkWindows``).
Overrides must keep S <= H, so that the windows cover every feature.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .dataio import (MAX_HEADER_DIM, BagShape, DatasetManifest, SlideBag, _check_fields,
                     _from_fields, _is_int, label_arrays, read_json, write_json)
from .errors import ValidationError

DEFAULT_HIDDEN_DIM = 256
DEFAULT_BATCH_SIZE = 32
DEFAULT_DROPOUT = 0.25
DEFAULT_SEED = 42

TRAINING_MODES = ("nnmil", "full_bag_batch1")


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


@dataclass
class DataFingerprint:
    patch_count_median: float
    patch_count_iqr: float
    patch_count_p5: float
    patch_count_p95: float
    embed_dim: int
    n_train: int
    n_val: int
    n_test: int
    class_prevalence: list[float] | None = None
    target_min: float | None = None
    target_max: float | None = None
    event_rate: float | None = None
    time_horizon_max: float | None = None
    task: str = "classification"

    def __post_init__(self):
        _check_fields(self)
        for name in ("n_train", "n_val", "n_test", "embed_dim", "patch_count_median",
                     "patch_count_iqr", "patch_count_p5", "patch_count_p95"):
            if getattr(self, name) < 0:
                raise ValidationError(f"DataFingerprint.{name} must be >= 0, "
                                      f"got {getattr(self, name)!r}")
        if self.class_prevalence is not None and not all(
                0.0 <= p <= 1.0 for p in self.class_prevalence):
            raise ValidationError(f"DataFingerprint.class_prevalence must lie in [0, 1], "
                                  f"got {self.class_prevalence!r}")
        # no embedding file holds more patches or dimensions than its header can count
        for name in ("patch_count_median", "patch_count_iqr", "patch_count_p5",
                     "patch_count_p95", "embed_dim"):
            if not getattr(self, name) <= MAX_HEADER_DIM:
                raise ValidationError(f"DataFingerprint.{name} must be at most {MAX_HEADER_DIM} "
                                      f"(an embedding header's limit), got {getattr(self, name)!r}")
        if not self.patch_count_p5 <= self.patch_count_median <= self.patch_count_p95:
            raise ValidationError("patch-count percentiles must be ordered p5 <= median <= p95")
        if self.class_prevalence is not None and abs(sum(self.class_prevalence) - 1.0) > 1e-9:
            raise ValidationError("class prevalences must sum to 1")
        if self.event_rate is not None and not 0.0 <= self.event_rate <= 1.0:
            raise ValidationError("event_rate must lie in [0, 1]")

    def to_json(self, path: str | Path) -> None:
        write_json(asdict(self), path)

    @classmethod
    def from_json(cls, path: str | Path) -> "DataFingerprint":
        return _from_fields(cls, read_json(path))


@dataclass
class RunConfig:
    task: str
    bag_size: int
    hidden_dim: int
    stride: int
    dropout: float
    batch_size: int
    learning_rate: float
    weight_decay: float
    warmup_epochs: int
    max_epochs: int
    patience: int
    seed: int
    training_mode: str = "nnmil"
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_fields(self)
        for name in ("bag_size", "hidden_dim", "stride", "batch_size", "max_epochs",
                     "patience"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        # a learning rate of 0 is legal: it freezes the parameters
        for name in ("warmup_epochs", "seed", "learning_rate", "weight_decay"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError(f"dropout must lie in [0, 1), got {self.dropout}")
        # windows of width H at stride S > H would skip the features between them
        if self.stride > self.hidden_dim:
            raise ValidationError(f"stride {self.stride} exceeds hidden_dim "
                                  f"{self.hidden_dim}: windows would skip features")
        if self.training_mode not in TRAINING_MODES:
            raise ValidationError(f"unknown training_mode {self.training_mode!r}")
        # every full_bag_batch1 batch is one slide, and a one-slide Cox batch
        # has zero gradient (its partial likelihood is exp(eta) / exp(eta))
        if self.training_mode == "full_bag_batch1" and self.task == "survival":
            raise ValidationError("training_mode 'full_bag_batch1' cannot train the "
                                  "survival task: a one-slide Cox batch has zero gradient")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, path: str | Path) -> None:
        write_json(self.to_dict(), path)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        return _from_fields(cls, doc)

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(read_json(path))


def compute_fingerprint(manifest: DatasetManifest,
                        bags: dict[str, SlideBag | BagShape]) -> DataFingerprint:
    """Dataset statistics over the train split; percentiles use linear interpolation.

    Only the train bags' n_patches and embed_dim are read, so bags may map
    slide_id to headers (dataio.load_bag_shapes) instead of loaded bags.
    """
    train = manifest.split_entries("train")
    if not train:
        raise ValidationError("cannot fingerprint an empty train split")
    missing = [e.slide_id for e in train if e.slide_id not in bags]
    if missing:
        raise ValidationError(f"bags missing for train slides {missing[:5]}")

    counts = np.array([bags[e.slide_id].n_patches for e in train], dtype=np.float64)
    dims = {bags[e.slide_id].embed_dim for e in train}
    if len(dims) != 1:
        raise ValidationError(f"train bags disagree on embedding dimension: {sorted(dims)}")
    p5, p25, med, p75, p95 = np.percentile(counts, [5, 25, 50, 75, 95], method="linear")

    labels = label_arrays(manifest.task, train)
    if manifest.task == "classification":
        counts = np.bincount(labels, minlength=manifest.n_classes)
        by_task = {"class_prevalence": (counts / len(labels)).tolist()}
    elif manifest.task == "regression":
        by_task = {"target_min": float(labels.min()), "target_max": float(labels.max())}
    else:
        times, events = labels
        by_task = {"event_rate": float(events.mean()), "time_horizon_max": float(times.max())}
    return DataFingerprint(
        patch_count_median=float(med),
        patch_count_iqr=float(p75 - p25),
        patch_count_p5=float(p5),
        patch_count_p95=float(p95),
        embed_dim=int(next(iter(dims))),
        n_train=len(train),
        n_val=len(manifest.split_entries("val")),
        n_test=len(manifest.split_entries("test")),
        task=manifest.task,
        **by_task,
    )


def derive_config(fp: DataFingerprint, overrides: dict | None = None) -> RunConfig:
    """Apply the rules to a fingerprint of fp.task; explicit overrides win and are recorded.

    The task is not a rule's choice but the data's, so it cannot be overridden.
    """
    if fp.embed_dim < 1:
        raise ValidationError("embed_dim must be >= 1")
    overrides = dict(overrides or {})
    if "task" in overrides:
        raise ValidationError(f"the task comes from the fingerprint ({fp.task}); "
                              f"it cannot be overridden")

    hidden = overrides.get("hidden_dim", min(DEFAULT_HIDDEN_DIM, fp.embed_dim))
    # a hidden_dim that is not an int is left for RunConfig to reject by name
    stride = overrides.get("stride", max(1, hidden // 4) if _is_int(hidden) else 1)

    values = {
        "task": fp.task,
        "bag_size": max(1, _round_half_up(fp.patch_count_median / 2)),
        "hidden_dim": hidden,
        "stride": stride,
        "dropout": DEFAULT_DROPOUT,
        "batch_size": DEFAULT_BATCH_SIZE,
        "learning_rate": 1e-4 if fp.task == "survival" else 3e-4,
        "weight_decay": 1e-4,
        "warmup_epochs": 5,
        "max_epochs": 100,
        "patience": 10,
        "seed": DEFAULT_SEED,
        "training_mode": "nnmil",
    }
    unknown = set(overrides) - set(values)
    if unknown:
        raise ValidationError(f"unknown config overrides {sorted(unknown)}")
    values.update(overrides)
    return RunConfig(overrides=overrides, **values)
