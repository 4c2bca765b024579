"""Dataset fingerprinting and rule-based derivation of the run configuration.

Rules: bag size M = max(1, round(median patch count / 2)); attention hidden
size H = min(256, D); inference stride S = max(1, H // 4); batch size 32;
dropout 0.25; AdamW lr 3e-4 (1e-4 for survival) with weight decay 1e-4;
5 warmup epochs, up to 100 epochs, patience 10; seed 42. The window set,
and with it the ensemble size K, comes from ``inference.chunk_windows``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .dataio import DatasetManifest, SlideBag, read_json
from .errors import FormatError, ValidationError

DEFAULT_HIDDEN_DIM = 256
DEFAULT_BATCH_SIZE = 32
DEFAULT_DROPOUT = 0.25
DEFAULT_SEED = 42

TRAINING_MODES = ("nnmil", "full_bag_batch1")


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _from_fields(cls, doc, retired=()):
    """cls(**doc) for a parsed JSON object. Keys in retired name fields since
    removed, so files written while they existed still load; they are dropped."""
    if not isinstance(doc, dict):
        raise FormatError(f"{cls.__name__}: expected a JSON object, got {type(doc).__name__}")
    try:
        return cls(**{k: v for k, v in doc.items() if k not in retired})
    except TypeError as exc:  # a missing or unknown field, or a value of the wrong type
        raise ValidationError(f"{cls.__name__}: {exc}") from exc


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
        if not self.patch_count_p5 <= self.patch_count_median <= self.patch_count_p95:
            raise ValidationError("patch-count percentiles must be ordered p5 <= median <= p95")
        if self.class_prevalence is not None:
            if abs(sum(self.class_prevalence) - 1.0) > 1e-9:
                raise ValidationError("class prevalences must sum to 1")
        if self.event_rate is not None and not 0.0 <= self.event_rate <= 1.0:
            raise ValidationError("event_rate must lie in [0, 1]")

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")

    @classmethod
    def from_json(cls, path: str | Path) -> "DataFingerprint":
        return _from_fields(cls, read_json(path), retired=("magnification",))


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
        if self.bag_size < 1:
            raise ValidationError("bag_size must be >= 1")
        if self.stride < 1:
            raise ValidationError("stride must be >= 1")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.training_mode not in TRAINING_MODES:
            raise ValidationError(f"unknown training_mode {self.training_mode!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        return _from_fields(cls, doc, retired=("ensemble_chunks",))

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(read_json(path))


def compute_fingerprint(manifest: DatasetManifest, bags: dict[str, SlideBag]) -> DataFingerprint:
    """Dataset statistics over the train split; percentiles use linear interpolation."""
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

    fp = DataFingerprint(
        patch_count_median=float(med),
        patch_count_iqr=float(p75 - p25),
        patch_count_p5=float(p5),
        patch_count_p95=float(p95),
        embed_dim=int(next(iter(dims))),
        n_train=len(train),
        n_val=len(manifest.split_entries("val")),
        n_test=len(manifest.split_entries("test")),
        task=manifest.task,
    )
    if manifest.task == "classification":
        labels = np.array([e.label for e in train])
        fp.class_prevalence = [float(np.mean(labels == c)) for c in range(manifest.n_classes)]
    elif manifest.task == "regression":
        targets = np.array([e.label for e in train], dtype=np.float64)
        fp.target_min = float(targets.min())
        fp.target_max = float(targets.max())
    else:
        events = np.array([e.label.event for e in train])
        times = np.array([e.label.time for e in train])
        fp.event_rate = float(events.mean())
        fp.time_horizon_max = float(times.max())
    return fp


def derive_config(fp: DataFingerprint, task: str | None = None,
                  overrides: dict | None = None) -> RunConfig:
    """Apply the rules to a fingerprint; explicit overrides win and are recorded."""
    if task is not None and task != fp.task:
        raise ValidationError(
            f"requested task {task!r} contradicts the fingerprint task {fp.task!r}")
    task = task if task is not None else fp.task
    if fp.embed_dim < 1:
        raise ValidationError("embed_dim must be >= 1")
    overrides = dict(overrides or {})

    hidden = min(DEFAULT_HIDDEN_DIM, fp.embed_dim)
    hidden = int(overrides.get("hidden_dim", hidden))
    stride = max(1, hidden // 4)
    stride = int(overrides.get("stride", stride))

    values = {
        "task": task,
        "bag_size": max(1, _round_half_up(fp.patch_count_median / 2)),
        "hidden_dim": hidden,
        "stride": stride,
        "dropout": DEFAULT_DROPOUT,
        "batch_size": DEFAULT_BATCH_SIZE,
        "learning_rate": 1e-4 if task == "survival" else 3e-4,
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
