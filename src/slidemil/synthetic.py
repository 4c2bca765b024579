"""Synthetic planted-signal corpora for desk-scale verification.

Classification bags plant round(signal_fraction*N) patches whose mean is
shifted by signal_strength along one fixed random unit direction; negative
bags contain none. Regression / survival bags shift every patch by a
per-bag latent amount along the same direction, so the bag-mean embedding
projected on the coefficient vector determines the target / log-hazard
exactly. Survival times are exponential with rate exp(log-hazard);
censoring times are an independent exponential calibrated to hit the
requested censoring rate in expectation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import (
    DatasetManifest,
    ManifestEntry,
    SlideBag,
    SurvivalRecord,
    TASKS,
    read_json,
    save_manifest,
    write_embedding_file,
)
from .errors import ValidationError
from .fingerprint import _from_fields, _round_half_up


@dataclass
class SyntheticSpec:
    task: str
    n_bags: int
    patches_per_bag_range: tuple[int, int]
    embed_dim: int
    signal_fraction: float = 0.05
    signal_strength: float = 2.0
    positive_rate: float = 0.5
    coefficients: np.ndarray | None = None  # regression/survival; default: signal_strength * direction
    censoring_rate: float = 0.3
    seed: int = 42
    split_fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValidationError(f"unknown task {self.task!r}")
        self.patches_per_bag_range = tuple(self.patches_per_bag_range)
        self.split_fractions = tuple(self.split_fractions)
        lo, hi = self.patches_per_bag_range
        if not (1 <= lo <= hi):
            raise ValidationError(f"patches_per_bag_range must satisfy 1 <= lo <= hi, got {lo, hi}")
        if self.n_bags < 1 or self.embed_dim < 1:
            raise ValidationError("n_bags and embed_dim must be >= 1")
        if self.task == "classification":
            if not 0.0 < self.signal_fraction <= 1.0:
                raise ValidationError("signal_fraction must lie in (0, 1]")
            if not 0.0 < self.positive_rate < 1.0:
                raise ValidationError("positive_rate must lie in (0, 1)")
        if self.task == "survival" and not 0.0 <= self.censoring_rate < 1.0:
            raise ValidationError("censoring_rate must lie in [0, 1)")
        if self.coefficients is not None:
            coef = np.asarray(self.coefficients, dtype=np.float64)
            if coef.shape != (self.embed_dim,):
                raise ValidationError(f"coefficients must have shape ({self.embed_dim},)")
            self.coefficients = coef
        if abs(sum(self.split_fractions) - 1.0) > 1e-9 or any(f < 0 for f in self.split_fractions):
            raise ValidationError("split_fractions must be nonnegative and sum to 1")

    @classmethod
    def from_json(cls, path: str | Path) -> "SyntheticSpec":
        return _from_fields(cls, read_json(path))


def _calibrate_censoring_rate(hazards: np.ndarray, target: float) -> float:
    """Censoring rate exp(mu) such that mean_i mu/(mu + lambda_i) == target.

    P(censor before event) for exponential T~Exp(lambda), C~Exp(mu) is
    mu/(mu+lambda); the mean over bags is monotone in mu, so bisection works.
    """
    lo, hi = 1e-12, 1e12
    for _ in range(200):
        mid = np.sqrt(lo * hi)  # bisect in log space
        if float(np.mean(mid / (mid + hazards))) < target:
            lo = mid
        else:
            hi = mid
    return float(np.sqrt(lo * hi))


def _stratified_split(strata: list[np.ndarray], fractions: tuple[float, float, float],
                      rng: np.random.Generator) -> np.ndarray:
    """Assign each index to a split, stratum by stratum. Returns an array of split names."""
    n_total = sum(len(s) for s in strata)
    splits = np.empty(n_total, dtype=object)
    for stratum in strata:
        order = rng.permutation(stratum)
        n = len(order)
        n_tr = _round_half_up(fractions[0] * n)
        n_va = _round_half_up(fractions[1] * n)
        n_tr = min(n_tr, n)
        n_va = min(n_va, n - n_tr)
        for idx in order[:n_tr]:
            splits[idx] = "train"
        for idx in order[n_tr:n_tr + n_va]:
            splits[idx] = "val"
        for idx in order[n_tr + n_va:]:
            splits[idx] = "test"
    return splits


def generate_synthetic_dataset(
    spec: SyntheticSpec,
) -> tuple[DatasetManifest, dict[str, SlideBag], dict[str, list[int]]]:
    """Build a seeded corpus; returns (manifest, bags by slide_id, planted patch indices)."""
    rng = np.random.default_rng(spec.seed)
    d = spec.embed_dim
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)

    n = spec.n_bags
    lo, hi = spec.patches_per_bag_range

    if spec.task == "classification":
        n_pos = _round_half_up(spec.positive_rate * n)
        labels = rng.permutation(np.r_[np.ones(n_pos, dtype=int), np.zeros(n - n_pos, dtype=int)])
    else:
        coef = spec.coefficients
        if coef is None:
            coef = spec.signal_strength * direction

    bags: dict[str, SlideBag] = {}
    signal_indices: dict[str, list[int]] = {}
    slide_ids = [f"synth_{i:05d}" for i in range(n)]
    targets = np.zeros(n)

    for i, sid in enumerate(slide_ids):
        n_patches = int(rng.integers(lo, hi + 1))
        x = rng.standard_normal((n_patches, d))
        planted: list[int] = []
        if spec.task == "classification":
            if labels[i] == 1:
                n_sig = _round_half_up(spec.signal_fraction * n_patches)
                chosen = np.sort(rng.choice(n_patches, size=n_sig, replace=False))
                x[chosen] += spec.signal_strength * direction
                planted = [int(j) for j in chosen]
        else:
            shift = rng.standard_normal()
            x += shift * direction
            targets[i] = float(coef @ x.mean(axis=0))
        signal_indices[sid] = planted
        bags[sid] = SlideBag(slide_id=sid, patient_id=f"pt_{i:05d}",
                             embeddings=x.astype(np.float32))

    if spec.task == "survival":
        hazards = np.exp(targets)
        event_times = rng.exponential(1.0 / hazards)
        if spec.censoring_rate > 0.0:
            mu = _calibrate_censoring_rate(hazards, spec.censoring_rate)
            censor_times = rng.exponential(1.0 / mu, size=n)
            observed = np.minimum(event_times, censor_times)
            events = (event_times <= censor_times).astype(int)
        else:
            observed = event_times
            events = np.ones(n, dtype=int)

    if spec.task == "classification":
        strata = [np.flatnonzero(labels == c) for c in sorted(set(labels.tolist()))]
    elif spec.task == "survival":
        strata = [np.flatnonzero(events == 1), np.flatnonzero(events == 0)]
        strata = [s for s in strata if len(s)]
    else:
        strata = [np.arange(n)]
    splits = _stratified_split(strata, spec.split_fractions, rng)

    entries = []
    for i, sid in enumerate(slide_ids):
        if spec.task == "classification":
            label = int(labels[i])
        elif spec.task == "regression":
            label = float(targets[i])
        else:
            label = SurvivalRecord(time=float(observed[i]), event=int(events[i]))
        entries.append(ManifestEntry(
            slide_id=sid,
            patient_id=bags[sid].patient_id,
            embedding_path=f"{sid}.emb",
            split=str(splits[i]),
            label=label,
        ))

    n_classes = 2 if spec.task == "classification" else None
    manifest = DatasetManifest(entries=entries, task=spec.task, n_classes=n_classes)
    return manifest, bags, signal_indices


def write_synthetic_dataset(spec: SyntheticSpec, out_dir: str | Path) -> DatasetManifest:
    """Generate and persist a corpus: one embedding file per bag plus manifest and planted indices."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest, bags, signal_indices = generate_synthetic_dataset(spec)
    for entry in manifest.entries:
        write_embedding_file(bags[entry.slide_id], out_dir / entry.embedding_path)
    save_manifest(manifest, out_dir / "manifest.json")
    (out_dir / "signal_indices.json").write_text(
        json.dumps(signal_indices, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest
