"""Patch-level bag normalization, feature-subspace sampling, task-aware batch samplers.

All samplers are pure functions of (inputs, rng state): reseeding the
generator reproduces the exact same plan. Batch plans are built per epoch;
minority pools refill by resampling with replacement so every batch is
full-size, while epoch length stays anchored to ceil(n / B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import SlideBag, SurvivalRecord
from .errors import ValidationError
from .fingerprint import _round_half_up


@dataclass
class FixedBag:
    """A bag normalized to exactly M rows; padded rows are all-zero with mask False."""

    embeddings: np.ndarray  # (M, D) float32
    valid_mask: np.ndarray  # (M,) bool

    def __post_init__(self):
        if self.embeddings.shape[0] != self.valid_mask.shape[0]:
            raise ValidationError("mask length must equal the number of rows")
        if not self.valid_mask.any():
            raise ValidationError("a fixed bag needs at least one valid patch")


@dataclass(frozen=True)
class FeatureIndexSet:
    """Distinct, ascending feature indices in [0, embed_dim)."""

    indices: np.ndarray
    embed_dim: int

    def __post_init__(self):
        idx = self.indices
        if idx.ndim != 1 or len(idx) == 0:
            raise ValidationError("feature index set must be a nonempty 1-D array")
        if np.any(np.diff(idx) <= 0):
            raise ValidationError("feature indices must be strictly ascending")
        if idx[0] < 0 or idx[-1] >= self.embed_dim:
            raise ValidationError(f"feature indices must lie in [0, {self.embed_dim})")

    def __len__(self) -> int:
        return len(self.indices)


@dataclass
class BatchPlan:
    batches: list[list[int]]

    @property
    def epoch_length(self) -> int:
        return len(self.batches)


def sample_patches(bag: SlideBag, bag_size: int, rng: np.random.Generator,
                   out: np.ndarray | None = None) -> FixedBag:
    """Normalize one bag to bag_size rows: uniform subsample if larger, zero-pad if smaller.

    out, a writable float32 (bag_size, D) array, receives the rows in place of
    a new array and becomes the returned FixedBag's embeddings. Every row of
    it is written: sampled rows are gathered straight into it and padded rows
    are set to zero, so a buffer reused across calls carries nothing over.
    The rng is consumed the same way with or without out.
    """
    if bag_size < 1:
        raise ValidationError("bag_size must be >= 1")
    n, d = bag.embeddings.shape
    if out is None:
        out = np.empty((bag_size, d), dtype=np.float32)
    elif out.shape != (bag_size, d) or out.dtype != np.float32:
        raise ValidationError(f"out must be a float32 ({bag_size}, {d}) array")
    if n > bag_size:
        keep = np.sort(rng.choice(n, size=bag_size, replace=False))
        # keep lies in [0, n); with mode="raise" numpy gathers into a temporary
        # and copies it to out, which doubled the time per batch
        np.take(bag.embeddings, keep, axis=0, out=out, mode="clip")
        mask = np.ones(bag_size, dtype=bool)
    else:
        out[:n] = bag.embeddings
        out[n:] = 0.0
        mask = np.zeros(bag_size, dtype=bool)
        mask[:n] = True
    return FixedBag(embeddings=out, valid_mask=mask)


def sample_feature_indices(embed_dim: int, hidden_dim: int,
                           rng: np.random.Generator) -> FeatureIndexSet:
    """Uniform without-replacement choice of hidden_dim feature dimensions, sorted ascending."""
    if hidden_dim > embed_dim:
        raise ValidationError(f"hidden_dim {hidden_dim} exceeds embed_dim {embed_dim}")
    idx = np.sort(rng.choice(embed_dim, size=hidden_dim, replace=False))
    return FeatureIndexSet(indices=idx, embed_dim=embed_dim)


def full_feature_indices(embed_dim: int) -> FeatureIndexSet:
    return FeatureIndexSet(indices=np.arange(embed_dim), embed_dim=embed_dim)


class _Pool:
    """Without-replacement draws from a shuffled group; falls back to replacement when exhausted."""

    def __init__(self, members: np.ndarray, order: np.ndarray, rng: np.random.Generator):
        self.members = members
        self.queue = list(order)
        self.pos = 0
        self.rng = rng

    def draw(self) -> int:
        if self.pos < len(self.queue):
            out = self.queue[self.pos]
            self.pos += 1
            return int(out)
        return int(self.members[self.rng.integers(len(self.members))])


def _quota_batches(pools: list[_Pool], base: int, remainder: int, n_total: int,
                   batch_size: int, rng: np.random.Generator) -> BatchPlan:
    """Fill ceil(n/B) batches with per-group quotas; the remainder rotates round-robin."""
    n_groups = len(pools)
    offset = int(rng.integers(n_groups))
    batches = []
    for b in range(math.ceil(n_total / batch_size)):
        extra = {(offset + b * remainder + j) % n_groups for j in range(remainder)}
        batch: list[int] = []
        for g, pool in enumerate(pools):
            take = base + (1 if g in extra else 0)
            batch.extend(pool.draw() for _ in range(take))
        rng.shuffle(batch)
        batches.append(batch)
    return BatchPlan(batches=batches)


def plain_batches(n: int, batch_size: int, rng: np.random.Generator) -> BatchPlan:
    order = rng.permutation(n)
    batches = [list(map(int, order[i:i + batch_size])) for i in range(0, n, batch_size)]
    return BatchPlan(batches=batches)


def balanced_batches(class_labels: np.ndarray, batch_size: int,
                     rng: np.random.Generator) -> BatchPlan:
    """Classification sampler: approximately equal per-class counts in every batch."""
    labels = np.asarray(class_labels)
    n = len(labels)
    if n == 0:
        raise ValidationError("no samples to batch")
    classes = np.unique(labels)
    n_classes = len(classes)
    if batch_size < n_classes:
        raise ValidationError(f"batch_size {batch_size} < number of classes {n_classes}")
    pools = []
    for c in classes:
        members = np.flatnonzero(labels == c)
        pools.append(_Pool(members, rng.permutation(members), rng))
    base, remainder = divmod(batch_size, n_classes)
    return _quota_batches(pools, base, remainder, n, batch_size, rng)


def regression_batches(targets: np.ndarray, batch_size: int, rng: np.random.Generator,
                       n_bins: int | None = None) -> BatchPlan:
    """Regression sampler: quantile-bin the targets, then fill per-bin quotas per batch."""
    targets = np.asarray(targets, dtype=np.float64)
    n = len(targets)
    if n == 0 or not np.all(np.isfinite(targets)):
        raise ValidationError("targets must be nonempty and finite")
    if n_bins is None:
        n_bins = min(10, n)
    n_bins = max(1, min(n_bins, batch_size))
    edges = np.unique(np.quantile(targets, np.linspace(0.0, 1.0, n_bins + 1)))
    if n_bins == 1 or len(edges) < 3:
        # constant targets (or a single bin) degenerate to plain shuffled batching
        return plain_batches(n, batch_size, rng)
    bins = np.searchsorted(edges[1:-1], targets, side="right")
    groups = [np.flatnonzero(bins == g) for g in range(len(edges) - 1)]
    groups = [g for g in groups if len(g)]
    pools = [_Pool(g, rng.permutation(g), rng) for g in groups]
    base, remainder = divmod(batch_size, len(pools))
    return _quota_batches(pools, base, remainder, n, batch_size, rng)


def _temporal_order(members: np.ndarray, times: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Shuffle stratified over time terciles: consecutive draws sweep the whole time range."""
    by_time = members[np.argsort(times[members], kind="stable")]
    terciles = np.array_split(by_time, 3)
    shuffled = [rng.permutation(t) for t in terciles if len(t)]
    out = []
    for i in range(max(len(t) for t in shuffled)):
        for t in shuffled:
            if i < len(t):
                out.append(int(t[i]))
    return np.array(out, dtype=int)


def survival_batches(records: list[SurvivalRecord], batch_size: int,
                     rng: np.random.Generator) -> BatchPlan:
    """Survival sampler: balanced event rate per batch (>= 1 event always) with temporal spread."""
    events = np.array([r.event for r in records])
    times = np.array([r.time for r in records], dtype=np.float64)
    n = len(records)
    if n == 0 or events.sum() == 0:
        raise ValidationError("survival batching needs at least one event")
    event_idx = np.flatnonzero(events == 1)
    censor_idx = np.flatnonzero(events == 0)

    event_pool = _Pool(event_idx, _temporal_order(event_idx, times, rng), rng)
    if len(censor_idx) == 0:
        quota_events = batch_size
        censor_pool = None
    else:
        rate = len(event_idx) / n
        quota_events = min(max(_round_half_up(batch_size * rate), 1), batch_size - 1)
        censor_pool = _Pool(censor_idx, _temporal_order(censor_idx, times, rng), rng)

    batches = []
    for _ in range(math.ceil(n / batch_size)):
        batch = [event_pool.draw() for _ in range(quota_events)]
        if censor_pool is not None:
            batch.extend(censor_pool.draw() for _ in range(batch_size - quota_events))
        rng.shuffle(batch)
        batches.append(batch)
    return BatchPlan(batches=batches)
