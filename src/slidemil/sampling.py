"""Patch-level bag normalization, feature-subspace sampling, task-aware batch samplers.

All samplers are pure functions of (inputs, rng state): reseeding the
generator reproduces the exact same plan. Batch plans are built per epoch
by one loop, _quota_batches: quotas of draws per group (class, quantile bin,
or event and censored), from pools that refill with replacement, so every
batch is full-size while epoch length stays anchored to ceil(n / B).
"""

from __future__ import annotations

import itertools
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


@dataclass
class BatchPlan:
    batches: list[list[int]]


def sample_patches(bag: SlideBag, bag_size: int, rng: np.random.Generator,
                   out: np.ndarray) -> FixedBag:
    """Normalize one bag to bag_size rows: uniform subsample if larger, zero-pad if smaller.
    The bag's embeddings are read once, after the draw: one map of a bag read
    from a file, closed on return.

    out, a writable float32 (bag_size, D) array, receives the rows and becomes
    the returned FixedBag's embeddings. Every row of it is written: sampled
    rows are gathered straight into it and padded rows are set to zero, so a
    buffer reused across calls carries nothing over.
    """
    if bag_size < 1:
        raise ValidationError("bag_size must be >= 1")
    n, d = bag.n_patches, bag.embed_dim
    if out.shape != (bag_size, d) or out.dtype != np.float32:
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
                           rng: np.random.Generator) -> np.ndarray:
    """Uniform without-replacement choice of hidden_dim feature dimensions, sorted ascending."""
    if hidden_dim > embed_dim:
        raise ValidationError(f"hidden_dim {hidden_dim} exceeds embed_dim {embed_dim}")
    return np.sort(rng.choice(embed_dim, size=hidden_dim, replace=False))


def _pool(members: np.ndarray, order: np.ndarray, rng: np.random.Generator):
    """Draws from a group: its members in the given order, then with replacement."""
    yield from map(int, order)
    while True:
        yield int(members[rng.integers(len(members))])


def _equal_quotas(n_groups: int, batch_size: int, rng: np.random.Generator):
    """Quotas of batch_size // n_groups per group; the remainder's extra draws
    rotate round-robin from a random first group."""
    base, remainder = divmod(batch_size, n_groups)
    offset = int(rng.integers(n_groups))

    def quotas(b: int) -> list[int]:
        extra = {(offset + b * remainder + j) % n_groups for j in range(remainder)}
        return [base + (g in extra) for g in range(n_groups)]
    return quotas


def _quota_batches(pools: list, quotas, n_total: int, batch_size: int,
                   rng: np.random.Generator) -> BatchPlan:
    """Fill ceil(n/B) batches: batch b takes quotas(b)[g] draws from pool g, then shuffles."""
    batches = []
    for b in range(math.ceil(n_total / batch_size)):
        batch = [draw for pool, take in zip(pools, quotas(b))
                 for draw in itertools.islice(pool, take)]
        rng.shuffle(batch)
        batches.append(batch)
    return BatchPlan(batches=batches)


def plain_batches(n: int, batch_size: int, rng: np.random.Generator) -> BatchPlan:
    if batch_size < 1:
        raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
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
    groups = [np.flatnonzero(labels == c) for c in classes]
    pools = [_pool(g, rng.permutation(g), rng) for g in groups]
    return _quota_batches(pools, _equal_quotas(n_classes, batch_size, rng), n, batch_size, rng)


def regression_batches(targets: np.ndarray, batch_size: int,
                       rng: np.random.Generator) -> BatchPlan:
    """Regression sampler: quantile-bin the targets into min(10, n, batch_size)
    bins, then balance the occupied bins as classes."""
    targets = np.asarray(targets, dtype=np.float64)
    n = len(targets)
    if n == 0 or not np.all(np.isfinite(targets)):
        raise ValidationError("targets must be nonempty and finite")
    n_bins = max(1, min(10, n, batch_size))
    edges = np.unique(np.quantile(targets, np.linspace(0.0, 1.0, n_bins + 1)))
    if n_bins == 1 or len(edges) < 3:
        # constant targets (or a single bin) degenerate to plain shuffled batching
        return plain_batches(n, batch_size, rng)
    # at most n_bins <= batch_size bins are occupied, so no class check fails
    return balanced_batches(np.searchsorted(edges[1:-1], targets, side="right"),
                            batch_size, rng)


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
    """Survival sampler: balanced event rate per batch (>= 1 event always) with temporal spread.

    A Cox batch of one slide has zero gradient (its partial likelihood is
    exp(eta) / exp(eta) = 1), so batch_size must be at least 2."""
    if batch_size < 2:
        raise ValidationError(f"survival batch_size must be >= 2, got {batch_size}")
    events = np.array([r.event for r in records])
    times = np.array([r.time for r in records], dtype=np.float64)
    n = len(records)
    if n == 0 or events.sum() == 0:
        raise ValidationError("survival batching needs at least one event")
    event_idx = np.flatnonzero(events == 1)
    censor_idx = np.flatnonzero(events == 0)

    pools = [_pool(event_idx, _temporal_order(event_idx, times, rng), rng)]
    quota = (batch_size,)
    if len(censor_idx):
        rate = len(event_idx) / n
        quota_events = min(max(_round_half_up(batch_size * rate), 1), batch_size - 1)
        pools.append(_pool(censor_idx, _temporal_order(censor_idx, times, rng), rng))
        quota = (quota_events, batch_size - quota_events)
    return _quota_batches(pools, lambda b: quota, n, batch_size, rng)
