"""Gated-attention bag aggregator with a hand-derived backward pass.

The forward pass gathers each slide's valid rows before any reduction over
the patch axis, so appending padded rows cannot perturb attention scores or
pooled features even at the last bit; a slide without padding is used as a
view. Attention projections operate on the weight columns and embedding
features at the given sorted feature indices (a sampled subset, a feature
window, or every feature); the pooled representation and the output head
always use the full embedding.

A training step (forward with the cache, then backward) runs one body per
slide, _forward_slide and _backward_slide, on ensemble_workers() threads
(usable CPUs // BLAS threads; with one worker the bodies run in a loop on
the calling thread). forward draws every slide's dropout mask on the
calling thread, in slide order, before any body runs, so the generator's
stream does not depend on the workers, and each forward body writes only its
own pooled row and attention row. Each backward body returns its slide's
three products for the attention gradients, and the calling thread adds
them in slide order, the floating-point operations of a serial loop. The
step is therefore bitwise the same for any worker count and schedule. The
bodies work in place, in their activations' own buffers and a few (m, H)
scratch arrays, so two slides in flight add little to a step's memory.

The window ensemble (forward_windows) computes the attention logits of all
windows in one pass over the bag: each window's projections are sums of
column-block products, each block's product is computed once per row tile
and shared by every window that contains it, and forward() then runs
softmax, pooling and the head on the given logits. The row tiles run on
ensemble_workers() threads: usable CPUs // BLAS threads, so a BLAS that
already uses every CPU keeps the tiles on the calling thread. Each tile
writes only its own logit columns, so the outputs are bitwise the same for
any worker count and schedule.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .metrics import breslow_table

PARAM_NAMES = ("attention_v", "attention_u", "attention_w", "head_weight", "head_bias")


@dataclass
class ForwardResult:
    outputs: np.ndarray    # (n_slides, n_outputs)
    attention: np.ndarray  # (n_slides, bag_size); exactly 0 at padded rows
    cache: list | None


def _softmax_pool(logits: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Attention weights (m,) from logits (m,) and the pooled vector alpha @ xi."""
    exp_l = np.exp(logits - logits.max())
    alpha = exp_l / exp_l.sum()
    return alpha, alpha @ xi


def _gated_output(tanh_act: np.ndarray, gate_act: np.ndarray, keep: np.ndarray | None,
                  dropout: float) -> tuple[np.ndarray, np.ndarray | None]:
    """Gated activations tanh_act * gate_act (m, H) with the dropout mask keep
    applied, and the scale keep / (1 - dropout) that applies it (None when
    keep is None): one new (m, H) array each, the rest in place. forward and
    backward both build them here, so backward's rebuild is bit-identical to
    the forward pass."""
    out = tanh_act * gate_act
    if keep is None:
        return out, None
    drop = keep.astype(out.dtype)
    drop /= out.dtype.type(1.0 - dropout)
    out *= drop
    return out, drop


def _forward_slide(xi: np.ndarray, feat: np.ndarray, v_sub: np.ndarray, u_sub: np.ndarray,
                   w: np.ndarray, keep: np.ndarray | None, dropout: float,
                   tanh_act: np.ndarray, gate_act: np.ndarray):
    """Attention weights and pooled vector of one slide in a training batch.

    xi (m, D) is pooled, its columns feat feed the projections v_sub, u_sub
    (H, F), and keep is the slide's bool (m, H) dropout mask, drawn by the
    caller, or None. The activations backward needs are computed in place in
    tanh_act and gate_act, (m, H) buffers from the caller; the gated output
    and the dropout scale take two more (m, H) arrays. Returns (alpha (m,),
    pooled (D,), tanh_act, gate_act).
    """
    xs = np.take(xi, feat, axis=1)         # (m, F)
    np.matmul(xs, v_sub.T, out=tanh_act)
    np.tanh(tanh_act, out=tanh_act)
    np.matmul(xs, u_sub.T, out=gate_act)
    del xs
    with np.errstate(over="ignore"):      # exp overflows to inf; 1 / (1 + inf) is 0
        np.exp(np.negative(gate_act, out=gate_act), out=gate_act)
    gate_act += 1.0
    np.divide(1.0, gate_act, out=gate_act)
    gated_out, _ = _gated_output(tanh_act, gate_act, keep, dropout)
    logits = gated_out @ w                # (m,)
    alpha, pooled = _softmax_pool(logits, xi)
    return alpha, pooled, tanh_act, gate_act


def _backward_slide(xi: np.ndarray, feat: np.ndarray, tanh_act: np.ndarray,
                    gate_act: np.ndarray, keep: np.ndarray | None, alpha: np.ndarray,
                    d_pooled: np.ndarray, w: np.ndarray, dropout: float):
    """One slide's terms of the attention gradients: (gated_out.T @ d_logits
    (H,), d_pre_t.T @ xs (H, F), d_pre_g.T @ xs (H, F)), from its forward
    cache and d_pooled (D,), the loss gradient at its pooled vector.

    The sampled columns xs, the dropout scale and the gated output are
    rebuilt with the operations forward used. Three (m, H) buffers serve
    every elementwise step, each product in the formulas' order: one holds
    the gated output, then d_pre_t; one d_gated, then d_pre_g in place; one
    the dropout scale, then 1 - tanh_act ** 2, then 1 - gate_act.
    """
    xs = np.take(xi, feat, axis=1)
    gated_out, scratch = _gated_output(tanh_act, gate_act, keep, dropout)
    d_alpha = xi @ d_pooled                 # (m,)
    # softmax Jacobian: d_logits = alpha * (d_alpha - <alpha, d_alpha>)
    d_logits = alpha * (d_alpha - alpha @ d_alpha)
    d_w = gated_out.T @ d_logits
    d_gated = np.outer(d_logits, w, out=np.empty_like(tanh_act))  # (m, H)
    if scratch is not None:
        d_gated *= scratch
    scratch = np.square(tanh_act, out=scratch)
    np.subtract(1.0, scratch, out=scratch)
    d_pre_t = np.multiply(d_gated, gate_act, out=gated_out)
    d_pre_t *= scratch
    d_v = d_pre_t.T @ xs
    d_pre_g = d_gated
    d_pre_g *= tanh_act
    d_pre_g *= gate_act
    d_pre_g *= np.subtract(1.0, gate_act, out=scratch)
    return d_w, d_v, d_pre_g.T @ xs


# The variables that set the BLAS thread count, in the order they are read.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_threads() -> int | None:
    """The first positive integer among BLAS_THREAD_VARS, or None."""
    for var in BLAS_THREAD_VARS:
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if value > 0:
            return value
    return None


def ensemble_workers() -> int:
    """Threads that forward_windows' row tiles and a training step's per-slide
    forward and backward bodies run on: usable CPUs // BLAS threads, at
    least 1. With no BLAS thread variable set, BLAS is taken to use every CPU
    (OpenBLAS's default), which gives 1: threads beside a BLAS that already
    fills the CPUs were slower than one thread."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, cpus // (_blas_threads() or cpus))


@functools.cache
def _worker_pool(workers: int) -> ThreadPoolExecutor:
    """The one pool of the model's threads, made on first use and kept."""
    return ThreadPoolExecutor(workers, thread_name_prefix="slidemil-worker")


def _map(fn: Callable, items: Sequence) -> Iterator:
    """fn over items, yielding results in item order: on the shared pool when
    ensemble_workers() > 1 and there is more than one item, otherwise on the
    calling thread as the results are read. The pool runs at most two items
    per worker ahead of the reader, so results the reader has not taken do
    not pile up. Reading a result re-raises its body's error; closing the
    iterator cancels the items not yet started."""
    workers = ensemble_workers()
    if workers == 1 or len(items) < 2:
        yield from map(fn, items)
        return
    pool = _worker_pool(workers)
    pending = deque()
    try:
        for item in items:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


# Rows of the bag per tile in forward_windows, and the unit of work its
# threads share. A tile's block products are (2H, ROW_TILE) each; at H=256 in
# float32 a ring of four plus the activation buffer is about 1.3 MB, inside a
# 2 MB per-core L2. 64- and 256-row tiles were 10-12% slower on a 2500x1536
# bag (H=256, S=64) on one thread; on two, 64 was 9-16% slower than 128 and
# 256 no faster.
ROW_TILE = 128

MAX_BLOCKS_PER_WINDOW = 16


def _window_blocks(windows) -> list[tuple[tuple[int, int], ...]]:
    """Column blocks [b, e) whose sum makes up each window [start, end).

    The block width g is gcd(width, step) of the first window and the step
    between the first two starts. A window whose start and width are
    multiples of g is split into g-wide blocks; any other window (a clamped
    final window, a lone full-width window) is one block of its own width,
    and so is every window when the split gives more than
    MAX_BLOCKS_PER_WINDOW blocks. That cutoff is timed: on one 2500x1536
    float32 bag with H=256 (one BLAS thread, 2 MB L2), forward_windows with
    block sums against one block per window ran 1.5x faster at S=128
    (2 blocks), 1.7x at S=64 (4), 1.6x at S=32 (8), 1.4x at S=16 (16) and
    0.83x at S=8 (32), where the adds outweigh the products they save.
    """
    start, end = windows[0]
    g = math.gcd(end - start, windows[1][0] - start) if len(windows) > 1 else end - start
    if (end - start) // g > MAX_BLOCKS_PER_WINDOW:
        g = end - start
    return [tuple((b, b + g) for b in range(s, e, g)) if s % g == 0 and (e - s) % g == 0
            else ((s, e),)
            for s, e in windows]


def _glorot(rng: np.random.Generator, shape: tuple, dtype) -> np.ndarray:
    fan_in = shape[-1] if len(shape) > 1 else shape[0]
    fan_out = shape[0] if len(shape) > 1 else 1
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class GatedAttentionMIL:
    """tanh/sigmoid gated attention over patches, weighted mean pool, linear head."""

    def __init__(self, embed_dim: int, hidden_dim: int, n_outputs: int,
                 dropout: float = 0.0, dtype=np.float32):
        if embed_dim < 1 or hidden_dim < 1 or n_outputs < 1:
            raise ValidationError("model dimensions must be >= 1")
        if not 0.0 <= dropout < 1.0:
            raise ValidationError("dropout must lie in [0, 1)")
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.n_outputs = n_outputs
        self.dropout = dropout
        self.dtype = np.dtype(dtype)
        self.params: dict[str, np.ndarray] = {}

    def init_params(self, rng: np.random.Generator) -> None:
        d, h, c = self.embed_dim, self.hidden_dim, self.n_outputs
        w_limit = 1.0 / np.sqrt(h)
        self.params = {
            "attention_v": _glorot(rng, (h, d), self.dtype),
            "attention_u": _glorot(rng, (h, d), self.dtype),
            "attention_w": rng.uniform(-w_limit, w_limit, size=h).astype(self.dtype),
            "head_weight": _glorot(rng, (c, d), self.dtype),
            "head_bias": np.zeros(c, dtype=self.dtype),
        }

    def forward(self, embeddings: np.ndarray, valid_mask: np.ndarray,
                feature_indices: np.ndarray, rng: np.random.Generator | None = None,
                attention_logits: np.ndarray | None = None) -> ForwardResult:
        """Run the aggregator on a stacked batch (n_slides, bag_size, embed_dim).

        feature_indices, a sorted int array, selects the embedding features
        and weight columns the attention projections read; both are gathered
        with it. Dropout applies exactly when rng is given (a training step).
        attention_logits (n_slides, bag_size), the gated projections' output
        computed by the caller for these feature indices, skips the
        projections: only softmax, pooling and the head run, without dropout.
        The backward cache is built exactly when attention_logits is None:
        cache[0] is ("batch", pooled, feature_indices), and each slide adds
        (valid rows, xi, tanh_act, gate_act, keep, alpha), with xi its (m, D)
        valid rows (a view of the batch when it has no padding), tanh_act and
        gate_act the (m, H) activations and keep the bool dropout mask or
        None. backward rebuilds the sampled columns, the dropout scale and
        the gated output from these. Each call draws its dropout masks
        through one (bag_size, H) float64 buffer, all before the per-slide
        bodies run on ensemble_workers() threads.
        The embeddings must be finite; that is checked once, when a SlideBag
        is built, and not here.
        """
        x = np.asarray(embeddings, dtype=self.dtype)
        if x.ndim != 3 or x.shape[2] != self.embed_dim:
            raise ValidationError(f"expected (n, m, {self.embed_dim}) embeddings")
        mask = np.asarray(valid_mask, dtype=bool)
        if mask.shape != x.shape[:2]:
            raise ValidationError("mask shape must match (n_slides, bag_size)")
        feat = np.asarray(feature_indices)
        dropout = self.dropout if rng is not None else 0.0
        need_cache = attention_logits is None
        if need_cache:
            v_sub, u_sub = (self.params[name][:, feat] for name in ("attention_v", "attention_u"))
        else:
            attention_logits = np.asarray(attention_logits, dtype=self.dtype)
            if attention_logits.shape != mask.shape:
                raise ValidationError("attention_logits shape must match (n_slides, bag_size)")
            if rng is not None:
                raise ValidationError("attention_logits serve eval-mode passes without dropout")
        w = self.params["attention_w"]

        n_slides, bag_size, _ = x.shape
        attention = np.zeros((n_slides, bag_size), dtype=self.dtype)
        pooled = np.empty((n_slides, self.embed_dim), dtype=self.dtype)
        valids = [np.flatnonzero(row) for row in mask]
        for i, valid in enumerate(valids):
            if len(valid) == 0:
                raise ValidationError(f"slide {i} has no valid patches")

        def rows(i: int) -> np.ndarray:  # (m, D)
            return x[i] if len(valids[i]) == bag_size else x[i, valids[i]]

        if need_cache:
            # every mask is drawn here, in slide order, so the rng stream does
            # not depend on the workers; a slide's body writes only its rows
            noise = np.empty((bag_size, self.hidden_dim)) if dropout > 0.0 else None
            keeps = [rng.random(out=noise[:len(valid)]) >= dropout if dropout > 0.0 else None
                     for valid in valids]

            # the activations outlive the bodies: taken from the calling
            # thread's heap, not a worker's, they left survival-cox's peak
            # RSS 2 MB lower
            acts = [np.empty((2, len(valid), len(w)), dtype=self.dtype) for valid in valids]

            def slide(i: int) -> tuple:
                xi = rows(i)
                alpha, pooled[i], tanh_act, gate_act = _forward_slide(xi, feat, v_sub, u_sub,
                                                                      w, keeps[i], dropout,
                                                                      *acts[i])
                attention[i, valids[i]] = alpha
                return valids[i], xi, tanh_act, gate_act, keeps[i], alpha

            cache = [("batch", pooled, feat), *_map(slide, range(n_slides))]
        else:
            cache = None
            for i, valid in enumerate(valids):
                alpha, pooled[i] = _softmax_pool(attention_logits[i, valid], rows(i))
                attention[i, valid] = alpha

        outputs = pooled @ self.params["head_weight"].T + self.params["head_bias"]
        return ForwardResult(outputs=outputs, attention=attention, cache=cache)

    def forward_windows(self, embeddings: np.ndarray,
                        windows) -> tuple[np.ndarray, np.ndarray]:
        """Eval-mode outputs (K, n_outputs) and attention (K, N) of one full bag
        (N, D) under each feature window [start, end).

        The bag must be finite, which is checked when its SlideBag is built
        and not again here; it is never copied. Each window's projections
        x[:, window] @ [V; U/2][:, window].T are the sum of its column
        blocks' products (_window_blocks); the bag is walked in ROW_TILE-row
        tiles, spread over ensemble_workers() threads, and in each tile a
        block's product is computed once and kept in a ring while the
        windows that contain it pass. The
        gate uses sigmoid(z) = (1 + tanh(z/2)) / 2, so one tanh covers both
        halves of a product, and the logits
        w @ (tanh(xV) * sigmoid(xU)) are [w/2; w/2] @ [t; t * tanh(xU/2)]
        with t = tanh(xV): one GEMV, no exp, nothing to overflow. Halving is
        exact in binary floating point. Block sums and the tanh form round
        differently from per-window forward(), so outputs differ from it in
        their low bits. forward() then runs softmax, pooling and the head on
        each window's logits.
        """
        x = np.asarray(embeddings, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.embed_dim:
            raise ValidationError(f"expected (n, {self.embed_dim}) embeddings")
        h, n = self.hidden_dim, x.shape[0]
        half = self.dtype.type(0.5)
        w2 = np.concatenate([self.params["attention_w"], self.params["attention_w"]]) * half
        v, u = self.params["attention_v"], self.params["attention_u"]
        plan = _window_blocks(windows)
        # each distinct block of [V; U/2] is built once, without the whole matrix
        block_weights = {b: np.concatenate([v[:, b[0]:b[1]], u[:, b[0]:b[1]] * half])
                         for b in dict.fromkeys(b for blocks in plan for b in blocks)}

        # products are taken as (2H, rows) so the tanh and gate halves are
        # contiguous: on strided (rows, H) halves the in-place passes ran 2x slower
        logits = np.empty((len(plan), n), dtype=self.dtype)

        def tile_logits(t0: int) -> None:
            # a tile has its own buffer and ring and writes only its columns
            xt = x[t0:t0 + ROW_TILE]
            pre = np.empty((2 * h, len(xt)), dtype=self.dtype)
            ring = {}
            for k, blocks in enumerate(plan):
                ring = {b: ring[b] if b in ring else block_weights[b] @ xt[:, b[0]:b[1]].T
                        for b in blocks}
                np.copyto(pre, ring[blocks[0]])
                for b in blocks[1:]:
                    pre += ring[b]
                np.tanh(pre, out=pre)
                pre[h:] *= pre[:h]
                np.matmul(w2, pre, out=logits[k, t0:t0 + len(xt)])

        list(_map(tile_logits, range(0, n, ROW_TILE)))  # re-raises a tile's error

        mask = np.ones((1, n), dtype=bool)
        results = [self.forward(x[None], mask, np.arange(start, end),
                                attention_logits=logits[k][None])
                   for k, (start, end) in enumerate(windows)]
        return (np.concatenate([r.outputs for r in results]),
                np.concatenate([r.attention for r in results]))

    def backward(self, cache: list, d_outputs: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter gradients for the cached forward pass; d_outputs is (n_slides, n_outputs).

        Per slide the cache keeps only tanh_act, gate_act and the bool dropout
        mask (see forward); the sampled columns xs, the dropout scale and the
        gated output are rebuilt by each slide's body (_backward_slide) with
        the operations the forward pass used, and the bodies' products are
        summed in slide order, so the gradients are those of the
        full-activation formulas to the last bit for any worker count.
        """
        _, pooled, feat = cache[0]
        d_out = np.asarray(d_outputs, dtype=self.dtype)
        head_w = self.params["head_weight"]
        w = self.params["attention_w"]

        grads = {name: np.zeros_like(p) for name, p in self.params.items()}
        grads["head_weight"] += d_out.T @ pooled
        grads["head_bias"] += d_out.sum(axis=0)
        d_pooled = d_out @ head_w  # (n, D)

        d_v_sub = np.zeros((len(w), len(feat)), dtype=w.dtype)
        d_u_sub = np.zeros_like(d_v_sub)

        def slide(i: int) -> tuple:
            _, xi, tanh_act, gate_act, keep, alpha = cache[1 + i]
            return _backward_slide(xi, feat, tanh_act, gate_act, keep, alpha, d_pooled[i], w,
                                   self.dropout)

        # the products are added here, in slide order, as the serial loop did
        for d_w, d_v, d_u in _map(slide, range(len(cache) - 1)):
            grads["attention_w"] += d_w
            d_v_sub += d_v
            d_u_sub += d_u

        grads["attention_v"][:, feat] = d_v_sub
        grads["attention_u"][:, feat] = d_u_sub
        return grads


def cross_entropy_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy; returns (loss, d_logits)."""
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp_l = np.exp(shifted)
    probs = exp_l / exp_l.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(exp_l.sum(axis=1, keepdims=True))
    loss = float(-log_probs[np.arange(n), labels].mean())
    d_logits = probs.copy()
    d_logits[np.arange(n), labels] -= 1.0
    return loss, d_logits / n


def mse_loss(preds: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over 1-D predictions; returns (loss, d_preds)."""
    diff = preds - np.asarray(targets, dtype=preds.dtype)
    loss = float(np.mean(diff ** 2))
    return loss, 2.0 * diff / len(diff)


def cox_loss(risk_scores: np.ndarray, times: np.ndarray,
             events: np.ndarray) -> tuple[float, np.ndarray]:
    """Negative Cox partial log-likelihood, averaged over the E events, with
    ties handled by keeping tied times inside each other's risk set. From
    metrics.breslow_table: the loss is (sum_s d(s) log R(s) - sum_events eta) / E
    and its gradient Breslow's martingale residual (exp(eta) H_0(t) - delta) / E,
    where exp(eta + log H_0(t)) <= E cannot overflow."""
    eta = np.asarray(risk_scores, dtype=np.float64)
    events = np.asarray(events).astype(int)
    n_events = int(events.sum())
    if n_events == 0:
        raise ValidationError("Cox loss needs at least one event in the batch")
    table = breslow_table(times, events, eta)
    loss = (table.deaths @ table.log_at_risk - eta[events == 1].sum()) / n_events
    d_eta = (np.exp(eta + table.log_cum_hazard_at(times)) - events) / n_events
    return float(loss), d_eta.astype(risk_scores.dtype)


def _perturbed_losses(task: str, params: dict[str, np.ndarray], x, mask, feat,
                      targets) -> np.ndarray:
    """Batch losses of a stack of parameter sets in one vectorized pass.

    Every tensor carries a leading axis of length P or 1 (shared); returns the
    (P,) losses that forward() and the loss functions would give one by one.
    Projections and gating run in float64: an entry a perturbation does not
    reach comes out bit-identical for +eps and -eps, so its rounding cancels
    in the difference. The sums after it run in np.longdouble, because a
    gradient near 1e-7 moves the loss by 1e-12 of its value and float64
    rounding there reaches the 1e-4 tolerance (extended precision on x86;
    where longdouble is float64 this is the plain float64 pass).
    """
    v = np.swapaxes(params["attention_v"][..., feat], -1, -2)  # (P, F, H)
    u = np.swapaxes(params["attention_u"][..., feat], -1, -2)
    w = params["attention_w"][:, None, :]                      # (P, 1, H)
    head_w = np.swapaxes(params["head_weight"], -1, -2)        # (P, D, C)
    outputs = []
    for i in range(x.shape[0]):
        xi = x[i, mask[i]]                                   # (m, D)
        xs = xi[:, feat]
        gated = np.tanh(xs @ v) / (1.0 + np.exp(-(xs @ u)))  # (P, m, H)
        gated = gated.astype(np.longdouble)
        logits = (gated * w).sum(axis=-1)                    # (P, m)
        alpha = np.exp(logits - logits.max(axis=-1, keepdims=True))
        alpha /= alpha.sum(axis=-1, keepdims=True)
        outputs.append((alpha @ xi)[:, None, :] @ head_w)    # (P, 1, C)
    out = np.concatenate(outputs, axis=1) + params["head_bias"][:, None, :]  # (P, n, C)
    if task == "classification":
        shifted = out - out.max(axis=-1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        return -log_probs[:, np.arange(len(targets)), targets].mean(axis=-1)
    eta = out[..., 0]                                        # (P, n)
    if task == "regression":
        return ((eta - targets) ** 2).mean(axis=-1)
    times, events = targets
    loss = 0.0
    for i in np.flatnonzero(events):
        at_risk = eta[:, times >= times[i]]
        shift = at_risk.max(axis=-1)
        loss = loss + shift + np.log(np.exp(at_risk - shift[:, None]).sum(axis=-1)) - eta[:, i]
    return loss / events.sum()
