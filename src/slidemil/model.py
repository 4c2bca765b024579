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
the calling thread). forward draws slide i's dropout mask on the calling
thread as slide i is handed out, in slide order, so the draws overlap the
bodies already running and the generator's stream does not depend on the
workers; each forward body writes only its own pooled row, attention row
and rows of the step's sigmoid-branch array. Each backward body returns
its slide's three products for the attention gradients, and the calling
thread adds them in slide order, the floating-point operations of a serial
loop. The step is therefore bitwise the same for any worker count and
schedule. Per slide the step keeps only the sigmoid branch and the
dropout mask packed to bits; backward recomputes the tanh branch with the
call forward made. The bodies work in place, in their own buffers and a
few (m, H) scratch arrays, so two slides in flight add little to a step's
memory.

The window ensemble (forward_windows) reads the bag once for all K windows.
It walks the bag in row tiles (window_tiles). In each tile, each window's
projections are sums of column-block products, each block's product is
computed once and shared by every window that contains it, and the tile
then pools its own rows under every window: their softmax weights, their
weighted mean and the log-sum-exp of their logits. Each window's finish is
one forward() call over the T tiles' pooled vectors, with their
log-sum-exps as the logits, which equals pooling over the whole bag (_softmax_pool). A single
bag's tiles run on ensemble_workers() threads: usable CPUs // BLAS
threads, so a BLAS that already uses every CPU keeps the tiles on the
calling thread. A pass over many bags (window_pass: validation, train's
Breslow fit and predict) builds the weight blocks once and runs each bag's
tiles serially on one worker, a bag per worker, while the calling thread
calls the caller's finish on each bag in order, from its tile summaries
alone. The pool's threads mark themselves as they start, and work that an
item nests runs on the item's own thread (_ahead), so there is one worker
budget. Each tile writes only its own slots, so the outputs are bitwise
the same for any worker count and schedule.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import threading
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .metrics import breslow_table, per_slide

PARAM_NAMES = ("attention_v", "attention_u", "attention_w", "head_weight", "head_bias")


@dataclass
class ForwardResult:
    outputs: np.ndarray    # (n_slides, n_outputs)
    attention: np.ndarray  # (n_slides, bag_size); exactly 0 at padded rows
    cache: list | None


def _check_finite(values: np.ndarray, site: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise ValidationError(f"non-finite values in {site}")
    return values


def _finite_product(a: np.ndarray, b: np.ndarray, site: str) -> np.ndarray:
    """a @ b, checked by its values and not by the FPU's invalid flag, which
    BLAS has left set on finite results (tools/fpe_stress.py)."""
    with np.errstate(invalid="ignore"):
        out = a @ b
    return _check_finite(out, site)


def _softmax_pool(logits: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Softmax weights alpha over the last axis of logits, (m,) or (K, m), the
    pooled alpha @ xi, (D,) or (K, D), and the logits' log-sum-exp, a scalar
    or (K,).

    Pooling m rows equals pooling the pooled vectors of any split of them
    into blocks, with each block's log-sum-exp as its logit; the block's own
    weights times the weight of its block are the rows' weights. The window
    ensemble pools that way (GatedAttentionMIL.forward_windows)."""
    top = logits.max(axis=-1, keepdims=True)
    exp_l = np.exp(logits - top)
    total = exp_l.sum(axis=-1, keepdims=True)
    alpha = exp_l / total
    return alpha, alpha @ xi, (top + np.log(total))[..., 0]


def _tanh_branch(xs: np.ndarray, v_sub: np.ndarray) -> np.ndarray:
    """tanh(xs @ v_sub.T) (m, H) in a new array. forward computes it and
    backward recomputes it with this one call on the same inputs, so both
    hold the same bits and forward need not keep it."""
    out = xs @ v_sub.T
    return np.tanh(out, out=out)


def _gated_output(tanh_act: np.ndarray, gate_act: np.ndarray, keep: np.ndarray | None,
                  dropout: float, out: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray | None]:
    """Gated activations tanh_act * gate_act (m, H), in out or a new array,
    with the dropout mask keep applied, and the scale keep / (1 - dropout)
    that applies it, one new (m, H) array (None when keep is None). forward
    and backward both build them here, so backward's rebuild is
    bit-identical to the forward pass."""
    out = np.multiply(tanh_act, gate_act, out=out)
    if keep is None:
        return out, None
    scale = out.dtype.type(1.0) / out.dtype.type(1.0 - dropout)
    drop = np.multiply(keep, scale, dtype=out.dtype)  # 0 or the scale, as keep / (1 - dropout)
    out *= drop
    return out, drop


def _forward_slide(xi: np.ndarray, feat: np.ndarray, v_sub: np.ndarray, u_sub: np.ndarray,
                   w: np.ndarray, keep: np.ndarray | None, dropout: float,
                   gate_act: np.ndarray):
    """Attention weights and pooled vector of one slide in a training batch.

    xi (m, D) is pooled, its columns feat feed the projections v_sub, u_sub
    (H, F), and keep is the slide's bool (m, H) dropout mask, drawn by the
    caller, or None. The sigmoid branch, which backward needs, is computed
    in place in gate_act, an (m, H) buffer from the caller; the tanh branch
    is computed in a buffer of the body's own, which then holds the gated
    output, and under dropout the scale takes one more (m, H) array.
    Returns (alpha (m,), pooled (D,), keep packed to bits along H by
    np.packbits, or None).
    """
    xs = np.take(xi, feat, axis=1)         # (m, F)
    gated_out = _tanh_branch(xs, v_sub)
    np.matmul(xs, u_sub.T, out=gate_act)
    del xs
    with np.errstate(over="ignore"):      # exp overflows to inf; 1 / (1 + inf) is 0
        np.exp(np.negative(gate_act, out=gate_act), out=gate_act)
    gate_act += 1.0
    np.divide(1.0, gate_act, out=gate_act)
    _gated_output(gated_out, gate_act, keep, dropout, out=gated_out)
    logits = _finite_product(gated_out, w, "the attention logits")  # (m,)
    alpha, pooled, _ = _softmax_pool(logits, xi)
    return alpha, pooled, None if keep is None else np.packbits(keep, axis=-1)


def _backward_slide(xi: np.ndarray, feat: np.ndarray, v_sub: np.ndarray,
                    gate_act: np.ndarray, keep_bits: np.ndarray | None, alpha: np.ndarray,
                    d_pooled: np.ndarray, w: np.ndarray, dropout: float):
    """One slide's terms of the attention gradients: (gated_out.T @ d_logits
    (H,), d_pre_t.T @ xs (H, F), d_pre_g.T @ xs (H, F)), from its forward
    cache and d_pooled (D,), the loss gradient at its pooled vector.

    The sampled columns xs, the tanh branch (_tanh_branch), the dropout
    mask (unpacked from keep_bits), its scale and the gated output are
    rebuilt with the operations forward used. Four (m, H) buffers serve
    every elementwise step, each product in the formulas' order: the tanh
    branch; one holds the gated output, then d_pre_t; one d_gated, then
    d_pre_g in place; one the dropout scale, then 1 - tanh_act ** 2, then
    1 - gate_act.
    """
    xs = np.take(xi, feat, axis=1)
    tanh_act = _tanh_branch(xs, v_sub)
    keep = (None if keep_bits is None else
            np.unpackbits(keep_bits, axis=-1, count=len(w)).view(bool))
    gated_out, scratch = _gated_output(tanh_act, gate_act, keep, dropout)
    del keep
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
    """Threads that a window pass's bags, a single bag's row tiles and a
    training step's per-slide forward and backward bodies run on: usable CPUs // BLAS threads, at
    least 1. With no BLAS thread variable set, BLAS is taken to use every CPU
    (OpenBLAS's default), which gives 1: threads beside a BLAS that already
    fills the CPUs were slower than one thread."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, cpus // (_blas_threads() or cpus))


# on_pool is True on the pool's threads, each of which sets it as it starts
_thread = threading.local()


@functools.cache
def _worker_pool(workers: int) -> ThreadPoolExecutor:
    """The one pool of the model's threads, made on first use and kept."""
    return ThreadPoolExecutor(workers, thread_name_prefix="slidemil-worker",
                              initializer=setattr, initargs=(_thread, "on_pool", True))


def _ahead(fn: Callable, items: Iterable,
           count: int | None = None) -> Iterator[Callable[[], object]]:
    """One zero-argument callable per item, in item order, that returns
    fn(item) and re-raises its error. items may be a lazy source of count
    items (a Sequence gives its own length): the calling thread takes each
    item from it as the item is handed out, one at a time, in order. The
    items run on the shared pool when ensemble_workers() > 1, there is more
    than one item and the caller is not itself one of the pool's threads,
    which mark themselves as they start (_worker_pool); otherwise each runs
    on the calling thread when its callable is called. A pool item never
    submits to the pool, so there is one worker budget and no wait on a
    queue the waiting thread would have to drain. The pool runs
    at most two items per worker ahead of the item last handed out, so
    results the reader has not taken do not pile up. Closing the iterator
    cancels the items not yet started."""
    workers = ensemble_workers()
    n_items = len(items) if count is None else count
    if workers == 1 or n_items < 2 or getattr(_thread, "on_pool", False):
        for item in items:
            yield functools.partial(fn, item)
        return
    pool = _worker_pool(workers)
    pending = deque()
    try:
        for item in items:
            if len(pending) == 2 * workers:
                yield pending.popleft().result
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result
    finally:
        for future in pending:
            future.cancel()


def _map(fn: Callable, items: Iterable, count: int | None = None) -> Iterator:
    """fn over items, yielding results in item order, scheduled by _ahead.
    Reading a result re-raises its body's error; closing the iterator
    cancels the items not yet started."""
    with contextlib.closing(_ahead(fn, items, count)) as results:
        for result in results:
            yield result()


# Rows of the bag per tile in window_tiles, and the unit of work a single
# bag's threads share. A tile's block products are (2H, ROW_TILE) each; at
# H=256 in float32 a ring of four plus the activation buffer is about 1.3 MB,
# inside a 2 MB per-core L2. 64- and 256-row tiles were 10-12% slower on a 2500x1536
# bag (H=256, S=64) on one thread; on two, 64 was 9-16% slower than 128 and
# 256 no faster.
ROW_TILE = 128

MAX_BLOCKS_PER_WINDOW = 16


@dataclass(frozen=True)
class ChunkWindows:
    """The window grid: feature windows [start, end) of width H (width) at
    stride S over D (embed_dim) features, starting at 0, S, 2S, ... D-H, plus
    a clamped final window at D-H when (D-H) % S != 0."""
    embed_dim: int
    width: int
    stride: int

    def __post_init__(self):
        if self.width < 1:
            raise ValidationError(f"window width must be >= 1, got {self.width}")
        if self.width > self.embed_dim:
            raise ValidationError(f"window width {self.width} exceeds embed_dim {self.embed_dim}")
        if self.stride < 1:
            raise ValidationError("stride must be >= 1")

    @property
    def n_chunks(self) -> int:
        """K, counted without listing the windows."""
        span = self.embed_dim - self.width
        return span // self.stride + 1 + (span % self.stride != 0)

    @functools.cached_property
    def windows(self) -> tuple[tuple[int, int], ...]:
        last = self.embed_dim - self.width
        return tuple((s, s + self.width)
                     for s in (min(k * self.stride, last) for k in range(self.n_chunks)))

    @functools.cached_property
    def blocks(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Column blocks [b, e) whose sum makes up each window, in window order.

        The block width g is gcd(width, step), where step = min(stride,
        embed_dim - width) is the distance between the first two starts (0
        when there is one window, so g = width). A window whose start is a
        multiple of g is split into g-wide blocks; any other window (a clamped
        final window) is one block of its own width, and so is every window
        when the split gives more than MAX_BLOCKS_PER_WINDOW. That cutoff is timed:
        on one 2500x1536 float32 bag with H=256 (one BLAS thread, 2 MB L2),
        forward_windows with block sums against one block per window ran
        1.5x faster at S=128 (2 blocks), 1.7x at S=64 (4), 1.6x at S=32 (8),
        1.4x at S=16 (16) and 0.83x at S=8 (32), where the adds outweigh the
        products they save.
        """
        h = self.width
        g = math.gcd(h, min(self.stride, self.embed_dim - h))
        if h // g > MAX_BLOCKS_PER_WINDOW:
            g = h
        return tuple(tuple((b, b + g) for b in range(s, e, g)) if s % g == 0 else ((s, e),)
                     for s, e in self.windows)


class WindowWeights(NamedTuple):
    """GatedAttentionMIL.window_weights: the grid, its distinct column blocks
    of [V; U/2] (2H, width), keyed by block, and [w/2; w/2] (2H,)."""
    windows: ChunkWindows
    blocks: dict
    w2: np.ndarray


class TileSummaries(NamedTuple):
    """One bag's tiles under the K windows of a grid (window_tiles): per
    window k and tile t, the tile's pooled rows pooled[k, t] (D,) and its
    logits' log-sum-exp lse[k, t]; alpha[k] (N,) holds each row's softmax
    weight within its tile."""
    pooled: np.ndarray  # (K, T, D)
    lse: np.ndarray     # (K, T)
    alpha: np.ndarray   # (K, N)


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
        cache[0] is (pooled, feature_indices), and each slide adds
        (valid rows, xi, gate_act, keep_bits, alpha), with xi its (m, D)
        valid rows (a view of the batch when it has no padding), gate_act
        its (m, H) sigmoid branch, a view of one (n_slides, bag_size, H)
        array allocated per call, and keep_bits its bool dropout mask packed
        along H by np.packbits, or None: H floats and H bits per row.
        backward recomputes the tanh branch and rebuilds the sampled
        columns, the dropout scale and the gated output from these. Slide
        i's mask is drawn on the calling thread, through one (bag_size, H)
        float64 buffer, as slide i is handed to the ensemble_workers()
        threads, so the draws overlap the bodies and run in slide order.
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
            # the sigmoid branches outlive the bodies: one array per step,
            # taken from the calling thread's heap and not a worker's
            gates = np.empty((n_slides, bag_size, len(w)), dtype=self.dtype)
            noise = np.empty((bag_size, len(w))) if dropout > 0.0 else None

            def draws() -> Iterator[tuple]:
                # taken on the calling thread, in slide order, as each slide
                # is handed out, so the stream does not depend on the workers
                for i, valid in enumerate(valids):
                    yield i, (rng.random(out=noise[:len(valid)]) >= dropout
                              if dropout > 0.0 else None)

            def slide(item: tuple) -> tuple:
                i, keep = item
                xi, gate_act = rows(i), gates[i, :len(valids[i])]
                alpha, pooled[i], keep_bits = _forward_slide(xi, feat, v_sub, u_sub, w, keep,
                                                             dropout, gate_act)
                attention[i, valids[i]] = alpha
                return valids[i], xi, gate_act, keep_bits, alpha

            cache = [(pooled, feat), *_map(slide, draws(), n_slides)]
        else:
            cache = None
            for i, valid in enumerate(valids):
                alpha, pooled[i], _ = _softmax_pool(attention_logits[i, valid], rows(i))
                attention[i, valid] = alpha

        outputs = (_finite_product(pooled, self.params["head_weight"].T, "the head outputs")
                   + self.params["head_bias"])
        return ForwardResult(outputs=outputs, attention=attention, cache=cache)

    def window_weights(self, windows: ChunkWindows) -> WindowWeights:
        """The window ensemble's weights under the current parameters: each
        distinct column block of [V; U/2] in the grid's block plan, built
        without the whole matrix, and [w/2; w/2]. A pass over many bags
        builds them once (window_pass)."""
        half = self.dtype.type(0.5)
        v, u = self.params["attention_v"], self.params["attention_u"]
        blocks = {b: np.concatenate([v[:, b[0]:b[1]], u[:, b[0]:b[1]] * half])
                  for b in dict.fromkeys(b for blocks in windows.blocks for b in blocks)}
        w2 = np.concatenate([self.params["attention_w"], self.params["attention_w"]]) * half
        return WindowWeights(windows, blocks, w2)

    def window_tiles(self, embeddings: np.ndarray, weights: WindowWeights) -> TileSummaries:
        """The tile summaries of one full bag (N, D) under every window of
        weights' grid: the bag is walked in ROW_TILE-row tiles, spread by _map
        over ensemble_workers() threads, and each tile writes only its own
        slots.

        The bag must be finite, which is checked when its SlideBag is built
        and not again here; it is never copied. Each window's projections
        x[:, window] @ [V; U/2][:, window].T are the sum of its column
        blocks' products, in the block plan the grid builds once
        (ChunkWindows.blocks); in each tile a block's product is computed
        once and kept in a ring while the windows that contain it pass. The
        gate uses sigmoid(z) = (1 + tanh(z/2)) / 2, so one tanh covers both
        halves of a product, and the logits w @ (tanh(xV) * sigmoid(xU)) are
        [w/2; w/2] @ [t; t * tanh(xU/2)] with t = tanh(xV): one GEMV, no
        exp, nothing to overflow. Halving is exact in binary floating point.
        Each tile checks its (K, rows) logits once by their values, and
        raises ValidationError when one is not finite. The tile then pools
        its own rows under all K windows at once (_softmax_pool over its
        logits: one (K, rows) @ (rows, D) GEMM while the tile is still in
        cache).
        """
        x = np.asarray(embeddings, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.embed_dim:
            raise ValidationError(f"expected (n, {self.embed_dim}) embeddings")
        h, n = self.hidden_dim, x.shape[0]
        windows, block_weights, w2 = weights
        plan = windows.blocks
        n_tiles = -(-n // ROW_TILE)
        pooled = np.empty((len(plan), n_tiles, self.embed_dim), dtype=self.dtype)
        lse = np.empty((len(plan), n_tiles), dtype=self.dtype)
        alpha = np.empty((len(plan), n), dtype=self.dtype)

        # products are taken as (2H, rows) so the tanh and gate halves are
        # contiguous: on strided (rows, H) halves the in-place passes ran 2x slower
        def tile(j: int) -> None:
            # a tile has its own buffers and ring and writes only its slots
            rows = slice(j * ROW_TILE, (j + 1) * ROW_TILE)
            xt = x[rows]
            pre = np.empty((2 * h, len(xt)), dtype=self.dtype)
            logits = np.empty((len(plan), len(xt)), dtype=self.dtype)
            ring = {}
            # checked by the logits' values, not the FPU's invalid flag (_finite_product)
            with np.errstate(invalid="ignore"):
                for k, blocks in enumerate(plan):
                    ring = {b: ring[b] if b in ring else block_weights[b] @ xt[:, b[0]:b[1]].T
                            for b in blocks}
                    np.copyto(pre, ring[blocks[0]])
                    for b in blocks[1:]:
                        pre += ring[b]
                    np.tanh(pre, out=pre)
                    pre[h:] *= pre[:h]
                    np.matmul(w2, pre, out=logits[k])
            _check_finite(logits, "the attention logits")
            alpha[:, rows], pooled[:, j], lse[:, j] = _softmax_pool(logits, xt)

        list(_map(tile, range(n_tiles)))  # re-raises a tile's error
        return TileSummaries(pooled, lse, alpha)

    def window_pass(self, bags: Sequence, windows: ChunkWindows,
                    finish: Callable[[object, Callable[[], TileSummaries]], object]) -> list:
        """[finish(bag, tiles) for each bag], in bag order, each called on
        the calling thread. A bag is anything with an (N, D) embeddings
        attribute, as a dataio.SlideBag; tiles is a zero-argument callable
        that waits for the bag's tile summaries (window_tiles) under weights
        built once for the pass, and re-raises its tiles' error. Each bag's
        embeddings are read once, on the worker that runs its tiles
        serially, so a bag read from a file is mapped only while its tiles
        run. The bags spread over ensemble_workers() threads at most two per
        worker ahead of the bag last finished (_ahead); a single bag runs on
        the calling thread, its tiles spread over the workers. When a finish
        raises, the bags not yet started are cancelled. Validation, train's
        Breslow fit and predict each run one pass over their split, with a
        finish that calls inference.ensemble_outputs or a predict_*."""
        weights = self.window_weights(windows)
        with contextlib.closing(_ahead(lambda bag: self.window_tiles(bag.embeddings, weights),
                                       bags)) as tiles:
            return [finish(bag, get) for bag, get in zip(bags, tiles)]

    def forward_windows(self, embeddings: np.ndarray, windows: ChunkWindows,
                        tiles: Callable[[], TileSummaries] | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Eval-mode outputs (K, n_outputs) and attention (K, N) of one full bag
        (N, D) under each feature window [start, end) of the grid.

        tiles, a callable that returns the bag's tile summaries (the one a
        window_pass hands its finish), waits for them, and embeddings is not
        read; without it they are computed here (window_tiles). Each window
        then runs forward() once, on the calling thread: softmax, pooling and
        the head over the T tiles' pooled rows, with the tiles' log-sum-exps
        as the logits. A row's attention is its weight in its tile times its
        tile's weight. Block sums, the tanh form and pooling by tiles round
        differently from per-window forward() on the bag, so outputs differ
        from it in their low bits.
        """
        summary = (self.window_tiles(embeddings, self.window_weights(windows))
                   if tiles is None else tiles())
        n_tiles, n = summary.lse.shape[1], summary.alpha.shape[1]
        mask = np.ones((1, n_tiles), dtype=bool)
        results = [self.forward(summary.pooled[k][None], mask, np.arange(start, end),
                                attention_logits=summary.lse[k][None])
                   for k, (start, end) in enumerate(windows.windows)]
        tile_weights = np.concatenate([r.attention for r in results])  # (K, T)
        attention = summary.alpha * np.repeat(tile_weights, ROW_TILE, axis=1)[:, :n]
        return np.concatenate([r.outputs for r in results]), attention

    def backward(self, cache: list, d_outputs: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter gradients for the cached forward pass; d_outputs is (n_slides, n_outputs).

        Per slide the cache keeps only the sigmoid branch and the packed
        dropout mask (see forward); the sampled columns xs, the tanh branch,
        the dropout scale and the gated output are rebuilt by each slide's
        body (_backward_slide) with the operations the forward pass used,
        on the model's parameters, which must be those forward read, and the
        bodies' products are summed in slide order, so the gradients are
        those of the full-activation formulas to the last bit for any worker
        count.
        """
        pooled, feat = cache[0]
        d_out = np.asarray(d_outputs, dtype=self.dtype)
        head_w = self.params["head_weight"]
        w = self.params["attention_w"]

        grads = {name: np.zeros_like(p) for name, p in self.params.items()}
        grads["head_weight"] += d_out.T @ pooled
        grads["head_bias"] += d_out.sum(axis=0)
        d_pooled = d_out @ head_w  # (n, D)

        v_sub = self.params["attention_v"][:, feat]
        d_v_sub = np.zeros((len(w), len(feat)), dtype=w.dtype)
        d_u_sub = np.zeros_like(d_v_sub)

        def slide(i: int) -> tuple:
            _, xi, gate_act, keep_bits, alpha = cache[1 + i]
            return _backward_slide(xi, feat, v_sub, gate_act, keep_bits, alpha, d_pooled[i], w,
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
    _, labels = per_slide(logits[:, 0], labels, dtypes=(None, int))  # a label per row
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
    preds, targets = per_slide(preds, targets, dtypes=(None, preds.dtype))
    diff = preds - targets
    loss = float(np.mean(diff ** 2))
    return loss, 2.0 * diff / len(diff)


def cox_loss(risk_scores: np.ndarray, times: np.ndarray,
             events: np.ndarray) -> tuple[float, np.ndarray]:
    """Negative Cox partial log-likelihood, averaged over the E events, with
    ties handled by keeping tied times inside each other's risk set. From
    metrics.breslow_table: the loss is (sum_s d(s) log R(s) - sum_events eta) / E
    and its gradient Breslow's martingale residual (exp(eta) H_0(t) - delta) / E,
    where exp(eta + log H_0(t)) <= E cannot overflow."""
    eta, times, events = per_slide(risk_scores, times, events,
                                   dtypes=(np.float64, np.float64, int))
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
