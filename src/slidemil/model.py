"""Gated-attention bag aggregator with a hand-derived backward pass.

The forward pass gathers each slide's valid rows before any reduction over
the patch axis, so appending padded rows cannot perturb attention scores or
pooled features even at the last bit; a slide without padding is used as a
view. Attention projections operate on a column subspace of the weight
matrices (the sampled feature indices, or a contiguous feature window); the
pooled representation and the output head always use the full embedding.
One kernel, _gated_attention, serves training batches and forward().

The window ensemble (forward_windows) computes the attention logits of all
windows in one pass over the bag: each window's projections are sums of
column-block products, each block's product is computed once per row tile
and shared by every window that contains it, and forward() then runs
softmax, pooling and the head on the given logits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .sampling import FeatureIndexSet

PARAM_NAMES = ("attention_v", "attention_u", "attention_w", "head_weight", "head_bias")


@dataclass
class ForwardResult:
    outputs: np.ndarray    # (n_slides, n_outputs)
    attention: np.ndarray  # (n_slides, bag_size); exactly 0 at padded rows
    cache: list | None


def _as_index_array(feature_indices) -> np.ndarray:
    if isinstance(feature_indices, FeatureIndexSet):
        return feature_indices.indices
    return np.asarray(feature_indices)


def _contiguous_span(feat: np.ndarray) -> slice | None:
    """The slice equal to feat when it is a run of consecutive indices, else None."""
    lo = feat[0]
    if feat[-1] - lo + 1 == len(feat) and (np.diff(feat) == 1).all():
        return slice(lo, lo + len(feat))
    return None


def _softmax_pool(logits: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Attention weights (m,) from logits (m,) and the pooled vector alpha @ xi."""
    exp_l = np.exp(logits - logits.max())
    alpha = exp_l / exp_l.sum()
    return alpha, alpha @ xi


def _gated_attention(xi: np.ndarray, xs: np.ndarray, v_sub: np.ndarray, u_sub: np.ndarray,
                     w: np.ndarray, dropout: float = 0.0,
                     rng: np.random.Generator | None = None):
    """Attention weights and pooled vector of one slide.

    xi (m, D) is pooled, xs (m, F) feeds the projections v_sub, u_sub (H, F).
    Returns (alpha (m,), pooled (D,), activations kept for the backward pass).
    """
    tanh_act = np.tanh(xs @ v_sub.T)      # (m, H)
    with np.errstate(over="ignore"):      # exp overflows to inf; 1 / (1 + inf) is 0
        gate_act = 1.0 / (1.0 + np.exp(-(xs @ u_sub.T)))
    gated = tanh_act * gate_act
    if dropout > 0.0:
        keep = (rng.random(gated.shape) >= dropout)
        drop = keep.astype(gated.dtype) / gated.dtype.type(1.0 - dropout)
        gated_out = gated * drop
    else:
        drop = None
        gated_out = gated
    logits = gated_out @ w                # (m,)
    alpha, pooled = _softmax_pool(logits, xi)
    return alpha, pooled, (tanh_act, gate_act, drop, gated_out)


# Rows of the bag per tile in forward_windows. A tile's block products are
# (2H, ROW_TILE) each; at H=256 in float32 a ring of four plus the activation
# buffer is about 1.3 MB, inside a 2 MB per-core L2. 64- and 256-row tiles
# were 10-12% slower on a 2500x1536 bag (H=256, S=64).
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

    def forward(self, embeddings: np.ndarray, valid_mask: np.ndarray, feature_indices,
                training: bool = False, rng: np.random.Generator | None = None,
                need_cache: bool = False, check_finite: bool = True,
                attention_logits: np.ndarray | None = None) -> ForwardResult:
        """Run the aggregator on a stacked batch (n_slides, bag_size, embed_dim).

        check_finite=False skips the scan for non-finite values, for callers
        that have scanned the same embeddings already. attention_logits
        (n_slides, bag_size), the gated projections' output computed by the
        caller for these feature indices, skips the projections: only
        softmax, pooling and the head run (eval mode, no cache).
        """
        x = np.asarray(embeddings, dtype=self.dtype)
        if x.ndim != 3 or x.shape[2] != self.embed_dim:
            raise ValidationError(f"expected (n, m, {self.embed_dim}) embeddings")
        if check_finite and not np.all(np.isfinite(x)):
            raise ValidationError("embeddings contain non-finite values")
        mask = np.asarray(valid_mask, dtype=bool)
        if mask.shape != x.shape[:2]:
            raise ValidationError("mask shape must match (n_slides, bag_size)")
        feat = _as_index_array(feature_indices)
        use_dropout = training and self.dropout > 0.0
        if use_dropout and rng is None:
            raise ValidationError("training-mode dropout needs an rng")
        dropout = self.dropout if use_dropout else 0.0
        if attention_logits is not None:
            attention_logits = np.asarray(attention_logits, dtype=self.dtype)
            if attention_logits.shape != mask.shape:
                raise ValidationError("attention_logits shape must match (n_slides, bag_size)")
            if use_dropout or need_cache:
                raise ValidationError("attention_logits serve eval-mode passes without a cache")

        # a contiguous window is sliced, never gathered; its weight columns are
        # copied because a strided weight view changes the GEMM's low bits
        span = _contiguous_span(feat)
        if attention_logits is None:
            v_sub, u_sub = (self.params[name][:, feat] if span is None
                            else np.ascontiguousarray(self.params[name][:, span])
                            for name in ("attention_v", "attention_u"))
        w = self.params["attention_w"]

        n_slides, bag_size, _ = x.shape
        attention = np.zeros((n_slides, bag_size), dtype=self.dtype)
        pooled = np.empty((n_slides, self.embed_dim), dtype=self.dtype)
        cache = [] if need_cache else None

        for i in range(n_slides):
            valid = np.flatnonzero(mask[i])
            if len(valid) == 0:
                raise ValidationError(f"slide {i} has no valid patches")
            xi = x[i] if len(valid) == bag_size else x[i, valid]  # (m, D)
            if attention_logits is None:
                xs = xi[:, span] if span is not None else np.take(xi, feat, axis=1)
                alpha, pooled[i], acts = _gated_attention(xi, xs, v_sub, u_sub, w, dropout, rng)
                if need_cache:
                    cache.append((valid, xi, xs, *acts, alpha))
            else:
                alpha, pooled[i] = _softmax_pool(attention_logits[i, valid], xi)
            attention[i, valid] = alpha

        outputs = pooled @ self.params["head_weight"].T + self.params["head_bias"]
        if need_cache:
            cache = [("batch", pooled, feat)] + cache
        return ForwardResult(outputs=outputs, attention=attention, cache=cache)

    def forward_windows(self, embeddings: np.ndarray,
                        windows) -> tuple[np.ndarray, np.ndarray]:
        """Eval-mode outputs (K, n_outputs) and attention (K, N) of one full bag
        (N, D) under each feature window [start, end).

        The bag is scanned for non-finite values once and never copied. Each
        window's projections x[:, window] @ [V; U/2][:, window].T are the sum
        of its column blocks' products (_window_blocks); the bag is walked in
        ROW_TILE-row tiles, and in each tile a block's product is computed
        once and kept in a ring while the windows that contain it pass. The
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
        if not np.all(np.isfinite(x)):
            raise ValidationError("embeddings contain non-finite values")
        h, n = self.hidden_dim, x.shape[0]
        half = self.dtype.type(0.5)
        w2 = np.concatenate([self.params["attention_w"], self.params["attention_w"]]) * half
        proj = np.concatenate([self.params["attention_v"], self.params["attention_u"] * half])
        plan = _window_blocks(windows)
        block_weights = {b: np.ascontiguousarray(proj[:, b[0]:b[1]])
                         for blocks in plan for b in blocks}  # (2H, width) each

        # products are taken as (2H, rows) so the tanh and gate halves are
        # contiguous: on strided (rows, H) halves the in-place passes ran 2x slower
        logits = np.empty((len(plan), n), dtype=self.dtype)
        for t0 in range(0, n, ROW_TILE):
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

        mask = np.ones((1, n), dtype=bool)
        results = [self.forward(x[None], mask, np.arange(start, end), check_finite=False,
                                attention_logits=logits[k][None])
                   for k, (start, end) in enumerate(windows)]
        return (np.concatenate([r.outputs for r in results]),
                np.concatenate([r.attention for r in results]))

    def backward(self, cache: list, d_outputs: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter gradients for the cached forward pass; d_outputs is (n_slides, n_outputs)."""
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
        for i, (valid, xi, xs, tanh_act, gate_act, drop, gated_out, alpha) in enumerate(cache[1:]):
            dhi = d_pooled[i]                       # (D,)
            d_alpha = xi @ dhi                      # (m,)
            # softmax Jacobian: d_logits = alpha * (d_alpha - <alpha, d_alpha>)
            d_logits = alpha * (d_alpha - alpha @ d_alpha)
            grads["attention_w"] += gated_out.T @ d_logits
            d_gated_out = np.outer(d_logits, w)     # (m, H)
            d_gated = d_gated_out if drop is None else d_gated_out * drop
            d_pre_t = d_gated * gate_act * (1.0 - tanh_act ** 2)
            d_pre_g = d_gated * tanh_act * gate_act * (1.0 - gate_act)
            d_v_sub += d_pre_t.T @ xs
            d_u_sub += d_pre_g.T @ xs

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
    """Negative Cox partial log-likelihood, averaged over events, with ties
    handled by keeping tied times inside each other's risk set."""
    eta = np.asarray(risk_scores, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events).astype(int)
    n_events = int(events.sum())
    if n_events == 0:
        raise ValidationError("Cox loss needs at least one event in the batch")
    loss = 0.0
    d_eta = np.zeros_like(eta)
    for i in np.flatnonzero(events):
        at_risk = times >= times[i]
        shift = eta[at_risk].max()
        lse = shift + np.log(np.exp(eta[at_risk] - shift).sum())
        loss += lse - eta[i]
        soft = np.where(at_risk, np.exp(eta - lse), 0.0)
        d_eta += soft
        d_eta[i] -= 1.0
    loss /= n_events
    d_eta /= n_events
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


def grad_check(task: str, embed_dim: int = 8, hidden_dim: int = 4, n_classes: int = 3,
               n_slides: int = 3, bag_size: int = 4, seed: int = 0,
               eps: float = 1e-5) -> dict:
    """Compare 64-bit analytic parameter gradients against central finite
    differences of every scalar; returns per-parameter and overall max
    relative error."""
    rng = np.random.default_rng(seed)
    n_out = n_classes if task == "classification" else 1
    model = GatedAttentionMIL(embed_dim, hidden_dim, n_out, dropout=0.0, dtype=np.float64)
    model.init_params(rng)

    x = rng.standard_normal((n_slides, bag_size, embed_dim))
    mask = rng.random((n_slides, bag_size)) < 0.75
    mask[:, 0] = True
    if hidden_dim < embed_dim:
        feat = np.sort(rng.choice(embed_dim, size=hidden_dim, replace=False))
    else:
        feat = np.arange(embed_dim)
    if task == "classification":
        targets = rng.integers(n_classes, size=n_slides)
    elif task == "regression":
        targets = rng.standard_normal(n_slides)
    else:
        times = rng.uniform(0.5, 3.0, size=n_slides)
        events = rng.integers(0, 2, size=n_slides)
        events[0] = 1
        targets = (times, events)

    result = model.forward(x, mask, feat, training=False, need_cache=True)
    if task == "classification":
        _, d_out = cross_entropy_loss(result.outputs, targets)
    elif task == "regression":
        _, d_pred = mse_loss(result.outputs[:, 0], targets)
        d_out = d_pred[:, None]
    else:
        _, d_pred = cox_loss(result.outputs[:, 0], *targets)
        d_out = d_pred[:, None]
    analytic = model.backward(result.cache, d_out)

    # every scalar of one tensor moved by +eps and by -eps, all in one pass
    per_param = {}
    shared = {name: p[None] for name, p in model.params.items()}
    for name in PARAM_NAMES:
        p = model.params[name]
        steps = (eps * np.eye(p.size)).reshape(p.size, *p.shape)
        losses = _perturbed_losses(task, {**shared, name: p + np.concatenate([steps, -steps])},
                                   x, mask, feat, targets)
        fd = (losses[:p.size] - losses[p.size:]) / (2.0 * eps)
        an = analytic[name].reshape(-1)
        scale = np.maximum(np.abs(an), np.abs(fd))
        rel = np.where(scale > 1e-10, np.abs(an - fd) / np.maximum(scale, 1e-8), 0.0)
        per_param[name] = float(rel.max())
    worst = max(per_param.values())
    return {"max_rel_err": worst, "per_param": per_param, "task": task,
            "embed_dim": embed_dim, "hidden_dim": hidden_dim}
