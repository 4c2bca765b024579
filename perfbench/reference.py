"""Float64 reference for the per-window outputs of the window ensemble,
written from the method's equations rather than from slidemil's code.

For a window [s, e) of width H: attention logits are
w^T (tanh(V[:, s:e] x_i[s:e]) * sigmoid(U[:, s:e] x_i[s:e])), a softmax over
all patches gives weights a_i, the slide vector is h = sum_i a_i x_i over the
full embedding, and the head gives W h + b. Windows start at 0, S, 2S, ...
up to D-H, plus one clamped window ending at D when (D-H) % S != 0.
"""

from __future__ import annotations

import numpy as np

# Largest |difference| accepted between the float32 program and this float64
# reference, on per-window probabilities and on per-window log-hazards scaled
# by max(1, |value|). Float32 rounding over sums of a few thousand terms stays
# near 1e-6; a wrong window, weight or pooling shows up at 1e-2 or more.
TOLERANCE = 1e-4


def windows(embed_dim: int, hidden_dim: int, stride: int) -> list[tuple[int, int]]:
    starts = list(range(0, embed_dim - hidden_dim + 1, stride))
    if starts[-1] != embed_dim - hidden_dim:
        starts.append(embed_dim - hidden_dim)
    return [(s, s + hidden_dim) for s in starts]


def window_outputs(params: dict[str, np.ndarray], x: np.ndarray,
                   wins: list[tuple[int, int]]) -> np.ndarray:
    """(K, n_outputs) head outputs of each window on the full bag x (N, D)."""
    x = np.asarray(x, dtype=np.float64)
    v, u, w, head_w, head_b = (np.asarray(params[k], dtype=np.float64) for k in
                               ("attention_v", "attention_u", "attention_w",
                                "head_weight", "head_bias"))
    out = np.empty((len(wins), head_w.shape[0]))
    for k, (s, e) in enumerate(wins):
        xs = x[:, s:e]
        gated = np.tanh(xs @ v[:, s:e].T) / (1.0 + np.exp(-(xs @ u[:, s:e].T)))
        logits = gated @ w
        a = np.exp(logits - logits.max())
        a /= a.sum()
        out[k] = head_w @ (a @ x) + head_b
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def max_deviation(task: str, record: dict, ref: np.ndarray) -> float:
    """Largest scaled difference between a predictions.jsonl record and the reference."""
    if task == "classification":
        got = np.asarray(record["per_chunk_probs"], dtype=np.float64)
        return float(np.max(np.abs(got - softmax(ref))))
    got = np.asarray(record["per_chunk_risk"], dtype=np.float64)
    want = ref[:, 0]
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
