"""Sliding-window subspace-ensemble inference and uncertainty decomposition.

Inference always sees the full bag (every patch participates); the ensemble
is over contiguous feature windows of width H at stride S. All probability
and entropy arithmetic runs in 64-bit regardless of the model dtype so the
additive uncertainty decomposition holds to near machine precision.
Every survival curve is BaselineSurvival.at's exp(-exp(log H_0(t) + eta)),
in which a constant added to every train and slide risk cancels.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .dataio import SlideBag, SurvivalRecord
from .errors import ValidationError
from .fingerprint import RunConfig
from .metrics import BreslowTable, breslow_table
from .model import GatedAttentionMIL

MI_CLAMP_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ChunkWindows:
    windows: tuple[tuple[int, int], ...]  # ordered [start, end) ranges

    @property
    def n_chunks(self) -> int:
        return len(self.windows)


@dataclass
class ClsPrediction:
    task: ClassVar[str] = "classification"
    slide_id: str
    mean_logits: np.ndarray      # (C,)
    per_chunk_probs: np.ndarray  # (K, C)
    mean_probs: np.ndarray       # (C,)
    predicted_class: int
    h_total: float
    h_aleatoric: float
    mutual_info: float
    attention: np.ndarray | None = None  # (N,) mean over chunks


@dataclass
class RegPrediction:
    task: ClassVar[str] = "regression"
    slide_id: str
    per_chunk_values: np.ndarray  # (K,)
    mean_value: float
    std_value: float
    attention: np.ndarray | None = None


@dataclass
class SurvPrediction:
    task: ClassVar[str] = "survival"
    slide_id: str
    per_chunk_risk: np.ndarray  # (K,)
    risk: float                 # log-mean-exp over chunks
    mean_risk: float
    var_risk: float
    eval_times: np.ndarray
    per_chunk_survival: np.ndarray  # (K, T)
    mean_survival: np.ndarray       # (T,)
    unc_survival: np.ndarray        # (T,)
    attention: np.ndarray | None = None


class BaselineSurvival(BreslowTable):
    """Breslow's table of the train risks as a baseline survival function."""

    def at(self, times, risks=0.0) -> np.ndarray:
        """S(t | eta) at each time: (T,) for a scalar risk, (K, T) for K risks."""
        log_h = self.log_cum_hazard_at(np.atleast_1d(times))
        with np.errstate(over="ignore"):  # exp overflows to inf, and S to exactly 0
            return np.exp(-np.exp(log_h + np.asarray(risks, dtype=np.float64)[..., None]))

    @property
    def survival(self) -> np.ndarray:  # S_0 at each event time
        return self.at(self.event_times)


def window_count(embed_dim: int, hidden_dim: int, stride: int) -> int:
    """K, the number of windows chunk_windows(embed_dim, hidden_dim, stride)
    lists, without listing them."""
    if hidden_dim > embed_dim:
        raise ValidationError(f"window width {hidden_dim} exceeds embed_dim {embed_dim}")
    if stride < 1:
        raise ValidationError("stride must be >= 1")
    span = embed_dim - hidden_dim
    return span // stride + 1 + (span % stride != 0)


def chunk_windows(embed_dim: int, hidden_dim: int, stride: int) -> ChunkWindows:
    """Starts 0, S, 2S, ... D-H, plus a clamped final window when (D-H) % S != 0."""
    last = embed_dim - hidden_dim
    starts = (min(k * stride, last) for k in range(window_count(embed_dim, hidden_dim, stride)))
    return ChunkWindows(windows=tuple((s, s + hidden_dim) for s in starts))


def window_grid(config: RunConfig, embed_dim: int) -> tuple[int, int]:
    """(width, stride) of the windows a run config implies; the batch-1
    ablation sees one full window."""
    if config.training_mode == "full_bag_batch1":
        return embed_dim, 1
    return config.hidden_dim, config.stride


def inference_windows(config: RunConfig, embed_dim: int) -> ChunkWindows:
    """Window set implied by a run config."""
    return chunk_windows(embed_dim, *window_grid(config, embed_dim))


def ensemble_outputs(model: GatedAttentionMIL, bag: SlideBag, windows: ChunkWindows,
                     return_attention: bool = False):
    """Raw per-window head outputs (K, n_outputs) on the full bag, dropout off.

    forward_windows rejects a bag whose embed_dim is not the model's."""
    outputs, attention = model.forward_windows(bag.embeddings, windows.windows)
    outputs = outputs.astype(np.float64)
    if return_attention:
        return outputs, attention.mean(axis=0, dtype=np.float64)
    return outputs


def entropy(probs: np.ndarray) -> float:
    """Natural-log entropy with the 0 log 0 = 0 convention."""
    p = np.asarray(probs, dtype=np.float64)
    nz = p > 0.0
    return float(-(p[nz] * np.log(p[nz])).sum())


def _softmax64(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def decompose_uncertainty(per_chunk_probs: np.ndarray) -> tuple[float, float, float]:
    """(H_total, H_aleatoric, MI) from per-chunk probability rows.

    MI is the raw difference, so the three values are additive by construction;
    tiny negatives from rounding are clamped to 0, larger ones are an error."""
    probs = np.asarray(per_chunk_probs, dtype=np.float64)
    mean_probs = probs.mean(axis=0)
    h_total = entropy(mean_probs)
    h_aleatoric = float(np.mean([entropy(p) for p in probs]))
    mi = h_total - h_aleatoric
    if mi < 0.0:
        if mi <= -MI_CLAMP_TOLERANCE:
            raise ValidationError(f"mutual information {mi} below the rounding tolerance")
        mi = 0.0
    return h_total, h_aleatoric, mi


def predict_classification(model: GatedAttentionMIL, bag: SlideBag,
                           windows: ChunkWindows) -> ClsPrediction:
    logits, attention = ensemble_outputs(model, bag, windows, return_attention=True)
    per_chunk_probs = _softmax64(logits)
    mean_logits = slide_output("classification", logits)
    mean_probs = per_chunk_probs.mean(axis=0)
    h_total, h_aleatoric, mi = decompose_uncertainty(per_chunk_probs)
    return ClsPrediction(
        slide_id=bag.slide_id, mean_logits=mean_logits,
        per_chunk_probs=per_chunk_probs, mean_probs=mean_probs,
        predicted_class=int(np.argmax(mean_logits)),
        h_total=h_total, h_aleatoric=h_aleatoric, mutual_info=mi,
        attention=attention)


def predict_regression(model: GatedAttentionMIL, bag: SlideBag,
                       windows: ChunkWindows) -> RegPrediction:
    raw, attention = ensemble_outputs(model, bag, windows, return_attention=True)
    values = raw[:, 0]
    return RegPrediction(slide_id=bag.slide_id, per_chunk_values=values,
                         mean_value=float(slide_output("regression", raw)[0]),
                         std_value=float(values.std()),
                         attention=attention)


def log_mean_exp(values: np.ndarray) -> float:
    v = np.asarray(values, dtype=np.float64)
    shift = v.max()
    return float(np.log(np.exp(v - shift).mean()) + shift)


def slide_output(task: str, window_outputs: np.ndarray) -> np.ndarray:
    """Slide-level output (n_out,) from the (K, n_out) window outputs: their
    mean, or for survival the log-mean-exp of the window risks."""
    if task == "survival":
        return np.array([log_mean_exp(window_outputs[:, 0])])
    return window_outputs.mean(axis=0)


def slide_outputs(model: GatedAttentionMIL, task: str, bags: dict[str, SlideBag], entries,
                  windows: ChunkWindows) -> np.ndarray:
    """Slide-level outputs (n_entries, n_out) of the window ensemble on each
    entry's bag, in entry order."""
    return np.stack([slide_output(task, ensemble_outputs(model, bags[e.slide_id], windows))
                     for e in entries])


def estimate_baseline_survival(train_risks: np.ndarray,
                               train_records: list[SurvivalRecord]) -> BaselineSurvival:
    """Breslow's log H_0 (metrics.breslow_table), summed in log space, so the
    train risks may spread by any amount."""
    times = np.array([r.time for r in train_records], dtype=np.float64)
    events = np.array([r.event for r in train_records], dtype=int)
    if len(train_risks) != len(times):
        raise ValidationError("risks and records must align")
    if events.sum() == 0:
        raise ValidationError("baseline survival needs at least one event")
    return BaselineSurvival(**vars(breslow_table(times, events, train_risks)))


def predict_survival(model: GatedAttentionMIL, bag: SlideBag, windows: ChunkWindows,
                     baseline: BaselineSurvival, eval_times) -> SurvPrediction:
    raw, attention = ensemble_outputs(model, bag, windows, return_attention=True)
    eta = raw[:, 0]
    eval_times = np.atleast_1d(np.asarray(eval_times, dtype=np.float64))
    per_chunk_surv = baseline.at(eval_times, eta)  # (K, T)
    return SurvPrediction(
        slide_id=bag.slide_id, per_chunk_risk=eta,
        risk=float(slide_output("survival", raw)[0]), mean_risk=float(eta.mean()),
        var_risk=float(eta.var()),
        eval_times=eval_times,
        per_chunk_survival=per_chunk_surv,
        mean_survival=per_chunk_surv.mean(axis=0),
        unc_survival=per_chunk_surv.std(axis=0),
        attention=attention)


def adjust_patient_uncertainty(uncertainty: float, n_wsi: int) -> float:
    """Scale a patient-level uncertainty by 1/sqrt(number of slides)."""
    if n_wsi < 1:
        raise ValidationError("n_wsi must be >= 1")
    return uncertainty / np.sqrt(n_wsi)


def median_event_time(records: list[SurvivalRecord]) -> float:
    """Default evaluation time: median observed time among event subjects."""
    times = np.array([r.time for r in records if r.event == 1], dtype=np.float64)
    if len(times) == 0:
        raise ValidationError("no events to take a median over")
    return float(np.median(times))


def aggregate_patient(predictions: list) -> dict:
    """Combine one patient's slide predictions; uncertainty shrinks by sqrt(n_wsi)."""
    if not predictions:
        raise ValidationError("patient aggregation needs at least one slide")
    n = len(predictions)
    first = predictions[0]
    if isinstance(first, ClsPrediction):
        mean_logits = np.mean([p.mean_logits for p in predictions], axis=0)
        slide_probs = np.stack([p.mean_probs for p in predictions])
        h_total, h_aleatoric, mi = decompose_uncertainty(slide_probs)
        return {"n_wsi": n, "mean_logits": mean_logits.tolist(),
                "mean_probs": slide_probs.mean(axis=0).tolist(),
                "predicted_class": int(np.argmax(mean_logits)),
                "h_total": h_total, "h_aleatoric": h_aleatoric, "mutual_info": mi}
    if isinstance(first, RegPrediction):
        mean_value = float(np.mean([p.mean_value for p in predictions]))
        unc = float(np.mean([p.std_value for p in predictions]))
        return {"n_wsi": n, "mean_value": mean_value,
                "uncertainty": adjust_patient_uncertainty(unc, n)}
    mean_risk = float(np.mean([p.risk for p in predictions]))
    mean_unc = np.mean([p.unc_survival for p in predictions], axis=0)
    return {"n_wsi": n, "risk": mean_risk,
            "eval_times": first.eval_times.tolist(),
            "unc_survival": [adjust_patient_uncertainty(float(u), n) for u in mean_unc]}


_UNWRITTEN = ("attention", "per_chunk_survival")  # per-patch and per-window detail


def prediction_to_json(pred) -> dict:
    """Flatten a slide prediction into one JSON-ready record: its task and
    every field but those in _UNWRITTEN, arrays as lists."""
    if not isinstance(pred, (ClsPrediction, RegPrediction, SurvPrediction)):
        raise ValidationError(f"unknown prediction type {type(pred)!r}")
    doc = {"task": pred.task}
    for f in fields(pred):
        if f.name not in _UNWRITTEN:
            value = getattr(pred, f.name)
            doc[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return doc
