"""Sliding-window subspace-ensemble inference and uncertainty decomposition.

Inference always sees the full bag (every patch participates); the ensemble
is over contiguous feature windows of width H at stride S. All probability
and entropy arithmetic runs in 64-bit regardless of the model dtype so the
additive uncertainty decomposition holds to near machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import SlideBag, SurvivalRecord
from .errors import ValidationError
from .fingerprint import RunConfig
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
    slide_id: str
    per_chunk_values: np.ndarray  # (K,)
    mean_value: float
    std_value: float
    attention: np.ndarray | None = None


@dataclass
class SurvPrediction:
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


@dataclass
class BaselineSurvival:
    """Breslow baseline: step function S_0(t), right-continuous, S_0(0) = 1."""

    event_times: np.ndarray  # ascending distinct event times
    survival: np.ndarray     # S_0 evaluated at each event time

    def at(self, times) -> np.ndarray:
        t = np.atleast_1d(np.asarray(times, dtype=np.float64))
        idx = np.searchsorted(self.event_times, t, side="right")
        padded = np.concatenate([[1.0], self.survival])
        return padded[idx]


def chunk_windows(embed_dim: int, hidden_dim: int, stride: int) -> ChunkWindows:
    """Starts 0, S, 2S, ... D-H, plus a clamped final window when (D-H) % S != 0."""
    if hidden_dim > embed_dim:
        raise ValidationError(f"window width {hidden_dim} exceeds embed_dim {embed_dim}")
    if stride < 1:
        raise ValidationError("stride must be >= 1")
    starts = list(range(0, embed_dim - hidden_dim + 1, stride))
    if starts[-1] != embed_dim - hidden_dim:
        starts.append(embed_dim - hidden_dim)
    return ChunkWindows(windows=tuple((s, s + hidden_dim) for s in starts))


def inference_windows(config: RunConfig, embed_dim: int) -> ChunkWindows:
    """Window set implied by a run config; the batch-1 ablation sees one full window."""
    if config.training_mode == "full_bag_batch1":
        return ChunkWindows(windows=((0, embed_dim),))
    return chunk_windows(embed_dim, config.hidden_dim, config.stride)


def ensemble_outputs(model: GatedAttentionMIL, bag: SlideBag, windows: ChunkWindows,
                     return_attention: bool = False):
    """Raw per-window head outputs (K, n_outputs) on the full bag, dropout off."""
    if bag.embed_dim != model.embed_dim:
        raise ValidationError(
            f"bag embed_dim {bag.embed_dim} != model embed_dim {model.embed_dim}")
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
                           windows: ChunkWindows,
                           with_attention: bool = False) -> ClsPrediction:
    out = ensemble_outputs(model, bag, windows, return_attention=with_attention)
    logits, attention = out if with_attention else (out, None)
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
                       windows: ChunkWindows,
                       with_attention: bool = False) -> RegPrediction:
    out = ensemble_outputs(model, bag, windows, return_attention=with_attention)
    raw, attention = out if with_attention else (out, None)
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


def estimate_baseline_survival(train_risks: np.ndarray,
                               train_records: list[SurvivalRecord]) -> BaselineSurvival:
    """Breslow estimator: H_0(t) = sum over event times <= t of d_i / sum_{at risk} exp(eta)."""
    eta = np.asarray(train_risks, dtype=np.float64)
    times = np.array([r.time for r in train_records], dtype=np.float64)
    events = np.array([r.event for r in train_records], dtype=int)
    if len(eta) != len(times):
        raise ValidationError("risks and records must align")
    if events.sum() == 0:
        raise ValidationError("baseline survival needs at least one event")
    exp_eta = np.exp(eta)
    event_times = np.unique(times[events == 1])
    cum_hazard = np.empty(len(event_times), dtype=np.float64)
    running = 0.0
    for i, t in enumerate(event_times):
        d = int(np.sum((times == t) & (events == 1)))
        at_risk = exp_eta[times >= t].sum()
        running += d / at_risk
        cum_hazard[i] = running
    return BaselineSurvival(event_times=event_times, survival=np.exp(-cum_hazard))


def predict_survival(model: GatedAttentionMIL, bag: SlideBag, windows: ChunkWindows,
                     baseline: BaselineSurvival, eval_times,
                     with_attention: bool = False) -> SurvPrediction:
    out = ensemble_outputs(model, bag, windows, return_attention=with_attention)
    raw, attention = out if with_attention else (out, None)
    eta = raw[:, 0]
    eval_times = np.atleast_1d(np.asarray(eval_times, dtype=np.float64))
    s0 = baseline.at(eval_times)  # (T,)
    per_chunk_surv = s0[None, :] ** np.exp(eta)[:, None]  # (K, T)
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


def prediction_to_json(pred) -> dict:
    """Flatten any slide prediction into one JSON-ready record."""
    if isinstance(pred, ClsPrediction):
        return {"slide_id": pred.slide_id, "task": "classification",
                "mean_logits": pred.mean_logits.tolist(),
                "mean_probs": pred.mean_probs.tolist(),
                "per_chunk_probs": pred.per_chunk_probs.tolist(),
                "predicted_class": pred.predicted_class,
                "h_total": pred.h_total, "h_aleatoric": pred.h_aleatoric,
                "mutual_info": pred.mutual_info}
    if isinstance(pred, RegPrediction):
        return {"slide_id": pred.slide_id, "task": "regression",
                "mean_value": pred.mean_value, "std_value": pred.std_value,
                "per_chunk_values": pred.per_chunk_values.tolist()}
    if isinstance(pred, SurvPrediction):
        return {"slide_id": pred.slide_id, "task": "survival",
                "risk": pred.risk, "mean_risk": pred.mean_risk,
                "var_risk": pred.var_risk,
                "per_chunk_risk": pred.per_chunk_risk.tolist(),
                "eval_times": pred.eval_times.tolist(),
                "mean_survival": pred.mean_survival.tolist(),
                "unc_survival": pred.unc_survival.tolist()}
    raise ValidationError(f"unknown prediction type {type(pred)!r}")
