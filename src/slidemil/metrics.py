"""Evaluation statistics: BACC, AUC, kappa, Pearson, C-index, Kaplan-Meier,
log-rank, bootstrap CIs, rejection curves.

Per-slide arrays, here and in model's losses, are cast and checked in
per_slide: arrays not 1-D and of one length raise ValidationError, so
MetricUndefinedError means undefined on aligned data (empty input, one class,
no comparable pair, constant input). A command reports it in its artifact,
{"undefined": reason} or a null point, and never exits on it.

Every rank statistic counts wins and ties as integers before a single final
division, so values agree bit-for-bit with brute-force pair enumeration.
Kaplan-Meier, log-rank and breslow_table (the Cox loss and the Breslow
baseline) count risk sets in risk_sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MetricUndefinedError, ValidationError

# bootstrap_ci gives up after this many draws per replicate
MAX_REDRAW_FACTOR = 100


@dataclass
class BootstrapResult:
    point: float
    mean: float
    std: float
    ci_low: float
    ci_high: float
    n_replicates: int


@dataclass
class KMCurve:
    times: np.ndarray     # distinct event times, ascending
    survival: np.ndarray  # product-limit estimate after each time
    at_risk: np.ndarray   # subjects at risk just before each time


@dataclass
class BreslowTable:
    event_times: np.ndarray     # distinct event times, ascending
    deaths: np.ndarray          # events at each time
    log_at_risk: np.ndarray     # log R(t), R(t) = sum over t_j >= t of exp(eta_j)
    log_cum_hazard: np.ndarray  # log H_0(t), H_0(t) = sum over s <= t of d(s) / R(s)

    def log_cum_hazard_at(self, times) -> np.ndarray:
        """log H_0 at each time: right-continuous, -inf before the first event."""
        idx = np.searchsorted(self.event_times, times, side="right")
        return np.append(-np.inf, self.log_cum_hazard)[idx]

    def at(self, times, risks=0.0) -> np.ndarray:
        """Survival S(t | eta) = exp(-exp(log H_0(t) + eta)) at each time: (T,)
        for a scalar risk, (K, T) for K risks."""
        log_h = self.log_cum_hazard_at(np.atleast_1d(times))
        with np.errstate(over="ignore"):  # exp overflows to inf, and S to exactly 0
            return np.exp(-np.exp(log_h + np.asarray(risks, dtype=np.float64)[..., None]))


def per_slide(*columns, dtypes=None) -> list[np.ndarray]:
    """The columns as arrays cast to dtypes (None keeps a dtype); ValidationError,
    naming the shapes, unless all are 1-D and of one length."""
    arrays = [np.asarray(c, dtype=t)
              for c, t in zip(columns, dtypes or [None] * len(columns), strict=True)]
    shapes = [a.shape for a in arrays]
    if any(len(shape) != 1 for shape in shapes) or len(set(shapes)) > 1:
        raise ValidationError(f"per-slide arrays must be 1-D of one length, got shapes {shapes}")
    return arrays


def confusion_counts(true_labels, predicted_labels) -> np.ndarray:
    """Counts (C, C) of each (true, predicted) pair, rows = truth, over the C
    categories that occur in either array, in ascending order."""
    truth, pred = per_slide(true_labels, predicted_labels, dtypes=(int, int))
    if truth.size == 0:
        raise MetricUndefinedError("need nonempty label arrays")
    cats, codes = np.unique(np.concatenate([truth, pred]), return_inverse=True)
    n_cat = len(cats)
    pairs = codes[:truth.size] * n_cat + codes[truth.size:]
    return np.bincount(pairs, minlength=n_cat * n_cat).reshape(n_cat, n_cat)


def balanced_accuracy(true_labels, predicted_labels) -> float:
    """Mean per-class recall over the classes present in the truth."""
    counts = confusion_counts(true_labels, predicted_labels)
    support = counts.sum(axis=1)
    present = support > 0
    return float(np.mean(np.diag(counts)[present] / support[present]))


def auc(labels, scores) -> float:
    """Binary AUC as the Mann-Whitney statistic: wins + half-ties over all
    positive/negative pairs, counted exactly."""
    labels, scores = per_slide(labels, scores, dtypes=(int, np.float64))
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise MetricUndefinedError("AUC needs both classes present")
    neg_sorted = np.sort(neg)
    wins = int(np.searchsorted(neg_sorted, pos, side="left").sum())
    ties = int((np.searchsorted(neg_sorted, pos, side="right")
                - np.searchsorted(neg_sorted, pos, side="left")).sum())
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def cohens_kappa(true_labels, predicted_labels, weighting: str = "none") -> float:
    """Agreement beyond chance; weighting 'none' or 'quadratic'."""
    if weighting not in ("none", "quadratic"):
        raise ValidationError(f"unknown kappa weighting {weighting!r}")
    counts = confusion_counts(true_labels, predicted_labels)
    n_cat = len(counts)
    observed = counts / counts.sum()
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0))
    if weighting == "none":
        weights = 1.0 - np.eye(n_cat)
    else:
        if n_cat == 1:
            weights = np.zeros((1, 1))
        else:
            grid = np.arange(n_cat, dtype=np.float64)
            weights = ((grid[:, None] - grid[None, :]) / (n_cat - 1)) ** 2
    disagreement_expected = float((weights * expected).sum())
    if disagreement_expected == 0.0:
        raise MetricUndefinedError("kappa undefined: chance disagreement is zero")
    return 1.0 - float((weights * observed).sum()) / disagreement_expected


def pearson_r(x, y) -> float:
    x, y = per_slide(x, y, dtypes=(np.float64, np.float64))
    if x.size < 2:
        raise MetricUndefinedError("Pearson r needs >= 2 points")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0.0:
        raise MetricUndefinedError("Pearson r undefined for constant input")
    return float((xc * yc).sum() / denom)


def mean_squared_error(truth, pred) -> float:
    truth, pred = per_slide(truth, pred, dtypes=(np.float64, np.float64))
    if truth.size == 0:
        raise MetricUndefinedError("need nonempty arrays")
    return float(np.mean((truth - pred) ** 2))


def concordance_index(times, events, risks) -> float:
    """Harrell's C: over pairs (i, j) with t_i < t_j and event at i, count
    risk_i > risk_j as a win and equal risks as half."""
    times, events, risks = per_slide(times, events, risks, dtypes=(np.float64, int, np.float64))
    comparable = (times[:, None] < times[None, :]) & (events[:, None] == 1)
    n_pairs = int(comparable.sum())
    if n_pairs == 0:
        raise MetricUndefinedError("no comparable pairs for the C-index")
    wins = int((comparable & (risks[:, None] > risks[None, :])).sum())
    ties = int((comparable & (risks[:, None] == risks[None, :])).sum())
    return (wins + 0.5 * ties) / n_pairs


def risk_sets(times, events, at, log_weights=None) -> tuple[np.ndarray, np.ndarray]:
    """The risk-set table at each query time t in at: the number of subjects
    with time >= t (with log_weights, log sum exp(log_weights) over them, summed
    in log space, -inf for none) and the number of events at exactly t."""
    order = np.argsort(times, kind="stable")
    sorted_times = np.asarray(times, dtype=np.float64)[order]
    first, past = (np.searchsorted(sorted_times, at, side=s) for s in ("left", "right"))
    events_before = np.append(0, np.cumsum(np.asarray(events)[order] == 1))
    if log_weights is None:
        at_risk = len(order) - first
    else:
        w = np.asarray(log_weights, dtype=np.float64)[order]
        at_risk = np.append(np.logaddexp.accumulate(w[::-1])[::-1], -np.inf)[first]
    return at_risk, events_before[past] - events_before[first]


def breslow_table(times, events, risks) -> BreslowTable:
    """Breslow's table at the distinct event times, from one risk_sets sum with
    log weights eta and a logaddexp accumulation, so any spread of eta holds."""
    times, events, risks = per_slide(times, events, risks, dtypes=(np.float64, int, np.float64))
    event_times = np.unique(times[events == 1])
    log_at_risk, deaths = risk_sets(times, events, event_times, log_weights=risks)
    return BreslowTable(event_times, deaths, log_at_risk,
                        np.logaddexp.accumulate(np.log(deaths) - log_at_risk))


def km_curve(times, events) -> KMCurve:
    """Product-limit survival estimate over the distinct event times."""
    times, events = per_slide(times, events, dtypes=(np.float64, int))
    if times.size == 0:
        raise MetricUndefinedError("empty survival sample")
    event_times = np.unique(times[events == 1])
    at_risk, deaths = risk_sets(times, events, event_times)
    return KMCurve(times=event_times, survival=np.cumprod(1.0 - deaths / at_risk),
                   at_risk=at_risk)


def logrank_test(times, events, in_group_a) -> tuple[float, float]:
    """Two-group log-rank test of the subjects in group a (in_group_a True)
    against the rest; returns (chi-square statistic, p-value) at 1 dof."""
    times, events, in_a = per_slide(times, events, in_group_a, dtypes=(np.float64, int, bool))
    if in_a.all() or not in_a.any():
        raise MetricUndefinedError("both groups must be nonempty")
    event_times = np.unique(times[events == 1])
    if len(event_times) == 0:
        raise MetricUndefinedError("log-rank needs at least one event")
    n_a, d_a = risk_sets(times[in_a], events[in_a], event_times)
    n_tot, d_tot = risk_sets(times, events, event_times)
    observed_minus_expected = float(np.sum(d_a - d_tot * n_a / n_tot))
    several = n_tot > 1  # a lone subject at risk adds no variance
    n_a, n_tot, d_tot = n_a[several], n_tot[several], d_tot[several]
    variance = float(np.sum(d_tot * (n_a / n_tot) * ((n_tot - n_a) / n_tot)
                            * (n_tot - d_tot) / (n_tot - 1)))
    if variance == 0.0:
        raise MetricUndefinedError("log-rank variance is zero")
    statistic = observed_minus_expected ** 2 / variance
    p_value = math.erfc(math.sqrt(statistic / 2.0))  # chi-square survival, 1 dof
    return float(statistic), float(p_value)


def bootstrap_ci(metric, data: tuple, n_replicates: int = 1000,
                 seed: int = 42) -> BootstrapResult:
    """Percentile bootstrap of metric(*data) with slide-level resampling.

    Resamples that violate the metric's preconditions are redrawn; total draws
    are capped at MAX_REDRAW_FACTOR * n_replicates."""
    arrays = per_slide(*data)
    n = len(arrays[0])
    if n == 0:
        raise ValidationError("bootstrap needs nonempty data arrays")
    point = float(metric(*arrays))
    rng = np.random.default_rng(seed)
    values = np.empty(n_replicates, dtype=np.float64)
    draws = 0
    cap = MAX_REDRAW_FACTOR * n_replicates
    done = 0
    while done < n_replicates:
        if draws >= cap:
            raise ValidationError("bootstrap redraw cap exceeded; data too degenerate")
        idx = rng.integers(n, size=n)
        draws += 1
        try:
            values[done] = float(metric(*(a[idx] for a in arrays)))
        except MetricUndefinedError:
            continue
        done += 1
    lo, hi = np.percentile(values, [2.5, 97.5])
    return BootstrapResult(point=point, mean=float(values.mean()),
                           std=float(values.std(ddof=1)), ci_low=float(lo),
                           ci_high=float(hi), n_replicates=n_replicates)


def rejection_curve(metric, data: tuple, uncertainties,
                    fractions) -> list[tuple[float, float | None]]:
    """Recompute metric(*data) after dropping the ceil(qN) highest-uncertainty
    samples for each fraction q; ties in uncertainty break by stable sample order."""
    *arrays, unc = per_slide(*data, uncertainties, dtypes=[None] * len(data) + [np.float64])
    n = len(unc)
    if n == 0:
        raise ValidationError("rejection curve needs nonempty arrays")
    for q in fractions:
        if not 0.0 <= q < 1.0:
            raise ValidationError(f"rejection fraction {q} outside [0, 1)")
    drop_order = np.argsort(-unc, kind="stable")
    curve = []
    for q in fractions:
        k = math.ceil(q * n)
        keep = np.ones(n, dtype=bool)
        keep[drop_order[:k]] = False
        try:
            value = float(metric(*(a[keep] for a in arrays)))
        except MetricUndefinedError:
            value = None
        curve.append((float(q), value))
    return curve
