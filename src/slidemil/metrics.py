"""Evaluation statistics: BACC, AUC, kappa, Pearson, C-index, Kaplan-Meier,
log-rank, bootstrap CIs, rejection curves.

Every rank statistic counts wins and ties as integers before a single final
division, so values agree bit-for-bit with brute-force pair enumeration.
Kaplan-Meier, log-rank and breslow_table (the Cox loss and the Breslow
baseline) count risk sets in risk_sets.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

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

    def to_dict(self) -> dict:
        return asdict(self)


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


def balanced_accuracy(true_labels, predicted_labels) -> float:
    """Mean per-class recall over the classes present in the truth."""
    truth = np.asarray(true_labels, dtype=int)
    pred = np.asarray(predicted_labels, dtype=int)
    if truth.shape != pred.shape or truth.size == 0:
        raise MetricUndefinedError("need aligned, nonempty label arrays")
    recalls = []
    for c in np.unique(truth):
        in_class = truth == c
        recalls.append(np.mean(pred[in_class] == c))
    return float(np.mean(recalls))


def auc(labels, scores) -> float:
    """Binary AUC as the Mann-Whitney statistic: wins + half-ties over all
    positive/negative pairs, counted exactly."""
    labels = np.asarray(labels, dtype=int)
    scores = np.asarray(scores, dtype=np.float64)
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
    truth = np.asarray(true_labels, dtype=int)
    pred = np.asarray(predicted_labels, dtype=int)
    if truth.shape != pred.shape or truth.size == 0:
        raise MetricUndefinedError("need aligned, nonempty label arrays")
    cats = np.unique(np.concatenate([truth, pred]))
    n_cat = len(cats)
    index = {c: i for i, c in enumerate(cats)}
    observed = np.zeros((n_cat, n_cat), dtype=np.float64)
    for t, p in zip(truth, pred):
        observed[index[t], index[p]] += 1.0
    observed /= truth.size
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
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise MetricUndefinedError("Pearson r needs >= 2 aligned points")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0.0:
        raise MetricUndefinedError("Pearson r undefined for constant input")
    return float((xc * yc).sum() / denom)


def mean_squared_error(truth, pred) -> float:
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if truth.shape != pred.shape or truth.size == 0:
        raise MetricUndefinedError("need aligned, nonempty arrays")
    return float(np.mean((truth - pred) ** 2))


def concordance_index(times, events, risks) -> float:
    """Harrell's C: over pairs (i, j) with t_i < t_j and event at i, count
    risk_i > risk_j as a win and equal risks as half."""
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=int)
    risks = np.asarray(risks, dtype=np.float64)
    n = len(times)
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
    event_times = np.unique(np.asarray(times, dtype=np.float64)[np.asarray(events) == 1])
    log_at_risk, deaths = risk_sets(times, events, event_times, log_weights=risks)
    return BreslowTable(event_times, deaths, log_at_risk,
                        np.logaddexp.accumulate(np.log(deaths) - log_at_risk))


def km_curve(times, events) -> KMCurve:
    """Product-limit survival estimate over the distinct event times."""
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=int)
    if times.size == 0:
        raise MetricUndefinedError("empty survival sample")
    event_times = np.unique(times[events == 1])
    at_risk, deaths = risk_sets(times, events, event_times)
    return KMCurve(times=event_times, survival=np.cumprod(1.0 - deaths / at_risk),
                   at_risk=at_risk)


def logrank_test(times, events, in_group_a) -> tuple[float, float]:
    """Two-group log-rank test of the subjects in group a (in_group_a True)
    against the rest; returns (chi-square statistic, p-value) at 1 dof."""
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=int)
    in_a = np.asarray(in_group_a, dtype=bool)
    if not times.shape == events.shape == in_a.shape or times.ndim != 1:
        raise ValidationError("log-rank needs aligned 1-D times, events and group arrays")
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
    arrays = [np.asarray(a) for a in data]
    n = len(arrays[0])
    if n == 0 or any(len(a) != n for a in arrays):
        raise ValidationError("bootstrap needs aligned, nonempty data arrays")
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


def rejection_curve(metric, truth, pred, uncertainties,
                    fractions) -> list[tuple[float, float | None]]:
    """Recompute metric(truth, pred) after dropping the ceil(qN) highest-uncertainty
    samples for each fraction q; ties in uncertainty break by stable sample order."""
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    unc = np.asarray(uncertainties, dtype=np.float64)
    n = len(unc)
    if not (len(truth) == len(pred) == n) or n == 0:
        raise ValidationError("rejection curve needs aligned, nonempty arrays")
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
            value = float(metric(truth[keep], pred[keep]))
        except MetricUndefinedError:
            value = None
        curve.append((float(q), value))
    return curve
