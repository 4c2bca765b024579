"""Spans around slidemil's layer boundaries, recorded from outside the program.

slidemil's modules bind names directly (``from .sampling import
sample_patches``), so a wrapper goes where the caller looks the name up, not
only where it is defined. PATCH_POINTS lists every wrapped callable as
(module, attribute path, span name, counter). A counter turns the bound call
arguments and the result into counts stored on the span.

Spans live in memory and are written out once, at the end of a run. Each
span holds its name, start, end and parent; every span of one run shares the
tracer's run id. uninstall() puts back the original objects and checks they
are the ones found at install time, so an untraced run is the program as is.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
import uuid
from dataclasses import asdict, dataclass, field

import numpy as np


def _read_bytes(args, result) -> dict:
    return {"bytes": result.embeddings.nbytes}


def _patch_rows(args, result) -> dict:
    mask = result.valid_mask
    return {"rows": len(mask), "valid_rows": int(np.count_nonzero(mask)),
            "bytes": result.embeddings.nbytes}


def _batches(args, result) -> dict:
    return {"batches": len(result.batches)}


def _windows(args, result) -> dict:
    return {"windows": args["windows"].n_chunks}


def _draws(args, result) -> dict:
    return {"draws": args["n_replicates"]}


def _forward_flop(args, result) -> dict:
    """Nominal FLOP of the matrix products, counted from shapes: the two
    attention projections, the attention vector, pooling and the head."""
    model = args["self"]
    x = args["embeddings"]
    valid = int(np.count_nonzero(args["valid_mask"]))
    feat = args["feature_indices"]
    n_feat = len(getattr(feat, "indices", feat))
    h, d, c = model.hidden_dim, model.embed_dim, model.n_outputs
    flop = 2 * valid * (2 * n_feat * h + h + d) + 2 * x.shape[0] * d * c
    return {"flop": flop}


PATCH_POINTS = (
    ("slidemil.dataio", "load_manifest", "dataio.load_manifest", None),
    ("slidemil.dataio", "load_bags", "dataio.load_bags", None),
    ("slidemil.dataio", "read_embedding_file", "dataio.read_embedding_file", _read_bytes),
    ("slidemil.cli", "compute_fingerprint", "fingerprint.compute_fingerprint", None),
    ("slidemil.cli", "derive_config", "fingerprint.derive_config", None),
    ("slidemil.cli", "train", "training.train", None),
    ("slidemil.cli", "load_checkpoint", "training.load_checkpoint", None),
    ("slidemil.training", "sample_patches", "sampling.sample_patches", _patch_rows),
    ("slidemil.training", "sample_feature_indices", "sampling.sample_feature_indices", None),
    ("slidemil.training", "balanced_batches", "sampling.batch_plan", _batches),
    ("slidemil.training", "plain_batches", "sampling.batch_plan", _batches),
    ("slidemil.training", "regression_batches", "sampling.batch_plan", _batches),
    ("slidemil.training", "survival_batches", "sampling.batch_plan", _batches),
    ("slidemil.training", "adamw_step", "training.adamw_step", None),
    ("slidemil.training", "save_checkpoint", "training.save_checkpoint", None),
    ("slidemil.training", "cross_entropy_loss", "model.loss", None),
    ("slidemil.training", "mse_loss", "model.loss", None),
    ("slidemil.training", "cox_loss", "model.loss", None),
    ("slidemil.inference", "ensemble_outputs", "inference.ensemble_outputs", _windows),
    ("slidemil.inference", "decompose_uncertainty", "inference.decompose_uncertainty", None),
    ("slidemil.inference", "estimate_baseline_survival", "inference.baseline_fit", None),
    ("slidemil.inference", "predict_classification", "inference.predict", None),
    ("slidemil.inference", "predict_regression", "inference.predict", None),
    ("slidemil.inference", "predict_survival", "inference.predict", None),
    ("slidemil.metrics", "bootstrap_ci", "metrics.bootstrap_ci", _draws),
    ("slidemil.model", "GatedAttentionMIL.forward", "model.forward", _forward_flop),
    ("slidemil.model", "GatedAttentionMIL.backward", "model.backward", None),
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(module: str, path: str):
    """(owner object, attribute name) for 'attr' or 'Class.attr' inside module."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def current(owner, attr: str):
    """The object stored under attr: a class's own dict entry, not a bound method."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = Span(id=len(self.spans), parent=self._stack[-1] if self._stack else None,
                    name=name)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, counter):
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module, path, name, counter in PATCH_POINTS:
            owner, attr = _resolve(module, path)
            original = current(owner, attr)
            setattr(owner, attr, self._wrap(original, name, counter))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> list[str]:
        """Restore every wrapped callable; returns the attributes not restored exactly."""
        wrong = []
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
            if current(owner, attr) is not original:
                wrong.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        self._installed.clear()
        return wrong

    def to_json(self) -> dict:
        return {"run_id": self.run_id,
                "spans": [{**asdict(s), "run_id": self.run_id} for s in self.spans]}


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval covered by its children."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


CLI_COMMANDS = ("fingerprint", "plan", "train", "predict", "evaluate")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run (the five CLI commands)."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(items):
        return sum(s.duration for s in items)

    def count(items, key):
        return sum(s.counts.get(key, 0) for s in items)

    def parent_name(s):
        return by_id[s.parent].name if s.parent is not None else None

    def under(s, name):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == name:
                return True
        return False

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    reads = named("dataio.read_embedding_file")
    read_mb = count(reads, "bytes") / 1e6
    m["dataio.load_bags_s"] = total(named("dataio.load_bags"))
    m["dataio.load_bags_calls"] = len(named("dataio.load_bags"))
    m["dataio.read_mb"] = read_mb
    m["dataio.read_mbps"] = ratio(read_mb, total(reads))

    m["fingerprint.compute_s"] = total(named("fingerprint.compute_fingerprint"))

    patches = named("sampling.sample_patches")
    m["sampling.sample_patches_s"] = total(patches)
    m["sampling.sample_patches_calls"] = len(patches)
    m["sampling.patch_mb_copied"] = count(patches, "bytes") / 1e6
    m["sampling.batch_plan_s"] = total(named("sampling.batch_plan"))
    m["sampling.valid_row_frac"] = ratio(count(patches, "valid_rows"), count(patches, "rows"))

    forwards = named("model.forward")
    infer = [s for s in forwards if parent_name(s) == "inference.ensemble_outputs"]
    train_fw = [s for s in forwards if parent_name(s) != "inference.ensemble_outputs"]
    gflop = count(infer, "flop") / 1e9
    m["model.forward_train_s"] = total(train_fw)
    m["model.forward_train_calls"] = len(train_fw)
    m["model.backward_s"] = total(named("model.backward"))
    m["model.forward_infer_s"] = total(infer)
    m["model.forward_infer_calls"] = len(infer)
    m["model.gflop_nominal"] = gflop
    m["model.gflops_infer"] = ratio(gflop, total(infer))
    m["model.loss_s"] = total(named("model.loss"))

    trains = named("training.train")
    train_s = total(trains)
    ensembles = named("inference.ensemble_outputs")
    validation_s = total(s for s in ensembles if parent_name(s) == "training.train")
    steps = named("training.adamw_step")
    planned = count([s for s in named("sampling.batch_plan") if under(s, "training.train")],
                    "batches")
    m["training.train_s"] = train_s
    m["training.self_s"] = sum(own[s.id] for s in trains)
    m["training.adamw_s"] = total(steps)
    m["training.steps"] = len(steps)
    m["training.validation_s"] = validation_s
    m["training.validation_frac"] = ratio(validation_s, train_s)
    m["training.skipped_batch_frac"] = ratio(planned - len(steps), planned)
    m["training.checkpoint_save_s"] = total(named("training.save_checkpoint"))
    m["training.checkpoint_load_s"] = total(named("training.load_checkpoint"))

    predict_ens = [s for s in ensembles if under(s, "cli.predict")]
    baseline_ens = [s for s in predict_ens if parent_name(s) == "cli.predict"]
    predicts = named("inference.predict")
    m["inference.ensemble_s"] = total(predict_ens)
    m["inference.window_calls"] = count(predict_ens, "windows")
    m["inference.windows_per_slide"] = ratio(count(predict_ens, "windows"), len(predict_ens))
    m["inference.baseline_s"] = total(baseline_ens) + total(named("inference.baseline_fit"))
    # time in predict_* outside the ensemble: softmax, uncertainty, survival curves
    m["inference.post_s"] = total(predicts) - total(
        s for s in predict_ens if parent_name(s) == "inference.predict")

    boots = named("metrics.bootstrap_ci")
    m["metrics.bootstrap_s"] = total(boots)
    m["metrics.bootstrap_draws"] = count(boots, "draws")

    cli = [s for s in spans if s.name.startswith("cli.")]
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = total(named(f"cli.{command}"))
    m["cli.self_s"] = sum(own[s.id] for s in cli)
    return m


def write(tracer: Tracer, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(), fh)
