"""Optimization loop: AdamW with decoupled decay, warmup-cosine schedule,
task-aware batch plans, early stopping on validation loss, checkpointing,
and grad_check, which checks backward through the training loss dispatch.

Training is a deterministic function of (config, manifest, bag bytes): one
root generator is seeded from config.seed and consumed in a fixed order
(param init, then per epoch: batch plan, per batch: patch subsets, feature
subset, dropout), so identical runs produce bitwise-identical checkpoints.
A step's per-slide forward and backward bodies run on
model.ensemble_workers() threads (usable CPUs // BLAS threads); slide i's
dropout mask is drawn on the calling thread, in slide order, as slide i is
handed to them, and their gradient terms are summed in slide order, so
checkpoints do not depend on the worker count.

Memory: a run allocates one (batch_size, rows, D) float32 batch buffer,
rows = min(bag_size, largest train bag), and sample_patches writes each
step's slides straight into its rows. A
step's state is, per slide, the (m, H) sigmoid branch, a view of one
(batch_size, rows, H) array allocated per step, and the dropout mask packed
to bits: H floats and H bits per row (42 MB at batch 32, M = 1,250, H =
256), from which backward recomputes the tanh branch and rebuilds the
sampled columns, the dropout scale and the gated output. It is released
once the step's update is applied, so training holds one batch and one
step's state at a time. A bag read from a file is
mapped only while one use of it runs (dataio): sample_patches maps it for
one draw and the map closes once its rows are in the batch, and a
full_bag_batch1 step's map goes with the step's state. A validation
pass (inference.slide_outputs) maps each bag on the worker that runs its
tiles, only while they run, and has at most two bags per worker in
flight, the one it finishes among them, so it holds up to 2 x workers
bags' (K, T, D) tile summaries. A survival run ends with one more such
pass, over the train split, to fit the Breslow baseline that the
checkpoint stores.
On top of them, each slide body in flight holds its own temporaries, in
place where it can: forward the (m, F) sampled columns, the tanh branch,
which then holds the gated output, and the dropout scale; backward the
sampled columns, the recomputed tanh branch and three (m, H) buffers.
The pool runs at most two slides per worker ahead of the thread that adds
their gradient terms, so at most that many (H, F) pairs wait unread.
AdamW updates in place through two scratch buffers allocated once per run.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

# inference.slide_outputs looks ensemble_outputs up in its module, so a
# wrapper set there (perfbench/tracing.py) also sees the validation ensemble
from . import inference
from .dataio import DatasetManifest, SlideBag, _as_real, _is_int, label_arrays, parse_json
from .errors import CorruptionError, FormatError, ValidationError
from .fingerprint import RunConfig
from .metrics import BreslowTable
from .model import (PARAM_NAMES, GatedAttentionMIL, _perturbed_losses, cox_loss,
                    cross_entropy_loss, mse_loss)
from .sampling import (balanced_batches, plain_batches, regression_batches,
                       sample_feature_indices, sample_patches, survival_batches)

CHECKPOINT_MAGIC = b"NNMILCK1"
CHECKPOINT_VERSION = 1
# "baseline" is in the header of a survival checkpoint, and only there
CHECKPOINT_HEADER_KEYS = {"format_version", "config", "tensors", "baseline"}
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def lr_schedule(epoch: int, config: RunConfig) -> float:
    """Linear warmup to learning_rate, then cosine decay to 0 at max_epochs."""
    if not 0 <= epoch < config.max_epochs:
        raise ValidationError(f"epoch {epoch} outside [0, {config.max_epochs})")
    warm, total, base = config.warmup_epochs, config.max_epochs, config.learning_rate
    if epoch < warm:
        return base * (epoch + 1) / warm
    return base * 0.5 * (1.0 + math.cos(math.pi * (epoch - warm) / (total - warm)))


def init_adam_state(params: dict[str, np.ndarray]) -> dict:
    """Zero moments, step 0, and two flat scratch buffers the size of the
    largest tensor, in the parameters' dtype, that every adamw_step reuses."""
    size = max(p.size for p in params.values())
    dtype = np.result_type(*params.values())
    return {
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.zeros_like(v) for k, v in params.items()},
        "step": 0,
        "scratch": (np.empty(size, dtype=dtype), np.empty(size, dtype=dtype)),
    }


def adamw_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: dict,
               lr: float, weight_decay: float) -> None:
    """In-place bias-corrected Adam update with decay decoupled from the moments.

    The temporaries live in the state's two scratch buffers. The operations
    are those of m += (1 - b1) * g, v += (1 - b2) * g * g and
    p -= lr * m_hat / (sqrt(v_hat) + eps), with (b1, b2) = ADAM_BETAS and
    eps = ADAM_EPS, evaluated in that order; only the operands of a product
    may swap, which IEEE multiplication does not see, so the update is
    bit-identical to the formulas. The gradients must have the parameters'
    dtype, as backward's do.
    """
    b1, b2 = ADAM_BETAS
    state["step"] += 1
    t = state["step"]
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise ValidationError(f"non-finite gradient in tensor {name}")
        m = state["m"][name]
        v = state["v"][name]
        tmp_a, tmp_b = (buf[:p.size].reshape(p.shape) for buf in state["scratch"])
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=tmp_a)
        v *= b2
        np.multiply(g, 1.0 - b2, out=tmp_a)
        v += np.multiply(tmp_a, g, out=tmp_a)
        m_hat = np.divide(m, 1.0 - b1 ** t, out=tmp_a)
        v_hat = np.divide(v, 1.0 - b2 ** t, out=tmp_b)
        p *= 1.0 - lr * weight_decay
        m_hat *= lr
        denom = np.sqrt(v_hat, out=tmp_b)
        denom += ADAM_EPS
        p -= np.divide(m_hat, denom, out=tmp_a)


@dataclass
class Checkpoint:
    """The trained model: its parameters, the config that made them and, for
    survival, the Breslow baseline fitted on the train split with those
    parameters. The AdamW state lives only as long as the run that updates
    with it."""
    params: dict[str, np.ndarray]
    config: RunConfig
    baseline: BreslowTable | None = None

    def __post_init__(self):
        if (self.baseline is None) == (self.config.task == "survival"):
            raise ValidationError("a survival checkpoint holds a Breslow baseline, and no "
                                  f"other does; this {self.config.task} checkpoint "
                                  f"{'lacks' if self.baseline is None else 'has'} one")


@dataclass
class TrainReport:
    epochs: list[dict] = field(default_factory=list)
    stopped_epoch: int = 0
    best_epoch: int | None = None
    saved_epoch: int | None = None  # whose parameters the checkpoint holds
    best_val_loss: float | None = None
    notes: list[str] = field(default_factory=list)


def build_model(checkpoint: Checkpoint) -> GatedAttentionMIL:
    """Reconstruct the aggregator from checkpoint tensor shapes and config."""
    head = checkpoint.params["head_weight"]
    hidden = checkpoint.params["attention_v"].shape[0]
    model = GatedAttentionMIL(embed_dim=head.shape[1], hidden_dim=hidden,
                              n_outputs=head.shape[0], dropout=checkpoint.config.dropout)
    model.params = checkpoint.params
    return model


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    """magic, uint64 LE header length, JSON metadata, float32 LE tensor payloads.

    The parameters are laid out in sorted name order, so the file is a
    function of the tensor contents alone, not of dict insertion order.
    """
    meta_tensors = {}
    payload = bytearray()
    for name in sorted(PARAM_NAMES):
        arr = checkpoint.params[name]
        meta_tensors[name] = {"shape": list(arr.shape), "offset": len(payload)}
        payload.extend(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": checkpoint.config.to_dict(),
        "tensors": meta_tensors,
    }
    if checkpoint.baseline is not None:
        # JSON numbers hold a float64's repr, which reads back to the same bits
        header["baseline"] = {f.name: getattr(checkpoint.baseline, f.name).tolist()
                              for f in fields(BreslowTable)}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)


def _check_model_tensors(params: dict[str, np.ndarray]) -> None:
    """The tensors must be one model's parameters, in shapes that agree with
    each other."""
    if set(params) != set(PARAM_NAMES):
        raise FormatError(f"checkpoint tensors {sorted(params)} are not {sorted(PARAM_NAMES)}")
    v, head = params["attention_v"], params["head_weight"]
    if v.ndim != 2 or head.ndim != 2:
        raise FormatError("attention_v and head_weight must be matrices")
    (h, d), c = v.shape, head.shape[0]
    shapes = {"attention_v": (h, d), "attention_u": (h, d), "attention_w": (h,),
              "head_weight": (c, d), "head_bias": (c,)}
    for name, shape in shapes.items():
        if params[name].shape != shape:
            raise FormatError(f"tensor {name} has shape {list(params[name].shape)}, "
                              f"not {list(shape)}")


def _baseline_from_header(doc) -> BreslowTable:
    """The header's Breslow table: one list per BreslowTable field, all of one
    nonzero length, of finite numbers (positive int64 integers for deaths)
    at ascending event times."""
    names = [f.name for f in fields(BreslowTable)]
    if not (isinstance(doc, dict) and doc.keys() == set(names)):
        raise FormatError(f"checkpoint baseline must be an object with the keys {names}")
    columns = {}
    for name in names:
        values = doc[name]
        if name == "deaths":
            ok, dtype = (lambda v: _is_int(v) and 1 <= v <= np.iinfo(np.int64).max), np.int64
        else:
            ok, dtype = (lambda v: _as_real(v) is not None), np.float64
        if not (isinstance(values, list) and values and all(map(ok, values))):
            kind = "positive int64 integers" if name == "deaths" else "finite numbers"
            raise FormatError(f"checkpoint baseline {name} must be a nonempty list of {kind}")
        columns[name] = np.array(values, dtype=dtype)
    if len({len(c) for c in columns.values()}) != 1:
        raise FormatError("checkpoint baseline lists differ in length")
    if not np.all(np.diff(columns["event_times"]) > 0):
        raise FormatError("checkpoint baseline event_times must ascend")
    return BreslowTable(**columns)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint: its header must hold exactly format_version 1, the
    config, the tensors and, for survival only, the Breslow baseline; its
    tensors must tile the payload, hold finite values and be exactly the
    model's parameters."""
    raw = Path(path).read_bytes()
    if len(raw) < len(CHECKPOINT_MAGIC) + 8:
        raise FormatError("checkpoint file too short for its header")
    if raw[:8] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {raw[:8]!r}")
    (header_len,) = struct.unpack("<Q", raw[8:16])
    header_end = 16 + header_len
    if len(raw) < header_end:
        raise CorruptionError("checkpoint header truncated")
    header = parse_json(raw[16:header_end], f"{path}: checkpoint header")
    payload = raw[header_end:]
    tensors = header.get("tensors") if isinstance(header, dict) else None
    if not (isinstance(tensors, dict) and isinstance(header.get("config"), dict)):
        raise FormatError("checkpoint header needs an object 'tensors' and an object 'config'")
    version = header.get("format_version")
    if not (_is_int(version) and version == CHECKPOINT_VERSION):
        raise FormatError(f"checkpoint format_version {json.dumps(version)} is not "
                          f"{CHECKPOINT_VERSION}")

    layout = []
    for name, meta in tensors.items():
        meta = meta if isinstance(meta, dict) else {}
        shape, start = meta.get("shape"), meta.get("offset")
        if not (isinstance(shape, list) and all(_is_int(v) and v >= 0 for v in (*shape, start))):
            raise FormatError(f"tensor {name}: shape and offset must be non-negative integers")
        layout.append((start, name, shape))

    # the tensors must tile the payload: in offset order, each starts where
    # the one before it ends, and the last ends with the file
    arrays = {}
    end = 0
    for start, name, shape in sorted(layout):
        if start != end:
            raise CorruptionError(f"tensor {name} starts at payload byte {start}, not {end}")
        end = start + 4 * math.prod(shape)
        if end > len(payload):
            raise CorruptionError(f"tensor {name} extends past the payload")
        arr = np.frombuffer(payload[start:end], dtype="<f4").reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise CorruptionError(f"tensor {name} holds non-finite values")
        arrays[name] = arr
    if end != len(payload):
        raise CorruptionError("checkpoint payload length mismatch")

    _check_model_tensors(arrays)
    # after the tensors, so that a retired layout (with its opt_step key) is
    # named by its tensors
    unknown = sorted(header.keys() - CHECKPOINT_HEADER_KEYS)
    if unknown:
        raise FormatError(f"checkpoint header has unknown keys {unknown}")
    config = RunConfig.from_dict(header["config"])
    baseline = _baseline_from_header(header["baseline"]) if "baseline" in header else None
    try:
        return Checkpoint(params=arrays, config=config, baseline=baseline)
    except ValidationError as exc:  # a baseline where the task has none, or none for survival
        raise FormatError(str(exc)) from exc


def _loss_and_grad(task: str, outputs: np.ndarray, targets):
    if task == "classification":
        return cross_entropy_loss(outputs, targets)
    # a scalar head; both losses return d_pred in the outputs' dtype
    loss_fn, args = (mse_loss, (targets,)) if task == "regression" else (cox_loss, targets)
    loss, d_pred = loss_fn(outputs[:, 0], *args)
    return loss, d_pred[:, None]


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

    result = model.forward(x, mask, feat)
    _, d_out = _loss_and_grad(task, result.outputs, targets)
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


def _validation_loss(model, task, val_entries, bags, windows) -> float | None:
    """Loss of the chunk-ensembled prediction over the whole validation split."""
    targets = label_arrays(task, val_entries)
    if task == "survival" and targets[1].sum() == 0:
        return None
    outputs = inference.slide_outputs(model, task, bags, val_entries, windows)
    return _loss_and_grad(task, outputs, targets)[0]


def _epoch_steps(config: RunConfig, entries, bags: dict[str, SlideBag], labels,
                 batch_buf: np.ndarray | None, rng: np.random.Generator):
    """One epoch's steps as (batch, x, mask, feature indices), drawn from rng in
    the order that fixes the checkpoint: the epoch's batch plan, then per step
    its slides' patch subsets and its feature subset. Each step is drawn
    when the caller asks for it, so the step before has drawn its dropout.
    With batch_buf None (full_bag_batch1) a step is one whole bag, read in
    place, with every feature; otherwise sample_patches writes each slide's
    rows into batch_buf, of which x is a view."""
    if batch_buf is None:
        plan = plain_batches(len(entries), 1, rng)
    elif config.task == "classification":
        plan = balanced_batches(labels, config.batch_size, rng)
    elif config.task == "regression":
        plan = regression_batches(labels, config.batch_size, rng)
    else:
        plan = survival_batches([e.label for e in entries], config.batch_size, rng)
    for batch in plan.batches:
        if batch_buf is None:
            bag = bags[entries[batch[0]].slide_id]
            yield (batch, bag.embeddings[None], np.ones((1, bag.n_patches), dtype=bool),
                   np.arange(bag.embed_dim))
        else:
            masks = [sample_patches(bags[entries[i].slide_id], batch_buf.shape[1], rng,
                                    out=batch_buf[j]).valid_mask
                     for j, i in enumerate(batch)]
            yield (batch, batch_buf[:len(batch)], np.stack(masks),
                   sample_feature_indices(batch_buf.shape[2], config.hidden_dim, rng))


def train(config: RunConfig, manifest: DatasetManifest, bags: dict[str, SlideBag],
          checkpoint_path=None) -> tuple[Checkpoint, TrainReport]:
    """Train per the run config; returns the latest-epoch checkpoint (with its
    Breslow baseline, for survival) and a report."""
    if config.task != manifest.task:
        raise ValidationError(f"config task {config.task} != manifest task {manifest.task}")
    train_entries = manifest.split_entries("train")
    val_entries = manifest.split_entries("val")
    if not train_entries or not val_entries:
        raise ValidationError("train and val splits must both be nonempty")
    for e in train_entries + val_entries:
        if e.slide_id not in bags:
            raise ValidationError(f"manifest slide {e.slide_id} missing from loaded bags")

    embed_dim = bags[train_entries[0].slide_id].embed_dim
    for sid, bag in bags.items():
        if bag.embed_dim != embed_dim:
            raise ValidationError(f"slide {sid} embed_dim {bag.embed_dim} != {embed_dim}")

    task = config.task
    rng = np.random.default_rng(config.seed)
    model = GatedAttentionMIL(embed_dim, config.hidden_dim, manifest.n_outputs,
                              dropout=config.dropout)
    model.init_params(rng)
    state = init_adam_state(model.params)
    windows = inference.inference_windows(config, embed_dim)

    labels = label_arrays(task, train_entries)
    # the one batch of the run: each step's sampled bags are written into it.
    # A bag_size above the largest train bag draws nothing more and only
    # pads, which forward ignores, so rows stop at that bag's length
    rows = min(config.bag_size, max(bags[e.slide_id].n_patches for e in train_entries))
    batch_buf = (None if config.training_mode == "full_bag_batch1" else
                 np.empty((config.batch_size, rows, embed_dim), dtype=np.float32))

    report = TrainReport()
    best_val = None
    best_epoch = None
    epochs_since_best = 0

    for epoch in range(config.max_epochs):
        lr = lr_schedule(epoch, config)
        loss_sum = 0.0
        n_seen = 0
        for batch, x, mask, feat in _epoch_steps(config, train_entries, bags, labels,
                                                 batch_buf, rng):
            batch_targets = label_arrays(task, [train_entries[i] for i in batch])
            result = model.forward(x, mask, feat, rng=rng)
            loss, d_out = _loss_and_grad(task, result.outputs, batch_targets)
            grads = model.backward(result.cache, d_out)
            adamw_step(model.params, grads, state, lr, config.weight_decay)
            # the step's state, the cache's views of x and x itself (in
            # full_bag_batch1, the step's map of its bag) are not kept through
            # validation or the next step's draws
            del result, grads, x
            loss_sum += loss * len(batch)
            n_seen += len(batch)

        train_loss = loss_sum / n_seen
        val_loss = _validation_loss(model, task, val_entries, bags, windows)
        report.epochs.append({"epoch": epoch, "lr": lr, "train_loss": train_loss,
                              "val_loss": val_loss})
        report.stopped_epoch = epoch + 1

        if val_loss is not None:
            if best_val is None or val_loss < best_val:
                best_val = val_loss
                best_epoch = epoch
                epochs_since_best = 0
            else:
                epochs_since_best += 1
            if epochs_since_best >= config.patience:
                break

    if best_val is None and task == "survival":
        report.notes.append("validation split has no events; early stopping disabled")
    report.best_epoch = best_epoch
    report.best_val_loss = best_val
    report.saved_epoch = report.epochs[-1]["epoch"]  # the last epoch run

    baseline = None
    if task == "survival":
        # Breslow's baseline is a function of the saved parameters' train
        # risks, so it is fitted once, here, and every predict reads it
        train_risks = inference.slide_outputs(model, task, bags, train_entries, windows)[:, 0]
        baseline = inference.estimate_baseline_survival(
            train_risks, [e.label for e in train_entries])
    checkpoint = Checkpoint(params=model.params, config=config, baseline=baseline)
    if checkpoint_path is not None:
        save_checkpoint(checkpoint, checkpoint_path)
    return checkpoint, report
