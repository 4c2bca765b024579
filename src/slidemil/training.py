"""Optimization loop: AdamW with decoupled decay, warmup-cosine schedule,
task-aware batch plans, early stopping on validation loss, checkpointing.

Training is a deterministic function of (config, manifest, bag bytes): one
root generator is seeded from config.seed and consumed in a fixed order
(param init, then per epoch: batch plan, per batch: patch subsets, feature
subset, dropout), so identical runs produce bitwise-identical checkpoints.

Memory: a run allocates one (batch_size, bag_size, D) float32 batch buffer,
and sample_patches writes each step's slides straight into its rows. A
step's activations are released once its update is applied, so besides the
mapped train and val bags training holds one batch and one step's
activations at a time.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# called through the module, so a wrapper set on inference.ensemble_outputs
# (perfbench/tracing.py) also sees the validation ensemble
from . import inference
from .dataio import DatasetManifest, SlideBag, label_arrays
from .errors import CorruptionError, FormatError, ValidationError
from .fingerprint import RunConfig
from .model import PARAM_NAMES, GatedAttentionMIL, cox_loss, cross_entropy_loss, mse_loss
from .sampling import (balanced_batches, full_feature_indices, plain_batches,
                       regression_batches, sample_feature_indices, sample_patches,
                       survival_batches)

CHECKPOINT_MAGIC = b"NNMILCK1"
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def lr_schedule(epoch: int, config: RunConfig) -> float:
    """Linear warmup to learning_rate, then cosine decay to 0 at max_epochs."""
    if not 0 <= epoch < config.max_epochs:
        raise ValidationError(f"epoch {epoch} outside [0, {config.max_epochs})")
    warm, total, base = config.warmup_epochs, config.max_epochs, config.learning_rate
    if epoch < warm:
        return base * (epoch + 1) / warm
    if total == warm:
        return base
    return base * 0.5 * (1.0 + math.cos(math.pi * (epoch - warm) / (total - warm)))


def init_adam_state(params: dict[str, np.ndarray]) -> dict:
    return {
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.zeros_like(v) for k, v in params.items()},
        "step": 0,
    }


def adamw_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: dict,
               lr: float, weight_decay: float, betas=ADAM_BETAS, eps=ADAM_EPS) -> None:
    """In-place bias-corrected Adam update with decay decoupled from the moments."""
    b1, b2 = betas
    state["step"] += 1
    t = state["step"]
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise ValidationError(f"non-finite gradient in tensor {name}")
        m = state["m"][name]
        v = state["v"][name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p *= 1.0 - lr * weight_decay
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


@dataclass
class Checkpoint:
    params: dict[str, np.ndarray]
    opt_m: dict[str, np.ndarray]
    opt_v: dict[str, np.ndarray]
    opt_step: int
    config: RunConfig


@dataclass
class TrainReport:
    epochs: list[dict] = field(default_factory=list)
    stopped_epoch: int = 0
    best_epoch: int | None = None
    best_val_loss: float | None = None
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"epochs": self.epochs, "stopped_epoch": self.stopped_epoch,
                "best_epoch": self.best_epoch, "best_val_loss": self.best_val_loss,
                "notes": self.notes}


def build_model(checkpoint: Checkpoint) -> GatedAttentionMIL:
    """Reconstruct the aggregator from checkpoint tensor shapes and config."""
    head = checkpoint.params["head_weight"]
    hidden = checkpoint.params["attention_v"].shape[0]
    model = GatedAttentionMIL(embed_dim=head.shape[1], hidden_dim=hidden,
                              n_outputs=head.shape[0], dropout=checkpoint.config.dropout)
    model.params = checkpoint.params
    return model


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    """magic, uint64 LE header length, JSON metadata, float32 LE tensor payloads."""
    tensors: list[tuple[str, np.ndarray]] = []
    for name, arr in checkpoint.params.items():
        tensors.append((name, arr))
    for name, arr in checkpoint.opt_m.items():
        tensors.append((f"adam_m.{name}", arr))
    for name, arr in checkpoint.opt_v.items():
        tensors.append((f"adam_v.{name}", arr))
    # canonical payload layout: the file is a function of the tensor contents
    # alone, not of dict insertion order
    tensors.sort(key=lambda t: t[0])

    meta_tensors = {}
    payload = bytearray()
    for name, arr in tensors:
        data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        meta_tensors[name] = {"shape": list(arr.shape), "offset": len(payload)}
        payload.extend(data)
    header = {
        "format_version": 1,
        "config": checkpoint.config.to_dict(),
        "opt_step": checkpoint.opt_step,
        "tensors": meta_tensors,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_model_tensors(arrays: dict[str, np.ndarray]) -> None:
    """The tensors must be one model's parameters, each with its two Adam
    moments, in shapes that agree with each other."""
    names = {*PARAM_NAMES, *(f"adam_{m}.{name}" for m in "mv" for name in PARAM_NAMES)}
    if set(arrays) != names:
        raise FormatError(f"checkpoint tensors {sorted(arrays)} are not {sorted(names)}")
    v, head = arrays["attention_v"], arrays["head_weight"]
    if v.ndim != 2 or head.ndim != 2:
        raise FormatError("attention_v and head_weight must be matrices")
    (h, d), c = v.shape, head.shape[0]
    shapes = {"attention_v": (h, d), "attention_u": (h, d), "attention_w": (h,),
              "head_weight": (c, d), "head_bias": (c,)}
    for name, shape in shapes.items():
        for key in (name, f"adam_m.{name}", f"adam_v.{name}"):
            if arrays[key].shape != shape:
                raise FormatError(f"tensor {key} has shape {list(arrays[key].shape)}, "
                                  f"not {list(shape)}")


def load_checkpoint(path) -> Checkpoint:
    raw = Path(path).read_bytes()
    if len(raw) < len(CHECKPOINT_MAGIC) + 8:
        raise FormatError("checkpoint file too short for its header")
    if raw[:8] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {raw[:8]!r}")
    (header_len,) = struct.unpack("<Q", raw[8:16])
    header_end = 16 + header_len
    if len(raw) < header_end:
        raise CorruptionError("checkpoint header truncated")
    try:
        header = json.loads(raw[16:header_end].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"unreadable checkpoint header: {exc}") from exc
    payload = raw[header_end:]
    tensors = header.get("tensors") if isinstance(header, dict) else None
    if not (isinstance(tensors, dict) and _is_count(header.get("opt_step"))
            and isinstance(header.get("config"), dict)):
        raise FormatError("checkpoint header needs an object 'tensors', "
                          "a non-negative integer 'opt_step' and an object 'config'")

    layout = []
    for name, meta in tensors.items():
        meta = meta if isinstance(meta, dict) else {}
        shape, start = meta.get("shape"), meta.get("offset")
        if not (isinstance(shape, list) and all(map(_is_count, shape)) and _is_count(start)):
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

    params = {k: v for k, v in arrays.items() if not k.startswith("adam_")}
    opt_m = {k[len("adam_m."):]: v for k, v in arrays.items() if k.startswith("adam_m.")}
    opt_v = {k[len("adam_v."):]: v for k, v in arrays.items() if k.startswith("adam_v.")}
    config = RunConfig.from_dict(header["config"])
    return Checkpoint(params=params, opt_m=opt_m, opt_v=opt_v,
                      opt_step=header["opt_step"], config=config)


def _loss_and_grad(task: str, outputs: np.ndarray, targets):
    if task == "classification":
        return cross_entropy_loss(outputs, targets)
    if task == "regression":
        loss, d_pred = mse_loss(outputs[:, 0], targets)
        return loss, d_pred[:, None].astype(outputs.dtype)
    loss, d_pred = cox_loss(outputs[:, 0], *targets)
    return loss, d_pred[:, None].astype(outputs.dtype)


def _validation_loss(model, task, val_entries, bags, windows) -> float | None:
    """Loss of the chunk-ensembled prediction over the whole validation split."""
    targets = label_arrays(task, val_entries)
    if task == "survival" and targets[1].sum() == 0:
        return None
    outputs = np.stack([
        inference.slide_output(task, inference.ensemble_outputs(model, bags[e.slide_id], windows))
        for e in val_entries
    ])  # (n_val, n_out)
    return _loss_and_grad(task, outputs, targets)[0]


def train(config: RunConfig, manifest: DatasetManifest, bags: dict[str, SlideBag],
          checkpoint_path=None) -> tuple[Checkpoint, TrainReport]:
    """Train per the run config; returns the latest-epoch checkpoint and a report."""
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
    full_bag_mode = config.training_mode == "full_bag_batch1"
    n_out = manifest.n_classes if task == "classification" else 1

    rng = np.random.default_rng(config.seed)
    model = GatedAttentionMIL(embed_dim, config.hidden_dim, n_out, dropout=config.dropout)
    model.init_params(rng)
    state = init_adam_state(model.params)
    windows = inference.inference_windows(config, embed_dim)

    labels = label_arrays(task, train_entries)
    # the one batch of the run: each step's sampled bags are written into it
    batch_buf = (None if full_bag_mode else
                 np.empty((config.batch_size, config.bag_size, embed_dim), dtype=np.float32))

    report = TrainReport()
    best_val = None
    best_epoch = None
    epochs_since_best = 0
    skipped_eventless = 0

    for epoch in range(config.max_epochs):
        lr = lr_schedule(epoch, config)
        if full_bag_mode:
            plan = plain_batches(len(train_entries), 1, rng)
        elif task == "classification":
            plan = balanced_batches(labels, config.batch_size, rng)
        elif task == "regression":
            plan = regression_batches(labels, config.batch_size, rng)
        else:
            plan = survival_batches([e.label for e in train_entries], config.batch_size, rng)

        loss_sum = 0.0
        n_seen = 0
        for batch in plan.batches:
            if full_bag_mode:
                bag = bags[train_entries[batch[0]].slide_id]
                x = bag.embeddings[None]
                mask = np.ones((1, bag.n_patches), dtype=bool)
                feat = full_feature_indices(embed_dim)
            else:
                fixed = [sample_patches(bags[train_entries[i].slide_id], config.bag_size, rng,
                                        out=batch_buf[j])
                         for j, i in enumerate(batch)]
                x = batch_buf[:len(batch)]
                mask = np.stack([f.valid_mask for f in fixed])
                feat = sample_feature_indices(embed_dim, config.hidden_dim, rng)
            batch_targets = label_arrays(task, [train_entries[i] for i in batch])
            if task == "survival" and int(np.sum(batch_targets[1])) == 0:
                skipped_eventless += 1
                continue
            # SlideBag scanned every bag when it was built; padding rows are zeros
            result = model.forward(x, mask, feat, training=True, rng=rng, need_cache=True,
                                   check_finite=False)
            loss, d_out = _loss_and_grad(task, result.outputs, batch_targets)
            grads = model.backward(result.cache, d_out)
            adamw_step(model.params, grads, state, lr, config.weight_decay)
            # the activations (and the cache's views of x) are not kept through
            # validation or the next step's sampling and forward
            del result, grads
            loss_sum += loss * len(batch)
            n_seen += len(batch)

        train_loss = loss_sum / n_seen if n_seen else float("nan")
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

    if skipped_eventless:
        report.notes.append(f"skipped {skipped_eventless} event-free survival batches")
    if best_val is None and task == "survival":
        report.notes.append("validation split has no events; early stopping disabled")
    report.best_epoch = best_epoch
    report.best_val_loss = best_val

    checkpoint = Checkpoint(params=model.params, opt_m=state["m"], opt_v=state["v"],
                            opt_step=state["step"], config=config)
    if checkpoint_path is not None:
        save_checkpoint(checkpoint, checkpoint_path)
    return checkpoint, report
