"""Shared builders for small deterministic corpora used across test modules."""

import json
import os
import struct

import numpy as np
import pytest

from slidemil.dataio import DatasetManifest, ManifestEntry, SlideBag, SurvivalRecord
from slidemil.model import BLAS_THREAD_VARS, PARAM_NAMES


# Bound on the window ensemble's distance from per-window forward(), relative
# to the scale of the values compared: its block sums round differently from
# one product per window. Worst seen over 3000 random cases: 2.8e-15 (float64)
# and 1.4e-6 (float32); float32 stays well inside the 1e-4 the benchmark
# allows between the ensemble and a float64 reference.
WINDOW_TOL = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 1e-5}


def assert_window_close(got, ref, dtype):
    """got within WINDOW_TOL of ref, relative to max(1, |ref|)."""
    tol = WINDOW_TOL[np.dtype(dtype)]
    np.testing.assert_allclose(got, ref, rtol=tol, atol=tol * max(1.0, np.abs(ref).max()))


def make_bag(rng, n_patches, embed_dim, slide_id="s0", patient_id="p0"):
    x = rng.standard_normal((n_patches, embed_dim)).astype(np.float32)
    return SlideBag(slide_id=slide_id, patient_id=patient_id, embeddings=x)


def make_classification_corpus(rng, n_bags=12, embed_dim=8, n_patches=(5, 12),
                               n_classes=2):
    """Tiny labeled corpus with a fixed train/val/test split, no planted signal."""
    entries, bags = [], {}
    splits = ["train"] * (n_bags - 4) + ["val"] * 2 + ["test"] * 2
    for i in range(n_bags):
        sid = f"s{i:03d}"
        n = int(rng.integers(n_patches[0], n_patches[1] + 1))
        bags[sid] = make_bag(rng, n, embed_dim, sid, f"p{i:03d}")
        entries.append(ManifestEntry(slide_id=sid, patient_id=f"p{i:03d}",
                                     embedding_path=f"{sid}.emb", split=splits[i],
                                     label=int(i % n_classes)))
    return DatasetManifest(entries=entries, task="classification"), bags


def make_survival_corpus(rng, n_bags=12, embed_dim=8, n_patches=(5, 12)):
    entries, bags = [], {}
    splits = ["train"] * (n_bags - 4) + ["val"] * 2 + ["test"] * 2
    for i in range(n_bags):
        sid = f"s{i:03d}"
        n = int(rng.integers(n_patches[0], n_patches[1] + 1))
        bags[sid] = make_bag(rng, n, embed_dim, sid, f"p{i:03d}")
        rec = SurvivalRecord(time=float(rng.exponential(1.0) + 0.01), event=int(i % 2))
        entries.append(ManifestEntry(slide_id=sid, patient_id=f"p{i:03d}",
                                     embedding_path=f"{sid}.emb", split=splits[i],
                                     label=rec))
    return DatasetManifest(entries=entries, task="survival"), bags


def write_old_layout(ckpt, path, moment_fill=0.5):
    """A checkpoint as written while checkpoints carried the AdamW state: the
    parameters and an adam_m./adam_v. moment of each, in sorted name order,
    and an opt_step in the header. Such files no longer load."""
    tensors = {name: ckpt.params[name] for name in PARAM_NAMES}
    for moment in ("adam_m", "adam_v"):
        tensors.update({f"{moment}.{name}": np.full_like(ckpt.params[name], moment_fill)
                        for name in PARAM_NAMES})
    meta, payload = {}, b""
    for name in sorted(tensors):
        meta[name] = {"shape": list(tensors[name].shape), "offset": len(payload)}
        payload += np.ascontiguousarray(tensors[name], dtype="<f4").tobytes()
    header = {"format_version": 1, "config": ckpt.config.to_dict(), "tensors": meta,
              "opt_step": 16}
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(b"NNMILCK1" + struct.pack("<Q", len(text)) + text + payload)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def two_cpus(monkeypatch):
    """A process with two usable CPUs and no BLAS thread variable set."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
