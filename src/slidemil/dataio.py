"""On-disk and in-memory representation of embedding bags and dataset manifests.

Embedding file layout (little-endian throughout):
    bytes 0-7    magic ASCII "NNMILEB1"
    bytes 8-11   N (number of patches) as uint32
    bytes 12-15  D (embedding dimension) as uint32
    then         N*D float32 values, row-major
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CorruptionError, FormatError, ValidationError

EMBEDDING_MAGIC = b"NNMILEB1"
HEADER_SIZE = 16

TASKS = ("classification", "regression", "survival")
SPLITS = ("train", "val", "test")


@dataclass
class SlideBag:
    """One slide's patch-embedding matrix plus identity metadata."""

    slide_id: str
    patient_id: str
    embeddings: np.ndarray  # (N, D) float32

    def __post_init__(self):
        emb = np.asarray(self.embeddings, dtype=np.float32)
        if emb.ndim != 2:
            raise ValidationError(f"bag {self.slide_id}: embeddings must be 2-D, got shape {emb.shape}")
        if emb.shape[0] < 1 or emb.shape[1] < 1:
            raise ValidationError(f"bag {self.slide_id}: need N >= 1 and D >= 1, got shape {emb.shape}")
        if not np.all(np.isfinite(emb)):
            raise ValidationError(f"bag {self.slide_id}: embeddings contain non-finite values")
        self.embeddings = emb

    @property
    def n_patches(self) -> int:
        return self.embeddings.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.embeddings.shape[1]


@dataclass(frozen=True)
class SurvivalRecord:
    time: float
    event: int

    def __post_init__(self):
        if not (np.isfinite(self.time) and self.time > 0):
            raise ValidationError(f"survival time must be a positive real, got {self.time}")
        if self.event not in (0, 1):
            raise ValidationError(f"event indicator must be 0 or 1, got {self.event}")


@dataclass(frozen=True)
class ManifestEntry:
    slide_id: str
    patient_id: str
    embedding_path: str
    split: str
    label: object  # int class index | float target | SurvivalRecord

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ValidationError(f"entry {self.slide_id}: unknown split {self.split!r}")


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]
    task: str
    n_classes: int | None = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValidationError(f"unknown task {self.task!r}")
        seen = set()
        for e in self.entries:
            if e.slide_id in seen:
                raise ValidationError(f"duplicate slide_id {e.slide_id!r}")
            seen.add(e.slide_id)
        if self.task == "classification":
            labels = [e.label for e in self.entries]
            if not all(isinstance(l, (int, np.integer)) and not isinstance(l, bool) for l in labels):
                raise ValidationError("classification labels must be integer class indices")
            if self.n_classes is None:
                self.n_classes = int(max(labels)) + 1 if labels else 0
            for e in self.entries:
                if not 0 <= e.label < self.n_classes:
                    raise ValidationError(
                        f"entry {e.slide_id}: class {e.label} outside [0, {self.n_classes})"
                    )
        elif self.task == "regression":
            for e in self.entries:
                if not isinstance(e.label, (float, int, np.floating, np.integer)) or isinstance(e.label, bool):
                    raise ValidationError(f"entry {e.slide_id}: regression target must be a real number")
                if not np.isfinite(e.label):
                    raise ValidationError(f"entry {e.slide_id}: regression target must be finite")
            if self.n_classes is not None:
                raise ValidationError("n_classes is only valid for classification")
        else:  # survival
            for e in self.entries:
                if not isinstance(e.label, SurvivalRecord):
                    raise ValidationError(f"entry {e.slide_id}: survival label must be a time/event record")
            if self.n_classes is not None:
                raise ValidationError("n_classes is only valid for classification")
            train = [e for e in self.entries if e.split == "train"]
            if train and not any(e.label.event == 1 for e in train):
                raise ValidationError("survival manifest has no event=1 entry in the train split")

    def split_entries(self, split: str) -> list[ManifestEntry]:
        if split not in SPLITS:
            raise ValidationError(f"unknown split {split!r}")
        return [e for e in self.entries if e.split == split]


def label_arrays(task: str, entries):
    """Labels of entries as arrays: int classes, float targets, or survival (times, events)."""
    if task == "classification":
        return np.array([e.label for e in entries], dtype=int)
    if task == "regression":
        return np.array([e.label for e in entries], dtype=np.float64)
    times = np.array([e.label.time for e in entries], dtype=np.float64)
    events = np.array([e.label.event for e in entries], dtype=int)
    return times, events


def read_embedding_header(path: str | Path) -> tuple[int, int]:
    """Read (N, D) from an embedding file without loading the payload."""
    with open(path, "rb") as f:
        header = f.read(HEADER_SIZE)
    if len(header) < HEADER_SIZE or header[:8] != EMBEDDING_MAGIC:
        raise FormatError(f"{path}: not an embedding file (bad magic)")
    n, d = struct.unpack("<II", header[8:16])
    return n, d


def read_embedding_file(path: str | Path, slide_id: str = "", patient_id: str = "") -> SlideBag:
    """Load a SlideBag; validates magic and payload length (SlideBag checks finiteness)."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 8 or raw[:8] != EMBEDDING_MAGIC:
        raise FormatError(f"{path}: not an embedding file (bad magic)")
    if len(raw) < HEADER_SIZE:
        raise CorruptionError(f"{path}: truncated header ({len(raw)} bytes)")
    n, d = struct.unpack("<II", raw[8:16])
    expected = HEADER_SIZE + 4 * n * d
    if len(raw) != expected:
        raise CorruptionError(
            f"{path}: payload length mismatch (header says {n}x{d}, "
            f"expected {expected} bytes, file has {len(raw)})"
        )
    if n < 1 or d < 1:
        raise CorruptionError(f"{path}: header declares empty matrix {n}x{d}")
    emb = np.frombuffer(raw, dtype="<f4", offset=HEADER_SIZE).reshape(n, d)
    return SlideBag(slide_id=slide_id or path.stem, patient_id=patient_id or path.stem,
                    embeddings=emb.copy())


def write_embedding_file(bag: SlideBag, path: str | Path) -> None:
    """Write a SlideBag in the bit-exact on-disk format. No file is emitted on invalid input."""
    emb = np.ascontiguousarray(bag.embeddings, dtype="<f4")
    if not np.all(np.isfinite(emb)):
        raise ValidationError(f"bag {bag.slide_id}: refusing to write non-finite embeddings")
    n, d = emb.shape
    payload = EMBEDDING_MAGIC + struct.pack("<II", n, d) + emb.tobytes(order="C")
    Path(path).write_bytes(payload)


def _label_from_json(raw, task: str, slide_id: str):
    if task == "classification":
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise ValidationError(f"entry {slide_id}: classification label must be an integer, got {raw!r}")
        return raw
    if task == "regression":
        if not isinstance(raw, (int, float)) or isinstance(raw, bool):
            raise ValidationError(f"entry {slide_id}: regression label must be a number, got {raw!r}")
        return float(raw)
    if not isinstance(raw, dict) or set(raw) != {"time", "event"}:
        raise ValidationError(f"entry {slide_id}: survival label must be {{'time', 'event'}}, got {raw!r}")
    return SurvivalRecord(time=float(raw["time"]), event=int(raw["event"]))


def _label_to_json(label, task: str):
    if task == "survival":
        return {"time": label.time, "event": label.event}
    return label


def read_json(path: str | Path):
    """Parse a UTF-8 JSON file; FormatError when it is not JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc


def load_manifest(path: str | Path) -> DatasetManifest:
    """Parse and validate a UTF-8 JSON manifest."""
    doc = read_json(path)
    if not isinstance(doc, dict) or "task" not in doc or "entries" not in doc:
        raise FormatError(f"{path}: manifest must be an object with 'task' and 'entries'")
    task = doc["task"]
    if task not in TASKS:
        raise ValidationError(f"{path}: unknown task {task!r}")
    entries = []
    for raw in doc["entries"]:
        missing = {"slide_id", "patient_id", "embedding_path", "split", "label"} - set(raw)
        if missing:
            raise ValidationError(f"{path}: entry missing fields {sorted(missing)}")
        entries.append(ManifestEntry(
            slide_id=raw["slide_id"],
            patient_id=raw["patient_id"],
            embedding_path=raw["embedding_path"],
            split=raw["split"],
            label=_label_from_json(raw["label"], task, raw["slide_id"]),
        ))
    n_classes = doc.get("n_classes")
    return DatasetManifest(entries=entries, task=task, n_classes=n_classes)


def save_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    doc = {
        "task": manifest.task,
        "n_classes": manifest.n_classes,
        "entries": [
            {
                "slide_id": e.slide_id,
                "patient_id": e.patient_id,
                "embedding_path": e.embedding_path,
                "split": e.split,
                "label": _label_to_json(e.label, manifest.task),
            }
            for e in manifest.entries
        ],
    }
    if manifest.task != "classification":
        del doc["n_classes"]
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_bags(manifest: DatasetManifest, data_dir: str | Path,
              splits=SPLITS) -> dict[str, SlideBag]:
    """Load the embedding files of the entries in the given splits, keyed by slide_id."""
    data_dir = Path(data_dir)
    bags = {}
    for e in manifest.entries:
        if e.split not in splits:
            continue
        p = Path(e.embedding_path)
        if not p.is_absolute():
            p = data_dir / p
        bags[e.slide_id] = read_embedding_file(p, slide_id=e.slide_id, patient_id=e.patient_id)
    return bags
