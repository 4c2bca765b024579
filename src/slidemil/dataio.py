"""On-disk and in-memory representation of embedding bags and dataset manifests,
the one JSON parser and field checker of every JSON record the commands read,
and the one real-number predicate (_as_real) of every real they read, which
rejects NaN and +-Infinity: Python's json reads them, though JSON has neither.

Embedding file layout (little-endian throughout):
    bytes 0-7    magic ASCII "NNMILEB1"
    bytes 8-11   N (number of patches) as uint32
    bytes 12-15  D (embedding dimension) as uint32
    then         N*D float32 values, row-major

A bag read from a file holds the file's path, the payload's (N, D) shape and
the file's identity (device, inode, size and modification time), not its
payload, and no open file. Each use of the bag's embeddings maps the file
read-only: one sampling draw, one full-bag training step, one bag of a
window-ensemble pass, one single-slide predict. Loading and mapping copy
nothing, the operating system may evict clean pages of a corpus larger than
memory, and the map and its pages go when the use's last reference to them
does, so the process's resident memory and open files hold the bags in use,
not the corpus. Each map checks that the file is still the one loaded, and
raises CorruptionError naming it otherwise, so a bag never returns bytes its
load-time finiteness scan did not check. write_embedding_file replaces files
by renaming; a file must not be modified in place while a use maps it
(truncating it under the mapping ends the process with SIGBUS).
"""

from __future__ import annotations

import json
import math
import mmap
import numbers
import os
import struct
import uuid
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import CorruptionError, FormatError, ValidationError

EMBEDDING_MAGIC = b"NNMILEB1"
HEADER_SIZE = 16

# Largest N or D an embedding header can hold (both are uint32).
MAX_HEADER_DIM = 2**32 - 1
# Bytes of a bag per block of SlideBag's finiteness scan. A block's min reads
# it from memory and its max from L2, so a block must fit in one core's L2
# (1 MB or more on current x86 server cores). On a 2-vCPU Xeon with 2 MB of L2
# per core, one thread and a warm page cache, 40 mapped 2500x1536 bags
# (612 MB) scanned in 77 ms at 512 KB blocks, 76-82 ms at 384 KB to 1 MB, and
# 107 ms as one min and max per whole bag; 150 bags of 350-650x768 scanned in
# 29 ms either way.
SCAN_BLOCK_BYTES = 512 * 1024

TASKS = ("classification", "regression", "survival")
SPLITS = ("train", "val", "test")


class SlideBag:
    """One slide's patch-embedding matrix plus identity metadata.

    A bag built from an array holds that array (cast to float32 if it is
    not). A bag read from a file (read_embedding_file) holds the file
    (_EmbeddingFile), and each read of embeddings maps it anew, read-only:
    writing to the map raises ValueError. Either way the values are checked
    once, when the bag is built, and n_patches and embed_dim read the shape
    the bag holds without mapping anything."""

    def __init__(self, slide_id: str, patient_id: str, embeddings):
        emb = np.asarray(embeddings, dtype=np.float32)
        if emb.ndim != 2:
            raise ValidationError(f"bag {slide_id}: embeddings must be 2-D, got shape {emb.shape}")
        if emb.shape[0] < 1 or emb.shape[1] < 1:
            raise ValidationError(f"bag {slide_id}: need N >= 1 and D >= 1, got shape {emb.shape}")
        # min and max propagate NaN, so both are finite exactly when every
        # value is; unlike isfinite they allocate nothing the size of the bag.
        # Taken per block of rows, they read each block from memory once.
        rows = max(1, SCAN_BLOCK_BYTES // (emb.itemsize * emb.shape[1]))
        for r0 in range(0, emb.shape[0], rows):
            block = emb[r0:r0 + rows]
            if not (np.isfinite(block.min()) and np.isfinite(block.max())):
                raise ValidationError(f"bag {slide_id}: embeddings contain non-finite values")
        self.slide_id, self.patient_id = slide_id, patient_id
        self._source = emb

    @property
    def embeddings(self) -> np.ndarray:
        """The (N, D) float32 values: the bag's array, or a new map of its file."""
        source = self._source
        return source.map() if isinstance(source, _EmbeddingFile) else source

    @property
    def n_patches(self) -> int:
        return self._source.shape[0]

    @property
    def embed_dim(self) -> int:
        return self._source.shape[1]


def _identity(f) -> tuple[int, int, int, int]:
    """(st_dev, st_ino, st_size, st_mtime_ns) of the file open as f."""
    st = os.fstat(f.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _map_payload(f, shape: tuple[int, int]) -> np.ndarray:
    """A read-only (N, D) view of the payload of the embedding file open as f.
    The map outlives f and closes when the last reference to the view goes."""
    buf = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    return np.frombuffer(buf, dtype="<f4", count=shape[0] * shape[1],
                         offset=HEADER_SIZE).reshape(shape)


@dataclass(frozen=True)
class _EmbeddingFile:
    """What a bag read from a file holds between uses: its path, payload shape
    and the file's identity when it was loaded."""

    path: Path
    shape: tuple[int, int]
    identity: tuple[int, int, int, int]

    def map(self) -> np.ndarray:
        """The payload, mapped read-only; CorruptionError naming the file when
        it is no longer the file that was loaded and scanned."""
        with open(self.path, "rb") as f:
            if _identity(f) != self.identity:
                raise CorruptionError(f"{self.path}: file replaced or modified since it was "
                                      f"loaded; its values were not checked")
            return _map_payload(f, self.shape)


@dataclass(frozen=True)
class BagShape:
    """(N, D) of a bag, for callers that need no payload."""

    n_patches: int
    embed_dim: int


@dataclass(frozen=True)
class SurvivalRecord:
    time: float
    event: int

    def __post_init__(self):
        time = _as_real(self.time)
        if time is None or time <= 0 or not (_is_int(self.event) and self.event in (0, 1)):
            raise ValidationError(f"survival label must be a positive finite time and an event "
                                  f"of 0 or 1, got time={self.time!r}, event={self.event!r}")


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
        if self.n_classes is not None and not _is_int(self.n_classes):
            raise ValidationError(f"n_classes must be an integer, got {self.n_classes!r}")
        seen = set()
        for e in self.entries:
            if e.slide_id in seen:
                raise ValidationError(f"duplicate slide_id {e.slide_id!r}")
            seen.add(e.slide_id)
        if self.task == "classification":
            for e in self.entries:
                if not _is_int(e.label):
                    raise ValidationError(f"entry {e.slide_id}: classification label must be "
                                          f"an integer, got {e.label!r}")
            if self.n_classes is None:
                self.n_classes = max((int(e.label) + 1 for e in self.entries), default=0)
            # fingerprinting and the head scale with n_classes, declared or
            # inferred from the largest label, not with the data
            if self.n_classes > len(self.entries):
                raise ValidationError(f"n_classes {self.n_classes} exceeds the manifest's "
                                      f"{len(self.entries)} entries")
            for e in self.entries:
                if not 0 <= e.label < self.n_classes:
                    raise ValidationError(
                        f"entry {e.slide_id}: class {e.label} outside [0, {self.n_classes})"
                    )
        elif self.task == "regression":
            for e in self.entries:
                if _as_real(e.label) is None:
                    raise ValidationError(f"entry {e.slide_id}: regression label must be a "
                                          f"finite real number, got {e.label!r}")
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

    @property
    def n_outputs(self) -> int:
        """Width of a model head for this task: one output per class, else one."""
        return self.n_classes if self.task == "classification" else 1


def label_arrays(task: str, entries):
    """Labels of entries as arrays: int classes, float targets, or survival (times, events)."""
    if task == "classification":
        return np.array([e.label for e in entries], dtype=int)
    if task == "regression":
        return np.array([e.label for e in entries], dtype=np.float64)
    times = np.array([e.label.time for e in entries], dtype=np.float64)
    events = np.array([e.label.event for e in entries], dtype=int)
    return times, events


def _read_header(path, f) -> tuple[int, int]:
    """(N, D) from the header of the embedding file open as f; the file's
    size must match it."""
    header = f.read(HEADER_SIZE)
    file_size = os.fstat(f.fileno()).st_size
    if len(header) < 8 or header[:8] != EMBEDDING_MAGIC:
        raise FormatError(f"{path}: not an embedding file (bad magic)")
    if len(header) < HEADER_SIZE:
        raise CorruptionError(f"{path}: truncated header ({len(header)} bytes)")
    n, d = struct.unpack("<II", header[8:HEADER_SIZE])
    expected = HEADER_SIZE + 4 * n * d
    if file_size != expected:
        raise CorruptionError(
            f"{path}: payload length mismatch (header says {n}x{d}, "
            f"expected {expected} bytes, file has {file_size})"
        )
    if n < 1 or d < 1:
        raise CorruptionError(f"{path}: header declares empty matrix {n}x{d}")
    return n, d


def read_embedding_header(path: str | Path) -> tuple[int, int]:
    """Read (N, D) from an embedding file without loading the payload; the
    file size must still match the header."""
    with open(path, "rb") as f:
        return _read_header(path, f)


def read_embedding_file(path: str | Path, slide_id: str = "", patient_id: str = "") -> SlideBag:
    """Load a SlideBag that holds the file (see SlideBag); validates magic and
    payload length, and SlideBag scans one map of the payload for non-finite
    values. Header, identity and the scanned payload come from one open
    file, so a file replaced meanwhile cannot pair one file's shape with
    another's values."""
    path = Path(path)
    with open(path, "rb") as f:
        n, d = _read_header(path, f)
        source = _EmbeddingFile(path, (n, d), _identity(f))
        bag = SlideBag(slide_id or path.stem, patient_id or path.stem, _map_payload(f, (n, d)))
    bag._source = source  # the scanned map closes here
    return bag


def write_embedding_file(bag: SlideBag, path: str | Path) -> None:
    """Write a SlideBag in the bit-exact on-disk format. No file is emitted on invalid input.

    The bytes go to a new file in the same directory, which then replaces
    path in one rename: readers see the old file or the new one, never a
    partial one, and a bag loaded from the old file raises CorruptionError
    at its next use."""
    # a bag's embeddings may have been written to since it was built, so its
    # checks (shape, and the blocked finiteness scan) run again
    checked = SlideBag(bag.slide_id, bag.patient_id, bag.embeddings)
    emb = np.ascontiguousarray(checked.embeddings, dtype="<f4")
    n, d = emb.shape
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(EMBEDDING_MAGIC + struct.pack("<II", n, d))
            f.write(emb.data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_real(value):
    """value as a float when it is a finite real number (not a bool), else None:
    NaN, +-Infinity and integers past float range are None."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        real = float(value)
    except OverflowError:
        return None
    return real if math.isfinite(real) else None


# what each field annotation accepts (annotations are strings here); bools are
# not numbers, and an "X | None" annotation also accepts None
_FIELD_TYPES = {"int": _is_int, "float": lambda v: _as_real(v) is not None,
                "str": lambda v: isinstance(v, str), "dict": lambda v: isinstance(v, dict),
                "list[float]": lambda v: (isinstance(v, list)
                                          and all(_as_real(x) is not None for x in v)),
                "tuple[int, int]": lambda v: (isinstance(v, (list, tuple)) and len(v) == 2
                                              and all(map(_is_int, v)))}
# how an error names what a float annotation accepts
_FINITE = {"float": "a finite float", "list[float]": "a list of finite floats"}


def _check_fields(record) -> None:
    """Reject the first field of a dataclass record whose value its annotation
    does not accept, naming it, and a task that is not one of TASKS."""
    name = type(record).__name__
    for f in fields(record):
        value, kind = getattr(record, f.name), f.type.removesuffix(" | None")
        if not (value is None and kind != f.type) and not _FIELD_TYPES[kind](value):
            expected = _FINITE.get(kind, kind) + (" or None" if kind != f.type else "")
            raise ValidationError(f"{name}.{f.name} must be {expected}, got {value!r}")
    if record.task not in TASKS:
        raise ValidationError(f"{name}: unknown task {record.task!r}")


def _from_fields(cls, doc):
    """cls(**doc) for a parsed JSON object; a missing or unknown field is named."""
    if not isinstance(doc, dict):
        raise FormatError(f"{cls.__name__}: expected a JSON object, got {type(doc).__name__}")
    try:
        return cls(**doc)
    except TypeError as exc:  # a missing or unknown field
        raise ValidationError(f"{cls.__name__}: {exc}") from exc


def _float_if_real(value):
    """value as a float if _as_real accepts it, else as it is (for its record to reject)."""
    real = _as_real(value)
    return value if real is None else real


def _label_from_json(raw, task: str, slide_id: str):
    """A manifest entry's JSON label as the entry holds it: a regression
    target as a float, a survival {"time", "event"} object as a SurvivalRecord
    with a float time. DatasetManifest and SurvivalRecord check the values."""
    if task != "survival":
        return _float_if_real(raw) if task == "regression" else raw
    if not (isinstance(raw, dict) and set(raw) == {"time", "event"}):
        raise ValidationError(f"entry {slide_id}: survival label must be {{'time': number, "
                              f"'event': integer}}, got {raw!r}")
    try:
        return SurvivalRecord(time=_float_if_real(raw["time"]), event=raw["event"])
    except ValidationError as exc:
        raise ValidationError(f"entry {slide_id}: {exc}") from None


def parse_json(raw: bytes, where):
    """Parse UTF-8 JSON bytes; FormatError naming where when they are not UTF-8
    JSON, or hold an integer too long for int() (more than 4,300 digits)."""
    try:
        return json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError among them
        raise FormatError(f"{where}: not valid JSON ({exc})") from exc


def read_json(path: str | Path):
    """Parse a UTF-8 JSON file; FormatError when it is not JSON."""
    return parse_json(Path(path).read_bytes(), path)


def write_json(doc, path: str | Path) -> None:
    """Write doc as UTF-8 JSON: indented by 2, keys sorted, newline-terminated."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_manifest(path: str | Path) -> DatasetManifest:
    """Parse and validate a UTF-8 JSON manifest."""
    doc = read_json(path)
    if not isinstance(doc, dict) or "task" not in doc or "entries" not in doc:
        raise FormatError(f"{path}: manifest must be an object with 'task' and 'entries'")
    task = doc["task"]
    if not isinstance(doc["entries"], list):
        raise FormatError(f"{path}: 'entries' must be a list")
    entries = []
    for raw in doc["entries"]:
        if not isinstance(raw, dict):
            raise FormatError(f"{path}: every entry must be an object, got {raw!r}")
        missing = {"slide_id", "patient_id", "embedding_path", "split", "label"} - set(raw)
        if missing:
            raise ValidationError(f"{path}: entry missing fields {sorted(missing)}")
        for key in ("slide_id", "patient_id", "embedding_path"):
            if not isinstance(raw[key], str):
                raise FormatError(f"{path}: entry field {key!r} must be a string, got {raw[key]!r}")
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
    doc = {"task": manifest.task, "entries": [asdict(e) for e in manifest.entries]}
    if manifest.task == "classification":
        doc["n_classes"] = manifest.n_classes
    write_json(doc, path)


def _entry_path(entry: ManifestEntry, data_dir: Path) -> Path:
    p = Path(entry.embedding_path)
    return p if p.is_absolute() else data_dir / p


def load_bags(manifest: DatasetManifest, data_dir: str | Path,
              splits=SPLITS) -> dict[str, SlideBag]:
    """Load the embedding files of the entries in the given splits, keyed by
    slide_id (read_embedding_file): no bag holds an open file or a map."""
    data_dir = Path(data_dir)
    return {e.slide_id: read_embedding_file(_entry_path(e, data_dir), e.slide_id, e.patient_id)
            for e in manifest.entries if e.split in splits}


def load_bag_shapes(manifest: DatasetManifest, data_dir: str | Path,
                    splits=SPLITS) -> dict[str, BagShape]:
    """Shapes of the embedding files of the entries in the given splits, keyed
    by slide_id, from their headers alone (payloads are not read or scanned)."""
    data_dir = Path(data_dir)
    return {e.slide_id: BagShape(*read_embedding_header(_entry_path(e, data_dir)))
            for e in manifest.entries if e.split in splits}
