"""Binary embedding-file format and manifest validation."""

import dataclasses
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slidemil import dataio
from slidemil.cli import main
from slidemil.dataio import (
    EMBEDDING_MAGIC,
    DatasetManifest,
    ManifestEntry,
    SlideBag,
    SurvivalRecord,
    load_bag_shapes,
    load_bags,
    load_manifest,
    read_embedding_file,
    read_embedding_header,
    save_manifest,
    write_embedding_file,
)
from slidemil.errors import CorruptionError, FormatError, ValidationError
from slidemil.fingerprint import DataFingerprint, RunConfig
from slidemil.synthetic import SyntheticSpec, write_synthetic_dataset
from slidemil.training import CHECKPOINT_MAGIC, load_checkpoint

from conftest import make_bag


class TestEmbeddingFormat:
    def test_roundtrip_bitwise(self, rng, tmp_path):
        bag = make_bag(rng, 17, 5)
        path = tmp_path / "a.emb"
        write_embedding_file(bag, path)
        back = read_embedding_file(path, slide_id=bag.slide_id, patient_id=bag.patient_id)
        assert back.embeddings.dtype == np.float32
        assert np.array_equal(
            back.embeddings.view(np.uint32), bag.embeddings.view(np.uint32)
        ), "roundtrip must preserve every bit"
        # writing the re-read bag reproduces the file byte for byte
        path2 = tmp_path / "b.emb"
        write_embedding_file(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_exact_layout_1x1(self, tmp_path):
        bag = SlideBag("s", "p", np.array([[0.5]], dtype=np.float32))
        path = tmp_path / "one.emb"
        write_embedding_file(bag, path)
        raw = path.read_bytes()
        assert len(raw) == 20  # 8 magic + 4 + 4 + one float32
        assert raw[:8] == EMBEDDING_MAGIC
        n, d = struct.unpack("<II", raw[8:16])
        assert (n, d) == (1, 1)
        assert struct.unpack("<f", raw[16:20])[0] == 0.5

    def test_header_reader(self, rng, tmp_path):
        bag = make_bag(rng, 9, 3)
        path = tmp_path / "h.emb"
        write_embedding_file(bag, path)
        assert read_embedding_header(path) == (9, 3)

    def test_header_reader_checks_file_size(self, rng, tmp_path):
        path = tmp_path / "h.emb"
        write_embedding_file(make_bag(rng, 9, 3), path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(CorruptionError):
            read_embedding_header(path)

    def test_bad_magic_is_format_error(self, rng, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(FormatError):
            read_embedding_file(path)

    def test_truncated_header_is_corruption(self, tmp_path):
        path = tmp_path / "short.emb"
        path.write_bytes(EMBEDDING_MAGIC + b"\x01")
        with pytest.raises(CorruptionError):
            read_embedding_file(path)

    def test_payload_length_mismatch_is_corruption(self, tmp_path):
        # header declares 3x4 = 12 floats but the payload carries 11
        payload = struct.pack("<8sII", EMBEDDING_MAGIC, 3, 4) + b"\x00" * (11 * 4)
        path = tmp_path / "lie.emb"
        path.write_bytes(payload)
        with pytest.raises(CorruptionError):
            read_embedding_file(path)

    def test_nan_rejected_before_write(self, tmp_path):
        x = np.ones((2, 2), dtype=np.float32)
        bag = SlideBag("s", "p", x)
        bag.embeddings[0, 0] = np.nan  # bypass constructor validation
        path = tmp_path / "nan.emb"
        with pytest.raises(ValidationError):
            write_embedding_file(bag, path)
        assert not path.exists(), "no partial file may be left behind"

    def test_nan_payload_rejected_on_read(self, tmp_path):
        path = tmp_path / "nan.emb"
        payload = np.array([[1.0, np.nan]], dtype="<f4").tobytes()
        path.write_bytes(EMBEDDING_MAGIC + struct.pack("<II", 1, 2) + payload)
        with pytest.raises(ValidationError):
            read_embedding_file(path)


class TestBagValidation:
    def test_rejects_wrong_rank(self):
        with pytest.raises(ValidationError):
            SlideBag("s", "p", np.zeros(4, dtype=np.float32))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            SlideBag("s", "p", np.zeros((0, 4), dtype=np.float32))

    # with 36-byte scan blocks an 11x3 bag is scanned as rows 0-2, 3-5, 6-8
    # and the short 9-10, and a 1x20 bag as one row wider than a block
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape,index", [
        ((2, 2), (1, 1)),    # the whole bag in one block
        ((11, 3), (0, 0)),   # first block
        ((11, 3), (2, 2)),   # last value before a block boundary
        ((11, 3), (3, 0)),   # first value after it
        ((11, 3), (10, 2)),  # short last block
        ((1, 20), (0, 13)),  # one row wider than a block
    ])
    @pytest.mark.parametrize("source", ["array", "float64", "strided", "file"])
    def test_rejects_nonfinite(self, monkeypatch, tmp_path, shape, index, value, source):
        monkeypatch.setattr(dataio, "SCAN_BLOCK_BYTES", 36)
        x = np.zeros(shape, dtype=np.float32)
        if source == "strided":
            x = np.zeros((2 * shape[0], 2 * shape[1]), dtype=np.float32)[::2, ::2]
            assert not x.flags.c_contiguous
        x[index] = value
        if source == "float64":
            x = x.astype(np.float64)
        if source == "file":
            path = tmp_path / "x.emb"
            path.write_bytes(EMBEDDING_MAGIC + struct.pack("<II", *shape) + x.tobytes())
            with pytest.raises(ValidationError, match="non-finite"):
                read_embedding_file(path)
        else:
            with pytest.raises(ValidationError, match="non-finite"):
                SlideBag("s", "p", x)

    @pytest.mark.parametrize("shape", [(11, 3), (9, 3), (1, 20)])
    def test_accepts_finite_bag_over_several_blocks(self, monkeypatch, shape):
        """Only the bag's own values are scanned: the NaNs between the rows and
        columns of a strided view are not."""
        monkeypatch.setattr(dataio, "SCAN_BLOCK_BYTES", 36)
        wide = np.full((2 * shape[0], 2 * shape[1]), np.nan, dtype=np.float32)
        wide[::2, ::2] = np.arange(shape[0] * shape[1]).reshape(shape)
        bag = SlideBag("s", "p", wide[::2, ::2])
        assert np.shares_memory(bag.embeddings, wide)

    def test_casts_to_float32(self):
        bag = SlideBag("s", "p", np.ones((2, 3), dtype=np.float64))
        assert bag.embeddings.dtype == np.float32
        assert bag.n_patches == 2 and bag.embed_dim == 3


class TestSurvivalRecord:
    def test_accepts_valid(self):
        r = SurvivalRecord(time=1.5, event=0)
        assert r.time == 1.5 and r.event == 0

    # a time past float range, and a bool, as the Python API may pass them
    @pytest.mark.parametrize("time", [0.0, -1.0, float("nan"), float("inf"), 10**400, True],
                             ids=["0.0", "-1.0", "nan", "inf", "10**400", "True"])
    def test_rejects_bad_time(self, time):
        with pytest.raises(ValidationError):
            SurvivalRecord(time=time, event=1)

    def test_rejects_bad_event(self):
        with pytest.raises(ValidationError):
            SurvivalRecord(time=1.0, event=2)

    @pytest.mark.parametrize("event", [True, 1.0])
    def test_rejects_event_that_is_not_an_int(self, event):
        with pytest.raises(ValidationError, match="event of 0 or 1"):
            SurvivalRecord(time=1.0, event=event)


def _entry(sid, split="train", label=0, pid=None):
    return ManifestEntry(slide_id=sid, patient_id=pid or sid, embedding_path=f"{sid}.emb",
                         split=split, label=label)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        m = DatasetManifest(entries=[_entry("a", label=0), _entry("b", label=1)],
                            task="classification")
        path = tmp_path / "m.json"
        save_manifest(m, path)
        back = load_manifest(path)
        assert back.task == "classification"
        assert back.n_classes == 2
        assert [e.slide_id for e in back.entries] == ["a", "b"]
        assert [e.label for e in back.entries] == [0, 1]

    def test_n_classes_inferred_from_max_label(self):
        m = DatasetManifest(entries=[_entry("a", label=0), _entry("b", label=2),
                                     _entry("c", label=0)],
                            task="classification")
        assert m.n_classes == 3

    def test_n_classes_bounded_by_entries(self):
        entries = [_entry("a", label=0), _entry("b", label=1), _entry("c", label=0)]
        assert DatasetManifest(entries=entries, task="classification", n_classes=3).n_classes == 3
        with pytest.raises(ValidationError, match="n_classes 4 exceeds"):
            DatasetManifest(entries=entries, task="classification", n_classes=4)
        with pytest.raises(ValidationError, match="exceeds"):
            DatasetManifest(entries=entries, task="classification", n_classes=10**9)
        # an inferred count is bounded too: a label of 10**9 would otherwise
        # size the fingerprint's class counts and the head by it
        with pytest.raises(ValidationError, match="n_classes 1000000001 exceeds"):
            DatasetManifest(entries=[*entries, _entry("d", label=10**9)],
                            task="classification")

    def test_duplicate_slide_id_rejected(self):
        with pytest.raises(ValidationError):
            DatasetManifest(entries=[_entry("a"), _entry("a")], task="classification")

    def test_unknown_split_rejected(self):
        with pytest.raises(ValidationError):
            _entry("a", split="eval")

    def test_label_task_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            DatasetManifest(entries=[_entry("a", label=0.5)], task="classification")
        with pytest.raises(ValidationError):
            DatasetManifest(entries=[_entry("a", label=1)], task="survival")

    @pytest.mark.parametrize("label", [10**400, True], ids=["10**400", "True"])
    def test_regression_label_must_be_a_finite_real(self, label):
        with pytest.raises(ValidationError, match="entry b: regression label must be"):
            DatasetManifest(entries=[_entry("a", label=1.5), _entry("b", label=label)],
                            task="regression")

    @pytest.mark.parametrize("task,label,held", [
        ("regression", 3, 3.0), ("regression", -2, -2.0),
        ("survival", {"time": 4, "event": 1}, {"time": 4.0, "event": 1})])
    def test_integer_valued_labels_round_trip_as_floats(self, tmp_path, task, label, held):
        # JSON integers are held as floats, so a saved manifest writes 3.0, not 3
        def doc(label):
            return {"task": task, "entries": [{"slide_id": "a", "patient_id": "a",
                                               "embedding_path": "a.emb", "split": "train",
                                               "label": label}]}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc(label)))
        manifest = load_manifest(path)
        real = manifest.entries[0].label
        assert type(real.time if task == "survival" else real) is float
        save_manifest(manifest, path)
        assert path.read_text() == json.dumps(doc(held), indent=2, sort_keys=True) + "\n"

    def test_survival_train_needs_an_event(self):
        rec = SurvivalRecord(time=1.0, event=0)
        with pytest.raises(ValidationError):
            DatasetManifest(entries=[_entry("a", label=rec)], task="survival")
        # an event anywhere in train satisfies the invariant
        good = DatasetManifest(
            entries=[_entry("a", label=rec),
                     _entry("b", label=SurvivalRecord(time=2.0, event=1))],
            task="survival")
        assert good.task == "survival"

    def test_survival_manifest_roundtrip(self, tmp_path):
        m = DatasetManifest(
            entries=[_entry("a", label=SurvivalRecord(time=1.0, event=1)),
                     _entry("b", split="val", label=SurvivalRecord(time=2.5, event=0))],
            task="survival")
        path = tmp_path / "surv.json"
        save_manifest(m, path)
        back = load_manifest(path)
        assert isinstance(back.entries[0].label, SurvivalRecord)
        assert back.entries[1].label.time == 2.5
        assert back.entries[1].label.event == 0

    def test_split_entries_ordering(self):
        m = DatasetManifest(
            entries=[_entry("a", "train"), _entry("b", "test", 1), _entry("c", "train", 1)],
            task="classification")
        assert [e.slide_id for e in m.split_entries("train")] == ["a", "c"]
        assert [e.slide_id for e in m.split_entries("test")] == ["b"]

    def test_malformed_json_is_format_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_manifest(path)


class TestLoadBags:
    def test_loads_all_entries(self, rng, tmp_path):
        bags = {}
        entries = []
        for i in range(3):
            sid = f"s{i}"
            bag = make_bag(rng, 4 + i, 6, sid, f"p{i}")
            write_embedding_file(bag, tmp_path / f"{sid}.emb")
            bags[sid] = bag
            entries.append(_entry(sid, label=i % 2, pid=f"p{i}"))
        manifest = DatasetManifest(entries=entries, task="classification")
        loaded = load_bags(manifest, tmp_path)
        assert set(loaded) == set(bags)
        for sid in bags:
            assert np.array_equal(loaded[sid].embeddings, bags[sid].embeddings)
            assert loaded[sid].patient_id == f"p{sid[1:]}"

    def test_missing_file_raises(self, tmp_path):
        manifest = DatasetManifest(entries=[_entry("ghost")], task="classification")
        with pytest.raises((OSError, FormatError)):
            load_bags(manifest, tmp_path)


def _corpus(tmp_path, n_bags=3, n_patches=4, embed_dim=6, seed=0):
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(n_bags):
        sid = f"s{i}"
        write_embedding_file(make_bag(rng, n_patches + i, embed_dim, sid), tmp_path / f"{sid}.emb")
        entries.append(_entry(sid, label=i % 2))
    return DatasetManifest(entries=entries, task="classification")


class TestMappedBags:
    """Loaded bags are read-only views of their files: loading copies nothing."""

    def test_loaded_bag_is_read_only(self, tmp_path):
        manifest = _corpus(tmp_path)
        for bag in [read_embedding_file(tmp_path / "s0.emb"),
                    *load_bags(manifest, tmp_path).values()]:
            assert not bag.embeddings.flags.writeable
            with pytest.raises(ValueError):
                bag.embeddings[0, 0] = 1.0
            with pytest.raises(ValueError):
                bag.embeddings += 1.0

    @pytest.mark.parametrize("load", ["read_embedding_file", "load_bags"])
    def test_load_allocates_under_a_tenth_of_the_payload(self, load, tmp_path):
        manifest = _corpus(tmp_path, n_bags=4, n_patches=512, embed_dim=256)
        payload = sum(4 * (512 + i) * 256 for i in range(4))
        read_embedding_file(tmp_path / "s0.emb")  # first call pays one-off imports
        tracemalloc.start()
        try:
            if load == "read_embedding_file":
                bags = [read_embedding_file(tmp_path / f"{e.slide_id}.emb")
                        for e in manifest.entries]
            else:
                bags = list(load_bags(manifest, tmp_path).values())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(b.embeddings.nbytes for b in bags) == payload
        assert peak < 0.1 * payload, f"loading allocated {peak} bytes for a {payload}-byte payload"

    def test_finiteness_scan_allocates_under_one_block(self, rng, tmp_path):
        path = tmp_path / "big.emb"
        write_embedding_file(make_bag(rng, 2048, 512), path)  # 4 MB
        read_embedding_file(path)  # first call pays one-off imports
        tracemalloc.start()
        try:
            bag = read_embedding_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bag.embeddings.nbytes >= 4 * dataio.SCAN_BLOCK_BYTES
        assert peak < dataio.SCAN_BLOCK_BYTES, f"scanning a 4 MB bag allocated {peak} bytes"

    @pytest.mark.parametrize("shape", [(7, 5), (3, 2)], ids=["same-size", "resized"])
    def test_a_use_after_the_file_is_renamed_over_raises(self, rng, tmp_path, shape):
        path = tmp_path / "a.emb"
        write_embedding_file(make_bag(rng, 7, 5), path)
        loaded = read_embedding_file(path)
        write_embedding_file(make_bag(rng, *shape), path)
        assert (loaded.n_patches, loaded.embed_dim) == (7, 5)  # held, not mapped
        with pytest.raises(CorruptionError, match=re.escape(str(path))):
            loaded.embeddings
        assert read_embedding_file(path).embeddings.shape == shape
        assert sorted(os.listdir(tmp_path)) == ["a.emb"], "no temporary file may be left"

    def test_each_use_maps_the_file_anew(self, rng, tmp_path):
        written = make_bag(rng, 3000, 64)  # 750 KB: many pages
        write_embedding_file(written, tmp_path / "a.emb")
        bag = read_embedding_file(tmp_path / "a.emb")
        first, second = bag.embeddings, bag.embeddings
        assert first is not second and not np.shares_memory(first, second)
        for view in (first, second):
            assert np.array_equal(view.view(np.uint32), written.embeddings.view(np.uint32))

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
    def test_loaded_bags_hold_no_open_file(self, tmp_path):
        manifest = _corpus(tmp_path, n_bags=40)
        before = len(os.listdir("/proc/self/fd"))
        bags = load_bags(manifest, tmp_path)
        assert len(os.listdir("/proc/self/fd")) == before
        view = bags["s0"].embeddings  # one use holds one map and its descriptor
        assert len(os.listdir("/proc/self/fd")) == before + 1
        del view
        assert len(os.listdir("/proc/self/fd")) == before

    def test_failed_rename_keeps_the_old_file(self, rng, tmp_path, monkeypatch):
        path = tmp_path / "a.emb"
        write_embedding_file(make_bag(rng, 4, 3), path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(dataio.os, "replace", fail)
        with pytest.raises(OSError):
            write_embedding_file(make_bag(rng, 9, 9), path)
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["a.emb"], "no partial file may be left"


_LIMITED_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_NOFILE, (64, 64))
from slidemil import dataio
from slidemil.cli import main
manifest, data, config, out = sys.argv[1:]
try:
    bags = dataio.load_bags(dataio.load_manifest(manifest), data)
except dataio.ValidationError as exc:
    print(exc)
    sys.exit(1)
assert len(bags) == 150, len(bags)
sys.exit(main(["train", "--manifest", manifest, "--data-dir", data, "--config", config,
               "--out", out])
         or main(["predict", "--manifest", manifest, "--data-dir", data,
                  "--checkpoint", out + "/checkpoint.ckpt", "--out", out]))
"""


@pytest.mark.skipif(sys.platform == "win32", reason="RLIMIT_NOFILE is POSIX")
def test_a_corpus_loads_trains_and_predicts_under_64_descriptors(tmp_path):
    """No loaded bag holds an open file: at a soft and hard limit of 64
    descriptors, 150 bags load, train (on 120) and predict (on 30)."""
    spec = SyntheticSpec(task="classification", n_bags=150, patches_per_bag_range=(4, 8),
                         embed_dim=8, seed=0)
    write_synthetic_dataset(spec, tmp_path / "data")
    config = RunConfig(task="classification", bag_size=8, hidden_dim=4, stride=2, dropout=0.0,
                       batch_size=8, learning_rate=1e-3, weight_decay=1e-4, warmup_epochs=0,
                       max_epochs=1, patience=1, seed=0)
    config.to_json(tmp_path / "config.json")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", _LIMITED_CHILD, str(tmp_path / "data" / "manifest.json"),
         str(tmp_path / "data"), str(tmp_path / "config.json"), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert len((tmp_path / "out" / "predictions.jsonl").read_text().splitlines()) == 30


_RSS_CHILD = """
import json, sys
import numpy as np
from slidemil import dataio, inference, training
from slidemil.fingerprint import RunConfig
from slidemil.model import GatedAttentionMIL

def rss_mb():
    with open("/proc/self/status") as f:
        return next(int(l.split()[1]) for l in f if l.startswith("VmRSS:")) / 1024

manifest = dataio.load_manifest(sys.argv[1])
config = RunConfig(**json.loads(sys.argv[3]))
full_bag = RunConfig(**{**config.to_dict(), "training_mode": "full_bag_batch1", "batch_size": 1})
model = GatedAttentionMIL(256, config.hidden_dim, manifest.n_outputs, dropout=config.dropout)
model.init_params(np.random.default_rng(0))
windows = inference.inference_windows(config, 256)
for run in range(2):  # the first run warms the heap and BLAS; the second is measured
    growth, last = {}, rss_mb()
    def stage(name):
        global last
        now = rss_mb()
        growth[name], last = now - last, now
    bags = dataio.load_bags(manifest, sys.argv[2])
    stage("load_bags")
    inference.slide_outputs(model, manifest.task, bags, manifest.entries, windows)
    stage("slide_outputs")
    training.train(config, manifest, bags)
    stage("train")
    training.train(full_bag, manifest, bags)
    stage("train full_bag_batch1")
    del bags
print(json.dumps(growth))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmRSS from /proc")
def test_resident_memory_stays_at_one_bag(tmp_path):
    """Loading, scoring and training on a corpus read from files leaves at
    most one bag (plus the batch buffer) resident: each use's map closes,
    and its pages go with it, once the use is over."""
    spec = SyntheticSpec(task="classification", n_bags=24, patches_per_bag_range=(1900, 2100),
                         embed_dim=256, seed=3)  # 2 MB bags, 48 MB in all
    write_synthetic_dataset(spec, tmp_path)
    config = dict(task="classification", bag_size=64, hidden_dim=64, stride=32, dropout=0.25,
                  batch_size=8, learning_rate=1e-3, weight_decay=1e-4, warmup_epochs=0,
                  max_epochs=1, patience=5, seed=0)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", _RSS_CHILD, str(tmp_path / "manifest.json"),
                           str(tmp_path), json.dumps(config)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    growth = json.loads(done.stdout)
    shapes = load_bag_shapes(load_manifest(tmp_path / "manifest.json"), tmp_path)
    one_bag = max(4 * s.n_patches * s.embed_dim for s in shapes.values()) / 2**20
    batch = 4 * config["batch_size"] * config["bag_size"] * spec.embed_dim / 2**20
    slack = 4.0  # MB: interpreter and allocator noise, far below the 48 MB corpus
    bounds = {"load_bags": one_bag, "slide_outputs": one_bag, "train": one_bag + batch,
              "train full_bag_batch1": one_bag}
    for name, bound in bounds.items():
        assert growth[name] < bound + slack, f"{name} grew VmRSS by {growth[name]:.1f} MB"


@st.composite
def damaged_embedding_files(draw):
    """(file bytes, the error class reading them must raise) for one damage:
    truncation at any offset, a header whose N x D disagrees with the file
    size, bad magic, or one NaN or +-inf in the payload."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    x = np.arange(n * d, dtype="<f4").reshape(n, d) + 0.5
    raw = EMBEDDING_MAGIC + struct.pack("<II", n, d) + x.tobytes()
    kind = draw(st.sampled_from(["truncate", "size", "magic", "nonfinite"]))
    if kind == "truncate":
        cut = draw(st.integers(0, len(raw) - 1))
        return raw[:cut], FormatError if cut < 8 else CorruptionError
    if kind == "size":
        shape = draw(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
                     .filter(lambda s: s[0] * s[1] != n * d)
                     | st.tuples(st.integers(0, 2 * n), st.integers(0, 2 * d))
                     .filter(lambda s: s[0] * s[1] != n * d))
        return EMBEDDING_MAGIC + struct.pack("<II", *shape) + x.tobytes(), CorruptionError
    if kind == "magic":
        magic = draw(st.binary(min_size=8, max_size=8).filter(lambda m: m != EMBEDDING_MAGIC))
        return magic + raw[8:], FormatError
    x.flat[draw(st.integers(0, n * d - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return EMBEDDING_MAGIC + struct.pack("<II", n, d) + x.tobytes(), ValidationError


EXIT_CODES = {FormatError: 2, CorruptionError: 2, ValidationError: 1}


def _replace_file(path, raw: bytes) -> None:
    """Put raw at path by renaming, so no earlier mapping of path sees it change."""
    tmp = path.with_name(path.name + ".new")
    tmp.write_bytes(raw)
    os.replace(tmp, path)


@pytest.fixture(scope="module")
def trained_corpus(tmp_path_factory):
    """A tiny classification corpus with a plan and a one-epoch checkpoint."""
    root = tmp_path_factory.mktemp("fuzz")
    spec = root / "spec.json"
    spec.write_text(json.dumps({"task": "classification", "n_bags": 10,
                                "patches_per_bag_range": [3, 5], "embed_dim": 5,
                                "seed": 0}), encoding="utf-8")
    data = root / "data"
    assert main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
    manifest = data / "manifest.json"
    assert main(["fingerprint", "--manifest", str(manifest), "--data-dir", str(data),
                 "--out", str(root / "fp")]) == 0
    assert main(["plan", "--fingerprint", str(root / "fp" / "fingerprint.json"),
                 "--override", "max_epochs=1", "--out", str(root / "plan")]) == 0
    assert main(["train", "--manifest", str(manifest), "--data-dir", str(data),
                 "--config", str(root / "plan" / "config.json"),
                 "--out", str(root / "train")]) == 0
    return root, load_manifest(manifest)


class TestReaderFuzz:
    @settings(max_examples=200, deadline=None)
    @given(damaged_embedding_files())
    def test_error_class(self, tmp_path_factory, case):
        raw, error = case
        path = tmp_path_factory.mktemp("emb") / "x.emb"
        path.write_bytes(raw)
        for read in (read_embedding_file, read_embedding_header):
            if error is ValidationError and read is read_embedding_header:
                assert read(path) == struct.unpack("<II", raw[8:16])  # payload unread
                continue
            with pytest.raises(error) as info:
                read(path)
            assert type(info.value) is error

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=damaged_embedding_files())
    def test_exit_codes(self, trained_corpus, case, capsys):
        """predict reads the test split and train the train and val splits, so
        one damaged file in each makes both exit with the error's code."""
        root, manifest = trained_corpus
        data = root / "data"
        raw, error = case
        damaged = [data / manifest.split_entries(split)[0].embedding_path
                   for split in ("test", "train")]
        originals = [p.read_bytes() for p in damaged]
        for p in damaged:
            _replace_file(p, raw)
        try:
            predict = main(["predict", "--manifest", str(data / "manifest.json"),
                            "--data-dir", str(data),
                            "--checkpoint", str(root / "train" / "checkpoint.ckpt"),
                            "--out", str(root / "pred")])
            train = main(["train", "--manifest", str(data / "manifest.json"),
                          "--data-dir", str(data),
                          "--config", str(root / "plan" / "config.json"),
                          "--out", str(root / "train_again")])
        finally:
            for p, original in zip(damaged, originals):
                _replace_file(p, original)
        assert (predict, train) == (EXIT_CODES[error], EXIT_CODES[error])
        assert "Traceback" not in capsys.readouterr().err


def test_predict_exits_2_when_a_loaded_file_is_renamed_over(trained_corpus, monkeypatch, capsys):
    """A bag whose file is replaced between load and use is an error naming
    the file, even when the new file holds the same bytes."""
    root, manifest = trained_corpus
    data = root / "data"
    target = data / manifest.split_entries("test")[0].embedding_path
    loaded = dataio.load_bags

    def load_then_replace(*args, **kwargs):
        bags = loaded(*args, **kwargs)
        _replace_file(target, target.read_bytes())
        return bags

    monkeypatch.setattr(dataio, "load_bags", load_then_replace)
    capsys.readouterr()
    code = main(["predict", "--manifest", str(data / "manifest.json"), "--data-dir", str(data),
                 "--checkpoint", str(root / "train" / "checkpoint.ckpt"),
                 "--out", str(root / "pred_replaced")])
    err = capsys.readouterr().err
    assert code == 2
    assert str(target) in err and "Traceback" not in err


def _checkpoint_bytes(header: dict, payload: bytes) -> bytes:
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return CHECKPOINT_MAGIC + struct.pack("<Q", len(text)) + text + payload


@st.composite
def damaged_checkpoints(draw, raw: bytes):
    """(file bytes, the error class load_checkpoint must raise) for one damage
    to the checkpoint raw: truncation at any offset, a header length past the
    end of the file, one tensor's shape or offset that disagrees with the
    payload, or one NaN or +-inf at any payload position."""
    (header_len,) = struct.unpack("<Q", raw[8:16])
    header, payload = json.loads(raw[16:16 + header_len]), raw[16 + header_len:]
    kind = draw(st.sampled_from(["truncate", "header_length", "layout", "nonfinite"]))
    if kind == "truncate":
        cut = draw(st.integers(0, len(raw) - 1))
        return raw[:cut], FormatError if cut < 16 else CorruptionError
    if kind == "header_length":
        past = draw(st.integers(len(raw) - 16 + 1, 2**64 - 1))
        return raw[:8] + struct.pack("<Q", past) + raw[16:], CorruptionError
    if kind == "layout":
        name = draw(st.sampled_from(sorted(header["tensors"])))
        meta = header["tensors"][name]
        if draw(st.booleans()):
            edit = {"offset": draw(st.integers(0, 2 * len(payload))
                                   .filter(lambda offset: offset != meta["offset"]))}
        else:
            edit = {"shape": draw(st.lists(st.integers(0, 64), min_size=1, max_size=3)
                                  .filter(lambda s: math.prod(s) != math.prod(meta["shape"])))}
        tensors = {**header["tensors"], name: {**meta, **edit}}
        return _checkpoint_bytes({**header, "tensors": tensors}, payload), CorruptionError
    values = np.frombuffer(payload, dtype="<f4").copy()
    values[draw(st.integers(0, len(values) - 1))] = draw(
        st.sampled_from([np.nan, np.inf, -np.inf]))
    return _checkpoint_bytes(header, values.tobytes()), CorruptionError


class TestCheckpointReaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_error_class(self, trained_corpus, tmp_path_factory, data):
        root, _ = trained_corpus
        raw, error = data.draw(damaged_checkpoints((root / "train" / "checkpoint.ckpt").read_bytes()))
        path = tmp_path_factory.mktemp("ckpt") / "x.ckpt"
        path.write_bytes(raw)
        with pytest.raises(error) as info:
            load_checkpoint(path)
        assert type(info.value) is error

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_predict_exits_2(self, trained_corpus, data, capsys):
        root, _ = trained_corpus
        raw, _ = data.draw(damaged_checkpoints((root / "train" / "checkpoint.ckpt").read_bytes()))
        damaged = root / "damaged.ckpt"
        damaged.write_bytes(raw)
        code = main(["predict", "--manifest", str(root / "data" / "manifest.json"),
                     "--data-dir", str(root / "data"), "--checkpoint", str(damaged),
                     "--out", str(root / "pred_damaged")])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err


def _json_values(integers):
    return st.recursive(
        st.none() | st.booleans() | integers | st.floats() | st.text(max_size=8),
        lambda children: (st.lists(children, max_size=3)
                          | st.dictionaries(st.text(max_size=8), children, max_size=3)),
        max_leaves=8)


# integers past float range too: float() cannot hold +-10**400
JSON_VALUES = _json_values(st.integers() | st.sampled_from([10**400, -10**400]))

MANIFEST_DOCS = {
    "classification": {"task": "classification", "n_classes": 2, "entries": [
        {"slide_id": sid, "patient_id": f"p{sid}", "embedding_path": f"{sid}.emb",
         "split": split, "label": label}
        for sid, split, label in (("a", "train", 0), ("b", "train", 1), ("c", "val", 0))]},
    "survival": {"task": "survival", "entries": [
        {"slide_id": sid, "patient_id": f"p{sid}", "embedding_path": f"{sid}.emb",
         "split": split, "label": {"time": time, "event": event}}
        for sid, split, time, event in (("a", "train", 1.5, 1), ("b", "val", 2.0, 0))]},
}


@st.composite
def damaged_manifests(draw):
    """(manifest document, the error class load_manifest must raise) for one
    damage to a valid manifest: 'entries' not a list, an entry not an object,
    a non-string slide_id, patient_id or embedding_path, a missing entry
    field, or an unknown task."""
    doc = json.loads(json.dumps(MANIFEST_DOCS[draw(st.sampled_from(sorted(MANIFEST_DOCS)))]))
    entries = doc["entries"]
    i = draw(st.integers(0, len(entries) - 1))
    kind = draw(st.sampled_from(["entries", "entry", "identifier", "missing", "task"]))
    if kind == "entries":
        doc["entries"] = draw(JSON_VALUES.filter(lambda v: not isinstance(v, list)))
        return doc, FormatError
    if kind == "entry":
        entries[i] = draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
        return doc, FormatError
    if kind == "identifier":
        key = draw(st.sampled_from(["slide_id", "patient_id", "embedding_path"]))
        entries[i][key] = draw(JSON_VALUES.filter(lambda v: not isinstance(v, str)))
        return doc, FormatError
    if kind == "missing":
        del entries[i][draw(st.sampled_from(sorted(entries[i])))]
        return doc, ValidationError
    doc["task"] = draw(JSON_VALUES.filter(lambda v: v not in dataio.TASKS))
    return doc, ValidationError


class TestManifestReaderFuzz:
    @pytest.mark.parametrize("doc", [
        {"task": "classification", "entries": 5},
        {"task": "classification", "entries": [5]},
        {"task": "classification", "entries": [
            {"slide_id": "a", "patient_id": "a", "embedding_path": 3,
             "split": "train", "label": 0}]},
    ])
    def test_reproduced_type_errors_exit_2(self, tmp_path, doc, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_manifest(path)
        assert main(["fingerprint", "--manifest", str(path), "--data-dir", str(tmp_path),
                     "--out", str(tmp_path / "fp")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("task,label", [
        ("regression", 10**400),                        # past float range
        ("survival", {"time": 10**400, "event": 1}),
        ("survival", {"time": "1.5", "event": 1}),      # read as 1.5 before
        ("survival", {"time": 1.5, "event": 0.5}),      # read as censored before
    ], ids=["huge-target", "huge-time", "text-time", "fractional-event"])
    def test_label_of_the_wrong_type_is_rejected(self, tmp_path, task, label):
        doc = {"task": task, "entries": [{"slide_id": "a", "patient_id": "a",
                                          "embedding_path": "a.emb", "split": "train",
                                          "label": label}]}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="label must be"):
            load_manifest(path)

    @settings(max_examples=200, deadline=None)
    @given(case=damaged_manifests())
    def test_error_class(self, tmp_path_factory, case):
        doc, error = case
        path = tmp_path_factory.mktemp("manifest") / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(error) as info:
            load_manifest(path)
        assert type(info.value) is error

    @settings(max_examples=200, deadline=None)
    @given(task=st.sampled_from(sorted(MANIFEST_DOCS)),
           field=st.sampled_from(["n_classes", "split", "label"]), value=JSON_VALUES)
    def test_any_field_value_loads_or_is_rejected(self, tmp_path_factory, task, field, value):
        """Whatever JSON value a field holds, load_manifest returns a manifest
        or raises FormatError or ValidationError."""
        doc = json.loads(json.dumps(MANIFEST_DOCS[task]))
        if field == "n_classes":
            doc["n_classes"] = value
        else:
            doc["entries"][0][field] = value
        path = tmp_path_factory.mktemp("manifest") / "manifest.json"
        path.write_text(json.dumps(doc))
        try:
            manifest = load_manifest(path)
        except (FormatError, ValidationError):
            return
        labels = [e.label.time if task == "survival" else e.label for e in manifest.entries]
        assert all(map(math.isfinite, labels))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=damaged_manifests())
    def test_fingerprint_exit_codes(self, tmp_path, case, capsys):
        doc, error = case
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        code = main(["fingerprint", "--manifest", str(path), "--data-dir", str(tmp_path),
                     "--out", str(tmp_path / "fp")])
        assert code == EXIT_CODES[error]
        assert "Traceback" not in capsys.readouterr().err


# valid documents of the records the commands read, by the flag that names them
RECORD_DOCS = {
    "spec": {"task": "classification", "n_bags": 12, "patches_per_bag_range": [3, 6],
             "embed_dim": 4, "signal_fraction": 0.5, "signal_strength": 2.0,
             "positive_rate": 0.5, "censoring_rate": 0.3, "seed": 0},
    "fingerprint": {"patch_count_median": 7.0, "patch_count_iqr": 2.0, "patch_count_p5": 4.0,
                    "patch_count_p95": 9.0, "embed_dim": 8, "n_train": 12, "n_val": 4,
                    "n_test": 4, "class_prevalence": [0.5, 0.5], "target_min": None,
                    "target_max": None, "event_rate": None, "time_horizon_max": None,
                    "task": "classification"},
    "config": {"task": "classification", "bag_size": 4, "hidden_dim": 8, "stride": 2,
               "dropout": 0.25, "batch_size": 32, "learning_rate": 3e-4,
               "weight_decay": 1e-4, "warmup_epochs": 5, "max_epochs": 100, "patience": 10,
               "seed": 42, "training_mode": "nnmil", "overrides": {}},
}
RECORD_LOADERS = {"spec": SyntheticSpec.from_json, "fingerprint": DataFingerprint.from_json,
                  "config": RunConfig.from_json}


@st.composite
def edited_records(draw, kinds, values):
    """(kind, document): a valid document of one record kind, for any task,
    with one field replaced by a JSON value."""
    kind = draw(st.sampled_from(kinds))
    doc = {**RECORD_DOCS[kind], "task": draw(st.sampled_from(dataio.TASKS))}
    doc[draw(st.sampled_from(sorted(doc)))] = draw(values)
    return kind, doc


class TestRecordLoaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(case=edited_records(sorted(RECORD_DOCS), JSON_VALUES))
    def test_any_field_value_loads_or_is_rejected(self, tmp_path_factory, case):
        """Whatever JSON value a field holds, each loader returns its record
        or raises FormatError or ValidationError."""
        kind, doc = case
        path = tmp_path_factory.mktemp(kind) / f"{kind}.json"
        path.write_text(json.dumps(doc))
        try:
            record = RECORD_LOADERS[kind](path)
        except (FormatError, ValidationError):
            return
        for f in dataclasses.fields(record):
            value = getattr(record, f.name)
            if f.type.startswith(("float", "list[float]")):
                assert value is None or all(map(math.isfinite, np.atleast_1d(value)))

    # Integers stay small: a spec may ask for a corpus of any size.
    # Bare numbers are drawn often, so that some edited documents are valid.
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=edited_records(["spec", "fingerprint"], st.integers(-4, 64) | st.floats()
                               | _json_values(st.integers(-4, 64))))
    def test_synth_and_plan_exit_0_or_1(self, tmp_path_factory, case, capsys):
        """synth and plan run or exit 1 with one error line, and write
        nothing when they exit 1."""
        kind, doc = case
        tmp = tmp_path_factory.mktemp(kind)
        path, out = tmp / f"{kind}.json", tmp / "out"
        path.write_text(json.dumps(doc))
        command = {"spec": "synth", "fingerprint": "plan"}[kind]
        code = main([command, f"--{kind}", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 1) and "Traceback" not in err
        assert code == 0 or (err.startswith("error: ")
                             and not (out.exists() and any(out.iterdir())))
