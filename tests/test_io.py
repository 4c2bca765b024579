"""Binary embedding-file format and manifest validation."""

import json
import math
import os
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
    load_bags,
    load_manifest,
    read_embedding_file,
    read_embedding_header,
    save_manifest,
    write_embedding_file,
)
from slidemil.errors import CorruptionError, FormatError, ValidationError
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

    def test_rejects_nonfinite(self):
        x = np.zeros((2, 2))
        x[1, 1] = np.inf
        with pytest.raises(ValidationError):
            SlideBag("s", "p", x)

    def test_casts_to_float32(self):
        bag = SlideBag("s", "p", np.ones((2, 3), dtype=np.float64))
        assert bag.embeddings.dtype == np.float32
        assert bag.n_patches == 2 and bag.embed_dim == 3


class TestSurvivalRecord:
    def test_accepts_valid(self):
        r = SurvivalRecord(time=1.5, event=0)
        assert r.time == 1.5 and r.event == 0

    @pytest.mark.parametrize("time", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_time(self, time):
        with pytest.raises(ValidationError):
            SurvivalRecord(time=time, event=1)

    def test_rejects_bad_event(self):
        with pytest.raises(ValidationError):
            SurvivalRecord(time=1.0, event=2)


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
        m = DatasetManifest(entries=[_entry("a", label=0), _entry("b", label=2)],
                            task="classification")
        assert m.n_classes == 3

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

    def test_rewrite_leaves_loaded_bag_unchanged(self, rng, tmp_path):
        path = tmp_path / "a.emb"
        first = make_bag(rng, 7, 5)
        write_embedding_file(first, path)
        loaded = read_embedding_file(path)
        write_embedding_file(make_bag(rng, 3, 2), path)
        assert np.array_equal(loaded.embeddings.view(np.uint32),
                              first.embeddings.view(np.uint32))
        assert read_embedding_file(path).embeddings.shape == (3, 2)
        assert sorted(os.listdir(tmp_path)) == ["a.emb"], "no temporary file may be left"

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
soft, hard = int(sys.argv[1]), int(sys.argv[2])
resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
from slidemil import dataio
try:
    bags = dataio.load_bags(dataio.load_manifest(sys.argv[3]), sys.argv[4])
except dataio.ValidationError as exc:
    print(exc)
    sys.exit(1)
print(len(bags), resource.getrlimit(resource.RLIMIT_NOFILE)[0])
"""


@pytest.mark.skipif(sys.platform == "win32", reason="RLIMIT_NOFILE is POSIX")
class TestDescriptorBudget:
    """Each mapped bag holds one open file descriptor; load_bags makes room for
    them under the hard limit, or refuses before opening any."""

    N_BAGS = 150

    @pytest.fixture(autouse=True)
    def _many_bags(self, tmp_path):
        import resource

        if resource.getrlimit(resource.RLIMIT_NOFILE)[1] < 4 * self.N_BAGS:
            pytest.skip("hard descriptor limit below this test's corpus")
        manifest = _corpus(tmp_path, n_bags=self.N_BAGS, n_patches=2, embed_dim=2)
        self.manifest_path = tmp_path / "manifest.json"
        save_manifest(manifest, self.manifest_path)
        self.data = tmp_path

    def _child(self, soft, hard):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        return subprocess.run(
            [sys.executable, "-c", _LIMITED_CHILD, str(soft), str(hard),
             str(self.manifest_path), str(self.data)],
            capture_output=True, text=True, env=env, timeout=120)

    def test_raises_a_low_soft_limit(self):
        done = self._child(soft=64, hard=4 * self.N_BAGS)
        assert done.returncode == 0, done.stderr
        n_loaded, soft_after = map(int, done.stdout.split())
        assert n_loaded == self.N_BAGS
        assert self.N_BAGS + dataio.FD_HEADROOM < soft_after <= 4 * self.N_BAGS

    def test_refuses_past_the_hard_limit(self):
        hard = self.N_BAGS
        done = self._child(soft=64, hard=hard)
        assert done.returncode == 1, done.stdout + done.stderr
        assert f"loading {self.N_BAGS} embedding files" in done.stdout
        assert f"hard limit of {hard}" in done.stdout
        assert "soft limit 64" in done.stdout


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
