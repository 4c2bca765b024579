"""Binary embedding-file format and manifest validation."""

import json
import struct

import numpy as np
import pytest

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
