"""End-to-end command-line pipeline and exit-code contract."""

import json
import shutil

import numpy as np
import pytest

from slidemil.cli import main
from slidemil.dataio import load_manifest


def _write_spec(path, **kw):
    doc = {"task": "classification", "n_bags": 20,
           "patches_per_bag_range": [5, 10], "embed_dim": 8,
           "signal_fraction": 0.5, "signal_strength": 3.0, "seed": 0}
    doc.update(kw)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture
def pipeline_dirs(tmp_path):
    return {name: tmp_path / name for name in
            ("data", "fp", "plan", "train", "pred", "eval", "rej")}


def _run_through_predict(tmp_path, dirs, spec_kw=None, plan_args=()):
    spec = _write_spec(tmp_path / "spec.json", **(spec_kw or {}))
    assert main(["synth", "--spec", str(spec), "--out", str(dirs["data"])]) == 0
    manifest = dirs["data"] / "manifest.json"
    assert main(["fingerprint", "--manifest", str(manifest),
                 "--data-dir", str(dirs["data"]), "--out", str(dirs["fp"])]) == 0
    assert main(["plan", "--fingerprint", str(dirs["fp"] / "fingerprint.json"),
                 "--out", str(dirs["plan"]), *plan_args]) == 0
    assert main(["train", "--manifest", str(manifest),
                 "--data-dir", str(dirs["data"]),
                 "--config", str(dirs["plan"] / "config.json"),
                 "--out", str(dirs["train"])]) == 0
    assert main(["predict", "--manifest", str(manifest),
                 "--data-dir", str(dirs["data"]),
                 "--checkpoint", str(dirs["train"] / "checkpoint.ckpt"),
                 "--split", "test", "--out", str(dirs["pred"])]) == 0
    return manifest


def _predict_without(dirs, manifest, splits, out):
    """Exit code of predict on a copy of the corpus whose embedding files of
    the given splits are deleted."""
    data = out.parent / f"{out.name}_data"
    shutil.copytree(dirs["data"], data)
    for entry in load_manifest(manifest).entries:
        if entry.split in splits:
            (data / entry.embedding_path).unlink()
    return main(["predict", "--manifest", str(data / "manifest.json"),
                 "--data-dir", str(data),
                 "--checkpoint", str(dirs["train"] / "checkpoint.ckpt"),
                 "--split", "test", "--out", str(out)])


class TestClassificationPipeline:
    # train a tiny corpus through every subcommand once per class
    @pytest.fixture(autouse=True)
    def _pipeline(self, tmp_path, pipeline_dirs):
        self.dirs = pipeline_dirs
        self.manifest = _run_through_predict(
            tmp_path, pipeline_dirs,
            plan_args=("--override", "max_epochs=3", "--override", "batch_size=8"))

    def test_every_stage(self):
        dirs = self.dirs
        assert main(["evaluate", "--manifest", str(self.manifest),
                     "--predictions", str(dirs["pred"] / "predictions.jsonl"),
                     "--split", "test", "--out", str(dirs["eval"])]) == 0
        assert main(["reject-curve", "--manifest", str(self.manifest),
                     "--predictions", str(dirs["pred"] / "predictions.jsonl"),
                     "--split", "test", "--fractions", "0,0.25",
                     "--out", str(dirs["rej"])]) == 0

        config = json.loads((dirs["plan"] / "config.json").read_text())
        assert config["hidden_dim"] == 8  # min(256, D) with D = 8
        assert config["max_epochs"] == 3  # override applied
        assert config["overrides"] == {"max_epochs": 3, "batch_size": 8}

        report = json.loads((dirs["train"] / "train_report.json").read_text())
        assert report["stopped_epoch"] == 3

        lines = (dirs["pred"] / "predictions.jsonl").read_text().splitlines()
        assert len(lines) == 4  # 20 bags, 20% test split
        rec = json.loads(lines[0])
        assert rec.keys() == {"slide_id", "task", "mean_logits", "mean_probs",
                              "per_chunk_probs", "predicted_class", "h_total",
                              "h_aleatoric", "mutual_info"}
        patients = [json.loads(l) for l in
                    (dirs["pred"] / "patients.jsonl").read_text().splitlines()]
        assert len(patients) == 4  # one slide per patient here
        assert all(p["n_wsi"] == 1 for p in patients)

        evaluation = json.loads((dirs["eval"] / "evaluation.json").read_text())
        assert evaluation["task"] == "classification"
        assert {"balanced_accuracy", "cohens_kappa", "auc"} <= evaluation.keys()
        assert 0.0 <= evaluation["auc"]["point"] <= 1.0

        rejection = json.loads((dirs["rej"] / "rejection.json").read_text())
        assert [p["fraction"] for p in rejection["points"]] == [0.0, 0.25]
        assert rejection["points"][0]["n_retained"] == 4
        assert rejection["points"][1]["n_retained"] == 3
        csv_lines = (dirs["rej"] / "rejection.csv").read_text().splitlines()
        assert csv_lines[0] == "fraction,value,n_retained"
        assert len(csv_lines) == 3

    def test_run_manifests_written_everywhere(self):
        for name in ("data", "fp", "plan", "train", "pred"):
            doc = json.loads((self.dirs[name] / "run_manifest.json").read_text())
            assert {"command", "inputs", "seed", "timestamp", "config_hash"} <= doc.keys()

    def test_predictions_are_deterministic(self, tmp_path):
        # same corpus and config, fresh train + predict: identical output bytes
        dirs2 = {name: tmp_path / f"again_{name}" for name in
                 ("train", "pred")}
        manifest = self.dirs["data"] / "manifest.json"
        assert main(["train", "--manifest", str(manifest),
                     "--data-dir", str(self.dirs["data"]),
                     "--config", str(self.dirs["plan"] / "config.json"),
                     "--out", str(dirs2["train"])]) == 0
        assert (dirs2["train"] / "checkpoint.ckpt").read_bytes() == \
            (self.dirs["train"] / "checkpoint.ckpt").read_bytes()
        assert main(["predict", "--manifest", str(manifest),
                     "--data-dir", str(self.dirs["data"]),
                     "--checkpoint", str(dirs2["train"] / "checkpoint.ckpt"),
                     "--split", "test", "--out", str(dirs2["pred"])]) == 0
        assert (dirs2["pred"] / "predictions.jsonl").read_text() == \
            (self.dirs["pred"] / "predictions.jsonl").read_text()

    def test_predict_reads_only_the_scored_split(self, tmp_path):
        out = tmp_path / "test_only"
        assert _predict_without(self.dirs, self.manifest, ("train", "val"), out) == 0
        assert (out / "predictions.jsonl").read_bytes() == \
            (self.dirs["pred"] / "predictions.jsonl").read_bytes()


class TestSurvivalPipeline:
    def test_survival_stages(self, tmp_path, pipeline_dirs):
        manifest = _run_through_predict(
            tmp_path, pipeline_dirs,
            spec_kw={"task": "survival", "censoring_rate": 0.2, "n_bags": 24},
            plan_args=("--override", "max_epochs=2", "--override", "batch_size=8"))
        dirs = pipeline_dirs

        config = json.loads((dirs["plan"] / "config.json").read_text())
        assert config["task"] == "survival"
        assert config["learning_rate"] == 1e-4

        rec = json.loads(
            (dirs["pred"] / "predictions.jsonl").read_text().splitlines()[0])
        assert rec["task"] == "survival"
        assert {"risk", "eval_times", "mean_survival", "unc_survival"} <= rec.keys()
        assert 0.0 <= rec["mean_survival"][0] <= 1.0

        assert main(["evaluate", "--manifest", str(manifest),
                     "--predictions", str(dirs["pred"] / "predictions.jsonl"),
                     "--split", "test", "--out", str(dirs["eval"])]) == 0
        evaluation = json.loads((dirs["eval"] / "evaluation.json").read_text())
        assert "concordance_index" in evaluation
        assert "logrank" in evaluation

        assert main(["reject-curve", "--manifest", str(manifest),
                     "--predictions", str(dirs["pred"] / "predictions.jsonl"),
                     "--split", "test", "--fractions", "0",
                     "--out", str(dirs["rej"])]) == 0
        rejection = json.loads((dirs["rej"] / "rejection.json").read_text())
        assert rejection["metric"] == "concordance_index"

        # the Breslow baseline needs the train split, never the val split
        no_val = tmp_path / "no_val"
        assert _predict_without(dirs, manifest, ("val",), no_val) == 0
        assert (no_val / "predictions.jsonl").read_bytes() == \
            (dirs["pred"] / "predictions.jsonl").read_bytes()
        assert _predict_without(dirs, manifest, ("train",), tmp_path / "no_train") == 2


class TestRegressionPipeline:
    def test_regression_stages(self, tmp_path, pipeline_dirs):
        manifest = _run_through_predict(
            tmp_path, pipeline_dirs,
            spec_kw={"task": "regression", "signal_strength": 1.0},
            plan_args=("--override", "max_epochs=2"))
        dirs = pipeline_dirs
        rec = json.loads(
            (dirs["pred"] / "predictions.jsonl").read_text().splitlines()[0])
        assert rec.keys() == {"slide_id", "task", "mean_value", "std_value",
                              "per_chunk_values"}
        assert main(["evaluate", "--manifest", str(manifest),
                     "--predictions", str(dirs["pred"] / "predictions.jsonl"),
                     "--split", "test", "--out", str(dirs["eval"])]) == 0
        evaluation = json.loads((dirs["eval"] / "evaluation.json").read_text())
        assert {"pearson_r", "mse"} <= evaluation.keys()


class TestExitCodes:
    def test_missing_file_is_2(self, tmp_path):
        assert main(["synth", "--spec", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_malformed_manifest_is_2(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["fingerprint", "--manifest", str(bad),
                     "--data-dir", str(tmp_path), "--out", str(tmp_path / "o")]) == 2

    def test_validation_error_is_1(self, tmp_path):
        spec = _write_spec(tmp_path / "spec.json", signal_fraction=2.0)
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 1

    def test_unknown_flag_is_1(self, tmp_path):
        spec = _write_spec(tmp_path / "spec.json")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o"),
                     "--bogus"]) == 1

    def test_missing_subcommand_is_1(self):
        assert main([]) == 1

    def test_unknown_override_key_is_1(self, tmp_path, pipeline_dirs):
        dirs = pipeline_dirs
        spec = _write_spec(tmp_path / "spec.json")
        main(["synth", "--spec", str(spec), "--out", str(dirs["data"])])
        main(["fingerprint", "--manifest", str(dirs["data"] / "manifest.json"),
              "--data-dir", str(dirs["data"]), "--out", str(dirs["fp"])])
        assert main(["plan", "--fingerprint", str(dirs["fp"] / "fingerprint.json"),
                     "--override", "bogus_key=1", "--out", str(dirs["plan"])]) == 1

    def test_truncated_checkpoint_is_2(self, tmp_path, pipeline_dirs):
        dirs = pipeline_dirs
        _run_through_predict(tmp_path, pipeline_dirs,
                             plan_args=("--override", "max_epochs=1"))
        ckpt = dirs["train"] / "checkpoint.ckpt"
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(ckpt.read_bytes()[:40])
        assert main(["predict", "--manifest", str(dirs["data"] / "manifest.json"),
                     "--data-dir", str(dirs["data"]),
                     "--checkpoint", str(clipped),
                     "--out", str(tmp_path / "p2")]) == 2


class TestPlanWindowCount:
    """plan prints K, the number of windows predict runs."""

    def _plan(self, tmp_path, capsys, *plan_args):
        dirs = {name: tmp_path / name for name in ("data", "fp", "plan")}
        spec = _write_spec(tmp_path / "spec.json", embed_dim=70)
        main(["synth", "--spec", str(spec), "--out", str(dirs["data"])])
        main(["fingerprint", "--manifest", str(dirs["data"] / "manifest.json"),
              "--data-dir", str(dirs["data"]), "--out", str(dirs["fp"])])
        capsys.readouterr()
        assert main(["plan", "--fingerprint", str(dirs["fp"] / "fingerprint.json"),
                     "--override", "hidden_dim=16", *plan_args,
                     "--out", str(dirs["plan"])]) == 0
        return capsys.readouterr().out

    def test_clamped_tail_window_is_counted(self, tmp_path, capsys):
        # D=70, H=16, S=4: starts 0, 4, ..., 52 and the clamped 54
        assert "K=15" in self._plan(tmp_path, capsys)

    def test_full_bag_mode_is_one_window(self, tmp_path, capsys):
        assert "K=1)" in self._plan(tmp_path, capsys, "--mode", "full_bag_batch1")


# each malformed synthetic spec, fingerprint.json or config.json, with the
# exit code it must give
_DAMAGES = {
    "not-json": (lambda doc, key: "not json", 2),
    "array": (lambda doc, key: json.dumps([doc]), 2),
    "missing-field": (lambda doc, key: json.dumps({k: v for k, v in doc.items() if k != key}), 1),
    "unknown-field": (lambda doc, key: json.dumps({**doc, "bogus_field": 1}), 1),
}


class TestLoaderExitCodes:
    @pytest.fixture(autouse=True)
    def _planned(self, tmp_path, pipeline_dirs):
        self.dirs = pipeline_dirs
        spec = _write_spec(tmp_path / "spec.json")
        main(["synth", "--spec", str(spec), "--out", str(self.dirs["data"])])
        main(["fingerprint", "--manifest", str(self.dirs["data"] / "manifest.json"),
              "--data-dir", str(self.dirs["data"]), "--out", str(self.dirs["fp"])])
        main(["plan", "--fingerprint", str(self.dirs["fp"] / "fingerprint.json"),
              "--override", "max_epochs=1", "--out", str(self.dirs["plan"])])

    def _plan(self, fingerprint):
        return main(["plan", "--fingerprint", str(fingerprint),
                     "--out", str(self.dirs["plan"].parent / "plan2")])

    def _train(self, config):
        return main(["train", "--manifest", str(self.dirs["data"] / "manifest.json"),
                     "--data-dir", str(self.dirs["data"]), "--config", str(config),
                     "--out", str(self.dirs["train"])])

    def _synth(self, spec):
        return main(["synth", "--spec", str(spec), "--out", str(self.dirs["data"].parent / "d2")])

    @pytest.mark.parametrize("damage", sorted(_DAMAGES))
    @pytest.mark.parametrize("kind,key", [("spec", "embed_dim"), ("fingerprint", "embed_dim"),
                                          ("config", "hidden_dim")])
    def test_malformed_input(self, kind, key, damage, tmp_path, capsys):
        good, run = {"spec": (tmp_path / "spec.json", self._synth),
                     "fingerprint": (self.dirs["fp"] / "fingerprint.json", self._plan),
                     "config": (self.dirs["plan"] / "config.json", self._train)}[kind]
        make_text, code = _DAMAGES[damage]
        bad = tmp_path / f"bad_{kind}.json"
        bad.write_text(make_text(json.loads(good.read_text()), key), encoding="utf-8")
        assert run(bad) == code
        if damage == "missing-field":
            assert key in capsys.readouterr().err
        elif damage == "unknown-field":
            assert "bogus_field" in capsys.readouterr().err

    def test_retired_keys_still_load(self, tmp_path):
        # files written while fingerprints had magnification and configs had
        # ensemble_chunks
        fp = json.loads((self.dirs["fp"] / "fingerprint.json").read_text())
        old_fp = tmp_path / "old_fingerprint.json"
        old_fp.write_text(json.dumps({**fp, "magnification": None}), encoding="utf-8")
        assert self._plan(old_fp) == 0
        config = json.loads((self.dirs["plan"] / "config.json").read_text())
        old_config = tmp_path / "old_config.json"
        old_config.write_text(json.dumps({**config, "ensemble_chunks": 1}), encoding="utf-8")
        assert self._train(old_config) == 0


class TestGradcheckCommand:
    def test_passes_exit_0(self, capsys):
        assert main(["gradcheck", "--dims", "8x4", "--task", "classification"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out

    def test_all_tasks(self):
        for task in ("classification", "regression", "survival"):
            assert main(["gradcheck", "--dims", "6x3", "--task", task]) == 0

    def test_bad_dims_is_1(self):
        assert main(["gradcheck", "--dims", "8by4"]) == 1


class TestSeedFlag:
    def test_synth_seed_override_changes_data(self, tmp_path):
        spec = _write_spec(tmp_path / "spec.json")
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["synth", "--spec", str(spec), "--out", str(a)])
        main(["synth", "--spec", str(spec), "--out", str(b), "--seed", "1"])
        main(["synth", "--spec", str(spec), "--out", str(c), "--seed", "0"])
        first = sorted(p.name for p in a.glob("*.emb"))
        assert first  # embeddings were written
        same = (a / first[0]).read_bytes() == (c / first[0]).read_bytes()
        assert same  # --seed equal to the spec seed reproduces the corpus
        assert (a / first[0]).read_bytes() != (b / first[0]).read_bytes()

    def test_train_seed_override(self, tmp_path, pipeline_dirs):
        dirs = pipeline_dirs
        _run_through_predict(tmp_path, pipeline_dirs,
                             plan_args=("--override", "max_epochs=1"))
        other = tmp_path / "other_seed"
        assert main(["train", "--manifest", str(dirs["data"] / "manifest.json"),
                     "--data-dir", str(dirs["data"]),
                     "--config", str(dirs["plan"] / "config.json"),
                     "--seed", "7", "--out", str(other)]) == 0
        assert (other / "checkpoint.ckpt").read_bytes() != \
            (dirs["train"] / "checkpoint.ckpt").read_bytes()


class TestFullBagMode:
    def test_mode_flag_threads_through(self, tmp_path, pipeline_dirs):
        dirs = pipeline_dirs
        spec = _write_spec(tmp_path / "spec.json")
        main(["synth", "--spec", str(spec), "--out", str(dirs["data"])])
        main(["fingerprint", "--manifest", str(dirs["data"] / "manifest.json"),
              "--data-dir", str(dirs["data"]), "--out", str(dirs["fp"])])
        assert main(["plan", "--fingerprint", str(dirs["fp"] / "fingerprint.json"),
                     "--mode", "full_bag_batch1",
                     "--override", "max_epochs=1", "--out", str(dirs["plan"])]) == 0
        config = json.loads((dirs["plan"] / "config.json").read_text())
        assert config["training_mode"] == "full_bag_batch1"
        assert main(["train", "--manifest", str(dirs["data"] / "manifest.json"),
                     "--data-dir", str(dirs["data"]),
                     "--config", str(dirs["plan"] / "config.json"),
                     "--out", str(dirs["train"])]) == 0
        assert main(["predict", "--manifest", str(dirs["data"] / "manifest.json"),
                     "--data-dir", str(dirs["data"]),
                     "--checkpoint", str(dirs["train"] / "checkpoint.ckpt"),
                     "--out", str(dirs["pred"])]) == 0
        rec = json.loads(
            (dirs["pred"] / "predictions.jsonl").read_text().splitlines()[0])
        # one full-width window: a single ensemble member
        assert len(rec["per_chunk_probs"]) == 1
