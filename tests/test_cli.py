"""End-to-end command-line pipeline and exit-code contract."""

import json
import os
import platform
import shutil
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import slidemil
from slidemil import cli, dataio, inference, metrics
from slidemil import model as model_module
from slidemil.cli import main
from slidemil.dataio import load_bag_shapes, load_manifest
from slidemil.model import BLAS_THREAD_VARS, ROW_TILE, ensemble_workers
from slidemil.training import Checkpoint, load_checkpoint, save_checkpoint

from conftest import write_old_layout


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


def _copy_without(dirs, manifest, splits, out):
    """A copy of the corpus whose embedding files of the given splits are deleted."""
    data = out.parent / f"{out.name}_data"
    shutil.copytree(dirs["data"], data)
    for entry in load_manifest(manifest).entries:
        if entry.split in splits:
            (data / entry.embedding_path).unlink()
    return data


def _with_header(checkpoint, out, edit):
    """A copy at out of the checkpoint whose JSON header is edit(header)."""
    raw = checkpoint.read_bytes()
    (n,) = struct.unpack("<Q", raw[8:16])
    text = json.dumps(edit(json.loads(raw[16:16 + n]))).encode("utf-8")
    out.write_bytes(raw[:8] + struct.pack("<Q", len(text)) + text + raw[16 + n:])
    return out


def _predict_without(dirs, manifest, splits, out):
    """Exit code of predict on a copy of the corpus whose embedding files of
    the given splits are deleted."""
    data = _copy_without(dirs, manifest, splits, out)
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
        # h_aleatoric differs between slides at K = 1, so the curve is the metric's own
        entries = load_manifest(self.manifest).split_entries("test")
        preds = [json.loads(line) for line in lines]
        expected = metrics.rejection_curve(
            metrics.balanced_accuracy, (dataio.label_arrays("classification", entries),
                                        np.array([r["predicted_class"] for r in preds])),
            np.array([r["h_aleatoric"] for r in preds]), [0.0, 0.25])
        assert [(p["fraction"], p["value"]) for p in rejection["points"]] == expected

    @pytest.mark.parametrize("command", ["evaluate", "reject-curve"])
    def test_malformed_prediction_records_are_2(self, tmp_path, command, capsys):
        test_ids = [e.slide_id for e in load_manifest(self.manifest).split_entries("test")]
        good = [json.loads(line) for line in
                (self.dirs["pred"] / "predictions.jsonl").read_text().splitlines()]
        damaged = {
            "not an object": ["[1,2]"],
            "no slide_id": ['{"x":1}'],
            "no predicted_class": [json.dumps({"slide_id": sid}) for sid in test_ids],
            "text predicted_class": [json.dumps({**r, "predicted_class": "x"}) for r in good],
            "list predicted_class": [json.dumps({**r, "predicted_class": [0, 1]})
                                     for r in good],
            # written as the bytes ff fe, which no UTF-8 text holds
            "non-UTF-8 line": [json.dumps(good[0]), "\udcff\udcfe"],
        }
        for name, lines in damaged.items():
            path = tmp_path / "predictions.jsonl"
            path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
            code = main([command, "--manifest", str(self.manifest), "--predictions", str(path),
                         "--split", "test", "--out", str(tmp_path / "out")])
            assert code == 2, name
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, name
            assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["evaluate", "reject-curve"])
    def test_repeated_slide_id_is_2(self, tmp_path, command, capsys):
        # a second, flipped record for one slide must not replace the first
        lines = (self.dirs["pred"] / "predictions.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        flipped = {**first, "predicted_class": 1 - first["predicted_class"]}
        path = tmp_path / "predictions.jsonl"
        path.write_text("\n".join([*lines, json.dumps(flipped)]) + "\n")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, "--manifest", str(self.manifest), "--predictions", str(path),
                     "--split", "test", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: predictions line {len(lines) + 1} repeats slide_id "
                       f"{first['slide_id']!r}\n")
        assert not out.exists()

    def test_checkpoint_head_that_does_not_fit_the_manifest_is_1(self, tmp_path, capsys):
        # the checkpoint has two outputs, the edited manifest three classes
        manifest = _edited(self.manifest, tmp_path, n_classes=3)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["predict", "--manifest", str(manifest), "--data-dir", str(self.dirs["data"]),
                     "--checkpoint", str(self.dirs["train"] / "checkpoint.ckpt"),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: checkpoint head has 2 outputs, but the "
                                           "manifest's classification task needs 3\n")
        assert not out.exists()

    def test_run_manifests_written_everywhere(self):
        # the seed is the one the command used; null where it draws nothing
        seeds = {"data": 0, "fp": None, "plan": 42, "train": 42, "pred": None}
        peaks = []
        for name, seed in seeds.items():
            doc = json.loads((self.dirs[name] / "run_manifest.json").read_text())
            assert {"command", "inputs", "seed", "timestamp", "config_hash"} <= doc.keys()
            assert doc["seed"] == seed, name
            # what the process saw of the BLAS thread count, and what it gave the ensemble
            assert doc["blas_threads"] == {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
            assert doc["ensemble_workers"] == ensemble_workers() >= 1
            # this process's high-water mark when the command finished, in MB
            assert isinstance(doc["peak_rss_mb"], float) and doc["peak_rss_mb"] > 0
            peaks.append(doc["peak_rss_mb"])
            # and the software that ran
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            assert doc["software"] == {
                "slidemil": slidemil.__version__, "python": platform.python_version(),
                "numpy": np.__version__,
                "blas": {"name": blas["name"], "version": blas["version"]}}
            assert all(isinstance(v, str) and v for v in doc["software"]["blas"].values())
        # the commands ran in order in one process, whose peak never falls
        assert peaks == sorted(peaks)

    def test_peak_rss_is_null_without_resource(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "resource", None)
        assert main(["plan", "--fingerprint", str(self.dirs["fp"] / "fingerprint.json"),
                     "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "run_manifest.json").read_text())["peak_rss_mb"] is None

    def test_train_report_and_summary_name_the_saved_epoch(self, tmp_path, capsys):
        report = json.loads((self.dirs["train"] / "train_report.json").read_text())
        assert report["saved_epoch"] == report["epochs"][-1]["epoch"] == 2
        capsys.readouterr()
        assert main(["train", "--manifest", str(self.manifest),
                     "--data-dir", str(self.dirs["data"]),
                     "--config", str(self.dirs["plan"] / "config.json"),
                     "--out", str(tmp_path / "again")]) == 0
        assert (f"(best epoch {report['best_epoch']}, saved epoch 2, "
                in capsys.readouterr().out)

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

    def test_cohort_without_the_largest_class_is_predicted(self, tmp_path):
        # an external cohort of class-0 slides alone infers one class, which
        # the two-output head covers; each slide's record is the one a
        # predict over the whole test split writes, and evaluate reports the
        # AUC of the head's two classes, undefined on one
        doc = json.loads(self.manifest.read_text())
        del doc["n_classes"]
        doc["entries"] = [e for e in doc["entries"] if e["split"] == "test" and e["label"] == 0]
        cohort = tmp_path / "class_0.json"
        cohort.write_text(json.dumps(doc))
        out = tmp_path / "class_0"
        assert main(["predict", "--manifest", str(cohort), "--data-dir", str(self.dirs["data"]),
                     "--checkpoint", str(self.dirs["train"] / "checkpoint.ckpt"),
                     "--out", str(out)]) == 0
        read = lambda d: [json.loads(line) for line in
                          (d / "predictions.jsonl").read_text().splitlines()]
        whole = {r["slide_id"]: r for r in read(self.dirs["pred"])}
        records = read(out)
        assert [r["slide_id"] for r in records] == [e["slide_id"] for e in doc["entries"]] != []
        assert all(r == whole[r["slide_id"]] for r in records)
        assert main(["evaluate", "--manifest", str(cohort),
                     "--predictions", str(out / "predictions.jsonl"), "--out", str(out)]) == 0
        report = json.loads((out / "evaluation.json").read_text())
        assert report["auc"] == {"undefined": "AUC needs both classes present"}

    def test_train_reads_only_train_and_val(self, tmp_path):
        out = tmp_path / "no_test"
        data = _copy_without(self.dirs, self.manifest, ("test",), out)
        assert main(["train", "--manifest", str(data / "manifest.json"),
                     "--data-dir", str(data),
                     "--config", str(self.dirs["plan"] / "config.json"),
                     "--out", str(out)]) == 0
        assert (out / "checkpoint.ckpt").read_bytes() == \
            (self.dirs["train"] / "checkpoint.ckpt").read_bytes()


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
        train = [e.label for e in load_manifest(manifest).split_entries("train")]
        assert rec["eval_times"] == [inference.median_event_time(train)]

        assert main(["evaluate", "--manifest", str(manifest),
                     "--predictions", str(dirs["pred"] / "predictions.jsonl"),
                     "--split", "test", "--out", str(dirs["eval"])]) == 0
        evaluation = json.loads((dirs["eval"] / "evaluation.json").read_text())
        assert "concordance_index" in evaluation
        assert "logrank" in evaluation
        records = [json.loads(line) for line in
                   (dirs["pred"] / "predictions.jsonl").read_text().splitlines()]
        no_risk = tmp_path / "no_risk.jsonl"
        no_risk.write_text("".join(json.dumps({k: v for k, v in r.items() if k != "risk"}) + "\n"
                                   for r in records))
        for command in ("evaluate", "reject-curve"):
            assert main([command, "--manifest", str(manifest), "--predictions", str(no_risk),
                         "--split", "test", "--out", str(tmp_path / "no_risk")]) == 2

        assert main(["reject-curve", "--manifest", str(manifest),
                     "--predictions", str(dirs["pred"] / "predictions.jsonl"),
                     "--split", "test", "--fractions", "0",
                     "--out", str(dirs["rej"])]) == 0
        rejection = json.loads((dirs["rej"] / "rejection.json").read_text())
        assert rejection["metric"] == "concordance_index"

        # the Breslow baseline is in the checkpoint, so predict reads the
        # embedding files of the split it scores and of no other
        for split in ("val", "train"):
            out = tmp_path / f"no_{split}"
            assert _predict_without(dirs, manifest, (split,), out) == 0
            for name in ("predictions.jsonl", "patients.jsonl"):
                assert (out / name).read_bytes() == (dirs["pred"] / name).read_bytes()
        # and so is the median event time, so predict reads no label of the
        # train split either: a cohort of the test slides alone, or one whose
        # train times are tripled, gets the same eval_times and predictions
        doc = json.loads(manifest.read_text())
        cohorts = {
            "test_only": [e for e in doc["entries"] if e["split"] == "test"],
            "tripled": [{**e, "label": {**e["label"], "time": 3 * e["label"]["time"]}}
                        if e["split"] == "train" else e for e in doc["entries"]]}
        for name, entries in cohorts.items():
            cohort = tmp_path / f"{name}.json"
            cohort.write_text(json.dumps({**doc, "entries": entries}))
            assert main(["predict", "--manifest", str(cohort), "--data-dir", str(dirs["data"]),
                         "--checkpoint", str(dirs["train"] / "checkpoint.ckpt"),
                         "--out", str(tmp_path / name)]) == 0, name
            for file in ("predictions.jsonl", "patients.jsonl"):
                assert (tmp_path / name / file).read_bytes() == \
                    (dirs["pred"] / file).read_bytes(), name

    def test_constant_risks_leave_no_previous_km_curves(self, tmp_path, pipeline_dirs):
        # a split of constant risks has one group, so it has no curves; the
        # curves of an earlier evaluate into the same directory must go
        dirs = pipeline_dirs
        spec = _write_spec(tmp_path / "spec.json", task="survival", censoring_rate=0.2,
                           n_bags=24)
        assert main(["synth", "--spec", str(spec), "--out", str(dirs["data"])]) == 0
        manifest = dirs["data"] / "manifest.json"
        test = load_manifest(manifest).split_entries("test")
        curves = {"km_high.csv", "km_low.csv"}
        for risks, written in ((range(len(test)), curves), ([0.0] * len(test), set())):
            predictions = tmp_path / "predictions.jsonl"
            predictions.write_text("".join(json.dumps({"slide_id": e.slide_id, "risk": r}) + "\n"
                                           for e, r in zip(test, risks)))
            assert main(["evaluate", "--manifest", str(manifest),
                         "--predictions", str(predictions), "--split", "test",
                         "--out", str(dirs["eval"])]) == 0
            assert curves & set(os.listdir(dirs["eval"])) == written
        evaluation = json.loads((dirs["eval"] / "evaluation.json").read_text())
        assert evaluation["logrank"] == {"undefined": "median split left one group empty"}

    @pytest.mark.parametrize("edit,message", [
        (lambda header: {k: v for k, v in header.items() if k != "baseline"}, "lacks one"),
        (lambda header: {**header, "config": {**header["config"], "task": "classification"}},
         "classification checkpoint has one"),
        (lambda header: {**header, "baseline": {**header["baseline"],
                                                "deaths": header["baseline"]["deaths"][1:]}},
         "baseline lists differ in length"),
    ], ids=["survival-without-baseline", "classification-with-baseline", "unequal-lengths"])
    def test_checkpoint_baseline_defect_is_2(self, edit, message, tmp_path, pipeline_dirs,
                                             capsys):
        dirs = pipeline_dirs
        manifest = _run_through_predict(
            tmp_path, dirs, spec_kw={"task": "survival", "censoring_rate": 0.2, "n_bags": 24},
            plan_args=("--override", "max_epochs=1", "--override", "batch_size=8"))
        bad = _with_header(dirs["train"] / "checkpoint.ckpt", tmp_path / "bad.ckpt", edit)
        capsys.readouterr()
        assert main(["predict", "--manifest", str(manifest), "--data-dir", str(dirs["data"]),
                     "--checkpoint", str(bad), "--out", str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not (tmp_path / "bad" / "predictions.jsonl").exists()

    def test_val_split_without_events_runs_every_epoch(self, tmp_path, pipeline_dirs):
        # no Cox validation loss without an event: early stopping is off,
        # the report says why, and the baseline is still fitted
        dirs = pipeline_dirs
        spec = _write_spec(tmp_path / "spec.json", task="survival", censoring_rate=0.2,
                           n_bags=24)
        assert main(["synth", "--spec", str(spec), "--out", str(dirs["data"])]) == 0
        path = dirs["data"] / "manifest.json"
        doc = json.loads(path.read_text())
        for entry in doc["entries"]:
            if entry["split"] == "val":
                entry["label"]["event"] = 0
        path.write_text(json.dumps(doc))
        assert main(["fingerprint", "--manifest", str(path), "--data-dir", str(dirs["data"]),
                     "--out", str(dirs["fp"])]) == 0
        assert main(["plan", "--fingerprint", str(dirs["fp"] / "fingerprint.json"),
                     "--override", "max_epochs=3", "--override", "patience=1",
                     "--override", "batch_size=8", "--out", str(dirs["plan"])]) == 0
        assert main(["train", "--manifest", str(path), "--data-dir", str(dirs["data"]),
                     "--config", str(dirs["plan"] / "config.json"),
                     "--out", str(dirs["train"])]) == 0

        report = json.loads((dirs["train"] / "train_report.json").read_text())
        assert [e["val_loss"] for e in report["epochs"]] == [None, None, None]
        assert report["stopped_epoch"] == 3 and report["saved_epoch"] == 2
        assert report["best_epoch"] is None and report["best_val_loss"] is None
        assert report["notes"] == ["validation split has no events; early stopping disabled"]
        train = [e.label for e in load_manifest(path).split_entries("train")]
        baseline = load_checkpoint(dirs["train"] / "checkpoint.ckpt").baseline
        np.testing.assert_array_equal(baseline.event_times,
                                      np.unique([r.time for r in train if r.event == 1]))

    def test_batch_of_one_is_1(self, tmp_path, pipeline_dirs, capsys):
        # every planned batch was censored at B=1, so train skipped every step
        # and exited 0 with the initial parameters
        dirs = pipeline_dirs
        spec = _write_spec(tmp_path / "spec.json", task="survival", censoring_rate=0.2,
                           n_bags=24)
        assert main(["synth", "--spec", str(spec), "--out", str(dirs["data"])]) == 0
        manifest = dirs["data"] / "manifest.json"
        assert main(["fingerprint", "--manifest", str(manifest),
                     "--data-dir", str(dirs["data"]), "--out", str(dirs["fp"])]) == 0
        assert main(["plan", "--fingerprint", str(dirs["fp"] / "fingerprint.json"),
                     "--override", "max_epochs=1", "--override", "batch_size=1",
                     "--out", str(dirs["plan"])]) == 0
        capsys.readouterr()
        assert main(["train", "--manifest", str(manifest), "--data-dir", str(dirs["data"]),
                     "--config", str(dirs["plan"] / "config.json"),
                     "--out", str(dirs["train"])]) == 1
        assert "batch_size must be >= 2" in capsys.readouterr().err


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


class TestRejectCurveOfOneWindow:
    """At D = 8 the rule table gives H = D, so the ensemble has one window and
    std_value and unc_survival are 0 on every slide. Such a column ranks
    nothing: fraction 0 keeps its value and every larger fraction reads null."""

    @pytest.mark.parametrize("spec_kw,column,metric_name", [
        ({"task": "regression", "signal_strength": 1.0}, "std_value", "neg_mse"),
        ({"task": "survival", "censoring_rate": 0.2, "n_bags": 24}, "unc_survival",
         "concordance_index"),
    ], ids=["regression", "survival"])
    def test_fractions_above_0_read_null(self, spec_kw, column, metric_name, tmp_path,
                                         pipeline_dirs):
        dirs = pipeline_dirs
        manifest = _run_through_predict(tmp_path, dirs, spec_kw=spec_kw,
                                        plan_args=("--override", "max_epochs=2"))
        preds = [json.loads(line) for line in
                 (dirs["pred"] / "predictions.jsonl").read_text().splitlines()]
        assert all(np.all(np.asarray(r[column]) == 0.0) for r in preds)
        assert main(["reject-curve", "--manifest", str(manifest),
                     "--predictions", str(dirs["pred"] / "predictions.jsonl"),
                     "--split", "test", "--fractions", "0,0.25,0.5",
                     "--out", str(dirs["rej"])]) == 0

        truth = dataio.label_arrays(spec_kw["task"], load_manifest(manifest).split_entries("test"))
        if metric_name == "neg_mse":
            whole = -metrics.mean_squared_error(truth, [r["mean_value"] for r in preds])
        else:
            whole = metrics.concordance_index(*truth, [r["risk"] for r in preds])
        rejection = json.loads((dirs["rej"] / "rejection.json").read_text())
        assert rejection["metric"] == metric_name
        n = len(preds)
        assert rejection["points"] == [
            {"fraction": 0.0, "value": whole, "n_retained": n},
            {"fraction": 0.25, "value": None, "n_retained": n - int(np.ceil(0.25 * n))},
            {"fraction": 0.5, "value": None, "n_retained": n - int(np.ceil(0.5 * n))},
        ]
        csv_lines = (dirs["rej"] / "rejection.csv").read_text().splitlines()
        assert csv_lines[1] == f"0.0,{whole},{n}"
        assert [line.split(",")[1] for line in csv_lines[2:]] == ["", ""]


def _good_records(task, manifest):
    """Well-formed records of the manifest's test slides, with the fields
    evaluate and reject-curve read, as predict writes them."""
    records = []
    for i, entry in enumerate(load_manifest(manifest).split_entries("test")):
        p = (i + 1) / 8
        fields = {"classification": {"predicted_class": i % 2, "mean_probs": [1 - p, p],
                                     "h_aleatoric": p},
                  "regression": {"mean_value": p, "std_value": p},
                  "survival": {"risk": p, "unc_survival": [p]}}[task]
        records.append({"slide_id": entry.slide_id, **fields})
    return records


# one field of one record replaced by a value of the wrong kind: the task,
# the field, the value, and the commands that read that field
_BAD_FIELDS = [
    ("classification", "predicted_class", 1.7, ("evaluate", "reject-curve")),
    ("classification", "predicted_class", "1", ("evaluate", "reject-curve")),
    ("classification", "predicted_class", True, ("evaluate", "reject-curve")),
    ("classification", "mean_probs", [0.5, float("nan")], ("evaluate",)),
    ("classification", "mean_probs", [0.2, 0.3, 0.5], ("evaluate",)),  # not the others' width
    ("classification", "h_aleatoric", float("nan"), ("reject-curve",)),
    ("regression", "mean_value", float("nan"), ("evaluate", "reject-curve")),
    ("regression", "mean_value", float("inf"), ("evaluate", "reject-curve")),
    ("regression", "std_value", float("-inf"), ("reject-curve",)),
    ("survival", "risk", float("nan"), ("evaluate", "reject-curve")),
    ("survival", "unc_survival", [float("inf")], ("reject-curve",)),
]


# a test split on which evaluate cannot define some statistics: the task, an
# edit of each test label and of each prediction record, the statistics that
# read undefined with their reasons, and the bootstrapped ones that stay defined
_UNDEFINED_SPLITS = {
    "one-class": ("classification", lambda label: 0, {"predicted_class": 0},
                  {"auc": "AUC needs both classes present",
                   "cohens_kappa": "kappa undefined: chance disagreement is zero"},
                  ("balanced_accuracy",)),
    "constant-prediction": ("regression", lambda label: label, {"mean_value": 0.5},
                            {"pearson_r": "Pearson r undefined for constant input"}, ("mse",)),
    "no-events": ("survival", lambda label: {**label, "event": 0}, {},
                  {"concordance_index": "no comparable pairs for the C-index",
                   "logrank": "log-rank needs at least one event"}, ()),
}


class TestPredictionFieldTypes:
    """evaluate and reject-curve read predicted_class as a JSON integer and
    every other field as a finite number; any other value exits 2, names the
    field and writes no report. A statistic the split leaves undefined is
    written as {"undefined": reason}, and evaluate exits 0."""

    @pytest.fixture(scope="class")
    def manifests(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("corpora")
        out = {}
        for task in ("classification", "regression", "survival"):
            spec = _write_spec(tmp / f"{task}_spec.json", task=task)
            assert main(["synth", "--spec", str(spec), "--out", str(tmp / task)]) == 0
            out[task] = tmp / task / "manifest.json"
        return out

    @pytest.mark.parametrize("task,field,value,command", [
        (task, field, value, command) for task, field, value, commands in _BAD_FIELDS
        for command in commands])
    def test_wrong_kind_is_2(self, manifests, task, field, value, command, tmp_path, capsys):
        records = _good_records(task, manifests[task])
        records[-1][field] = value
        path = tmp_path / "predictions.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, "--manifest", str(manifests[task]), "--predictions", str(path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and repr(field) in err
        assert not out.exists() or not any(out.iterdir())

    def test_more_classes_than_the_predictions_carry_is_1(self, manifests, tmp_path, capsys):
        doc = {**json.loads(manifests["classification"].read_text()), "n_classes": 3}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        path = tmp_path / "predictions.jsonl"
        path.write_text("".join(json.dumps(r) + "\n"
                                for r in _good_records("classification", manifest)))
        capsys.readouterr()
        assert main(["evaluate", "--manifest", str(manifest), "--predictions", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        assert "2 class probabilities" in capsys.readouterr().err

    @pytest.mark.parametrize("case", list(_UNDEFINED_SPLITS))
    def test_undefined_statistic_is_written(self, manifests, case, tmp_path):
        task, relabel, fields, undefined, defined = _UNDEFINED_SPLITS[case]
        doc = json.loads(manifests[task].read_text())
        for entry in doc["entries"]:
            if entry["split"] == "test":
                entry["label"] = relabel(entry["label"])
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        path = tmp_path / "predictions.jsonl"
        path.write_text("".join(json.dumps({**r, **fields}) + "\n"
                                for r in _good_records(task, manifest)), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["evaluate", "--manifest", str(manifest), "--predictions", str(path),
                     "--out", str(out)]) == 0
        report = json.loads((out / "evaluation.json").read_text())
        assert {name: report[name] for name in undefined} == {
            name: {"undefined": reason} for name, reason in undefined.items()}
        for name in defined:
            assert report[name].keys() == {"point", "mean", "std", "ci_low", "ci_high",
                                           "n_replicates"}, name


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

    def test_bag_size_beyond_every_bag_trains(self, tmp_path, pipeline_dirs):
        # the batch stops at the largest train bag instead of asking for 10**12 rows
        _run_through_predict(tmp_path, pipeline_dirs,
                             plan_args=("--override", "max_epochs=1",
                                        "--override", "bag_size=1000000000000"))

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

    def test_wrongly_typed_override_is_1(self, tmp_path, pipeline_dirs, capsys):
        dirs = pipeline_dirs
        spec = _write_spec(tmp_path / "spec.json")
        main(["synth", "--spec", str(spec), "--out", str(dirs["data"])])
        main(["fingerprint", "--manifest", str(dirs["data"] / "manifest.json"),
              "--data-dir", str(dirs["data"]), "--out", str(dirs["fp"])])
        capsys.readouterr()
        assert main(["plan", "--fingerprint", str(dirs["fp"] / "fingerprint.json"),
                     "--override", "bag_size=abc", "--out", str(dirs["plan"])]) == 1
        assert "bag_size" in capsys.readouterr().err

    def test_task_override_is_1(self, tmp_path, pipeline_dirs, capsys):
        # the task is the fingerprint's; a regression config planned from a
        # classification fingerprint would carry a classification learning rate
        dirs = pipeline_dirs
        spec = _write_spec(tmp_path / "spec.json")
        main(["synth", "--spec", str(spec), "--out", str(dirs["data"])])
        main(["fingerprint", "--manifest", str(dirs["data"] / "manifest.json"),
              "--data-dir", str(dirs["data"]), "--out", str(dirs["fp"])])
        capsys.readouterr()
        assert main(["plan", "--fingerprint", str(dirs["fp"] / "fingerprint.json"),
                     "--override", "task=regression", "--out", str(dirs["plan"])]) == 1
        assert "task comes from the fingerprint" in capsys.readouterr().err
        assert not (dirs["plan"] / "config.json").exists()

    def test_n_classes_beyond_entries_is_1(self, tmp_path, pipeline_dirs):
        # a declared class count is bounded by the entries, so fingerprint
        # cannot be made to loop or allocate per class; run in a child with a
        # timeout, since an unbounded count keeps the command busy for hours
        dirs = pipeline_dirs
        spec = _write_spec(tmp_path / "spec.json")
        main(["synth", "--spec", str(spec), "--out", str(dirs["data"])])
        manifest = dirs["data"] / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["n_classes"] = 10**9
        manifest.write_text(json.dumps(doc))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run(
            [sys.executable, "-m", "slidemil", "fingerprint", "--manifest", str(manifest),
             "--data-dir", str(dirs["data"]), "--out", str(dirs["fp"])],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 1, done.stderr
        assert "n_classes 1000000000 exceeds" in done.stderr
        assert "Traceback" not in done.stderr

    def test_checkpoint_header_without_tensors_is_2(self, tmp_path, pipeline_dirs):
        dirs = pipeline_dirs
        _run_through_predict(tmp_path, pipeline_dirs,
                             plan_args=("--override", "max_epochs=1"))
        bad = _with_header(dirs["train"] / "checkpoint.ckpt", tmp_path / "no_tensors.ckpt",
                           lambda header: {k: v for k, v in header.items() if k != "tensors"})
        assert main(["predict", "--manifest", str(dirs["data"] / "manifest.json"),
                     "--data-dir", str(dirs["data"]),
                     "--checkpoint", str(bad),
                     "--out", str(tmp_path / "p2")]) == 2

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


class TestFingerprintReadsHeaders:
    """fingerprint reads only the train files' headers, and checks their sizes."""

    def _corpus(self, tmp_path):
        data = tmp_path / "data"
        assert main(["synth", "--spec", str(_write_spec(tmp_path / "spec.json")),
                     "--out", str(data)]) == 0
        return data, load_manifest(data / "manifest.json")

    def _fingerprint(self, data, out):
        return main(["fingerprint", "--manifest", str(data / "manifest.json"),
                     "--data-dir", str(data), "--out", str(out)])

    def test_val_and_test_embeddings_are_not_read(self, tmp_path):
        data, manifest = self._corpus(tmp_path)
        assert self._fingerprint(data, tmp_path / "full") == 0
        for entry in manifest.entries:
            if entry.split != "train":
                (data / entry.embedding_path).unlink()
        assert self._fingerprint(data, tmp_path / "headers") == 0
        assert ((tmp_path / "headers" / "fingerprint.json").read_bytes()
                == (tmp_path / "full" / "fingerprint.json").read_bytes())

    def test_truncated_train_file_is_2(self, tmp_path):
        data, manifest = self._corpus(tmp_path)
        path = data / manifest.split_entries("train")[0].embedding_path
        path.write_bytes(path.read_bytes()[:-4])
        assert self._fingerprint(data, tmp_path / "fp") == 2

    @pytest.mark.parametrize("shape", [(0, 8), (6, 0)], ids=["n0", "d0"])
    def test_train_file_declaring_an_empty_matrix_is_2(self, tmp_path, shape, capsys):
        data, manifest = self._corpus(tmp_path)
        assert self._fingerprint(data, tmp_path / "fp") == 0
        assert main(["plan", "--fingerprint", str(tmp_path / "fp" / "fingerprint.json"),
                     "--out", str(tmp_path / "plan")]) == 0
        # a 16-byte file is the size its header implies, so only the empty shape is wrong
        path = data / manifest.split_entries("train")[0].embedding_path
        path.write_bytes(dataio.EMBEDDING_MAGIC + struct.pack("<II", *shape))
        capsys.readouterr()
        assert self._fingerprint(data, tmp_path / "fp2") == 2
        assert main(["train", "--manifest", str(data / "manifest.json"),
                     "--data-dir", str(data), "--config", str(tmp_path / "plan" / "config.json"),
                     "--out", str(tmp_path / "train")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all("declares empty matrix {}x{}".format(*shape) in line
                                     for line in err)
        assert not (tmp_path / "train" / "checkpoint.ckpt").exists()


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

    def _never_list(self, monkeypatch):
        monkeypatch.setattr(model_module.ChunkWindows, "windows", property(
            lambda grid: pytest.fail("plan listed the windows to count them")))

    def test_counts_without_listing_windows(self, tmp_path, capsys, monkeypatch):
        self._never_list(monkeypatch)
        assert "K=15" in self._plan(tmp_path, capsys)

    def test_counts_at_the_largest_header_dimension(self, tmp_path, capsys, monkeypatch):
        # H=256, S=64: 67,108,860 aligned starts and the clamped D - H, which
        # would take minutes and gigabytes to list
        self._plan(tmp_path, capsys)
        fingerprint = _edited(tmp_path / "fp" / "fingerprint.json", tmp_path,
                              embed_dim=2**32 - 1)
        self._never_list(monkeypatch)
        assert main(["plan", "--fingerprint", str(fingerprint),
                     "--out", str(tmp_path / "wide")]) == 0
        assert "H=256, S=64, K=67108861)" in capsys.readouterr().out

    def test_full_bag_mode_is_one_window(self, tmp_path, capsys):
        assert "K=1)" in self._plan(tmp_path, capsys,
                                    "--override", "training_mode=full_bag_batch1")


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

    @pytest.mark.parametrize("kind,name,code", [("checkpoint", "adam_m.attention_u", 2),
                                                ("config", "ensemble_chunks", 1),
                                                ("fingerprint", "magnification", 1)])
    def test_retired_layout_is_rejected(self, kind, name, code, tmp_path, capsys):
        # files written while checkpoints carried AdamW moments, configs
        # ensemble_chunks and fingerprints magnification no longer load
        if kind == "checkpoint":
            assert self._train(self.dirs["plan"] / "config.json") == 0
            old = tmp_path / "old.ckpt"
            write_old_layout(load_checkpoint(self.dirs["train"] / "checkpoint.ckpt"), old)
            capsys.readouterr()
            got = main(["predict", "--manifest", str(self.dirs["data"] / "manifest.json"),
                        "--data-dir", str(self.dirs["data"]), "--checkpoint", str(old),
                        "--out", str(tmp_path / "pred")])
        elif kind == "config":
            got = self._train(_edited(self.dirs["plan"] / "config.json", tmp_path,
                                      ensemble_chunks=1))
        else:
            got = self._plan(_edited(self.dirs["fp"] / "fingerprint.json", tmp_path,
                                     magnification=None))
        err = capsys.readouterr().err
        assert got == code
        assert err.startswith("error: ") and err.count("\n") == 1 and name in err

    @pytest.mark.parametrize("edit,message", [
        ({"format_version": 2}, "format_version 2 "),
        ({"format_version": "x"}, 'format_version "x" '),
        ({"format_version": True}, "format_version true "),
        ({"format_version": 1.0}, "format_version 1.0 "),
        ({"format_version": None}, "format_version null "),
        ({"bogus": 0}, "unknown keys ['bogus']"),
        ({"bogus": 0, "opt_step": 16}, "unknown keys ['bogus', 'opt_step']"),
    ], ids=["version-2", "version-string", "version-bool", "version-float", "version-null",
            "bogus-key", "two-unknown-keys"])
    def test_checkpoint_header_is_checked(self, edit, message, tmp_path, capsys):
        # the header holds format_version 1, config and tensors and nothing else
        assert self._train(self.dirs["plan"] / "config.json") == 0
        edited = _with_header(self.dirs["train"] / "checkpoint.ckpt", tmp_path / "edited.ckpt",
                              lambda header: {**header, **edit})

        def predict(checkpoint, out):
            return main(["predict", "--manifest", str(self.dirs["data"] / "manifest.json"),
                         "--data-dir", str(self.dirs["data"]), "--checkpoint", str(checkpoint),
                         "--out", str(tmp_path / out)])

        assert predict(self.dirs["train"] / "checkpoint.ckpt", "good") == 0
        capsys.readouterr()
        assert predict(edited, "bad") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not (tmp_path / "bad" / "predictions.jsonl").exists()


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
    """Only evaluate and gradcheck take --seed: no input file holds their seed."""

    def test_evaluate_seed_defaults_to_42(self, tmp_path, pipeline_dirs):
        dirs = pipeline_dirs
        manifest = _run_through_predict(tmp_path, dirs,
                                        plan_args=("--override", "max_epochs=1"))
        outs = []
        for name, extra in (("default", []), ("explicit", ["--seed", "42"]),
                            ("other", ["--seed", "7"])):
            out = tmp_path / name
            assert main(["evaluate", "--manifest", str(manifest),
                         "--predictions", str(dirs["pred"] / "predictions.jsonl"),
                         "--out", str(out), *extra]) == 0
            outs.append(out)
        default, explicit, other = outs
        assert json.loads((default / "run_manifest.json").read_text())["seed"] == 42
        assert (default / "evaluation.json").read_bytes() == \
            (explicit / "evaluation.json").read_bytes()
        assert (default / "evaluation.json").read_bytes() != \
            (other / "evaluation.json").read_bytes()

    def test_gradcheck_seed_defaults_to_42(self, capsys):
        outputs = []
        for extra in ([], ["--seed", "42"], ["--seed", "7"]):
            assert main(["gradcheck", "--task", "survival", *extra]) == 0
            outputs.append(capsys.readouterr().out)
        default, explicit, other = outputs
        assert default == explicit != other

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--manifest", "m.json", "--predictions", "p.jsonl", "--out", "o"],
        ["gradcheck"],
    ], ids=["evaluate", "gradcheck"])
    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_is_1(self, argv, seed, capsys):
        # numpy seeds generators with non-negative integers only
        assert main([*argv, "--seed", seed]) == 1
        err = capsys.readouterr().err
        assert "error: argument --seed" in err and "Traceback" not in err

    def test_negative_spec_seed_is_1(self, tmp_path, capsys):
        spec = _write_spec(tmp_path / "spec.json", seed=-1)
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "data")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed must be >= 0" in err

    def test_train_has_no_mode_flag(self, tmp_path, pipeline_dirs):
        # the training mode is a plan decision, read from the config
        dirs = pipeline_dirs
        _run_through_predict(tmp_path, pipeline_dirs,
                             plan_args=("--override", "max_epochs=1"))
        assert main(["train", "--manifest", str(dirs["data"] / "manifest.json"),
                     "--data-dir", str(dirs["data"]),
                     "--config", str(dirs["plan"] / "config.json"),
                     "--mode", "full_bag_batch1", "--out", str(tmp_path / "moded")]) == 1


class TestEnsembleWorkerCount:
    """The window ensemble's row tiles and a training step's per-slide bodies
    may run on several threads; no artifact may depend on how many."""

    # 30 bags split 60/20/20: the val and train passes hold more bags than
    # the two workers' look-ahead of four, so each pass's look-ahead wraps
    @pytest.mark.parametrize("spec_kw", [
        {"task": "classification", "n_bags": 30},
        {"task": "regression", "signal_strength": 1.0, "n_bags": 30},
        {"task": "survival", "censoring_rate": 0.2, "n_bags": 30},  # plus train's Breslow fit
    ], ids=["classification", "regression", "survival"])
    def test_artifacts_are_byte_identical_on_two_workers_and_one(self, tmp_path, monkeypatch,
                                                                 two_cpus, spec_kw):
        # bags of up to 300 patches span up to three row tiles
        spec = _write_spec(tmp_path / "spec.json", patches_per_bag_range=[100, 300], **spec_kw)
        data, plan = tmp_path / "data", tmp_path / "plan"
        manifest = data / "manifest.json"
        assert main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
        assert main(["fingerprint", "--manifest", str(manifest), "--data-dir", str(data),
                     "--out", str(tmp_path / "fp")]) == 0
        assert main(["plan", "--fingerprint", str(tmp_path / "fp" / "fingerprint.json"),
                     "--override", "max_epochs=2", "--override", "batch_size=8",
                     "--out", str(plan)]) == 0
        shapes = load_bag_shapes(load_manifest(manifest), data).values()
        assert max(shape.n_patches for shape in shapes) > ROW_TILE
        for split in ("train", "val"):
            assert len(load_manifest(manifest).split_entries(split)) > 2 * 2

        pools = []
        real_pool = model_module._worker_pool
        monkeypatch.setattr(model_module, "_worker_pool",
                            lambda count: pools.append(count) or real_pool(count))
        artifacts = {}
        for blas_threads, workers in (("1", 2), ("2", 1)):
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
            pools.clear()
            out = tmp_path / f"workers{workers}"
            assert main(["train", "--manifest", str(manifest), "--data-dir", str(data),
                         "--config", str(plan / "config.json"), "--out", str(out)]) == 0
            assert main(["predict", "--manifest", str(manifest), "--data-dir", str(data),
                         "--checkpoint", str(out / "checkpoint.ckpt"), "--split", "test",
                         "--out", str(out)]) == 0
            assert set(pools) == ({2} if workers == 2 else set())
            doc = json.loads((out / "run_manifest.json").read_text())
            assert doc["ensemble_workers"] == workers
            assert doc["blas_threads"]["OPENBLAS_NUM_THREADS"] == blas_threads
            artifacts[workers] = {name: (out / name).read_bytes() for name in
                                  ("checkpoint.ckpt", "train_report.json",
                                   "predictions.jsonl", "patients.jsonl")}
        assert artifacts[2] == artifacts[1]

    def test_train_bytes_do_not_depend_on_the_blas_thread_setting(self, tmp_path):
        # each train runs in its own process, so BLAS itself starts with the
        # thread count set, and the worker count follows from it
        spec = _write_spec(tmp_path / "spec.json", task="survival", n_bags=40,
                           patches_per_bag_range=[200, 300], embed_dim=256,
                           censoring_rate=0.3)
        data, plan = tmp_path / "data", tmp_path / "plan"
        manifest = data / "manifest.json"
        assert main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
        assert main(["fingerprint", "--manifest", str(manifest), "--data-dir", str(data),
                     "--out", str(tmp_path / "fp")]) == 0
        assert main(["plan", "--fingerprint", str(tmp_path / "fp" / "fingerprint.json"),
                     "--override", "max_epochs=3", "--override", "batch_size=8",
                     "--out", str(plan)]) == 0
        runs = {}
        for blas_threads in ("1", "2", None):
            env = {var: value for var, value in os.environ.items()
                   if var not in BLAS_THREAD_VARS}
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            if blas_threads is not None:
                env["OPENBLAS_NUM_THREADS"] = blas_threads
            out = tmp_path / f"blas{blas_threads}"
            done = subprocess.run(
                [sys.executable, "-m", "slidemil", "train", "--manifest", str(manifest),
                 "--data-dir", str(data), "--config", str(plan / "config.json"),
                 "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=300)
            assert done.returncode == 0, done.stderr
            workers = json.loads((out / "run_manifest.json").read_text())["ensemble_workers"]
            runs[blas_threads] = workers, [(out / name).read_bytes() for name in
                                           ("checkpoint.ckpt", "train_report.json")]
        if len(os.sched_getaffinity(0)) > 1:  # one CPU gives one worker in every run
            assert len({workers for workers, _ in runs.values()}) > 1
        assert runs["1"][1] == runs["2"][1] == runs[None][1]


class TestPredictPass:
    """predict scores its split in one window pass: a bag per worker, each
    slide finished on the calling thread."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        # 40 bags split 60/20/20: the 8 test bags are more than two workers'
        # look-ahead of four
        tmp = tmp_path_factory.mktemp("predict_pass")
        dirs = {name: tmp / name for name in ("data", "fp", "plan", "train", "pred")}
        manifest = _run_through_predict(tmp, dirs, spec_kw={"n_bags": 40},
                                        plan_args=("--override", "max_epochs=1"))
        return dirs, manifest

    @staticmethod
    def _predict(dirs, data, out):
        return main(["predict", "--manifest", str(data / "manifest.json"),
                     "--data-dir", str(data),
                     "--checkpoint", str(dirs["train"] / "checkpoint.ckpt"),
                     "--split", "test", "--out", str(out)])

    @staticmethod
    def _spy_passes(monkeypatch):
        passes = []
        real = model_module.GatedAttentionMIL.window_pass

        def window_pass(self, bags, windows, finish):
            passes.append(list(bags))
            return real(self, bags, windows, finish)

        monkeypatch.setattr(model_module.GatedAttentionMIL, "window_pass", window_pass)
        return passes

    def test_one_pass_over_the_split_in_entry_order(self, run, monkeypatch, tmp_path):
        dirs, manifest = run
        passes = self._spy_passes(monkeypatch)
        assert self._predict(dirs, dirs["data"], tmp_path / "out") == 0
        doc = load_manifest(manifest)
        bags = dataio.load_bags(doc, dirs["data"], ("test",))
        expected = [bags[e.slide_id].embeddings for e in doc.split_entries("test")]
        assert len(passes) == 1 and len(passes[0]) == len(expected) > 2 * 2
        assert all(np.array_equal(got.embeddings, want)
                   for got, want in zip(passes[0], expected))

    def test_tiles_never_run_on_the_calling_thread(self, run, monkeypatch, tmp_path, two_cpus):
        dirs, manifest = run
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert ensemble_workers() == 2
        threads = []
        real = model_module.GatedAttentionMIL.window_tiles
        monkeypatch.setattr(model_module.GatedAttentionMIL, "window_tiles",
                            lambda self, *a: threads.append(threading.get_ident())
                            or real(self, *a))
        assert self._predict(dirs, dirs["data"], tmp_path / "out") == 0
        assert len(threads) == len(load_manifest(manifest).split_entries("test"))
        assert threading.get_ident() not in threads

    def test_a_bag_of_another_width_is_1_and_cancels_the_rest(self, run, monkeypatch, tmp_path,
                                                              two_cpus, capsys):
        dirs, manifest = run
        data = tmp_path / "data"
        shutil.copytree(dirs["data"], data)
        third = load_manifest(manifest).split_entries("test")[2]
        dataio.write_embedding_file(dataio.SlideBag(
            third.slide_id, third.patient_id, np.ones((7, 6), dtype=np.float32)),
            data / third.embedding_path)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        passes, started = self._spy_passes(monkeypatch), []
        real = model_module.GatedAttentionMIL.window_tiles

        def window_tiles(self, x, weights):
            i = next(i for i, bag in enumerate(passes[0]) if np.array_equal(bag.embeddings, x))
            started.append(i)
            if i >= 3:  # the bags after the bad one outlast the reader's cancel
                time.sleep(0.3)
            return real(self, x, weights)

        monkeypatch.setattr(model_module.GatedAttentionMIL, "window_tiles", window_tiles)
        out = tmp_path / "out"
        capsys.readouterr()
        assert self._predict(dirs, data, out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "expected (n, 8) embeddings" in err
        assert not (out / "predictions.jsonl").exists()
        assert not (out / "patients.jsonl").exists()
        # once both workers are idle at the same time, every item the pool
        # had queued before has run; the bags the pass cancelled never do
        barrier = threading.Barrier(2)
        drain = [model_module._worker_pool(2).submit(barrier.wait, 20) for _ in range(2)]
        for future in drain:
            future.result(timeout=30)
        # the pass handed out bag 2 with bags 3-5 queued: the two workers
        # may have started 3 and 4 before the cancel, and never 5 or later
        assert len(passes[0]) > 5
        assert {0, 1, 2} <= set(started) <= {0, 1, 2, 3, 4}


class TestReleasedPages:
    """Each use of a bag read from a file maps it anew and closes the map,
    its pages with it, once the use is over: no artifact may differ from a
    run on the same bags held in memory."""

    @pytest.mark.parametrize("spec_kw,plan_args", [
        ({"task": "classification"}, ()),
        ({"task": "survival", "censoring_rate": 0.2, "n_bags": 24}, ()),  # plus train's Breslow fit
        ({"task": "classification"}, ("--override", "training_mode=full_bag_batch1")),
    ], ids=["classification", "survival", "full_bag_batch1"])
    def test_artifacts_match_bags_held_in_memory(self, tmp_path, monkeypatch, spec_kw,
                                                 plan_args):
        spec = _write_spec(tmp_path / "spec.json", patches_per_bag_range=[100, 300],
                           embed_dim=64, **spec_kw)  # bags of 25-75 KB, many pages each
        data, plan = tmp_path / "data", tmp_path / "plan"
        manifest = data / "manifest.json"
        assert main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
        assert main(["fingerprint", "--manifest", str(manifest), "--data-dir", str(data),
                     "--out", str(tmp_path / "fp")]) == 0
        assert main(["plan", "--fingerprint", str(tmp_path / "fp" / "fingerprint.json"),
                     "--override", "max_epochs=2", "--override", "batch_size=8", *plan_args,
                     "--out", str(plan)]) == 0

        def in_memory(*args, **kwargs):
            bags = mapped_load(*args, **kwargs)
            assert all(bag.embeddings is not bag.embeddings for bag in bags.values())
            return {sid: dataio.SlideBag(bag.slide_id, bag.patient_id, np.array(bag.embeddings))
                    for sid, bag in bags.items()}

        mapped_load = dataio.load_bags
        artifacts = {}
        for held in ("mapped", "memory"):
            if held == "memory":
                monkeypatch.setattr(dataio, "load_bags", in_memory)
            out = tmp_path / held
            assert main(["train", "--manifest", str(manifest), "--data-dir", str(data),
                         "--config", str(plan / "config.json"), "--out", str(out)]) == 0
            assert main(["predict", "--manifest", str(manifest), "--data-dir", str(data),
                         "--checkpoint", str(out / "checkpoint.ckpt"), "--split", "test",
                         "--out", str(out)]) == 0
            artifacts[held] = {name: (out / name).read_bytes() for name in
                               ("checkpoint.ckpt", "train_report.json",
                                "predictions.jsonl", "patients.jsonl")}
        assert artifacts["mapped"] == artifacts["memory"]


class TestFullBagMode:
    def test_mode_override_threads_through(self, tmp_path, pipeline_dirs):
        dirs = pipeline_dirs
        spec = _write_spec(tmp_path / "spec.json")
        main(["synth", "--spec", str(spec), "--out", str(dirs["data"])])
        main(["fingerprint", "--manifest", str(dirs["data"] / "manifest.json"),
              "--data-dir", str(dirs["data"]), "--out", str(dirs["fp"])])
        assert main(["plan", "--fingerprint", str(dirs["fp"] / "fingerprint.json"),
                     "--override", "training_mode=full_bag_batch1",
                     "--override", "max_epochs=1", "--out", str(dirs["plan"])]) == 0
        config = json.loads((dirs["plan"] / "config.json").read_text())
        assert config["training_mode"] == "full_bag_batch1"
        assert config["overrides"] == {"training_mode": "full_bag_batch1", "max_epochs": 1}
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

    def test_survival_is_rejected_by_plan_and_train(self, tmp_path, pipeline_dirs, capsys):
        # every batch is one slide, and a one-slide Cox batch has zero gradient
        dirs = pipeline_dirs
        spec = _write_spec(tmp_path / "spec.json", task="survival", censoring_rate=0.2,
                           n_bags=24)
        main(["synth", "--spec", str(spec), "--out", str(dirs["data"])])
        main(["fingerprint", "--manifest", str(dirs["data"] / "manifest.json"),
              "--data-dir", str(dirs["data"]), "--out", str(dirs["fp"])])
        fingerprint = str(dirs["fp"] / "fingerprint.json")
        capsys.readouterr()
        assert main(["plan", "--fingerprint", fingerprint,
                     "--override", "training_mode=full_bag_batch1",
                     "--out", str(tmp_path / "rejected")]) == 1
        assert "full_bag_batch1" in capsys.readouterr().err
        # a config written by hand is rejected when train reads it
        assert main(["plan", "--fingerprint", fingerprint, "--override", "max_epochs=1",
                     "--out", str(dirs["plan"])]) == 0
        config_path = dirs["plan"] / "config.json"
        config = json.loads(config_path.read_text())
        config_path.write_text(json.dumps({**config, "training_mode": "full_bag_batch1"}))
        capsys.readouterr()
        assert main(["train", "--manifest", str(dirs["data"] / "manifest.json"),
                     "--data-dir", str(dirs["data"]), "--config", str(config_path),
                     "--out", str(dirs["train"])]) == 1
        assert "full_bag_batch1" in capsys.readouterr().err
        assert not (dirs["train"] / "checkpoint.ckpt").exists()


class TestRemovedFlags:
    """Flags that repeated another input or set nothing exit 1 as unknown."""

    @pytest.mark.parametrize("argv", [
        ["synth", "--spec", "s.json", "--out", "o", "--seed", "1"],
        ["plan", "--fingerprint", "fp.json", "--out", "o", "--seed", "1"],
        ["train", "--manifest", "m.json", "--data-dir", "d", "--config", "c.json",
         "--out", "o", "--seed", "1"],
        ["plan", "--fingerprint", "fp.json", "--out", "o", "--task", "classification"],
        ["plan", "--fingerprint", "fp.json", "--out", "o", "--mode", "full_bag_batch1"],
        ["fingerprint", "--manifest", "m.json", "--data-dir", "d", "--out", "o",
         "--seed", "1"],
        ["predict", "--manifest", "m.json", "--data-dir", "d", "--checkpoint", "c.ckpt",
         "--out", "o", "--seed", "1"],
        ["reject-curve", "--manifest", "m.json", "--predictions", "p.jsonl", "--out", "o",
         "--seed", "1"],
    ], ids=["synth-seed", "plan-seed", "train-seed", "plan-task", "plan-mode",
            "fingerprint-seed", "predict-seed", "reject-curve-seed"])
    def test_removed_flag_is_unknown(self, argv, capsys):
        assert main(argv) == 1
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


def _edited(path, tmp_path, **fields):
    """Path of a copy of the JSON object at path with fields replaced."""
    doc = json.loads(path.read_text())
    edited = tmp_path / f"edited_{path.name}"
    edited.write_text(json.dumps({**doc, **fields}), encoding="utf-8")
    return edited


def _config_with(dirs, tmp_path, **fields):
    """Path of a copy of the planned config.json with fields replaced."""
    return _edited(dirs["plan"] / "config.json", tmp_path, **fields)


def _without_test_embeddings(dirs, manifest, tmp_path, *args):
    """predict's arguments but --out, on a copy of the corpus without the
    test split's embedding files."""
    data = _copy_without(dirs, manifest, ("test",), tmp_path / "copy")
    return ["--manifest", data / "manifest.json", "--data-dir", data,
            "--checkpoint", dirs["train"] / "checkpoint.ckpt", *args]


def _two_output_head(dirs, tmp_path):
    """A copy of the trained checkpoint whose head has its one output twice."""
    ckpt = load_checkpoint(dirs["train"] / "checkpoint.ckpt")
    params = {**ckpt.params, "head_weight": np.repeat(ckpt.params["head_weight"], 2, axis=0),
              "head_bias": np.repeat(ckpt.params["head_bias"], 2)}
    save_checkpoint(Checkpoint(params, ckpt.config, ckpt.baseline), tmp_path / "wide.ckpt")
    return tmp_path / "wide.ckpt"


def _classification_manifest(tmp_path):
    spec = _write_spec(tmp_path / "cls_spec.json")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "cls")]) == 0
    return tmp_path / "cls" / "manifest.json"


# config settings no run can train with, as --override values (JSON), and the
# error each gives; the corpus below has D = H = 8
_UNTRAINABLE = [
    ("patience", "0", "patience must be >= 1"),
    ("learning_rate", "-0.001", "learning_rate must be >= 0, got -0.001"),
    ("learning_rate", "NaN", "RunConfig.learning_rate must be a finite float, got nan"),
    ("learning_rate", "Infinity", "RunConfig.learning_rate must be a finite float, got inf"),
    ("weight_decay", "-0.0001", "weight_decay must be >= 0, got -0.0001"),
    ("weight_decay", "NaN", "RunConfig.weight_decay must be a finite float, got nan"),
    ("warmup_epochs", "-1", "warmup_epochs must be >= 0"),
    ("dropout", "1.0", "dropout must lie in [0, 1)"),
    ("dropout", "-0.1", "dropout must lie in [0, 1)"),
    ("seed", "-1", "seed must be >= 0"),
    ("stride", "9", "stride 9 exceeds hidden_dim 8"),
]

# spec fields of the wrong type or out of range, or removed, and the error each gives
_BAD_SPECS = {
    "seed": ({"seed": 1.5}, "SyntheticSpec.seed must be int, got 1.5"),
    "n_bags": ({"n_bags": 6.5}, "SyntheticSpec.n_bags must be int, got 6.5"),
    "signal_strength": ({"signal_strength": "2"},
                        "SyntheticSpec.signal_strength must be a finite float, got '2'"),
    "patches_per_bag_range": ({"patches_per_bag_range": [5, 10.5]},
                              "SyntheticSpec.patches_per_bag_range must be tuple[int, int], "
                              "got [5, 10.5]"),
    "coefficients": ({"coefficients": [1.0] * 8},
                     "unexpected keyword argument 'coefficients'"),
    "split_fractions": ({"split_fractions": [0.6, 0.2, 0.2]},
                        "unexpected keyword argument 'split_fractions'"),
    "signal_strength-inf": ({"signal_strength": float("inf")},
                            "SyntheticSpec.signal_strength must be a finite float, got inf"),
    "signal_strength-10**400": ({"signal_strength": 10**400},
                                "SyntheticSpec.signal_strength must be a finite float, got 1000"),
    # log-hazards of a few hundred overflow exp
    "signal_strength-overflow": ({"task": "survival", "signal_strength": 400.0},
                                 "signal_strength 400.0 overflows (overflow encountered in exp)"),
}

# each bad input: the command, its arguments but --out, and what the error names
_BAD_INPUTS = {
    "plan-hidden_dim-0": ("plan", lambda dirs, manifest, tmp_path: [
        "--fingerprint", dirs["fp"] / "fingerprint.json", "--override", "hidden_dim=0"],
        "hidden_dim must be >= 1"),
    "plan-max_epochs-0": ("plan", lambda dirs, manifest, tmp_path: [
        "--fingerprint", dirs["fp"] / "fingerprint.json", "--override", "max_epochs=0"],
        "max_epochs must be >= 1"),
    "train-max_epochs-0": ("train", lambda dirs, manifest, tmp_path: [
        "--manifest", manifest, "--data-dir", dirs["data"],
        "--config", _config_with(dirs, tmp_path, max_epochs=0)],
        "max_epochs must be >= 1"),
    **{f"predict-eval-time-{value}": ("predict", lambda dirs, manifest, tmp_path, value=value: [
        "--manifest", manifest, "--data-dir", dirs["data"],
        "--checkpoint", dirs["train"] / "checkpoint.ckpt", "--eval-time", value],
        "--eval-time must be 'median' or a finite positive number")
       for value in ("nan", "inf", "-1", "0", "soon", "1e400")},
    # --eval-time is checked before any embedding file is read
    **{f"predict-eval-time-{value}-without-embeddings": (
        "predict", lambda dirs, manifest, tmp_path, value=value: _without_test_embeddings(
            dirs, manifest, tmp_path, "--eval-time", value),
        "--eval-time must be 'median' or a finite positive number")
       for value in ("nan", "inf", "-1", "0", "soon", "1e400")},
    **{f"{command}-{field}-{value}": (command, lambda dirs, manifest, tmp_path, command=command,
                                      field=field, value=value: [
        "--fingerprint", dirs["fp"] / "fingerprint.json", "--override", f"{field}={value}"]
        if command == "plan" else [
        "--manifest", manifest, "--data-dir", dirs["data"],
        "--config", _config_with(dirs, tmp_path, **{field: json.loads(value)})],
        message)
       for field, value, message in _UNTRAINABLE for command in ("plan", "train")},
    "predict-task-mismatch": ("predict", lambda dirs, manifest, tmp_path: [
        "--manifest", _classification_manifest(tmp_path), "--data-dir", tmp_path / "cls",
        "--checkpoint", dirs["train"] / "checkpoint.ckpt"],
        "checkpoint task survival != manifest task classification"),
    # only a classification head may be wider than its manifest needs
    "predict-two-output-survival-head": ("predict", lambda dirs, manifest, tmp_path: [
        "--manifest", manifest, "--data-dir", dirs["data"],
        "--checkpoint", _two_output_head(dirs, tmp_path)],
        "checkpoint head has 2 outputs, but the manifest's survival task needs 1"),
    **{f"synth-{name}": ("synth", lambda dirs, manifest, tmp_path, fields=fields: [
        "--spec", _write_spec(tmp_path / "spec.json", **fields)], message)
       for name, (fields, message) in _BAD_SPECS.items()},
    **{f"plan-fingerprint-{field}-{value}": ("plan", lambda dirs, manifest, tmp_path,
                                             field=field, value=value: [
        "--fingerprint", _edited(dirs["fp"] / "fingerprint.json", tmp_path, **{field: value})],
        message)
       for field, value, message in (
           ("embed_dim", "8", "DataFingerprint.embed_dim must be int, got '8'"),
           ("task", "foo", "DataFingerprint: unknown task 'foo'"),
           # an embedding header holds N and D as uint32
           ("embed_dim", 2**32, "DataFingerprint.embed_dim must be at most 4294967295"),
           ("patch_count_p95", 1e300,
            "DataFingerprint.patch_count_p95 must be at most 4294967295"),
           ("patch_count_iqr", 2.0**32,
            "DataFingerprint.patch_count_iqr must be at most 4294967295"),
           # NaN passes the prevalences' sum check, which compares against it
           ("class_prevalence", [float("nan")] * 2,
            "DataFingerprint.class_prevalence must be a list of finite floats or None, "
            "got [nan, nan]"),
           ("target_min", float("-inf"),
            "DataFingerprint.target_min must be a finite float or None, got -inf"),
           ("target_max", float("inf"),
            "DataFingerprint.target_max must be a finite float or None, got inf"),
           ("time_horizon_max", float("nan"),
            "DataFingerprint.time_horizon_max must be a finite float or None, got nan"),
           # counts, patch-count statistics and prevalences are never negative
           ("n_train", -12, "DataFingerprint.n_train must be >= 0, got -12"),
           ("patch_count_p5", -4.0, "DataFingerprint.patch_count_p5 must be >= 0, got -4.0"),
           ("class_prevalence", [1.5, -0.5],
            "DataFingerprint.class_prevalence must lie in [0, 1], got [1.5, -0.5]"))},
    "plan-fingerprint-patch-counts-1e300": ("plan", lambda dirs, manifest, tmp_path: [
        "--fingerprint", _edited(dirs["fp"] / "fingerprint.json", tmp_path,
                                 **dict.fromkeys(("patch_count_p5", "patch_count_median",
                                                  "patch_count_p95"), 1e300))],
        "DataFingerprint.patch_count_median must be at most 4294967295"),
    "plan-fingerprint-class_prevalence-10**400": ("plan", lambda dirs, manifest, tmp_path: [
        "--fingerprint", _edited(dirs["fp"] / "fingerprint.json", tmp_path,
                                 class_prevalence=[10**400, 0])],
        "DataFingerprint.class_prevalence must be a list of finite floats or None, got [1000"),
    "plan-override-learning_rate-10**400": ("plan", lambda dirs, manifest, tmp_path: [
        "--fingerprint", dirs["fp"] / "fingerprint.json",
        "--override", f"learning_rate={10**400}"],
        "RunConfig.learning_rate must be a finite float, got 1000"),
    **{f"plan-override-{override}": ("plan", lambda dirs, manifest, tmp_path, override=override: [
        "--fingerprint", dirs["fp"] / "fingerprint.json", "--override", override], message)
       for override, message in (
           ("hidden_dim=abc", "RunConfig.hidden_dim must be int, got 'abc'"),
           ("stride=x", "RunConfig.stride must be int, got 'x'"),
           ("hidden_dim=[1]", "RunConfig.hidden_dim must be int, got [1]"),
           ("hidden_dim=8.0", "RunConfig.hidden_dim must be int, got 8.0"),
           ("hidden_dim=null", "RunConfig.hidden_dim must be int, got None"))},
    "reject-curve-fractions-abc": ("reject-curve", lambda dirs, manifest, tmp_path: [
        "--manifest", manifest, "--predictions", dirs["pred"] / "predictions.jsonl",
        "--fractions", "0,abc"],
        "--fractions must be comma-separated numbers"),
}


# an integer of 5,000 digits, past the 4,300 json.loads reads
_LONG_INT = "9" * 5000


def _long_int_text(doc, key) -> str:
    """JSON text of the object doc with key set to _LONG_INT."""
    return json.dumps({**doc, key: "LONG_INT"}).replace('"LONG_INT"', _LONG_INT)


def _long_int_file(doc, key, path):
    """path, holding the JSON object doc with key set to _LONG_INT."""
    path.write_text(_long_int_text(doc, key), encoding="utf-8")
    return path


def _long_int_checkpoint(dirs, tmp_path):
    """Copy of the trained checkpoint whose header's format_version is _LONG_INT."""
    raw = (dirs["train"] / "checkpoint.ckpt").read_bytes()
    (n,) = struct.unpack("<Q", raw[8:16])
    text = _long_int_text(json.loads(raw[16:16 + n]), "format_version").encode("utf-8")
    path = tmp_path / "long.ckpt"
    path.write_bytes(raw[:8] + struct.pack("<Q", len(text)) + text + raw[16 + n:])
    return path


# each input holding _LONG_INT: the command and its arguments but --out
_LONG_INT_INPUTS = {
    "config": lambda dirs, manifest, tmp_path: [
        "train", "--manifest", manifest, "--data-dir", dirs["data"], "--config",
        _long_int_file(json.loads((dirs["plan"] / "config.json").read_text()), "seed",
                       tmp_path / "config.json")],
    "manifest": lambda dirs, manifest, tmp_path: [
        "fingerprint", "--data-dir", dirs["data"], "--manifest",
        _long_int_file(json.loads(manifest.read_text()), "n_classes",
                       tmp_path / "manifest.json")],
    "predictions": lambda dirs, manifest, tmp_path: [
        "evaluate", "--manifest", manifest, "--predictions",
        _long_int_file({"slide_id": "x"}, "risk", tmp_path / "predictions.jsonl")],
    "checkpoint": lambda dirs, manifest, tmp_path: [
        "predict", "--manifest", manifest, "--data-dir", dirs["data"],
        "--checkpoint", _long_int_checkpoint(dirs, tmp_path)],
    "override": lambda dirs, manifest, tmp_path: [
        "plan", "--fingerprint", dirs["fp"] / "fingerprint.json",
        "--override", f"seed={_LONG_INT}"],
}


class TestBadInputs:
    """Inputs no command can act on exit 1 (2 for a file that is not readable
    JSON) with a one-line error, write nothing and raise no exception out of
    main."""

    @pytest.fixture(scope="class")
    def survival_run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("survival_run")
        dirs = {name: tmp / name for name in ("data", "fp", "plan", "train", "pred")}
        manifest = _run_through_predict(
            tmp, dirs, spec_kw={"task": "survival", "censoring_rate": 0.2, "n_bags": 24},
            plan_args=("--override", "max_epochs=1", "--override", "batch_size=8"))
        return dirs, manifest

    @pytest.mark.parametrize("case", list(_BAD_INPUTS))
    def test_exits_1_without_traceback(self, survival_run, case, tmp_path, capsys):
        dirs, manifest = survival_run
        command, make_args, message = _BAD_INPUTS[case]
        out = tmp_path / "out"
        argv = [command, *map(str, make_args(dirs, manifest, tmp_path)), "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("where,code", [("config", 2), ("manifest", 2), ("predictions", 2),
                                            ("checkpoint", 2), ("override", 1)])
    def test_integer_past_the_digit_limit(self, survival_run, where, code, tmp_path, capsys):
        # json.loads reads integers of at most 4,300 digits and json.dumps
        # writes none longer, so the documents are edited as text; the file
        # is not readable JSON (2), and an override that is not JSON is text (1)
        dirs, manifest = survival_run
        out = tmp_path / "out"
        argv = _LONG_INT_INPUTS[where](dirs, manifest, tmp_path)
        capsys.readouterr()
        assert main([*map(str, argv), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())
