"""Command-line surface: synth, fingerprint, plan, train, predict, evaluate,
reject-curve, gradcheck.

Every command that writes artifacts drops a run_manifest.json (inputs, config
hash, seed, timestamp) into its output directory. Exit codes: 0 success,
1 validation/usage error, 2 file-format or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import dataio, inference, metrics, synthetic
from .errors import FormatError, MetricUndefinedError, ValidationError
from .fingerprint import DataFingerprint, RunConfig, compute_fingerprint, derive_config
from .model import grad_check
from .training import load_checkpoint, build_model, train


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_run_manifest(out_dir: Path, command: str, inputs: dict, seed,
                        config_hash: str | None) -> None:
    doc = {"command": command, "inputs": {k: str(v) for k, v in inputs.items() if v},
           "config_hash": config_hash, "seed": seed, "timestamp": time.time()}
    (out_dir / "run_manifest.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dump_json(doc, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def _load_config(args) -> RunConfig:
    config = RunConfig.from_json(args.config)
    if getattr(args, "mode", None):
        config = dataclasses.replace(config, training_mode=args.mode)
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _read_predictions(path) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise FormatError(f"bad JSON on predictions line {i + 1}: {exc}") from exc
    if not records:
        raise ValidationError(f"no predictions in {path}")
    return records


def cmd_synth(args) -> int:
    spec = synthetic.SyntheticSpec.from_json(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    out = _out_dir(args)
    synthetic.write_synthetic_dataset(spec, out)
    _write_run_manifest(out, "synth", {"spec": args.spec}, spec.seed, _sha256(args.spec))
    print(f"wrote synthetic dataset ({spec.task}, {spec.n_bags} bags) to {out}")
    return 0


def cmd_fingerprint(args) -> int:
    manifest = dataio.load_manifest(args.manifest)
    bags = dataio.load_bags(manifest, args.data_dir)
    fp = compute_fingerprint(manifest, bags)
    out = _out_dir(args)
    fp.to_json(out / "fingerprint.json")
    _write_run_manifest(out, "fingerprint", {"manifest": args.manifest,
                                             "data_dir": args.data_dir},
                        args.seed, _sha256(args.manifest))
    print(f"wrote fingerprint for {fp.n_train + fp.n_val + fp.n_test} slides to {out}")
    return 0


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ValidationError(f"override {text!r} is not key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def cmd_plan(args) -> int:
    fp = DataFingerprint.from_json(args.fingerprint)
    overrides = dict(_parse_override(o) for o in args.override or [])
    if args.mode:
        overrides["training_mode"] = args.mode
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = derive_config(fp, task=args.task, overrides=overrides)
    n_windows = inference.inference_windows(config, fp.embed_dim).n_chunks
    out = _out_dir(args)
    config.to_json(out / "config.json")
    _write_run_manifest(out, "plan", {"fingerprint": args.fingerprint},
                        config.seed, _sha256(args.fingerprint))
    print(f"wrote config (M={config.bag_size}, H={config.hidden_dim}, "
          f"S={config.stride}, K={n_windows}) to {out}")
    return 0


def cmd_train(args) -> int:
    manifest = dataio.load_manifest(args.manifest)
    bags = dataio.load_bags(manifest, args.data_dir)
    config = _load_config(args)
    out = _out_dir(args)
    ckpt_path = out / "checkpoint.ckpt"
    checkpoint, report = train(config, manifest, bags, checkpoint_path=ckpt_path)
    _dump_json(report.to_dict(), out / "train_report.json")
    _write_run_manifest(out, "train", {"manifest": args.manifest,
                                       "data_dir": args.data_dir,
                                       "config": args.config},
                        config.seed, _sha256(args.config))
    last = report.epochs[-1]
    print(f"trained {report.stopped_epoch} epochs "
          f"(best epoch {report.best_epoch}, final val loss {last['val_loss']}); "
          f"checkpoint at {ckpt_path}")
    return 0


def _survival_eval_times(args, manifest) -> np.ndarray:
    train_records = [e.label for e in manifest.split_entries("train")]
    if args.eval_time == "median":
        return np.array([inference.median_event_time(train_records)])
    try:
        return np.array([float(args.eval_time)])
    except ValueError as exc:
        raise ValidationError(f"--eval-time must be 'median' or a number, "
                              f"got {args.eval_time!r}") from exc


def cmd_predict(args) -> int:
    manifest = dataio.load_manifest(args.manifest)
    checkpoint = load_checkpoint(args.checkpoint)
    model = build_model(checkpoint)
    config = checkpoint.config
    windows = inference.inference_windows(config, model.embed_dim)
    entries = manifest.split_entries(args.split)
    if not entries:
        raise ValidationError(f"split {args.split!r} is empty")
    # survival also reads the train split, to fit the Breslow baseline
    splits = (args.split, "train") if config.task == "survival" else (args.split,)
    bags = dataio.load_bags(manifest, args.data_dir, splits)

    if config.task == "survival":
        eval_times = _survival_eval_times(args, manifest)
        train_entries = manifest.split_entries("train")
        train_risks = np.array([
            inference.slide_output(
                "survival", inference.ensemble_outputs(model, bags[e.slide_id], windows))[0]
            for e in train_entries])
        baseline = inference.estimate_baseline_survival(
            train_risks, [e.label for e in train_entries])

    predictions = []
    for entry in entries:
        bag = bags[entry.slide_id]
        if config.task == "classification":
            predictions.append(inference.predict_classification(model, bag, windows))
        elif config.task == "regression":
            predictions.append(inference.predict_regression(model, bag, windows))
        else:
            predictions.append(inference.predict_survival(model, bag, windows,
                                                          baseline, eval_times))

    out = _out_dir(args)
    with open(out / "predictions.jsonl", "w", encoding="utf-8") as fh:
        for pred in predictions:
            fh.write(json.dumps(inference.prediction_to_json(pred), sort_keys=True) + "\n")

    by_patient: dict[str, list] = {}
    for entry, pred in zip(entries, predictions):
        by_patient.setdefault(entry.patient_id, []).append(pred)
    with open(out / "patients.jsonl", "w", encoding="utf-8") as fh:
        for patient_id in sorted(by_patient):
            doc = {"patient_id": patient_id,
                   **inference.aggregate_patient(by_patient[patient_id])}
            fh.write(json.dumps(doc, sort_keys=True) + "\n")

    _write_run_manifest(out, "predict", {"manifest": args.manifest,
                                         "data_dir": args.data_dir,
                                         "checkpoint": args.checkpoint},
                        args.seed, _sha256(args.checkpoint))
    print(f"wrote {len(predictions)} slide predictions "
          f"({len(by_patient)} patients) to {out}")
    return 0


def _aligned_predictions(manifest, args) -> tuple[list, list[dict]]:
    records = {r["slide_id"]: r for r in _read_predictions(args.predictions)}
    entries = manifest.split_entries(args.split)
    if not entries:
        raise ValidationError(f"split {args.split!r} is empty")
    missing = [e.slide_id for e in entries if e.slide_id not in records]
    if missing:
        raise ValidationError(f"predictions missing for slides {missing[:5]}")
    return entries, [records[e.slide_id] for e in entries]


def cmd_evaluate(args) -> int:
    manifest = dataio.load_manifest(args.manifest)
    entries, preds = _aligned_predictions(manifest, args)
    out = _out_dir(args)
    seed = args.seed if args.seed is not None else 42
    report: dict = {"task": manifest.task, "split": args.split, "n_slides": len(entries)}
    truth = dataio.label_arrays(manifest.task, entries)

    if manifest.task == "classification":
        pred_cls = np.array([p["predicted_class"] for p in preds], dtype=int)
        report["balanced_accuracy"] = metrics.bootstrap_ci(
            metrics.balanced_accuracy, (truth, pred_cls), seed=seed).to_dict()
        kappa = lambda t, p: metrics.cohens_kappa(t, p, weighting=args.kappa_weighting)
        report["cohens_kappa"] = metrics.bootstrap_ci(kappa, (truth, pred_cls),
                                                      seed=seed).to_dict()
        report["kappa_weighting"] = args.kappa_weighting
        if manifest.n_classes == 2:
            scores = np.array([p["mean_probs"][1] for p in preds], dtype=np.float64)
            report["auc"] = metrics.bootstrap_ci(metrics.auc, (truth, scores),
                                                 seed=seed).to_dict()
    elif manifest.task == "regression":
        pred_val = np.array([p["mean_value"] for p in preds], dtype=np.float64)
        report["pearson_r"] = metrics.bootstrap_ci(metrics.pearson_r, (truth, pred_val),
                                                   seed=seed).to_dict()
        report["mse"] = metrics.bootstrap_ci(metrics.mean_squared_error,
                                             (truth, pred_val), seed=seed).to_dict()
    else:
        times, events = truth
        risks = np.array([p["risk"] for p in preds], dtype=np.float64)
        cindex = lambda t, e, r: metrics.concordance_index(t, e, r)
        report["concordance_index"] = metrics.bootstrap_ci(
            cindex, (times, events, risks), seed=seed).to_dict()
        median_risk = float(np.median(risks))
        high = risks > median_risk
        if high.any() and (~high).any():
            group_high = [dataio.SurvivalRecord(t, e) for t, e in
                          zip(times[high], events[high])]
            group_low = [dataio.SurvivalRecord(t, e) for t, e in
                         zip(times[~high], events[~high])]
            try:
                stat, p_value = metrics.logrank_test(group_high, group_low)
                report["logrank"] = {"statistic": stat, "p_value": p_value,
                                     "n_high": int(high.sum()), "n_low": int((~high).sum())}
            except MetricUndefinedError as exc:
                report["logrank"] = {"undefined": str(exc)}
            for name, group_mask in (("high", high), ("low", ~high)):
                try:
                    curve = metrics.km_curve(times[group_mask], events[group_mask])
                except MetricUndefinedError:
                    continue
                with open(out / f"km_{name}.csv", "w", newline="", encoding="utf-8") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["time", "survival", "at_risk"])
                    for row in zip(curve.times, curve.survival, curve.at_risk):
                        writer.writerow(list(row))
        else:
            report["logrank"] = {"undefined": "median split left one group empty"}

    _dump_json(report, out / "evaluation.json")
    _write_run_manifest(out, "evaluate", {"manifest": args.manifest,
                                          "predictions": args.predictions},
                        seed, _sha256(args.predictions))
    print(f"wrote evaluation ({manifest.task}, {len(entries)} slides) to {out}")
    return 0


def cmd_reject_curve(args) -> int:
    manifest = dataio.load_manifest(args.manifest)
    entries, preds = _aligned_predictions(manifest, args)
    fractions = [float(f) for f in args.fractions.split(",") if f.strip() != ""]
    truth = dataio.label_arrays(manifest.task, entries)

    if manifest.task == "classification":
        pred = np.array([p["predicted_class"] for p in preds], dtype=int)
        unc = np.array([p["h_aleatoric"] for p in preds], dtype=np.float64)
        metric = metrics.balanced_accuracy
        metric_name = "balanced_accuracy"
    elif manifest.task == "regression":
        pred = np.array([p["mean_value"] for p in preds], dtype=np.float64)
        unc = np.array([p["std_value"] for p in preds], dtype=np.float64)
        metric = lambda t, p: -metrics.mean_squared_error(t, p)
        metric_name = "neg_mse"
    else:
        truth = np.column_stack(truth)
        pred = np.array([p["risk"] for p in preds], dtype=np.float64)
        unc = np.array([p["unc_survival"][0] for p in preds], dtype=np.float64)
        metric = lambda t, r: metrics.concordance_index(t[:, 0], t[:, 1], r)
        metric_name = "concordance_index"

    curve = metrics.rejection_curve(metric, truth, pred, unc, fractions)
    out = _out_dir(args)
    n = len(entries)
    rows = [{"fraction": q, "value": v,
             "n_retained": n - int(np.ceil(q * n))} for q, v in curve]
    _dump_json({"metric": metric_name, "task": manifest.task, "points": rows},
               out / "rejection.json")
    with open(out / "rejection.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fraction", "value", "n_retained"])
        for row in rows:
            writer.writerow([row["fraction"], row["value"], row["n_retained"]])
    _write_run_manifest(out, "reject-curve", {"manifest": args.manifest,
                                              "predictions": args.predictions},
                        args.seed, _sha256(args.predictions))
    print(f"wrote rejection curve ({metric_name}, {len(rows)} points) to {out}")
    return 0


def cmd_gradcheck(args) -> int:
    try:
        d_text, h_text = args.dims.split("x")
        embed_dim, hidden_dim = int(d_text), int(h_text)
    except ValueError as exc:
        raise ValidationError(f"--dims must look like 8x4, got {args.dims!r}") from exc
    seed = args.seed if args.seed is not None else 42
    result = grad_check(args.task, embed_dim=embed_dim, hidden_dim=hidden_dim, seed=seed)
    err = result["max_rel_err"]
    ok = err < 1e-4
    print(f"gradcheck task={args.task} dims={embed_dim}x{hidden_dim}: "
          f"max relative error {err:.3e} ({'<' if ok else '>='} 1e-4)")
    return 0 if ok else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="slidemil",
                     description="Slide-level multiple-instance learning workflows")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--seed", type=int, default=None,
                       help="override the config/spec seed (default 42 where unset)")
        return p

    p = add("synth", cmd_synth, help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="synthetic spec JSON")
    p.add_argument("--out", required=True)

    p = add("fingerprint", cmd_fingerprint, help="compute dataset statistics")
    p.add_argument("--manifest", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out", required=True)

    p = add("plan", cmd_plan, help="derive a run config from a fingerprint")
    p.add_argument("--fingerprint", required=True)
    p.add_argument("--task", default=None,
                   choices=["classification", "regression", "survival"])
    p.add_argument("--mode", choices=["nnmil", "full_bag_batch1"], default=None)
    p.add_argument("--override", action="append", metavar="KEY=VALUE",
                   help="config field override; repeatable")
    p.add_argument("--out", required=True)

    p = add("train", cmd_train, help="train a model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=["nnmil", "full_bag_batch1"], default=None)
    p.add_argument("--out", required=True)

    p = add("predict", cmd_predict, help="run sliding-window ensemble inference")
    p.add_argument("--manifest", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--eval-time", default="median",
                   help="survival probability evaluation time: 'median' or a number")
    p.add_argument("--out", required=True)

    p = add("evaluate", cmd_evaluate, help="score predictions against labels")
    p.add_argument("--manifest", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--kappa-weighting", default="none", choices=["none", "quadratic"])
    p.add_argument("--out", required=True)

    p = add("reject-curve", cmd_reject_curve, help="selective-prediction curve")
    p.add_argument("--manifest", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--fractions", default="0,0.05,0.1,0.15,0.2,0.25,0.3")
    p.add_argument("--out", required=True)

    p = add("gradcheck", cmd_gradcheck, help="finite-difference gradient check")
    p.add_argument("--dims", default="8x4", help="DxH, e.g. 8x4")
    p.add_argument("--task", default="classification",
                   choices=["classification", "regression", "survival"])

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    except FormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValidationError, MetricUndefinedError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
