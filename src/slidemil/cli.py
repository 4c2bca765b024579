"""Command-line surface: synth, fingerprint, plan, train, predict, evaluate,
reject-curve, gradcheck.

Every command that writes artifacts drops a run_manifest.json (inputs, config
hash, seed, timestamp, BLAS thread variables, window ensemble workers, and the
slidemil, Python, numpy and BLAS versions) into its output directory. A
corpus's seed lives in its spec and a run's in its config; only evaluate and
gradcheck take --seed, since no input file holds theirs. The seed is null for
fingerprint, predict and reject-curve, which draw no random numbers. Exit
codes: 0 success, 1 validation/usage error, 2 file-format or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, dataio, inference, metrics, synthetic
from .errors import FormatError, MetricUndefinedError, ValidationError
from .fingerprint import DataFingerprint, RunConfig, compute_fingerprint, derive_config
from .model import BLAS_THREAD_VARS, ensemble_workers
from .training import build_model, grad_check, load_checkpoint, train

try:
    import resource
except ImportError:  # not on Windows; run manifests then record a null peak_rss_mb
    resource = None


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# the arguments that name a command's input files
_INPUT_ARGS = ("spec", "manifest", "data_dir", "fingerprint", "config", "checkpoint", "predictions")


def _peak_rss_mb() -> float | None:
    """This process's resident-memory high-water mark in MB (ru_maxrss, in
    KB on Linux and bytes on macOS), or None where resource is missing."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def _write_run_manifest(args, hashed, seed) -> None:
    """Write run_manifest.json to args.out: the command, input paths, seed,
    the SHA-256 of the file at hashed, the BLAS thread variables as this
    process saw them, the worker count of the window ensemble and the
    training step (ensemble_workers), the software that ran and the
    process's peak resident memory so far (peak_rss_mb)."""
    inputs = {k: str(getattr(args, k)) for k in _INPUT_ARGS if getattr(args, k, None)}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    doc = {"command": args.command, "inputs": inputs, "config_hash": _sha256(hashed),
           "seed": seed, "timestamp": time.time(),
           "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
           "ensemble_workers": ensemble_workers(), "peak_rss_mb": _peak_rss_mb(),
           "software": {"slidemil": __version__, "python": platform.python_version(),
                        "numpy": np.__version__,
                        "blas": {"name": blas.get("name"), "version": blas.get("version")}}}
    dataio.write_json(doc, Path(args.out) / "run_manifest.json")


def _seed(text: str) -> int:
    """--seed value: numpy seeds generators with non-negative integers only."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_predictions(path) -> dict[str, dict]:
    """The records of a predictions file, one JSON object per nonblank line,
    keyed by their 'slide_id', a string no two records share."""
    records = {}
    for i, line in enumerate(Path(path).read_bytes().splitlines()):
        if not line.strip():
            continue
        record = dataio.parse_json(line, f"{path} line {i + 1}")
        if not (isinstance(record, dict) and isinstance(record.get("slide_id"), str)):
            raise FormatError(f"predictions line {i + 1} is not an object "
                              f"with a string 'slide_id'")
        if record["slide_id"] in records:
            raise FormatError(f"predictions line {i + 1} repeats slide_id "
                              f"{record['slide_id']!r}")
        records[record["slide_id"]] = record
    if not records:
        raise ValidationError(f"no predictions in {path}")
    return records


def _column(records: list[dict], key: str, dtype, index: int | None = None) -> np.ndarray:
    """The field key of every record, or element index of it, as a 1-D array:
    JSON integers for dtype int, finite reals for any other dtype."""
    kind, accepts = (("an integer", dataio._is_int) if dtype is int
                     else ("a finite numeric", lambda v: dataio._as_real(v) is not None))
    message = f"every prediction record needs {kind} {key!r}"
    try:
        values = [r[key] if index is None else r[key][index] for r in records]
        if all(map(accepts, values)):
            return np.array(values, dtype=dtype)  # OverflowError past int64
    except (KeyError, IndexError, TypeError, OverflowError) as exc:
        raise FormatError(message) from exc
    raise FormatError(message)


def cmd_synth(args) -> int:
    spec = synthetic.SyntheticSpec.from_json(args.spec)
    out = _out_dir(args)
    synthetic.write_synthetic_dataset(spec, out)
    _write_run_manifest(args, args.spec, spec.seed)
    print(f"wrote synthetic dataset ({spec.task}, {spec.n_bags} bags) to {out}")
    return 0


def cmd_fingerprint(args) -> int:
    manifest = dataio.load_manifest(args.manifest)
    shapes = dataio.load_bag_shapes(manifest, args.data_dir, ("train",))
    fp = compute_fingerprint(manifest, shapes)
    out = _out_dir(args)
    fp.to_json(out / "fingerprint.json")
    _write_run_manifest(args, args.manifest, None)
    print(f"wrote fingerprint for {fp.n_train + fp.n_val + fp.n_test} slides to {out}")
    return 0


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ValidationError(f"override {text!r} is not key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except ValueError:  # not JSON, or an integer too long for int(): kept as text
        value = raw
    return key, value


def cmd_plan(args) -> int:
    fp = DataFingerprint.from_json(args.fingerprint)
    overrides = dict(_parse_override(o) for o in args.override or [])
    config = derive_config(fp, overrides=overrides)
    n_windows = inference.inference_windows(config, fp.embed_dim).n_chunks
    out = _out_dir(args)
    config.to_json(out / "config.json")
    _write_run_manifest(args, args.fingerprint, config.seed)
    print(f"wrote config (M={config.bag_size}, H={config.hidden_dim}, "
          f"S={config.stride}, K={n_windows}) to {out}")
    return 0


def cmd_train(args) -> int:
    config = RunConfig.from_json(args.config)
    manifest = dataio.load_manifest(args.manifest)
    bags = dataio.load_bags(manifest, args.data_dir, ("train", "val"))
    out = _out_dir(args)
    ckpt_path = out / "checkpoint.ckpt"
    checkpoint, report = train(config, manifest, bags, checkpoint_path=ckpt_path)
    dataio.write_json(asdict(report), out / "train_report.json")
    _write_run_manifest(args, args.config, config.seed)
    last = report.epochs[-1]
    print(f"trained {report.stopped_epoch} epochs "
          f"(best epoch {report.best_epoch}, saved epoch {report.saved_epoch}, "
          f"final val loss {last['val_loss']}); checkpoint at {ckpt_path}")
    return 0


def _survival_eval_times(args, manifest) -> np.ndarray:
    """--eval-time: the train split's median event time (labels only), or a
    number that SurvivalRecord accepts as a survival time."""
    if args.eval_time == "median":
        train_records = [e.label for e in manifest.split_entries("train")]
        return np.array([inference.median_event_time(train_records)])
    try:
        return np.array([dataio.SurvivalRecord(time=float(args.eval_time), event=0).time])
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"--eval-time must be 'median' or a finite positive number, "
                              f"got {args.eval_time!r}") from exc


def cmd_predict(args) -> int:
    manifest = dataio.load_manifest(args.manifest)
    checkpoint = load_checkpoint(args.checkpoint)
    model = build_model(checkpoint)
    config = checkpoint.config
    if config.task != manifest.task:
        raise ValidationError(f"checkpoint task {config.task} != manifest task {manifest.task}")
    if model.n_outputs != manifest.n_outputs:
        raise ValidationError(f"checkpoint head has {model.n_outputs} outputs, but the "
                              f"manifest's {manifest.task} task needs {manifest.n_outputs}")
    if config.task == "classification":
        predict = inference.predict_classification
    elif config.task == "regression":
        predict = inference.predict_regression
    else:
        predict = functools.partial(inference.predict_survival, baseline=checkpoint.baseline,
                                    eval_times=_survival_eval_times(args, manifest))
    windows = inference.inference_windows(config, model.embed_dim)
    entries = manifest.split_entries(args.split)
    if not entries:
        raise ValidationError(f"split {args.split!r} is empty")
    bags = dataio.load_bags(manifest, args.data_dir, (args.split,))
    predictions = model.window_pass(
        [bags[e.slide_id] for e in entries], windows,
        lambda bag, tiles: predict(model, bag, windows, tiles=tiles))

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

    _write_run_manifest(args, args.checkpoint, None)
    print(f"wrote {len(predictions)} slide predictions "
          f"({len(by_patient)} patients) to {out}")
    return 0


def _aligned_predictions(manifest, args) -> tuple[list, list[dict]]:
    records = _read_predictions(args.predictions)
    entries = manifest.split_entries(args.split)
    if not entries:
        raise ValidationError(f"split {args.split!r} is empty")
    missing = [e.slide_id for e in entries if e.slide_id not in records]
    if missing:
        raise ValidationError(f"predictions missing for slides {missing[:5]}")
    return entries, [records[e.slide_id] for e in entries]


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_evaluate(args) -> int:
    manifest = dataio.load_manifest(args.manifest)
    entries, preds = _aligned_predictions(manifest, args)
    out = _out_dir(args)
    report: dict = {"task": manifest.task, "split": args.split, "n_slides": len(entries)}
    truth = dataio.label_arrays(manifest.task, entries)

    if manifest.task == "classification":
        pred_cls = _column(preds, "predicted_class", int)
        report["balanced_accuracy"] = asdict(metrics.bootstrap_ci(
            metrics.balanced_accuracy, (truth, pred_cls), seed=args.seed))
        kappa = lambda t, p: metrics.cohens_kappa(t, p, weighting=args.kappa_weighting)
        report["cohens_kappa"] = asdict(metrics.bootstrap_ci(kappa, (truth, pred_cls),
                                                             seed=args.seed))
        report["kappa_weighting"] = args.kappa_weighting
        if manifest.n_classes == 2:
            scores = _column(preds, "mean_probs", np.float64, index=1)
            report["auc"] = asdict(metrics.bootstrap_ci(metrics.auc, (truth, scores),
                                                        seed=args.seed))
    elif manifest.task == "regression":
        pred_val = _column(preds, "mean_value", np.float64)
        report["pearson_r"] = asdict(metrics.bootstrap_ci(metrics.pearson_r, (truth, pred_val),
                                                          seed=args.seed))
        report["mse"] = asdict(metrics.bootstrap_ci(metrics.mean_squared_error,
                                                    (truth, pred_val), seed=args.seed))
    else:
        times, events = truth
        risks = _column(preds, "risk", np.float64)
        report["concordance_index"] = asdict(metrics.bootstrap_ci(
            metrics.concordance_index, (times, events, risks), seed=args.seed))
        median_risk = float(np.median(risks))
        high = risks > median_risk
        if high.any() and (~high).any():
            try:
                stat, p_value = metrics.logrank_test(times, events, high)
                report["logrank"] = {"statistic": stat, "p_value": p_value,
                                     "n_high": int(high.sum()), "n_low": int((~high).sum())}
            except MetricUndefinedError as exc:
                report["logrank"] = {"undefined": str(exc)}
            for name, group_mask in (("high", high), ("low", ~high)):
                curve = metrics.km_curve(times[group_mask], events[group_mask])
                _write_csv(out / f"km_{name}.csv", ["time", "survival", "at_risk"],
                           zip(curve.times, curve.survival, curve.at_risk))
        else:
            report["logrank"] = {"undefined": "median split left one group empty"}

    dataio.write_json(report, out / "evaluation.json")
    _write_run_manifest(args, args.predictions, args.seed)
    print(f"wrote evaluation ({manifest.task}, {len(entries)} slides) to {out}")
    return 0


def cmd_reject_curve(args) -> int:
    manifest = dataio.load_manifest(args.manifest)
    entries, preds = _aligned_predictions(manifest, args)
    try:
        fractions = [float(f) for f in args.fractions.split(",") if f.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"--fractions must be comma-separated numbers, "
                              f"got {args.fractions!r}") from exc
    truth = dataio.label_arrays(manifest.task, entries)

    if manifest.task == "classification":
        pred = _column(preds, "predicted_class", int)
        unc = _column(preds, "h_aleatoric", np.float64)
        metric = metrics.balanced_accuracy
        metric_name = "balanced_accuracy"
    elif manifest.task == "regression":
        pred = _column(preds, "mean_value", np.float64)
        unc = _column(preds, "std_value", np.float64)
        metric = lambda t, p: -metrics.mean_squared_error(t, p)
        metric_name = "neg_mse"
    else:
        pred = _column(preds, "risk", np.float64)
        unc = _column(preds, "unc_survival", np.float64, index=0)
        metric = metrics.concordance_index
        metric_name = "concordance_index"

    data = (*truth, pred) if manifest.task == "survival" else (truth, pred)
    curve = metrics.rejection_curve(metric, data, unc, fractions)
    out = _out_dir(args)
    n = len(entries)
    # an uncertainty with one value ranks nothing: its drops would follow manifest order
    rows = [{"fraction": q, "value": v if q == 0 or np.ptp(unc) > 0 else None,
             "n_retained": n - int(np.ceil(q * n))} for q, v in curve]
    dataio.write_json({"metric": metric_name, "task": manifest.task, "points": rows},
                      out / "rejection.json")
    header = ["fraction", "value", "n_retained"]
    _write_csv(out / "rejection.csv", header, ([row[k] for k in header] for row in rows))
    _write_run_manifest(args, args.predictions, None)
    print(f"wrote rejection curve ({metric_name}, {len(rows)} points) to {out}")
    return 0


def cmd_gradcheck(args) -> int:
    try:
        d_text, h_text = args.dims.split("x")
        embed_dim, hidden_dim = int(d_text), int(h_text)
    except ValueError as exc:
        raise ValidationError(f"--dims must look like 8x4, got {args.dims!r}") from exc
    result = grad_check(args.task, embed_dim=embed_dim, hidden_dim=hidden_dim,
                        seed=args.seed)
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
    p.add_argument("--override", action="append", metavar="KEY=VALUE",
                   help="config field override; repeatable")
    p.add_argument("--out", required=True)

    p = add("train", cmd_train, help="train a model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = add("predict", cmd_predict, help="run sliding-window ensemble inference")
    p.add_argument("--manifest", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=dataio.SPLITS)
    p.add_argument("--eval-time", default="median",
                   help="survival probability evaluation time: 'median' or a positive number")
    p.add_argument("--out", required=True)

    p = add("evaluate", cmd_evaluate, help="score predictions against labels")
    p.add_argument("--manifest", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--split", default="test", choices=dataio.SPLITS)
    p.add_argument("--kappa-weighting", default="none", choices=["none", "quadratic"])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=42, help="bootstrap seed (default 42)")

    p = add("reject-curve", cmd_reject_curve, help="selective-prediction curve")
    p.add_argument("--manifest", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--split", default="test", choices=dataio.SPLITS)
    p.add_argument("--fractions", default="0,0.05,0.1,0.15,0.2,0.25,0.3")
    p.add_argument("--out", required=True)

    p = add("gradcheck", cmd_gradcheck, help="finite-difference gradient check")
    p.add_argument("--dims", default="8x4", help="DxH, e.g. 8x4")
    p.add_argument("--task", default="classification", choices=dataio.TASKS)
    p.add_argument("--seed", type=_seed, default=42,
                   help="seed of the random model and data (default 42)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    except (FormatError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValidationError, MetricUndefinedError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
