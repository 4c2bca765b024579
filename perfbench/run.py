"""slidemil benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The corpus is built from the seed in a child process (see corpus.py). The
measured process then:

1. set-up: load_manifest plus load_bags of the whole corpus, three times
   (median reported); the page cache is warm, and nothing here drops it;
2. cycles, until their pipelines and closed loops add up to S seconds and
   at least workload.min_cycles have run: a pipeline, fingerprint -> plan -> train -> predict ->
   evaluate through slidemil.cli.main in-process, where plan fixes
   max_epochs and sets patience to the same value so every run trains the
   same epochs; then a closed loop: one caller sends single-slide requests
   over the val and test slides, each a read_embedding_file plus a predict_*
   call with the trained checkpoint, the next sent when the last returns.
   workload.requests are spread over the first workload.min_cycles cycles,
   so every run takes the same number of latency samples and the tail
   percentile (the highest with ten samples beyond it) is fixed per
   workload;
3. checks: exit codes, predictions.jsonl shape and finiteness, the
   uncertainty identity, a float64 reference forward on two slides, and
   agreement between the closed loop and predict.

Every CLI command, request and check is an operation; ops_failed_frac is
printed with its base, and the result line carries it as attempted/failed.

With --trace 1 the pipeline runs untraced, then with every PATCH_POINT
wrapped (tracing.py), then untraced again; the per-layer metrics of the
traced pipeline and the tracing overhead are reported instead, and no
closed loop runs. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; a full report including the
environment record is written under .perfbench/results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import env
from workloads import WORKLOADS, Workload

SETUP_REPEATS = 3
REFERENCE_SLIDES = 2
UNCERTAINTY_TOLERANCE = 1e-12
TAIL_LADDER = ("50", "75", "90", "99", "99.9", "99.99")
MIN_BEYOND_TAIL = 10

END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "epoch_s": "s", "predict_slides_per_s": "slides/s",
    "slide_latency_ms.p50": "ms", "slide_latency_ms.tail": "ms", "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "dataio.load_bags_s": "s", "dataio.load_bags_calls": "count", "dataio.read_mb": "MB",
    "dataio.read_mbps": "MB/s", "fingerprint.compute_s": "s",
    "sampling.sample_patches_s": "s", "sampling.sample_patches_calls": "count",
    "sampling.patch_mb_copied": "MB", "sampling.batch_plan_s": "s",
    "sampling.valid_row_frac": "ratio",
    "model.forward_train_s": "s", "model.forward_train_calls": "count", "model.backward_s": "s",
    "model.forward_infer_s": "s", "model.forward_infer_calls": "count",
    "model.gflop_nominal": "GFLOP", "model.gflops_infer": "GFLOP/s", "model.loss_s": "s",
    "training.train_s": "s", "training.self_s": "s", "training.adamw_s": "s",
    "training.steps": "count", "training.validation_s": "s", "training.validation_frac": "ratio",
    "training.skipped_batch_frac": "ratio", "training.checkpoint_save_s": "s",
    "training.checkpoint_load_s": "s",
    "inference.ensemble_s": "s", "inference.window_calls": "count",
    "inference.windows_per_slide": "count", "inference.baseline_s": "s", "inference.post_s": "s",
    "metrics.bootstrap_s": "s", "metrics.bootstrap_draws": "count",
    "cli.fingerprint_s": "s", "cli.plan_s": "s", "cli.train_s": "s", "cli.predict_s": "s",
    "cli.evaluate_s": "s", "cli.self_s": "s", "trace.overhead_s": "s",
}


def tail_percentile(n: int) -> str | None:
    """Highest ladder percentile with at least MIN_BEYOND_TAIL of n samples above its rank."""
    best = None
    for p in TAIL_LADDER:
        if n - math.ceil(n * Fraction(p) / 100) >= MIN_BEYOND_TAIL:
            best = p
    return best


class Ledger:
    """Operations attempted and failed: CLI commands, requests and checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)
        return ok


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    return True


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def run_pipeline(cli, workload: Workload, data: Path, out: Path, ledger: Ledger,
                 tracer=None) -> dict[str, float] | None:
    """Wall time of each CLI command, or None once one exits non-zero."""
    manifest = str(data / "manifest.json")
    steps = [
        ("fingerprint", ["--manifest", manifest, "--data-dir", str(data),
                         "--out", str(out / "fingerprint")]),
        ("plan", ["--fingerprint", str(out / "fingerprint" / "fingerprint.json"),
                  "--override", f"max_epochs={workload.epochs}",
                  "--override", f"patience={workload.epochs}", "--out", str(out / "plan")]),
        ("train", ["--manifest", manifest, "--data-dir", str(data),
                   "--config", str(out / "plan" / "config.json"), "--out", str(out / "train")]),
        ("predict", ["--manifest", manifest, "--data-dir", str(data),
                     "--checkpoint", str(out / "train" / "checkpoint.ckpt"),
                     "--out", str(out / "predict")]),
        ("evaluate", ["--manifest", manifest,
                      "--predictions", str(out / "predict" / "predictions.jsonl"),
                      "--out", str(out / "evaluate")]),
    ]
    times = {}
    for command, argv in steps:
        span = tracer.span(f"cli.{command}") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(io.StringIO()), span:
            t0 = time.perf_counter()
            code = cli.main([command, *argv])
            times[command] = time.perf_counter() - t0
        if not ledger.record(f"cli {command}", code == 0, f"exit code {code}"):
            return None
    return times


def check_outputs(slidemil, workload: Workload, data: Path, out: Path,
                  ledger: Ledger) -> tuple[dict, dict]:
    """Correctness of one pipeline run's artifacts; returns facts for the report
    and the per-window outputs predict wrote, by slide."""
    import reference
    from slidemil.inference import chunk_windows
    from slidemil.training import load_checkpoint

    task = workload.spec["task"]
    config = _read_json(out / "plan" / "config.json")
    embed_dim = _read_json(out / "fingerprint" / "fingerprint.json")["embed_dim"]
    n_windows = chunk_windows(embed_dim, config["hidden_dim"], config["stride"]).n_chunks
    report = _read_json(out / "train" / "train_report.json")
    ledger.record("trained every planned epoch", report["stopped_epoch"] == workload.epochs,
                  f"stopped at {report['stopped_epoch']} of {workload.epochs}")

    manifest = slidemil.dataio.load_manifest(data / "manifest.json")
    test = manifest.split_entries("test")
    lines = (out / "predict" / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
    records = {r["slide_id"]: r for r in map(json.loads, lines)}
    per_window_key = "per_chunk_probs" if task == "classification" else "per_chunk_risk"
    ledger.record("one finite record per held-out slide with K per-window values",
                  len(lines) == len(test) == len(records)
                  and set(records) == {e.slide_id for e in test}
                  and all(_finite(r) and len(r[per_window_key]) == n_windows
                          for r in records.values()),
                  f"{len(lines)} records for {len(test)} slides, K={n_windows}")
    if task == "classification":
        worst = max(abs(r["h_total"] - (r["h_aleatoric"] + r["mutual_info"]))
                    for r in records.values()) if records else math.inf
        ledger.record("h_total == h_aleatoric + mutual_info",
                      worst <= UNCERTAINTY_TOLERANCE, f"max gap {worst:.3e}")

    params = load_checkpoint(out / "train" / "checkpoint.ckpt").params
    wins = reference.windows(embed_dim, config["hidden_dim"], config["stride"])
    deviations = {}
    for entry in test[:REFERENCE_SLIDES]:
        bag = slidemil.dataio.read_embedding_file(data / entry.embedding_path)
        ref = reference.window_outputs(params, bag.embeddings, wins)
        record = records.get(entry.slide_id)
        dev = (reference.max_deviation(task, record, ref)
               if record and len(record[per_window_key]) == len(wins) else math.inf)
        deviations[entry.slide_id] = dev
        ledger.record(f"float64 reference forward on {entry.slide_id}",
                      dev <= reference.TOLERANCE, f"max deviation {dev:.3e}")

    evaluation = _read_json(out / "evaluate" / "evaluation.json")
    score_name = "auc" if task == "classification" else "concordance_index"
    score = evaluation.get(score_name, {}).get("point")
    ledger.record(f"evaluation reports a finite {score_name}",
                  isinstance(score, float) and math.isfinite(score), f"got {score!r}")
    facts = {"windows": n_windows, "bag_size": config["bag_size"],
             "hidden_dim": config["hidden_dim"], "stride": config["stride"],
             "reference_max_deviation": deviations, "held_out": {score_name: score}}
    return facts, {sid: r[per_window_key] for sid, r in records.items()}


def make_predictor(slidemil, workload: Workload, data: Path, out: Path):
    """bag -> per-window outputs with the trained checkpoint, as predict computes
    them; survival fits the Breslow baseline on the train split first."""
    import numpy as np
    from slidemil import dataio, inference
    from slidemil.training import build_model, load_checkpoint

    checkpoint = load_checkpoint(out / "train" / "checkpoint.ckpt")
    model = build_model(checkpoint)
    windows = inference.inference_windows(checkpoint.config, model.embed_dim)
    if workload.spec["task"] == "classification":
        return lambda bag: inference.predict_classification(model, bag, windows).per_chunk_probs
    train = dataio.load_manifest(data / "manifest.json").split_entries("train")
    risks = np.array([inference.log_mean_exp(inference.ensemble_outputs(
        model, dataio.read_embedding_file(data / e.embedding_path), windows)[:, 0])
        for e in train])
    baseline = inference.estimate_baseline_survival(risks, [e.label for e in train])
    eval_times = np.array([inference.median_event_time([e.label for e in train])])
    return lambda bag: inference.predict_survival(model, bag, windows, baseline,
                                                  eval_times).per_chunk_risk


def closed_loop(slidemil, predict, entries, data: Path, start: int, count: int,
                ledger: Ledger, outputs: dict) -> list[float]:
    """Latencies in seconds of requests start..start+count-1 from one caller,
    cycling through entries; the first output per slide is kept in outputs."""
    import numpy as np

    latencies = []
    for i in range(start, start + count):
        entry = entries[i % len(entries)]
        t0 = time.perf_counter()
        try:
            bag = slidemil.dataio.read_embedding_file(data / entry.embedding_path,
                                                      entry.slide_id, entry.patient_id)
            values = predict(bag)
        except slidemil.SlidemilError as exc:
            ledger.record("single-slide request", False, f"{entry.slide_id}: {exc}")
            continue
        latencies.append(time.perf_counter() - t0)
        ledger.record("single-slide request", bool(np.all(np.isfinite(values))),
                      f"{entry.slide_id}: non-finite output")
        outputs.setdefault(entry.slide_id, values)
    return latencies


def check_closed_loop(outputs: dict, expected: dict, ledger: Ledger) -> None:
    import numpy as np
    import reference

    worst = 0.0
    for slide_id, values in expected.items():
        want = np.asarray(values)
        got = outputs.get(slide_id)
        worst = max(worst, float(np.max(np.abs(got - want)))
                    if got is not None and got.shape == want.shape else math.inf)
    ledger.record("closed-loop outputs match predict for every test slide",
                  worst <= reference.TOLERANCE, f"max deviation {worst:.3e}")


def measure_setup(dataio, data: Path) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        bags = dataio.load_bags(dataio.load_manifest(data / "manifest.json"), data)
        times.append(time.perf_counter() - t0)
        del bags
    return times


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(slidemil, workload, data, out, seconds, ledger, detail) -> dict | None:
    """Cycles of one pipeline and workload.requests closed-loop requests until
    they add up to `seconds` and workload.min_cycles have run. Interleaving
    spreads every metric's samples over the whole run, so a few seconds of a
    slower host do not land on one metric alone."""
    import numpy as np

    manifest = slidemil.dataio.load_manifest(data / "manifest.json")
    entries = manifest.split_entries("val") + manifest.split_entries("test")
    reps, predictions, latencies, outputs = [], [], [], {}
    predict = None
    measured = 0.0
    sent = 0
    per_cycle = math.ceil(workload.requests / workload.min_cycles)
    while len(reps) < workload.min_cycles or measured < seconds:
        times = run_pipeline(slidemil.cli, workload, data, out, ledger)
        if times is None:
            return None
        epochs = _read_json(out / "train" / "train_report.json")["stopped_epoch"]
        predictions.append((out / "predict" / "predictions.jsonl").read_bytes())
        reps.append({"pipeline_s": sum(times.values()), "epoch_s": times["train"] / epochs,
                     "predict_slides_per_s": len(predictions[-1].splitlines()) / times["predict"],
                     "commands": times})
        if predict is None:
            predict = make_predictor(slidemil, workload, data, out)
        count = min(per_cycle, workload.requests - sent)
        started = time.perf_counter()
        latencies += closed_loop(slidemil, predict, entries, data, sent, count, ledger, outputs)
        measured += sum(times.values()) + time.perf_counter() - started
        sent += count
    if len(reps) > 1:
        ledger.record("repeated pipelines write identical predictions",
                      all(p == predictions[0] for p in predictions))
    facts, expected = check_outputs(slidemil, workload, data, out, ledger)
    check_closed_loop(outputs, expected, ledger)
    tail = tail_percentile(len(latencies))
    if tail is None:
        ledger.record("ten latency samples beyond the median", False, f"{len(latencies)}")
        return None
    detail.update(facts=facts, pipeline_reps=reps,
                  latency={"samples": len(latencies), "tail_percentile": tail})
    metrics = {name: _metric(statistics.median(r[name] for r in reps), END_TO_END_UNITS[name])
               for name in ("pipeline_s", "epoch_s", "predict_slides_per_s")}
    metrics["slide_latency_ms.p50"] = _metric(1e3 * float(np.percentile(latencies, 50)), "ms")
    metrics["slide_latency_ms.tail"] = _metric(
        1e3 * float(np.percentile(latencies, float(tail))), "ms")
    return metrics


def run_traced(slidemil, workload, data, out, ledger, detail) -> dict | None:
    """Cold untraced pipeline, traced pipeline, then untraced again. The first
    pipeline in a process pays one-off costs (fresh pages for the first large
    arrays), so the overhead compares the traced run with the warm one after it."""
    import tracing

    if run_pipeline(slidemil.cli, workload, data, out / "cold", ledger) is None:
        return None
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pipeline(slidemil.cli, workload, data, out / "traced", ledger, tracer)
    finally:
        not_restored = tracer.uninstall()
    ledger.record("uninstall restores every original callable", not not_restored,
                  ", ".join(not_restored))
    if traced is None:
        return None
    plain = run_pipeline(slidemil.cli, workload, data, out / "untraced", ledger)
    if plain is None:
        return None
    ledger.record("traced and untraced pipelines write identical predictions",
                  len({(out / run / "predict" / "predictions.jsonl").read_bytes()
                       for run in ("cold", "traced", "untraced")}) == 1)
    facts, _ = check_outputs(slidemil, workload, data, out / "traced", ledger)
    tracing.write(tracer, out / "spans.json")
    layers = tracing.layer_metrics(tracer.spans)
    layers["trace.overhead_s"] = sum(traced.values()) - sum(plain.values())
    detail.update(facts=facts, spans=len(tracer.spans), trace_run_id=tracer.run_id,
                  untraced_pipeline_s=sum(plain.values()), traced_pipeline_s=sum(traced.values()),
                  spans_file=str((out / "spans.json").relative_to(env.ROOT)))
    return {name: _metric(layers[name], unit) for name, unit in LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env.limit_blas_threads()
    slidemil = env.import_slidemil()
    import slidemil.cli  # noqa: F401  (not imported by the package itself)
    import corpus

    workload = WORKLOADS[args.workload]
    data, corpus_info = corpus.prepare(workload, args.seed)
    tag = f"{workload.name}-{args.seed}-trace{args.trace}"
    out = env.WORK / "runs" / tag
    ledger = Ledger()
    detail: dict = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                    "seconds": args.seconds, "shape": workload.shape}

    setup = measure_setup(slidemil.dataio, data)
    if args.trace:
        metrics = run_traced(slidemil, workload, data, out, ledger, detail)
    else:
        metrics = run_untraced(slidemil, workload, data, out, args.seconds, ledger, detail)
        if metrics is not None:
            metrics["setup_s"] = _metric(statistics.median(setup), "s")
            metrics["peak_rss_mb"] = _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    correct = metrics is not None and not ledger.failures
    detail.update(setup_s=setup, failures=ledger.failures,
                  ops={"attempted": ledger.attempted, "failed": len(ledger.failures)},
                  environment=env.environment_record(corpus_info))
    results = env.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps({"metrics": metrics, **detail}, indent=1))

    _print_report(detail, metrics or {}, ledger, results / f"{tag}.json")
    print(json.dumps({"correct": correct, "attempted": max(ledger.attempted, 1),
                      "failed": len(ledger.failures), "metrics": metrics or {}}))
    return 0 if correct else 1


def _print_report(detail: dict, metrics: dict, ledger: Ledger, path: Path) -> None:
    print(f"slidemil benchmark: {detail['workload']} ({detail['shape']}), seed {detail['seed']}, "
          f"trace {detail['trace']}")
    latency = detail.get("latency")
    notes = {"setup_s": f"median of {len(detail['setup_s'])} loads",
             "pipeline_s": f"median of {len(detail.get('pipeline_reps', []))} pipelines",
             "epoch_s": f"median of {len(detail.get('pipeline_reps', []))} pipelines"}
    if latency:
        notes["slide_latency_ms.p50"] = f"{latency['samples']} requests, closed loop, 1 caller"
        notes["slide_latency_ms.tail"] = (f"p{latency['tail_percentile']} of "
                                          f"{latency['samples']} requests")
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:14.6g} {m['unit']:9s} {notes.get(name, '')}")
    failed = len(ledger.failures)
    print(f"  {'ops_failed_frac':30s} {failed / max(ledger.attempted, 1):14.6g} {'ratio':9s} "
          f"{failed} of {ledger.attempted} operations")
    for failure in ledger.failures[:20]:
        print(f"  FAILED {failure}")
    facts = detail.get("facts", {})
    if facts:
        print(f"  held-out {facts['held_out']} (information only); M={facts['bag_size']} "
              f"H={facts['hidden_dim']} S={facts['stride']} K={facts['windows']}")
    e = detail["environment"]
    print(f"  numpy {e['numpy']}, {e['blas']['name']} {e['blas']['version']}, "
          f"BLAS threads {e['blas_threads']['OPENBLAS_NUM_THREADS']}, "
          f"{e['usable_cpus']} of {e['cpu_count']} CPUs, python {e['python']}, "
          f"commit {e['git_commit']}, corpus sha256 {e['corpus']['sha256'][:16]}")
    print(f"  report: {path.relative_to(env.ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
