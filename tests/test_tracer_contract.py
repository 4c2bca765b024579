"""The benchmark tracer's contract with the program.

perfbench/tracing.py wraps each callable in its PATCH_POINTS where the caller
looks the name up. A caller that binds one of those names by value instead
(``from .sampling import sample_patches`` used before the wrapper is set, or
a helper that captures a function) still runs, but its span is never
recorded and the per-layer metric built on it reads zero. This test runs the
whole CLI pipeline of each task under the tracer and checks that every span
the task reaches is recorded, under the parent the metrics expect.
"""

import contextlib
import importlib.util
import json
import sys
import threading
from pathlib import Path

import pytest

from slidemil import model as model_module
from slidemil.cli import main

TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# span names only some tasks reach
TASK_ONLY = {"inference.decompose_uncertainty": "classification",
             "inference.baseline_fit": "survival"}

SPECS = {
    "classification": {"n_bags": 20},
    "regression": {"n_bags": 20, "signal_strength": 1.0},
    "survival": {"n_bags": 24, "censoring_rate": 0.2},
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("slidemil_bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _pipeline(task, root, tracer):
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps({
        "task": task, "patches_per_bag_range": [5, 10], "embed_dim": 8,
        "signal_fraction": 0.5, "signal_strength": 3.0, "seed": 0, **SPECS[task]}))
    data = root / "data"
    manifest = str(data / "manifest.json")
    steps = [
        ("synth", ["--spec", str(spec_path), "--out", str(data)]),
        ("fingerprint", ["--manifest", manifest, "--data-dir", str(data),
                         "--out", str(root / "fp")]),
        ("plan", ["--fingerprint", str(root / "fp" / "fingerprint.json"),
                  "--override", "max_epochs=1", "--out", str(root / "plan")]),
        ("train", ["--manifest", manifest, "--data-dir", str(data),
                   "--config", str(root / "plan" / "config.json"),
                   "--out", str(root / "train")]),
        ("predict", ["--manifest", manifest, "--data-dir", str(data),
                     "--checkpoint", str(root / "train" / "checkpoint.ckpt"),
                     "--out", str(root / "pred")]),
        ("evaluate", ["--manifest", manifest,
                      "--predictions", str(root / "pred" / "predictions.jsonl"),
                      "--out", str(root / "eval")]),
    ]
    for command, argv in steps:
        with tracer.span(f"cli.{command}"):
            assert main([command, *argv]) == 0, command


@pytest.mark.parametrize("task", sorted(SPECS))
def test_every_reached_patch_point_records_a_span(task, tmp_path):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _pipeline(task, tmp_path, tracer)
    finally:
        assert tracer.uninstall() == []

    expected = {name for _, _, name, _ in tracing.PATCH_POINTS
                if TASK_ONLY.get(name, task) == task}
    recorded = {s.name for s in tracer.spans}
    assert expected <= recorded, f"no spans for {sorted(expected - recorded)}"

    names = {s.id: s.name for s in tracer.spans}
    parents = {(s.name, names.get(s.parent)) for s in tracer.spans}
    # training forwards are told apart from the ensemble's by their parent
    assert ("model.forward", "training.train") in parents
    assert ("model.forward", "inference.ensemble_outputs") in parents
    # the validation ensemble is counted as training.validation_s
    assert ("inference.ensemble_outputs", "training.train") in parents
    # predict runs the ensemble only inside predict_*: the Breslow baseline is
    # fitted once, in train, and read from the checkpoint
    assert ("inference.ensemble_outputs", "cli.predict") not in parents
    if task == "survival":
        assert ("inference.baseline_fit", "training.train") in parents


@pytest.mark.parametrize("task", sorted(SPECS))
def test_spans_open_on_the_calling_thread_under_two_workers(task, tmp_path, monkeypatch,
                                                             two_cpus):
    # the tracer keeps one span stack: a traced call on a worker would nest
    # under whatever span the calling thread has open. Workers run only the
    # untraced tile kernels; each bag's ensemble_outputs, and its one
    # model.forward per window, run on the calling thread
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    pools = []
    real_pool = model_module._worker_pool
    monkeypatch.setattr(model_module, "_worker_pool",
                        lambda count: pools.append(count) or real_pool(count))
    tracing = _load_tracing()

    class ThreadTracer(tracing.Tracer):
        def __init__(self):
            super().__init__()
            self.threads = []

        @contextlib.contextmanager
        def span(self, name):
            self.threads.append(threading.get_ident())
            with super().span(name) as span:
                yield span

    tracer = ThreadTracer()
    tracer.install()
    try:
        _pipeline(task, tmp_path, tracer)
    finally:
        assert tracer.uninstall() == []

    assert set(pools) == {2}
    assert tracer.threads == [threading.get_ident()] * len(tracer.spans)
    ensembles = {s.id: s for s in tracer.spans if s.name == "inference.ensemble_outputs"}
    window_forwards = [s for s in tracer.spans
                       if s.name == "model.forward" and s.parent in ensembles]
    assert len(window_forwards) == sum(s.counts["windows"] for s in ensembles.values()) > 0
