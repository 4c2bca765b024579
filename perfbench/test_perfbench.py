"""Self-tests of the benchmark's own arithmetic; run with
python3 -m pytest perfbench"""

import json

import numpy as np
import pytest

import env
import reference
import run
import tracing
from workloads import WORKLOADS

env.import_slidemil()
from slidemil import inference  # noqa: E402
from slidemil.dataio import SlideBag  # noqa: E402
from slidemil.model import GatedAttentionMIL  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, "50"), (39, "50"), (40, "75"), (99, "75"), (100, "90"),
    (999, "90"), (1000, "99"), (9999, "99"), (10000, "99.9"), (99999, "99.9"),
    (100000, "99.99"),
])
def test_tail_is_highest_ladder_percentile_with_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_every_workload_request_count_has_a_tail():
    for workload in WORKLOADS.values():
        assert run.tail_percentile(workload.requests) is not None


def _span(id_, parent, name, start, end, **counts):
    return tracing.Span(id=id_, parent=parent, name=name, start=start, end=end, counts=counts)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        _span(0, None, "root", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 4.0),
        _span(2, 0, "b", 3.0, 6.0),    # overlaps a: [1, 6] is covered once
        _span(3, 0, "c", 8.0, 12.0),   # runs past the parent: only [8, 10] counts
        _span(4, 1, "a.child", 2.0, 3.0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0})


def test_layer_metrics_split_forward_calls_by_parent_and_count_windows():
    spans = [
        _span(0, None, "cli.train", 0.0, 10.0),
        _span(1, 0, "training.train", 1.0, 9.0),
        _span(2, 1, "model.forward", 1.0, 2.0),
        _span(3, 1, "inference.ensemble_outputs", 5.0, 8.0, windows=2),
        _span(4, 3, "model.forward", 5.0, 6.0, flop=3e9),
        _span(5, 3, "model.forward", 6.0, 7.0, flop=3e9),
        _span(6, None, "cli.predict", 10.0, 14.0),
        _span(7, 6, "inference.predict", 11.0, 13.5),
        _span(8, 7, "inference.ensemble_outputs", 11.0, 13.0, windows=2),
    ]
    m = tracing.layer_metrics(spans)
    assert m["model.forward_train_calls"] == 1
    assert m["model.forward_infer_calls"] == 2
    assert m["model.gflops_infer"] == pytest.approx(3.0)
    assert m["training.validation_frac"] == pytest.approx(3.0 / 8.0)
    assert m["inference.windows_per_slide"] == 2
    assert m["inference.post_s"] == pytest.approx(0.5)
    assert m["inference.baseline_s"] == 0
    assert m["cli.self_s"] == pytest.approx(2.0 + 1.5)


@pytest.mark.parametrize("dims", [(8, 4, 2), (10, 4, 4), (1536, 256, 64), (1000, 256, 64)])
def test_reference_windows_match_chunk_windows(dims):
    assert tuple(reference.windows(*dims)) == inference.chunk_windows(*dims).windows


def _tiny_model(dtype):
    model = GatedAttentionMIL(embed_dim=10, hidden_dim=4, n_outputs=3, dtype=dtype)
    model.init_params(np.random.default_rng(0))
    return model


def test_reference_forward_matches_the_model_forward_on_a_tiny_bag():
    model = _tiny_model(np.float64)
    x = np.random.default_rng(1).standard_normal((7, 10))
    wins = reference.windows(10, 4, 4)
    ref = reference.window_outputs(model.params, x, wins)
    for k, (s, e) in enumerate(wins):
        got = model.forward(x[None], np.ones((1, 7), dtype=bool), np.arange(s, e)).outputs[0]
        np.testing.assert_allclose(ref[k], got, rtol=1e-12, atol=1e-12)


def test_reference_tolerance_holds_for_the_float32_ensemble():
    model = _tiny_model(np.float32)
    bag = SlideBag("s", "p", np.random.default_rng(2).standard_normal((50, 10)))
    windows = inference.chunk_windows(10, 4, 4)
    pred = inference.predict_classification(model, bag, windows)
    record = {"per_chunk_probs": pred.per_chunk_probs.tolist()}
    ref = reference.window_outputs(model.params, bag.embeddings, list(windows.windows))
    assert reference.max_deviation("classification", record, ref) < reference.TOLERANCE


def test_tracer_records_nested_spans_and_uninstall_restores_originals():
    owners = {(m, p): tracing._resolve(m, p) for m, p, _, _ in tracing.PATCH_POINTS}
    before = {key: tracing.current(*owner) for key, owner in owners.items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert inference.ensemble_outputs is not before[("slidemil.inference", "ensemble_outputs")]
        model = _tiny_model(np.float32)
        bag = SlideBag("s", "p", np.random.default_rng(3).standard_normal((6, 10)))
        inference.predict_classification(model, bag, inference.chunk_windows(10, 4, 4))
    finally:
        assert tracer.uninstall() == []
    for key, owner in owners.items():
        assert tracing.current(*owner) is before[key]

    names = {s.id: s.name for s in tracer.spans}
    parents = [(s.name, names.get(s.parent)) for s in tracer.spans]
    assert parents[:2] == [("inference.predict", None),
                           ("inference.ensemble_outputs", "inference.predict")]
    assert parents.count(("model.forward", "inference.ensemble_outputs")) == 3
    assert ("inference.decompose_uncertainty", "inference.predict") in parents
    assert tracer.spans[1].counts == {"windows": 3}
    assert all(s.end >= s.start for s in tracer.spans)


def test_benchmark_json_records_each_workload_shape_reason_and_metric():
    doc = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert len(doc["workloads"]) >= 2
    for entry in doc["workloads"]:
        workload = WORKLOADS[entry["name"]]
        assert entry["why"] == workload.why
        assert workload.shape.split(", ")[0] in entry["why"]
        assert f"D={workload.spec['embed_dim']}" in entry["why"]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
