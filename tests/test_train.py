"""Training loop: schedule oracles, optimizer semantics, determinism, checkpoints."""

import dataclasses
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from slidemil import inference, training
from slidemil import model as model_module
from slidemil.errors import CorruptionError, FormatError, ValidationError
from slidemil.fingerprint import RunConfig
from slidemil.model import PARAM_NAMES, cox_loss
from slidemil.sampling import sample_patches
from slidemil.synthetic import SyntheticSpec, generate_synthetic_dataset
from slidemil.training import (
    _validation_loss,
    adamw_step,
    init_adam_state,
    load_checkpoint,
    lr_schedule,
    save_checkpoint,
    train,
)

from conftest import make_classification_corpus, make_survival_corpus, write_old_layout


def tiny_config(**kw):
    base = dict(task="classification", bag_size=4, hidden_dim=8, stride=2,
                dropout=0.25, batch_size=4, learning_rate=3e-4, weight_decay=1e-4,
                warmup_epochs=5, max_epochs=6, patience=10, seed=42)
    base.update(kw)
    return RunConfig(**base)


class TestLrSchedule:
    def test_warmup_ramps_linearly(self):
        cfg = tiny_config(max_epochs=100)
        for e in range(5):
            assert lr_schedule(e, cfg) == pytest.approx(3e-4 * (e + 1) / 5, abs=0)

    def test_last_warmup_epoch_reaches_peak(self):
        cfg = tiny_config(max_epochs=100)
        assert lr_schedule(4, cfg) == 3e-4

    def test_first_cosine_epoch_is_peak(self):
        # cos(0) = 1, so the decay starts exactly at the base rate
        cfg = tiny_config(max_epochs=100)
        assert lr_schedule(5, cfg) == 3e-4

    def test_final_epoch_value(self):
        cfg = tiny_config(max_epochs=100)
        expected = 3e-4 * 0.5 * (1.0 + math.cos(math.pi * 94 / 95))
        got = lr_schedule(99, cfg)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(8.199e-8, rel=1e-3)

    def test_midpoint_is_half_peak(self):
        # halfway through the cosine leg: warmup 5, 100 epochs, epoch 52.5
        # is not integral so use a config with an exact midpoint
        cfg = tiny_config(max_epochs=15, warmup_epochs=5)
        assert lr_schedule(10, cfg) == pytest.approx(1.5e-4, rel=1e-12)

    def test_monotone_decay_after_warmup(self):
        cfg = tiny_config(max_epochs=60)
        vals = [lr_schedule(e, cfg) for e in range(60)]
        assert all(b >= a for a, b in zip(vals[:5], vals[1:6]))
        assert all(b < a for a, b in zip(vals[5:], vals[6:]))
        assert vals[-1] > 0

    def test_out_of_range_epoch_rejected(self):
        cfg = tiny_config(max_epochs=10)
        with pytest.raises(ValidationError):
            lr_schedule(10, cfg)
        with pytest.raises(ValidationError):
            lr_schedule(-1, cfg)


class TestAdamW:
    def _fresh(self, rng, shapes=((3, 2), (4,))):
        params = {f"t{i}": rng.standard_normal(s) for i, s in enumerate(shapes)}
        return params, init_adam_state(params)

    def test_zero_gradient_applies_pure_decay(self, rng):
        params, state = self._fresh(rng)
        before = {k: v.copy() for k, v in params.items()}
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        lr, wd = 1e-3, 0.2
        adamw_step(params, grads, state, lr, wd)
        for k in params:
            # adaptive term is exactly zero, so only the decoupled decay acts
            np.testing.assert_array_equal(params[k], before[k] * (1.0 - lr * wd))

    def test_zero_gradient_zero_decay_is_identity(self, rng):
        params, state = self._fresh(rng)
        before = {k: v.copy() for k, v in params.items()}
        adamw_step(params, {k: np.zeros_like(v) for k, v in params.items()},
                   state, 1e-3, 0.0)
        for k in params:
            np.testing.assert_array_equal(params[k], before[k])

    def test_first_step_is_signed_unit_step(self, rng):
        params, state = self._fresh(rng)
        before = {k: v.copy() for k, v in params.items()}
        grads = {k: rng.standard_normal(v.shape) + np.sign(rng.standard_normal(v.shape)) * 0.5
                 for k, v in params.items()}
        lr = 1e-3
        adamw_step(params, grads, state, lr, 0.0)
        for k in params:
            # bias correction cancels at t=1: step = lr * g / (|g| + eps)
            np.testing.assert_allclose(before[k] - params[k], lr * np.sign(grads[k]),
                                       rtol=1e-5)

    def test_two_steps_match_reference_recurrence(self):
        # independent scalar re-implementation of the published recurrence
        p = np.array([0.7])
        params = {"w": p}
        state = init_adam_state(params)
        gs = [np.array([0.3]), np.array([-0.8])]
        lr, wd, b1, b2, eps = 0.01, 0.1, 0.9, 0.999, 1e-8
        ref, m, v = 0.7, 0.0, 0.0
        for t, g in enumerate(gs, start=1):
            m = b1 * m + (1 - b1) * g[0]
            v = b2 * v + (1 - b2) * g[0] ** 2
            mh = m / (1 - b1 ** t)
            vh = v / (1 - b2 ** t)
            ref = ref * (1 - lr * wd) - lr * mh / (math.sqrt(vh) + eps)
            adamw_step(params, {"w": g}, state, lr, wd)
        assert params["w"][0] == pytest.approx(ref, rel=1e-12)
        assert state["step"] == 2

    def test_decay_is_decoupled_from_moments(self, rng):
        # with wd > 0 the moments must match the wd = 0 run exactly
        params_a, state_a = self._fresh(rng, shapes=((4,),))
        params_b = {k: v.copy() for k, v in params_a.items()}
        state_b = init_adam_state(params_b)
        g = {"t0": np.full(4, 0.5)}
        adamw_step(params_a, g, state_a, 1e-3, 0.0)
        adamw_step(params_b, g, state_b, 1e-3, 0.5)
        np.testing.assert_array_equal(state_a["m"]["t0"], state_b["m"]["t0"])
        np.testing.assert_array_equal(state_a["v"]["t0"], state_b["v"]["t0"])

    def test_nonfinite_gradient_names_tensor(self, rng):
        params, state = self._fresh(rng)
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        grads["t1"][0] = np.inf
        with pytest.raises(ValidationError, match="t1"):
            adamw_step(params, grads, state, 1e-3, 0.0)


def _signal_corpus(seed=0, n_bags=24):
    spec = SyntheticSpec(task="classification", n_bags=n_bags,
                         patches_per_bag_range=(5, 12), embed_dim=8,
                         signal_fraction=0.5, signal_strength=3.0, seed=seed)
    manifest, bags, _ = generate_synthetic_dataset(spec)
    return manifest, bags


class TestTrain:
    def test_validation_loss_improves_on_learnable_corpus(self):
        manifest, bags = _signal_corpus()
        cfg = tiny_config(learning_rate=3e-3, max_epochs=12, batch_size=8)
        _, report = train(cfg, manifest, bags)
        assert report.best_val_loss < report.epochs[0]["val_loss"]

    def test_recorded_lrs_follow_schedule_exactly(self):
        manifest, bags = _signal_corpus()
        cfg = tiny_config(max_epochs=7)
        _, report = train(cfg, manifest, bags)
        for row in report.epochs:
            assert row["lr"] == lr_schedule(row["epoch"], cfg)

    def test_same_seed_is_bitwise_identical(self, tmp_path):
        manifest, bags = _signal_corpus()
        cfg = tiny_config(max_epochs=4)
        ck1, rep1 = train(cfg, manifest, bags, checkpoint_path=tmp_path / "a.ckpt")
        ck2, rep2 = train(cfg, manifest, bags, checkpoint_path=tmp_path / "b.ckpt")
        assert dataclasses.asdict(rep1) == dataclasses.asdict(rep2)
        for name in PARAM_NAMES:
            assert np.array_equal(ck1.params[name], ck2.params[name])
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_different_seed_differs(self):
        manifest, bags = _signal_corpus()
        ck1, _ = train(tiny_config(max_epochs=2), manifest, bags)
        ck2, _ = train(tiny_config(max_epochs=2, seed=7), manifest, bags)
        assert not np.array_equal(ck1.params["head_weight"], ck2.params["head_weight"])

    def test_patience_stops_after_plateau(self):
        # lr = 0 freezes the parameters, so every epoch repeats the epoch-0
        # validation loss; ties never count as improvement
        manifest, bags = _signal_corpus()
        cfg = tiny_config(learning_rate=0.0, max_epochs=40, patience=10)
        _, report = train(cfg, manifest, bags)
        assert report.stopped_epoch == 11
        assert report.best_epoch == 0
        assert report.saved_epoch == 10  # the checkpoint holds the last epoch run
        vals = {row["val_loss"] for row in report.epochs}
        assert len(vals) == 1

    def test_runs_to_max_epochs_without_plateau(self):
        manifest, bags = _signal_corpus()
        cfg = tiny_config(max_epochs=3, patience=10)
        _, report = train(cfg, manifest, bags)
        assert report.stopped_epoch == 3
        assert len(report.epochs) == 3
        assert report.saved_epoch == 2

    def test_task_mismatch_rejected(self, rng):
        manifest, bags = make_survival_corpus(rng)
        with pytest.raises(ValidationError):
            train(tiny_config(), manifest, bags)

    def test_missing_bag_rejected(self, rng):
        manifest, bags = make_classification_corpus(rng)
        del bags["s000"]
        with pytest.raises(ValidationError):
            train(tiny_config(), manifest, bags)

    def test_inconsistent_embed_dim_rejected(self, rng):
        manifest, bags = make_classification_corpus(rng)
        bad = make_classification_corpus(rng, embed_dim=5)[1]["s001"]
        bags["s001"] = bad
        with pytest.raises(ValidationError):
            train(tiny_config(), manifest, bags)

    def test_empty_val_split_rejected(self, rng):
        manifest, bags = make_classification_corpus(rng)
        import slidemil.dataio as dataio
        pruned = dataio.DatasetManifest(
            entries=[e for e in manifest.entries if e.split != "val"],
            task="classification")
        with pytest.raises(ValidationError):
            train(tiny_config(), pruned, bags)

    def test_survival_training_runs(self, rng):
        manifest, bags = make_survival_corpus(rng)
        cfg = tiny_config(task="survival", learning_rate=1e-4, max_epochs=3)
        ckpt, report = train(cfg, manifest, bags)
        assert ckpt.params["head_weight"].shape == (1, 8)
        assert all(math.isfinite(r["train_loss"]) for r in report.epochs)

    def test_full_bag_mode_rejected_for_survival(self):
        # every batch is one slide, and a one-slide Cox batch has zero
        # gradient: the run would end at its initial parameters
        with pytest.raises(ValidationError, match="full_bag_batch1"):
            tiny_config(task="survival", training_mode="full_bag_batch1", learning_rate=1e-4)

    def test_full_bag_mode_classification(self, rng, monkeypatch):
        steps = []

        def counted(*args, **kwargs):
            steps.append(1)
            return adamw_step(*args, **kwargs)

        monkeypatch.setattr(training, "adamw_step", counted)
        manifest, bags = make_classification_corpus(rng)
        cfg = tiny_config(training_mode="full_bag_batch1", max_epochs=2)
        _, report = train(cfg, manifest, bags)
        assert report.stopped_epoch == 2
        assert len(steps) == 2 * 8  # one step per train slide per epoch

    def test_padded_batches_are_reproducible_and_padding_invariant(self, tmp_path):
        # bags of 3-30 patches around M=16 mix subsampled and padded slides in
        # each reused batch buffer row; two runs must write the same bytes
        manifest, bags = make_classification_corpus(np.random.default_rng(3), n_bags=28,
                                                    n_patches=(3, 30))
        paths = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
        for path in paths:
            train(tiny_config(bag_size=16, max_epochs=3), manifest, bags, checkpoint_path=path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        # with every bag shorter than M no patch subset is drawn, so a larger
        # M only adds padded rows, and the parameters must not move by a bit
        manifest, bags = make_classification_corpus(np.random.default_rng(3), n_bags=28,
                                                    n_patches=(3, 15))
        short, long = (train(tiny_config(bag_size=m, max_epochs=3), manifest, bags)[0]
                       for m in (16, 23))
        for name in PARAM_NAMES:
            assert np.array_equal(short.params[name], long.params[name]), name

    def test_bag_size_beyond_every_bag_stops_at_the_largest(self, tmp_path, monkeypatch):
        # a bag_size of 10**12 would ask for a 10**12-row batch; the batch and
        # every draw stop at the largest train bag, so the run is that of
        # bag_size = the largest train bag, to the byte
        manifest, bags = make_classification_corpus(np.random.default_rng(3), n_bags=28,
                                                    n_patches=(3, 15))
        largest = max(bags[e.slide_id].n_patches for e in manifest.split_entries("train"))
        rows = []

        def spy(bag, bag_size, rng, out):
            rows.append((bag_size, out.shape[0]))
            return sample_patches(bag, bag_size, rng, out=out)

        monkeypatch.setattr(training, "sample_patches", spy)
        huge, _ = train(tiny_config(bag_size=10**12, max_epochs=3), manifest, bags)
        assert set(rows) == {(largest, largest)}
        exact = tiny_config(bag_size=largest, max_epochs=3)
        train(exact, manifest, bags, checkpoint_path=tmp_path / "exact.ckpt")
        save_checkpoint(training.Checkpoint(params=huge.params, config=exact),
                        tmp_path / "huge.ckpt")
        assert (tmp_path / "huge.ckpt").read_bytes() == (tmp_path / "exact.ckpt").read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_is_one_batch_and_one_step(self, monkeypatch, workers):
        # per row, a batch holds D floats and a step's state H floats and H
        # bits: the sigmoid branch and the packed dropout mask, as backward
        # recomputes the tanh branch. On top of one batch the step peaked at
        # 3.30 x act on one worker and 3.75-3.86 on two, where several
        # slides' temporaries and gradient terms are in flight: the state,
        # and parameters, Adam state, run bookkeeping, forward outputs,
        # gradients and per-slide temporaries, which do not shrink with it.
        # Keeping the tanh branch (+0.97 x act) or the last step's state
        # (+1 x act) would exceed either bound; the layout that kept the tanh
        # branch and a bool mask read 4.42 and 4.92-4.97
        monkeypatch.setattr(model_module, "ensemble_workers", lambda: workers)
        manifest, bags = make_classification_corpus(np.random.default_rng(4), n_bags=36,
                                                    embed_dim=128, n_patches=(80, 120))
        cfg = tiny_config(bag_size=64, batch_size=16, hidden_dim=32, stride=8, max_epochs=2)
        batch_bytes = cfg.batch_size * cfg.bag_size * 128 * 4
        act_bytes = cfg.batch_size * cfg.bag_size * (4 * cfg.hidden_dim + cfg.hidden_dim / 8)
        train(cfg, manifest, bags)  # the first run pays one-off imports
        tracemalloc.start()
        try:
            _, report = train(cfg, manifest, bags)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.stopped_epoch == 2
        assert peak < batch_bytes + {1: 3.8, 2: 4.4}[workers] * act_bytes, (
            f"train peaked at one batch plus {(peak - batch_bytes) / act_bytes:.2f} "
            f"steps' state")

    def test_regression_training_runs(self):
        spec = SyntheticSpec(task="regression", n_bags=20,
                             patches_per_bag_range=(5, 10), embed_dim=8,
                             signal_strength=1.0, seed=3)
        manifest, bags, _ = generate_synthetic_dataset(spec)
        cfg = tiny_config(task="regression", max_epochs=3)
        _, report = train(cfg, manifest, bags)
        assert all(math.isfinite(r["val_loss"]) for r in report.epochs)


class TestValidationLoss:
    def test_survival_risks_800_apart_stay_finite(self, monkeypatch):
        # per-window risks of the two val slides sit 800 apart; one shift for
        # the whole split would underflow the lower slide's log-mean-exp
        manifest, bags = make_survival_corpus(np.random.default_rng(0))
        val = manifest.split_entries("val")
        assert sorted(e.label.event for e in val) == [0, 1]
        per_window = {val[0].slide_id: np.array([[0.0], [1.0], [2.0]]),
                      val[1].slide_id: np.array([[-800.0], [-799.0], [-798.0]])}
        # the pass hands each bag's ensemble_outputs call a callable that
        # waits for its tile summaries; the stub replaces the whole ensemble
        monkeypatch.setattr(inference, "ensemble_outputs",
                            lambda model, bag, windows, tiles: per_window[bag.slide_id])
        model = model_module.GatedAttentionMIL(8, 4, 1)
        model.init_params(np.random.default_rng(0))
        windows = inference.chunk_windows(8, 4, 2)
        assert windows.n_chunks == 3
        loss = _validation_loss(model, "survival", val, bags, windows)
        lme = math.log(np.mean(np.exp([0.0, 1.0, 2.0])))
        times = np.array([e.label.time for e in val])
        events = np.array([e.label.event for e in val])
        expected = cox_loss(np.array([lme, lme - 800.0]), times, events)[0]
        assert math.isfinite(loss)
        assert loss == pytest.approx(expected, rel=1e-12)


def _without(key):
    return lambda header: {k: v for k, v in header.items() if k != key}


def _setting(key, value):
    return lambda header: {**header, key: value}


def _tensor_meta(edit):
    """Header edit that replaces the first tensor's entry with edit(entry)."""
    def apply(header):
        name = sorted(header["tensors"])[0]
        return {**header, "tensors": {**header["tensors"], name: edit(header["tensors"][name])}}
    return apply


def _baseline_column(name, edit):
    """Header edit that replaces the baseline's list name with edit(list)."""
    return lambda header: {**header, "baseline": {**header["baseline"],
                                                  name: edit(header["baseline"][name])}}


def _header_len(path) -> int:
    return struct.unpack("<Q", path.read_bytes()[8:16])[0]


def _header(path) -> dict:
    return json.loads(path.read_bytes()[16:16 + _header_len(path)])


class TestCheckpointIO:
    def _trained(self, tmp_path):
        manifest, bags = _signal_corpus(n_bags=12)
        cfg = tiny_config(max_epochs=2)
        path = tmp_path / "model.ckpt"
        ckpt, _ = train(cfg, manifest, bags, checkpoint_path=path)
        return ckpt, path

    def test_roundtrip_restores_everything(self, tmp_path):
        ckpt, path = self._trained(tmp_path)
        loaded = load_checkpoint(path)
        assert loaded.config == ckpt.config
        assert loaded.params.keys() == set(PARAM_NAMES)
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(loaded.params[name],
                                          np.asarray(ckpt.params[name], dtype=np.float32))

    def test_file_holds_the_parameters_and_the_config(self, tmp_path):
        ckpt, path = self._trained(tmp_path)
        header = _header(path)
        assert header.keys() == {"config", "format_version", "tensors"}
        assert header["config"] == ckpt.config.to_dict()
        assert sorted(header["tensors"]) == sorted(PARAM_NAMES)
        n_floats = sum(ckpt.params[name].size for name in PARAM_NAMES)
        assert path.stat().st_size == 16 + _header_len(path) + 4 * n_floats

    def test_old_layout_moments_are_still_checked(self, tmp_path):
        ckpt, _ = self._trained(tmp_path)
        old = tmp_path / "old.ckpt"
        write_old_layout(ckpt, old, moment_fill=np.nan)
        with pytest.raises(CorruptionError, match="adam_"):
            load_checkpoint(old)

    def test_save_load_save_is_bitwise_stable(self, tmp_path):
        _, path = self._trained(tmp_path)
        loaded = load_checkpoint(path)
        again = tmp_path / "again.ckpt"
        save_checkpoint(loaded, again)
        assert path.read_bytes() == again.read_bytes()

    def test_bad_magic_is_format_error(self, tmp_path):
        _, path = self._trained(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:8] = b"XXXXXXXX"
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(bad)

    def test_truncated_payload_is_corruption(self, tmp_path):
        _, path = self._trained(tmp_path)
        raw = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(raw[:-5])
        with pytest.raises(CorruptionError):
            load_checkpoint(cut)

    def test_truncated_header_is_corruption(self, tmp_path):
        _, path = self._trained(tmp_path)
        raw = path.read_bytes()
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(raw[:20])
        with pytest.raises(CorruptionError):
            load_checkpoint(cut)

    def test_garbage_header_is_format_error(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        junk = b"not json {{"
        bad.write_bytes(b"NNMILCK1" + struct.pack("<Q", len(junk)) + junk)
        with pytest.raises(FormatError):
            load_checkpoint(bad)

    def _with_header(self, path, tmp_path, edit):
        """Copy of the checkpoint at path whose JSON header is edit(header)."""
        raw = path.read_bytes()
        (n,) = struct.unpack("<Q", raw[8:16])
        text = json.dumps(edit(json.loads(raw[16:16 + n])), sort_keys=True).encode("utf-8")
        out = tmp_path / "edited.ckpt"
        out.write_bytes(raw[:8] + struct.pack("<Q", len(text)) + text + raw[16 + n:])
        return out

    def _with_header_config(self, path, tmp_path, edit):
        """Copy of the checkpoint at path whose header config is edit(config)."""
        return self._with_header(path, tmp_path,
                                 lambda header: {**header, "config": edit(header["config"])})

    @pytest.mark.parametrize("edit", [
        _without("tensors"), _without("config"), _setting("tensors", ["attention_v"]),
        _setting("config", "nnmil"), lambda header: [header],
        _tensor_meta(lambda meta: {"offset": meta["offset"]}),
        _tensor_meta(lambda meta: {"shape": meta["shape"]}),
        _tensor_meta(lambda meta: {**meta, "shape": [-1, 2]}),
        _tensor_meta(lambda meta: {**meta, "shape": [2.0]}),
        _tensor_meta(lambda meta: {**meta, "shape": "2"}),
        _tensor_meta(lambda meta: {**meta, "offset": -4}),
        _tensor_meta(lambda meta: {**meta, "offset": "0"}),
        _tensor_meta(lambda meta: 3),
    ], ids=["no-tensors", "no-config", "tensors-array", "config-string", "header-array",
            "tensor-no-shape", "tensor-no-offset", "shape-negative", "shape-float",
            "shape-string", "offset-negative", "offset-string", "tensor-not-object"])
    def test_malformed_header_is_format_error(self, tmp_path, edit):
        _, path = self._trained(tmp_path)
        with pytest.raises(FormatError):
            load_checkpoint(self._with_header(path, tmp_path, edit))

    def test_header_config_not_an_object_is_format_error(self, tmp_path):
        _, path = self._trained(tmp_path)
        with pytest.raises(FormatError):
            load_checkpoint(self._with_header_config(path, tmp_path, lambda cfg: [cfg]))

    @pytest.mark.parametrize("edit", [
        lambda tensors: {("head_bias_renamed" if k == "head_bias" else k): m
                         for k, m in tensors.items()},
        lambda tensors: {**tensors, "attention_w": {**tensors["attention_w"],
                                                    "shape": [1, *tensors["attention_w"]["shape"]]}},
        lambda tensors: {**tensors, "head_weight": {
            **tensors["head_weight"], "shape": tensors["head_weight"]["shape"][::-1]}},
    ], ids=["renamed", "vector-as-matrix", "transposed-head"])
    def test_tensors_that_make_no_model_are_format_error(self, tmp_path, edit):
        # each edit keeps the payload tiled, so only the tensor set is wrong
        _, path = self._trained(tmp_path)
        edited = self._with_header(path, tmp_path,
                                   lambda header: {**header, "tensors": edit(header["tensors"])})
        with pytest.raises(FormatError) as info:
            load_checkpoint(edited)
        assert type(info.value) is FormatError

    def _trained_survival(self, tmp_path):
        manifest, bags = make_survival_corpus(np.random.default_rng(0), n_bags=16)
        cfg = tiny_config(task="survival", learning_rate=1e-4, max_epochs=2)
        path = tmp_path / "survival.ckpt"
        ckpt, _ = train(cfg, manifest, bags, checkpoint_path=path)
        return ckpt, path, manifest, bags

    def test_survival_baseline_is_fitted_once_and_stored_exactly(self, tmp_path):
        ckpt, path, manifest, bags = self._trained_survival(tmp_path)
        loaded = load_checkpoint(path)
        # a refit from the loaded parameters gives the stored table, bit for bit
        model = training.build_model(loaded)
        windows = inference.inference_windows(loaded.config, model.embed_dim)
        entries = manifest.split_entries("train")
        refit = inference.estimate_baseline_survival(
            inference.slide_outputs(model, "survival", bags, entries, windows)[:, 0],
            [e.label for e in entries])
        for f in dataclasses.fields(loaded.baseline):
            stored = getattr(loaded.baseline, f.name)
            assert np.array_equal(stored, getattr(ckpt.baseline, f.name)), f.name
            assert np.array_equal(stored, getattr(refit, f.name)), f.name
            assert stored.dtype == getattr(ckpt.baseline, f.name).dtype, f.name
        again = tmp_path / "again.ckpt"
        save_checkpoint(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        assert _header(path).keys() == {"baseline", "config", "format_version", "tensors"}

    def test_baseline_belongs_to_survival_checkpoints_only(self, tmp_path):
        ckpt, _, _, _ = self._trained_survival(tmp_path)
        with pytest.raises(ValidationError, match="lacks"):
            training.Checkpoint(params=ckpt.params, config=ckpt.config)
        cls_ckpt, _ = self._trained(tmp_path)
        with pytest.raises(ValidationError, match="has one"):
            training.Checkpoint(params=cls_ckpt.params, config=cls_ckpt.config,
                                baseline=ckpt.baseline)

    def test_classification_header_with_a_baseline_is_format_error(self, tmp_path):
        _, survival_path, _, _ = self._trained_survival(tmp_path)
        _, path = self._trained(tmp_path)
        table = _header(survival_path)["baseline"]
        with pytest.raises(FormatError, match="has one"):
            load_checkpoint(self._with_header(path, tmp_path, _setting("baseline", table)))

    @pytest.mark.parametrize("edit", [
        _without("baseline"),
        _setting("baseline", []),
        lambda h: {**h, "baseline": {k: v for k, v in h["baseline"].items() if k != "deaths"}},
        lambda h: {**h, "baseline": {**h["baseline"], "extra": [1.0]}},
        _baseline_column("deaths", lambda col: col[:-1]),
        _baseline_column("log_at_risk", lambda col: []),
        _baseline_column("log_at_risk", lambda col: "0.5"),
        _baseline_column("log_cum_hazard", lambda col: [math.nan, *col[1:]]),
        _baseline_column("event_times", lambda col: [math.inf, *col[1:]]),
        _baseline_column("log_at_risk", lambda col: [True, *col[1:]]),
        _baseline_column("deaths", lambda col: [0, *col[1:]]),
        _baseline_column("deaths", lambda col: [1.0, *col[1:]]),
        _baseline_column("deaths", lambda col: [10**400, *col[1:]]),
        _baseline_column("event_times", lambda col: col[::-1]),
    ], ids=["missing", "array", "missing-field", "extra-field", "unequal-lengths", "empty",
            "string", "nan", "infinity", "bool", "zero-deaths", "float-deaths",
            "deaths-10**400", "descending-times"])
    def test_malformed_survival_baseline_is_format_error(self, tmp_path, edit):
        _, path, _, _ = self._trained_survival(tmp_path)
        with pytest.raises(FormatError) as info:
            load_checkpoint(self._with_header(path, tmp_path, edit))
        assert type(info.value) is FormatError

    def test_tiny_file_is_format_error(self, tmp_path):
        bad = tmp_path / "tiny.ckpt"
        bad.write_bytes(b"NNMIL")
        with pytest.raises(FormatError):
            load_checkpoint(bad)
