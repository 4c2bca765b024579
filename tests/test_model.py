"""Gated-attention aggregator: init, forward semantics, losses, analytic gradients.

The gradient tests run the model in 64-bit mode and compare every parameter
entry against central finite differences, which is the ground-truth oracle
for the hand-derived backward pass.
"""

import math
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slidemil import model as model_module
from slidemil.errors import ValidationError
from slidemil.inference import chunk_windows
from slidemil.model import (
    MAX_BLOCKS_PER_WINDOW,
    PARAM_NAMES,
    ROW_TILE,
    GatedAttentionMIL,
    _perturbed_losses,
    cox_loss,
    cross_entropy_loss,
    ensemble_workers,
    mse_loss,
)
from slidemil.training import grad_check

from conftest import assert_window_close


def _model(d=6, h=4, c=2, dropout=0.0, dtype=np.float64, seed=0):
    m = GatedAttentionMIL(d, h, c, dropout=dropout, dtype=dtype)
    m.init_params(np.random.default_rng(seed))
    return m


def _batch(rng, n=3, m=5, d=6, n_valid=None):
    x = rng.standard_normal((n, m, d))
    mask = np.ones((n, m), dtype=bool)
    if n_valid is not None:
        for i, v in enumerate(n_valid):
            mask[i, v:] = False
            x[i, v:] = 0.0
    return x, mask


class TestInit:
    def test_biases_exactly_zero(self):
        m = _model()
        assert (m.params["head_bias"] == 0).all()

    def test_same_seed_identical(self):
        a, b = _model(seed=3), _model(seed=3)
        for name in PARAM_NAMES:
            assert np.array_equal(a.params[name], b.params[name])

    def test_bounds_per_tensor(self):
        d, h, c = 20, 12, 4
        m = _model(d, h, c, seed=1)
        glorot_vu = math.sqrt(6.0 / (d + h))
        glorot_head = math.sqrt(6.0 / (d + c))
        assert np.abs(m.params["attention_v"]).max() <= glorot_vu
        assert np.abs(m.params["attention_u"]).max() <= glorot_vu
        assert np.abs(m.params["head_weight"]).max() <= glorot_head
        assert np.abs(m.params["attention_w"]).max() <= 1.0 / math.sqrt(h)

    def test_scoring_vector_fills_its_range(self):
        # the w bound is 1/sqrt(H), distinct from the matrix bound
        h = 16
        m = _model(8, h, 2, seed=2)
        w = m.params["attention_w"]
        assert np.abs(w).max() > 0.5 / math.sqrt(h), "draws should span the interval"

    def test_shapes(self):
        m = _model(7, 3, 5)
        assert m.params["attention_v"].shape == (3, 7)
        assert m.params["attention_u"].shape == (3, 7)
        assert m.params["attention_w"].shape == (3,)
        assert m.params["head_weight"].shape == (5, 7)
        assert m.params["head_bias"].shape == (5,)


class TestForward:
    def test_attention_is_simplex_per_slide(self, rng):
        m = _model()
        x, mask = _batch(rng, n_valid=[5, 3, 2])
        res = m.forward(x, mask, np.arange(6))
        for i in range(3):
            np.testing.assert_allclose(res.attention[i, mask[i]].sum(), 1.0, atol=1e-12)
            assert (res.attention[i, ~mask[i]] == 0).all()
            assert (res.attention[i] >= 0).all()

    def test_zero_scoring_vector_gives_uniform_attention(self, rng):
        m = _model()
        m.params["attention_w"][:] = 0.0
        x, mask = _batch(rng, n_valid=[4, 5, 2])
        res = m.forward(x, mask, np.arange(6))
        for i, v in enumerate([4, 5, 2]):
            np.testing.assert_allclose(res.attention[i, :v], 1.0 / v, atol=1e-12)
            mean = x[i, :v].mean(axis=0)
            expected = m.params["head_weight"] @ mean + m.params["head_bias"]
            np.testing.assert_allclose(res.outputs[i], expected, atol=1e-9)

    def test_single_patch_bag_identity(self, rng):
        m = _model()
        x, mask = _batch(rng, n=1, m=1)
        res = m.forward(x, mask, np.arange(6))
        assert res.attention[0, 0] == 1.0
        expected = m.params["head_weight"] @ x[0, 0] + m.params["head_bias"]
        np.testing.assert_allclose(res.outputs[0], expected, atol=1e-12)

    def test_pooled_vector_is_convex_combination(self, rng):
        m = _model()
        x, mask = _batch(rng, n_valid=[5, 4, 3])
        res = m.forward(x, mask, np.arange(6))
        pooled, _ = res.cache[0]
        for i, v in enumerate([5, 4, 3]):
            lo = x[i, :v].min(axis=0) - 1e-12
            hi = x[i, :v].max(axis=0) + 1e-12
            assert ((pooled[i] >= lo) & (pooled[i] <= hi)).all()

    def test_padding_invariance_is_exact(self, rng):
        m = _model(dtype=np.float32)
        x, mask = _batch(rng, n=2, m=4)
        base = m.forward(x.astype(np.float32), mask, np.arange(6))
        # append 3 zero rows with false mask to every slide
        x_pad = np.concatenate([x, np.zeros((2, 3, 6))], axis=1).astype(np.float32)
        mask_pad = np.concatenate([mask, np.zeros((2, 3), dtype=bool)], axis=1)
        padded = m.forward(x_pad, mask_pad, np.arange(6))
        assert np.array_equal(base.outputs, padded.outputs), "bit-identical required"
        assert np.array_equal(base.attention, padded.attention[:, :4])
        assert (padded.attention[:, 4:] == 0).all()

    def test_padding_invariance_under_dropout(self, rng):
        # dropout draws are shaped by valid patches only, so padding cannot
        # perturb the masks when the rng stream is aligned
        m = _model(dropout=0.5, dtype=np.float32)
        x, mask = _batch(rng, n=2, m=4)
        r1 = m.forward(x.astype(np.float32), mask, np.arange(6), rng=np.random.default_rng(11))
        x_pad = np.concatenate([x, np.zeros((2, 2, 6))], axis=1).astype(np.float32)
        mask_pad = np.concatenate([mask, np.zeros((2, 2), dtype=bool)], axis=1)
        r2 = m.forward(x_pad, mask_pad, np.arange(6), rng=np.random.default_rng(11))
        assert np.array_equal(r1.outputs, r2.outputs)

    def test_permutation_invariance(self, rng):
        m = _model()
        x, mask = _batch(rng, n=1, m=7)
        res = m.forward(x, mask, np.arange(6))
        perm = rng.permutation(7)
        res_p = m.forward(x[:, perm], mask[:, perm], np.arange(6))
        np.testing.assert_allclose(res_p.outputs, res.outputs, rtol=1e-6)
        np.testing.assert_allclose(res_p.attention[0], res.attention[0, perm], rtol=1e-6)

    def test_feature_subselection_uses_matching_columns(self, rng):
        # zeroing the unused columns of V and U must not change the outputs
        m = _model(d=8, h=3, c=2)
        x, mask = _batch(rng, n=2, m=4, d=8)
        feat = np.array([1, 4, 6])
        base = m.forward(x, mask, feat)
        unused = np.setdiff1d(np.arange(8), feat)
        m.params["attention_v"][:, unused] = 0.0
        m.params["attention_u"][:, unused] = 0.0
        same = m.forward(x, mask, feat)
        np.testing.assert_array_equal(base.outputs, same.outputs)

    def test_pooling_spans_full_dim_despite_subselection(self, rng):
        # attention looks at a feature subset, but h aggregates all D dims
        m = _model(d=8, h=3, c=2)
        x, mask = _batch(rng, n=1, m=4, d=8)
        res = m.forward(x, mask, np.array([0, 1, 2]))
        pooled, _ = res.cache[0]
        expected = res.attention[0, :4] @ x[0]
        np.testing.assert_allclose(pooled[0], expected, atol=1e-12)

    def test_dropout_off_at_eval(self, rng):
        m = _model(dropout=0.9)
        x, mask = _batch(rng)
        a = m.forward(x, mask, np.arange(6))
        b = m.forward(x, mask, np.arange(6))
        np.testing.assert_array_equal(a.outputs, b.outputs)

    def test_dropout_applies_exactly_when_rng_is_given(self, rng):
        x, mask = _batch(rng)
        m = _model(dropout=0.5)
        eval_out = m.forward(x, mask, np.arange(6)).outputs
        assert not np.array_equal(
            m.forward(x, mask, np.arange(6), rng=np.random.default_rng(0)).outputs, eval_out)
        # with dropout 0 an rng changes nothing and is not drawn from
        m = _model(dropout=0.0)
        draw_rng = np.random.default_rng(0)
        state = draw_rng.bit_generator.state
        assert np.array_equal(m.forward(x, mask, np.arange(6), rng=draw_rng).outputs,
                              m.forward(x, mask, np.arange(6)).outputs)
        assert draw_rng.bit_generator.state == state

    def test_dropout_is_unbiased(self, rng):
        # inverted scaling keeps the expected pre-attention activation equal
        # to the eval-mode activation
        m = _model(dropout=0.25)
        x, mask = _batch(rng, n=1, m=1)
        eval_out = m.forward(x, mask, np.arange(6)).outputs
        draw_rng = np.random.default_rng(0)
        draws = [m.forward(x, mask, np.arange(6), rng=draw_rng).outputs
                 for _ in range(4000)]
        np.testing.assert_allclose(np.mean(draws, axis=0), eval_out, atol=0.05)

    def test_rejects_bad_shapes(self, rng):
        m = _model()
        x, mask = _batch(rng)
        with pytest.raises(ValidationError):
            m.forward(x[..., :4], mask, np.arange(6))
        with pytest.raises(ValidationError):
            m.forward(x, mask[:, :3], np.arange(6))

    def test_rejects_all_padded_slide(self, rng):
        m = _model()
        x, mask = _batch(rng)
        mask[1] = False
        with pytest.raises(ValidationError):
            m.forward(x, mask, np.arange(6))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("call", [
        lambda m, x, mask: m.forward(x, mask, np.arange(6)),
        lambda m, x, mask: m.forward(x, mask, np.arange(6), rng=np.random.default_rng(1)),
        lambda m, x, mask: m.forward_windows(x[0], chunk_windows(6, 4, 2)),
    ], ids=["eval", "train", "windows"])
    def test_non_finite_attention_w_raises(self, rng, call, dtype):
        # the products ignore the FPU's invalid flag and check their values
        # instead; a window tile checks its logits before it pools them
        m = _model(dropout=0.25, dtype=dtype)
        m.params["attention_w"][1] = np.nan
        x, mask = _batch(rng)
        with pytest.raises(ValidationError, match="non-finite values in the attention logits"):
            call(m, x.astype(dtype), mask)

    def test_float32_default_dtype(self, rng):
        m = GatedAttentionMIL(6, 4, 2)
        m.init_params(np.random.default_rng(0))
        x, mask = _batch(rng)
        res = m.forward(x, mask, np.arange(6))
        assert res.outputs.dtype == np.float32
        assert m.params["attention_v"].dtype == np.float32


@st.composite
def _window_cases(draw):
    """(model, bag (N, D), window grid): N down to 1, H <= D, any stride S, so
    the final window is clamped whenever (D - H) % S != 0."""
    d = draw(st.integers(1, 40))
    h = draw(st.integers(1, d))
    stride = draw(st.integers(1, d))
    n = draw(st.integers(1, 30))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = GatedAttentionMIL(d, h, draw(st.integers(1, 3)), dtype=dtype)
    m.init_params(rng)
    x = (rng.standard_normal((n, d)) * draw(st.sampled_from([0.1, 1.0, 10.0]))).astype(dtype)
    return m, x, chunk_windows(d, h, stride)


def _per_window_forward(m, x, windows):
    """(outputs (K, C), attention (K, N)) of one forward() call per window of the grid."""
    mask = np.ones((1, x.shape[0]), dtype=bool)
    refs = [m.forward(x[None], mask, np.arange(start, end)) for start, end in windows.windows]
    return (np.concatenate([r.outputs for r in refs]),
            np.concatenate([r.attention for r in refs]))


class TestForwardWindows:
    @settings(max_examples=60, deadline=None)
    @given(_window_cases())
    def test_matches_per_window_forward(self, case):
        m, x, windows = case
        outputs, attention = m.forward_windows(x, windows)
        ref_outputs, ref_attention = _per_window_forward(m, x, windows)
        assert outputs.shape == ref_outputs.shape and attention.shape == ref_attention.shape
        for k in range(windows.n_chunks):
            assert_window_close(outputs[k], ref_outputs[k], m.dtype)
            assert_window_close(attention[k], ref_attention[k], m.dtype)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 300), st.data())
    def test_block_split_covers_each_window_once(self, d, data):
        h = data.draw(st.integers(1, d))
        stride = data.draw(st.integers(1, d))
        for grid in (chunk_windows(d, h, stride), chunk_windows(d, d, 1)):
            plan = grid.blocks
            assert len(plan) == grid.n_chunks
            for (start, end), blocks in zip(grid.windows, plan):
                cols = np.concatenate([np.arange(b, e) for b, e in blocks])
                assert np.array_equal(cols, np.arange(start, end))
                assert len(blocks) <= MAX_BLOCKS_PER_WINDOW

    def test_block_split_shares_blocks_and_isolates_clamped_window(self):
        # D=70, H=16, S=4: g=4, four blocks per window; the clamped start 54
        # is not a multiple of g, so that window is one block
        plan = chunk_windows(70, 16, 4).blocks
        assert plan[0] == ((0, 4), (4, 8), (8, 12), (12, 16))
        assert plan[1] == ((4, 8), (8, 12), (12, 16), (16, 20))
        assert plan[-1] == ((54, 70),)
        # D=32, H=12, S=8: g=4, and the clamped start 20 is a multiple of it
        assert chunk_windows(32, 12, 8).blocks[-1] == ((20, 24), (24, 28), (28, 32))
        # S=2 would give 32 blocks per window, more than the cutoff
        assert all(len(b) == 1 for b in chunk_windows(70, 64, 2).blocks)

    # one row, fewer rows than a tile, one full tile, a ragged last tile, an
    # exact multiple of the tile
    @pytest.mark.parametrize("n", [1, ROW_TILE - 5, ROW_TILE, ROW_TILE + 1,
                                   2 * ROW_TILE + 17, 2 * ROW_TILE])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("windows", [chunk_windows(26, 8, 4), chunk_windows(26, 26, 1)],
                             ids=["clamped-final", "full-bag-batch1"])
    def test_row_tile_edges(self, n, dtype, windows):
        # D=26, H=8, S=4: four blocks per window and the clamped final window
        # (18, 26); or the K=1 grid of full_bag_batch1
        m = _model(d=26, h=8, c=3, dtype=dtype)
        x = np.random.default_rng(n).standard_normal((n, 26)).astype(dtype)
        outputs, attention = m.forward_windows(x, windows)
        ref_outputs, ref_attention = _per_window_forward(m, x, windows)
        assert outputs.dtype == attention.dtype == dtype
        assert_window_close(outputs, ref_outputs, dtype)
        assert_window_close(attention, ref_attention, dtype)

    def test_repeated_calls_are_bitwise_equal(self):
        m = _model(d=40, h=16, c=2, dtype=np.float32)
        x = np.random.default_rng(3).standard_normal((ROW_TILE + 7, 40)).astype(np.float32)
        windows = chunk_windows(40, 16, 4)
        first = m.forward_windows(x, windows)
        again = m.forward_windows(x, windows)
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    @settings(max_examples=60, deadline=None)
    @given(_window_cases())
    def test_attention_rows_sum_to_one(self, case):
        m, x, windows = case
        _, attention = m.forward_windows(x, windows)
        assert attention.shape == (windows.n_chunks, x.shape[0])
        assert (attention >= 0).all()
        np.testing.assert_allclose(attention.sum(axis=1), 1.0, rtol=1e-5)

    def test_clamped_final_window(self):
        # D=10, H=4, S=4: starts 0, 4, then the clamped start 6
        m = _model(d=10, h=4, c=2)
        windows = chunk_windows(10, 4, 4)
        assert windows.windows == ((0, 4), (4, 8), (6, 10))
        x = np.random.default_rng(1).standard_normal((7, 10))
        outputs, _ = m.forward_windows(x, windows)
        ref = m.forward(x[None], np.ones((1, 7), dtype=bool), np.arange(6, 10))
        assert_window_close(outputs[2], ref.outputs[0], np.float64)

    def test_wrong_shape_rejected(self):
        m = _model(d=6)
        with pytest.raises(ValidationError):
            m.forward_windows(np.zeros((3, 5)), chunk_windows(6, 4, 2))
        with pytest.raises(ValidationError):
            m.forward_windows(np.zeros((1, 3, 6)), chunk_windows(6, 4, 2))


class TestTilePooling:
    """Each row tile pools its own rows under every window; a window's finish
    pools the tiles' pooled vectors with their log-sum-exps as the logits."""

    @pytest.mark.parametrize("n", [1, ROW_TILE - 5, 2 * ROW_TILE, 2 * ROW_TILE + 17])
    def test_tile_summaries_pool_each_tile_on_its_own(self, n):
        m = _model(d=26, h=8, c=3, dtype=np.float64)
        x = np.random.default_rng(n).standard_normal((n, 26))
        windows = chunk_windows(26, 8, 4)
        tiles = m.window_tiles(x, m.window_weights(windows))
        n_tiles = -(-n // ROW_TILE)
        assert tiles.pooled.shape == (windows.n_chunks, n_tiles, 26)
        assert tiles.lse.shape == (windows.n_chunks, n_tiles)
        mask = np.ones((1, n), dtype=bool)
        for k, (start, end) in enumerate(windows.windows):
            # the gated output without dropout is tanh_act * gate_act, with
            # the tanh branch recomputed as backward does
            feat = np.arange(start, end)
            _, xi, gate_act, _, _ = m.forward(x[None], mask, feat).cache[1]
            tanh_act = model_module._tanh_branch(xi[:, feat], m.params["attention_v"][:, feat])
            logits = (tanh_act * gate_act) @ m.params["attention_w"]
            for t in range(n_tiles):
                rows = slice(t * ROW_TILE, (t + 1) * ROW_TILE)
                top = logits[rows].max()
                weights = np.exp(logits[rows] - top)
                np.testing.assert_allclose(tiles.lse[k, t], top + np.log(weights.sum()),
                                           rtol=1e-12)
                weights /= weights.sum()
                np.testing.assert_allclose(tiles.alpha[k, rows], weights, rtol=1e-12)
                np.testing.assert_allclose(tiles.pooled[k, t], weights @ x[rows],
                                           rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_tile_1000_below_another_stays_finite_without_warning(self, dtype):
        # logit = 500 tanh(10 x0) (V reads only column 0, U = 0 gives a gate
        # of 1/2, w = (500, 500)): the first tile's rows sit near -500, the
        # second's near +500, so the first tile's weight exp(-1000) is 0
        m = _model(d=4, h=2, c=2, dtype=dtype)
        m.params["attention_v"][:] = 0.0
        m.params["attention_v"][:, 0] = 10.0
        m.params["attention_u"][:] = 0.0
        m.params["attention_w"][:] = 500.0
        x = np.random.default_rng(0).standard_normal((2 * ROW_TILE, 4)).astype(dtype)
        x[:ROW_TILE, 0] = -1.0
        x[ROW_TILE:, 0] = 1.0
        windows = chunk_windows(4, 2, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiles = m.window_tiles(x, m.window_weights(windows))
            outputs, attention = m.forward_windows(x, windows)
        assert tiles.lse[0, 1] - tiles.lse[0, 0] > 999
        assert np.isfinite(outputs).all() and np.isfinite(attention).all()
        assert (attention[0, :ROW_TILE] == 0.0).all()
        ref_outputs, ref_attention = _per_window_forward(m, x, windows)
        assert_window_close(outputs, ref_outputs, dtype)
        assert_window_close(attention, ref_attention, dtype)


def _windows_with(monkeypatch, workers, m, x, windows):
    """forward_windows(x, windows) with its row tiles on the given worker count."""
    monkeypatch.setattr(model_module, "ensemble_workers", lambda: workers)
    return m.forward_windows(x, windows)


class TestPooledTiles:
    @pytest.mark.parametrize("n", [1, ROW_TILE, ROW_TILE + 1, 5 * ROW_TILE + 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("windows", [chunk_windows(26, 8, 4), chunk_windows(26, 26, 1)],
                             ids=["clamped-final", "one-full-width"])
    def test_two_workers_equal_one_bitwise(self, monkeypatch, n, dtype, windows):
        # D=26, H=8, S=4: four blocks per window and the clamped final window
        # (18, 26); or the batch-1 ablation's single window over all of D
        m = _model(d=26, h=8, c=3, dtype=dtype)
        x = np.random.default_rng(n).standard_normal((n, 26)).astype(dtype)
        serial = _windows_with(monkeypatch, 1, m, x, windows)
        pooled = _windows_with(monkeypatch, 2, m, x, windows)
        assert np.array_equal(pooled[0], serial[0])
        assert np.array_equal(pooled[1], serial[1])

    def test_more_workers_than_cores_under_rapid_switching(self, monkeypatch):
        # every tile writes its own logit columns; a lost or misplaced write
        # among 4 threads switched every microsecond would change the bits
        m = _model(d=40, h=16, c=2, dtype=np.float32)
        x = np.random.default_rng(5).standard_normal((9 * ROW_TILE + 5, 40)).astype(np.float32)
        windows = chunk_windows(40, 16, 4)
        serial = _windows_with(monkeypatch, 1, m, x, windows)
        interval = sys.getswitchinterval()
        with ThreadPoolExecutor(4) as pool:
            monkeypatch.setattr(model_module, "_worker_pool", lambda count: pool)
            sys.setswitchinterval(1e-6)
            try:
                runs = [_windows_with(monkeypatch, 4, m, x, windows) for _ in range(5)]
            finally:
                sys.setswitchinterval(interval)
        for outputs, attention in runs:
            assert np.array_equal(outputs, serial[0]) and np.array_equal(attention, serial[1])

    @pytest.mark.parametrize("workers, n, pooled", [
        (2, 5 * ROW_TILE + 3, True),
        (2, ROW_TILE, False),   # one tile: nothing to share
        (1, 5 * ROW_TILE + 3, False),
    ])
    def test_pool_runs_only_with_tiles_and_workers_to_share(self, monkeypatch, workers, n,
                                                            pooled):
        pools, tile_threads = [], set()
        real_pool, real_tanh = model_module._worker_pool, np.tanh

        def pool_spy(count):
            pools.append(count)
            return real_pool(count)

        def tanh_spy(*args, **kwargs):  # forward_windows calls tanh once per tile and window
            tile_threads.add(threading.current_thread())
            return real_tanh(*args, **kwargs)

        monkeypatch.setattr(model_module, "_worker_pool", pool_spy)
        monkeypatch.setattr(np, "tanh", tanh_spy)
        m = _model(d=26, h=8, c=3, dtype=np.float32)
        x = np.random.default_rng(0).standard_normal((n, 26)).astype(np.float32)
        _windows_with(monkeypatch, workers, m, x, chunk_windows(26, 8, 4))
        assert pools == ([2] if pooled else [])
        assert (threading.current_thread() not in tile_threads) == pooled


class TestEnsembleWorkers:
    @pytest.mark.parametrize("env, workers", [
        ({}, 1),  # BLAS is taken to use both CPUs
        ({"OPENBLAS_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "2"}, 1),
        ({"OPENBLAS_NUM_THREADS": "8"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0"}, 1),
        ({"OPENBLAS_NUM_THREADS": "abc"}, 1),
        ({"MKL_NUM_THREADS": "1"}, 2),
        ({"OMP_NUM_THREADS": "1"}, 2),
        # the first variable holding a positive integer wins
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "abc", "MKL_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
    ])
    def test_usable_cpus_over_blas_threads(self, monkeypatch, two_cpus, env, workers):
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert ensemble_workers() == workers

    def test_unset_blas_threads_keep_the_tiles_on_the_calling_thread(self, monkeypatch,
                                                                     two_cpus):
        def no_pool(count):
            pytest.fail(f"a pool of {count} workers was asked for")

        monkeypatch.setattr(model_module, "_worker_pool", no_pool)
        m = _model(d=26, h=8, c=3, dtype=np.float32)
        x = np.random.default_rng(0).standard_normal((5 * ROW_TILE, 26)).astype(np.float32)
        outputs, _ = m.forward_windows(x, chunk_windows(26, 8, 4))
        assert np.isfinite(outputs).all()


class TestAttentionLogits:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("feat", [np.arange(1, 5), np.array([0, 2, 3, 5])])
    def test_own_logits_reproduce_forward_bitwise(self, rng, dtype, feat):
        m = _model(dtype=dtype)
        x, mask = _batch(rng, n=3, m=5, n_valid=[5, 3, 1])
        plain = m.forward(x, mask, feat)
        logits = np.zeros(mask.shape, dtype=dtype)
        w, v_sub = m.params["attention_w"], m.params["attention_v"][:, feat]
        # without dropout the gated output is tanh_act * gate_act
        for i, (valid, xi, gate_act, keep_bits, _alpha) in enumerate(plain.cache[1:]):
            assert keep_bits is None
            tanh_act = model_module._tanh_branch(xi[:, feat], v_sub)
            logits[i, valid] = (tanh_act * gate_act) @ w
        given = m.forward(x, mask, feat, attention_logits=logits)
        assert np.array_equal(given.outputs, plain.outputs)
        assert np.array_equal(given.attention, plain.attention)
        # the backward cache is built exactly when the logits are not given
        assert given.cache is None and plain.cache is not None

    def test_rejected_with_rng_or_wrong_shape(self, rng):
        m = _model(dropout=0.5)
        x, mask = _batch(rng, n=2, m=4)
        logits = np.zeros((2, 4))
        with pytest.raises(ValidationError):
            m.forward(x, mask, np.arange(4), rng=rng, attention_logits=logits)
        with pytest.raises(ValidationError):
            m.forward(x, mask, np.arange(4), attention_logits=logits[:, :3])


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        for c in (2, 3, 7):
            logits = np.zeros((4, c))
            loss, _ = cross_entropy_loss(logits, np.zeros(4, dtype=int))
            assert loss == pytest.approx(math.log(c), abs=1e-12)

    def test_shift_invariance_exact(self):
        # integer logits and an integer shift make the float arithmetic exact
        logits = np.array([[2.0, -1.0, 0.0], [1.0, 3.0, -2.0]])
        labels = np.array([0, 2])
        base, gbase = cross_entropy_loss(logits, labels)
        shifted, gshift = cross_entropy_loss(logits + 4.0, labels)
        assert base == shifted
        np.testing.assert_array_equal(gbase, gshift)

    def test_gradient_matches_softmax_minus_onehot(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, 5)
        _, grad = cross_entropy_loss(logits, labels)
        # independent route: explicit softmax and one-hot
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        onehot = np.eye(4)[labels]
        np.testing.assert_allclose(grad, (p - onehot) / 5, atol=1e-12)

    def test_perfect_confidence_near_zero(self):
        logits = np.array([[50.0, -50.0]])
        loss, _ = cross_entropy_loss(logits, np.array([0]))
        assert 0 <= loss < 1e-12


class TestMse:
    def test_perfect_fit_zero_loss_zero_grad(self):
        preds = np.array([1.0, -2.0, 0.5])
        loss, grad = mse_loss(preds, preds.copy())
        assert loss == 0.0
        assert (grad == 0).all()

    def test_hand_value(self):
        loss, grad = mse_loss(np.array([1.0, 2.0]), np.array([0.0, 4.0]))
        assert loss == pytest.approx((1.0 + 4.0) / 2)
        np.testing.assert_allclose(grad, [2 * 1.0 / 2, 2 * (-2.0) / 2])


def _cox_reference(eta, times, events):
    """Straight-line Breslow partial likelihood, mean over events, and its
    gradient: per event, the softmax over its risk set, minus 1 at the event."""
    eta = np.asarray(eta, dtype=np.float64)
    terms = []
    grad = np.zeros_like(eta)
    for i in range(len(eta)):
        if events[i] != 1:
            continue
        at_risk = times >= times[i]
        mass = np.exp(eta[at_risk])
        terms.append(eta[i] - math.log(mass.sum()))
        grad[at_risk] += mass / mass.sum()
        grad[i] -= 1.0
    return -float(np.mean(terms)), grad / len(terms)


class TestCoxLoss:
    def test_zero_eta_single_event_risk_set_size(self):
        # all risk scores zero, one event with the whole cohort at risk:
        # loss = log(n)
        times = np.array([1.0, 2.0, 3.0, 4.0])
        events = np.array([1, 0, 0, 0])
        loss, _ = cox_loss(np.zeros(4), times, events)
        assert loss == pytest.approx(math.log(4), abs=1e-12)

    @pytest.mark.parametrize("tied", [False, True])
    def test_matches_reference_loops(self, tied):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            eta = rng.standard_normal(n)
            times = rng.exponential(1.0, n) + 0.01
            if tied:
                times = np.round(times, 1)
            events = (rng.random(n) < 0.6).astype(int)
            if events.sum() == 0:
                events[int(rng.integers(n))] = 1
            loss, grad = cox_loss(eta, times, events)
            want_loss, want_grad = _cox_reference(eta, times, events)
            assert loss == pytest.approx(want_loss, abs=1e-10)
            np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12)

    def test_risks_2000_apart_without_warning(self):
        # the event at t=1 has eta = 1000, so a later risk set's log-sum sits
        # 1000 below it and exp(eta - log-sum) would overflow; the gradient is
        # exp(eta + log H_0(t)) <= E instead
        eta = np.array([1000.0, -1000.0, 3.0, 0.0])
        loss, grad = cox_loss(eta, np.arange(1.0, 5.0), np.array([1, 1, 0, 1]))
        e3 = math.exp(3.0)
        assert loss == pytest.approx((1000.0 + math.log(e3 + 1.0)) / 3, rel=1e-15)  # 334.3495...
        np.testing.assert_allclose(grad, [0.0, -1 / 3, e3 / (e3 + 1) / 3, 1 / (e3 + 1) / 3],
                                   rtol=1e-14, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        eta = rng.standard_normal(12)
        times = rng.exponential(1.0, 12) + 0.01
        events = np.array([1, 0] * 6)
        base, gbase = cox_loss(eta, times, events)
        shifted, gshift = cox_loss(eta + 1000.0, times, events)
        assert abs(base - shifted) < 1e-9
        np.testing.assert_allclose(gbase, gshift, atol=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        eta = rng.standard_normal(8)
        times = rng.exponential(1.0, 8) + 0.01
        events = np.array([1, 1, 0, 1, 0, 0, 1, 0])
        _, grad = cox_loss(eta, times, events)
        eps = 1e-6
        for k in range(8):
            up, down = eta.copy(), eta.copy()
            up[k] += eps
            down[k] -= eps
            fd = (cox_loss(up, times, events)[0] - cox_loss(down, times, events)[0]) / (2 * eps)
            assert grad[k] == pytest.approx(fd, abs=1e-8)

    def test_tied_times_share_risk_sets(self):
        # Breslow convention: tied event times use the same denominator
        eta = np.array([0.5, -0.2, 0.1])
        times = np.array([2.0, 2.0, 5.0])
        events = np.array([1, 1, 0])
        loss, _ = cox_loss(eta, times, events)
        denom = math.log(np.exp(eta).sum())
        expected = -((eta[0] - denom) + (eta[1] - denom)) / 2
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_zero_events_rejected(self):
        with pytest.raises(ValidationError):
            cox_loss(np.zeros(3), np.arange(1.0, 4.0), np.zeros(3, dtype=int))


class TestBackward:
    def test_zero_loss_zero_gradients(self, rng):
        m = _model(c=1)
        x, mask = _batch(rng)
        res = m.forward(x, mask, np.arange(6))
        _, grad = mse_loss(res.outputs[:, 0], res.outputs[:, 0].copy())
        grads = m.backward(res.cache, grad[:, None])
        for name in PARAM_NAMES:
            assert (grads[name] == 0).all()

    def test_gradient_shapes_match_params(self, rng):
        m = _model()
        x, mask = _batch(rng)
        res = m.forward(x, mask, np.arange(6))
        grads = m.backward(res.cache, np.ones_like(res.outputs))
        for name in PARAM_NAMES:
            assert grads[name].shape == m.params[name].shape

    def test_unused_feature_columns_get_zero_gradient(self, rng):
        m = _model(d=8, h=3)
        x, mask = _batch(rng, d=8)
        feat = np.array([0, 3, 7])
        res = m.forward(x, mask, feat)
        grads = m.backward(res.cache, np.ones_like(res.outputs))
        unused = np.setdiff1d(np.arange(8), feat)
        assert (grads["attention_v"][:, unused] == 0).all()
        assert (grads["attention_u"][:, unused] == 0).all()
        # the head sees all D dims, so its gradient is generally dense
        assert np.abs(grads["head_weight"]).sum() > 0


def _full_activation_pass(model, x, mask, feat, d_out, rng):
    """Outputs and gradients with every activation kept through backward, by
    the formulas as they read before the cache was slimmed: per slide the
    sampled columns xs, tanh, gate, the float dropout scale and the gated
    output, with a fresh rng.random array per slide for the mask."""
    p, dtype = model.params, model.dtype
    x = np.asarray(x, dtype=dtype)
    v_sub, u_sub, w = p["attention_v"][:, feat], p["attention_u"][:, feat], p["attention_w"]
    pooled = np.empty((len(x), model.embed_dim), dtype=dtype)
    kept = []
    for i in range(len(x)):
        valid = np.flatnonzero(mask[i])
        xi = x[i] if len(valid) == x.shape[1] else x[i, valid]
        xs = np.take(xi, feat, axis=1)
        tanh_act = np.tanh(xs @ v_sub.T)
        gate_act = 1.0 / (1.0 + np.exp(-(xs @ u_sub.T)))
        gated = tanh_act * gate_act
        if rng is not None and model.dropout > 0.0:
            keep = rng.random(gated.shape) >= model.dropout
            drop = keep.astype(dtype) / dtype.type(1.0 - model.dropout)
            gated_out = gated * drop
        else:
            drop, gated_out = None, gated
        logits = gated_out @ w
        exp_l = np.exp(logits - logits.max())
        alpha = exp_l / exp_l.sum()
        pooled[i] = alpha @ xi
        kept.append((xi, xs, tanh_act, gate_act, drop, gated_out, alpha))
    outputs = pooled @ p["head_weight"].T + p["head_bias"]

    grads = {name: np.zeros_like(t) for name, t in p.items()}
    grads["head_weight"] += d_out.T @ pooled
    grads["head_bias"] += d_out.sum(axis=0)
    d_pooled = d_out @ p["head_weight"]
    d_v_sub = np.zeros((len(w), len(feat)), dtype=dtype)
    d_u_sub = np.zeros_like(d_v_sub)
    for i, (xi, xs, tanh_act, gate_act, drop, gated_out, alpha) in enumerate(kept):
        d_alpha = xi @ d_pooled[i]
        d_logits = alpha * (d_alpha - alpha @ d_alpha)
        grads["attention_w"] += gated_out.T @ d_logits
        d_gated_out = np.outer(d_logits, w)
        d_gated = d_gated_out if drop is None else d_gated_out * drop
        d_v_sub += (d_gated * gate_act * (1.0 - tanh_act ** 2)).T @ xs
        d_u_sub += (d_gated * tanh_act * gate_act * (1.0 - gate_act)).T @ xs
    grads["attention_v"][:, feat] = d_v_sub
    grads["attention_u"][:, feat] = d_u_sub
    return outputs, grads


class TestSlimCache:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("feat", [np.array([0, 2, 3, 5]), np.arange(6)],
                             ids=["subset", "all"])
    def test_backward_equals_full_activation_formulas_bitwise(self, dtype, dropout, feat):
        m = _model(dropout=dropout, dtype=dtype)
        x, mask = _batch(np.random.default_rng(3), n=4, m=5, n_valid=[5, 3, 1, 4])
        d_out = np.random.default_rng(4).standard_normal((4, 2)).astype(dtype)
        rng_model, rng_ref = np.random.default_rng(9), np.random.default_rng(9)
        res = m.forward(x, mask, feat, rng=rng_model)
        grads = m.backward(res.cache, d_out)
        ref_outputs, ref_grads = _full_activation_pass(m, x, mask, feat, d_out, rng_ref)
        assert np.array_equal(res.outputs, ref_outputs)
        for name in PARAM_NAMES:
            assert grads[name].dtype == dtype
            assert np.array_equal(grads[name], ref_grads[name]), name
        # the masks were drawn from the same stream, which is left in the same place
        assert rng_model.random() == rng_ref.random()

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_cache_holds_the_gate_and_a_packed_mask(self, dropout):
        m = _model(dropout=dropout, dtype=np.float32)
        x, mask = _batch(np.random.default_rng(3), n=2, m=5, n_valid=[5, 2])
        feat = np.array([1, 4])
        res = m.forward(x, mask, feat, rng=np.random.default_rng(0))
        pooled, cached_feat = res.cache[0]
        assert pooled.shape == (2, 6) and np.array_equal(cached_feat, feat)
        gates = set()
        for n_valid, (valid, xi, gate_act, keep_bits, alpha) in zip([5, 2], res.cache[1:]):
            assert np.array_equal(valid, np.arange(n_valid))
            assert xi.shape == (n_valid, 6) and alpha.shape == (n_valid,)
            assert gate_act.shape == (n_valid, 4) and gate_act.dtype == np.float32
            gates.add(id(gate_act.base))
            if dropout == 0.0:
                assert keep_bits is None
            else:
                # H = 4 bits fit in one byte per row
                assert keep_bits.dtype == np.uint8 and keep_bits.shape == (n_valid, 1)
        # every slide's sigmoid branch is a view of one array of the step
        assert len(gates) == 1 and None not in gates


class TestDropoutDraws:
    """Slide i's mask is drawn as slide i is handed out; the stream and the
    masks are those of a plain slide-order loop, for any worker count."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("h", [5, 8, 13])  # 5 and 13 pad their last byte of bits
    def test_masks_and_stream_equal_a_slide_order_loop(self, monkeypatch, workers, h):
        monkeypatch.setattr(model_module, "ensemble_workers", lambda: workers)
        n_valid = [9, 4, 1, 9, 7, 9, 2]
        m = _model(d=12, h=h, c=3, dropout=0.25, dtype=np.float32)
        x, mask = _batch(np.random.default_rng(1), n=len(n_valid), m=9, d=12, n_valid=n_valid)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        res = m.forward(x, mask, np.array([0, 3, 4, 8, 11]), rng=rng)
        for n, (_, _, _, keep_bits, _) in zip(n_valid, res.cache[1:]):
            keep = np.unpackbits(keep_bits, axis=-1, count=h).view(bool)
            assert np.array_equal(keep, ref.random((n, h)) >= 0.25)
        assert rng.bit_generator.state == ref.bit_generator.state


def _step_with(monkeypatch, workers, m, x, mask, feat, d_out):
    """Outputs, attention and the five gradients of one training step (forward
    with dropout drawn from a generator seeded 9, then backward) with its
    per-slide bodies on the given worker count, and the generator's next draw."""
    monkeypatch.setattr(model_module, "ensemble_workers", lambda: workers)
    rng = np.random.default_rng(9)
    res = m.forward(x, mask, feat, rng=rng)
    grads = m.backward(res.cache, d_out)
    return [res.outputs, res.attention, *(grads[name] for name in PARAM_NAMES)], rng.random()


class TestPooledStep:
    """A training step's per-slide forward and backward bodies may run on
    several threads; no output, attention entry, gradient or draw of the
    generator may depend on how many."""

    @staticmethod
    def _case(n, dtype, dropout, padded):
        m = _model(d=12, h=5, c=3, dropout=dropout, dtype=dtype)
        data = np.random.default_rng(n)
        # every other slide is padded, to a different length each
        x, mask = _batch(data, n=n, m=9, d=12,
                         n_valid=[1 + i % 9 if i % 2 == 0 else 9 for i in range(n)]
                         if padded else None)
        d_out = data.standard_normal((n, 3)).astype(dtype)
        return m, x.astype(dtype), mask, np.array([0, 3, 4, 8, 11]), d_out

    @pytest.mark.parametrize("n", [1, 2, 33])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout", [0.0, 0.25])
    @pytest.mark.parametrize("padded", [False, True], ids=["full", "padded"])
    def test_two_workers_equal_one_bitwise(self, monkeypatch, n, dtype, dropout, padded):
        m, x, mask, feat, d_out = self._case(n, dtype, dropout, padded)
        serial, serial_draw = _step_with(monkeypatch, 1, m, x, mask, feat, d_out)
        pooled, pooled_draw = _step_with(monkeypatch, 2, m, x, mask, feat, d_out)
        for a, b in zip(serial, pooled):
            assert a.dtype == b.dtype == dtype
            assert np.array_equal(a, b)
        assert serial_draw == pooled_draw
        # and both are the full-activation formulas, drawn from the same stream
        ref_outputs, ref_grads = _full_activation_pass(m, x, mask, feat, d_out,
                                                       np.random.default_rng(9))
        assert np.array_equal(pooled[0], ref_outputs)
        for name, grad in zip(PARAM_NAMES, pooled[2:]):
            assert np.array_equal(grad, ref_grads[name]), name

    def test_more_workers_than_cores_under_rapid_switching(self, monkeypatch):
        # a slide's body writes only its own pooled row and attention row and
        # returns its gradient terms; a lost or misplaced write among 4 threads
        # switched every microsecond would change the bits
        m, x, mask, feat, d_out = self._case(33, np.float32, 0.25, True)
        serial, _ = _step_with(monkeypatch, 1, m, x, mask, feat, d_out)
        interval = sys.getswitchinterval()
        with ThreadPoolExecutor(4) as pool:
            monkeypatch.setattr(model_module, "_worker_pool", lambda count: pool)
            sys.setswitchinterval(1e-6)
            try:
                runs = [_step_with(monkeypatch, 4, m, x, mask, feat, d_out)[0] for _ in range(5)]
            finally:
                sys.setswitchinterval(interval)
        for run in runs:
            assert all(np.array_equal(a, b) for a, b in zip(serial, run))

    @pytest.mark.parametrize("workers, n, pooled", [
        (2, 4, True),
        (2, 1, False),   # one slide: nothing to share
        (1, 4, False),
    ])
    def test_pool_runs_only_with_slides_and_workers_to_share(self, monkeypatch, workers, n,
                                                             pooled):
        pools, body_threads = [], set()
        real_pool = model_module._worker_pool
        monkeypatch.setattr(model_module, "_worker_pool",
                            lambda count: pools.append(count) or real_pool(count))
        for name in ("_forward_slide", "_backward_slide"):
            body = getattr(model_module, name)

            def spy(*args, _body=body):
                body_threads.add(threading.current_thread())
                return _body(*args)

            monkeypatch.setattr(model_module, name, spy)
        m, x, mask, feat, d_out = self._case(n, np.float32, 0.25, False)
        _step_with(monkeypatch, workers, m, x, mask, feat, d_out)
        assert pools == ([2, 2] if pooled else [])
        assert (threading.current_thread() not in body_threads) == pooled

    @pytest.mark.parametrize("name", ["_forward_slide", "_backward_slide"])
    def test_error_in_a_slide_body_reaches_the_caller(self, monkeypatch, name):
        body = getattr(model_module, name)

        def failing(xi, *args):
            if len(xi) == 3:  # the third slide, padded to 3 rows
                raise ValidationError("slide body failed")
            return body(xi, *args)

        m, x, mask, feat, d_out = self._case(8, np.float64, 0.25, True)
        before, _ = _step_with(monkeypatch, 2, m, x, mask, feat, d_out)
        monkeypatch.setattr(model_module, name, failing)
        with pytest.raises(ValidationError, match="slide body failed"):
            _step_with(monkeypatch, 2, m, x, mask, feat, d_out)
        # the pool is left as it was: the next step runs and gives the same bits
        monkeypatch.setattr(model_module, name, body)
        again, _ = _step_with(monkeypatch, 2, m, x, mask, feat, d_out)
        assert all(np.array_equal(a, b) for a, b in zip(before, again))

    def test_pool_runs_at_most_two_items_per_worker_ahead_of_the_reader(self, monkeypatch):
        # unread backward products would otherwise pile up while the calling
        # thread adds the earlier ones; a slow reader gives the pool every
        # chance to run ahead
        monkeypatch.setattr(model_module, "ensemble_workers", lambda: 2)
        started = []
        results = model_module._map(lambda i: started.append(i) or i, range(40))
        for k, result in enumerate(results):
            assert result == k
            assert max(started) < k + 4
            time.sleep(0.002)
        assert sorted(started) == list(range(40))

    def test_map_on_a_pool_thread_runs_inline(self, monkeypatch):
        # every worker runs an item that maps 8 more: were those submitted
        # to the pool, each worker would wait on a queue that only a worker
        # can drain
        monkeypatch.setattr(model_module, "ensemble_workers", lambda: 2)

        def outer(i):
            threads = set()
            inner = list(model_module._map(
                lambda j: threads.add(threading.get_ident()) or i * 8 + j, range(8)))
            return threading.get_ident(), threads, inner

        # a pool of its own, built as the shared one is, so that a deadlock
        # can be broken: shutting it down cancels the queued inner items,
        # which frees the workers
        pool = model_module._worker_pool.__wrapped__(2)
        monkeypatch.setattr(model_module, "_worker_pool", lambda count: pool)
        results = []
        runner = threading.Thread(
            target=lambda: results.extend(model_module._map(outer, range(2))), daemon=True)
        runner.start()
        try:
            runner.join(timeout=30)
            assert not runner.is_alive(), "_map on a pool thread did not finish"
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        assert [inner for _, _, inner in results] == [list(range(8)), list(range(8, 16))]
        for ident, threads, _ in results:
            assert threads == {ident} != {runner.ident}

    def test_a_pool_thread_stays_marked_after_an_item_raised(self, monkeypatch):
        # the pool's threads mark themselves once, as they start: an item
        # that raised leaves its thread marked, so the next item's _map on
        # that thread still runs inline and cannot wait on the pool's only
        # thread, its own
        monkeypatch.setattr(model_module, "ensemble_workers", lambda: 2)
        pool = model_module._worker_pool.__wrapped__(1)
        monkeypatch.setattr(model_module, "_worker_pool", lambda count: pool)
        item_threads = []

        def failing(i):
            item_threads.append(threading.get_ident())
            raise ValidationError(f"item {i} failed")

        def outer(i):
            item_threads.append(threading.get_ident())
            return list(model_module._map(
                lambda j: (threading.get_ident(), i * 8 + j), range(8)))

        def run():
            with pytest.raises(ValidationError, match="item 0 failed"):
                list(model_module._map(failing, range(2)))
            results.extend(model_module._map(outer, range(2)))

        results = []
        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        try:
            runner.join(timeout=30)
            assert not runner.is_alive(), "_map after a failed item did not finish"
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        pool_thread = item_threads[0]
        assert set(item_threads) == {pool_thread} != {runner.ident}
        assert [[k for _, k in inner] for inner in results] == [list(range(8)),
                                                                list(range(8, 16))]
        assert {ident for inner in results for ident, _ in inner} == {pool_thread}


def _traced_peak(fn, *args):
    """fn(*args) and the peak bytes tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStepBodyMemory:
    """The per-slide bodies work in place: forward writes the sigmoid branch
    into the caller's buffer and the gated output over its own tanh branch,
    and backward reuses three (m, H) buffers beside the recomputed tanh
    branch for every elementwise step."""

    M, D, H = 1250, 512, 256  # F = H columns of D feed the projections

    @pytest.mark.parametrize("dropout", [0.0, 0.25])
    def test_peaks_stay_within_the_in_place_working_set(self, dropout):
        m, d, h = self.M, self.D, self.H
        rng = np.random.default_rng(0)
        xi = rng.standard_normal((m, d)).astype(np.float32)
        feat = np.sort(rng.choice(d, h, replace=False))
        v, u = (rng.standard_normal((2, h, h)) * 0.05).astype(np.float32)
        w = (rng.standard_normal(h) * 0.05).astype(np.float32)
        keep = rng.random((m, h)) >= dropout if dropout else None
        gate_act = np.empty((m, h), dtype=np.float32)
        d_pooled = rng.standard_normal(d).astype(np.float32)
        forward_args = (xi, feat, v, u, w, keep, dropout, gate_act)
        model_module._forward_slide(*forward_args)  # one-off allocations
        (alpha, _, keep_bits), forward_peak = _traced_peak(
            model_module._forward_slide, *forward_args)
        backward_args = (xi, feat, v, gate_act, keep_bits, alpha, d_pooled, w, dropout)
        model_module._backward_slide(*backward_args)
        _, backward_peak = _traced_peak(model_module._backward_slide, *backward_args)

        mh = mf = m * h * 4  # one (m, H) and one (m, F) float32 array
        # forward: xs (m, F) beside the tanh branch (m, H), which then holds
        # the gated output; xs is freed before the dropout scale (m, H) is
        # made; read 2.00 (m, H) with and without dropout
        assert forward_peak < mf + mh + mh / 2, forward_peak / mh
        # backward: xs, the recomputed tanh branch and three (m, H) buffers,
        # with one (m, H) of slack for the two returned (H, F) terms and the
        # (m,) vectors; read 5.42 (m, H)
        assert backward_peak < 4 * mh + mf + mh, backward_peak / mh


class TestGradCheck:
    @pytest.mark.parametrize("task", ["classification", "regression", "survival"])
    def test_analytic_gradients_match_finite_differences(self, task):
        report = grad_check(task, embed_dim=8, hidden_dim=4, n_classes=3,
                            n_slides=3, bag_size=4, seed=0, eps=1e-5)
        assert report["max_rel_err"] < 1e-4, report

    def test_reports_per_parameter(self):
        report = grad_check("classification", seed=1)
        assert set(report["per_param"]) == set(PARAM_NAMES)

    def test_deterministic_across_repeats(self):
        a = grad_check("regression", seed=4)
        b = grad_check("regression", seed=4)
        assert a["max_rel_err"] == b["max_rel_err"]

    def test_survival_single_event_is_finite(self):
        report = grad_check("survival", n_slides=2, seed=2)
        assert math.isfinite(report["max_rel_err"])

    @pytest.mark.parametrize("task", ["classification", "regression", "survival"])
    @pytest.mark.parametrize("name", PARAM_NAMES)
    def test_perturbed_losses_match_one_forward_per_parameter_set(self, task, name):
        # the vectorized pass against the loop it replaces: one forward() and
        # one loss call per perturbed tensor
        rng = np.random.default_rng(11)
        m = _model(d=7, h=3, c=3 if task == "classification" else 1)
        x, mask = _batch(rng, n=4, m=5, d=7, n_valid=[5, 2, 4, 1])
        feat = np.array([1, 4, 6])
        if task == "classification":
            targets = np.array([0, 2, 1, 2])
        elif task == "regression":
            targets = rng.standard_normal(4)
        else:
            targets = (np.array([1.0, 0.5, 2.0, 1.0]), np.array([1, 0, 1, 1]))
        base = m.params[name]
        stack = base + rng.standard_normal((6, *base.shape)) * 1e-2
        got = _perturbed_losses(task, {**{k: v[None] for k, v in m.params.items()},
                                       name: stack}, x, mask, feat, targets)
        want = []
        for value in stack:
            m.params[name] = value
            out = m.forward(x, mask, feat).outputs
            if task == "classification":
                want.append(cross_entropy_loss(out, targets)[0])
            elif task == "regression":
                want.append(mse_loss(out[:, 0], targets)[0])
            else:
                want.append(cox_loss(out[:, 0], *targets)[0])
        np.testing.assert_allclose(got.astype(np.float64), want, rtol=1e-13, atol=0)

    def test_feature_subselected_configs(self):
        # H < D exercises the scatter of column gradients
        report = grad_check("classification", embed_dim=12, hidden_dim=4, seed=3)
        assert report["max_rel_err"] < 1e-4


class TestSaturatedGate:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gate_overflow_raises_no_warning(self, dtype):
        # U x500 drives -(x @ U) far past exp's overflow point (89 in float32,
        # 710 in float64); the gate's limit there is exactly 0
        m = _model(d=8, h=4, c=2, dropout=0.25, dtype=dtype)
        m.params["attention_u"] *= 500
        rng = np.random.default_rng(0)
        x, mask = _batch(rng, n=3, m=40, d=8)
        x = (x * 20).astype(dtype)
        feat = np.arange(2, 6)
        assert (np.abs(x[..., feat] @ m.params["attention_u"][:, feat].T) > 720).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = m.forward(x, mask, feat, rng=rng)
            grads = m.backward(result.cache, np.ones_like(result.outputs))
            outputs, attention = m.forward_windows(x[0], chunk_windows(8, 4, 2))
        assert all(np.isfinite(g).all() for g in grads.values())
        assert np.isfinite(result.outputs).all() and np.isfinite(outputs).all()
        np.testing.assert_allclose(attention.sum(axis=1), 1.0, rtol=1e-5)
