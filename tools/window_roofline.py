"""One-thread ceiling of the window ensemble's kernel on one bag.

    python3 tools/window_roofline.py [--rows N] [--dim D] [--hidden H]
                                     [--stride S] [--repeats R]

Sets one BLAS thread and one worker, then times three kernels: a 2048^3
float32 GEMM, the host's one-thread peak; model.GatedAttentionMIL.
window_tiles on one random (N, D) float32 bag under the (D, H, S) window
grid; and the grid's distinct column-block products alone, tile by tile as
window_tiles computes them. They are timed round-robin, one call of each
per round for R rounds, and each is the median of its R calls (with the
fastest and slowest), so a change in the host's speed during the run lands
on the peak and on the kernels alike. It prints each time with its rate over the block products' FLOPs (every
distinct block of [V; U/2] against every row: 4 N D H) and the share of
the peak. window_tiles' time less the products' is its block sums, tanh,
gating, logits GEMV and tile pooling. The defaults are the paper-scale bag
(N=2500, D=1536, H=256, S=64: K=21 windows). slidemil is imported from the
src/ beside this file.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from slidemil import model  # noqa: E402

PEAK_N = 2048


def _interleaved_times(fns: dict, rounds: int) -> dict[str, tuple[float, float, float]]:
    """(median, fastest, slowest) seconds of each of fns, from rounds rounds
    that call every fn once, in order."""
    samples = {name: [] for name in fns}
    for _ in range(rounds):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - t0)
    for times in samples.values():
        times.sort()
    return {name: (t[len(t) // 2], t[0], t[-1]) for name, t in samples.items()}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=2500)
    parser.add_argument("--dim", type=int, default=1536)
    parser.add_argument("--hidden", type=int, default=256)
    parser.add_argument("--stride", type=int, default=64)
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    model.ensemble_workers = lambda: 1  # the tiles on the calling thread

    a = np.random.default_rng(0).standard_normal((PEAK_N, PEAK_N)).astype(np.float32)
    n, d, h = args.rows, args.dim, args.hidden
    m = model.GatedAttentionMIL(d, h, 2)
    m.init_params(np.random.default_rng(1))
    x = np.random.default_rng(2).standard_normal((n, d)).astype(np.float32)
    windows = model.ChunkWindows(d, h, args.stride)
    weights = m.window_weights(windows)
    blocks = list(weights.blocks.items())
    flop = 4 * n * d * h

    def products():
        for start in range(0, n, model.ROW_TILE):
            xt = x[start:start + model.ROW_TILE]
            for (b, e), block in blocks:
                block @ xt[:, b:e].T

    times = _interleaved_times({"sgemm": lambda: a @ a,
                                "window_tiles": lambda: m.window_tiles(x, weights),
                                "block products": products}, args.repeats)
    median = times.pop("sgemm")[0]
    peak = 2 * PEAK_N ** 3 / median / 1e9
    print(f"sgemm {PEAK_N}^3: {median * 1e3:.1f} ms, {peak:.1f} GFLOP/s")
    for name, (median, fastest, slowest) in times.items():
        rate = flop / median / 1e9
        print(f"{name}: {median * 1e3:.1f} ms (fastest {fastest * 1e3:.1f}, slowest "
              f"{slowest * 1e3:.1f}), {rate:.1f} GFLOP/s, {rate / peak:.0%} of peak")
    print(f"K={windows.n_chunks} windows, {len(blocks)} distinct blocks, "
          f"{flop / 1e9:.3g} GFLOP of block products")


if __name__ == "__main__":
    main()
