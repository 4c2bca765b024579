"""One-thread ceiling of the window ensemble's kernel on one bag.

    python3 tools/window_roofline.py [--rows N] [--dim D] [--hidden H]
                                     [--stride S] [--repeats R]

Sets one BLAS thread and one worker, then times, each as the median of R
calls (with the fastest and slowest): a 2048^3 float32 GEMM, the host's
one-thread peak; model.GatedAttentionMIL.window_tiles on one random (N, D)
float32 bag under the (D, H, S) window grid; and the grid's distinct
column-block products alone, tile by tile as window_tiles computes them.
It prints each time with its rate over the block products' FLOPs (every
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


def _times(fn, repeats: int) -> tuple[float, float, float]:
    """(median, fastest, slowest) seconds of repeats calls of fn."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2], times[0], times[-1]


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
    median, _, _ = _times(lambda: a @ a, 7)
    peak = 2 * PEAK_N ** 3 / median / 1e9
    print(f"sgemm {PEAK_N}^3: {median * 1e3:.1f} ms, {peak:.1f} GFLOP/s")

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

    for name, fn in (("window_tiles", lambda: m.window_tiles(x, weights)),
                     ("block products", products)):
        median, fastest, slowest = _times(fn, args.repeats)
        rate = flop / median / 1e9
        print(f"{name}: {median * 1e3:.1f} ms (fastest {fastest * 1e3:.1f}, slowest "
              f"{slowest * 1e3:.1f}), {rate:.1f} GFLOP/s, {rate / peak:.0%} of peak")
    print(f"K={windows.n_chunks} windows, {len(blocks)} distinct blocks, "
          f"{flop / 1e9:.3g} GFLOP of block products")


if __name__ == "__main__":
    main()
