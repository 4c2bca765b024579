"""How often numpy reports a floating-point error in a matmul on finite inputs.

    python3 tools/fpe_stress.py [--children 20] [--repeats 500]

Full test runs have failed, now and then, on `RuntimeWarning: invalid value
encountered in matmul` raised by the model's GEMMs on finite, seeded inputs
(pyproject.toml turns every warning into an error); a rerun passed. This
script measures the rate. It runs --children child processes one after
another, never two at once. Each child turns warnings into errors, as the
test suite does, leaves every BLAS thread variable unset, as the tier-1
command does, and repeats --repeats times:

- eval: criterion 09's eval-mode forward calls (tests/test_acceptance.py:
  30 models and batches drawn from seed 42, each forward on the batch and
  on its zero-padded copy), and
- step: one training step (forward with dropout, then backward) of a D=5
  model on 8 slides, its per-slide bodies on two worker threads.

A call that raises counts as a hit at its innermost slidemil line. The
script prints hits per thousand calls of each kind by call site, the numpy
and OpenBLAS versions, and np.show_runtime()'s
ignore_floating_point_errors_in_matmul (when True, numpy does not read the
FPU flags after a BLAS matmul). It reads no network; the defaults take
about two minutes on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import traceback
import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from slidemil import model as model_module  # noqa: E402
from slidemil.model import BLAS_THREAD_VARS, GatedAttentionMIL, cross_entropy_loss  # noqa: E402


def _site(exc: BaseException) -> str:
    """'file:line code' of the innermost slidemil frame of exc's traceback
    (or of its innermost frame)."""
    frames = traceback.extract_tb(exc.__traceback__)
    ours = [f for f in frames if Path(f.filename).resolve().is_relative_to(SRC)]
    frame = (ours or frames)[-1]
    return f"{Path(frame.filename).name}:{frame.lineno} {(frame.line or '').strip()}"


def _criterion_09_forwards():
    """Zero-argument calls of criterion 09's eval-mode forwards, drawn from
    seed 42 in the test's order (its dropout seeds are drawn and unused)."""
    rng = np.random.default_rng(42)
    calls = []
    for _ in range(30):
        embed_dim = int(rng.integers(3, 17))
        hidden_dim = int(rng.integers(1, embed_dim + 1))
        model = GatedAttentionMIL(embed_dim, hidden_dim, int(rng.integers(1, 4)), dropout=0.25)
        model.init_params(rng)
        n_slides = int(rng.integers(1, 4))
        n_valid = int(rng.integers(1, 9))
        pad = int(rng.integers(1, 9))
        x = rng.standard_normal((n_slides, n_valid, embed_dim)).astype(np.float32)
        mask = np.ones((n_slides, n_valid), dtype=bool)
        x_pad = np.concatenate([x, np.zeros((n_slides, pad, embed_dim), dtype=np.float32)],
                               axis=1)
        mask_pad = np.concatenate([mask, np.zeros((n_slides, pad), dtype=bool)], axis=1)
        feat = np.sort(rng.choice(embed_dim, size=hidden_dim, replace=False))
        calls += [lambda m=model, a=x, b=mask, f=feat: m.forward(a, b, f),
                  lambda m=model, a=x_pad, b=mask_pad, f=feat: m.forward(a, b, f)]
        rng.integers(0, 2**31)
    return calls


def _training_step(seed: int) -> None:
    """Forward with dropout and backward of a D=5 model on 8 slides of 3-5 rows."""
    rng = np.random.default_rng(seed)
    model = GatedAttentionMIL(5, 5, 2, dropout=0.25)
    model.init_params(rng)
    x = rng.standard_normal((8, 5, 5)).astype(np.float32)
    mask = np.arange(5) < rng.integers(3, 6, size=8)[:, None]
    x[~mask] = 0.0
    res = model.forward(x, mask, np.arange(5), rng=rng)
    _, d_out = cross_entropy_loss(res.outputs, rng.integers(0, 2, size=8))
    model.backward(res.cache, d_out.astype(np.float32))


def _ignores_matmul_fpe() -> bool | None:
    """np.show_runtime()'s ignore_floating_point_errors_in_matmul, or None
    where it does not print one."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        np.show_runtime()
    found = re.search(r"'ignore_floating_point_errors_in_matmul': (True|False)", text.getvalue())
    return None if found is None else found.group(1) == "True"


def child(repeats: int) -> dict:
    """Run the calls repeats times with warnings as errors; the counts."""
    warnings.simplefilter("error")
    model_module.ensemble_workers = lambda: 2  # the step's bodies on two threads
    calls = collections.Counter()
    hits = {"eval": collections.Counter(), "step": collections.Counter()}

    def run(kind, fn):
        calls[kind] += 1
        try:
            fn()
        except RuntimeWarning as exc:
            hits[kind][_site(exc)] += 1

    for r in range(repeats):
        for forward in _criterion_09_forwards():
            run("eval", forward)
        run("step", lambda: _training_step(r))
    return {"calls": dict(calls), "hits": {k: dict(v) for k, v in hits.items()},
            "ignore_matmul_fpe": _ignores_matmul_fpe()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--children", type=int, default=20)
    parser.add_argument("--repeats", type=int, default=500)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.children < 1 or args.repeats < 1:
        parser.error("--children and --repeats must be >= 1")
    if args.child:
        print(json.dumps(child(args.repeats)))
        return 0

    env = {var: value for var, value in os.environ.items() if var not in BLAS_THREAD_VARS}
    calls = collections.Counter()
    hits = collections.defaultdict(collections.Counter)
    flags = set()
    for i in range(args.children):  # one child at a time
        done = subprocess.run([sys.executable, __file__, "--child", "--repeats",
                               str(args.repeats)], env=env, capture_output=True, text=True,
                              check=True)
        doc = json.loads(done.stdout.splitlines()[-1])
        calls.update(doc["calls"])
        for kind, sites in doc["hits"].items():
            hits[kind].update(sites)
        flags.add(doc["ignore_matmul_fpe"])
        print(f"child {i + 1}/{args.children}: "
              + ", ".join(f"{kind} {sum(doc['hits'][kind].values())} hits in {n} calls"
                          for kind, n in doc["calls"].items()), file=sys.stderr)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}, "
          f"python {sys.version.split()[0]}")
    print(f"ignore_floating_point_errors_in_matmul: {', '.join(map(str, sorted(flags, key=str)))}")
    print(f"{args.children} children x {args.repeats} repeats, BLAS thread variables unset")
    for kind in ("eval", "step"):
        total = sum(hits[kind].values())
        print(f"{kind}: {total} hits in {calls[kind]} calls, "
              f"{1000 * total / calls[kind]:.3f} per thousand")
        for site, count in hits[kind].most_common():
            print(f"  {1000 * count / calls[kind]:.3f} per thousand  {site}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
