"""SHA-256 of every artifact of four small CLI pipelines.

    python3 tools/artifact_digests.py > digests.txt

Runs synth -> fingerprint -> plan -> train -> predict -> evaluate ->
reject-curve in-process (slidemil.cli.main, imported from the src/ beside
this file) for classification, regression, survival, and classification
trained in the full_bag_batch1 mode, each on a fixed 40-bag corpus (D=40,
H=16, S=4, 4 epochs) in a temporary directory, and prints one
"sha256  pipeline/step/file" line per file the commands write, sorted by
path. run_manifest.json is left out: it records times and paths. Run it on two
checkouts and diff the output to check that a change leaves every artifact
byte-identical. It reads no network and takes a few seconds.

The bytes must not depend on the worker count (slidemil.model.
ensemble_workers) either. For a change to the training step or the window
ensemble, run it twice on each checkout, once with every BLAS thread
variable unset (one worker) and once with one BLAS thread (a worker per
CPU, two on a 2-CPU host), and diff each run against the same setting at
the parent commit:

    env -u OPENBLAS_NUM_THREADS -u MKL_NUM_THREADS -u OMP_NUM_THREADS \\
        python3 tools/artifact_digests.py > one-worker.txt
    OPENBLAS_NUM_THREADS=1 python3 tools/artifact_digests.py > workers.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from slidemil import cli  # noqa: E402

PLAN = ("hidden_dim=16", "stride=4", "max_epochs=4")
PIPELINES = {
    "classification": ({"task": "classification"}, ()),
    "regression": ({"task": "regression"}, ()),
    "survival": ({"task": "survival"}, ()),
    "full_bag_batch1": ({"task": "classification"}, ("training_mode=full_bag_batch1",)),
}


def _run(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"slidemil {' '.join(argv)} exited with {code}")


def run_pipeline(root: Path, spec_fields: dict, overrides: tuple) -> None:
    spec = root / "spec.json"
    spec.write_text(json.dumps({"n_bags": 40, "patches_per_bag_range": [20, 60],
                                "embed_dim": 40, "seed": 7, **spec_fields}),
                    encoding="utf-8")
    data, manifest = root / "data", str(root / "data" / "manifest.json")
    _run("synth", "--spec", str(spec), "--out", str(data))
    _run("fingerprint", "--manifest", manifest, "--data-dir", str(data),
         "--out", str(root / "fp"))
    _run("plan", "--fingerprint", str(root / "fp" / "fingerprint.json"),
         *(arg for o in PLAN + overrides for arg in ("--override", o)),
         "--out", str(root / "plan"))
    _run("train", "--manifest", manifest, "--data-dir", str(data),
         "--config", str(root / "plan" / "config.json"), "--out", str(root / "train"))
    _run("predict", "--manifest", manifest, "--data-dir", str(data),
         "--checkpoint", str(root / "train" / "checkpoint.ckpt"), "--out", str(root / "pred"))
    predictions = str(root / "pred" / "predictions.jsonl")
    _run("evaluate", "--manifest", manifest, "--predictions", predictions,
         "--out", str(root / "eval"))
    _run("reject-curve", "--manifest", manifest, "--predictions", predictions,
         "--out", str(root / "rej"))


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="artifact-digests-") as tmp:
        tmp = Path(tmp)
        for name, (spec_fields, overrides) in PIPELINES.items():
            (tmp / name).mkdir()
            run_pipeline(tmp / name, spec_fields, overrides)
        for path in sorted(p for p in tmp.rglob("*") if p.is_file()):
            if path.name not in ("run_manifest.json", "spec.json"):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.relative_to(tmp).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
