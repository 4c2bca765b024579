"""Seeded benchmark corpora.

A corpus is written by slidemil.synthetic.write_synthetic_dataset in a child
process, so its memory never counts toward the measured process's peak RSS.
It is cached under .perfbench/corpus by (spec, seed) and every file is checked
against its recorded SHA-256 before reuse. Only the newest seed of each
workload is kept, which bounds the disk the cache uses.

Run as a script it is that child: corpus.py --workload NAME --seed N --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import env
from workloads import WORKLOADS, Workload

RECORD = "corpus.sha256.json"
GENERATE_TIMEOUT_S = 300


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


def _cache_key(workload: Workload, seed: int) -> str:
    doc = json.dumps({"spec": workload.spec, "seed": seed}, sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def _file_digests(directory: Path) -> dict[str, str]:
    return {p.name: _sha256_file(p) for p in sorted(directory.iterdir())
            if p.is_file() and p.name != RECORD}


def _summary(digests: dict[str, str], directory: Path) -> dict:
    listing = "".join(f"{name} {digest}\n" for name, digest in sorted(digests.items()))
    return {"sha256": hashlib.sha256(listing.encode()).hexdigest(),
            "files": len(digests),
            "bytes": sum((directory / name).stat().st_size for name in digests)}


def prepare(workload: Workload, seed: int) -> tuple[Path, dict]:
    """Return (corpus dir, record) for this workload and seed, generating it if needed."""
    key = _cache_key(workload, seed)
    cache = env.WORK / "corpus"
    target = cache / f"{workload.name}-{seed}-{key}"
    t0 = time.perf_counter()
    if (target / RECORD).is_file():
        recorded = json.loads((target / RECORD).read_text())
        if recorded.get("key") == key and _file_digests(target) == recorded["digests"]:
            info = {**_summary(recorded["digests"], target), "generated": False,
                    "generate_s": recorded["generate_s"],
                    "verify_s": time.perf_counter() - t0}
            return target, info

    cache.mkdir(parents=True, exist_ok=True)
    for stale in cache.glob(f"{workload.name}-*"):
        shutil.rmtree(stale)
    tmp = cache / f"{workload.name}-{seed}-{key}.tmp"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
                    "--seed", str(seed), "--out", str(tmp)],
                   check=True, timeout=GENERATE_TIMEOUT_S, stdout=subprocess.DEVNULL)
    generate_s = time.perf_counter() - t0
    digests = _file_digests(tmp)
    (tmp / RECORD).write_text(json.dumps({"key": key, "seed": seed, "spec": workload.spec,
                                          "generate_s": generate_s, "digests": digests},
                                         indent=1, sort_keys=True))
    tmp.rename(target)
    return target, {**_summary(digests, target), "generated": True,
                    "generate_s": generate_s, "verify_s": 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write one benchmark corpus")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    env.import_slidemil()
    from slidemil.synthetic import SyntheticSpec, write_synthetic_dataset

    spec = SyntheticSpec(seed=args.seed, **WORKLOADS[args.workload].spec)
    write_synthetic_dataset(spec, args.out)
    # flush to disk now, so writeback does not run during the measured phase
    for path in Path(args.out).iterdir():
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
