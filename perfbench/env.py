"""Process set-up shared by the benchmark's entry points: the BLAS thread
limit, the import of slidemil from this checkout's source tree, and the
environment record written into every result."""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# One BLAS thread, within the nproc limit: on a 2-vCPU host shared with other
# tenants, a second BLAS thread makes every GEMM wait for the slower of two
# CPUs and spins while Python runs, which widened run-to-run spread.
BLAS_THREADS = 1


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> None:
    """Set the BLAS thread count; only takes effect before numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("limit_blas_threads must run before numpy is imported")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, usable_cpus()))


def import_slidemil():
    """Import slidemil from ROOT/src, never from an installed copy; exit 2 if absent."""
    init = SRC / "slidemil" / "__init__.py"
    if not init.is_file():
        sys.stderr.write(f"error: no slidemil source tree under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import slidemil

    if Path(slidemil.__file__).resolve() != init.resolve():
        sys.stderr.write(f"error: imported slidemil from {slidemil.__file__}, not {init}\n")
        raise SystemExit(2)
    return slidemil


def _git_commit() -> str | None:
    """HEAD of ROOT/.git read directly, so an enclosing repository is never consulted."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "slidemil").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment_record(corpus: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "corpus": corpus,
    }
