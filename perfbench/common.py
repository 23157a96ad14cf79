"""Shared helpers of the benchmark: statistics, result checks, run records.

Nothing here imports ``repro`` at load time: ``run.py`` decides where the
library comes from (the checkout's ``src``) before the workload modules load.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) of ``values``; 0.0 when empty."""
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else 0.0


def median(values) -> float:
    return percentile(values, 50.0)


def geomean(values) -> float:
    """Geometric mean of positive values; 0.0 when empty."""
    values = [float(v) for v in values]
    if not values:
        return 0.0
    return math.exp(sum(math.log(max(v, 1e-12)) for v in values) / len(values))


# ---------------------------------------------------------------------------
# Result checks
# ---------------------------------------------------------------------------
def results_match(actual, expected) -> bool:
    """A served or computed result equals the dense NumPy reference.

    The tolerance covers summation-order differences only (fp64 inputs).
    """
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    return (
        actual.shape == expected.shape
        and bool(np.all(np.isfinite(actual)))
        and bool(np.allclose(actual, expected, rtol=1e-9, atol=1e-9))
    )


class Sketcher:
    """Fixed random projections of results, so checks need no stored outputs.

    A serving run completes thousands of requests; keeping every output
    until the post-run check would put hundreds of megabytes into the
    benchmark process (and into ``peak_rss_mb``).  Instead the completion
    callback keeps ``out.ravel() @ V``, two seeded Gaussian projections per
    output shape, and the check compares them with the same projections of
    the reference.  A wrong element of size ``e`` moves each projection by
    ``e`` times a Gaussian weight, so a wrong result passes only if both
    weights are ~0.
    """

    def __init__(self, seed: int):
        self._seed = seed
        self._vectors: dict[tuple, np.ndarray] = {}

    def _matrix(self, shape: tuple) -> np.ndarray:
        matrix = self._vectors.get(shape)
        if matrix is None:
            from repro.utils.rng import rng

            size = int(np.prod(shape))
            matrix = rng(self._seed, f"sketch.{shape}").standard_normal((size, 2))
            self._vectors[shape] = matrix
        return matrix

    def sketch(self, out: np.ndarray) -> tuple[tuple, np.ndarray]:
        out = np.asarray(out, dtype=np.float64)
        return out.shape, out.ravel() @ self._matrix(out.shape)

    def matches(self, shape: tuple, sketch: np.ndarray, expected: np.ndarray) -> bool:
        expected = np.asarray(expected, dtype=np.float64)
        if tuple(shape) != expected.shape or not np.all(np.isfinite(sketch)):
            return False
        matrix = self._matrix(expected.shape)
        reference = expected.ravel() @ matrix
        scale = np.abs(expected.ravel()) @ np.abs(matrix)
        return bool(np.all(np.abs(sketch - reference) <= 1e-9 * scale + 1e-12))


# ---------------------------------------------------------------------------
# Process accounting
# ---------------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def stop_children(timeout: float = 10.0) -> None:
    """End every process this run started, and wait for each.

    ``Session.close`` joins the cluster workers; any still alive are
    terminated, then killed.  Creating a shared-memory segment starts the
    multiprocessing resource tracker, a process that would outlive this
    one; stopping it closes its pipe and reaps it.  Workers inherit that
    pipe, so they go first.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def shm_segments() -> set[str]:
    """Names of the shared-memory segments currently on the host."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------
def _commit() -> str:
    """The checkout's git commit, or a digest of ``src`` outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    """What a result needs to be compared: host, versions, seed, commit."""
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "commit": _commit(),
        "argv": sys.argv[1:],
    }


def write_record(name: str, record: dict) -> Path:
    """Write one run's record (JSON) under ``perfbench/results``."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / name
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=float))
    return path
