"""Shared plumbing of the perfbench workloads.

Environment pinning, the host fingerprint, order statistics and the
result record every workload fills.  Nothing here imports ``repro``:
the runner pins the environment before numpy is first imported.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: numpy's threaded OpenBLAS would oversubscribe a 2-CPU host, and a
#: host-calibrated perf model under ~/.cache/repro could switch solve
#: paths between runs; both are pinned for the bench and its children.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_PERF_MODEL": "",
}
#: Knobs of the older benchmark scripts that must not leak into this one.
IGNORED_ENV = ("REPRO_SCALE", "REPRO_WORKERS")


def pin_environment(env=None) -> dict:
    """Apply :data:`PINNED_ENV` and drop :data:`IGNORED_ENV` in ``env``
    (``os.environ`` by default); returns ``env``."""
    env = os.environ if env is None else env
    env.update(PINNED_ENV)
    for name in IGNORED_ENV:
        env.pop(name, None)
    return env


def child_env() -> dict:
    """Environment for a subprocess that imports ``repro`` from ``src/``."""
    env = pin_environment(dict(os.environ))
    env["PYTHONPATH"] = str(SRC_DIR)
    return env


def import_repro():
    """Make ``src/`` importable; exits with code 2 when it is missing
    (a checkout holding only the benchmark cannot measure anything)."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC_DIR}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import repro

    return repro


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_fingerprint() -> dict:
    """nproc, Python, numpy, BLAS name/version and git commit."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas_id = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_id,
        "commit": _git_commit(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Order statistics
# ---------------------------------------------------------------------------

#: A tail is the highest percentile with at least this many samples beyond.
TAIL_BEYOND = 10


def median(values) -> float:
    """Median of a non-empty sequence (mean of the middle pair)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def tail(values) -> tuple[float, float]:
    """``(value, percentile)`` of the highest order statistic that still
    has :data:`TAIL_BEYOND` samples above it (the minimum when there are
    fewer samples than that)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("tail of no samples")
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return float(ordered[index]), 100.0 * (index + 1) / len(ordered)


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

#: Time of :func:`yardstick` on the reference host (2-vCPU x86-64 VM,
#: Python 3.11, numpy 2.4) in a quiet phase.
YARDSTICK_NOMINAL_S = 0.0055
#: Yardstick samples nearest a timing that set its scale.
YARDSTICK_WINDOW = 5


def yardstick() -> float:
    """Seconds of a fixed interpreter-loop plus small-numpy kernel, the
    same mix of work the solvers do."""
    import time

    import numpy as np

    matrix = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
    start = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i % 7
    x = matrix
    for _ in range(200):
        x = np.tanh(x @ matrix * 0.01)
    return time.perf_counter() - start


class HostSpeed:
    """Yardstick samples taken next to the timed operations of a run.

    The sandbox this benchmark was built on drifts in speed by up to
    ~60% over minutes (every kernel slows together), which would bury a
    10% change in the program under run-to-run noise.  Every timing is
    therefore reported at the nominal host speed:
    ``raw * YARDSTICK_NOMINAL_S / median(nearby yardstick samples)``.
    The yardstick never changes between commits, so a faster or slower
    program still moves the scaled figures one for one.  Samples are
    taken while the benchmarked program is idle (between operations, or
    in the service's gaps between requests), so its own load never
    slows them.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (taken at, seconds)

    def sample(self) -> None:
        import time

        taken = time.perf_counter()
        self.samples.append((taken, yardstick()))

    def scale_at(self, when: float) -> float:
        """Factor turning a raw time measured at ``when`` into nominal
        seconds, from the nearest yardstick samples."""
        if not self.samples:
            raise ValueError("no yardstick samples")
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - when))
        return YARDSTICK_NOMINAL_S / median(
            [s[1] for s in nearest[:YARDSTICK_WINDOW]])

    def scale(self) -> float:
        """Typical factor of the run (median over its samples)."""
        return YARDSTICK_NOMINAL_S / median([s[1] for s in self.samples])


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

class Result:
    """Metrics, sample counts, operation accounting and failed checks of
    one workload run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        if note:
            self.notes[name] = note

    def put_timing(self, names: tuple[str, str], samples, unit: str,
                   scale: float = 1.0, what: str = "") -> None:
        """Median and tail of ``samples`` under ``names``."""
        if not samples:
            return
        value, pct = tail(samples)
        self.put(names[0], scale * median(samples), unit,
                 f"median of {len(samples)} {what}".rstrip())
        self.put(names[1], scale * value, unit,
                 f"p{pct:.0f} of {len(samples)} {what}, "
                 f"{len(samples) - round(pct * len(samples) / 100)} beyond")

    def op(self, ok: bool) -> None:
        """Count one attempted operation (failed when ``ok`` is false)."""
        self.attempted += 1
        if not ok:
            self.failed += 1

    def check(self, ok: bool, message: str) -> bool:
        """Record an output check; a failure is kept for the report."""
        if not ok:
            self.check_failures.append(message)
        return ok

    @property
    def correct(self) -> bool:
        return not self.check_failures and self.failed == 0
