"""Compiled in-block event loop of the ``R = 1`` p-bit scan (C via ctypes).

The numpy ``R = 1`` scan in :mod:`repro.ising._lockstep` pays a Python
round trip (``decide`` + ``nonzero``) at every p-bit flip.  This module
moves exactly that loop into a few lines of C and nothing else: numpy
keeps the noise and threshold draw (a chunk of sweeps per call), the
block-end ``inputs += cols @ deltas`` BLAS update and the float64
energies (a chunk of sweeps per call, from per-sweep snapshots), so the
arithmetic that fixes a trajectory is computed by the same calls on the
same values.

Inside a block the C loop does what the numpy scan does, in the same
order and with the same IEEE operations: it copies the block's inputs,
applies ``target = local[j] >= thr[j] ? 1 : -1`` and ``delta = target -
spin``, and corrects later spins of the block with ``local[k] = local[k]
+ J[j, k] * delta`` (a rounded product, then a rounded sum — the library
is built with ``-ffp-contract=off`` and without fast-math, so no fused
multiply-add merges the two).  Decisions therefore match bit for bit.

One call scans blocks from a start index and returns at the first block
that flipped, with that block's deltas in a buffer; Python applies the
block's BLAS update and resumes at the next block.  Flip-free blocks cost
no Python at all.

Both callers hand it a whole chunk of threshold rows at once
(:meth:`CompiledSweep.sweeps`): the standalone ``R = 1`` anneal and each
instance of an ``R = 1`` float64 fused fleet anneal
(:mod:`repro.ising.fleet`).

The library is built lazily, on the first ``R = 1`` float64 p-bit anneal,
standalone or fused (never at import), with the host's ``cc``.  The
shared object is cached under ``~/.cache/repro`` keyed by a hash of the C
source, the compiler flags and the platform, and is written to a temp
file then moved into place with ``os.replace``, so concurrent builders
never load a partial file.  A missing compiler, a failed build or a
library that will not load leaves the numpy scan in charge;
:func:`r1_scan_info` says which scan runs and, for the fallback, why.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np

SOURCE = r"""
#include <stdint.h>

int64_t r1_scan(int64_t n, int64_t block, int64_t i0,
                const double *coupling, const double *inputs,
                const double *thr, double *spins, double *deltas,
                int64_t *flips)
{
    double local[block];
    for (; i0 < n; i0 += block) {
        int64_t size = n - i0 < block ? n - i0 : block;
        int64_t count = 0;
        for (int64_t k = 0; k < size; k++)
            local[k] = inputs[i0 + k];
        for (int64_t j = 0; j < size; j++) {
            double target = local[j] >= thr[i0 + j] ? 1.0 : -1.0;
            double delta = target - spins[i0 + j];
            deltas[j] = delta;
            if (delta == 0.0)
                continue;
            spins[i0 + j] += delta;
            count++;
            const double *row = coupling + (i0 + j) * n + i0;
            for (int64_t k = j + 1; k < size; k++)
                local[k] = local[k] + row[k] * delta;
        }
        if (count) {
            *flips += count;
            return i0;
        }
    }
    return n;
}
"""

FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def cache_dir() -> Path:
    """Directory of the cached shared objects (shared with the planner)."""
    return Path.home() / ".cache" / "repro"


def library_name() -> str:
    """File name of the shared object: hash of source, flags, platform."""
    key = "\0".join(
        (SOURCE, *FLAGS, sys.platform, platform.machine())
    ).encode()
    return f"r1scan-{hashlib.sha256(key).hexdigest()[:16]}.so"


def _compile(cc: str, target: Path) -> None:
    """Build the library at ``target`` via a temp file + ``os.replace``."""
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".so.tmp")
    os.close(fd)
    try:
        subprocess.run(
            [cc, *FLAGS, "-x", "c", "-", "-o", tmp],
            input=SOURCE, capture_output=True, text=True, check=True,
            timeout=120,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(path: Path):
    """Load the library and declare the scan's signature."""
    scan = ctypes.CDLL(str(path)).r1_scan
    scan.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 6
    scan.restype = ctypes.c_int64
    return scan


def _load():
    """Build (when needed) and load the scan; ``(scan | None, info)``."""
    cc = shutil.which("cc")
    if cc is None:
        return None, "numpy: no C compiler (cc) on PATH"
    path = cache_dir() / library_name()
    try:
        built = not path.exists()
        if built:
            path.parent.mkdir(parents=True, exist_ok=True)
            _compile(cc, path)
        try:
            return _open(path), "compiled"
        except (OSError, AttributeError):
            if built:
                raise
            # A stale or garbage cached file: rebuild it once.
        _compile(cc, path)
        return _open(path), "compiled"
    except subprocess.CalledProcessError as exc:
        errors = [line for line in (exc.stderr or "").splitlines()
                  if "error" in line]
        return None, f"numpy: compile failed: {errors[0] if errors else exc}"
    except (OSError, AttributeError, subprocess.SubprocessError) as exc:
        return None, f"numpy: {type(exc).__name__}: {exc}"


_lock = threading.Lock()
_loaded: tuple | None = None


def compiled_scan():
    """The loaded C scan function, or ``None`` when the numpy scan runs.

    Builds and loads on the first call of the process; later calls return
    the same outcome.
    """
    global _loaded
    with _lock:
        if _loaded is None:
            _loaded = _load()
        return _loaded[0]


def r1_scan_info() -> str:
    """``"compiled"``, ``"numpy: <reason>"`` or ``"not loaded"`` before
    the first ``R = 1`` float64 p-bit anneal, standalone or fused (see
    :func:`repro.ising._lockstep.r1_scan_info`)."""
    loaded = _loaded
    return "not loaded" if loaded is None else loaded[1]


def _checked(array: np.ndarray, size: int, dtype, written=False) -> int:
    """Address of ``array`` after checking dtype, contiguity and size
    (and that it is writeable, when C writes to it)."""
    flags = array.flags
    if (
        array.dtype != dtype
        or not flags.c_contiguous
        or array.size != size
        or (written and not flags.writeable)
    ):
        raise ValueError(
            f"compiled scan needs a C-contiguous {np.dtype(dtype)} array of "
            f"{size} elements{', writeable' if written else ''}, got "
            f"{array.dtype} shape {array.shape} (contiguous="
            f"{flags.c_contiguous}, writeable={flags.writeable})"
        )
    return array.ctypes.data


class CompiledSweep:
    """Runs the ``R = 1`` p-bit sweeps of one anneal through the C scan.

    Holds the anneal's fixed buffers — the program's coupling, the
    maintained ``inputs`` and the ``spins`` (both updated in place) — and
    checks them once, so :meth:`sweeps` only checks a chunk of threshold
    tables, once per chunk.  The buffers stay referenced here while C
    holds their addresses.
    """

    def __init__(self, scan, program, inputs: np.ndarray, spins: np.ndarray,
                 block: int):
        n = program.num_spins
        self._scan = scan
        self._block = block
        self._program = program
        self._inputs = inputs
        self._spins = spins
        self._deltas = np.zeros(block)
        self._flips = np.zeros(1, dtype=np.int64)
        self._coupling_at = _checked(program.coupling, n * n, np.float64)
        self._inputs_at = _checked(inputs, n, np.float64, written=True)
        self._spins_at = _checked(spins, n, np.float64, written=True)
        self._deltas_at = self._deltas.ctypes.data
        self._flips_at = self._flips.ctypes.data

    @property
    def flips(self) -> int:
        """Spin flips applied so far by this anneal's sweeps."""
        return int(self._flips[0])

    def sweeps(self, table: np.ndarray):
        """An iterator whose ``next`` runs the sweep at the next row of a
        ``(sweeps, n)`` float64 threshold table.

        The table is checked once, here — dtype, shape and C-contiguous
        rows (the row stride may skip padding) — instead of once per
        sweep, and the iterator keeps it referenced while C reads it.
        """
        n = self._program.num_spins
        itemsize = np.dtype(np.float64).itemsize
        if (
            table.dtype != np.float64
            or table.ndim != 2
            or table.shape[1] != n
            or (n > 1 and table.strides[1] != itemsize)
        ):
            raise ValueError(
                f"compiled scan needs a (sweeps, {n}) float64 table with "
                f"C-contiguous rows, got {table.dtype} shape {table.shape} "
                f"strides {table.strides}"
            )
        base, stride = table.ctypes.data, table.strides[0]
        return (self._run(base + k * stride) for k, _ in enumerate(table))

    def _run(self, thresholds_at: int) -> None:
        """The sweep at a checked threshold table address."""
        n = self._program.num_spins
        block = self._block
        args = (
            self._coupling_at, self._inputs_at, thresholds_at,
            self._spins_at, self._deltas_at, self._flips_at,
        )
        scan = self._scan
        col_blocks = self._program.col_blocks
        i0 = scan(n, block, 0, *args)
        while i0 < n:
            cols = col_blocks[i0 // block]
            self._inputs += cols @ self._deltas[:cols.shape[1]]
            i0 = scan(n, block, i0 + block, *args)
