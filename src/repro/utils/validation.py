"""Argument validation shared across the library.

Solvers validate inputs once at their public boundary and use plain numpy
inside hot loops; these helpers keep the error messages uniform.
"""

from __future__ import annotations

import numpy as np


def check_binary_vector(x, n: int | None = None, name: str = "x") -> np.ndarray:
    """Return ``x`` as an int8 0/1 vector, raising on anything else."""
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if n is not None and arr.size != n:
        raise ValueError(f"{name} must have length {n}, got {arr.size}")
    values = np.unique(arr)
    if not np.all(np.isin(values, (0, 1))):
        raise ValueError(f"{name} must be binary (0/1), found values {values[:5]}")
    return arr.astype(np.int8)


def check_square_symmetric(matrix, name: str = "J", atol: float = 1e-9) -> np.ndarray:
    """Return ``matrix`` as a float array, verifying it is square symmetric."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    # The exact test settles the usual case without allclose's n x n
    # temporaries; both reject NaN, so the accept set is allclose's.
    if not (np.array_equal(arr, arr.T) or np.allclose(arr, arr.T, atol=atol)):
        raise ValueError(f"{name} must be symmetric")
    return arr


def check_positive(value: float, name: str) -> float:
    """Raise unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return float(value)


def check_non_negative(value: float, name: str) -> float:
    """Raise unless ``value`` is >= 0."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return float(value)
