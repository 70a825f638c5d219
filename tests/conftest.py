"""Fixtures shared across the test packages."""

import pytest

from repro.ising import _r1scan


@pytest.fixture(params=["compiled", "numpy"])
def r1_scan(request, monkeypatch):
    """Run the test once per R=1 p-bit scan — the standalone scan and
    the R=1 float64 fused fleet scan alike; "compiled" is the default
    path (the numpy fallback when no compiler is on PATH)."""
    if request.param == "numpy":
        monkeypatch.setattr(_r1scan, "compiled_scan", lambda: None)
    return request.param
