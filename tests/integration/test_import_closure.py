"""The import closure of a core solve: numpy plus repro's own solve path.

``import repro`` is paid by every one-shot solve, every executor worker
and every ``repro serve`` start, so the heavy optional subsystems load on
first use only: scipy and networkx with the sparse substrate and MIS,
the planner with ``method="auto"`` / ``strategy="auto"``, and the service,
analysis and baseline layers when they are called.  Each case runs in a
fresh interpreter, since this test session has long since imported them.
This file imports nothing beyond numpy and pytest.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

LAZY_MODULES = (
    "scipy", "networkx", "repro.planner.plan", "repro.planner.model",
    "repro.planner.features", "repro.service", "repro.analysis",
    "repro.baselines",
)

CORE_SOLVES = """
import sys
import repro
import repro.cli
from repro.core.saim import SaimConfig

config = SaimConfig(num_iterations=3, mcs_per_run=10)
report = repro.solve(repro.generate_qkp(12, 0.5, rng=0), config=config, rng=1)
assert report.method == "saim"
problems = [repro.generate_mkp(6, 2, rng=seed) for seed in range(3)]
jobs = repro.fleet_jobs(problems, rng=2, config=config)
batch = repro.solve_many(jobs, strategy="fused")
assert not batch.failed()
"""


def run_python(code: str) -> None:
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr


def test_core_solves_load_no_optional_subsystem():
    run_python(CORE_SOLVES + f"""
loaded = [name for name in {LAZY_MODULES!r} if name in sys.modules]
assert not loaded, loaded
""")


def test_core_solves_run_without_scipy_and_networkx():
    run_python("""
import sys
sys.modules["scipy"] = sys.modules["networkx"] = None
""" + CORE_SOLVES + """
try:
    repro.solve(repro.generate_qkp(12, 0.5, rng=0), config=config,
                backend="chromatic", rng=1)
except ImportError:
    pass
else:
    raise AssertionError("the sparse backend ran without scipy")
""")
