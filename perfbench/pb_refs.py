"""Fixed instance pools and their stored reference profits.

Every workload draws its inputs from these pools (the ``--seed`` picks
the order, the per-solve seeds and the service's arrival times), so the
reference profits can be computed once, by deterministic code, and kept
in ``references.json`` next to this file.  Regenerate it with::

    python3 perfbench/pb_refs.py

(about five minutes on one core: the n=1000 QKP best-known values alone
take ~6 s each, and HiGHS needs ~1 s per MKP instance).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REFERENCES_PATH = Path(__file__).resolve().parent / "references.json"

#: QKP ``paper_qkp_instance(n, 50, i)`` pools: paper sizes (Tables III-IV)
#: and the n=1000 class on the other side of the kernel crossover.
QKP_DENSITY = 50
QKP_PAPER_SIZES = (100, 200, 300)
QKP_PAPER_INDICES = tuple(range(1, 9))
QKP_LARGE_SIZE = 1000
QKP_LARGE_INDICES = tuple(range(1, 4))

#: Chu-Beasley MKP ``paper_mkp_instance(40, 5, i)``: small instances whose
#: slack spins outnumber the decision spins, one round of batches of these
#: widths covering the pool.
MKP_ITEMS = 40
MKP_CONSTRAINTS = 5
MKP_WIDTHS = (8, 8, 8, 32)
MKP_INDICES = tuple(range(sum(MKP_WIDTHS)))

#: Service requests: n=200 QKP jobs, a small repeated pool (program-cache
#: hits are possible) and fresh instances used once per run (cold builds).
SERVICE_SIZE = 200
SERVICE_POOL_INDICES = tuple(range(1, 7))
SERVICE_FRESH_INDICES = tuple(range(100, 340))


def qkp_name(n: int, index: int) -> str:
    return f"{n}-{QKP_DENSITY}-{index}"


def mkp_name(items: int, constraints: int, index: int) -> str:
    return f"{items}-{constraints}-{index}"


def load_references() -> dict:
    """``{"qkp": {name: profit}, "mkp": {name: profit}}``."""
    return json.loads(REFERENCES_PATH.read_text())


def compute_references(progress=None) -> dict:
    """Best-known QKP profits (``reference_qkp_optimum``, rng=0) and
    exact MKP optima (``solve_mkp_exact``) for every pooled instance."""
    from repro import paper_mkp_instance, paper_qkp_instance
    from repro.baselines.exact_qkp import reference_qkp_optimum
    from repro.baselines.milp import solve_mkp_exact

    qkp_keys = [(n, i) for n in QKP_PAPER_SIZES for i in QKP_PAPER_INDICES]
    qkp_keys += [(QKP_LARGE_SIZE, i) for i in QKP_LARGE_INDICES]
    qkp_keys += [(SERVICE_SIZE, i)
                 for i in SERVICE_POOL_INDICES + SERVICE_FRESH_INDICES]
    qkp = {}
    for n, index in qkp_keys:
        name = qkp_name(n, index)
        if name not in qkp:
            instance = paper_qkp_instance(n, QKP_DENSITY, index)
            qkp[name] = reference_qkp_optimum(instance, rng=0)
            if progress:
                progress(name)
    mkp = {}
    for index in MKP_INDICES:
        instance = paper_mkp_instance(MKP_ITEMS, MKP_CONSTRAINTS, index)
        name = mkp_name(MKP_ITEMS, MKP_CONSTRAINTS, index)
        mkp[name] = solve_mkp_exact(instance).profit
        if progress:
            progress(name)
    return {"qkp": qkp, "mkp": mkp}


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from pb_common import import_repro, pin_environment

    pin_environment()
    import_repro()
    references = compute_references(
        progress=lambda name: print(name, flush=True)
    )
    REFERENCES_PATH.write_text(json.dumps(references, indent=1,
                                          sort_keys=True) + "\n")
    print(f"wrote {REFERENCES_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
