"""Ising-machine substrate: models, energies, and samplers.

This subpackage is the "hardware" layer of the reproduction.  It provides the
Ising/QUBO model containers, exact energy evaluation, and the three samplers
used in the paper's evaluation:

- :class:`~repro.ising.pbit.PBitMachine` — the probabilistic-bit Ising
  machine of Section III-B (sequential Gibbs sweeps with annealing); this is
  the solver SAIM drives.
- :func:`~repro.ising.sa.simulated_annealing` — Metropolis simulated
  annealing, the engine behind the penalty-method baselines.
- :func:`~repro.ising.parallel_tempering.parallel_tempering` — a
  replica-exchange sampler standing in for Fujitsu's Digital Annealer
  parallel-tempering mode (PT-DA).
"""

from repro.ising.model import IsingModel, QuboModel
from repro.ising.backend import (
    AnnealingBackend,
    BatchAnnealResult,
    batch_from_runs,
    dispatch_anneal_many,
)
from repro.ising.energy import (
    ising_energy,
    ising_energies,
    qubo_energy,
    qubo_energies,
)
from repro.ising.pbit import PBitMachine, AnnealResult
from repro.ising.sa import simulated_annealing, SAResult, MetropolisMachine
from repro.ising.parallel_tempering import parallel_tempering, PTResult
from repro.ising.exhaustive import brute_force_ground_state, enumerate_energies
from repro.ising.quantization import (
    QuantizationSpec,
    QuantizedPBitMachine,
    quantize_ising,
    quantization_error,
)
from repro.ising.fleet import FleetAnnealResult, FleetMachine, FleetProgram
from repro.ising.pt_machine import PTMachine
from repro.ising.qubo_io import write_qubo, read_qubo
from repro.ising.higher_order import (
    PolyIsingModel,
    HigherOrderPBitMachine,
    enumerate_poly_energies,
)

# The sparse substrate imports scipy and networkx, which no dense solve
# needs; resolve its names on first use so `import repro` stays light.
_SPARSE_EXPORTS = ("SparseIsingModel", "ChromaticPBitMachine",
                   "greedy_coloring", "random_sparse_ising")


def __getattr__(name):
    if name in _SPARSE_EXPORTS:
        from repro.ising import sparse as _sparse

        value = getattr(_sparse, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AnnealingBackend",
    "BatchAnnealResult",
    "batch_from_runs",
    "dispatch_anneal_many",
    "QuantizationSpec",
    "QuantizedPBitMachine",
    "quantize_ising",
    "quantization_error",
    "SparseIsingModel",
    "ChromaticPBitMachine",
    "greedy_coloring",
    "random_sparse_ising",
    "FleetAnnealResult",
    "FleetMachine",
    "FleetProgram",
    "PTMachine",
    "write_qubo",
    "read_qubo",
    "PolyIsingModel",
    "HigherOrderPBitMachine",
    "enumerate_poly_energies",
    "IsingModel",
    "QuboModel",
    "ising_energy",
    "ising_energies",
    "qubo_energy",
    "qubo_energies",
    "PBitMachine",
    "AnnealResult",
    "simulated_annealing",
    "SAResult",
    "MetropolisMachine",
    "parallel_tempering",
    "PTResult",
    "brute_force_ground_state",
    "enumerate_energies",
]
