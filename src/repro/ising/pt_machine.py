"""Parallel tempering exposed through the programmable-IM interface.

Combining the paper's two worlds: SAIM's outer multiplier loop with a
replica-exchange sampler as the inner minimizer (what "SAIM on a Digital
Annealer in PT mode" would look like).  ``PTMachine`` adapts
:func:`repro.ising.parallel_tempering.parallel_tempering` to the
``set_fields`` / ``anneal`` surface that
:class:`~repro.core.engine.SaimEngine` drives, reading out the coldest replica's state as the per-iteration sample.
"""

from __future__ import annotations

import numpy as np

from repro.ising.backend import resolve_dtype
from repro.ising.model import IsingModel
from repro.ising.parallel_tempering import parallel_tempering
from repro.ising.pbit import AnnealResult
from repro.utils.rng import ensure_rng


class PTMachine:
    """A replica-exchange "machine" with the programmable-IM interface.

    Parameters
    ----------
    model:
        Hamiltonian to sample (fields reprogrammable via ``set_fields``).
    rng:
        Seed or generator.
    num_replicas / beta_min:
        Temperature-ladder shape; the ladder's cold end is taken from each
        ``anneal`` call's schedule maximum, so SAIM's beta_max is honored.
    read_out:
        ``"cold"`` — the coldest replica's final state (the closest
        analogue of the paper's "last sample" read-out) or ``"best"`` —
        the lowest-energy state seen anywhere.
    dtype:
        Coefficient *storage* precision (``"float64"`` / ``"float32"``).
        The PT sampler itself computes in float64 over the stored — i.e.
        float32-rounded — coefficients, matching the storage-dtype
        semantics of the batched machines.
    """

    def __init__(self, model: IsingModel, rng=None, num_replicas: int = 8,
                 beta_min: float = 0.1, read_out: str = "cold", dtype=None):
        if read_out not in ("cold", "best"):
            raise ValueError(f"read_out must be 'cold' or 'best', got {read_out!r}")
        self._dtype = resolve_dtype(dtype)
        self._coupling = np.asarray(model.coupling, dtype=self._dtype)
        self._fields = np.asarray(model.fields, dtype=self._dtype).copy()
        self._offset = model.offset
        self._rng = ensure_rng(rng)
        self._num_replicas = num_replicas
        self._beta_min = beta_min
        self._read_out = read_out

    @property
    def num_spins(self) -> int:
        """Number of spins."""
        return self._fields.size

    @property
    def dtype(self) -> np.dtype:
        """Coefficient storage precision of the machine."""
        return self._dtype

    @property
    def model(self) -> IsingModel:
        """Current Hamiltonian."""
        return IsingModel(self._coupling, self._fields.copy(), self._offset)

    def set_fields(self, fields, offset: float | None = None) -> None:
        """Reprogram the linear fields (and optionally the offset).

        One cast, one copy, into the machine-owned buffer (the caller may
        reuse its ``fields`` array across calls).
        """
        fields = np.asarray(fields)
        if fields.shape != self._fields.shape:
            raise ValueError(
                f"fields must have shape {self._fields.shape}, got {fields.shape}"
            )
        self._fields[...] = fields
        if offset is not None:
            self._offset = float(offset)

    def anneal(self, beta_schedule, initial=None) -> AnnealResult:
        """One PT pass; sweeps = schedule length, cold beta = schedule max.

        ``initial`` is accepted for interface parity but ignored — PT owns
        its replica initialization.
        """
        betas = np.asarray(beta_schedule, dtype=float)
        if betas.ndim != 1 or betas.size == 0:
            raise ValueError("beta_schedule must be a non-empty 1-D sequence")
        beta_max = float(betas.max())
        if beta_max <= self._beta_min:
            beta_max = self._beta_min * 10.0
        result = parallel_tempering(
            self.model,
            num_sweeps=betas.size,
            num_replicas=self._num_replicas,
            beta_min=self._beta_min,
            beta_max=beta_max,
            rng=self._rng,
        )
        if self._read_out == "cold":
            last_sample = result.replica_samples[0]
            last_energy = float(result.replica_energies[0])
        else:
            last_sample = result.best_sample
            last_energy = result.best_energy
        return AnnealResult(
            last_sample=np.asarray(last_sample, dtype=float),
            last_energy=last_energy,
            best_sample=np.asarray(result.best_sample, dtype=float),
            best_energy=result.best_energy,
            num_sweeps=betas.size,
        )
