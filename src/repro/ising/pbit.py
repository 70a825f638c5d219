"""Software emulation of a probabilistic-bit (p-bit) Ising machine.

Implements Section III-B of the paper.  Each p-bit ``m_i = ±1`` receives the
input (eq. 9)::

    I_i = sum_j J_ij m_j + h_i

and updates to (eq. 10)::

    m_i = sign( tanh(beta * I_i) + U(-1, 1) )

Sequentially sweeping the p-bits is Gibbs sampling of the Boltzmann
distribution ``P(m) ~ exp(-beta * H(m))`` (eq. 11).  To find low-energy
states the machine is annealed with a beta schedule (linear ``0 -> beta_max``
in the paper), and — exactly as in the paper — the *last* sample of a run is
what the surrounding algorithm reads out.

The machine implements the :class:`repro.ising.backend.AnnealingBackend`
protocol; :meth:`PBitMachine.anneal_many` is the canonical entry point.
Every replica count — **including R = 1** — runs the lock-step
speculative-block kernel of :mod:`repro.ising._lockstep`: the noise of a
chunk of sweeps is drawn in one call and folded into per-update acceptance
*thresholds* (one comparison per p-bit instead of a tanh per p-bit; the
chunked draw holds exactly the per-sweep numbers, in order), within a
block only the block-local couplings are corrected incrementally, and
each block's accumulated flips hit the global input fields as a single
BLAS matmul.  At R = 1 the
threshold test ``I_i >= -atanh(u_i) / beta`` consumes the *same noise
stream in the same order* as the historical per-spin python scan and is
the exact algebraic rearrangement of eq. 10, so the trajectory is the
same Gibbs chain — just computed by blocks instead of a python loop per
spin.  At R = 1 and float64 the in-block event loop runs compiled
(:mod:`repro.ising._r1scan`, C built on first use with the host's ``cc``
and called through ctypes); numpy still draws the noise, applies the
block-end BLAS updates and computes the energies (once per chunk, from
per-sweep snapshots), so results are bit-identical to the numpy scan,
which runs instead when the library cannot be built or loaded
(``repro.ising._lockstep.r1_scan_info()`` says which).  ``kernel="serial"`` is the escape hatch back to the
retired pure-python reference scan (useful for parity tests and as the
ground-truth spelling of eq. 10).

The expensive coupling-only preparation (contiguous dtype cast + block
decomposition) is built once per machine as an
:class:`repro.ising._lockstep.AnnealProgram` and reused across
``set_fields`` calls — SAIM's K outer iterations reprogram fields into a
standing program instead of paying the O(N^2) setup each time.

The ``dtype`` knob selects the coefficient storage / scan precision
(``"float64"`` default, ``"float32"`` for the big-R fast path); energies are
always accumulated in float64, so integer-weight models report exact
energies at either precision.
"""

from __future__ import annotations

import math

import numpy as np

from repro.ising._lockstep import (
    AnnealProgram,
    lockstep_anneal,
    pbit_thresholds,
    threshold_decide,
)
from repro.ising.backend import (
    AnnealResult,
    BatchAnnealResult,
    batch_from_runs,
    resolve_dtype,
)
from repro.ising.energy import ising_energy
from repro.ising.model import IsingModel
from repro.utils.rng import ensure_rng

__all__ = ["AnnealResult", "PBitMachine"]


class PBitMachine:
    """A p-bit Ising machine bound to one :class:`IsingModel`.

    Parameters
    ----------
    model:
        The Hamiltonian to sample from.  The coupling matrix is kept by
        reference; use :meth:`set_fields` to retarget the linear terms
        cheaply (this is how SAIM applies Lagrange-multiplier updates
        without rebuilding the machine).
    rng:
        Seed or generator for the p-bit noise.
    dtype:
        Coefficient storage / batched-scan precision, ``"float64"`` or
        ``"float32"``.  All energy read-outs are float64 regardless.
    kernel:
        ``"lockstep"`` (default) — every replica count, R = 1 included,
        runs the prepared-program block kernel; ``"serial"`` — R = 1 falls
        back to the retired pure-python per-spin reference scan (R > 1 is
        always lock-step).
    """

    KERNELS = ("lockstep", "serial")
    # The registry name engine error messages use for this machine (the
    # default backend, driven directly or through the fused fleet).
    backend_name = "pbit"

    def __init__(self, model: IsingModel, rng=None, dtype=None,
                 kernel: str = "lockstep"):
        if kernel not in self.KERNELS:
            raise ValueError(
                f"kernel must be one of {self.KERNELS}, got {kernel!r}"
            )
        self._dtype = resolve_dtype(dtype)
        self._coupling = np.ascontiguousarray(model.coupling, dtype=self._dtype)
        # Programmed lazily on first lock-step use, then kept for the
        # machine's lifetime (the coupling never changes; SAIM only
        # reprograms fields) — a kernel="serial" machine that never runs
        # the block kernel skips the decomposition cost entirely.
        self._program = None
        self._fields = np.asarray(model.fields, dtype=self._dtype).copy()
        self._offset = model.offset
        self._kernel = kernel
        self._rng = ensure_rng(rng)

    @property
    def num_spins(self) -> int:
        """Number of p-bits."""
        return self._fields.size

    @property
    def dtype(self) -> np.dtype:
        """Coefficient storage precision of the machine."""
        return self._dtype

    @property
    def kernel(self) -> str:
        """R = 1 kernel selection (``"lockstep"`` or ``"serial"``)."""
        return self._kernel

    @property
    def program(self) -> AnnealProgram:
        """The machine's standing :class:`AnnealProgram` (built on first
        lock-step run; the cast coupling is shared, so the build cost is
        the block decomposition only)."""
        if self._program is None:
            self._program = AnnealProgram(self._coupling, dtype=self._dtype)
        return self._program

    @property
    def model(self) -> IsingModel:
        """Current Hamiltonian (couplings shared, fields copied)."""
        return IsingModel(self._coupling, self._fields.copy(), self._offset)

    def adopt_program(self, program: AnnealProgram) -> None:
        """Adopt a prepared :class:`AnnealProgram` for this machine's coupling.

        The service-layer warm path: a long-lived worker keys programs by
        coupling content and hands a cached one to each fresh machine,
        which skips the O(N^2) block decomposition entirely.  The program
        must have been built from a bit-identical coupling at this
        machine's dtype — verified here, because a silently-wrong program
        would anneal the wrong Hamiltonian — and its solve-resident spin
        state is dropped so the adopting solve starts exactly like a
        machine that built its own program (bit-identical trajectories).
        """
        if program.dtype != self._dtype:
            raise ValueError(
                f"program dtype {program.dtype} does not match machine "
                f"dtype {self._dtype}"
            )
        if program.coupling.shape != self._coupling.shape or not np.array_equal(
            program.coupling, self._coupling
        ):
            raise ValueError(
                "program was built for a different coupling matrix"
            )
        # Share the program's cast coupling: one contiguous copy serves
        # every adopter (the values are verified equal above).
        self._coupling = program.coupling
        program.release_residency()
        self._program = program

    def set_fields(self, fields, offset: float | None = None) -> None:
        """Reprogram the linear fields ``h`` (and optionally the offset).

        One cast, one copy: the values land directly in the machine-owned
        buffer, so the caller keeps ownership of ``fields`` and may reuse
        its array across calls (the engine does).
        """
        fields = np.asarray(fields)
        if fields.shape != self._fields.shape:
            raise ValueError(
                f"fields must have shape {self._fields.shape}, got {fields.shape}"
            )
        self._fields[...] = fields
        if offset is not None:
            self._offset = float(offset)

    def random_state(self) -> np.ndarray:
        """Uniform random ±1 spin vector."""
        return self._rng.choice(np.array([-1.0, 1.0]), size=self.num_spins)

    def anneal_many(
        self,
        beta_schedule,
        num_replicas: int,
        initial=None,
        record_energy: bool = False,
    ) -> BatchAnnealResult:
        """Anneal ``num_replicas`` independent replicas in one call.

        Parameters
        ----------
        beta_schedule:
            Inverse temperature per sweep; its length is the number of
            Monte-Carlo sweeps (MCS), shared by every replica.
        num_replicas:
            Number of independent replicas ``R``.
        initial:
            Starting spins of shape ``(R, n)``; random if omitted.
        record_energy:
            Store per-sweep energies in ``energy_traces`` (``(R, sweeps)``).

        Every replica count runs the prepared-program lock-step kernel; a
        machine built with ``kernel="serial"`` routes ``R = 1`` through the
        retired pure-python reference scan instead (same chain, python
        per-spin loop).
        """
        betas = np.asarray(beta_schedule, dtype=float)
        if betas.ndim != 1 or betas.size == 0:
            raise ValueError("beta_schedule must be a non-empty 1-D sequence")
        if num_replicas <= 0:
            raise ValueError(f"num_replicas must be positive, got {num_replicas}")
        n = self.num_spins
        if initial is None:
            states = self._rng.choice(
                np.array([-1.0, 1.0]), size=(num_replicas, n)
            )
        else:
            states = np.array(initial, dtype=float)
            if states.shape != (num_replicas, n):
                raise ValueError(
                    f"initial must have shape ({num_replicas}, {n}), "
                    f"got {states.shape}"
                )
        if num_replicas == 1 and self._kernel == "serial":
            run = self._anneal_serial(betas, states[0], record_energy)
            return batch_from_runs([run])
        return self._anneal_vectorized(betas, states, record_energy)

    def anneal(
        self,
        beta_schedule,
        initial=None,
        record_energy: bool = False,
    ) -> AnnealResult:
        """Run one annealed Gibbs-sampling pass (one "SA run" of the paper).

        This is the ``R = 1`` view of :meth:`anneal_many`.
        """
        if initial is not None:
            initial = np.asarray(initial, dtype=float)
            if initial.shape != (self.num_spins,):
                raise ValueError(
                    f"initial must have shape ({self.num_spins},), "
                    f"got {initial.shape}"
                )
            initial = initial[None, :]
        return self.anneal_many(
            beta_schedule, 1, initial=initial, record_energy=record_energy
        ).per_run(0)

    def _anneal_serial(
        self, betas: np.ndarray, spins: np.ndarray, record_energy: bool
    ) -> AnnealResult:
        """Sequential Gibbs reference kernel (bit-exact legacy path)."""
        n = self.num_spins
        coupling = self._coupling
        spins = np.asarray(spins, dtype=float).copy()

        inputs = coupling @ spins + self._fields
        energy = ising_energy(self.model, spins)
        best_energy = energy
        best_sample = spins.copy()
        trace = np.empty(betas.size) if record_energy else None

        rng = self._rng
        tanh = math.tanh
        for sweep, beta in enumerate(betas):
            noise = rng.uniform(-1.0, 1.0, size=n)
            for i in range(n):
                activation = tanh(beta * inputs[i]) + noise[i]
                new_spin = 1.0 if activation >= 0.0 else -1.0
                old_spin = spins[i]
                if new_spin != old_spin:
                    energy += 2.0 * old_spin * inputs[i]
                    spins[i] = new_spin
                    inputs += coupling[i] * (new_spin - old_spin)
            if energy < best_energy:
                best_energy = energy
                best_sample = spins.copy()
            if record_energy:
                trace[sweep] = energy
        return AnnealResult(
            last_sample=spins,
            last_energy=energy,
            best_sample=best_sample,
            best_energy=best_energy,
            num_sweeps=betas.size,
            energy_trace=trace,
        )

    def _anneal_vectorized(
        self, betas: np.ndarray, states: np.ndarray, record_energy: bool
    ) -> BatchAnnealResult:
        """Lock-step replicas via the shared speculative-block kernel.

        Exactly ``R`` independent sequential-Gibbs chains: every (sweep,
        spin) step updates the same spin index in all replicas from each
        replica's own state and noise.  The Gibbs rule
        ``m_i = sign(tanh(beta I_i) + u)`` is applied as the equivalent
        threshold test ``I_i >= -atanh(u) / beta``; the scan machinery
        (speculative blocks, event-driven corrections, blocked field
        updates) lives in :mod:`repro.ising._lockstep`.
        """
        rng = self._rng
        num_replicas, n = states.shape

        def thresholds_for(chunk):
            noise = rng.uniform(-1.0, 1.0, size=(chunk.size, n, num_replicas))
            return pbit_thresholds(noise, chunk)

        spins, energies, best_spins, best_energies, traces = lockstep_anneal(
            self._coupling, self._fields, self._offset, betas, states,
            thresholds_for, threshold_decide, record_energy=record_energy,
            dtype=self._dtype, program=self.program,
        )
        return BatchAnnealResult(
            last_samples=spins.T.copy(),
            last_energies=energies,
            best_samples=best_spins.T.copy(),
            best_energies=best_energies,
            num_sweeps=betas.size,
            energy_traces=traces,
        )

    def sample_boltzmann(self, beta: float, num_sweeps: int, burn_in: int = 0,
                         initial=None) -> np.ndarray:
        """Collect one sample per sweep at fixed ``beta`` (for tests).

        Returns an array of shape ``(num_sweeps, n)``.  With enough sweeps
        the empirical distribution converges to eq. (11); the test suite uses
        this on tiny models to validate the sampler against the exact
        Boltzmann weights.
        """
        if num_sweeps <= 0:
            raise ValueError(f"num_sweeps must be positive, got {num_sweeps}")
        schedule = np.full(burn_in + num_sweeps, float(beta))
        n = self.num_spins
        coupling = self._coupling
        spins = self.random_state() if initial is None else np.asarray(initial, dtype=float).copy()
        inputs = coupling @ spins + self._fields
        samples = np.empty((num_sweeps, n))
        rng = self._rng
        tanh = math.tanh
        for sweep, beta_t in enumerate(schedule):
            noise = rng.uniform(-1.0, 1.0, size=n)
            for i in range(n):
                activation = tanh(beta_t * inputs[i]) + noise[i]
                new_spin = 1.0 if activation >= 0.0 else -1.0
                old_spin = spins[i]
                if new_spin != old_spin:
                    spins[i] = new_spin
                    inputs += coupling[i] * (new_spin - old_spin)
            if sweep >= burn_in:
                samples[sweep - burn_in] = spins
        return samples
