"""Fused block-diagonal multi-instance annealing — one kernel call per fleet.

``solve_many`` parallelises across *processes*; on a one-core container that
honestly measures ~1x.  At the paper's scale (many small/medium QKP/MKP
instances) the real win is algebraic: ``B`` independent Ising models form
one block-diagonal Hamiltonian, so a single lock-step scan can advance all
``B`` chains together and amortise the numpy dispatch overhead that
dominates at small ``N``.  Block-diagonal structure guarantees no
cross-instance rows — the same invariant the chromatic kernel exploits for
color classes (PR 4) — so per-instance trajectories stay *bit-identical* to
annealing each instance alone, provided each instance draws from its own
RNG stream.

Layout
------
Instances are stacked on a shared padded row grid: ``npad`` is the largest
instance size rounded up to the 32-spin block width, and every per-spin
array becomes ``(B, npad, R)``.  Padding rows carry spin ``-1``, threshold
``+inf`` and zero couplings, so they never flip, never consume noise, and
contribute nothing to energies.  Each instance keeps its own
:class:`~repro.ising._lockstep.AnnealProgram` (contiguous dtype cast +
col/sub block decomposition, built once per fleet), reusing the
build-once/``set_fields``-many contract of the single-instance kernel.

Bit-identity contract
---------------------
For every instance ``b``, the fused scan performs *exactly* the arithmetic
of :func:`repro.ising._lockstep.lockstep_anneal` run on instance ``b``
alone with generator ``spawn_rngs(seed, B)[b]``:

- noise is drawn per instance (``(span, n_b, R)`` per chunk of sweeps,
  ``(R, n_b)`` initial states) from that instance's own spawned stream, in
  the same order as a standalone :class:`~repro.ising.pbit.PBitMachine`
  (which draws the same chunks), and folded into thresholds by the same
  :func:`repro.ising._lockstep.pbit_thresholds`;
- at ``R = 1`` and float64, each instance's sweeps run through the
  standalone compiled scan (:class:`repro.ising._r1scan.CompiledSweep`) on
  the instance's own rows, program and threshold rows — literally the
  standalone chain — whenever that library builds and loads;
- otherwise (``R > 1``, float32, or no compiled library) the numpy
  speculative event loop runs over the *union* of flip rows across
  instances; decisions for an instance are unchanged by re-speculation at
  another instance's flip row (its local inputs did not move), so each
  instance sees its own event sequence exactly.  This loop is also the
  test reference of the compiled path;
- block flips hit the global inputs as one 2-D matmul *per flipped
  instance* with the standalone operand shapes (zero-padding a BLAS
  contraction dimension is not bit-safe, so cross-instance stacking is
  reserved for the elementwise event machinery where it is);
- per-instance energies are float64 einsums over the instance's contiguous
  row slice, once per sweep — the standalone ``R > 1`` accounting, shapes
  included, whose values the standalone ``R = 1`` chunk energies equal;
- each instance's ``AnnealProgram.flip_events`` grows by the standalone
  count: spin flips at ``R = 1``, scan steps with a flipping replica at
  ``R > 1``.

The contract is pinned by ``tests/ising/test_fleet.py`` (kernel level) and
``tests/core/test_fleet_engine.py`` (SAIM level), on both scans; it is
what makes ``solve_many(strategy="fused")`` interchangeable with the
process pool.
"""

from __future__ import annotations

import numpy as np

from repro.ising._lockstep import (
    BLOCK,
    AnnealProgram,
    chunk_span,
    pbit_thresholds,
)
from repro.ising.backend import BatchAnnealResult, resolve_dtype
from repro.ising.model import IsingModel
from repro.utils.rng import spawn_rngs

__all__ = ["FleetProgram", "FleetMachine", "FleetAnnealResult"]


class FleetProgram:
    """Once-per-fleet preparation of ``B`` couplings for the fused scan.

    Owns everything that depends only on ``(couplings, dtype)``: one
    :class:`AnnealProgram` per instance (contiguous cast + block
    decomposition) plus the cross-instance stacks the fused event loop
    consumes — per-block ``(B, BLOCK, BLOCK)`` sub-coupling tensors, padded
    packed fields, and per-instance offsets.  Like the single-instance
    program, it is built once and reprogrammed many times: the fleet
    engine's K outer iterations call :meth:`set_fields` per instance and
    never touch couplings.
    """

    def __init__(self, couplings, dtype=None):
        couplings = list(couplings)
        if not couplings:
            raise ValueError("a fleet needs at least one instance")
        self.dtype = resolve_dtype(dtype)
        self.programs = [AnnealProgram(c, dtype=self.dtype) for c in couplings]
        self.sizes = np.array([p.num_spins for p in self.programs])
        if (self.sizes == 0).any():
            raise ValueError("fleet instances must have at least one spin")
        self.num_instances = len(self.programs)
        self.max_spins = int(self.sizes.max())
        self.padded_spins = BLOCK * ((self.max_spins + BLOCK - 1) // BLOCK)
        self.starts = tuple(range(0, self.padded_spins, BLOCK))
        # Per block k: (B, BLOCK, BLOCK) stacked in-block couplings, zero
        # where an instance has no rows in the block — the elementwise
        # speculation corrections batch across instances (bit-safe), the
        # BLAS column updates below do not and stay per-instance.
        self.sub_stacks = []
        for ki, i0 in enumerate(self.starts):
            stack = np.zeros(
                (self.num_instances, BLOCK, BLOCK), dtype=self.dtype
            )
            for b, program in enumerate(self.programs):
                width = min(BLOCK, program.num_spins - i0)
                if width > 0:
                    stack[b, :width, :width] = program.sub_blocks[ki]
            self.sub_stacks.append(stack)
        self.fields = np.zeros(
            (self.num_instances, self.padded_spins), dtype=self.dtype
        )
        self.offsets = np.zeros(self.num_instances)
        self._stack_key = tuple(range(self.num_instances))
        self._stack_cache = self.sub_stacks

    def sub_stacks_for(self, indices: tuple) -> list:
        """The per-block sub-coupling stacks restricted to ``indices``.

        The fleet engine calls the kernel thousands of times on a slowly
        shrinking active set, so the restricted stacks are cached per
        active-set key instead of re-sliced every anneal.
        """
        if indices != self._stack_key:
            self._stack_key = indices
            rows = list(indices)
            self._stack_cache = [stack[rows] for stack in self.sub_stacks]
        return self._stack_cache

    def block_width(self, index: int, start: int) -> int:
        """Rows instance ``index`` owns in the block starting at ``start``."""
        return max(0, min(BLOCK, int(self.sizes[index]) - start))

    def set_fields(self, index: int, fields, offset: float | None = None) -> None:
        """Reprogram instance ``index``'s linear fields (and offset).

        Copies into the packed buffer — the caller keeps ownership of
        ``fields`` and may reuse the array (the fleet engine loops one
        buffer per instance), mirroring the backend ``set_fields`` contract.
        """
        fields = np.asarray(fields)
        n = int(self.sizes[index])
        if fields.shape != (n,):
            raise ValueError(
                f"instance {index} fields must have shape ({n},), "
                f"got {fields.shape}"
            )
        self.fields[index, :n] = fields
        if offset is not None:
            self.offsets[index] = float(offset)


class FleetAnnealResult:
    """Array-shaped outcome of one fused fleet anneal.

    Holds the packed per-instance results; :meth:`instance` serves the
    standalone-shaped :class:`~repro.ising.backend.BatchAnnealResult` view
    of one instance (a copy, trimmed to the instance's own ``n_b`` rows).
    ``indices`` are the fleet indices that were annealed (the active
    subset when the engine has masked finished instances out).
    """

    def __init__(self, indices, sizes, last_spins, last_energies,
                 best_spins, best_energies, num_sweeps, energy_traces=None):
        self.indices = list(indices)
        self._sizes = sizes
        self._last_spins = last_spins        # (B_act, npad, R)
        self._last_energies = last_energies  # (B_act, R)
        self._best_spins = best_spins
        self._best_energies = best_energies
        self.num_sweeps = int(num_sweeps)
        self._energy_traces = energy_traces  # (B_act, R, sweeps) | None
        self._rows = {index: row for row, index in enumerate(self.indices)}

    def __len__(self) -> int:
        return len(self.indices)

    def instance(self, index: int) -> BatchAnnealResult:
        """Instance ``index``'s result in standalone machine shape."""
        try:
            row = self._rows[index]
        except KeyError:
            raise KeyError(
                f"instance {index} was not annealed in this call "
                f"(active: {self.indices})"
            ) from None
        n = int(self._sizes[row])
        traces = None
        if self._energy_traces is not None:
            traces = self._energy_traces[row].copy()
        return BatchAnnealResult(
            last_samples=self._last_spins[row, :n].T.copy(),
            last_energies=self._last_energies[row].copy(),
            best_samples=self._best_spins[row, :n].T.copy(),
            best_energies=self._best_energies[row].copy(),
            num_sweeps=self.num_sweeps,
            energy_traces=traces,
        )


class FleetMachine:
    """``B`` independent p-bit machines advanced by one fused scan.

    Parameters
    ----------
    models:
        The :class:`~repro.ising.model.IsingModel` per instance.  Couplings
        are prepared once (:class:`FleetProgram`); fields are reprogrammable
        per instance via :meth:`set_fields`.
    rng:
        A seed-like (``int`` / ``SeedSequence`` / ``Generator``) that is
        *spawned* into one child stream per instance via
        :func:`repro.utils.rng.spawn_rngs`, or an explicit sequence of
        ``B`` generators.  Instance ``b`` then draws exactly what a
        standalone :class:`~repro.ising.pbit.PBitMachine` built on
        ``spawn_rngs(rng, B)[b]`` would draw — the bit-identity anchor
        shared with ``strategy="process"`` job seeding.
    dtype:
        Coefficient storage / scan precision (``"float64"`` default).
    """

    def __init__(self, models, rng=None, dtype=None):
        models = list(models)
        for b, model in enumerate(models):
            if not isinstance(model, IsingModel):
                raise TypeError(
                    f"models[{b}] must be an IsingModel, "
                    f"got {type(model).__name__}"
                )
        self.program = FleetProgram(
            [model.coupling for model in models], dtype=dtype
        )
        if isinstance(rng, (list, tuple)):
            rngs = list(rng)
            if len(rngs) != len(models) or not all(
                isinstance(r, np.random.Generator) for r in rngs
            ):
                raise ValueError(
                    f"explicit rng sequence must hold {len(models)} "
                    f"numpy Generators"
                )
            self._rngs = rngs
        else:
            self._rngs = spawn_rngs(rng, len(models))
        for b, model in enumerate(models):
            self.program.set_fields(b, model.fields, model.offset)

    @property
    def num_instances(self) -> int:
        """Number of fleet instances ``B``."""
        return self.program.num_instances

    @property
    def instance_sizes(self) -> tuple[int, ...]:
        """Per-instance spin counts ``n_b``."""
        return tuple(int(n) for n in self.program.sizes)

    @property
    def dtype(self) -> np.dtype:
        """Coefficient storage precision of the fused scan."""
        return self.program.dtype

    @property
    def rngs(self) -> list[np.random.Generator]:
        """The per-instance noise streams (spawned or explicit)."""
        return self._rngs

    def set_fields(self, index: int, fields, offset: float | None = None) -> None:
        """Reprogram one instance's linear fields (see ``FleetProgram``)."""
        self.program.set_fields(index, fields, offset)

    def anneal_fleet(
        self,
        beta_schedule,
        num_replicas: int = 1,
        active=None,
        record_energy: bool = False,
        track_best: bool = True,
    ) -> FleetAnnealResult:
        """One fused annealing shot of ``R`` replicas per active instance.

        ``active`` selects a subset of fleet indices (default: all); masked
        instances draw no noise, run no events and pay no matmuls — this is
        how the fleet engine compacts finished instances away.  Every
        active instance's chain is bit-identical to a standalone
        ``PBitMachine`` run on its own stream, whatever the active set
        (speculation re-runs at other instances' events reproduce the same
        decisions, so the interleaving is unobservable per instance).

        ``track_best=False`` skips the per-sweep energy accounting that
        only feeds ``best_*`` (and traces): the chain itself is untouched —
        spins and inputs advance identically — and ``last_energies`` are
        computed once from the final maintained arrays, which yields the
        exact same float64 values the tracked path reports for the last
        sweep.  SAIM's default read-out consumes only the last sample, so
        the fleet engine runs this mode whenever ``read_best`` is off; the
        returned ``best_*`` then alias the ``last_*`` values.
        """
        betas = np.asarray(beta_schedule, dtype=float)
        if betas.ndim != 1 or betas.size == 0:
            raise ValueError("beta_schedule must be a non-empty 1-D sequence")
        if num_replicas < 1:
            raise ValueError(
                f"num_replicas must be >= 1, got {num_replicas}"
            )
        if record_energy and not track_best:
            raise ValueError(
                "record_energy needs the per-sweep accounting; "
                "pass track_best=True"
            )
        if active is None:
            indices = list(range(self.num_instances))
        else:
            indices = [int(b) for b in active]
            if len(set(indices)) != len(indices):
                raise ValueError(f"active indices must be unique, got {indices}")
            for b in indices:
                if not 0 <= b < self.num_instances:
                    raise ValueError(
                        f"active index {b} out of range "
                        f"(fleet has {self.num_instances} instances)"
                    )
            if not indices:
                raise ValueError("active must select at least one instance")
        return _fleet_anneal(
            self.program, self._rngs, betas, num_replicas, indices,
            record_energy, track_best,
        )


def _fleet_anneal(program, rngs, betas, num_replicas, indices, record_energy,
                  track_best):
    """The fused lock-step scan over the active instances."""
    dtype = program.dtype
    one = dtype.type(1.0)
    two = dtype.type(2.0)
    npad = program.padded_spins
    num_active = len(indices)
    sizes = program.sizes[indices]
    programs = [program.programs[b] for b in indices]
    streams = [rngs[b] for b in indices]
    fields2 = program.fields[indices]            # (B, npad), dtype
    offsets = program.offsets[indices]           # (B,)
    sub_stacks = program.sub_stacks_for(tuple(indices))
    widths = [
        [program.block_width(b, i0) for i0 in program.starts]
        for b in indices
    ]

    pm = np.array([-1.0, 1.0])
    # Padding rows: spin -1, threshold +inf, zero couplings — the decide
    # rule yields delta 0 there forever, and they consume no noise.
    spins3 = np.full((num_active, npad, num_replicas), -one, dtype=dtype)
    inputs3 = np.zeros((num_active, npad, num_replicas), dtype=dtype)
    for row, (prog, stream) in enumerate(zip(programs, streams)):
        n = int(sizes[row])
        # Same draw as PBitMachine.anneal_many: (R, n) choice, then the
        # kernel's contiguous transpose-cast.
        states = stream.choice(pm, size=(num_replicas, n))
        spins3[row, :n] = np.ascontiguousarray(states.T, dtype=dtype)
        inputs3[row, :n] = prog.initial_inputs(
            spins3[row, :n], fields2[row, :n]
        )

    def instance_energies(out):
        # Standalone float64 accounting per instance, standalone shapes:
        # einsums over the contiguous (n_b, R) row slice.  Zero-padded
        # batched reductions are NOT bit-safe (pairwise-summation splits
        # move), so this stays a per-instance loop.
        for row in range(num_active):
            n = int(sizes[row])
            out[row] = (
                -0.5 * np.einsum(
                    "ir,ir->r", spins3[row, :n], inputs3[row, :n],
                    dtype=np.float64,
                )
                - 0.5 * np.einsum(
                    "i,ir->r", fields2[row, :n], spins3[row, :n],
                    dtype=np.float64,
                )
                + offsets[row]
            )
        return out

    if track_best:
        energies2 = instance_energies(np.empty((num_active, num_replicas)))
        best_energies2 = energies2.copy()
        best_spins3 = spins3.copy()
    traces = (
        np.empty((num_active, num_replicas, betas.size))
        if record_energy else None
    )

    num_sweeps = betas.size
    chunk_sweeps = chunk_span(num_sweeps, num_active * npad * num_replicas)
    # Sweep-major like the standalone (span, n, R) tables; padding rows
    # hold noise -1, which the threshold transform maps to +inf.
    noise4 = np.full(
        (chunk_sweeps, num_active, npad, num_replicas), -1.0
    )
    deltas3 = np.empty((num_active, BLOCK, num_replicas), dtype=dtype)
    flipped = np.empty(num_active, dtype=bool)
    # Per-instance flip events of the numpy scan: spin flips at R = 1,
    # scan steps where the instance had a flipping replica at R > 1.
    events = np.zeros(num_active, dtype=np.int64)

    def numpy_sweep(thresholds3):
        # The speculative event loop over the union of the instances'
        # flip rows (see the module docstring).
        for ki, i0 in enumerate(program.starts):
            sub = sub_stacks[ki]                       # (B, BLOCK, BLOCK)
            local = inputs3[:, i0:i0 + BLOCK].copy()   # (B, blk, R)
            thr_blk = thresholds3[:, i0:i0 + BLOCK]
            spins_blk = spins3[:, i0:i0 + BLOCK]       # view; writes land
            blk = local.shape[1]
            # Bool mirror of the block spins: the Gibbs decide
            # ``sign(tanh) + u`` as a threshold test flips exactly
            # where (input >= tau) disagrees with (spin == +1).
            pos = spins_blk > 0
            deltas = deltas3[:, :blk]
            deltas[...] = 0
            flipped[...] = False
            j = 0
            while j < blk:
                # Speculative decide over every instance's tail at
                # once — elementwise, so values per instance are
                # identical to the standalone scan.
                up = local[:, j:] >= thr_blk[:, j:]
                flip = up != pos[:, j:]
                row_any = flip.any(axis=(0, 2))        # (m,)
                step = int(np.argmax(row_any))
                if not row_any[step]:
                    break
                jf = j + step
                hit = np.nonzero(flip[:, step].any(axis=1))[0]
                up_hit = up[hit, step]
                # delta = new - old on flipped replicas: exactly ±2
                # (and exact +0.0 elsewhere, as in the standalone
                # decide arithmetic).
                delta = np.where(
                    flip[hit, step], np.where(up_hit, two, -two), 0.0
                ).astype(dtype, copy=False)
                deltas[hit, jf] = delta
                spins_blk[hit, jf] += delta
                pos[hit, jf] = up_hit
                if jf + 1 < blk:
                    # In-block coupling correction, elementwise per
                    # instance (bit-safe to batch).
                    local[hit, jf + 1:] += (
                        sub[hit, jf, jf + 1:, None] * delta[:, None, :]
                    )
                flipped[hit] = True
                events[hit] += 1
                j = jf + 1
            if flipped.any():
                # Global input update: one BLAS matmul per flipped
                # instance with the standalone operand shapes
                # (zero-padding a contraction dimension is not
                # bit-safe, so no cross-instance stacking here).
                for row in np.nonzero(flipped)[0]:
                    width = widths[row][ki]
                    if width <= 0:
                        continue
                    n = int(sizes[row])
                    inputs3[row, :n] += (
                        programs[row].col_blocks[ki] @ deltas[row, :width]
                    )

    sweepers = None
    if num_replicas == 1 and dtype == np.float64:
        # Each instance's chain is the standalone R = 1 chain, so it runs
        # through the standalone compiled scan on its own rows.
        from repro.ising import _r1scan

        scan = _r1scan.compiled_scan()
        if scan is not None:
            sweepers = [
                _r1scan.CompiledSweep(
                    scan, prog, inputs3[row, :int(sizes[row]), 0],
                    spins3[row, :int(sizes[row]), 0], BLOCK,
                )
                for row, prog in enumerate(programs)
            ]

    for c0 in range(0, num_sweeps, chunk_sweeps):
        c1 = min(c0 + chunk_sweeps, num_sweeps)
        span = c1 - c0
        chunk_betas = betas[c0:c1]
        # Per-instance noise from each instance's own stream, several
        # sweeps at a time — a (span, n_b, R) draw consumes the stream in
        # exactly the standalone per-sweep order.
        for row, stream in enumerate(streams):
            n = int(sizes[row])
            noise4[:span, row, :n] = stream.uniform(
                -1.0, 1.0, size=(span, n, num_replicas)
            )
        # The whole chunk's tables in one batched transform, the
        # standalone machine's.
        thr4 = pbit_thresholds(noise4[:span], chunk_betas).astype(
            dtype, copy=False
        )

        if sweepers is not None:
            runs = [
                sweeper.sweeps(thr4[:, row, :int(sizes[row]), 0])
                for row, sweeper in enumerate(sweepers)
            ]
        for sweep in range(c0, c1):
            if sweepers is not None:
                for run in runs:
                    next(run)
            else:
                numpy_sweep(thr4[sweep - c0])

            if track_best:
                energies2 = instance_energies(energies2)
                improved = energies2 < best_energies2
                if improved.any():
                    best_energies2[improved] = energies2[improved]
                    rows, reps = np.nonzero(improved)
                    best_spins3[rows, :, reps] = spins3[rows, :, reps]
                if record_energy:
                    traces[:, :, sweep] = energies2

    if track_best:
        last_energies = energies2.copy()
    else:
        # One end-of-run accounting pass: the maintained spins/inputs are
        # the last sweep's arrays, so these are the exact float64 values
        # the tracked path reports as its final per-sweep energies.
        last_energies = instance_energies(
            np.empty((num_active, num_replicas))
        )
        best_energies2 = last_energies.copy()
        best_spins3 = spins3.copy()

    for row, prog in enumerate(programs):
        n = int(sizes[row])
        prog.flip_events += (
            int(events[row]) if sweepers is None else sweepers[row].flips
        )
        prog.retain(
            spins3[row, :n].copy(), inputs3[row, :n].copy(), fields2[row, :n]
        )
    return FleetAnnealResult(
        indices=indices,
        sizes=sizes,
        last_spins=spins3,
        last_energies=last_energies,
        best_spins=best_spins3,
        best_energies=best_energies2,
        num_sweeps=num_sweeps,
        energy_traces=traces,
    )
