"""Shared lock-step replica kernel for single-flip samplers.

Both the p-bit (Gibbs) and Metropolis machines advance ``R`` independent
chains in lock-step over the same sweep/spin scan.  The per-spin acceptance
rules differ, but the machinery that makes the scan fast in pure numpy is
identical, so it lives here once:

- noise is folded into per-spin *threshold tables* outside the scan, a
  chunk of sweeps at a time (``thresholds_for`` draws and transforms up
  to :data:`_CHUNK_DOUBLES` doubles of tables in one call), so the hot
  loop is comparisons only;
- a 32-spin block's decisions are *speculated* in one vectorized call
  (``decide``) assuming no intra-block flips; python-level iteration
  happens only at actual flip events — decisions before the first flip are
  provably exact, the rest are re-speculated after the in-block coupling
  correction.  Frozen low-temperature blocks cost a few array ops total;
- a block's accumulated flips hit the global input fields as one BLAS
  matmul instead of one rank-1 update per flip, and energies are
  recomputed from the maintained inputs: once per sweep at ``R > 1``,
  once per chunk at ``R = 1`` from per-sweep ``(spins, inputs)``
  snapshot rows (:func:`_row_energies`).

At ``R = 1`` the p-bit rule (:func:`threshold_decide`) at float64 runs the
in-block event loop in C (:mod:`repro.ising._r1scan`): one ctypes call
scans blocks until one flips, and Python applies that block's BLAS update
before resuming; a chunk's threshold rows are checked once and run back to
back.  Everything that fixes the arithmetic — the threshold tables, the
``cols @ deltas`` update, the float64 einsum energies — stays in numpy,
and the C loop performs the numpy scan's IEEE operations in its order, so
the two are bit-identical.  Chunking changes no value either: one
``(S, n, R)`` draw fills exactly the numbers of ``S`` per-sweep draws, in
order, and the row-wise energy einsums equal the per-sweep ones (both
pinned in ``tests/ising/test_program.py``).  The numpy scan
(:func:`_numpy_sweep_r1`) runs for every other rule and dtype, and as the
fallback when the library cannot be built or loaded
(:func:`r1_scan_info` gives the reason); the tests use it as the
reference.

The scan runs in a configurable storage/compute ``dtype``: ``float32``
halves the memory traffic of the block matmuls (sgemm vs dgemm), which is
where the big-R batched path spends its time.  Sweep *energies* are
always accumulated in float64 from the maintained inputs, so integer-weight
Hamiltonians — exactly representable in float32 — report exact energies at
either precision, and float-weight models stay within float32 tolerance of
the exact Hamiltonian.

Program/run split
-----------------
SAIM calls the kernel once per outer iteration on the *same* coupling
matrix — only the linear fields move between calls.  The expensive,
coupling-only setup (contiguous dtype cast, the ``col_blocks`` /
``sub_blocks`` decomposition — ≈ N/32 full-matrix copies) therefore lives
in :class:`AnnealProgram`, built once per machine and passed back into
every :func:`lockstep_anneal` call; the per-run work is just fields,
noise, and the scan itself.  The program also keeps *solve-resident*
annealing state: the final spins of the previous run together with their
coupling inputs ``J @ s``, so a warm-restarted run (same spins back in)
reprograms its input fields from the field delta instead of paying a
fresh ``O(N^2 R)`` matmul.
"""

from __future__ import annotations

import numpy as np

# Spins per block: large enough to amortize the per-block global-field
# matmul, small enough that in-block corrections stay cache-resident.
BLOCK = 32

#: Noise-chunk memory budget (doubles): the threshold tables of several
#: sweeps are drawn and transformed in one call, which amortises the
#: per-sweep generator and ufunc dispatch that dominates at small N.  A
#: chunked draw consumes the stream in exactly the per-sweep order (C-order
#: fill), so chunk boundaries change no value.
_CHUNK_DOUBLES = 1 << 20

# einsum reduces the rows of a many-row contraction in pieces of its
# 8192-element buffer but a lone float64 vector in one pass, so past this
# length the row-wise energy form is not bit-equal to the per-state one.
_EINSUM_ROW = 8192

# repro.ising._r1scan is imported where it is used, not here: its own
# imports (ctypes, subprocess, hashlib, ...) would add ~13 ms to `import
# repro` and to every service worker spawn.


def r1_scan_info() -> str:
    """Which ``R = 1`` p-bit scan runs in this process.

    ``"compiled"``, ``"numpy: <reason>"`` after a fallback, or ``"not
    loaded"`` before the first ``R = 1`` float64 p-bit anneal — standalone
    or fused (:mod:`repro.ising.fleet` runs the same scan per instance).
    """
    from repro.ising import _r1scan

    return _r1scan.r1_scan_info()


def chunk_span(num_sweeps: int, doubles_per_sweep: int) -> int:
    """Sweeps per noise chunk: as many as fit :data:`_CHUNK_DOUBLES`, at
    least one, at most ``num_sweeps``."""
    return max(1, min(num_sweeps, _CHUNK_DOUBLES // doubles_per_sweep))


def pbit_thresholds(noise, betas):
    """Fold a chunk of sweeps' ``U(-1, 1)`` noise into p-bit thresholds.

    ``noise[k]`` holds sweep ``k``'s draws (any trailing shape) and
    ``betas[k]`` its inverse temperature.  For ``beta > 0``,
    ``sign(tanh(beta I) + u) == +1`` iff ``I >= -atanh(u) / beta``; any
    other sweep gets the sign split (``u >= 0``: always up, else always
    down).  ``u = -1`` maps to ``+inf``, so rows padded with ``-1`` never
    flip.  Returns float64 tables shaped like ``noise``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        table = np.arctanh(noise)
        table /= -betas.reshape((-1,) + (1,) * (noise.ndim - 1))
    for k in np.nonzero(~(betas > 0.0))[0]:
        table[k] = np.where(noise[k] >= 0.0, -np.inf, np.inf)
    return table


def threshold_decide(taus_rows, input_rows, spin_rows):
    """The p-bit rule as a ``decide`` callback: spin deltas towards
    ``+1 if I >= tau else -1`` (the thresholded form of eq. 10).

    Passing this exact function is what lets an ``R = 1`` float64 scan
    run the compiled event loop, which implements this rule only.
    """
    one = input_rows.dtype.type(1.0)
    return np.where(input_rows >= taus_rows, one, -one) - spin_rows


class AnnealProgram:
    """Once-per-solve preparation of a coupling matrix for the scan kernel.

    Owns everything about the kernel that depends only on ``(J, dtype)``:
    the contiguous dtype-cast coupling and its speculative-block
    decomposition.  A machine builds one program at construction and hands
    it to every :func:`lockstep_anneal` call, so the K outer iterations of
    a SAIM solve pay the O(N^2) setup exactly once instead of K times.

    The program is also the keeper of *solve-resident* state: after each
    run it retains the final spins and their coupling inputs ``J @ s``.
    When the next run starts from exactly those spins (the engine's
    ``restart="warm"`` mode), :meth:`initial_inputs` serves the new input
    fields as ``cached + h`` — an O(N R) add — instead of recomputing the
    O(N^2 R) matmul.  ``warm_hits`` / ``cold_starts`` count the two paths
    (exposed for tests and the outer-loop benchmark), and ``flip_events``
    counts the scan's flip events over the program's lifetime: spin flips
    at ``R = 1``, scan steps where at least one replica flipped at
    ``R > 1`` (a fused fleet anneal counts each instance's events on the
    instance's own program).
    """

    def __init__(self, coupling, dtype=None):
        self.dtype = np.dtype(np.float64) if dtype is None else np.dtype(dtype)
        self.coupling = np.ascontiguousarray(coupling, dtype=self.dtype)
        if self.coupling.ndim != 2 or (
            self.coupling.shape[0] != self.coupling.shape[1]
        ):
            raise ValueError(
                f"coupling must be square, got shape {self.coupling.shape}"
            )
        n = self.coupling.shape[0]
        self.num_spins = n
        self.starts = tuple(range(0, n, BLOCK))
        self.col_blocks = [
            np.ascontiguousarray(self.coupling[:, i0:i0 + BLOCK])
            for i0 in self.starts
        ]
        self.sub_blocks = [
            np.ascontiguousarray(self.coupling[i0:i0 + BLOCK, i0:i0 + BLOCK])
            for i0 in self.starts
        ]
        self.warm_hits = 0
        self.cold_starts = 0
        self.flip_events = 0
        self._resident_spins = None
        self._resident_coupling_inputs = None

    def initial_inputs(self, spins, fields) -> np.ndarray:
        """``J @ spins + h`` for a run starting at ``spins`` (``(n, R)``).

        Serves the cached ``J @ s`` when ``spins`` are exactly the previous
        run's final spins (warm restart); falls back to the matmul — and
        counts a cold start — otherwise.
        """
        if (
            self._resident_spins is not None
            and self._resident_spins.shape == spins.shape
            and np.array_equal(self._resident_spins, spins)
        ):
            self.warm_hits += 1
            return self._resident_coupling_inputs + fields[:, None]
        self.cold_starts += 1
        return self.coupling @ spins + fields[:, None]

    def release_residency(self) -> None:
        """Drop the solve-resident ``(spins, J @ s)`` state.

        A program that outlives one solve (the service worker keeps
        programs resident across requests) must not leak one solve's
        final spins into the next: the warm input path is bit-identical
        to the cold matmul only on integer-weight couplings, and a new
        request's first run must match a fresh in-process solve exactly.
        The ``warm_hits`` / ``cold_starts`` counters keep accumulating —
        they describe the program's lifetime, not one solve.
        """
        self._resident_spins = None
        self._resident_coupling_inputs = None

    def retain(self, spins, inputs, fields) -> None:
        """Keep a run's final ``(spins, J @ spins)`` as solve-resident state.

        ``inputs`` are the kernel-maintained ``J @ s + h``; the fields are
        subtracted back out so the cache is field-independent (the whole
        point: the next run reprograms new fields on top).
        """
        self._resident_spins = spins
        self._resident_coupling_inputs = inputs - fields[:, None]


def lockstep_anneal(
    coupling: np.ndarray,
    fields: np.ndarray,
    offset: float,
    betas: np.ndarray,
    states: np.ndarray,
    thresholds_for,
    decide,
    record_energy: bool = False,
    dtype=None,
    program: AnnealProgram | None = None,
):
    """Advance ``R`` lock-step chains; returns final/best states + energies.

    Parameters
    ----------
    coupling / fields / offset:
        Dense Ising Hamiltonian ``H = -1/2 s.J s - h.s + c``.  When a
        ``program`` is given its prepared coupling is used and the
        ``coupling`` argument is ignored.
    betas:
        Inverse temperature per sweep.
    states:
        ``(R, n)`` initial ±1 spins (consumed; not modified in place).
    thresholds_for:
        ``thresholds_for(betas) -> (span, n, R)`` threshold tables for a
        chunk of consecutive sweeps at ``betas``; this is where the sampler
        draws its noise, so it is called once per chunk (at most
        :data:`_CHUNK_DOUBLES` doubles), before that chunk's scan, and the
        chunks cover the schedule in order.  Tables are cast to ``dtype``
        here.
    decide:
        ``decide(thresholds_rows, input_rows, spin_rows) -> delta_rows``:
        the sampler's acceptance rule, vectorized over a ``(m, R)`` tail of
        a block; must return the spin deltas (0 where no flip) *assuming
        the given input fields are current*.
    record_energy:
        Also return ``(R, sweeps)`` per-sweep energy traces (else None).
    dtype:
        Storage/compute precision of the scan (``None`` → float64).  The
        returned energies are float64 regardless (see module docstring).
        Ignored when a ``program`` is given (the program's dtype rules).
    program:
        A prepared :class:`AnnealProgram` for this coupling — the fast
        path: skips the cast + block decomposition and may serve the
        initial inputs from the solve-resident cache.  Built ad hoc (one
        cold start) when omitted.

    Returns ``(last_spins, last_energies, best_spins, best_energies,
    traces)`` with spins in ``(n, R)`` layout.
    """
    if program is None:
        program = AnnealProgram(coupling, dtype=dtype)
    dtype = program.dtype
    coupling = program.coupling
    num_replicas, n = states.shape
    if num_replicas == 1:
        # Dedicated single-chain scan: same draws, same decisions, but all
        # event machinery on 1-D arrays (one reduction per event instead
        # of three (m, 1)-shaped passes) — this is what lets the R=1 SAIM
        # default beat the retired per-spin python loop.
        return _lockstep_anneal_r1(
            program, fields, offset, betas, states, thresholds_for, decide,
            record_energy,
        )
    fields = np.asarray(fields, dtype=dtype)
    spins = np.ascontiguousarray(states.T, dtype=dtype)  # (n, R): row i = spin i
    inputs = program.initial_inputs(spins, fields)

    def batch_energies():
        # H = -1/2 s.I - 1/2 h.s + c, accumulated in float64 whatever the
        # scan dtype (exact for integer-weight models).
        return (
            -0.5 * np.einsum("ir,ir->r", spins, inputs, dtype=np.float64)
            - 0.5 * np.einsum("i,ir->r", fields, spins, dtype=np.float64)
            + offset
        )

    energies = batch_energies()
    best_energies = energies.copy()
    best_spins = spins.copy()
    traces = np.empty((num_replicas, betas.size)) if record_energy else None

    starts = program.starts
    col_blocks = program.col_blocks
    sub_blocks = program.sub_blocks

    span = chunk_span(betas.size, n * num_replicas)
    for sweep in range(betas.size):
        if sweep % span == 0:
            table = np.asarray(
                thresholds_for(betas[sweep:sweep + span]), dtype=dtype
            )
        thresholds = table[sweep % span]

        for i0, cols, sub in zip(starts, col_blocks, sub_blocks):
            size = cols.shape[1]
            local = inputs[i0:i0 + size].copy()
            thr_blk = thresholds[i0:i0 + size]
            spins_blk = spins[i0:i0 + size]  # view; writes hit `spins`
            deltas = np.zeros((size, num_replicas), dtype=dtype)
            flipped_any = False
            j = 0
            while j < size:
                spec_delta = decide(thr_blk[j:], local[j:], spins_blk[j:])
                flip_rows = spec_delta.any(axis=1)
                if not flip_rows.any():
                    break
                step = int(np.argmax(flip_rows))
                jf = j + step
                delta = spec_delta[step]
                deltas[jf] = delta
                spins_blk[jf] += delta
                if jf + 1 < size:
                    local[jf + 1:] += sub[jf, jf + 1:, None] * delta
                flipped_any = True
                program.flip_events += 1
                j = jf + 1
            if flipped_any:
                inputs += cols @ deltas

        energies = batch_energies()
        improved = energies < best_energies
        if improved.any():
            best_energies[improved] = energies[improved]
            best_spins[:, improved] = spins[:, improved]
        if record_energy:
            traces[:, sweep] = energies

    program.retain(spins, inputs, fields)
    return spins, energies, best_spins, best_energies, traces


def _lockstep_anneal_r1(
    program: AnnealProgram,
    fields,
    offset: float,
    betas: np.ndarray,
    states: np.ndarray,
    thresholds_for,
    decide,
    record_energy: bool,
):
    """The ``R = 1`` fast path of :func:`lockstep_anneal`.

    Identical chain to the general kernel (same threshold tables consumed
    in the same order, same speculative-block decisions), on 1-D arrays.
    With the p-bit rule (:func:`threshold_decide`) at float64, each chunk
    of sweeps runs the compiled in-block event loop of
    :mod:`repro.ising._r1scan` when that library builds and loads;
    otherwise, and for any other rule or dtype, each sweep runs
    :func:`_numpy_sweep_r1`.  Both apply the same operations to the same
    values, so they return bit-identical results.

    Python touches a sweep only to copy its final ``(spins, inputs)`` into
    the chunk's snapshot rows; the chunk's energies are then one
    :func:`_row_energies` call, and the best state is the first minimum
    (``argmin``) if it is strictly below the running best — what a
    per-sweep ``<`` test keeps.  Returns the same ``(n, 1)``-shaped tuple
    as the general kernel.
    """
    dtype = program.dtype
    fields = np.asarray(fields, dtype=dtype)
    spins = np.ascontiguousarray(states[0], dtype=dtype)  # (n,)
    inputs = program.initial_inputs(spins[:, None], fields)[:, 0]

    compiled = None
    if decide is threshold_decide and dtype == np.float64:
        from repro.ising import _r1scan

        scan = _r1scan.compiled_scan()
        if scan is not None:
            compiled = _r1scan.CompiledSweep(scan, program, inputs, spins,
                                             BLOCK)

    n = spins.size
    energies = _row_energies(spins[None], inputs[None], fields, offset)
    best_energy = energies[0]
    best_spins = spins.copy()
    traces = np.empty((1, betas.size)) if record_energy else None

    span = chunk_span(betas.size, n)
    snap_spins = np.empty((span, n), dtype=dtype)
    snap_inputs = np.empty((span, n), dtype=dtype)
    for c0 in range(0, betas.size, span):
        chunk = betas[c0:c0 + span]
        table = np.asarray(thresholds_for(chunk), dtype=dtype).reshape(-1, n)
        if compiled is not None:
            steps = compiled.sweeps(table)
        else:
            steps = (
                _numpy_sweep_r1(program, inputs, thresholds, spins, decide)
                for thresholds in table
            )
        for k, _ in enumerate(steps):
            snap_spins[k] = spins
            snap_inputs[k] = inputs

        energies = _row_energies(
            snap_spins[:chunk.size], snap_inputs[:chunk.size], fields, offset
        )
        k = int(np.argmin(energies))
        if energies[k] < best_energy:
            best_energy = energies[k]
            best_spins = snap_spins[k].copy()
        if record_energy:
            traces[0, c0:c0 + chunk.size] = energies

    if compiled is not None:
        program.flip_events += compiled.flips
    program.retain(spins[:, None], inputs[:, None], fields)
    return (
        spins[:, None],
        energies[-1:],
        best_spins[:, None],
        np.array([best_energy]),
        traces,
    )


def _row_energies(spins, inputs, fields, offset) -> np.ndarray:
    """float64 energies ``H = -1/2 s.I - 1/2 h.s + c`` of ``(S, n)`` state
    rows and their maintained inputs, whatever the scan dtype.

    Each value is bit-equal to the per-state ``"i,i->"`` einsum form: rows
    up to :data:`_EINSUM_ROW` long reduce in one row-wise einsum per term,
    longer ones one row at a time (see :data:`_EINSUM_ROW`).
    """
    if spins.shape[1] <= _EINSUM_ROW:
        coupling = np.einsum("si,si->s", spins, inputs, dtype=np.float64)
        linear = np.einsum("i,si->s", fields, spins, dtype=np.float64)
    else:
        coupling = np.array([
            np.einsum("i,i->", s, i, dtype=np.float64)
            for s, i in zip(spins, inputs)
        ])
        linear = np.array([
            np.einsum("i,i->", fields, s, dtype=np.float64) for s in spins
        ])
    return -0.5 * coupling - 0.5 * linear + offset


def _numpy_sweep_r1(program, inputs, thresholds, spins, decide) -> None:
    """One ``R = 1`` sweep in numpy; updates ``inputs``/``spins`` in place.

    ``decide`` is called on ``(m,)`` tails and the first flip is located
    with a single ``nonzero``; the spin flips are added to
    ``program.flip_events``.  This is the fallback of the compiled scan and
    its reference in the tests.
    """
    dtype = program.dtype
    flips = 0
    for i0, cols, sub in zip(
        program.starts, program.col_blocks, program.sub_blocks
    ):
        size = cols.shape[1]
        local = inputs[i0:i0 + size].copy()
        thr_blk = thresholds[i0:i0 + size]
        spins_blk = spins[i0:i0 + size]  # view; writes hit `spins`
        deltas = None
        j = 0
        while j < size:
            spec_delta = decide(thr_blk[j:], local[j:], spins_blk[j:])
            hits = np.nonzero(spec_delta)[0]
            if hits.size == 0:
                break
            jf = j + int(hits[0])
            delta = spec_delta[jf - j]
            if deltas is None:
                deltas = np.zeros(size, dtype=dtype)
            deltas[jf] = delta
            spins_blk[jf] += delta
            if jf + 1 < size:
                local[jf + 1:] += sub[jf, jf + 1:] * delta
            flips += 1
            j = jf + 1
        if deltas is not None:
            inputs += cols @ deltas
    program.flip_events += flips
