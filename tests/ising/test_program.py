"""Tests for the program/run split of the lock-step kernel.

Three guarantees of the solve-resident annealing design:

- **programming happens once** — the O(N^2) coupling preparation (cast +
  ``col_blocks``/``sub_blocks`` decomposition) is built exactly once per
  machine, however many ``set_fields`` + ``anneal_many`` cycles follow;
- **R = 1 runs the lock-step kernel** — the default p-bit path is the
  block kernel in threshold form, consuming the same noise stream in the
  same order as the retired pure-python scan (``kernel="serial"``), so the
  two produce the *same samples* (parity is asserted bit-for-bit on the
  spins; energies agree to accumulation rounding);
- **warm restarts are solve-resident** — a run starting from the previous
  run's final spins reuses the cached ``J @ s`` instead of recomputing the
  start-of-run matmul, and produces the same annealing results as a cold
  start from those spins;
- **the compiled R = 1 scan is the numpy scan** — its in-block event loop
  in C returns bit-identical results and counters, and every way it can
  fail to build or load falls back to the numpy scan with a readable
  reason;
- **chunking changes no value** — a chunk of sweeps' noise drawn in one
  call equals the per-sweep draws, the row-wise chunk energies equal the
  per-sweep ones, the chunk's best state is the per-sweep first minimum,
  and the chunk budget moves no sample, energy or trace.
"""

import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.schedule import linear_beta_schedule
from repro.ising import _lockstep, _r1scan, pbit, sa
from repro.ising._lockstep import (
    BLOCK,
    AnnealProgram,
    pbit_thresholds,
    r1_scan_info,
)
from repro.ising.fleet import FleetMachine
from repro.ising.model import IsingModel
from repro.ising.pbit import PBitMachine
from repro.ising.quantization import QuantizedPBitMachine
from repro.ising.sa import MetropolisMachine
from tests.helpers import random_ising


HAS_CC = shutil.which("cc") is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")


def _r1_runs(n, seed):
    """Two seeded R=1 p-bit anneals, the second a warm restart.

    The schedule opens with a beta=0 sweep, whose thresholds are +-inf.
    """
    schedule = np.concatenate([[0.0], linear_beta_schedule(4.0, 40)])
    machine = PBitMachine(random_ising(n, rng=seed), rng=seed)
    first = machine.anneal(schedule, record_energy=True)
    second = machine.anneal(
        schedule, initial=first.last_sample, record_energy=True
    )
    return (first, second), machine.program


def _assert_same_r1_runs(got, expected):
    (runs, program), (ref_runs, ref_program) = got, expected
    for run, ref in zip(runs, ref_runs):
        for name in ("last_sample", "best_sample", "energy_trace"):
            np.testing.assert_array_equal(
                getattr(run, name), getattr(ref, name)
            )
        assert run.best_energy == ref.best_energy
        assert run.last_energy == ref.last_energy
    counters = ("warm_hits", "cold_starts", "flip_events")
    assert [getattr(program, c) for c in counters] == [
        getattr(ref_program, c) for c in counters
    ]
    assert (program.cold_starts, program.warm_hits) == (1, 1)
    assert program.flip_events > 0


def _counting_program(monkeypatch):
    """Patch AnnealProgram.__init__ to count constructions."""
    calls = {"count": 0}
    original = AnnealProgram.__init__

    def counting_init(self, coupling, dtype=None):
        calls["count"] += 1
        original(self, coupling, dtype=dtype)

    monkeypatch.setattr(AnnealProgram, "__init__", counting_init)
    return calls


class TestAnnealProgram:
    def test_blocks_match_coupling_slices(self):
        model = random_ising(70, rng=0)
        program = AnnealProgram(model.coupling)
        assert program.num_spins == 70
        assert len(program.col_blocks) == len(program.starts)
        for i0, cols, sub in zip(
            program.starts, program.col_blocks, program.sub_blocks
        ):
            np.testing.assert_array_equal(
                cols, model.coupling[:, i0:i0 + BLOCK]
            )
            np.testing.assert_array_equal(
                sub, model.coupling[i0:i0 + BLOCK, i0:i0 + BLOCK]
            )

    def test_dtype_cast_once(self):
        model = random_ising(20, rng=1)
        program = AnnealProgram(model.coupling, dtype="float32")
        assert program.coupling.dtype == np.float32
        assert all(b.dtype == np.float32 for b in program.col_blocks)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            AnnealProgram(np.zeros((3, 4)))

    def test_initial_inputs_cold_then_warm(self):
        model = random_ising(24, rng=2)
        program = AnnealProgram(model.coupling)
        spins = np.where(
            np.random.default_rng(0).uniform(size=(24, 3)) < 0.5, -1.0, 1.0
        )
        fields = model.fields
        cold = program.initial_inputs(spins, fields)
        assert (program.cold_starts, program.warm_hits) == (1, 0)
        np.testing.assert_allclose(
            cold, model.coupling @ spins + fields[:, None]
        )
        # Retain and come back with the same spins: served from cache.
        program.retain(spins, cold, fields)
        new_fields = fields + 1.5
        warm = program.initial_inputs(spins.copy(), new_fields)
        assert (program.cold_starts, program.warm_hits) == (1, 1)
        np.testing.assert_allclose(
            warm, model.coupling @ spins + new_fields[:, None]
        )
        # Different spins (or replica count) miss the cache.
        program.initial_inputs(-spins, fields)
        program.initial_inputs(spins[:, :2], fields)
        assert program.cold_starts == 3


class TestProgramBuiltOncePerSolve:
    """The block decomposition must be built per machine, not per run."""

    @pytest.mark.parametrize("machine_cls", [PBitMachine, MetropolisMachine])
    def test_one_program_across_reprogram_cycles(self, machine_cls, monkeypatch):
        calls = _counting_program(monkeypatch)
        model = random_ising(40, rng=3)
        machine = machine_cls(model, rng=0)
        assert calls["count"] == 0  # lazy: no block build before first run
        schedule = linear_beta_schedule(3.0, 10)
        rng = np.random.default_rng(1)
        for _ in range(6):  # six SAIM-style reprogram + anneal iterations
            machine.set_fields(rng.normal(size=40), offset=0.0)
            machine.anneal_many(schedule, 4)
        assert calls["count"] == 1
        assert machine.program.coupling is machine._program.coupling

    def test_serial_kernel_machine_never_builds_a_program(self, monkeypatch):
        calls = _counting_program(monkeypatch)
        machine = PBitMachine(random_ising(30, rng=8), rng=0, kernel="serial")
        schedule = linear_beta_schedule(3.0, 10)
        for _ in range(3):
            machine.anneal(schedule)
        assert calls["count"] == 0  # the python scan needs no block program

    def test_engine_solve_builds_one_program(self, monkeypatch):
        from repro.core.engine import SaimEngine
        from repro.core.saim import SaimConfig
        from repro.problems.generators import generate_qkp

        calls = _counting_program(monkeypatch)
        config = SaimConfig(num_iterations=8, mcs_per_run=30, eta=80.0,
                            eta_decay="sqrt", normalize_step=True)
        instance = generate_qkp(15, 0.5, rng=2)
        SaimEngine(config, num_replicas=2).solve(instance.to_problem(), rng=0)
        assert calls["count"] == 1

    def test_quantized_machine_programs_once(self, monkeypatch):
        calls = _counting_program(monkeypatch)
        machine = QuantizedPBitMachine(random_ising(20, rng=4), bits=8, rng=0)
        schedule = linear_beta_schedule(3.0, 8)
        for _ in range(3):
            machine.set_fields(np.zeros(20))
            machine.anneal_many(schedule, 2)
        assert calls["count"] == 1


class TestSerialKernelParity:
    """R=1 via lock-step == the retired pure-python scan (same samples),
    through both the compiled and the numpy R=1 scan."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pbit_trajectory_parity(self, seed, r1_scan):
        model = random_ising(50, rng=seed)
        schedule = linear_beta_schedule(4.0, 100)
        fast = PBitMachine(model, rng=seed).anneal(
            schedule, record_energy=True
        )
        reference = PBitMachine(model, rng=seed, kernel="serial").anneal(
            schedule, record_energy=True
        )
        np.testing.assert_array_equal(fast.last_sample, reference.last_sample)
        np.testing.assert_array_equal(fast.best_sample, reference.best_sample)
        np.testing.assert_allclose(
            fast.energy_trace, reference.energy_trace, rtol=1e-12, atol=1e-9
        )

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 70, 215])
    def test_compiled_scan_matches_numpy_scan(self, n, monkeypatch):
        """Bit for bit on random float couplings, across a warm restart."""
        compiled = _r1_runs(n, seed=n)
        assert r1_scan_info() == (
            "compiled" if HAS_CC else "numpy: no C compiler (cc) on PATH"
        )
        monkeypatch.setattr(_r1scan, "compiled_scan", lambda: None)
        _assert_same_r1_runs(compiled, _r1_runs(n, seed=n))

    def test_pbit_rejects_unknown_kernel(self):
        with pytest.raises(ValueError):
            PBitMachine(random_ising(4, rng=0), kernel="simd")

    def test_metropolis_kernel_knob(self):
        """Metropolis defaults to its serial random-scan reference; the
        lock-step opt-in runs the systematic-scan chain (valid, distinct
        stream) and still reprograms correctly."""
        model = random_ising(30, rng=5)
        schedule = linear_beta_schedule(3.0, 60)
        serial = MetropolisMachine(model, rng=0)
        assert serial.kernel == "serial"
        fast = MetropolisMachine(model, rng=0, kernel="lockstep")
        result = fast.anneal(schedule)
        assert result.last_energy == pytest.approx(
            fast.model.energy(result.last_sample), abs=1e-6
        )
        with pytest.raises(ValueError):
            MetropolisMachine(model, kernel="simd")


def _per_sweep_pbit(rng, n, replicas, beta):
    """One sweep's p-bit draw and transform, as the scan once took it."""
    noise = rng.uniform(-1.0, 1.0, size=(n, replicas))
    if beta > 0.0:
        with np.errstate(divide="ignore"):
            return np.arctanh(noise) / (-beta)
    return np.where(noise >= 0.0, -np.inf, np.inf)


def _per_sweep_metropolis(rng, n, replicas, beta):
    """One sweep's Metropolis draw and transform, as the scan once took it."""
    uniforms = rng.uniform(1e-300, 1.0, size=(n, replicas))
    with np.errstate(divide="ignore"):
        return np.log(uniforms) / (-2.0 * beta)


def _per_state_energy(spins, inputs, fields, offset):
    """The per-sweep energy form the chunk energies replace."""
    return float(
        -0.5 * np.einsum("i,i->", spins, inputs, dtype=np.float64)
        - 0.5 * np.einsum("i,i->", fields, spins, dtype=np.float64)
        + offset
    )


def _recorded_tables(module, monkeypatch):
    """Record each ``(betas, table)`` chunk a machine module's
    ``thresholds_for`` hands the kernel."""
    tables = []
    kernel = module.lockstep_anneal

    def recording_kernel(coupling, fields, offset, betas, states,
                         thresholds_for, decide, **kwargs):
        def recording(chunk):
            table = thresholds_for(chunk)
            tables.append((chunk.copy(), np.array(table)))
            return table

        return kernel(coupling, fields, offset, betas, states, recording,
                      decide, **kwargs)

    monkeypatch.setattr(module, "lockstep_anneal", recording_kernel)
    return tables


def _ferromagnet(n, free_spins=0):
    """Integer all-to-all ferromagnet (exact float64 energies).  The last
    ``free_spins`` spins are uncoupled and field-free: they flip at random
    at any beta, so the energy ties across distinct states."""
    coupling = np.ones((n, n)) - np.eye(n)
    coupling[n - free_spins:] = coupling[:, n - free_spins:] = 0.0
    return IsingModel(coupling, np.zeros(n), 2.0)


@pytest.mark.usefixtures("r1_scan")
class TestChunkedSweeps:
    """The equalities the chunked seam rests on, on both R = 1 scans."""

    SCHEDULE = np.concatenate(
        [[0.0], linear_beta_schedule(3.0, 20), [0.0, 1.5]]
    )

    @pytest.mark.parametrize("replicas", [1, 8])
    @pytest.mark.parametrize("budget", [None, 40])
    @pytest.mark.parametrize("machine_cls, per_sweep", [
        (PBitMachine, _per_sweep_pbit),
        (MetropolisMachine, _per_sweep_metropolis),
    ], ids=["pbit", "metropolis"])
    def test_chunk_draw_equals_per_sweep_draws(
        self, machine_cls, per_sweep, replicas, budget, monkeypatch
    ):
        n = 5
        module = pbit if machine_cls is PBitMachine else sa
        tables = _recorded_tables(module, monkeypatch)
        if budget is not None:  # 40 doubles: 8 sweeps at R=1, 1 at R=8
            monkeypatch.setattr(_lockstep, "_CHUNK_DOUBLES", budget)
        machine = machine_cls(random_ising(n, rng=3), rng=11,
                              kernel="lockstep")
        initial = np.ones((replicas, n))
        machine.anneal_many(self.SCHEDULE, replicas, initial=initial)

        reference = np.random.default_rng(11)
        expected = [per_sweep(reference, n, replicas, beta)
                    for beta in self.SCHEDULE]
        np.testing.assert_array_equal(
            np.concatenate([chunk for chunk, _ in tables]), self.SCHEDULE
        )
        np.testing.assert_array_equal(
            np.concatenate([table for _, table in tables]), expected
        )
        span = self.SCHEDULE.size if budget is None else budget // n // replicas
        assert len(tables) == -(-self.SCHEDULE.size // span)
        # Nothing else was drawn: both streams end in the same state.
        assert machine._rng.bit_generator.state == reference.bit_generator.state

    def test_padding_noise_never_flips(self):
        table = pbit_thresholds(np.full((3, 4), -1.0),
                                np.array([0.0, 0.5, 2.0]))
        assert np.all(table == np.inf)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [1, 31, 33, 100, 8192, 8193])
    def test_row_energies_equal_per_sweep_form(self, n, dtype):
        rng = np.random.default_rng(n)
        span = 5
        # Rows one element off the allocation's alignment, as snapshot
        # rows of odd length are.
        spins = np.empty(span * n + 1, dtype=dtype)[1:].reshape(span, n)
        inputs = np.empty(span * n + 1, dtype=dtype)[1:].reshape(span, n)
        spins[...] = rng.choice([-1.0, 1.0], size=(span, n))
        inputs[...] = rng.normal(scale=40.0, size=(span, n))
        fields = rng.normal(size=n).astype(dtype)
        energies = _lockstep._row_energies(spins, inputs, fields, 0.25)
        assert energies.dtype == np.float64
        assert energies.tolist() == [
            _per_state_energy(spins[k].copy(), inputs[k].copy(), fields, 0.25)
            for k in range(span)
        ]

    def _chained_reference(self, model, schedule, initial):
        """Per-sweep states and energies: one single-sweep anneal per beta,
        chained on one stream (exact on integer-weight models, where the
        warm restart's cached inputs are exact)."""
        machine = PBitMachine(model, rng=5)
        states, energies = [], []
        state = initial
        for beta in schedule:
            run = machine.anneal(np.array([beta]), initial=state)
            state = run.last_sample
            states.append(state)
            energies.append(run.last_energy)
        return states, energies

    @pytest.mark.parametrize("budget", [None, 3 * 16])
    @pytest.mark.parametrize("case", ["tie", "no_improvement"])
    def test_best_is_the_per_sweep_first_minimum(self, case, budget,
                                                 monkeypatch):
        n = 16
        if budget is not None:  # chunks of 3 sweeps
            monkeypatch.setattr(_lockstep, "_CHUNK_DOUBLES", budget)
        if case == "tie":
            model = _ferromagnet(n, free_spins=8)
            initial = np.resize([1.0, -1.0], n)
            schedule = np.full(30, 4.0)
        else:
            model = _ferromagnet(n)
            initial = np.ones(n)  # a ground state
            schedule = np.zeros(10)
        states, energies = self._chained_reference(model, schedule, initial)
        start = model.energy(initial)
        low = min(energies)
        if case == "tie":
            at_min = [tuple(s) for s, e in zip(states, energies) if e == low]
            assert low < start
            # A real tie: every later minimum is a different state, so
            # keeping any but the first one shows.
            assert len(at_min) > 3 and at_min[0] not in at_min[1:]
            expected_best, expected_energy = at_min[0], low
        else:
            assert low > start
            expected_best, expected_energy = initial, start

        run = PBitMachine(model, rng=5).anneal(
            schedule, initial=initial, record_energy=True
        )
        np.testing.assert_array_equal(run.energy_trace, energies)
        np.testing.assert_array_equal(run.last_sample, states[-1])
        np.testing.assert_array_equal(run.best_sample, expected_best)
        assert run.best_energy == expected_energy

    @staticmethod
    def _outcomes(kind, replicas, dtype):
        n = 37
        schedule = np.concatenate([[0.0], linear_beta_schedule(3.0, 40)])
        if kind == "fleet":
            models = [random_ising(size, rng=size) for size in (5, 37, 33)]
            fleet = FleetMachine(models, rng=4, dtype=dtype)
            result = fleet.anneal_fleet(schedule, replicas,
                                        record_energy=True)
            runs = [result.instance(b) for b in result.indices]
            programs = fleet.program.programs
        else:
            cls = PBitMachine if kind == "pbit" else MetropolisMachine
            machine = cls(random_ising(n, rng=2), rng=4, dtype=dtype,
                          kernel="lockstep")
            first = machine.anneal_many(schedule, replicas,
                                        record_energy=True)
            runs = [first, machine.anneal_many(
                schedule, replicas, initial=first.last_samples,
                record_energy=True,
            )]
            programs = [machine.program]
        fields = ("last_samples", "last_energies", "best_samples",
                  "best_energies", "energy_traces")
        return ([[getattr(run, f) for f in fields] for run in runs],
                [p.flip_events for p in programs])

    @pytest.mark.parametrize("budget", [1, 3 * 37, 5 * 37 * 3])
    @pytest.mark.parametrize("kind, replicas, dtype", [
        ("pbit", 1, "float64"),
        ("pbit", 1, "float32"),
        ("pbit", 3, "float64"),
        ("metropolis", 1, "float64"),
        ("metropolis", 2, "float32"),
        ("fleet", 1, "float64"),
        ("fleet", 2, "float64"),
    ])
    def test_chunk_budget_changes_nothing(self, kind, replicas, dtype,
                                          budget, monkeypatch):
        whole = self._outcomes(kind, replicas, dtype)
        monkeypatch.setattr(_lockstep, "_CHUNK_DOUBLES", budget)
        chunked = self._outcomes(kind, replicas, dtype)
        assert chunked[1] == whole[1]
        for got, expected in zip(chunked[0], whole[0]):
            for a, b in zip(got, expected):
                np.testing.assert_array_equal(a, b)


class TestSolveParityThroughFrontDoor:
    """Seeded repro.solve parity: default lock-step vs kernel="serial".

    Pinned on the paper's Fig. 2 toy Lagrangian and a QKP instance — the
    retired serial kernel must remain reachable through
    ``backend_options={"kernel": "serial"}`` and agree with the default
    path sample-for-sample.
    """

    @staticmethod
    def toy_problem():
        """Fig. 2's toy: min -(x-1)^2 over 3-bit x s.t. x = 2 (OPT -1)."""
        from repro.core.problem import ConstrainedProblem, LinearConstraints

        weights = np.array([1.0, 2.0, 4.0])
        gram = np.outer(weights, weights)
        quad = -gram
        np.fill_diagonal(quad, 0.0)
        linear = -np.diag(gram).copy() + 2.0 * weights
        return ConstrainedProblem(
            quadratic=quad,
            linear=linear,
            offset=-1.0,
            equalities=LinearConstraints(weights[None, :], np.array([2.0])),
            name="fig2-toy",
        )

    def _solve_pair(self, problem, **kwargs):
        import repro

        fast = repro.solve(problem, **kwargs)
        slow = repro.solve(
            problem, backend_options={"kernel": "serial"}, **kwargs
        )
        return fast, slow

    def test_fig2_toy_parity(self):
        fast, slow = self._solve_pair(
            self.toy_problem(), num_iterations=30, mcs_per_run=80, eta=1.0,
            rng=5,
        )
        assert fast.best_cost == slow.best_cost == pytest.approx(-1.0)
        np.testing.assert_array_equal(fast.best_x, slow.best_x)
        np.testing.assert_array_equal(
            fast.detail.trace.sample_costs, slow.detail.trace.sample_costs
        )
        np.testing.assert_array_equal(
            fast.detail.final_lambdas, slow.detail.final_lambdas
        )

    def test_qkp_parity(self):
        import repro

        instance = repro.generate_qkp(20, 0.5, rng=3)
        fast, slow = self._solve_pair(
            instance, num_iterations=25, mcs_per_run=100, eta=80.0,
            eta_decay="sqrt", normalize_step=True, rng=7,
        )
        assert fast.feasible and slow.feasible
        assert fast.best_cost == slow.best_cost
        np.testing.assert_array_equal(fast.best_x, slow.best_x)
        np.testing.assert_array_equal(
            fast.detail.trace.sample_costs, slow.detail.trace.sample_costs
        )


class TestWarmResident:
    def test_rerun_from_last_samples_hits_cache(self):
        model = random_ising(40, rng=6)
        schedule = linear_beta_schedule(4.0, 30)
        machine = PBitMachine(model, rng=1)
        first = machine.anneal_many(schedule, 4)
        assert machine.program.cold_starts == 1
        machine.anneal_many(schedule, 4, initial=first.last_samples)
        assert machine.program.warm_hits == 1

    def test_warm_start_equals_cold_start_from_same_spins(self):
        """The cached J@s path must not change the annealing outcome.

        Pinned on an *integer-weight* model: there both the incrementally
        accumulated cache and a fresh matmul are exact in float64, so the
        two paths are bit-equal by construction (on float weights they
        agree only to accumulation rounding, which could flip a
        measure-zero threshold tie on some BLAS).
        """
        rng = np.random.default_rng(7)
        upper = np.triu(
            rng.integers(-3, 4, size=(40, 40)).astype(float), k=1
        )
        from repro.ising.model import IsingModel

        model = IsingModel(
            upper + upper.T, rng.integers(-3, 4, size=40).astype(float)
        )
        schedule = linear_beta_schedule(4.0, 30)
        warm_machine = PBitMachine(model, rng=2)
        first = warm_machine.anneal_many(schedule, 3)
        warm = warm_machine.anneal_many(schedule, 3, initial=first.last_samples)
        assert warm_machine.program.warm_hits == 1

        # A cold machine fast-forwarded over the first run's noise draws
        # anneals the same spins without a resident cache.
        cold_machine = PBitMachine(model, rng=2)
        cold_machine.anneal_many(schedule, 3)
        cold_machine.program._resident_spins = None  # drop the cache
        cold = cold_machine.anneal_many(schedule, 3, initial=first.last_samples)
        assert cold_machine.program.cold_starts == 2
        np.testing.assert_array_equal(warm.last_samples, cold.last_samples)
        np.testing.assert_allclose(
            warm.last_energies, cold.last_energies, rtol=1e-12, atol=1e-9
        )


class TestEngineWarmRestart:
    CONFIG = None

    @staticmethod
    def _config(**overrides):
        from repro.core.saim import SaimConfig

        params = dict(num_iterations=10, mcs_per_run=50, eta=80.0,
                      eta_decay="sqrt", normalize_step=True)
        params.update(overrides)
        return SaimConfig(**params)

    def test_rejects_unknown_restart(self):
        from repro.core.engine import SaimEngine

        with pytest.raises(ValueError):
            SaimEngine(self._config(), restart="hot")

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_warm_restart_reuses_resident_state(self, replicas):
        from repro.core.engine import SaimEngine
        from repro.problems.generators import generate_qkp

        made = []

        def factory(model, rng=None, dtype=None):
            machine = PBitMachine(model, rng=rng, dtype=dtype)
            made.append(machine)
            return machine

        instance = generate_qkp(15, 0.5, rng=4)
        result = SaimEngine(
            self._config(), num_replicas=replicas, restart="warm",
            machine_factory=factory,
        ).solve(instance.to_problem(), rng=0)
        assert result.num_iterations == 10
        (machine,) = made
        # Iteration 1 is the only cold start; 2..K resume resident spins.
        assert machine.program.cold_starts == 1
        assert machine.program.warm_hits == 9

    def test_warm_restart_finds_feasible_solutions(self):
        import repro

        instance = repro.generate_qkp(15, 0.5, rng=4)
        warm = repro.solve(
            instance, restart="warm", num_iterations=20, mcs_per_run=80,
            eta=80.0, eta_decay="sqrt", normalize_step=True, rng=1,
        )
        random = repro.solve(
            instance, restart="random", num_iterations=20, mcs_per_run=80,
            eta=80.0, eta_decay="sqrt", normalize_step=True, rng=1,
        )
        assert warm.feasible and random.feasible
        assert np.isfinite(warm.best_cost)

    def test_random_restart_is_the_unchanged_default(self):
        """restart="random" must reproduce the historical engine stream."""
        import repro

        instance = repro.generate_qkp(14, 0.5, rng=3)
        explicit = repro.solve(
            instance, restart="random", num_iterations=10, mcs_per_run=60,
            eta=80.0, eta_decay="sqrt", normalize_step=True, rng=7,
        )
        default = repro.solve(
            instance, num_iterations=10, mcs_per_run=60,
            eta=80.0, eta_decay="sqrt", normalize_step=True, rng=7,
        )
        assert explicit.best_cost == default.best_cost
        np.testing.assert_array_equal(
            explicit.detail.trace.sample_costs,
            default.detail.trace.sample_costs,
        )

    def test_pt_backend_rejects_warm_restart(self):
        """PT owns its replica init, so warm would be a silent no-op."""
        import repro

        instance = repro.generate_qkp(12, 0.5, rng=0)
        with pytest.raises(ValueError, match="pt"):
            repro.solve(
                instance, backend="pt", restart="warm",
                num_iterations=3, mcs_per_run=10,
            )

    def test_initial_less_legacy_machine_rejected_with_clear_error(self):
        """A serial anneal(schedule)-only machine can't warm-restart: the
        dispatcher must refuse cleanly, not TypeError mid-solve."""
        from repro.core.engine import SaimEngine
        from repro.problems.generators import generate_qkp

        class MinimalMachine:
            def __init__(self, model, rng=None):
                self._inner = PBitMachine(model, rng=rng)

            @property
            def num_spins(self):
                return self._inner.num_spins

            def set_fields(self, fields, offset=None):
                self._inner.set_fields(fields, offset)

            def anneal(self, beta_schedule):  # no initial= parameter
                return self._inner.anneal(beta_schedule)

        instance = generate_qkp(12, 0.5, rng=1)
        engine = SaimEngine(
            self._config(num_iterations=3), restart="warm",
            machine_factory=MinimalMachine,
        )
        with pytest.raises(ValueError, match="initial"):
            engine.solve(instance.to_problem(), rng=0)

    def test_backend_free_methods_reject_restart(self):
        import repro

        instance = repro.generate_qkp(12, 0.5, rng=0)
        with pytest.raises(ValueError, match="backend-free"):
            repro.solve(instance, method="greedy", restart="warm")

    def test_penalty_method_rejects_warm_restart(self):
        import repro

        instance = repro.generate_qkp(12, 0.5, rng=0)
        with pytest.raises(ValueError, match="restart"):
            repro.solve(
                instance, method="penalty", restart="warm",
                num_iterations=5, mcs_per_run=20,
            )


@pytest.fixture(scope="module")
def reference_r1_runs():
    """R=1 runs through the process's regular loader state."""
    return _r1_runs(40, seed=3)


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """An unloaded scan library whose cache lives in ``tmp_path``."""
    monkeypatch.setattr(_r1scan, "_loaded", None)
    monkeypatch.setattr(_r1scan, "cache_dir", lambda: tmp_path)
    return tmp_path


class TestCompiledScanFallback:
    """Every way the library can fail leads to the numpy scan, with the
    reason readable from r1_scan_info() and identical results."""

    @staticmethod
    def _fake_cc(monkeypatch):
        monkeypatch.setattr(_r1scan.shutil, "which", lambda name: "cc")

    def _assert_fallback(self, reference, prefix):
        runs = _r1_runs(40, seed=3)
        assert r1_scan_info().startswith(prefix)
        _assert_same_r1_runs(runs, reference)

    def test_no_compiler(self, fresh_loader, monkeypatch, reference_r1_runs):
        monkeypatch.setattr(_r1scan.shutil, "which", lambda name: None)
        self._assert_fallback(reference_r1_runs, "numpy: no C compiler")

    def test_failed_compile(self, fresh_loader, monkeypatch,
                            reference_r1_runs):
        self._fake_cc(monkeypatch)

        def broken_compile(cc, target):
            raise subprocess.CalledProcessError(
                1, cc, stderr="<stdin>: error: something broke\n"
            )

        monkeypatch.setattr(_r1scan, "_compile", broken_compile)
        self._assert_fallback(
            reference_r1_runs, "numpy: compile failed: <stdin>: error"
        )

    def test_library_will_not_load(self, fresh_loader, monkeypatch,
                                   reference_r1_runs):
        self._fake_cc(monkeypatch)
        builds = []
        monkeypatch.setattr(_r1scan, "_compile",
                            lambda cc, target: builds.append(target))

        def broken_open(path):
            raise OSError(f"{path}: invalid ELF header")

        monkeypatch.setattr(_r1scan, "_open", broken_open)
        self._assert_fallback(reference_r1_runs, "numpy: OSError")
        assert len(builds) == 1  # a fresh build is not retried

    def test_garbage_cache_rebuilt_once_then_falls_back(
        self, fresh_loader, monkeypatch, reference_r1_runs
    ):
        self._fake_cc(monkeypatch)
        (fresh_loader / _r1scan.library_name()).write_bytes(b"junk")
        builds = []

        def junk_compile(cc, target):
            builds.append(target)
            target.write_bytes(b"still junk")

        monkeypatch.setattr(_r1scan, "_compile", junk_compile)
        self._assert_fallback(reference_r1_runs, "numpy: OSError")
        assert len(builds) == 1

    @needs_cc
    def test_garbage_cache_is_rebuilt(self, fresh_loader):
        path = fresh_loader / _r1scan.library_name()
        path.write_bytes(b"junk")
        assert _r1scan.compiled_scan() is not None
        assert r1_scan_info() == "compiled"
        assert path.read_bytes()[:4] == b"\x7fELF"

    def test_importing_repro_loads_no_library(self):
        code = (
            "import sys\n"
            "import repro, repro.service.pool\n"
            "assert 'repro.ising._r1scan' not in sys.modules\n"
            "from repro.ising._lockstep import r1_scan_info\n"
            "assert r1_scan_info() == 'not loaded'\n"
        )
        src = str(Path(_r1scan.__file__).parents[2])
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], check=True,
                       timeout=120, env=env)


class TestCompiledScanBuild:
    def test_cache_key_covers_source_and_flags(self, monkeypatch):
        name = _r1scan.library_name()
        assert name.startswith("r1scan-") and name.endswith(".so")
        monkeypatch.setattr(_r1scan, "FLAGS", _r1scan.FLAGS + ("-g",))
        flagged = _r1scan.library_name()
        monkeypatch.setattr(_r1scan, "SOURCE", _r1scan.SOURCE + "\n")
        assert len({name, flagged, _r1scan.library_name()}) == 3

    @needs_cc
    def test_concurrent_builds_leave_one_loadable_library(self, tmp_path):
        target = tmp_path / _r1scan.library_name()
        errors = []

        def build():
            try:
                _r1scan._compile(shutil.which("cc"), target)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=build) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [p.name for p in tmp_path.iterdir()] == [target.name]
        assert _r1scan._open(target) is not None

    def test_pointers_are_validated(self):
        program = AnnealProgram(random_ising(40, rng=0).coupling)
        spins = np.ones(40)
        inputs = np.zeros(40)
        read_only = np.zeros(40)
        read_only.flags.writeable = False
        for bad_inputs in (
            np.zeros(40, dtype=np.float32),  # dtype
            np.zeros(80)[::2],  # contiguity
            np.zeros(39),  # length
            read_only,  # C writes the inputs
        ):
            with pytest.raises(ValueError, match="C-contiguous float64"):
                _r1scan.CompiledSweep(None, program, bad_inputs, spins, BLOCK)
        sweep = _r1scan.CompiledSweep(None, program, inputs, spins, BLOCK)
        for bad_table in (
            np.zeros((3, 40), dtype=np.float32),  # dtype
            np.zeros((3, 80))[:, ::2],  # rows not contiguous
            np.zeros((3, 41)),  # row length
            np.zeros(40),  # not a (sweeps, n) table
        ):
            with pytest.raises(ValueError, match="C-contiguous rows"):
                sweep.sweeps(bad_table)
        # Rows may skip padding (the fused fleet's (sweeps, npad) grid).
        sweep.sweeps(np.zeros((3, 64))[:, :40])
