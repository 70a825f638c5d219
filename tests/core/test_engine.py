"""Tests for the unified SAIM engine (repro.core.engine).

The load-bearing guarantee: ``SaimEngine`` with ``num_replicas=1``
reproduces the pre-engine serial solver bit-for-bit (the golden values below
were captured from the legacy serial solver loop before the refactor), and every config feature works identically at any replica count.
"""

import numpy as np
import pytest

from repro.core.engine import SaimEngine
from repro.core.fleet_engine import FleetEngine
from repro.core.saim import SaimConfig
from repro.ising.pt_machine import PTMachine
from repro.problems.generators import generate_qkp
from tests.helpers import tiny_knapsack_problem

GOLDEN_CONFIG = SaimConfig(num_iterations=20, mcs_per_run=80, eta=80.0,
                           eta_decay="sqrt", normalize_step=True)
TINY = SaimConfig(num_iterations=15, mcs_per_run=100,
                  eta=5.0, eta_decay="sqrt", normalize_step=True)


class TestEngineValidation:
    def test_rejects_bad_replicas(self):
        with pytest.raises(ValueError):
            SaimEngine(TINY, num_replicas=0)

    def test_rejects_bad_aggregate(self):
        with pytest.raises(ValueError):
            SaimEngine(TINY, aggregate="median")

    def test_default_config(self):
        engine = SaimEngine()
        assert engine.config.num_iterations == SaimConfig().num_iterations
        assert engine.num_replicas == 1

    def test_pubo_rejected_naming_backend(self):
        from repro.problems.max3sat import generate_max3sat

        problem = generate_max3sat(6, 12, rng=0).to_problem()
        with pytest.raises(
            ValueError, match="'pbit' backend only handles quadratic models"
        ):
            SaimEngine(TINY).solve(problem, rng=0)


class TestSerialGoldenParity:
    """Pinned against the legacy serial solver on a fixed seed.

    The cost/lambda/feasibility values were produced by the pre-engine
    serial solver loop on this instance/seed, and the
    engine's ``num_replicas=1`` path — now the prepared-program lock-step
    kernel — must keep reproducing them bit-for-bit (same noise stream,
    same Gibbs chain).  The *energy* pin is the one value allowed to move
    when the kernel's accumulation changes: the lock-step kernel recomputes
    per-sweep energies with a float64 einsum over maintained inputs, which
    rounds the last bit differently than the retired kernel's incremental
    updates (the samples those energies describe are identical).
    """

    @pytest.fixture(scope="class")
    def result(self):
        instance = generate_qkp(14, 0.5, rng=3)
        return SaimEngine(GOLDEN_CONFIG, num_replicas=1).solve(
            instance.to_problem(), rng=7
        )

    def test_best_cost(self, result):
        assert result.best_cost == -2690.0

    def test_final_lambdas(self, result):
        assert result.final_lambdas.tolist() == [17.280833491648053]

    def test_trace_costs_and_energies(self, result):
        assert float(result.trace.sample_costs.sum()) == -45773.0
        assert float(result.trace.energies.sum()) == -683.0732467131296

    def test_feasibility_pattern(self, result):
        assert result.trace.feasible.astype(int).tolist() == [
            0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1
        ]
        assert result.num_feasible == 10

    def test_accounting(self, result):
        assert result.num_iterations == 20
        assert result.num_replicas == 1
        assert result.total_mcs == 20 * 80

    def test_fleet_engine_matches_golden(self, result):
        """A one-instance fused fleet runs the same Algorithm 1 loop on
        the same stream, so it reproduces the golden run bit-for-bit."""
        instance = generate_qkp(14, 0.5, rng=3)
        (fleet,) = FleetEngine(GOLDEN_CONFIG).solve_fleet(
            [instance.to_problem()], rng=[np.random.default_rng(7)]
        )
        assert fleet.best_cost == result.best_cost
        np.testing.assert_array_equal(fleet.best_x, result.best_x)
        np.testing.assert_array_equal(fleet.final_lambdas, result.final_lambdas)
        np.testing.assert_array_equal(
            fleet.trace.sample_costs, result.trace.sample_costs
        )
        np.testing.assert_array_equal(
            fleet.trace.feasible, result.trace.feasible
        )


class TestReplicaFeatureParity:
    """Every SaimConfig knob must work at any replica count."""

    def test_schedule_honored_at_replicas(self):
        config = SaimConfig(num_iterations=10, mcs_per_run=60, eta=5.0,
                            schedule="geometric", eta_decay="sqrt",
                            normalize_step=True)
        result = SaimEngine(config, num_replicas=3).solve(
            tiny_knapsack_problem(), rng=0
        )
        assert result.num_iterations == 10

    def test_target_cost_early_exit_with_replicas(self):
        config = SaimConfig(num_iterations=50, mcs_per_run=100, eta=5.0,
                            eta_decay="sqrt", normalize_step=True,
                            target_cost=-8.0)
        result = SaimEngine(config, num_replicas=4).solve(
            tiny_knapsack_problem(), rng=0
        )
        assert result.best_cost == pytest.approx(-8.0)
        assert result.num_iterations < 50
        assert result.total_mcs == result.num_iterations * 4 * 100

    def test_patience_early_exit_with_replicas(self):
        config = SaimConfig(num_iterations=200, mcs_per_run=100, eta=5.0,
                            eta_decay="sqrt", normalize_step=True, patience=3)
        result = SaimEngine(config, num_replicas=2).solve(
            tiny_knapsack_problem(), rng=1
        )
        assert result.found_feasible
        assert result.num_iterations < 200

    def test_warm_started_lambdas_with_replicas(self):
        result = SaimEngine(TINY, num_replicas=3).solve(
            tiny_knapsack_problem(), rng=2, initial_lambdas=np.array([4.0])
        )
        assert result.found_feasible
        # lambda history starts at the warm-start value
        assert result.trace.lambdas[0, 0] == 4.0

    def test_custom_factory_without_anneal_many_uses_fallback(self):
        def factory(model, rng=None):
            return PTMachine(model, rng=rng, num_replicas=4)

        result = SaimEngine(TINY, num_replicas=2, machine_factory=factory).solve(
            tiny_knapsack_problem(), rng=0
        )
        assert result.num_iterations == 15
        assert result.num_replicas == 2

    def test_mean_aggregate_with_replicas(self):
        result = SaimEngine(TINY, num_replicas=4, aggregate="mean").solve(
            tiny_knapsack_problem(), rng=1
        )
        assert result.found_feasible

    def test_iteration_accounting_reports_k_not_k_times_r(self):
        result = SaimEngine(TINY, num_replicas=4).solve(
            tiny_knapsack_problem(), rng=0
        )
        assert result.num_iterations == 15
        assert result.num_replicas == 4
        assert result.total_mcs == 15 * 4 * 100
        assert 0.0 <= result.feasible_ratio <= 1.0
        assert result.trace.sample_costs.shape == (15,)

    def test_replicas_not_worse_than_serial_incumbent(self):
        """More replicas per iteration never hurt the seeded incumbent
        search on the tiny instance (every replica is harvested)."""
        serial = SaimEngine(TINY, num_replicas=1).solve(
            tiny_knapsack_problem(), rng=3
        )
        parallel = SaimEngine(TINY, num_replicas=8).solve(
            tiny_knapsack_problem(), rng=3
        )
        assert parallel.best_cost <= serial.best_cost


class _SplitReadoutMachine:
    """Stub backend whose best-sample read-out disagrees with its last.

    Replica 0 has the lowest *last* energy; replica 1 has the lowest *best*
    energy and a distinctive best sample (all spins up).  A correct
    ``read_best`` loop must therefore lead with replica 1 and trace
    ``best_energies`` — leading by ``last_energies`` is the regression.
    """

    def __init__(self, model, rng=None):
        self._n = model.num_spins

    @property
    def num_spins(self):
        return self._n

    def set_fields(self, fields, offset=None):
        pass

    def anneal_many(self, beta_schedule, num_replicas, initial=None):
        from repro.ising.backend import BatchAnnealResult

        n = self._n
        last = -np.ones((num_replicas, n))
        best = -np.ones((num_replicas, n))
        last_energies = np.arange(num_replicas, dtype=float)  # replica 0 wins
        best_energies = np.full(num_replicas, 5.0)
        if num_replicas > 1:
            best[1] = np.ones(n)  # x = all ones: infeasible, distinct cost
            best_energies[1] = -5.0  # replica 1 wins
        return BatchAnnealResult(
            last_samples=last,
            last_energies=last_energies,
            best_samples=best,
            best_energies=best_energies,
            num_sweeps=len(beta_schedule),
        )


class TestReadBestReplicaReadout:
    """Regression: with ``read_best`` at R > 1 the lead replica and the
    trace energies must come from ``best_energies``, not ``last_energies``
    (the pre-fix engine mixed the two and corrupted traces and updates)."""

    CONFIG = SaimConfig(num_iterations=3, mcs_per_run=10, eta=5.0,
                        read_best=True)

    def _solve(self):
        problem = tiny_knapsack_problem()
        return SaimEngine(
            self.CONFIG, num_replicas=3,
            machine_factory=_SplitReadoutMachine,
        ).solve(problem, rng=0), problem

    def test_trace_energies_come_from_best_energies(self):
        result, _ = self._solve()
        # Pre-fix: argmin(last_energies) = replica 0, energy 0.0 recorded.
        assert result.trace.energies.tolist() == [-5.0, -5.0, -5.0]

    def test_lead_sample_is_best_replicas_sample(self):
        result, problem = self._solve()
        # Replica 1's best sample is all-ones => x = (1, 1, 1), which
        # violates the knapsack constraint: every trace cost must be its
        # objective and never the feasible all-zeros last sample.
        all_ones_cost = problem.objective(np.ones(3, dtype=np.int8))
        assert result.trace.sample_costs.tolist() == [all_ones_cost] * 3
        assert not result.trace.feasible.any()

    def test_serial_read_best_traces_best_energy(self):
        result = SaimEngine(
            self.CONFIG, num_replicas=1,
            machine_factory=_SplitReadoutMachine,
        ).solve(tiny_knapsack_problem(), rng=0)
        # R = 1: the single replica's best energy (5.0), not its last (0.0).
        assert result.trace.energies.tolist() == [5.0, 5.0, 5.0]
