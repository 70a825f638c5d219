"""Replica-parallel SAIM: ``SaimEngine`` with ``num_replicas > 1``."""

import numpy as np
import pytest

from repro.baselines.exact_qkp import exact_qkp_bruteforce
from repro.core.engine import SaimEngine
from repro.core.saim import SaimConfig
from repro.problems.generators import generate_qkp
from tests.helpers import tiny_knapsack_problem

BASE = SaimConfig(num_iterations=15, mcs_per_run=100,
                  eta=80.0, eta_decay="sqrt", normalize_step=True)
# The normalized step moves lambda by ~eta per iteration; a 3-variable toy
# with unit-scale coefficients needs a correspondingly small eta.
TINY = SaimConfig(num_iterations=15, mcs_per_run=100,
                  eta=5.0, eta_decay="sqrt", normalize_step=True)


class TestReplicaSaim:
    def test_default_aggregate_is_best(self):
        solver = SaimEngine(BASE, num_replicas=8)
        assert solver.num_replicas == 8
        assert solver.aggregate == "best"

    def test_solves_tiny_knapsack(self):
        solver = SaimEngine(TINY, num_replicas=4)
        result = solver.solve(tiny_knapsack_problem(), rng=0)
        assert result.found_feasible
        assert result.best_cost == pytest.approx(-8.0)

    def test_mean_aggregate_also_works(self):
        solver = SaimEngine(TINY, num_replicas=4, aggregate="mean")
        result = solver.solve(tiny_knapsack_problem(), rng=1)
        assert result.found_feasible

    def test_mcs_accounting_includes_replicas(self):
        solver = SaimEngine(TINY, num_replicas=4)
        result = solver.solve(tiny_knapsack_problem(), rng=0)
        assert result.total_mcs == 15 * 4 * 100

    def test_trace_has_one_row_per_iteration(self):
        solver = SaimEngine(TINY, num_replicas=3)
        result = solver.solve(tiny_knapsack_problem(), rng=2)
        assert result.trace.sample_costs.shape == (15,)
        assert result.trace.lambdas.shape == (15, 1)

    def test_best_x_is_feasible_on_qkp(self):
        instance = generate_qkp(14, 0.5, rng=3)
        solver = SaimEngine(TINY, num_replicas=4)
        result = solver.solve(instance.to_problem(), rng=3)
        if result.found_feasible:
            assert instance.is_feasible(result.best_x)

    def test_fewer_iterations_than_serial_for_same_quality(self):
        """The headline of the extension: replicas buy iteration count."""
        instance = generate_qkp(14, 0.5, rng=5)
        _, opt = exact_qkp_bruteforce(instance)
        solver = SaimEngine(BASE, num_replicas=8)
        # Seeded: this seed reaches the optimum under the batched kernel.
        result = solver.solve(instance.to_problem(), rng=8)
        assert result.found_feasible
        # 15 iterations with 8 replicas should already reach > 95%.
        assert -result.best_cost >= 0.95 * opt

    def test_deterministic_given_seed(self):
        solver = SaimEngine(TINY, num_replicas=3)
        a = solver.solve(tiny_knapsack_problem(), rng=7)
        b = solver.solve(tiny_knapsack_problem(), rng=7)
        assert a.best_cost == b.best_cost
        np.testing.assert_array_equal(a.final_lambdas, b.final_lambdas)
