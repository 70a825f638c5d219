"""Tests for Algorithm 1 (repro.core.saim)."""

import numpy as np
import pytest

from repro.core.engine import SaimEngine
from repro.core.saim import SaimConfig
from repro.problems.generators import generate_qkp
from repro.baselines.exact_qkp import exact_qkp_bruteforce
from tests.helpers import tiny_constrained_problem, tiny_knapsack_problem

FAST = SaimConfig(num_iterations=30, mcs_per_run=120)


class TestSaimConfig:
    def test_paper_qkp_defaults(self):
        config = SaimConfig.qkp_paper()
        assert config.num_iterations == 2000
        assert config.mcs_per_run == 1000
        assert config.beta_max == 10.0
        assert config.eta == 20.0
        assert config.alpha == 2.0

    def test_paper_mkp_defaults(self):
        config = SaimConfig.mkp_paper()
        assert config.num_iterations == 5000
        assert config.mcs_per_run == 1000
        assert config.beta_max == 50.0
        assert config.eta == 0.05
        assert config.alpha == 5.0

    def test_overrides(self):
        config = SaimConfig.qkp_paper(num_iterations=10)
        assert config.num_iterations == 10
        assert config.eta == 20.0

    def test_scaled(self):
        config = SaimConfig.qkp_paper().scaled(0.01, 0.5)
        assert config.num_iterations == 20
        assert config.mcs_per_run == 500

    def test_scaled_floors_at_one(self):
        config = SaimConfig(num_iterations=2, mcs_per_run=2).scaled(0.01, 0.01)
        assert config.num_iterations == 1
        assert config.mcs_per_run == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_iterations": 0},
            {"mcs_per_run": 0},
            {"beta_max": 0.0},
            {"eta": 0.0},
            {"alpha": -1.0},
            {"schedule": "exponential"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SaimConfig(**kwargs)


class TestSaimSolve:
    def test_solves_tiny_equality_problem(self):
        result = SaimEngine(FAST).solve(
            tiny_constrained_problem(), rng=0
        )
        assert result.found_feasible
        assert result.best_cost == pytest.approx(-5.0)
        np.testing.assert_array_equal(result.best_x, [0, 1, 1])

    def test_solves_tiny_knapsack(self):
        result = SaimEngine(FAST).solve(tiny_knapsack_problem(), rng=0)
        assert result.found_feasible
        assert result.best_cost == pytest.approx(-8.0)

    def test_best_x_is_feasible(self):
        problem = generate_qkp(15, 0.5, rng=2).to_problem()
        result = SaimEngine(FAST).solve(problem, rng=1)
        if result.found_feasible:
            assert problem.is_feasible(result.best_x)
            assert problem.objective(result.best_x) == pytest.approx(result.best_cost)

    def test_reaches_small_qkp_optimum(self):
        instance = generate_qkp(14, 0.5, rng=5)
        _, opt_profit = exact_qkp_bruteforce(instance)
        # Paper eta=20 is tuned for N in [100, 300]; on a 14-item instance
        # the sqrt-decayed step damps the multiplier oscillation.
        config = SaimConfig(num_iterations=150, mcs_per_run=300, eta_decay="sqrt")
        result = SaimEngine(config).solve(instance.to_problem(), rng=3)
        assert result.found_feasible
        assert -result.best_cost >= 0.97 * opt_profit

    def test_eta_decay_options_run(self):
        for decay in ("constant", "sqrt", "harmonic"):
            config = SaimConfig(num_iterations=8, mcs_per_run=40, eta_decay=decay)
            result = SaimEngine(config).solve(
                tiny_knapsack_problem(), rng=0
            )
            assert result.num_iterations == 8

    def test_rejects_unknown_eta_decay(self):
        with pytest.raises(ValueError, match="eta_decay"):
            SaimConfig(eta_decay="exponential")

    def test_feasible_records_sorted_by_iteration(self):
        result = SaimEngine(FAST).solve(tiny_knapsack_problem(), rng=2)
        iterations = [record.iteration for record in result.feasible_records]
        assert iterations == sorted(iterations)
        assert result.num_feasible == len(iterations)

    def test_feasible_ratio_definition(self):
        result = SaimEngine(FAST).solve(tiny_knapsack_problem(), rng=3)
        assert result.feasible_ratio == pytest.approx(
            result.num_feasible / FAST.num_iterations
        )

    def test_total_mcs(self):
        result = SaimEngine(FAST).solve(tiny_knapsack_problem(), rng=0)
        assert result.total_mcs == 30 * 120

    def test_average_feasible_cost(self):
        result = SaimEngine(FAST).solve(tiny_knapsack_problem(), rng=0)
        costs = [record.cost for record in result.feasible_records]
        assert result.average_feasible_cost() == pytest.approx(np.mean(costs))

    def test_deterministic_given_seed(self):
        a = SaimEngine(FAST).solve(tiny_knapsack_problem(), rng=11)
        b = SaimEngine(FAST).solve(tiny_knapsack_problem(), rng=11)
        assert a.best_cost == b.best_cost
        np.testing.assert_array_equal(a.final_lambdas, b.final_lambdas)

    def test_explicit_penalty_override(self):
        config = SaimConfig(num_iterations=10, mcs_per_run=50, penalty=7.0)
        result = SaimEngine(config).solve(
            tiny_knapsack_problem(), rng=0
        )
        assert result.penalty == 7.0

    def test_default_config(self):
        machine = SaimEngine()
        assert machine.config.num_iterations == 2000


class TestSaimTrace:
    def test_trace_shapes(self):
        result = SaimEngine(FAST).solve(tiny_knapsack_problem(), rng=0)
        trace = result.trace
        assert trace.sample_costs.shape == (30,)
        assert trace.feasible.shape == (30,)
        assert trace.lambdas.shape == (30, 1)
        assert trace.energies.shape == (30,)

    def test_trace_lambda_starts_at_zero(self):
        result = SaimEngine(FAST).solve(tiny_knapsack_problem(), rng=0)
        np.testing.assert_array_equal(result.trace.lambdas[0], [0.0])

    def test_lambda_update_rule(self):
        """lambda_{k+1} - lambda_k = eta * g(x_k) must hold along the trace."""
        problem = tiny_constrained_problem()
        config = SaimConfig(num_iterations=15, mcs_per_run=60, eta=0.5)
        result = SaimEngine(config).solve(problem, rng=4)
        lambdas = result.trace.lambdas
        steps = np.diff(lambdas[:, 0])
        # Each step is eta * residual; residuals of the equality x0+x1+x2=2
        # lie in {-2, -1, 0, 1}, so steps lie in eta * that set.
        allowed = {-1.0, -0.5, 0.0, 0.5}
        assert set(np.round(steps, 9)).issubset(allowed)

    def test_trace_disabled(self):
        config = SaimConfig(num_iterations=5, mcs_per_run=30, record_trace=False)
        result = SaimEngine(config).solve(
            tiny_knapsack_problem(), rng=0
        )
        assert result.trace is None

    def test_trace_feasible_matches_records(self):
        result = SaimEngine(FAST).solve(tiny_knapsack_problem(), rng=5)
        record_iterations = {record.iteration for record in result.feasible_records}
        trace_iterations = set(np.nonzero(result.trace.feasible)[0])
        assert record_iterations == trace_iterations

    def test_first_feasible_iteration(self):
        result = SaimEngine(FAST).solve(tiny_knapsack_problem(), rng=6)
        first = result.trace.first_feasible_iteration()
        if result.found_feasible:
            assert first == result.feasible_records[0].iteration
        else:
            assert first is None
