"""Tests for the generalized assignment problem (repro.problems.gap)."""

import numpy as np
import pytest

from repro.core.engine import SaimEngine
from repro.core.saim import SaimConfig
from repro.problems.gap import GapInstance, generate_gap, solve_gap_exact


def tiny_instance() -> GapInstance:
    """2 jobs x 2 agents, solvable by hand.

    Costs: job0 -> (1, 5), job1 -> (5, 1); loads all 1; capacities (1, 1).
    Optimal: job0 on agent0, job1 on agent1, cost 2.
    """
    return GapInstance(
        costs=np.array([[1.0, 5.0], [5.0, 1.0]]),
        loads=np.ones((2, 2)),
        capacities=np.array([1.0, 1.0]),
        name="tiny-gap",
    )


class TestGapInstance:
    def test_shapes(self):
        instance = tiny_instance()
        assert instance.num_jobs == 2
        assert instance.num_agents == 2
        assert instance.num_variables == 4

    def test_cost_by_hand(self):
        # x = (job0->agent0, job1->agent1) = [1, 0, 0, 1].
        assert tiny_instance().cost([1, 0, 0, 1]) == pytest.approx(2.0)

    def test_feasibility_requires_one_hot(self):
        instance = tiny_instance()
        assert instance.is_feasible([1, 0, 0, 1])
        assert not instance.is_feasible([1, 1, 0, 1])  # job0 on two agents
        assert not instance.is_feasible([0, 0, 0, 1])  # job0 unassigned

    def test_feasibility_requires_capacity(self):
        instance = tiny_instance()
        # Both jobs on agent0: one-hot holds but capacity 1 < load 2.
        assert not instance.is_feasible([1, 0, 1, 0])

    def test_assignment_of(self):
        instance = tiny_instance()
        np.testing.assert_array_equal(
            instance.assignment_of([1, 0, 0, 1]), [0, 1]
        )
        np.testing.assert_array_equal(
            instance.assignment_of([0, 0, 0, 1]), [-1, 1]
        )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            GapInstance(np.ones((2, 2)), np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError):
            GapInstance(np.ones((2, 2)), np.ones((2, 2)), np.ones(3))


class TestToProblem:
    def test_constraint_structure(self):
        problem = tiny_instance().to_problem()
        assert problem.equalities.num_constraints == 2  # one per job
        assert problem.inequalities.num_constraints == 2  # one per agent

    def test_feasibility_agrees(self):
        instance = generate_gap(4, 3, rng=0)
        problem = instance.to_problem()
        rng = np.random.default_rng(1)
        for _ in range(30):
            x = (rng.uniform(0, 1, instance.num_variables) < 0.3).astype(np.int8)
            assert problem.is_feasible(x) == instance.is_feasible(x)

    def test_objective_agrees(self):
        instance = generate_gap(4, 3, rng=2)
        problem = instance.to_problem()
        rng = np.random.default_rng(3)
        x = (rng.uniform(0, 1, instance.num_variables) < 0.3).astype(np.int8)
        assert problem.objective(x) == pytest.approx(instance.cost(x))


class TestExactSolver:
    def test_tiny_optimum(self):
        x, cost = solve_gap_exact(tiny_instance())
        assert cost == pytest.approx(2.0)
        np.testing.assert_array_equal(x, [1, 0, 0, 1])

    def test_random_instances_solvable(self):
        instance = generate_gap(6, 3, rng=4)
        x, cost = solve_gap_exact(instance)
        assert instance.is_feasible(x)
        assert instance.cost(x) == pytest.approx(cost)

    def test_infeasible_raises(self):
        impossible = GapInstance(
            costs=np.ones((2, 1)),
            loads=np.ones((2, 1)),
            capacities=np.array([1.0]),  # two unit jobs, capacity one
        )
        with pytest.raises(RuntimeError, match="infeasible"):
            solve_gap_exact(impossible)


class TestSaimOnGap:
    def test_saim_finds_near_optimal_assignment(self):
        """SAIM's equality-constraint path: multipliers take both signs."""
        instance = generate_gap(5, 3, tightness=1.0, rng=5)
        x_exact, exact_cost = solve_gap_exact(instance)
        config = SaimConfig(
            num_iterations=120, mcs_per_run=300,
            eta=5.0, eta_decay="sqrt", normalize_step=True, alpha=5.0,
        )
        result = SaimEngine(config).solve(
            instance.to_problem(), rng=1
        )
        assert result.found_feasible
        assert instance.is_feasible(result.best_x)
        # Costs are positive here; allow a modest optimality gap.
        assert result.best_cost <= 1.25 * exact_cost + 1e-9

    def test_one_hot_multipliers_can_go_negative(self):
        instance = generate_gap(4, 2, tightness=1.2, rng=6)
        config = SaimConfig(
            num_iterations=60, mcs_per_run=150,
            eta=5.0, eta_decay="sqrt", normalize_step=True, alpha=5.0,
        )
        result = SaimEngine(config).solve(
            instance.to_problem(), rng=2
        )
        # The one-hot equalities push lambda down when jobs are unassigned
        # (residual -1): at least one multiplier should have gone negative
        # at some point.
        assert result.trace.lambdas.min() < 0
