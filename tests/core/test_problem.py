"""Tests for repro.core.problem."""

import numpy as np
import pytest

from repro.core.problem import ConstrainedProblem, LinearConstraints
from tests.helpers import tiny_constrained_problem, tiny_knapsack_problem


class TestLinearConstraints:
    def test_residuals(self):
        block = LinearConstraints(np.array([[1.0, 2.0]]), np.array([3.0]))
        np.testing.assert_allclose(block.residuals([1, 1]), [0.0])
        np.testing.assert_allclose(block.residuals([0, 0]), [-3.0])

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            LinearConstraints(np.ones((2, 3)), np.ones(3))

    def test_empty_block(self):
        block = LinearConstraints.empty(4)
        assert block.num_constraints == 0
        assert block.num_variables == 4
        assert block.residuals([0, 1, 0, 1]).size == 0

    def test_single_row_from_1d(self):
        block = LinearConstraints(np.array([1.0, 1.0]), np.array([1.0]))
        assert block.num_constraints == 1


class TestConstrainedProblem:
    def test_objective_by_hand(self):
        problem = tiny_constrained_problem()
        assert problem.objective([0, 1, 1]) == pytest.approx(-5.0)

    def test_feasibility_equality(self):
        problem = tiny_constrained_problem()
        assert problem.is_feasible([0, 1, 1])
        assert problem.is_feasible([1, 1, 0])
        assert not problem.is_feasible([1, 1, 1])
        assert not problem.is_feasible([0, 0, 0])

    def test_feasibility_inequality(self):
        problem = tiny_knapsack_problem()
        assert problem.is_feasible([1, 0, 1])  # weight 6 == capacity
        assert not problem.is_feasible([1, 1, 1])  # weight 9

    def test_violations_shape(self):
        problem = tiny_knapsack_problem()
        assert problem.violations([1, 1, 1]).shape == (1,)
        assert problem.violations([1, 1, 1])[0] == pytest.approx(3.0)

    def test_violation_of_slack_side_is_zero(self):
        # Being under capacity is not a violation for inequalities.
        problem = tiny_knapsack_problem()
        assert problem.violations([0, 0, 0])[0] == 0.0

    def test_num_constraints(self):
        assert tiny_constrained_problem().num_constraints == 1
        assert tiny_knapsack_problem().num_constraints == 1

    def test_rejects_asymmetric_quadratic(self):
        quad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            ConstrainedProblem(quad, np.zeros(2))

    def test_symmetry_tolerance_is_allclose_default(self):
        # Exact symmetry and asymmetry within allclose's default tolerance
        # pass; larger asymmetry and NaN fail.
        for upper, lower in ((1.0, 1.0), (1.0, 1.0 + 1e-9)):
            ConstrainedProblem(np.array([[0.0, upper], [lower, 0.0]]), np.zeros(2))
        for upper, lower in ((1.0, 1.0 + 1e-3), (np.nan, np.nan)):
            quad = np.array([[0.0, upper], [lower, 0.0]])
            with pytest.raises(ValueError, match="symmetric"):
                ConstrainedProblem(quad, np.zeros(2))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            ConstrainedProblem(np.eye(2), np.zeros(2))

    def test_rejects_constraint_width_mismatch(self):
        with pytest.raises(ValueError, match="variables"):
            ConstrainedProblem(
                np.zeros((2, 2)),
                np.zeros(2),
                equalities=LinearConstraints(np.ones((1, 3)), np.ones(1)),
            )

    def test_from_objective_folds_diagonal(self):
        quad = np.array([[2.0, 1.0], [1.0, 0.0]])
        problem = ConstrainedProblem.from_objective(quadratic=quad)
        np.testing.assert_array_equal(np.diag(problem.quadratic), [0.0, 0.0])
        np.testing.assert_array_equal(problem.linear, [2.0, 0.0])

    def test_from_objective_linear_only(self):
        problem = ConstrainedProblem.from_objective(linear=np.array([1.0, -1.0]))
        assert problem.num_variables == 2
        assert problem.objective([1, 1]) == pytest.approx(0.0)

    def test_from_objective_requires_something(self):
        with pytest.raises(ValueError):
            ConstrainedProblem.from_objective()

    def test_check_solution(self):
        problem = tiny_knapsack_problem()
        cost, feasible = problem.check_solution([1, 0, 1])
        assert cost == pytest.approx(-8.0)
        assert feasible

    def test_check_solution_rejects_non_binary(self):
        with pytest.raises(ValueError):
            tiny_knapsack_problem().check_solution([2, 0, 0])
