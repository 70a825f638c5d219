"""Tests for the hybrid slack encoding (repro.core.hybrid_encoding)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.encoding import encode_with_slacks
from repro.core.hybrid_encoding import (
    encode_with_hybrid_slacks,
    hybrid_slack_weights,
    max_coefficient_ratio,
)
from repro.core.engine import SaimEngine
from repro.core.saim import SaimConfig
from repro.problems.generators import generate_qkp
from tests.helpers import all_binary_vectors, tiny_knapsack_problem


class TestHybridWeights:
    def test_zero_unary_is_plain_binary(self):
        np.testing.assert_array_equal(hybrid_slack_weights(5, 0), [1, 2, 4])

    def test_zero_bound_is_empty(self):
        assert hybrid_slack_weights(0, 4).size == 0

    @given(st.integers(min_value=1, max_value=5000),
           st.integers(min_value=0, max_value=8))
    @settings(max_examples=80, deadline=None)
    def test_covers_range_contiguously(self, bound, unary_bits):
        """Every integer in [0, bound] must be representable."""
        weights = hybrid_slack_weights(bound, unary_bits)
        reachable = {0}
        for w in weights:
            reachable |= {r + w for r in reachable}
        for value in range(0, bound + 1):
            assert value in reachable, (bound, unary_bits, value)

    @given(st.integers(min_value=32, max_value=5000))
    @settings(max_examples=40, deadline=None)
    def test_reduces_coefficient_spread(self, bound):
        """More unary bits means a smaller max/min coefficient ratio."""
        binary = hybrid_slack_weights(bound, 0)
        hybrid = hybrid_slack_weights(bound, 6)
        assert max_coefficient_ratio(hybrid) <= max_coefficient_ratio(binary)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            hybrid_slack_weights(-1, 2)
        with pytest.raises(ValueError):
            hybrid_slack_weights(5, -1)


class TestMaxCoefficientRatio:
    def test_uniform_weights(self):
        assert max_coefficient_ratio(np.array([3.0, 3.0])) == 1.0

    def test_binary_spread(self):
        assert max_coefficient_ratio(np.array([1.0, 2.0, 4.0, 8.0])) == 8.0

    def test_empty(self):
        assert max_coefficient_ratio(np.array([])) == 1.0


class TestEncodeWithHybridSlacks:
    def test_equivalent_feasible_set_on_original_vars(self):
        problem = tiny_knapsack_problem()
        hybrid = encode_with_hybrid_slacks(problem, unary_bits=2)
        n_ext = hybrid.problem.num_variables
        feasible_original = set()
        for x_ext in all_binary_vectors(n_ext):
            if hybrid.problem.is_feasible(x_ext):
                feasible_original.add(tuple(hybrid.restrict(x_ext)))
        expected = {
            tuple(x)
            for x in all_binary_vectors(3)
            if problem.is_feasible(x)
        }
        assert feasible_original == expected

    def test_slack_values_use_hybrid_weights(self):
        problem = tiny_knapsack_problem()  # capacity 6
        hybrid = encode_with_hybrid_slacks(problem, unary_bits=2)
        weights = hybrid.slack_weights[0]
        x_ext = np.zeros(hybrid.problem.num_variables, dtype=np.int8)
        x_ext[hybrid.slack_slices[0]] = 1
        assert hybrid.slack_values(x_ext)[0] == pytest.approx(weights.sum())

    def test_objective_preserved(self):
        problem = tiny_knapsack_problem()
        hybrid = encode_with_hybrid_slacks(problem, unary_bits=3)
        for x in all_binary_vectors(3):
            x_ext = np.concatenate(
                [x, np.zeros(hybrid.num_slack, dtype=np.int8)]
            )
            assert hybrid.problem.objective(x_ext) == pytest.approx(
                problem.objective(x)
            )

    def test_saim_solves_through_hybrid_encoding(self):
        instance = generate_qkp(15, 0.5, rng=9)
        encoded = encode_with_hybrid_slacks(instance.to_problem(), unary_bits=4)
        config = SaimConfig(num_iterations=40, mcs_per_run=150,
                            eta=80.0, eta_decay="sqrt", normalize_step=True)
        result = SaimEngine(config).solve_encoded(encoded, rng=0)
        assert result.found_feasible
        assert instance.is_feasible(result.best_x)

    def test_uses_more_variables_than_binary(self):
        problem = generate_qkp(10, 0.5, rng=10).to_problem()
        binary = encode_with_slacks(problem)
        hybrid = encode_with_hybrid_slacks(problem, unary_bits=6)
        assert hybrid.num_slack >= binary.num_slack
