"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_binary_vector,
    check_non_negative,
    check_positive,
    check_square_symmetric,
)


class TestBinaryVector:
    def test_accepts_zeros_and_ones(self):
        out = check_binary_vector([0, 1, 1, 0])
        assert out.dtype == np.int8

    def test_rejects_twos(self):
        with pytest.raises(ValueError, match="binary"):
            check_binary_vector([0, 1, 2])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            check_binary_vector([0, 1], n=3)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-D"):
            check_binary_vector(np.zeros((2, 2)))

    def test_accepts_all_zeros(self):
        assert check_binary_vector(np.zeros(4)).sum() == 0

    def test_accepts_bool_array(self):
        out = check_binary_vector(np.array([True, False]))
        np.testing.assert_array_equal(out, [1, 0])


class TestSquareSymmetric:
    def test_accepts_symmetric(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(check_square_symmetric(m), m)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            check_square_symmetric(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            check_square_symmetric(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_accepts_asymmetry_within_atol(self):
        m = np.array([[0.0, 0.0], [1e-10, 0.0]])
        np.testing.assert_array_equal(check_square_symmetric(m), m)

    def test_rejects_asymmetry_beyond_atol(self):
        m = np.array([[0.0, 0.0], [1e-8, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            check_square_symmetric(m)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="symmetric"):
            check_square_symmetric(np.array([[0.0, np.nan], [np.nan, 0.0]]))


class TestScalars:
    def test_positive_ok(self):
        assert check_positive(2.0, "p") == 2.0

    def test_zero_not_positive(self):
        with pytest.raises(ValueError):
            check_positive(0.0, "p")

    def test_non_negative_accepts_zero(self):
        assert check_non_negative(0.0, "p") == 0.0

    def test_non_negative_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative(-0.1, "p")
