"""Matrix primitives and the finite-difference checker."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dkph.exceptions import DeterminismError, ShapeError
from dkph.numerics import (
    as_matrix,
    elementwise,
    finite_diff_check,
    matmul,
    row_softmax,
    row_softmax_backward,
)


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.5, -2.0], [0.25, 7.0]])
        assert np.array_equal(matmul(np.eye(2), a), a)

    def test_hand_product(self):
        out = matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.0], [1.0]]))
        assert np.array_equal(out, np.array([[2.0], [4.0]]))

    @pytest.mark.parametrize("k", [1, 3, 17])
    def test_ones_row_times_ones_col(self, k):
        out = matmul(np.ones((1, k)), np.ones((k, 1)))
        assert out.shape == (1, 1)
        assert out[0, 0] == k

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_associativity_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=(4, 5))
            b = rng.normal(size=(5, 3))
            c = rng.normal(size=(3, 6))
            lhs = matmul(matmul(a, b), c)
            rhs = matmul(a, matmul(b, c))
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestRowSoftmax:
    def test_zero_row_is_uniform(self):
        for n in (1, 2, 9):
            out = row_softmax(np.zeros((1, n)))
            np.testing.assert_allclose(out, np.full((1, n), 1.0 / n), atol=1e-15)

    def test_huge_logit_saturates_without_overflow(self):
        out = row_softmax(np.array([[1000.0, 0.0]]))
        np.testing.assert_allclose(out, np.array([[1.0, 0.0]]), atol=1e-12)

    def test_against_scalar_exponentiation_oracle(self):
        # independent oracle: plain math.exp per entry, summed by hand
        row = [1.0, 2.0, 3.0]
        exps = [math.exp(v) for v in row]
        total = sum(exps)
        expected = [e / total for e in exps]
        out = row_softmax(np.array([row]), scale=1.0)
        np.testing.assert_allclose(out[0], expected, atol=1e-14)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            row_softmax(np.zeros((1, 2)), scale=0.0)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 6)),
            elements=st.floats(-50, 50),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_stay_in_simplex(self, m):
        out = row_softmax(m, scale=0.7)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 4))  # loss = sum(w * softmax(logits))
        out = row_softmax(logits, scale=1.3)
        grad = row_softmax_backward(w, out, scale=1.3)

        def loss(params):
            return float((w * row_softmax(params[0], scale=1.3)).sum())

        report = finite_diff_check(loss, [logits], [grad], step=1e-5)
        assert report.max_rel_error < 1e-6


class TestElementwise:
    def test_tanh_of_zero(self):
        assert np.array_equal(elementwise(np.zeros((2, 3)), "tanh"), np.zeros((2, 3)))

    def test_add_identity(self):
        a = np.array([[1.0, -4.0], [2.5, 0.0]])
        assert np.array_equal(elementwise(a, "add", np.zeros_like(a)), a)

    def test_hadamard_hand_case(self):
        out = elementwise(np.array([[2.0, 3.0]]), "hadamard", np.array([[4.0, 5.0]]))
        assert np.array_equal(out, np.array([[8.0, 15.0]]))

    def test_sub_and_scale(self):
        a = np.array([[3.0, 1.0]])
        assert np.array_equal(elementwise(a, "sub", a), np.zeros((1, 2)))
        assert np.array_equal(elementwise(a, "scale", 2.0), np.array([[6.0, 2.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            elementwise(np.ones((2, 2)), "add", np.ones((2, 3)))

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            elementwise(np.ones((1, 1)), "exp")

    def test_as_matrix_rejects_nan(self):
        with pytest.raises(FloatingPointError):
            as_matrix([[1.0, float("nan")]])


class TestFiniteDiffCheck:
    def test_quadratic_is_exact_to_roundoff(self):
        p = np.array([[1.0, -2.0], [0.5, 3.0]])
        grad = 2.0 * p

        def loss(params):
            return float((params[0] ** 2).sum())

        report = finite_diff_check(loss, [p], [grad], step=1e-5)
        assert report.max_rel_error < 1e-7
        assert report.param_count == 4

    def test_zeroed_analytic_grad_is_caught(self):
        p = np.array([[1.0, -2.0]])

        def loss(params):
            return float((params[0] ** 2).sum())

        report = finite_diff_check(loss, [p], [np.zeros_like(p)], step=1e-5)
        assert report.max_rel_error > 0.99

    def test_nondeterministic_loss_rejected(self):
        calls = [0]

        def loss(params):
            calls[0] += 1
            return float(calls[0])

        with pytest.raises(DeterminismError):
            finite_diff_check(loss, [np.ones((1, 1))], [np.ones((1, 1))])

    def test_worst_index_points_at_the_bad_entry(self):
        p = np.array([[1.0, 2.0, 3.0]])
        grad = 2.0 * p
        grad[0, 2] = 0.0  # sabotage one entry

        def loss(params):
            return float((params[0] ** 2).sum())

        report = finite_diff_check(loss, [p], [grad])
        assert report.worst_index == (0, 2)

    def test_non_float64_parameter_is_rejected_by_index(self):
        # a float32 tensor would be swept through a float64 copy that the
        # loss never reads, reporting a spurious max_rel_error of 1.0
        good = np.array([[1.0, -2.0]])
        bad = np.array([[0.5, 3.0]], dtype=np.float32)

        def loss(_):
            return float((good ** 2).sum() + (bad.astype(np.float64) ** 2).sum())

        with pytest.raises(TypeError, match="parameter 1 is float32"):
            finite_diff_check(loss, [good, bad], [2.0 * good, 2.0 * bad])
