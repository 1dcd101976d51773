"""The finite-difference checker and the work-block budget."""

import numpy as np
import pytest

from dkph import numerics
from dkph.exceptions import DeterminismError
from dkph.numerics import block_slices, finite_diff_check


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

    def test_non_contiguous_parameter_is_perturbed_in_place(self):
        # ravel() of a transposed view is a copy; sweeping that copy would
        # leave the loss unchanged and report max_rel_error 1.0
        p = np.arange(1.0, 5.0).reshape(2, 2).T
        assert not p.flags.c_contiguous

        def loss(params):
            return float((params[0] ** 2).sum())

        report = finite_diff_check(loss, [p], [2.0 * p], step=1e-5)
        assert report.max_rel_error < 1e-7, report
        assert report.param_count == 4
        np.testing.assert_array_equal(p, [[1.0, 3.0], [2.0, 4.0]])

    def test_worst_index_is_c_order_in_a_non_contiguous_parameter(self):
        p = np.arange(1.0, 7.0).reshape(2, 3).T  # shape (3, 2)
        grad = 2.0 * p
        grad[2, 0] = 0.0  # C-order flat index 4

        def loss(params):
            return float((params[0] ** 2).sum())

        assert finite_diff_check(loss, [p], [grad]).worst_index == (0, 4)


class TestBlockSlices:
    def test_full_blocks_then_a_ragged_last_one(self, monkeypatch):
        monkeypatch.setattr(numerics, "BLOCK_BYTES", 5 * 8 + 7)   # 5 rows of 8 bytes
        assert block_slices(23, 8) == [slice(0, 5), slice(5, 10), slice(10, 15),
                                       slice(15, 20), slice(20, 23)]
        assert block_slices(10, 8) == [slice(0, 5), slice(5, 10)]
        assert block_slices(3, 8) == [slice(0, 3)]

    def test_a_row_over_the_budget_is_a_block_of_its_own(self, monkeypatch):
        monkeypatch.setattr(numerics, "BLOCK_BYTES", 100)
        assert block_slices(3, 101) == [slice(0, 1), slice(1, 2), slice(2, 3)]
        assert block_slices(2, 100) == [slice(0, 1), slice(1, 2)]

    def test_no_rows_no_slices(self):
        assert block_slices(0, 8) == []
        assert block_slices(0, 0) == []

    def test_the_budget_is_read_at_call_time(self, monkeypatch):
        assert numerics.BLOCK_BYTES == 1 << 20
        assert block_slices(3, 1 << 19) == [slice(0, 2), slice(2, 3)]
        monkeypatch.setattr(numerics, "BLOCK_BYTES", 3 << 19)
        assert block_slices(3, 1 << 19) == [slice(0, 3)]
