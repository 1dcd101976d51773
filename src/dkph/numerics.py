"""Dense float64 matrices and the finite-difference gradient checker.

A "matrix" here is a 2-D ``numpy.ndarray`` of float64. Training and
encoding compute in the dtype of their features (see ``encoder``): float32
for the features the pipeline stores, float64 for float64 input. Gradient
checks run in float64 so that central finite differences can resolve
gradient errors down to ~1e-7; a step of 1e-5 is below float32 resolution
for values near 1, so :func:`finite_diff_check` accepts only float64
parameters.

The public operations here validate shapes and reject non-finite results.
Hot inner loops elsewhere use numpy directly; their backward passes are
gated by :func:`finite_diff_check` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import DeterminismError, ShapeError

ELEMENTWISE_OPS = ("tanh", "add", "sub", "scale", "hadamard")


def as_matrix(data) -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    m = np.asarray(data, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    _check_finite(m, "as_matrix")
    return m


def _check_finite(m: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(m)):
        raise FloatingPointError(f"{op} produced non-finite entries")
    return m


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product a @ b with an explicit inner-dimension check."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("matmul operands must be 2-D")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    return _check_finite(a @ b, "matmul")


def row_softmax(m: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Row-wise softmax of ``scale * m`` with max-subtraction for stability.

    Every output row is non-negative and sums to 1; huge logits saturate
    without overflow.
    """
    if scale <= 0:
        raise ValueError(f"softmax scale must be positive, got {scale}")
    z = np.asarray(m, dtype=np.float64) * scale
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return _check_finite(e / e.sum(axis=1, keepdims=True), "row_softmax")


def row_softmax_backward(grad_out: np.ndarray, softmax_out: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Gradient of row_softmax w.r.t. its input logits ``m``."""
    a = softmax_out
    inner = (grad_out * a).sum(axis=1, keepdims=True)
    return scale * a * (grad_out - inner)


def elementwise(m: np.ndarray, op: str, operand=None) -> np.ndarray:
    """Pointwise operation on a matrix; shape is preserved.

    op:
        "tanh"      unary
        "scale"     operand is a scalar
        "add" / "sub" / "hadamard"   operand is a matrix of the same shape
    """
    m = np.asarray(m, dtype=np.float64)
    if op == "tanh":
        return _check_finite(np.tanh(m), "tanh")
    if op == "scale":
        return _check_finite(m * float(operand), "scale")
    if op not in ELEMENTWISE_OPS:
        raise ValueError(f"unknown elementwise op {op!r}")
    other = np.asarray(operand, dtype=np.float64)
    if other.shape != m.shape:
        raise ShapeError(f"elementwise {op}: shapes differ {m.shape} vs {other.shape}")
    if op == "add":
        out = m + other
    elif op == "sub":
        out = m - other
    else:  # hadamard
        out = m * other
    return _check_finite(out, op)


@dataclass
class GradCheckReport:
    """Outcome of a finite-difference sweep over a parameter list."""

    max_rel_error: float
    param_count: int
    worst_index: tuple[int, int]  # (parameter number, flat index within it)

    def ok(self, tol: float = 1e-4) -> bool:
        return self.max_rel_error < tol


def finite_diff_check(
    loss_fn: Callable[[Sequence[np.ndarray]], float],
    params: Sequence[np.ndarray],
    analytic_grads: Sequence[np.ndarray],
    step: float = 1e-5,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` receives the parameter list and returns a scalar; it must be
    deterministic (two evaluations at the unperturbed point must agree
    bit-exactly, otherwise the noise floor swamps the differences).

    The relative error of each scalar is |a - n| / max(|a|, |n|, 1e-8); the
    report carries the worst one and where it occurred. Every parameter must
    be float64: the sweep perturbs it in place, and a converted copy would
    leave the loss unchanged. Others raise TypeError naming their index.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if len(params) != len(analytic_grads):
        raise ShapeError("params and analytic_grads length mismatch")
    params = [np.asarray(p) for p in params]
    for pi, p in enumerate(params):
        if p.dtype != np.float64:
            raise TypeError(f"parameter {pi} is {p.dtype}, not float64")

    base = float(loss_fn(params))
    again = float(loss_fn(params))
    if base != again:
        raise DeterminismError(
            f"loss_fn is not deterministic: {base!r} != {again!r} at the same point"
        )

    worst = 0.0
    worst_index = (0, 0)
    count = 0
    for pi, (p, g) in enumerate(zip(params, analytic_grads)):
        if p.shape != np.asarray(g).shape:
            raise ShapeError(f"gradient {pi} shape {np.shape(g)} != param shape {p.shape}")
        g_flat = np.asarray(g, dtype=np.float64).ravel()
        flat = p.ravel()  # view: writes below perturb the real parameter
        for idx in range(flat.size):
            count += 1
            orig = flat[idx]
            flat[idx] = orig + step
            lo_hi = float(loss_fn(params))
            flat[idx] = orig - step
            lo_lo = float(loss_fn(params))
            flat[idx] = orig
            numeric = (lo_hi - lo_lo) / (2.0 * step)
            analytic = g_flat[idx]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            if rel > worst:
                worst = rel
                worst_index = (pi, idx)
    return GradCheckReport(max_rel_error=worst, param_count=count, worst_index=worst_index)
