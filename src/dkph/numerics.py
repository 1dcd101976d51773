"""The finite-difference gradient checker, and the work-block budget.

Training and encoding compute in the dtype of their features (see
``encoder``): float32 for the features the pipeline stores, float64 for
float64 input. Gradient checks run in float64 so that central finite
differences can resolve gradient errors down to ~1e-7; a step of 1e-5 is
below float32 resolution for values near 1, so :func:`finite_diff_check`
accepts only float64 parameters. The backward passes of the encoder,
teacher and student are gated by it (``gradcheck`` and the test suite).

Block budget. The row-blocked passes (the encoder over blocks of videos,
``graph`` over blocks of rows of the anchor-graph adjacency and of
nearest-centre differences, ``retrieval`` over blocks of query rows) take
their blocks from :func:`block_slices`: as many rows as fit
:data:`BLOCK_BYTES`, and at least one. Each pass states its own bytes per
row. The budget is read when the slices are made, so one setting of
``numerics.BLOCK_BYTES`` reaches every pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import DeterminismError, ShapeError

# Byte budget of one work block of a row-blocked pass (module docstring).
BLOCK_BYTES = 1 << 20


def block_slices(n: int, row_bytes: int) -> list[slice]:
    """Slices of ``range(n)`` of as many rows of ``row_bytes`` as fit
    BLOCK_BYTES, and at least one row each; none when n is 0."""
    step = max(1, BLOCK_BYTES // max(1, row_bytes))
    return [slice(s, min(s + step, n)) for s in range(0, n, step)]


@dataclass
class GradCheckReport:
    """Outcome of a finite-difference sweep over a parameter list."""

    max_rel_error: float
    param_count: int
    worst_index: tuple[int, int]  # (parameter number, C-order flat index within it)


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
        for idx in range(p.size):
            # index the parameter itself: ravel() copies a non-contiguous
            # view, and the loss would never see the perturbation
            at = np.unravel_index(idx, p.shape)
            count += 1
            orig = p[at]
            p[at] = orig + step
            lo_hi = float(loss_fn(params))
            p[at] = orig - step
            lo_lo = float(loss_fn(params))
            p[at] = orig
            numeric = (lo_hi - lo_lo) / (2.0 * step)
            analytic = g_flat[idx]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            if rel > worst:
                worst = rel
                worst_index = (pi, idx)
    return GradCheckReport(max_rel_error=worst, param_count=count, worst_index=worst_index)
