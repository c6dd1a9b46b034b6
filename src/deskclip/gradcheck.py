"""Finite-difference gradient oracles.

The analytic gradients produced by the tape are checked against central
differences computed from the same scalar function. The oracle never goes
through any backward rule, so agreement is evidence both paths are right.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor

STEP = 1e-5
GRAD_MASK_FLOOR = 1e-8


def numeric_gradient(fn: Callable[[], Tensor], param: Tensor) -> np.ndarray:
    """Central-difference d fn / d param with step ``STEP``, one coordinate at a time.

    ``fn`` must recompute the scalar from current parameter values on
    every call; ``param.data`` is perturbed in place and restored.
    """
    flat = param.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + STEP
        hi = fn().item()
        flat[i] = saved - STEP
        lo = fn().item()
        flat[i] = saved
        grad[i] = (hi - lo) / (2.0 * STEP)
    return grad.reshape(param.data.shape)


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """max_i |a_i - b_i| / max(|a_i|, |b_i|, 1e-12), elementwise."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
    return float(np.max(np.abs(a - b) / denom))


def gradient_report(fn: Callable[[], Tensor], params: Sequence[tuple[str, Tensor]]) -> dict[str, float]:
    """Per-parameter worst relative error between tape and oracle.

    Entries where both gradients are below ``GRAD_MASK_FLOOR`` are
    skipped: at those coordinates the relative error of two near-zero
    numbers is dominated by finite-difference noise. A parameter whose
    every entry is masked reports 0.0.
    """
    from .tensor import backward

    for _, p in params:
        p.grad = None
    loss = fn()
    backward(loss)

    report: dict[str, float] = {}
    for name, p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = numeric_gradient(fn, p)
        mask = np.maximum(np.abs(analytic), np.abs(numeric)) > GRAD_MASK_FLOOR
        report[name] = relative_error(analytic[mask], numeric[mask]) if mask.any() else 0.0
    return report
