"""Finite-difference gradient oracles.

The analytic gradients produced by the tape are checked against finite
differences (a central difference and a 5-point stencil) computed from the
same scalar function. The oracle never goes through any backward rule, so
agreement is evidence both paths are right.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor

STEP = 1e-5
FIVE_POINT_STEP = 1e-3
GRAD_MASK_FLOOR = 1e-8


def _per_coordinate(fn: Callable[[], Tensor], param: Tensor, estimate) -> np.ndarray:
    """``estimate(at, x)`` for every coordinate x of ``param``; ``at(v)`` is fn with that coordinate at v.

    ``fn`` must recompute the scalar from current parameter values on
    every call; ``param.data`` is perturbed in place and restored.
    """
    flat = param.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        saved = flat[i]

        def at(value: float) -> float:
            flat[i] = value
            return fn().item()

        grad[i] = estimate(at, saved)
        flat[i] = saved
    return grad.reshape(param.data.shape)


def numeric_gradient(fn: Callable[[], Tensor], param: Tensor) -> np.ndarray:
    """Central-difference d fn / d param with step ``STEP``, one coordinate at a time."""
    return _per_coordinate(fn, param, lambda at, x: (at(x + STEP) - at(x - STEP)) / (2.0 * STEP))


def five_point_gradient(fn: Callable[[], Tensor], param: Tensor) -> np.ndarray:
    """(-f(x+2h) + 8 f(x+h) - 8 f(x-h) + f(x-2h)) / 12h with h = 1e-3 max(1, |x|), per coordinate.

    O(h^4) truncation and ~1e-3 of a central difference's round-off, but wrong
    wherever a max switches its argument within 2h of x.
    """

    def estimate(at, x):
        h = FIVE_POINT_STEP * max(1.0, abs(x))
        return (-at(x + 2 * h) + 8 * at(x + h) - 8 * at(x - h) + at(x - 2 * h)) / (12 * h)

    return _per_coordinate(fn, param, estimate)


def _entry_errors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)


def gradient_report(fn: Callable[[], Tensor], params: Sequence[tuple[str, Tensor]]) -> dict[str, float]:
    """Per-parameter worst relative error between tape and oracle.

    Each entry keeps the smaller error of two oracles, the central
    difference and the 5-point stencil, as the acceptance gate does.
    Entries where the tape's gradient and that oracle are both below
    ``GRAD_MASK_FLOOR`` are skipped: at those coordinates the relative
    error of two near-zero numbers is dominated by finite-difference
    noise. A parameter whose every entry is masked reports 0.0.
    """
    from .tensor import backward

    for _, p in params:
        p.grad = None
    loss = fn()
    backward(loss)

    report: dict[str, float] = {}
    for name, p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        central, stencil = numeric_gradient(fn, p), five_point_gradient(fn, p)
        to_central, to_stencil = _entry_errors(analytic, central), _entry_errors(analytic, stencil)
        numeric = np.where(to_stencil < to_central, stencil, central)
        mask = np.maximum(np.abs(analytic), np.abs(numeric)) > GRAD_MASK_FLOOR
        report[name] = float(np.minimum(to_central, to_stencil)[mask].max()) if mask.any() else 0.0
    return report
