"""AdamW with decoupled weight decay and a warmup-cosine schedule."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, TrainingAborted
from .tensor import Tensor

DECAY_EXEMPT_SUFFIXES = (".bias", ".gain")
DECAY_EXEMPT_NAMES = ("log_temperature",)


def lr_at(step: int, warmup_steps: int, total_steps: int, base_lr: float, peak_lr: float) -> float:
    """Linear base→peak over warmup, cosine peak→0 over the remainder.

    Continuous at the boundary (both sides evaluate to peak_lr) and exactly
    zero at total_steps.
    """
    if step < 0:
        raise ConfigError("step must be non-negative")
    if not 0 < base_lr <= peak_lr:
        raise ConfigError("need peak_lr >= base_lr > 0")
    if warmup_steps > total_steps:
        raise ConfigError("warmup longer than the whole run")
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr + (peak_lr - base_lr) * (step / warmup_steps)
    span = max(1, total_steps - warmup_steps)
    progress = min(1.0, (step - warmup_steps) / span)
    return peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def is_decay_exempt(name: str) -> bool:
    return name.endswith(DECAY_EXEMPT_SUFFIXES) or name in DECAY_EXEMPT_NAMES


class AdamW:
    """Decoupled weight decay plus bias-corrected Adam moments.

    Decay skips biases, layernorm gains, and the temperature. A non-finite
    gradient anywhere aborts before any parameter is touched, so the model
    is left at its last good state.
    """

    def __init__(
        self,
        named_params: list[tuple[str, Tensor]],
        weight_decay: float = 0.1,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        if not named_params:
            raise ConfigError("optimizer needs at least one parameter")
        self.named_params = list(named_params)
        self.weight_decay = weight_decay
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.named_params}

    def step(self, lr: float) -> None:
        for name, p in self.named_params:
            grad = p.grad
            if grad is None:
                raise TrainingAborted(f"parameter {name!r} has no gradient")
            if not np.isfinite(grad).all():
                raise TrainingAborted(f"non-finite gradient in parameter {name!r}")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in self.named_params:
            if self.weight_decay and not is_decay_exempt(name):
                p.data *= 1.0 - lr * self.weight_decay
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad * p.grad
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def state(self) -> tuple[int, dict[str, np.ndarray], dict[str, np.ndarray]]:
        return self.t, self.m, self.v

    def load_state(self, t: int, m: dict[str, np.ndarray], v: dict[str, np.ndarray]) -> None:
        """Replace the step count and both moments; on a mismatch nothing changes."""
        names = {name for name, _ in self.named_params}
        if set(m) != names or set(v) != names:
            raise ConfigError("optimizer state does not match the parameter set")
        for name, p in self.named_params:
            if m[name].shape != p.data.shape or v[name].shape != p.data.shape:
                raise ConfigError(f"moment shape mismatch for {name!r}")
        self.t = int(t)
        for name, _ in self.named_params:
            self.m[name] = np.array(m[name], dtype=np.float64)
            self.v[name] = np.array(v[name], dtype=np.float64)
