"""Shared exception types used across the package, and the finite-value rule of the configs."""

import dataclasses
import math


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class DegenerateInputError(ValueError):
    """Input is structurally valid but numerically degenerate (e.g. zero norm)."""


class ConfigError(ValueError):
    """A configuration value violates its documented invariant."""


def require_finite(cfg, section: str) -> None:
    """Reject nan and +-inf in every float field of the config dataclass ``cfg``."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{section}.{f.name}: {str(value)!r} is not a finite number")


class CheckpointError(RuntimeError):
    """Checkpoint file is missing, corrupt, or inconsistent with the model."""


class ManifestError(ValueError):
    """A dataset manifest or another input file could not be read or parsed."""


class TrainingAborted(RuntimeError):
    """Training stopped early because of a non-finite loss or gradient."""


class CheckFailed(RuntimeError):
    """A verification check failed, or an accuracy fell below its required bar."""
