"""Desk-scale contrastive language-image pretraining.

Five supervision variants (clip, slip, filip, declip, defilip) built as
composable loss terms over a shared pair of tiny encoders, with training,
zero-shot evaluation, and verification oracles included. Everything runs
on a CPU in float64 so gradients can be checked against finite
differences.
"""

from .config import TrainConfig
from .encoders import ConvConfig, DualEncoder, TextConfig, VitConfig
from .errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    DegenerateInputError,
    ManifestError,
    ShapeError,
    TrainingAborted,
)
from .losses import VARIANTS, LossBreakdown, LossConfig, NNQueue
from .trainer import TrainResult, load_model_for_eval, train
from .zeroshot import PromptSet, desk_prompts, evaluate, full_prompts

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "ConfigError",
    "ContractError",
    "ConvConfig",
    "DegenerateInputError",
    "DualEncoder",
    "LossBreakdown",
    "LossConfig",
    "ManifestError",
    "NNQueue",
    "PromptSet",
    "ShapeError",
    "TextConfig",
    "TrainConfig",
    "TrainResult",
    "TrainingAborted",
    "VARIANTS",
    "VitConfig",
    "desk_prompts",
    "evaluate",
    "full_prompts",
    "load_model_for_eval",
    "train",
    "__version__",
]
