"""Tiny image and text encoders sharing one joint embedding space.

Both encoders expose pooled embeddings for global contrastive losses and
per-token embeddings for the token-wise (late interaction) losses. All
embeddings are projected to a common dimension; callers normalize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .data import END_ID, PAD_ID
from .errors import ConfigError, ContractError, ShapeError
from .nn import INIT_STD, LayerNorm, Linear, Module, ModuleList, TransformerBlock, pooled_tower, trunc_normal
from .tensor import Tensor

TEMPERATURE_INIT = 0.07
TEMPERATURE_MIN = 0.005
TEMPERATURE_MAX = 100.0


def _require_positive(cfg, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be positive, got {getattr(cfg, name)}")


def _require_rgb(cfg) -> None:
    if cfg.channels != 3:
        raise ConfigError(f"image.channels must be 3, got {cfg.channels}: every image is read as RGB")


@dataclass(frozen=True)
class VitConfig:
    image_size: int = 32
    patch_size: int = 4
    width: int = 96
    depth: int = 4
    heads: int = 4
    embed_dim: int = 64
    channels: int = 3

    def __post_init__(self):
        _require_positive(self, "image_size", "patch_size", "width", "depth", "heads", "embed_dim", "channels")
        _require_rgb(self)
        if self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        if self.width % self.heads != 0:
            raise ConfigError(f"width {self.width} not divisible by heads {self.heads}")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid * self.grid


@dataclass(frozen=True)
class ConvConfig:
    image_size: int = 32
    channels: int = 3
    stage_channels: tuple[int, ...] = (32, 64, 96)
    kernel_size: int = 3
    embed_dim: int = 64

    def __post_init__(self):
        if not self.stage_channels:
            raise ConfigError("stage_channels must be non-empty")
        _require_positive(self, "image_size", "channels", "kernel_size", "embed_dim")
        _require_rgb(self)
        if min(self.stage_channels) < 1:
            raise ConfigError(f"stage_channels must be positive, got {self.stage_channels}")
        if self.kernel_size % 2 != 1:
            raise ConfigError("kernel_size must be odd")
        side = self.image_size
        for _ in self.stage_channels:
            if side % 2 != 0:
                raise ConfigError(f"image_size {self.image_size} not halvable {len(self.stage_channels)} times")
            side //= 2
        if side < 2:
            raise ConfigError("final feature grid smaller than 2x2; drop a stage or grow the input")


@dataclass(frozen=True)
class TextConfig:
    vocab_size: int = 512
    context_length: int = 32
    width: int = 96
    depth: int = 4
    heads: int = 4
    embed_dim: int = 64

    MAX_CONTEXT = 76

    def __post_init__(self):
        # depth 0 is valid: a text tower of embeddings and the final projection only
        _require_positive(self, "width", "heads", "embed_dim")
        if self.depth < 0:
            raise ConfigError("depth must be >= 0")
        if self.context_length > self.MAX_CONTEXT:
            raise ConfigError(f"context_length {self.context_length} exceeds ceiling {self.MAX_CONTEXT}")
        if self.context_length < 4:
            raise ConfigError("context_length must be at least 4")
        if self.width % self.heads != 0:
            raise ConfigError(f"width {self.width} not divisible by heads {self.heads}")
        if self.vocab_size < 8:
            raise ConfigError("vocab_size too small for the reserved ids")


class EmbeddingSet:
    """Pooled plus per-token embeddings for one batch.

    ``mask[n, t]`` marks which slots of ``tokens`` are real. The token axis
    is the same for every row but not fixed across batches: the text
    encoder makes it as wide as the batch's longest sequence, not its
    context length. A masked slot still holds a row, computed like the real
    ones; consumers must keep it out of every reduction.

    ``tokens`` may be given as a Tensor or as a zero-argument builder of
    one. A builder runs the first time ``tokens`` is read, under the tape
    recording state in force when the set was made (so tokens of a
    ``no_grad`` pass record no tape wherever they are read), and its
    Tensor is kept from then on. A caller that reads only ``pooled`` never
    pays for the per-token outputs: the transformer towers hand over the
    every-row builder of ``pooled_tower``, so such a caller runs the
    attention and MLP of their last block for the pooled row alone.
    """

    def __init__(
        self,
        pooled: Tensor,                            # (N, D)
        tokens: Tensor | Callable[[], Tensor],     # (N, T, D)
        mask: np.ndarray,                          # (N, T) bool
    ):
        self.pooled = pooled
        self.mask = mask
        if isinstance(tokens, Tensor):
            self._tokens, self._builder = tokens, None
        else:
            self._tokens, self._builder = None, tokens
        self._recording = T.is_recording()

    @property
    def tokens(self) -> Tensor:
        if self._tokens is None:
            with T.recording(self._recording):
                self._tokens = self._builder()
            self._builder = None  # let go of the activations it closed over
        return self._tokens


class VitEncoder(Module):
    """Patch transformer over square images, class-token pooled.

    Per-token output covers the patch positions only; the class token is
    pooled separately and never appears in the token set.

    ``pooled_tower`` pools the class row: past the last block's fused
    qkv, the class row alone goes through the attention, the MLP and
    ``proj`` (which runs ``ln_final`` in its own node) to give ``pooled``.
    The other rows take the same path only when ``tokens`` is read, so a
    pass that needs ``pooled`` alone (an augmented view, an eval batch)
    runs the rest of the last block for one row in 65.
    """

    def __init__(self, cfg: VitConfig, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        patch_dim = cfg.channels * cfg.patch_size * cfg.patch_size
        self.patch_proj = Linear(patch_dim, cfg.width, rng)
        self.class_token = Tensor(trunc_normal(rng, (1, 1, cfg.width)), requires_grad=True)
        self.pos_embedding = Tensor(
            trunc_normal(rng, (1, cfg.num_patches + 1, cfg.width)), requires_grad=True
        )
        self.blocks = ModuleList(TransformerBlock(cfg.width, cfg.heads, rng) for _ in range(cfg.depth))
        self.ln_final = LayerNorm(cfg.width)
        self.proj = Linear(cfg.width, cfg.embed_dim, rng, bias=False)

    def _patchify(self, images: Tensor) -> Tensor:
        cfg = self.cfg
        n = images.shape[0]
        g, p = cfg.grid, cfg.patch_size
        x = T.reshape(images, (n, cfg.channels, g, p, g, p))
        x = T.transpose(x, (0, 2, 4, 1, 3, 5))
        return T.reshape(x, (n, g * g, cfg.channels * p * p))

    def __call__(self, images: Tensor) -> EmbeddingSet:
        cfg = self.cfg
        expected = (cfg.channels, cfg.image_size, cfg.image_size)
        if images.ndim != 4 or images.shape[1:] != expected:
            raise ShapeError(f"VitEncoder expects (N, {expected[0]}, {expected[1]}, {expected[2]}), got {images.shape}")
        n = images.shape[0]
        x = self.patch_proj(self._patchify(images))
        cls = T.broadcast_to(self.class_token, (n, 1, cfg.width))
        x = T.concat([cls, x], axis=1) + self.pos_embedding
        pooled, every_row = pooled_tower(self.blocks, x, np.zeros(n, dtype=np.int64))
        pooled = T.l2_normalize(self.proj(pooled, norm=self.ln_final))
        mask = np.ones((n, cfg.num_patches), dtype=bool)
        return EmbeddingSet(pooled, lambda: T.l2_normalize(self.proj(every_row()[:, 1:], norm=self.ln_final)), mask)


class ConvEncoder(Module):
    """Small conv trunk; each stage is a "same" conv + gelu + 2x2 average pool.

    Each stage is one ``conv2d(..., gelu_pool=True)`` tape node: the conv
    output and the GELU output are temporaries of its forward, so the tape
    holds neither; it keeps the stage's input and GELU's slope.
    The trunk runs channel-major: the (N, C, H, W) images are transposed to
    (C, N, H, W) once on the way in, every stage keeps that layout (its conv
    takes and returns it, its pool does not depend on it), and
    the final grid is transposed to (N, cells, C) once on the way out.
    Tokens are the final grid cells, pooled is the global average. The
    receptive fields of neighbouring cells overlap, so their token-wise
    matches are correlated; ``trainer.compute_step_loss`` warns when a
    variant aligns them.
    """

    def __init__(self, cfg: ConvConfig, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        self.filters = []
        in_ch = cfg.channels
        k = cfg.kernel_size
        for i, out_ch in enumerate(cfg.stage_channels):
            w = Tensor(trunc_normal(rng, (out_ch, in_ch, k, k), std=INIT_STD * 4), requires_grad=True)
            setattr(self, f"stage{i}_filter", w)
            self.filters.append(w)
            in_ch = out_ch
        self.proj = Linear(in_ch, cfg.embed_dim, rng, bias=False)

    def __call__(self, images: Tensor) -> EmbeddingSet:
        cfg = self.cfg
        expected = (cfg.channels, cfg.image_size, cfg.image_size)
        if images.ndim != 4 or images.shape[1:] != expected:
            raise ShapeError(f"ConvEncoder expects (N, {expected[0]}, {expected[1]}, {expected[2]}), got {images.shape}")
        x = T.transpose(images, (1, 0, 2, 3))  # (c, n, h, w)
        for w in self.filters:
            x = T.conv2d(x, w, gelu_pool=True)
        c, n, gh, gw = x.shape
        cells = T.transpose(T.reshape(x, (c, n, gh * gw)), (1, 2, 0))  # (n, cells, c)
        pooled = T.l2_normalize(self.proj(T.mean(cells, axis=1)))
        mask = np.ones((n, gh * gw), dtype=bool)
        return EmbeddingSet(pooled, lambda: T.l2_normalize(self.proj(cells)), mask)


# each value of ``train.image_encoder``: the [image] section's config class and its tower
IMAGE_TOWERS = {"vit": (VitConfig, VitEncoder), "conv": (ConvConfig, ConvEncoder)}


class TextEncoder(Module):
    """Bidirectional token transformer pooled at the end-of-text position.

    Attention is bidirectional (not causal) so the same trunk can score
    masked-token reconstruction; padding positions are masked out of every
    attention row. Per-token output has a row at every position; ``mask``
    hides the padding rows, which are ordinary trunk rows.

    Ids come in as (N, context_length), but the trunk runs only over the
    batch's longest sequence: trailing columns that are padding in every
    row are dropped first. A padding key gets an attention weight of
    exactly zero and every consumer masks padding slots out, so those
    columns change no output and no gradient. Hidden states, ``tokens``
    and ``mask`` are therefore (N, L, ...) with L <= context_length.

    ``pooled_tower`` pools the end-of-text row, as the ViT pools its class
    row: past the last block's fused qkv, the other rows run on only when
    ``tokens`` is read. ``forward_hidden`` runs every block over all rows.
    """

    def __init__(self, cfg: TextConfig, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        self.token_embedding = Tensor(trunc_normal(rng, (cfg.vocab_size, cfg.width)), requires_grad=True)
        self.pos_embedding = Tensor(trunc_normal(rng, (1, cfg.context_length, cfg.width)), requires_grad=True)
        self.blocks = ModuleList(TransformerBlock(cfg.width, cfg.heads, rng) for _ in range(cfg.depth))
        self.ln_final = LayerNorm(cfg.width)
        self.proj = Linear(cfg.width, cfg.embed_dim, rng, bias=False)
        self.mlm_head = Linear(cfg.width, cfg.vocab_size, rng)

    def _validate_ids(self, ids: np.ndarray) -> np.ndarray:
        """``ids`` as an (N, context_length) integer array of ids in [0, vocab_size):
        ``tensor._indices`` rejects a float or bool id (ShapeError) and one out of range
        (IndexError), and a wrong width is ShapeError."""
        ids = T._indices("TextEncoder", ids, self.cfg.vocab_size)
        if ids.ndim != 2 or ids.shape[1] != self.cfg.context_length:
            raise ShapeError(
                f"TextEncoder expects (N, {self.cfg.context_length}) token ids, got {ids.shape}"
            )
        return ids

    def _trimmed_ids(self, ids: np.ndarray) -> np.ndarray:
        """Validated ids without the trailing columns that are padding in every row."""
        ids = self._validate_ids(ids)
        real = np.flatnonzero((ids != PAD_ID).any(axis=0))
        return ids[:, : real[-1] + 1] if real.size else ids

    def _embedded(self, ids: np.ndarray) -> tuple[Tensor, np.ndarray]:
        """The trunk's input for ids that ``_trimmed_ids`` returned, and its attention bias."""
        # rows may attend anywhere except padding columns
        bias = np.where((ids == PAD_ID)[:, None, None, :], T.MASK_PENALTY, 0.0)
        return T.embedding_lookup(self.token_embedding, ids) + self.pos_embedding[:, : ids.shape[1]], bias

    def forward_hidden(self, ids: np.ndarray) -> Tensor:
        """Final-layernorm hidden states (N, L, width), before projection.

        L is the batch's longest sequence, so a position (row, col) of a
        non-padding token indexes the same slot as in ``ids``. ``ln_final``
        stays a node of its own here: ``mlm_logits`` gathers rows after it,
        and a norm folded into ``mlm_head`` would sum a repeated position's
        gradients in another order.
        """
        x, bias = self._embedded(self._trimmed_ids(ids))
        for block in self.blocks:
            x = block(x, bias)
        return self.ln_final(x)

    def __call__(self, ids: np.ndarray) -> EmbeddingSet:
        ids = self._trimmed_ids(ids)
        n = ids.shape[0]
        eot = np.argmax(ids == END_ID, axis=1)
        if not (ids[np.arange(n), eot] == END_ID).all():
            raise ContractError("a sequence has no end-of-text token")
        x, bias = self._embedded(ids)
        pooled, every_row = pooled_tower(self.blocks, x, eot, bias)
        pooled = T.l2_normalize(self.proj(pooled, norm=self.ln_final))
        return EmbeddingSet(pooled, lambda: T.l2_normalize(self.proj(every_row(), norm=self.ln_final)), ids != PAD_ID)

    def mlm_logits(self, hidden: Tensor, positions: np.ndarray) -> Tensor:
        """Vocabulary logits (P, vocab_size) at (row, col) positions, which may repeat.

        ``positions`` is (P, 2); ``tensor._indices`` checks its row column against
        the n rows and its col column against the L columns of ``hidden``.
        """
        pos = np.asarray(positions)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ShapeError(f"positions must be (P, 2), got {pos.shape}")
        n, L, _ = hidden.shape
        rows, cols = T._indices("mlm_logits", pos[:, 0], n), T._indices("mlm_logits", pos[:, 1], L)
        return self.mlm_head(hidden[rows, cols])


class DualEncoder(Module):
    """Image encoder + text encoder + one learnable softmax temperature.

    The temperature is stored as its logarithm so gradient steps scale
    multiplicatively; ``clamp_temperature`` enforces the allowed range
    after each optimizer step.
    """

    def __init__(self, image_encoder: Module, text_encoder: TextEncoder):
        super().__init__()
        self.image = image_encoder
        self.text = text_encoder
        self.log_temperature = Tensor(np.array(math.log(TEMPERATURE_INIT)), requires_grad=True)

    def temperature(self) -> Tensor:
        return T.exp(self.log_temperature)

    def clamp_temperature(self) -> None:
        lo, hi = math.log(TEMPERATURE_MIN), math.log(TEMPERATURE_MAX)
        # clip in place: np.clip on a 0-d array would hand back a scalar
        np.clip(self.log_temperature.data, lo, hi, out=self.log_temperature.data)

    def encode_image(self, images: Tensor) -> EmbeddingSet:
        return self.image(images)

    def encode_text(self, ids: np.ndarray) -> EmbeddingSet:
        return self.text(ids)
