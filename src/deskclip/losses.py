"""Composable supervision terms for contrastive language-image pretraining.

Five training variants are assembled from six reusable loss terms:

  clip          symmetric InfoNCE between pooled image and text embeddings
  image_ssl     NT-Xent between two strong augmented views of each image
  text_mlm      masked-token reconstruction through the text trunk
  multiview     InfoNCE over the augmented image/text pairings
  neighbor      InfoNCE against nearest-neighbor texts from past steps
  token_align   symmetric InfoNCE over token-wise maximum similarity

``LossConfig.term_weights()`` is the single variant table: it names the
terms each variant uses and their weights. The trainer computes exactly
the terms it names, builds augmented views and trains the masked-token
head only when a named term needs them, and weights the total with it.

Every term consumes unit-normalized embeddings; non-unit inputs violate
the contract and raise. Weighted sums are tracked in a LossBreakdown so
the composite can always be re-derived from its parts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import MASK_ID, NUM_RESERVED
from .encoders import EmbeddingSet, TextEncoder
from .errors import ConfigError, ContractError, DegenerateInputError, ShapeError
from .tensor import Tensor

MASK_PENALTY = -1e9
UNIT_NORM_ATOL = 1e-6

VARIANTS = ("clip", "slip", "filip", "declip", "defilip")
TERM_ORDER = ("clip", "image_ssl", "text_mlm", "multiview", "neighbor", "token_align")

# masked-token corruption policy
MLM_RATE = 0.15
MLM_MASK_PROB = 0.80
MLM_RANDOM_PROB = 0.10


def _assert_unit_rows(x: Tensor, what: str) -> None:
    norms = np.sqrt((x.data * x.data).sum(axis=-1))
    worst = float(np.abs(norms - 1.0).max()) if norms.size else 0.0
    if worst > UNIT_NORM_ATOL:
        raise ContractError(f"{what}: rows must be unit-norm, worst deviation {worst:.3e}")


def _temperature_value(temperature) -> float:
    if isinstance(temperature, Tensor):
        return float(temperature.data)
    return float(temperature)


# configuration ------------------------------------------------------------


@dataclass
class LossConfig:
    """Which terms are active and how they are weighted.

    For the composite variants the clip term carries the remainder weight
    1 - ssl_weight - multiview_weight - neighbor_weight, which must stay
    positive: a composite with no paired-image-text anchor is disallowed.
    """

    variant: str = "clip"
    ssl_weight: float = 0.2          # shared by image_ssl and text_mlm
    multiview_weight: float = 0.2
    neighbor_weight: float = 0.2
    token_align_weight: float = 0.2  # token_align contribution on top of the composite
    slip_ssl_weight: float = 1.0     # image_ssl weight in the slip variant
    ssl_temperature: float = 0.1     # fixed, separate from the learnable pair temperature
    filip_token_fraction: float = 1.0
    neighbor_queue_capacity: int = 1024

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of {', '.join(VARIANTS)}")
        for name in ("ssl_weight", "multiview_weight", "neighbor_weight",
                     "token_align_weight", "slip_ssl_weight"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if not 0.0 < self.filip_token_fraction <= 1.0:
            raise ConfigError("filip_token_fraction must lie in (0, 1]")
        if self.ssl_temperature <= 0:
            raise ConfigError("ssl_temperature must be positive")
        if self.neighbor_queue_capacity < 1:
            raise ConfigError("neighbor_queue_capacity must be positive")
        weights = self.term_weights()
        if "clip" in weights and weights["clip"] <= 0:
            raise ConfigError(
                "ssl_weight + multiview_weight + neighbor_weight must stay below 1 "
                "so the paired image-text term keeps positive weight"
            )

    def term_weights(self) -> dict[str, float]:
        """The variant table: each active term of this variant and its weight.

        Keys are the terms the trainer computes (a zero weight still
        computes the term); values multiply them in the total.
        """
        composite = {
            "clip": 1.0 - self.ssl_weight - self.multiview_weight - self.neighbor_weight,
            "image_ssl": self.ssl_weight,
            "text_mlm": self.ssl_weight,
            "multiview": self.multiview_weight,
            "neighbor": self.neighbor_weight,
        }
        return {
            "clip": {"clip": 1.0},
            "slip": {"clip": 1.0, "image_ssl": self.slip_ssl_weight},
            "filip": {"token_align": 1.0},
            "declip": composite,
            "defilip": {**composite, "token_align": self.token_align_weight},
        }[self.variant]


# breakdown ------------------------------------------------------------------


@dataclass
class LossBreakdown:
    """A composite loss with its parts kept inspectable.

    ``total`` is a live graph node; ``terms`` maps term name to its scalar
    node and ``weights`` to the multiplier used. The invariant
    total == sum(weights[k] * terms[k]) holds within 1e-12.
    """

    total: Tensor
    terms: dict[str, Tensor]
    weights: dict[str, float]
    diagnostics: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for name, term in self.terms.items():
            if not np.isfinite(term.data).all():
                raise ContractError(f"loss term {name!r} is not finite")
        if not np.isfinite(self.total.data).all():
            raise ContractError("total loss is not finite")

    def value(self, name: str) -> float:
        return self.terms[name].item()

    def recompute_total(self) -> float:
        return sum(self.weights[k] * self.terms[k].item() for k in self.terms)

    def log_line(self, step: int) -> str:
        parts = [f"step={step}", f"total={self.total.item():.6f}"]
        for name in TERM_ORDER:
            if name in self.terms:
                parts.append(f"{name}={self.terms[name].item():.6f}")
        for name in sorted(self.diagnostics):
            parts.append(f"{name}={self.diagnostics[name]:.6f}")
        for name in sorted(self.counters):
            parts.append(f"{name}={int(self.counters[name])}")
        return " ".join(parts)


def combine_terms(terms: dict[str, Tensor], weights: dict[str, float], **extra) -> LossBreakdown:
    missing = set(weights) - set(terms)
    if missing:
        raise ContractError(f"weights reference missing terms: {sorted(missing)}")
    total = None
    for name in TERM_ORDER:
        if name not in weights:
            continue
        piece = terms[name] * T.constant(weights[name])
        total = piece if total is None else total + piece
    if total is None:
        raise ContractError("no terms to combine")
    kept = {k: v for k, v in terms.items() if k in weights}
    return LossBreakdown(total, kept, dict(weights), **extra)


# pairwise InfoNCE ------------------------------------------------------------


def info_nce(left: Tensor, right: Tensor, temperature) -> Tensor:
    """Mean cross-entropy of matching left_i to right_i among all rights.

    Rows of both operands must be unit vectors; ``temperature`` divides
    the cosine logits and may be a live scalar node so it can be learned.
    """
    if left.ndim != 2 or right.ndim != 2 or left.shape != right.shape:
        raise ShapeError(f"info_nce expects matching (N, D) operands, got {left.shape} and {right.shape}")
    if _temperature_value(temperature) <= 0:
        raise ContractError("info_nce temperature must be positive")
    _assert_unit_rows(left, "info_nce left")
    _assert_unit_rows(right, "info_nce right")
    n = left.shape[0]
    logits = T.matmul(left, T.transpose(right)) / temperature
    return T.cross_entropy(logits, np.arange(n))


def paired_nce(a: Tensor, b: Tensor, temperature) -> Tensor:
    """Symmetric InfoNCE: average of both matching directions."""
    return (info_nce(a, b, temperature) + info_nce(b, a, temperature)) * T.constant(0.5)


def clip_loss(img: EmbeddingSet, txt: EmbeddingSet, temperature) -> LossBreakdown:
    """Pooled-embedding contrastive loss, averaged over both directions."""
    if img.pooled.shape[0] != txt.pooled.shape[0]:
        raise ContractError(
            f"batch mismatch: {img.pooled.shape[0]} images vs {txt.pooled.shape[0]} texts"
        )
    i2t = info_nce(img.pooled, txt.pooled, temperature)
    t2i = info_nce(txt.pooled, img.pooled, temperature)
    term = (i2t + t2i) * T.constant(0.5)
    # the term is its own total: a weight-1 product node would sit on the tape
    # unused whenever the term enters a larger composite
    return LossBreakdown(
        term,
        {"clip": term},
        {"clip": 1.0},
        diagnostics={"image_to_text": i2t.item(), "text_to_image": t2i.item()},
    )


# image self-supervision -------------------------------------------------------


def nt_xent_loss(view_a: Tensor, view_b: Tensor, temperature: float) -> Tensor:
    """SimCLR objective over 2N augmented embeddings.

    Each embedding's positive is its sibling view; its own row is excluded
    from the denominator by a large negative logit penalty.
    """
    if view_a.shape != view_b.shape or view_a.ndim != 2:
        raise ShapeError(f"nt_xent expects matching (N, D) views, got {view_a.shape} and {view_b.shape}")
    n = view_a.shape[0]
    if n < 1:
        raise ContractError("nt_xent requires at least one pair")
    _assert_unit_rows(view_a, "nt_xent view_a")
    _assert_unit_rows(view_b, "nt_xent view_b")
    z = T.concat([view_a, view_b], axis=0)
    logits = T.matmul(z, T.transpose(z)) / float(temperature)
    logits = logits + T.constant(np.eye(2 * n) * MASK_PENALTY)
    targets = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    return T.cross_entropy(logits, targets)


# masked-token reconstruction ---------------------------------------------------


@dataclass
class MlmBatch:
    """One corrupted batch for masked-token prediction."""

    ids: np.ndarray        # (N, L) corrupted token ids
    positions: np.ndarray  # (P, 2) row, col of each prediction site
    targets: np.ndarray    # (P,) original ids at those sites
    skipped: int = 0       # sequences with nothing maskable


def make_mlm_batch(
    ids: np.ndarray,
    vocab_size: int,
    rng: np.random.Generator,
    rate: float = MLM_RATE,
) -> MlmBatch:
    """Corrupt ``rate`` of the ordinary tokens per sequence.

    Of the chosen positions 80% become the mask id, 10% a random ordinary
    id, 10% stay unchanged. A sequence whose draw selects nothing gets one
    forced position so every maskable sequence contributes; sequences with
    no ordinary tokens at all are skipped and counted.
    """
    ids = np.asarray(ids, dtype=np.int64)
    corrupted = ids.copy()
    n, L = ids.shape
    maskable = ids >= NUM_RESERVED  # the reserved ids are 0 .. NUM_RESERVED - 1
    if NUM_RESERVED >= vocab_size:
        raise ConfigError("vocabulary has no ordinary ids to sample for corruption")
    rows, cols, targets = [], [], []
    skipped = 0
    for i in range(n):
        cand = np.flatnonzero(maskable[i])
        if cand.size == 0:
            skipped += 1
            continue
        chosen = cand[rng.random(cand.size) < rate]
        if chosen.size == 0:
            chosen = cand[[rng.integers(cand.size)]]
        for j in chosen:
            rows.append(i)
            cols.append(j)
            targets.append(ids[i, j])
            u = rng.random()
            if u < MLM_MASK_PROB:
                corrupted[i, j] = MASK_ID
            elif u < MLM_MASK_PROB + MLM_RANDOM_PROB:
                corrupted[i, j] = rng.integers(NUM_RESERVED, vocab_size)
            # else: keep the original id, prediction site only
    positions = np.stack([rows, cols], axis=1) if rows else np.zeros((0, 2), dtype=np.int64)
    return MlmBatch(corrupted, positions.astype(np.int64), np.asarray(targets, dtype=np.int64), skipped)


def masked_token_loss(text_encoder: TextEncoder, batch: MlmBatch) -> tuple[Tensor, int]:
    """Cross-entropy of the vocabulary head at the corrupted positions.

    Returns (loss, skipped); an empty batch contributes a constant zero.
    """
    if batch.positions.shape[0] == 0:
        return T.constant(0.0), batch.skipped + 1
    hidden = text_encoder.forward_hidden(batch.ids)
    logits = text_encoder.mlm_logits(hidden, batch.positions)
    return T.cross_entropy(logits, batch.targets), batch.skipped


# multi-view supervision ---------------------------------------------------------


def multiview_loss(img: Tensor, img_aug: Tensor, txt: Tensor, txt_aug: Tensor, temperature) -> Tensor:
    """Mean symmetric InfoNCE over the three augmented pairings.

    The original (img, txt) pairing is deliberately excluded: it is the
    clip term, and keeping it out makes the composite's parts disjoint.
    """
    sizes = {x.shape[0] for x in (img, img_aug, txt, txt_aug)}
    if len(sizes) != 1:
        raise ContractError(f"multiview batch sizes differ: {sorted(sizes)}")
    parts = (
        paired_nce(img_aug, txt, temperature)
        + paired_nce(img, txt_aug, temperature)
        + paired_nce(img_aug, txt_aug, temperature)
    )
    return parts / T.constant(3.0)


# nearest-neighbor text supervision ------------------------------------------------


class NNQueue:
    """Fixed-capacity FIFO of past text embeddings with cosine lookup.

    Oldest entries are overwritten first. Lookups never see vectors from
    the current step because callers query before they enqueue.
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ConfigError("queue capacity must be positive")
        self.capacity = capacity
        self.buffer: np.ndarray | None = None
        self.fill = 0
        self.head = 0  # next slot to write

    def enqueue(self, vectors: np.ndarray) -> None:
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ShapeError(f"enqueue expects (K, D), got {vectors.shape}")
        if self.buffer is None:
            self.buffer = np.zeros((self.capacity, vectors.shape[1]))
        elif vectors.shape[1] != self.buffer.shape[1]:
            raise ShapeError(
                f"enqueue dimension {vectors.shape[1]} does not match queue dimension {self.buffer.shape[1]}"
            )
        if vectors.shape[0] > self.capacity:
            vectors = vectors[-self.capacity :]
        k = vectors.shape[0]
        slots = (self.head + np.arange(k)) % self.capacity
        self.buffer[slots] = vectors
        self.head = int((self.head + k) % self.capacity)
        self.fill = min(self.capacity, self.fill + k)

    def nearest(self, queries: np.ndarray) -> np.ndarray:
        """Per query, the stored vector with highest cosine similarity."""
        if self.fill == 0:
            raise ContractError("nearest called on an empty queue")
        queries = np.asarray(queries, dtype=np.float64)
        stored = self.buffer[: self.fill]
        idx = np.argmax(queries @ stored.T, axis=1)  # ties: lowest slot index
        return stored[idx].copy()

    def state(self) -> tuple[np.ndarray, int, int]:
        buf = self.buffer.copy() if self.buffer is not None else np.zeros((self.capacity, 0))
        return buf, self.fill, self.head

    def load_state(self, buffer: np.ndarray, fill: int, head: int) -> None:
        self.buffer = None if buffer.shape[1] == 0 else np.asarray(buffer, dtype=np.float64).copy()
        self.fill = int(fill)
        self.head = int(head)


def neighbor_supervision_loss(
    img_pooled: Tensor,
    txt_pooled: Tensor,
    queue: NNQueue,
    temperature,
    update_queue: bool = True,
) -> tuple[Tensor, int]:
    """Contrast images against nearest-neighbor texts retrieved from history.

    The neighbors are constants (no gradient reaches past steps). On a cold
    queue the term is zero and the skip counter reports it; the current
    texts are enqueued either way when ``update_queue`` is set.
    """
    _assert_unit_rows(img_pooled, "neighbor img")
    _assert_unit_rows(txt_pooled, "neighbor txt")
    if queue.fill == 0:
        if update_queue:
            queue.enqueue(txt_pooled.data)
        return T.constant(0.0), 1
    neighbors = T.constant(queue.nearest(txt_pooled.data))
    loss = paired_nce(img_pooled, neighbors, temperature)
    if update_queue:
        queue.enqueue(txt_pooled.data)
    return loss, 0


# token-wise alignment --------------------------------------------------------------


def select_topk_tokens(tokens: np.ndarray, scores: np.ndarray, fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """Keep the ceil(fraction * n) highest-scoring tokens, order preserved.

    Returns (reduced tokens, kept indices). At least one token survives;
    score ties keep the lower index.
    """
    if not 0.0 < fraction <= 1.0:
        raise ContractError(f"fraction must lie in (0, 1], got {fraction}")
    tokens = np.asarray(tokens)
    scores = np.asarray(scores, dtype=np.float64)
    n = tokens.shape[0]
    if scores.shape != (n,):
        raise ShapeError(f"scores shape {scores.shape} does not match {n} tokens")
    k = max(1, math.ceil(fraction * n))
    ranked = np.argsort(-scores, kind="stable")[:k]
    kept = np.sort(ranked)
    return tokens[kept], kept


def _reduce_token_masks(
    sims4: np.ndarray,
    img_mask: np.ndarray,
    txt_mask: np.ndarray,
    fraction: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per sample, keep only the tokens that matched something well.

    A token's score is its best similarity against every unmasked token of
    the other modality anywhere in the batch, mirroring the selection used
    to cut communication cost at scale.
    """
    n, n1, _, n2 = sims4.shape
    txt_pen = np.where(txt_mask, 0.0, MASK_PENALTY)[None, None]
    img_pen = np.where(img_mask, 0.0, MASK_PENALTY)[:, :, None, None]
    img_scores = (sims4 + txt_pen).max(axis=(2, 3))  # (n, n1)
    txt_scores = (sims4 + img_pen).max(axis=(0, 1))  # (n, n2)
    new_img = np.zeros_like(img_mask)
    new_txt = np.zeros_like(txt_mask)
    for i in range(n):
        for mask, scores, out in ((img_mask, img_scores, new_img), (txt_mask, txt_scores, new_txt)):
            valid = np.flatnonzero(mask[i])
            _, kept = select_topk_tokens(valid, scores[i, valid], fraction)
            out[i, valid[kept]] = True
    return new_img, new_txt


def tokenwise_alignment_loss(
    img: EmbeddingSet,
    txt: EmbeddingSet,
    temperature,
    token_fraction: float = 1.0,
) -> Tensor:
    """Batch contrastive loss on token-wise maximum similarity scores.

    Both directions build an N x N score matrix from per-token matches and
    apply the usual matching cross-entropy; the two are averaged. Warns
    when the image tokens come from overlapping receptive fields.
    """
    if img.overlapping_receptive_fields:
        warnings.warn(
            "token-wise alignment over overlapping receptive fields: neighbouring "
            "image tokens share input pixels, so per-token matches are correlated",
            stacklevel=2,
        )
    n = img.tokens.shape[0]
    if txt.tokens.shape[0] != n:
        raise ContractError(f"batch mismatch: {n} images vs {txt.tokens.shape[0]} texts")
    if _temperature_value(temperature) <= 0:
        raise ContractError("temperature must be positive")
    n1, n2 = img.tokens.shape[1], txt.tokens.shape[1]
    flat_img = T.reshape(img.tokens, (n * n1, img.tokens.shape[2]))
    flat_txt = T.reshape(txt.tokens, (n * n2, txt.tokens.shape[2]))
    sims4 = T.reshape(T.matmul(flat_img, T.transpose(flat_txt)), (n, n1, n, n2))

    img_mask, txt_mask = img.mask, txt.mask
    if not (img_mask.any(axis=1).all() and txt_mask.any(axis=1).all()):
        raise DegenerateInputError("a sample has zero unmasked tokens")
    if token_fraction < 1.0:
        img_mask, txt_mask = _reduce_token_masks(sims4.data, img_mask, txt_mask, token_fraction)

    txt_pen = T.constant(np.where(txt_mask, 0.0, MASK_PENALTY)[None, None])    # (1,1,N,n2)
    # with every image token kept (ViT, or conv at token fraction 1) the penalty is all
    # zeros, and adding it would only copy sims4
    img_pen = None
    if not img_mask.all():
        img_pen = T.constant(np.where(img_mask, 0.0, MASK_PENALTY)[:, :, None, None])  # (N,n1,1,1)
    img_keep = T.constant(img_mask.astype(np.float64)[:, :, None])             # (N,n1,1)
    txt_keep = T.constant(txt_mask.astype(np.float64)[None])                   # (1,N,n2)
    img_counts = T.constant(img_mask.sum(axis=1).astype(np.float64)[:, None])  # (N,1)
    txt_counts = T.constant(txt_mask.sum(axis=1).astype(np.float64)[None])     # (1,N)

    best_txt = T.max_(sims4 + txt_pen, axis=3)                      # (N, n1, N)
    image_side = T.sum_(best_txt * img_keep, axis=1) / img_counts   # (N, N): image i vs text j
    best_img = T.max_(sims4 if img_pen is None else sims4 + img_pen, axis=1)  # (N, N, n2)
    text_side = T.sum_(best_img * txt_keep, axis=2) / txt_counts    # (N, N): image i vs text j

    targets = np.arange(n)
    i2t = T.cross_entropy(image_side / temperature, targets)
    t2i = T.cross_entropy(T.transpose(text_side) / temperature, targets)
    return (i2t + t2i) * T.constant(0.5)
