"""Zero-shot classification by prompt ensembling.

Class names are expanded through caption templates, embedded with the
text encoder, averaged per class, and re-normalized; images are then
classified by cosine similarity against the resulting matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import Vocab, encode_batch, load_images, read_text, tokenize_words
from .errors import ConfigError, ContractError, DegenerateInputError

PROMPT_DIR = Path(__file__).parent / "prompts"


@dataclass(frozen=True)
class PromptSet:
    templates: tuple[str, ...]

    def __post_init__(self):
        if not self.templates:
            raise ConfigError("prompt set is empty")
        for template in self.templates:
            if template.count("{label}") != 1:
                raise ConfigError(f"template must contain {{label}} exactly once: {template!r}")

    def fill(self, label: str) -> list[str]:
        # replace, not format: any other brace in a template is text
        return [template.replace("{label}", label) for template in self.templates]

    @classmethod
    def load(cls, path: str | Path) -> "PromptSet":
        lines = read_text(path, "prompt file").splitlines()
        return cls(tuple(line.strip() for line in lines if line.strip()))


def desk_prompts() -> PromptSet:
    return PromptSet.load(PROMPT_DIR / "desk.txt")


def full_prompts() -> PromptSet:
    return PromptSet.load(PROMPT_DIR / "clip_imagenet.txt")


def build_classifier(
    class_names: list[str],
    prompts: PromptSet,
    model,
    vocab: Vocab,
    context_length: int,
) -> np.ndarray:
    """(K, D) unit rows: per class, mean prompt embedding re-normalized.

    DegenerateInputError, naming the class, when a prompt embedding is not finite
    or a class's prompt embeddings cancel to zero.
    """
    if not class_names:
        raise ContractError("need at least one class")
    rows = []
    for name in class_names:
        if not tokenize_words(name):
            raise ContractError(f"class name {name!r} tokenizes to nothing")
        ids = encode_batch(prompts.fill(name), vocab, context_length)
        with T.no_grad():
            pooled = model.encode_text(ids).pooled.data
        if not np.isfinite(pooled).all():
            raise DegenerateInputError(f"prompt embeddings for {name!r} are not finite")
        mean = pooled.mean(axis=0)
        norm = float(np.linalg.norm(mean))
        if norm < 1e-12:
            raise DegenerateInputError(f"prompt embeddings for {name!r} cancel to zero")
        rows.append(mean / norm)
    return np.stack(rows)


# pixels per image block: 16 images at 32x32, so that a conv stage's activations and
# im2col columns stay within the caches and below glibc's mmap threshold
BLOCK_PIXELS = 16384


def classify(images: np.ndarray, classifier: np.ndarray, model, batch_size: int = 64) -> np.ndarray:
    """Argmax cosine score per image; ties resolve to the lowest class id.

    The image encoder runs over the fewest blocks of near-equal size (sizes differ by
    at most one) that hold at most min(batch_size, BLOCK_PIXELS // (h*w)) images each,
    so ``batch_size`` caps the images per encoder call. Near-equal blocks keep every
    call on the same BLAS path: a one-image block would round differently. A block
    whose embeddings are not finite raises DegenerateInputError, naming its images.
    """
    if classifier.ndim != 2:
        raise ContractError(f"classifier must be (K, D), got {classifier.shape}")
    if batch_size < 1:
        raise ContractError(f"batch_size must be at least 1, got {batch_size}")
    count = images.shape[0]
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    cap = min(batch_size, max(1, BLOCK_PIXELS // (images.shape[-2] * images.shape[-1])))
    preds, start = [], 0
    for block in np.array_split(images, -(-count // cap)):
        with T.no_grad():
            pooled = model.encode_image(T.Tensor(block)).pooled.data
        if not np.isfinite(pooled).all():
            raise DegenerateInputError(f"embeddings of images {start}-{start + len(block) - 1} are not finite")
        start += len(block)
        if pooled.shape[1] != classifier.shape[1]:
            raise ContractError(
                f"embedding dim {pooled.shape[1]} does not match classifier dim {classifier.shape[1]}"
            )
        preds.append(np.argmax(pooled @ classifier.T, axis=1))
    return np.concatenate(preds)


def top1_accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.size == 0:
        raise ContractError("accuracy of an empty prediction set is undefined")
    if predictions.shape != labels.shape:
        raise ContractError(f"shape mismatch: {predictions.shape} vs {labels.shape}")
    return float((predictions == labels).mean())


def evaluate(model, records, class_names, prompts, vocab, context_length, image_size=32, batch_size=64):
    """(accuracy, predictions, labels) over a labeled record list."""
    labels = np.asarray([r.label for r in records])
    if any(label is None for label in labels.tolist()):
        raise ContractError("evaluation records must carry class labels")
    classifier = build_classifier(class_names, prompts, model, vocab, context_length)
    predictions = classify(load_images(records, image_size), classifier, model, batch_size)
    return top1_accuracy(predictions, labels), predictions, labels


def evaluation_report(predictions: np.ndarray, labels: np.ndarray, class_names: list[str]) -> str:
    """Per-class accuracy and confusion counts as aligned text."""
    k = len(class_names)
    confusion = np.zeros((k, k), dtype=np.int64)
    for pred, true in zip(predictions, labels):
        confusion[true, pred] += 1
    lines = [f"top1_accuracy={top1_accuracy(predictions, labels):.4f}"]
    width = max(len(n) for n in class_names)
    for idx, name in enumerate(class_names):
        total = confusion[idx].sum()
        correct = confusion[idx, idx]
        acc = correct / total if total else 0.0
        lines.append(f"class {name:<{width}} acc={acc:.4f} ({correct}/{total})")
    lines.append("confusion rows=true cols=predicted")
    for idx, name in enumerate(class_names):
        cells = " ".join(f"{c:4d}" for c in confusion[idx])
        lines.append(f"{name:<{width}} {cells}")
    return "\n".join(lines)
