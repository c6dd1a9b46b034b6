"""Correctness checks of the benchmark, in plain numpy.

Every check recomputes its expectation without calling deskclip and
raises ``CheckFailed`` when the program's output disagrees. The numbers
they hold the program to (loss weights, temperatures, the AdamW rule, the
temperature clamp) are the paper's recipe, written out here on purpose:
a change to the program's defaults must show up as a failed check.
"""

from __future__ import annotations

import math

import numpy as np

# the paper's DeCLIP/DeFILIP weights; the clip term carries the remainder
SSL_WEIGHT = 0.2
MULTIVIEW_WEIGHT = 0.2
NEIGHBOR_WEIGHT = 0.2
TOKEN_ALIGN_WEIGHT = 0.2
SSL_TEMPERATURE = 0.1
TEMPERATURE_MIN = 0.005
TEMPERATURE_MAX = 100.0
DECAY_EXEMPT_SUFFIXES = (".bias", ".gain")
DECAY_EXEMPT_NAMES = ("log_temperature",)

TOTAL_TOLERANCE = 1e-12
RECOMPUTE_RTOL = 1e-9
# token-wise alignment takes maxima, so a central difference straddles a few
# argmax switches; on the defilip workloads they leave ~1e-5 of error at a
# 1e-6 step, where the smooth clip workload agrees to ~1e-9
DIRECTIONAL_RTOL = 1e-4
ADAMW_RTOL = 1e-12
UNIT_NORM_TOLERANCE = 1e-12
CLASSIFIER_TOLERANCE = 1e-10


class CheckFailed(Exception):
    """A program output disagreed with the benchmark's recomputation."""


def paper_weights(variant: str) -> dict[str, float]:
    if variant == "clip":
        return {"clip": 1.0}
    if variant not in ("declip", "defilip"):
        raise ValueError(f"no paper weights recorded for variant {variant!r}")
    weights = {
        "clip": 1.0 - SSL_WEIGHT - MULTIVIEW_WEIGHT - NEIGHBOR_WEIGHT,
        "image_ssl": SSL_WEIGHT,
        "text_mlm": SSL_WEIGHT,
        "multiview": MULTIVIEW_WEIGHT,
        "neighbor": NEIGHBOR_WEIGHT,
    }
    if variant == "defilip":
        weights["token_align"] = TOKEN_ALIGN_WEIGHT
    return weights


# training -----------------------------------------------------------------------


def check_finite_terms(terms: dict[str, float]) -> None:
    for name, value in terms.items():
        if not math.isfinite(value):
            raise CheckFailed(f"loss term {name!r} is not finite: {value}")


def check_weighted_total(total: float, terms: dict[str, float], weights: dict[str, float]) -> None:
    """The total is the weighted sum of exactly the expected terms."""
    if set(terms) != set(weights):
        raise CheckFailed(f"terms {sorted(terms)} differ from the weighted terms {sorted(weights)}")
    expected = math.fsum(weights[name] * terms[name] for name in weights)
    if not abs(total - expected) <= TOTAL_TOLERANCE:
        raise CheckFailed(f"total {total!r} != weighted sum of terms {expected!r}")


def _cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(targets)), targets].mean())


def clip_term(img: np.ndarray, txt: np.ndarray, temperature: float) -> float:
    """Symmetric InfoNCE over pooled (N, D) unit embeddings."""
    targets = np.arange(img.shape[0])
    logits = img @ txt.T / temperature
    return 0.5 * (_cross_entropy(logits, targets) + _cross_entropy(logits.T, targets))


def nt_xent_term(view_a: np.ndarray, view_b: np.ndarray, temperature: float = SSL_TEMPERATURE) -> float:
    """SimCLR loss over 2N views; each row's own similarity is excluded."""
    n = view_a.shape[0]
    z = np.concatenate([view_a, view_b])
    logits = z @ z.T / temperature
    np.fill_diagonal(logits, -np.inf)
    targets = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    return _cross_entropy(logits, targets)


def token_align_term(
    img_tokens: np.ndarray, img_mask: np.ndarray,
    txt_tokens: np.ndarray, txt_mask: np.ndarray, temperature: float,
) -> float:
    """FILIP loss: per pair, the mean over one side's tokens of its best match on the other."""
    n = img_tokens.shape[0]
    image_side = np.empty((n, n))
    text_side = np.empty((n, n))
    for i in range(n):
        tok_i = img_tokens[i][img_mask[i]]
        for j in range(n):
            sims = tok_i @ txt_tokens[j][txt_mask[j]].T
            image_side[i, j] = sims.max(axis=1).mean()
            text_side[i, j] = sims.max(axis=0).mean()
    targets = np.arange(n)
    return 0.5 * (
        _cross_entropy(image_side / temperature, targets)
        + _cross_entropy(text_side.T / temperature, targets)
    )


def check_recomputed(name: str, got: float, want: float, rtol: float = RECOMPUTE_RTOL) -> None:
    if not abs(got - want) <= rtol * max(1.0, abs(want)):
        raise CheckFailed(f"{name}: program gives {got!r}, recomputation gives {want!r}")


def check_directional_derivative(f_plus: float, f_minus: float, eps: float, grad_sq_norm: float) -> None:
    """(f(θ+εg) - f(θ-εg)) / 2ε must equal ‖g‖², the slope of the loss along g."""
    slope = (f_plus - f_minus) / (2.0 * eps)
    if not grad_sq_norm > 0:
        raise CheckFailed(f"gradient is zero or not finite: ‖g‖²={grad_sq_norm!r}")
    if not abs(slope - grad_sq_norm) <= DIRECTIONAL_RTOL * grad_sq_norm:
        raise CheckFailed(
            f"finite-difference slope {slope!r} disagrees with ‖g‖² {grad_sq_norm!r} "
            f"(relative error {abs(slope - grad_sq_norm) / grad_sq_norm:.3e})"
        )


def is_decay_exempt(name: str) -> bool:
    return name.endswith(DECAY_EXEMPT_SUFFIXES) or name in DECAY_EXEMPT_NAMES


def check_first_adamw_update(
    name: str, before: np.ndarray, grad: np.ndarray, after: np.ndarray,
    lr: float, weight_decay: float, eps: float,
) -> None:
    """At t=1 bias correction cancels: θ ← θ(1 - lr·wd) - lr·g/(|g|+eps)."""
    decay = 0.0 if is_decay_exempt(name) else lr * weight_decay
    expected = before * (1.0 - decay) - lr * grad / (np.abs(grad) + eps)
    scale = np.abs(before) + lr
    worst = float(np.max(np.abs(after - expected) / scale)) if after.size else 0.0
    if after.shape != before.shape or not worst <= ADAMW_RTOL:
        raise CheckFailed(f"first AdamW update of {name!r} is off its closed form by {worst:.3e}")


def check_temperature(log_temperature: float) -> None:
    value = math.exp(log_temperature)
    if not TEMPERATURE_MIN * (1 - 1e-12) <= value <= TEMPERATURE_MAX * (1 + 1e-12):
        raise CheckFailed(f"temperature {value!r} left its clamp [{TEMPERATURE_MIN}, {TEMPERATURE_MAX}]")


# evaluation --------------------------------------------------------------------------


def check_roundtrip(
    saved: dict[str, np.ndarray], loaded: dict[str, np.ndarray],
    saved_vocab: dict[str, int], loaded_vocab: dict[str, int],
    saved_config: str, loaded_config: str,
) -> None:
    """Tensors, vocabulary and config text come back bit for bit."""
    if set(saved) != set(loaded):
        raise CheckFailed(f"tensor names differ: {sorted(set(saved) ^ set(loaded))[:4]}")
    for name, arr in saved.items():
        back = loaded[name]
        if back.dtype != arr.dtype or back.shape != arr.shape or back.tobytes() != arr.tobytes():
            raise CheckFailed(f"tensor {name!r} did not round-trip bit for bit")
    if saved_vocab != loaded_vocab:
        raise CheckFailed("vocabulary did not round-trip")
    if saved_config != loaded_config:
        raise CheckFailed("config text did not round-trip")


def check_classifier(classifier: np.ndarray, prompt_embeddings: list[np.ndarray]) -> None:
    """Rows are unit norm and equal the renormalized mean of their prompts' embeddings."""
    if classifier.shape[0] != len(prompt_embeddings):
        raise CheckFailed(f"{classifier.shape[0]} classifier rows for {len(prompt_embeddings)} classes")
    norms = np.linalg.norm(classifier, axis=1)
    if not np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOLERANCE):
        raise CheckFailed(f"classifier rows are not unit norm: worst {np.abs(norms - 1.0).max():.3e}")
    for k, embeddings in enumerate(prompt_embeddings):
        mean = embeddings.mean(axis=0)
        expected = mean / np.linalg.norm(mean)
        if not np.all(np.abs(classifier[k] - expected) <= CLASSIFIER_TOLERANCE):
            raise CheckFailed(f"classifier row {k} is not the renormalized mean of its prompts")


def check_same_predictions(preds: np.ndarray, other: np.ndarray, what: str) -> None:
    if preds.shape != other.shape or not np.array_equal(preds, other):
        diff = int(np.sum(preds != other)) if preds.shape == other.shape else -1
        raise CheckFailed(f"predictions changed with {what} ({diff} differ)")


def check_accuracy(accuracy: float, preds: np.ndarray, labels: np.ndarray) -> None:
    if preds.shape != labels.shape:
        raise CheckFailed(f"{preds.shape[0]} predictions for {labels.shape[0]} labels")
    expected = float(np.mean(preds == labels))
    if accuracy != expected:
        raise CheckFailed(f"reported accuracy {accuracy!r}, recomputed {expected!r}")
