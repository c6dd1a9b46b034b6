"""Stochastic image and text augmentation, deterministic under a seed.

The image pipeline follows the usual contrastive-view recipe: random
resized crop, color jitter, random grayscale, Gaussian blur, horizontal
flip, in that order. The text pipeline applies one of three light edit
strategies per call (synonym replacement, random swap, random deletion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError

TEXT_STRATEGIES = ("synonym_replacement", "random_swap", "random_deletion")


@dataclass(frozen=True)
class ImageAugPolicy:
    crop_scale: tuple[float, float] = (0.2, 1.0)
    jitter_brightness: float = 0.4
    jitter_contrast: float = 0.4
    jitter_saturation: float = 0.4
    jitter_hue: float = 0.1
    jitter_prob: float = 0.8
    grayscale_prob: float = 0.2
    blur_std: tuple[float, float] = (0.1, 2.0)
    blur_prob: float = 0.5
    flip_prob: float = 0.5

    def __post_init__(self):
        lo, hi = self.crop_scale
        if not (0.0 < lo <= hi <= 1.0):
            raise ConfigError(f"crop_scale must satisfy 0 < lo <= hi <= 1, got {self.crop_scale}")
        for name in ("jitter_prob", "grayscale_prob", "blur_prob", "flip_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {p}")


# ITU-R 601 luma weights
_LUMA = np.array([0.299, 0.587, 0.114])


def _rgb_to_hsv(img: np.ndarray) -> np.ndarray:
    r, g, b = img[0], img[1], img[2]
    maxc = img.max(axis=0)
    minc = img.min(axis=0)
    v = maxc
    spread = maxc - minc
    s = np.where(maxc > 0, spread / np.maximum(maxc, 1e-12), 0.0)
    safe = np.maximum(spread, 1e-12)
    rc = (maxc - r) / safe
    gc = (maxc - g) / safe
    bc = (maxc - b) / safe
    h = np.where(maxc == r, bc - gc, np.where(maxc == g, 2.0 + rc - bc, 4.0 + gc - rc))
    h = np.where(spread == 0, 0.0, (h / 6.0) % 1.0)
    return np.stack([h, s, v])


def _hsv_to_rgb(img: np.ndarray) -> np.ndarray:
    h, s, v = img[0], img[1], img[2]
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    i = i.astype(np.int64) % 6
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.stack([r, g, b])


def _bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    c, h, w = img.shape
    if (h, w) == (out_h, out_w):
        return img.copy()
    ys = (np.arange(out_h) + 0.5) * h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * w / out_w - 0.5
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[None, :, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, None, :]
    top = img[:, y0][:, :, x0] * (1 - wx) + img[:, y0][:, :, x1] * wx
    bottom = img[:, y1][:, :, x0] * (1 - wx) + img[:, y1][:, :, x1] * wx
    return top * (1 - wy) + bottom * wy


def _gaussian_blur(img: np.ndarray, std: float, kernel_size: int) -> np.ndarray:
    half = kernel_size // 2
    offsets = np.arange(-half, half + 1)
    kernel = np.exp(-0.5 * (offsets / std) ** 2)
    kernel /= kernel.sum()
    padded = np.pad(img, ((0, 0), (half, half), (0, 0)), mode="reflect")
    rows = sum(kernel[k] * padded[:, k : k + img.shape[1], :] for k in range(kernel_size))
    padded = np.pad(rows, ((0, 0), (0, 0), (half, half)), mode="reflect")
    return sum(kernel[k] * padded[:, :, k : k + img.shape[2]] for k in range(kernel_size))


def augment_image(image: np.ndarray, policy: ImageAugPolicy, seed: int) -> np.ndarray:
    """One stochastic view of a (3, H, W) image with values in [0, 1]."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise ContractError(f"augment_image expects (3, H, W), got {image.shape}")
    rng = np.random.default_rng(seed)
    c, h, w = image.shape
    out = image.astype(np.float64)

    # random resized crop (square) back to the input size
    scale = rng.uniform(*policy.crop_scale)
    side = int(np.clip(round(np.sqrt(scale) * h), 1, h))
    top = int(rng.integers(0, h - side + 1))
    left = int(rng.integers(0, w - side + 1))
    out = _bilinear_resize(out[:, top : top + side, left : left + side], h, w)

    if rng.random() < policy.jitter_prob:
        brightness = rng.uniform(1 - policy.jitter_brightness, 1 + policy.jitter_brightness)
        contrast = rng.uniform(1 - policy.jitter_contrast, 1 + policy.jitter_contrast)
        saturation = rng.uniform(1 - policy.jitter_saturation, 1 + policy.jitter_saturation)
        hue_shift = rng.uniform(-policy.jitter_hue, policy.jitter_hue)
        out = np.clip(out * brightness, 0.0, 1.0)
        gray_mean = (_LUMA @ out.reshape(3, -1)).mean()
        out = np.clip((out - gray_mean) * contrast + gray_mean, 0.0, 1.0)
        luma = np.tensordot(_LUMA, out, axes=1)[None]
        out = np.clip(luma + (out - luma) * saturation, 0.0, 1.0)
        hsv = _rgb_to_hsv(out)
        hsv[0] = (hsv[0] + hue_shift) % 1.0
        out = _hsv_to_rgb(hsv)

    if rng.random() < policy.grayscale_prob:
        out = np.broadcast_to(np.tensordot(_LUMA, out, axes=1)[None], out.shape).copy()

    if rng.random() < policy.blur_prob:
        std = rng.uniform(*policy.blur_std)
        kernel_size = max(3, round(h / 10.0) | 1)
        out = _gaussian_blur(out, std, kernel_size)

    if rng.random() < policy.flip_prob:
        out = out[:, :, ::-1]

    return np.ascontiguousarray(np.clip(out, 0.0, 1.0))


# text ------------------------------------------------------------------------


def default_synonyms() -> dict[str, tuple[str, ...]]:
    return load_synonyms(Path(__file__).parent / "resources" / "synonyms.tsv")


def load_synonyms(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Parse a `word<TAB>alt1,alt2,...` table."""
    table: dict[str, tuple[str, ...]] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "\t" not in line:
            raise ConfigError(f"{path}:{lineno}: expected word<TAB>alternatives")
        word, alts = line.split("\t", 1)
        alternatives = tuple(a.strip() for a in alts.split(",") if a.strip())
        if not alternatives:
            raise ConfigError(f"{path}:{lineno}: no alternatives listed for {word!r}")
        table[word.strip()] = alternatives
    return table


@dataclass(frozen=True)
class TextAugPolicy:
    strategies: tuple[str, ...] = TEXT_STRATEGIES
    rate: float = 0.1
    synonyms: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ConfigError(f"rate must lie in [0, 1), got {self.rate}")
        unknown = set(self.strategies) - set(TEXT_STRATEGIES)
        if unknown or not self.strategies:
            raise ConfigError(f"strategies must be a non-empty subset of {TEXT_STRATEGIES}")


def _synonym_replacement(tokens: list[str], rate: float, synonyms, rng) -> list[str]:
    replaceable = [i for i, tok in enumerate(tokens) if tok in synonyms]
    if not replaceable:
        return tokens
    n = min(len(replaceable), max(1, round(rate * len(tokens))))
    chosen = rng.choice(len(replaceable), size=n, replace=False)
    out = list(tokens)
    for j in sorted(chosen):
        i = replaceable[j]
        alts = synonyms[tokens[i]]
        out[i] = alts[rng.integers(len(alts))]
    return out


def _random_swap(tokens: list[str], rate: float, rng) -> list[str]:
    if len(tokens) < 2:
        return tokens
    out = list(tokens)
    for _ in range(max(1, round(rate * len(tokens)))):
        i, j = rng.choice(len(out), size=2, replace=False)
        out[i], out[j] = out[j], out[i]
    return out


def _random_deletion(tokens: list[str], rate: float, rng) -> list[str]:
    keep = rng.random(len(tokens)) >= rate
    if not keep.any():
        keep[-1] = True  # a caption never empties: the final token survives
    return [tok for tok, k in zip(tokens, keep) if k]


def augment_text(tokens: list[str], policy: TextAugPolicy, seed: int) -> list[str]:
    """Apply one uniformly chosen edit strategy to a token list."""
    if not tokens:
        raise ContractError("augment_text requires at least one token")
    if policy.rate == 0.0:
        return list(tokens)
    rng = np.random.default_rng(seed)
    strategy = policy.strategies[rng.integers(len(policy.strategies))]
    if strategy == "synonym_replacement":
        return _synonym_replacement(tokens, policy.rate, policy.synonyms, rng)
    if strategy == "random_swap":
        return _random_swap(tokens, policy.rate, rng)
    return _random_deletion(tokens, policy.rate, rng)
