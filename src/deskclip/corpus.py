"""Streaming caption-corpus statistics and threshold filtering.

One pass, O(unique tokens) memory. Accumulators merge, so shards can be
analyzed in parallel and combined without changing any number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .data import read_text, tokenize_words
from .errors import ConfigError, ManifestError


def is_english_word(token: str) -> bool:
    """ASCII letters only; anything else (digits, symbols, other scripts) is not."""
    return bool(token) and token.isascii() and token.isalpha()


@dataclass
class CorpusReport:
    count: int
    length_mean: float
    length_std: float          # population standard deviation
    english_ratio: float       # token-weighted: total English tokens / total tokens
    english_ratio_per_caption: float  # mean of per-caption ratios
    unique_tokens: int

    def key_value_lines(self) -> list[str]:
        return [
            f"examples={self.count}",
            f"caption_length_mean={self.length_mean:.4f}",
            f"caption_length_std={self.length_std:.4f}",
            f"english_ratio={self.english_ratio:.4f}",
            f"english_ratio_per_caption={self.english_ratio_per_caption:.4f}",
            f"unique_tokens={self.unique_tokens}",
        ]

    def pretty(self) -> str:
        rows = [
            ("examples", f"{self.count}"),
            ("caption length", f"{self.length_mean:.2f} ± {self.length_std:.2f}"),
            ("english-word ratio (token-weighted)", f"{self.english_ratio:.4f}"),
            ("english-word ratio (per-caption mean)", f"{self.english_ratio_per_caption:.4f}"),
            ("unique tokens", f"{self.unique_tokens}"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


class CorpusAccumulator:
    """Mergeable single-pass statistics over tokenized captions."""

    def __init__(self):
        self.count = 0
        self.length_sum = 0
        self.length_sq_sum = 0
        self.total_tokens = 0
        self.english_tokens = 0
        # exact rational so shard merges reproduce the single-pass result
        # bit for bit (float addition is order-dependent)
        self.ratio_sum = Fraction(0)
        self.unique: set[str] = set()

    def add(self, caption: str) -> None:
        tokens = tokenize_words(caption)
        n = len(tokens)
        english = sum(1 for t in tokens if is_english_word(t))
        self.count += 1
        self.length_sum += n
        self.length_sq_sum += n * n
        self.total_tokens += n
        self.english_tokens += english
        if n:
            self.ratio_sum += Fraction(english, n)
        self.unique.update(tokens)

    def merge(self, other: "CorpusAccumulator") -> "CorpusAccumulator":
        out = CorpusAccumulator()
        out.count = self.count + other.count
        out.length_sum = self.length_sum + other.length_sum
        out.length_sq_sum = self.length_sq_sum + other.length_sq_sum
        out.total_tokens = self.total_tokens + other.total_tokens
        out.english_tokens = self.english_tokens + other.english_tokens
        out.ratio_sum = self.ratio_sum + other.ratio_sum
        out.unique = self.unique | other.unique
        return out

    def report(self) -> CorpusReport:
        if self.count == 0:
            return CorpusReport(0, 0.0, 0.0, 0.0, 0.0, 0)
        mean = self.length_sum / self.count
        variance = self.length_sq_sum / self.count - mean * mean
        ratio = self.english_tokens / self.total_tokens if self.total_tokens else 0.0
        return CorpusReport(
            self.count,
            mean,
            math.sqrt(max(0.0, variance)),
            ratio,
            float(self.ratio_sum / self.count),
            len(self.unique),
        )


def analyze(captions) -> CorpusReport:
    acc = CorpusAccumulator()
    for caption in captions:
        acc.add(caption)
    return acc.report()


@dataclass
class FilterPolicy:
    min_length: int = 0
    max_length: int = 10**9
    min_english_ratio: float = 0.0

    def __post_init__(self):
        if self.min_length < 0:
            raise ConfigError(f"min_length must be at least 0, got {self.min_length}")
        if self.min_length > self.max_length:
            raise ConfigError("min_length exceeds max_length")
        if not 0.0 <= self.min_english_ratio <= 1.0:  # nan too
            raise ConfigError(f"min_english_ratio must lie in [0, 1], got {self.min_english_ratio}")


def filter_captions(captions, policy: FilterPolicy) -> tuple[list[str], dict[str, int]]:
    """Keep captions inside every bound; tally says why the rest fell.

    A caption violating several rules is tallied once, under the first
    rule checked: length, then ratio.
    """
    kept: list[str] = []
    tally = {"length": 0, "ratio": 0}
    for caption in captions:
        tokens = tokenize_words(caption)
        n = len(tokens)
        if not policy.min_length <= n <= policy.max_length:
            tally["length"] += 1
            continue
        ratio = sum(1 for t in tokens if is_english_word(t)) / n if n else 0.0
        if ratio < policy.min_english_ratio:
            tally["ratio"] += 1
            continue
        kept.append(caption)
    return kept, tally


def read_captions(path: str | Path, plain: bool | None = None) -> list[str]:
    """Captions from a manifest (source<TAB>caption) or a plain file.

    With ``plain`` unset the format is sniffed: any tab present means
    manifest. A file that cannot be read or decoded is a ManifestError
    that names it; a manifest line without a tab names its line number.
    """
    path = Path(path)
    lines = [line for line in read_text(path, "caption file").splitlines() if line.strip()]
    if plain is None:
        plain = not any("\t" in line for line in lines)
    if plain:
        return lines
    captions = []
    for lineno, line in enumerate(lines, start=1):
        if "\t" not in line:
            raise ManifestError(f"{path}:{lineno}: expected source<TAB>caption")
        captions.append(line.split("\t", 1)[1])
    return captions
