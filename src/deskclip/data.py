"""Tokenizer, paired-manifest loading, and a synthetic image-text dataset.

The synthetic dataset renders colored geometric shapes on noise
backgrounds with templated captions. Class identity (shape, color) is
known exactly, so end-to-end training can be verified against ground
truth without any external data. Images round-trip through a minimal
farbfeld-style raw format when materialized to disk.
"""

from __future__ import annotations

import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, ManifestError
from .seeding import rng_for

PAD_ID, START_ID, END_ID, MASK_ID, UNK_ID = 0, 1, 2, 3, 4
RESERVED_TOKENS = ("<pad>", "<start>", "<end>", "<mask>", "<unk>")
NUM_RESERVED = len(RESERVED_TOKENS)

_WORD_RE = re.compile(r"\w+|[^\w\s]")

FARBFELD_MAGIC = b"farbfeld"
SYNTHETIC_PREFIX = "synthetic:"

SHAPES = ("circle", "square", "triangle", "cross")
COLORS = ("red", "green", "blue", "yellow")
COLOR_RGB = {
    "red": (0.85, 0.12, 0.12),
    "green": (0.10, 0.72, 0.18),
    "blue": (0.13, 0.22, 0.85),
    "yellow": (0.88, 0.84, 0.10),
}
CAPTION_TEMPLATES = (
    "a photo of a {label}",
    "a blurry photo of a {label}",
    "a drawing of a {label}",
    "an image of a {label}",
    "the {label} in the picture",
)
MAX_CLASSES = len(SHAPES) * len(COLORS)


# tokenizer --------------------------------------------------------------------


def tokenize_words(text: str) -> list[str]:
    """Lowercase and split on whitespace and punctuation boundaries."""
    return _WORD_RE.findall(text.lower())


@dataclass
class Vocab:
    token_to_id: dict[str, int]

    def __post_init__(self):
        for tok, want in zip(RESERVED_TOKENS, range(NUM_RESERVED)):
            if self.token_to_id.get(tok) != want:
                raise ConfigError(f"vocab must reserve {tok!r} = {want}")
        ids = list(self.token_to_id.values())
        if len(set(ids)) != len(ids):
            raise ConfigError("vocab ids must be unique")

    def __len__(self) -> int:
        return len(self.token_to_id)

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def token_for(self, idx: int) -> str:
        if not hasattr(self, "_id_to_token"):
            object.__setattr__(self, "_id_to_token", {i: t for t, i in self.token_to_id.items()})
        return self._id_to_token.get(idx, "<unk>")

    @classmethod
    def build(cls, captions, max_size: int) -> "Vocab":
        """Most frequent tokens win; ties break alphabetically."""
        if max_size < NUM_RESERVED + 1:
            raise ConfigError(f"max_size must exceed the {NUM_RESERVED} reserved ids")
        counts: dict[str, int] = {}
        for caption in captions:
            for tok in tokenize_words(caption):
                counts[tok] = counts.get(tok, 0) + 1
        ranked = sorted(counts, key=lambda t: (-counts[t], t))
        table = dict(zip(RESERVED_TOKENS, range(NUM_RESERVED)))
        for tok in ranked[: max_size - NUM_RESERVED]:
            table[tok] = len(table)
        return cls(table)


def encode_caption(text: str, vocab: Vocab, context_length: int) -> np.ndarray:
    """start + tokens + end, truncated (end survives) and padded to length."""
    body = [vocab.id_for(t) for t in tokenize_words(text)]
    body = body[: context_length - 2]
    ids = [START_ID] + body + [END_ID]
    ids.extend([PAD_ID] * (context_length - len(ids)))
    return np.asarray(ids, dtype=np.int64)


def encode_batch(texts, vocab: Vocab, context_length: int) -> np.ndarray:
    return np.stack([encode_caption(t, vocab, context_length) for t in texts])


def decode_caption(ids: np.ndarray, vocab: Vocab) -> list[str]:
    """Tokens between start and end, specials stripped."""
    out = []
    for idx in np.asarray(ids).tolist():
        if idx == END_ID:
            break
        if idx in (PAD_ID, START_ID, MASK_ID):
            continue
        out.append(vocab.token_for(idx))
    return out


# farbfeld image I/O ----------------------------------------------------------------


def write_farbfeld(path: str | Path, image: np.ndarray) -> None:
    """Store a (3, H, W) [0,1] image as big-endian RGBA16."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise ContractError(f"write_farbfeld expects (3, H, W), got {image.shape}")
    _, h, w = image.shape
    pixels = np.empty((h, w, 4), dtype=">u2")
    pixels[:, :, :3] = np.round(np.clip(image, 0.0, 1.0) * 65535).astype(">u2").transpose(1, 2, 0)
    pixels[:, :, 3] = 65535
    with open(path, "wb") as fh:
        fh.write(FARBFELD_MAGIC)
        fh.write(struct.pack(">II", w, h))
        fh.write(pixels.tobytes())


def _farbfeld_size(path: str | Path, header: bytes, length: int) -> tuple[int, int]:
    """(width, height) of a farbfeld file from its 16-byte header and its length in bytes."""
    if length < 16 or header[:8] != FARBFELD_MAGIC:
        raise ManifestError(f"{path}: not a farbfeld image")
    w, h = struct.unpack(">II", header[8:16])
    expected = 16 + h * w * 8
    if length != expected:
        raise ManifestError(f"{path}: expected {expected} bytes, found {length}")
    return w, h


def _read_image(path: str | Path, size: int = -1) -> tuple[bytes, int]:
    """The first ``size`` bytes of an image file (all of them by default) and its length;
    a file that cannot be read is a ManifestError that names it, so the CLI exits 2."""
    try:
        with open(path, "rb") as fh:
            return fh.read(size), os.fstat(fh.fileno()).st_size
    except OSError as err:
        raise ManifestError(f"cannot read image {path}: {err}") from err


def read_farbfeld(path: str | Path) -> np.ndarray:
    raw, _ = _read_image(path)
    w, h = _farbfeld_size(path, raw[:16], len(raw))
    pixels = np.frombuffer(raw, dtype=">u2", offset=16).reshape(h, w, 4)
    return (pixels[:, :, :3].transpose(2, 0, 1).astype(np.float64) / 65535.0)


# synthetic dataset -------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    class_id: int
    seed: int
    template_id: int

    def __str__(self) -> str:
        return f"{SYNTHETIC_PREFIX}class={self.class_id};seed={self.seed};template={self.template_id}"

    @classmethod
    def parse(cls, text: str) -> "SyntheticSpec":
        if not text.startswith(SYNTHETIC_PREFIX):
            raise ManifestError(f"not a synthetic spec: {text!r}")
        fields = {}
        for part in text[len(SYNTHETIC_PREFIX) :].split(";"):
            if "=" not in part:
                raise ManifestError(f"malformed synthetic spec field: {part!r}")
            key, value = part.split("=", 1)
            try:
                fields[key] = int(value)
            except ValueError:
                raise ManifestError(f"non-integer synthetic spec value: {part!r}") from None
        try:
            spec = cls(fields["class"], fields["seed"], fields["template"])
        except KeyError as missing:
            raise ManifestError(f"synthetic spec missing {missing}") from None
        if not 0 <= spec.class_id < MAX_CLASSES:
            raise ManifestError(f"synthetic spec class {spec.class_id} outside [0, {MAX_CLASSES})")
        if spec.seed < 0 or spec.template_id < 0:
            raise ManifestError(f"synthetic spec seed and template must be >= 0: {text!r}")
        return spec


def class_name(class_id: int) -> str:
    shape = SHAPES[class_id // len(COLORS)]
    color = COLORS[class_id % len(COLORS)]
    return f"{color} {shape}"


def class_names(num_classes: int) -> list[str]:
    if not 2 <= num_classes <= MAX_CLASSES:
        raise ConfigError(f"num_classes must lie in [2, {MAX_CLASSES}]")
    return [class_name(k) for k in range(num_classes)]


def render_synthetic(spec: SyntheticSpec, image_size: int = 32) -> np.ndarray:
    """Deterministic (3, S, S) image: one colored shape on gray noise."""
    rng = np.random.default_rng(spec.seed)
    s = image_size
    img = rng.uniform(0.25, 0.45, size=(3, s, s))
    shape = SHAPES[spec.class_id // len(COLORS)]
    color = np.asarray(COLOR_RGB[COLORS[spec.class_id % len(COLORS)]])
    color = np.clip(color + rng.uniform(-0.08, 0.08, 3), 0.0, 1.0)
    cx = s / 2 + rng.uniform(-s / 10, s / 10)
    cy = s / 2 + rng.uniform(-s / 10, s / 10)
    r = rng.uniform(s * 0.22, s * 0.34)
    yy, xx = np.mgrid[0:s, 0:s].astype(np.float64)
    if shape == "circle":
        mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
    elif shape == "square":
        mask = (np.abs(xx - cx) <= r * 0.82) & (np.abs(yy - cy) <= r * 0.82)
    elif shape == "triangle":
        inside_y = (yy >= cy - r) & (yy <= cy + r)
        mask = inside_y & (np.abs(xx - cx) <= (yy - (cy - r)) * 0.55)
    else:  # cross
        t = r * 0.30
        arm_h = (np.abs(yy - cy) <= t) & (np.abs(xx - cx) <= r)
        arm_v = (np.abs(xx - cx) <= t) & (np.abs(yy - cy) <= r)
        mask = arm_h | arm_v
    img[:, mask] = color[:, None]
    return np.clip(img, 0.0, 1.0)


def caption_for(spec: SyntheticSpec) -> str:
    return CAPTION_TEMPLATES[spec.template_id % len(CAPTION_TEMPLATES)].format(
        label=class_name(spec.class_id)
    )


@dataclass
class PairRecord:
    source: str   # image path or inline synthetic spec
    caption: str
    label: int | None = None


def generate_synthetic(num_classes: int, per_class: int, seed: int) -> list[PairRecord]:
    """num_classes * per_class records, classes interleaved."""
    if num_classes < 2:
        raise ConfigError("need at least 2 classes")
    class_names(num_classes)  # bounds check
    records = []
    for i in range(num_classes * per_class):
        k = i % num_classes
        spec = SyntheticSpec(class_id=k, seed=seed + i, template_id=(seed + i) % len(CAPTION_TEMPLATES))
        records.append(PairRecord(str(spec), caption_for(spec), label=k))
    return records


def _require_side(source: str, w: int, h: int, image_size: int) -> None:
    if (w, h) != (image_size, image_size):
        raise ManifestError(f"{source}: image is {w}x{h}, expected {image_size}x{image_size}")


def load_image(record: PairRecord, image_size: int = 32) -> np.ndarray:
    if record.source.startswith(SYNTHETIC_PREFIX):
        return render_synthetic(SyntheticSpec.parse(record.source), image_size)
    image = read_farbfeld(record.source)
    _require_side(record.source, image.shape[2], image.shape[1], image_size)
    return image


def check_images(records: list[PairRecord], image_size: int) -> None:
    """Reject, before any work, an image file that ``load_image`` would reject.

    Reads only each farbfeld file's 16-byte header and its length; inline
    synthetic specs were checked when the manifest was read.
    """
    for record in records:
        if record.source.startswith(SYNTHETIC_PREFIX):
            continue
        w, h = _farbfeld_size(record.source, *_read_image(record.source, 16))
        _require_side(record.source, w, h, image_size)


def load_images(records, image_size: int = 32) -> np.ndarray:
    return np.stack([load_image(r, image_size) for r in records])


# manifests ----------------------------------------------------------------------------


def write_manifest(path: str | Path, records: list[PairRecord]) -> None:
    """TSV manifest plus a .labels sidecar when labels are known."""
    path = Path(path)
    lines = [f"{r.source}\t{r.caption}" for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if all(r.label is not None for r in records):
        sidecar = path.with_suffix(path.suffix + ".labels")
        sidecar.write_text("\n".join(str(r.label) for r in records) + "\n", encoding="utf-8")


def read_text(path: str | Path, what: str) -> str:
    """The UTF-8 text of a user file; a file that cannot be read or decoded is a
    ManifestError that names it, so the CLI exits 2."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ManifestError(f"cannot read {what} {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise ManifestError(f"cannot read {what} {path}: not UTF-8 text: {err}") from err


def read_manifest(path: str | Path) -> list[PairRecord]:
    path = Path(path)
    records = []
    for lineno, raw in enumerate(read_text(path, "manifest").splitlines(), start=1):
        if not raw.strip():
            continue
        if "\t" not in raw:
            raise ManifestError(f"{path}:{lineno}: expected source<TAB>caption")
        source, caption = raw.split("\t", 1)
        if not caption.strip() or not tokenize_words(caption):
            raise ManifestError(f"{path}:{lineno}: caption is empty after tokenization")
        if source.startswith(SYNTHETIC_PREFIX):
            try:
                SyntheticSpec.parse(source)
            except ManifestError as err:
                raise ManifestError(f"{path}:{lineno}: {err}") from None
        records.append(PairRecord(source, caption))
    if not records:
        raise ManifestError(f"{path}: the manifest holds no record")
    sidecar = path.with_suffix(path.suffix + ".labels")
    if sidecar.exists():
        labels = _read_labels(sidecar)
        if len(labels) != len(records):
            raise ManifestError(f"{sidecar}: {len(labels)} labels for {len(records)} records")
        for record, label in zip(records, labels):
            record.label = label
    return records


def _read_labels(sidecar: Path) -> list[int]:
    """The class ids of a .labels sidecar: one non-negative integer per non-blank line."""
    labels = []
    for lineno, raw in enumerate(read_text(sidecar, "labels").splitlines(), start=1):
        text = raw.strip()
        if not text:
            continue
        if not re.fullmatch(r"-?[0-9]+", text):
            raise ManifestError(f"{sidecar}:{lineno}: label {text!r} is not an integer")
        if int(text) < 0:
            raise ManifestError(f"{sidecar}:{lineno}: label {text} is negative")
        labels.append(int(text))
    return labels


def check_labels(records: list[PairRecord], num_classes: int, path: str | Path) -> None:
    """Reject records of manifest ``path`` that lack a label or whose label is not in [0, num_classes)."""
    for i, record in enumerate(records, start=1):
        if record.label is None:
            raise ManifestError(f"{path}: no .labels sidecar, so its records carry no class labels")
        if not 0 <= record.label < num_classes:
            raise ManifestError(
                f"{path}.labels: record {i} has label {record.label}, outside [0, {num_classes}) "
                f"for {num_classes} classes"
            )


def materialize(records: list[PairRecord], out_dir: str | Path, image_size: int = 32) -> list[PairRecord]:
    """Render synthetic records to farbfeld files; paths replace specs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    solid = []
    for i, record in enumerate(records):
        img_path = out_dir / f"img_{i:06d}.ff"
        write_farbfeld(img_path, load_image(record, image_size))
        solid.append(PairRecord(str(img_path), record.caption, record.label))
    return solid


def iter_batches(records: list[PairRecord], batch_size: int, seed: int, epoch: int):
    """Seeded shuffle per epoch; the final partial batch is dropped."""
    if batch_size < 1:
        raise ConfigError("batch_size must be positive")
    order = rng_for(seed, "shuffle", epoch).permutation(len(records))
    for start in range(0, len(records) - batch_size + 1, batch_size):
        yield [records[i] for i in order[start : start + batch_size]]
