"""Binary checkpoint format: config text, vocabulary and named float64
arrays in one flat layout, sealed by a checksum. Everything is
little-endian and length-prefixed, so round-trips are bitwise exact and
partial or corrupted files are detectable.

Layout (version 2):
    magic           8 bytes  b"DESKCLIP"
    version         u32
    config length   u32, then UTF-8 text (section.key=value lines)
    vocab length    u32, then UTF-8 text (token<TAB>id lines, by id)
    array count     u32
    per array:      u32 name length, name, u32 rank, u32 dims..., raw f64
    checksum        u32 CRC-32 (zlib.crc32) of every preceding byte

The loader checks the magic and the version before the checksum, so a
file of another version is reported by its version. The arrays are the
model's parameters plus, in a training checkpoint, the run state under
its own names (see ``trainer.save_training_checkpoint``).
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import CheckpointError

MAGIC = b"DESKCLIP"
VERSION = 2


def write_atomic(path: str | Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` all at once, durably.

    The bytes go to ``<path>.tmp`` first and are fsynced, then the file is
    renamed over ``path`` and the directory fsynced; a failed or killed
    write leaves the previous file whole.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def _sized(text: str) -> bytes:
    encoded = text.encode("utf-8")
    return struct.pack("<I", len(encoded)) + encoded


def save_checkpoint(
    path: str | Path,
    config_text: str,
    arrays: dict[str, np.ndarray],
    vocab: dict[str, int],
) -> None:
    out = bytearray(MAGIC)
    out += struct.pack("<I", VERSION)
    out += _sized(config_text)
    out += _sized("\n".join(f"{tok}\t{idx}" for tok, idx in sorted(vocab.items(), key=lambda kv: kv[1])))
    out += struct.pack("<I", len(arrays))
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype="<f8")
        out += _sized(name)
        out += struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape)
        out += arr.tobytes()
    out += struct.pack("<I", zlib.crc32(out))
    write_atomic(path, out)


class _Reader:
    def __init__(self, buf: bytes, path):
        self.buf = memoryview(buf)
        self.pos = 0
        self.end = len(buf)
        self.path = path

    def take(self, n: int) -> memoryview:
        if self.pos + n > self.end:
            raise CheckpointError(f"{self.path}: truncated (wanted {n} bytes at offset {self.pos})")
        piece = self.buf[self.pos : self.pos + n]
        self.pos += n
        return piece

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self, what: str) -> str:
        try:
            return str(self.take(self.u32()), "utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointError(f"{self.path}: {what} is not UTF-8: {err}") from None


def load_checkpoint(path: str | Path) -> tuple[str, dict[str, np.ndarray], dict[str, int]]:
    """(config text, named arrays, vocabulary) of a checkpoint file."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    r = _Reader(raw, path)
    if r.take(8) != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    if len(raw) < r.pos + 4:
        raise CheckpointError(f"{path}: truncated (no checksum)")
    r.end = len(raw) - 4
    if zlib.crc32(r.buf[: r.end]) != struct.unpack_from("<I", raw, r.end)[0]:
        raise CheckpointError(f"{path}: checksum mismatch, the file is corrupt")
    config_text = r.text("config text")
    vocab: dict[str, int] = {}
    for lineno, line in enumerate(r.text("vocabulary").splitlines(), start=1):
        tok, tab, idx = line.rpartition("\t")
        if not (tab and idx.isascii() and idx.isdigit()):
            raise CheckpointError(f"{path}: vocabulary line {lineno} is not token<TAB>id: {line!r}")
        vocab[tok] = int(idx)
    arrays: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        name = r.text("array name")
        rank = r.u32()
        shape = struct.unpack(f"<{rank}I", r.take(4 * rank))
        arrays[name] = np.frombuffer(r.take(8 * math.prod(shape)), dtype="<f8").reshape(shape).astype(np.float64)
    if r.pos != r.end:
        raise CheckpointError(f"{path}: {r.end - r.pos} trailing bytes")
    return config_text, arrays, vocab
