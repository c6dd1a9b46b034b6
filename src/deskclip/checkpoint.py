"""Binary checkpoint format: header, config text, named float64 tensors,
tagged extension blocks. Everything is little-endian and length-prefixed,
so round-trips are bitwise exact and partial files are detectable.

Layout:
    magic           8 bytes  b"DESKCLIP"
    version         u32
    config length   u32, then UTF-8 text (section.key=value lines)
    tensor count    u32
    per tensor:     u32 name length, name, u32 rank, u32 dims..., raw f64
    block count     u32
    per block:      4-byte tag, u64 payload length, payload
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError

MAGIC = b"DESKCLIP"
VERSION = 1

VOCAB_TAG = b"VOCB"
STATE_TAG = b"STAT"


def write_atomic(path: str | Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` all at once.

    The bytes go to ``<path>.tmp`` first, which is then renamed over
    ``path``; a failed or killed write leaves the previous file whole.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def save_checkpoint(
    path: str | Path,
    config_text: str,
    tensors: dict[str, np.ndarray],
    blocks: dict[bytes, bytes] | None = None,
) -> None:
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    config_bytes = config_text.encode("utf-8")
    out += struct.pack("<I", len(config_bytes))
    out += config_bytes
    out += _pack_named_arrays(tensors)
    blocks = blocks or {}
    out += struct.pack("<I", len(blocks))
    for tag, payload in blocks.items():
        if len(tag) != 4:
            raise CheckpointError(f"block tag must be 4 bytes, got {tag!r}")
        out += tag
        out += struct.pack("<Q", len(payload))
        out += payload
    write_atomic(path, bytes(out))


class _Reader:
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointError(f"{self.path}: truncated (wanted {n} bytes at offset {self.pos})")
        piece = self.buf[self.pos : self.pos + n]
        self.pos += n
        return piece

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def text(self, n: int, what: str) -> str:
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointError(f"{self.path}: {what} is not UTF-8: {err}") from None


def _pack_named_arrays(arrays: dict[str, np.ndarray]) -> bytes:
    out = bytearray(struct.pack("<I", len(arrays)))
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=np.float64)
        name_bytes = name.encode("utf-8")
        out += struct.pack("<I", len(name_bytes))
        out += name_bytes
        out += struct.pack("<I", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += arr.astype("<f8").tobytes()
    return bytes(out)


def _unpack_named_arrays(r: _Reader) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        name = r.text(r.u32(), "tensor name")
        rank = r.u32()
        shape = struct.unpack(f"<{rank}I", r.take(4 * rank)) if rank else ()
        count = int(np.prod(shape)) if shape else 1
        arrays[name] = np.frombuffer(r.take(8 * count), dtype="<f8").reshape(shape).astype(np.float64)
    return arrays


def load_checkpoint(path: str | Path) -> tuple[str, dict[str, np.ndarray], dict[bytes, bytes]]:
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
    config_text = r.text(r.u32(), "config text")
    tensors = _unpack_named_arrays(r)
    blocks: dict[bytes, bytes] = {}
    for _ in range(r.u32()):
        tag = r.take(4)
        blocks[tag] = r.take(r.u64())
    if r.pos != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - r.pos} trailing bytes")
    return config_text, tensors, blocks


# extension block payloads ---------------------------------------------------------


def encode_vocab(token_to_id: dict[str, int]) -> bytes:
    lines = [f"{tok}\t{idx}" for tok, idx in sorted(token_to_id.items(), key=lambda kv: kv[1])]
    return "\n".join(lines).encode("utf-8")


def decode_vocab(payload: bytes) -> dict[str, int]:
    text = _Reader(payload, "<VOCB block>").text(len(payload), "vocabulary")
    table: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        tok, tab, idx = line.rpartition("\t")
        if not (tab and idx.isascii() and idx.isdigit()):
            raise CheckpointError(f"vocabulary line {lineno} is not token<TAB>id: {line!r}")
        table[tok] = int(idx)
    return table


def encode_train_state(
    epoch: int,
    step_in_epoch: int,
    global_step: int,
    best_accuracy: float,
    adam_t: int,
    moments_m: dict[str, np.ndarray],
    moments_v: dict[str, np.ndarray],
    queue_buffer: np.ndarray,
    queue_fill: int,
    queue_head: int,
    queue_capacity: int,
) -> bytes:
    out = bytearray()
    out += struct.pack("<QQQd", epoch, step_in_epoch, global_step, best_accuracy)
    out += struct.pack("<Q", adam_t)
    out += _pack_named_arrays(moments_m)
    out += _pack_named_arrays(moments_v)
    qb = np.asarray(queue_buffer, dtype=np.float64)
    out += struct.pack("<IIII", queue_capacity, queue_fill, queue_head, qb.shape[1] if qb.ndim == 2 else 0)
    out += qb.astype("<f8").tobytes()
    return bytes(out)


def decode_train_state(payload: bytes) -> dict:
    r = _Reader(payload, "<STAT block>")
    epoch, step_in_epoch, global_step, best_accuracy = struct.unpack("<QQQd", r.take(32))
    adam_t = r.u64()
    moments_m = _unpack_named_arrays(r)
    moments_v = _unpack_named_arrays(r)
    capacity, fill, head, dim = struct.unpack("<IIII", r.take(16))
    if fill > capacity or head >= capacity or (fill and not dim):
        raise CheckpointError(
            f"train-state queue of capacity {capacity} x {dim} cannot hold fill {fill} with head {head}"
        )
    buf = np.frombuffer(r.take(8 * capacity * dim), dtype="<f8")
    queue_buffer = buf.reshape(capacity, dim).astype(np.float64) if dim else np.zeros((capacity, 0))
    if r.pos != len(payload):
        raise CheckpointError("train-state block has trailing bytes")
    return {
        "epoch": int(epoch),
        "step_in_epoch": int(step_in_epoch),
        "global_step": int(global_step),
        "best_accuracy": float(best_accuracy),
        "adam_t": int(adam_t),
        "moments_m": moments_m,
        "moments_v": moments_v,
        "queue_capacity": int(capacity),
        "queue_fill": int(fill),
        "queue_head": int(head),
        "queue_buffer": queue_buffer,
    }
