"""Parameter containers and transformer building blocks."""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tensor import Tensor

INIT_STD = 0.02
MLP_HIDDEN_MULT = 4


def trunc_normal(rng: np.random.Generator, shape, std: float = INIT_STD) -> np.ndarray:
    """Normal(0, std) resampled until every draw lies within 2 std."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


class Module:
    """Base class; assigning Tensors or Modules to attributes registers them."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})

    def __setattr__(self, name, value):
        if isinstance(value, Tensor) and value.requires_grad:
            self._params[name] = value
        elif isinstance(value, (Module, ModuleList)):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, p in self._params.items():
            yield (f"{prefix}{name}", p)
        for name, child in self._children.items():
            yield from child.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None


class ModuleList:
    def __init__(self, modules=()):
        self.modules = list(modules)

    def __iter__(self):
        return iter(self.modules)

    def __len__(self):
        return len(self.modules)

    def __getitem__(self, i):
        return self.modules[i]

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for i, module in enumerate(self.modules):
            yield from module.named_parameters(prefix=f"{prefix}{i}.")


class Linear(Module):
    """Affine map x @ weight + bias (+ residual), weight stored (in_dim, out_dim).

    One ``matmul`` tape node per call, with the bias and a ``residual`` of the
    output's shape folded in: the tape keeps no pre-bias product and no
    separate residual sum. ``x`` is (..., in_dim); its leading axes share
    the weight, so the product runs as one 2-D GEMM over its rows. With
    ``norm``, a ``LayerNorm``, the map reads ``norm(x)`` and the same node
    runs the norm, so the tape keeps no normalized row.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.weight = Tensor(trunc_normal(rng, (in_dim, out_dim)), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True) if bias else None

    def __call__(self, x: Tensor, residual: Tensor | None = None, norm: LayerNorm | None = None) -> Tensor:
        return T.matmul(x, self.weight, self.bias, residual, _operands(norm))


class LayerNorm(Module):
    """LayerNorm over the last axis with a learned gain and bias.

    Called, it is one ``T.layernorm`` node. Where a ``Linear`` or an
    ``MLPBlock`` is all that reads it, pass it to that layer as ``norm=``
    instead: the consumer's node runs the norm and keeps its input's
    per-row mean and inverse deviation, and no normalized row, with the
    same bits.
    """

    def __init__(self, dim: int):
        super().__init__()
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.bias = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layernorm(x, self.gain, self.bias)


def _operands(norm: LayerNorm | None) -> tuple[Tensor, Tensor] | None:
    """The ``norm=`` operand of ``T.matmul`` and ``T.mlp`` for a LayerNorm, or None."""
    return None if norm is None else (norm.gain, norm.bias)


class MultiHeadSelfAttention(Module):
    """The projections of multi-head self-attention: a fused qkv and an output.

    The layer is ``out(T.attention(qkv(x), heads, attn_bias))``, which
    ``TransformerBlock`` runs in two parts (``fuse``, then ``finish``).
    ``attn_bias`` is added to the pre-softmax scores, shape broadcastable to
    (batch, heads, seq, seq); large negative entries mask positions out.
    """

    def __init__(self, width: int, heads: int, rng: np.random.Generator):
        super().__init__()
        if width % heads != 0:
            raise ConfigError(f"attention width {width} not divisible by {heads} heads")
        self.heads = heads
        self.qkv = Linear(width, 3 * width, rng)
        self.out = Linear(width, width, rng)


class MLPBlock(Module):
    """fc2(gelu(fc1(x))) (+ residual), of ``norm(x)`` with ``norm``, as one ``T.mlp`` tape node.

    The node keeps the pre-activation and GELU's ``cdf``, not the GELU
    output: backward rebuilds that with one multiply per entry. With
    ``norm`` it keeps ``x`` and its per-row statistics, not the normalized
    rows, and ``x`` may be the residual too.
    """

    def __init__(self, width: int, rng: np.random.Generator):
        super().__init__()
        self.fc1 = Linear(width, MLP_HIDDEN_MULT * width, rng)
        self.fc2 = Linear(MLP_HIDDEN_MULT * width, width, rng)

    def __call__(self, x: Tensor, residual: Tensor | None = None, norm: LayerNorm | None = None) -> Tensor:
        fc1, fc2 = self.fc1, self.fc2
        return T.mlp(x, fc1.weight, fc1.bias, fc2.weight, fc2.bias, residual, _operands(norm))


class TransformerBlock(Module):
    """Pre-layernorm residual block: x + attn(ln(x)), then x + mlp(ln(x)).

    Each residual sum is folded into the branch's last node (the attention
    output projection's ``matmul``, then the MLP's ``mlp``), so the tape
    holds no ``add`` node and no pre-residual buffer for either. Each
    layernorm is folded into the branch's first node (``ln1`` into the qkv
    projection's ``matmul``, ``ln2`` into the ``mlp``, which reads ``x`` as
    its operand and as its residual), so the tape holds no normalized row.

    ``fuse`` and ``finish`` are the block in two parts: the fused qkv of
    every row, then the output at every row or at one row per sequence.
    Every row past the attention depends only on itself, so a caller that
    needs some rows' outputs sooner than others can finish them apart.
    """

    def __init__(self, width: int, heads: int, rng: np.random.Generator):
        super().__init__()
        self.ln1 = LayerNorm(width)
        self.attn = MultiHeadSelfAttention(width, heads, rng)
        self.ln2 = LayerNorm(width)
        self.mlp = MLPBlock(width, rng)

    def __call__(self, x: Tensor, attn_bias: np.ndarray | None = None) -> Tensor:
        return self.finish(x, self.fuse(x), attn_bias)

    def fuse(self, x: Tensor) -> Tensor:
        """The fused qkv projection (N, L, 3 * width) of every row of ``x``."""
        return self.attn.qkv(x, norm=self.ln1)

    def finish(
        self, x: Tensor, fused: Tensor, attn_bias: np.ndarray | None = None, rows: np.ndarray | None = None
    ) -> Tensor:
        """The block's output at every row of ``x``, or (N, width) at row
        ``rows[i]`` of each sequence i alone when ``rows`` is given, from the
        fused qkv of every row: the attention output projection adds ``x``."""
        if rows is not None:
            x = T.select_positions(x, rows)
        x = self.attn.out(T.attention(fused, self.attn.heads, attn_bias, rows=rows), x)
        return self.mlp(x, residual=x, norm=self.ln2)


def pooled_tower(
    blocks: ModuleList, x: Tensor, rows: np.ndarray, attn_bias: np.ndarray | None = None
) -> tuple[Tensor, Callable[[], Tensor]]:
    """The output (N, width) of ``blocks`` over ``x`` (N, L, width) at row
    ``rows[i]`` of each sequence i, and a builder of the output at every row.

    Only the last block's fused qkv runs over all rows before the builder
    is called. With no blocks, the rows of ``x`` and a builder of ``x``.
    """
    if not len(blocks):
        return T.select_positions(x, rows), lambda: x
    *trunk, last = blocks
    for block in trunk:
        x = block(x, attn_bias)
    fused = last.fuse(x)
    return last.finish(x, fused, attn_bias, rows), lambda: last.finish(x, fused, attn_bias)
