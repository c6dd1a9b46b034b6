"""Dense float64 tensors with reverse-mode automatic differentiation.

Data lives in row-major numpy arrays. Every differentiable operation
records its operands and a backward rule; ``backward`` walks the graph
once in reverse topological order and accumulates gradients into every
reachable tensor that has ``requires_grad`` set. A broadcasting binary op
is one call to ``_binary``, a one-operand op one to ``_unary`` and an index
op one to ``_gather``: each gives its forward and its local gradient, and
nothing else. Every rule gets a read-only gradient, and ``_accumulate``
takes over exactly the writeable buffers a rule built. ``_gather`` adds its
gradient back with ``np.add.at``, so any key is exact: an entry picked k
times gets all k gradients. Two fused ops keep no GELU output on the tape:
``mlp`` (the transformer MLP, one node for both layers) and ``gelu_avgpool2``
(a conv stage's GELU and 2x2 pool); both give the bits of their unfused
composition, with ``gelu`` as the reference.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, DegenerateInputError, ShapeError

Array = np.ndarray

LAYERNORM_EPS = 1e-5
NORMALIZE_MIN_NORM = 1e-12

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327


def _as_array(value) -> Array:
    # note: ascontiguousarray would promote 0-d to 1-d, so order="C" instead
    return np.asarray(value, dtype=np.float64, order="C")


class Tensor:
    """Dense float64 array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        *,
        op: str = "leaf",
        parents: tuple["Tensor", ...] = (),
        backward: Callable[[Array], None] | None = None,
    ):
        self.data = _as_array(data)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self.op = op
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"

    # operator sugar -----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent: float):
        return power(self, exponent)

    def __getitem__(self, key):
        return slice_(self, key)


def coerce(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=False, op="const")


def constant(value) -> Tensor:
    return Tensor(value, requires_grad=False, op="const")


@dataclass
class Graph:
    """Topologically ordered record of the operations reachable from a root.

    ``nodes`` lists every gradient-tracked tensor with operands appearing
    before the tensors that consume them; ``backward`` walks it in reverse.
    """

    nodes: list[Tensor]


def build_graph(root: Tensor) -> Graph:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    return Graph(order)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every reachable gradient-tracked tensor.

    Interior gradients (and the closures holding forward activations) are
    released as soon as they are consumed, so peak memory stays near the
    size of the forward tape and only leaves carry ``grad`` afterwards.
    The graph cannot be replayed. The tape keeps only what backward cannot
    rebuild: a closure that needs a copy, a sum or a product of arrays the
    tape already holds (layernorm's normalized input, conv2d's im2col
    columns, mlp's hidden activation) rebuilds it here with the forward's
    own operations, so the gradients are the same bits as if it had been
    kept. A rule's incoming gradient is read-only: writing into it raises
    ValueError, and it is never taken over.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("backward called on a tensor with no gradient-tracked inputs")
    graph = build_graph(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(graph.nodes):
        if node._backward is not None and node.grad is not None:
            node.grad.flags.writeable = False
            node._backward(node.grad)
        if node._parents:  # interior node: grad consumed, activations no longer needed
            node.grad = None
            node._backward = None
            node._parents = ()


def _accumulate(target: Tensor, grad: Array) -> None:
    """Add ``grad`` into ``target.grad``.

    A first gradient that is writeable and has the target's shape becomes
    ``target.grad`` without a copy: a rule hands over the buffers it builds
    and never touches them again. A read-only one (an incoming gradient, a
    view of one, or a buffer a rule chose to keep) is copied.
    """
    if not target.requires_grad:
        return
    if target.grad is None:
        take = grad.flags.writeable and grad.shape == target.shape
        # adding +0.0 keeps the bits of zeros + grad (a -0.0 becomes +0.0) and broadcasts the same way
        target.grad = np.add(grad, 0.0, out=grad if take else np.empty_like(target.data))
    else:
        target.grad += grad


def _accumulate_at(target: Tensor, index, grad: Array) -> None:
    """``np.add.at(target.grad, index, grad)`` in place, from zeros for the first gradient:
    unbuffered, so an entry ``index`` picks more than once gets every pick's gradient."""
    if not target.requires_grad:
        return
    if target.grad is None:
        target.grad = np.zeros_like(target.data)
    np.add.at(target.grad, index, grad)


_recording = True


def is_recording() -> bool:
    """Whether ops record the tape here: False inside ``no_grad``."""
    return _recording


@contextlib.contextmanager
def recording(on: bool) -> Iterator[None]:
    """Record the tape inside the block if ``on``, and not if not.

    The state from before the block returns on exit, also after an
    exception.
    """
    global _recording
    saved = _recording
    _recording = bool(on)
    try:
        yield
    finally:
        _recording = saved


def no_grad() -> contextlib.AbstractContextManager[None]:
    """Record no tape inside the block.

    Every op still computes its value, but returns a tensor with
    ``requires_grad=False``, no parents and no backward closure, so the
    forward activations a closure would hold are freed as soon as they
    go out of scope. Recording resumes on exit, also after an exception.
    """
    return recording(False)


def _make(data: Array, parents: tuple[Tensor, ...], op: str, backward_fn: Callable[[Array], None]) -> Tensor:
    if not _recording:
        return Tensor(data, op=op)
    requires = any(p.requires_grad for p in parents)
    return Tensor(
        data,
        requires,
        op=op,
        parents=parents,
        backward=backward_fn if requires else None,
    )


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# elementwise ------------------------------------------------------------


def _binary(op: str, a, b, forward, grad_a, grad_b) -> Tensor:
    """One rule for the broadcasting binary ops: ``forward(x, y)`` is the value, and
    ``grad_a(g, x, y)`` and ``grad_b(g, x, y)`` each side's gradient at the broadcast
    shape, run only for a side that requires one."""
    a, b = coerce(a), coerce(b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: cannot broadcast {a.shape} with {b.shape}") from None

    def bwd(g: Array) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(grad_a(g, a.data, b.data), a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(grad_b(g, a.data, b.data), b.shape))

    return _make(forward(a.data, b.data), (a, b), op, bwd)


def add(a, b) -> Tensor:
    return _binary("add", a, b, np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary("sub", a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary("mul", a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    return _binary("div", a, b, np.divide, lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def _unary(op: str, a, forward, grad) -> Tensor:
    """The one-operand ops' rule: ``forward(x)`` is the value, ``grad(g, x, out)`` the gradient."""
    a = coerce(a)
    out = forward(a.data)
    return _make(out, (a,), op, lambda g: _accumulate(a, grad(g, a.data, out)))


def neg(a) -> Tensor:
    return _unary("neg", a, np.negative, lambda g, x, out: -g)


def power(a, exponent: float) -> Tensor:
    p = float(exponent)
    return _unary("power", a, lambda x: x**p, lambda g, x, out: g * p * x ** (p - 1.0))


def exp(a) -> Tensor:
    return _unary("exp", a, np.exp, lambda g, x, out: g * out)


def log(a) -> Tensor:
    return _unary("log", a, np.log, lambda g, x, out: g / x)


def _gelu_cdf(x: Array) -> Array:
    """0.5 * (1 + erf(x / sqrt 2)) in one new buffer, an array even when ``x`` is 0-d.

    GELU(x) is ``x * cdf``. Every GELU in the tape computes its ``cdf`` here and its
    slope in ``_gelu_slope``, so all of them are the same IEEE operations in the same order.
    """
    cdf = np.multiply(x, _INV_SQRT2, out=np.empty_like(x))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _gelu_slope(x: Array, cdf: Array) -> Array:
    """GELU's slope ``cdf + x * pdf``, pdf = _INV_SQRT_2PI * exp(-0.5 * x * x), in one new buffer."""
    buf = np.multiply(x, -0.5, out=np.empty_like(x))
    buf *= x
    np.exp(buf, out=buf)
    buf *= _INV_SQRT_2PI
    buf *= x
    buf += cdf
    return buf


def gelu(a) -> Tensor:
    """Exact (erf-based) GELU: the unfused op, and the reference for ``mlp`` and ``gelu_avgpool2``."""
    a = coerce(a)
    cdf = _gelu_cdf(a.data)

    def bwd(g: Array) -> None:
        buf = _gelu_slope(a.data, cdf)
        buf *= g
        _accumulate(a, buf)

    return _make(a.data * cdf, (a,), "gelu", bwd)


# shape manipulation -----------------------------------------------------


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = coerce(a)
    shape = tuple(int(s) for s in shape)
    try:
        return _unary("reshape", a, lambda x: x.reshape(shape), lambda g, x, out: g.reshape(x.shape))
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}") from None


def transpose(a, axes: Sequence[int] | None = None) -> Tensor:
    a = coerce(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(int(x) for x in axes)
    inverse = tuple(np.argsort(axes))
    return _unary("transpose", a, lambda x: np.ascontiguousarray(x.transpose(axes)),
                  lambda g, x, out: g.transpose(inverse))


def broadcast_to(a, shape: Sequence[int]) -> Tensor:
    a = coerce(a)
    shape = tuple(int(s) for s in shape)
    try:
        return _unary("broadcast_to", a, lambda x: np.broadcast_to(x, shape).copy(),
                      lambda g, x, out: _unbroadcast(g, x.shape))
    except ValueError:
        raise ShapeError(f"broadcast_to: cannot broadcast {a.shape} to {shape}") from None


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = tuple(coerce(t) for t in tensors)
    if not parts:
        raise ContractError("concat requires at least one tensor")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    bounds = np.cumsum(sizes)[:-1]

    def bwd(g: Array) -> None:
        for part, piece in zip(parts, np.split(g, bounds, axis=axis)):
            _accumulate(part, piece)

    return _make(out, parts, "concat", bwd)


def _gather(op: str, a: Tensor, index) -> Tensor:
    """The index ops' rule: ``a.data[index]`` for any numpy key; backward adds each pick's
    gradient into the entry it read, so an entry picked twice gets both."""
    return _make(a.data[index], (a,), op, lambda g: _accumulate_at(a, index, g))


def slice_(a, key) -> Tensor:
    """``a[key]`` with slices, integers, integer arrays (whose entries may repeat) and masks."""
    return _gather("slice", coerce(a), key)


def _indices(op: str, index, size: int, shape: tuple[int, ...] | None = None) -> Array:
    """``index`` as an integer array of entries in [0, ``size``), of ``shape`` when one is given.

    A float or bool array is rejected, not cast, so an id of 1.9 never reads row 1. An
    empty list is float64 to numpy and is rejected too: pass an empty integer array.
    """
    idx = np.asarray(index)
    if idx.dtype.kind not in "iu" or (shape is not None and idx.shape != shape):
        want = "an integer array" if shape is None else f"a {shape} integer array"
        raise ShapeError(f"{op}: indices must be {want}, got {idx.dtype} {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise IndexError(f"{op}: index out of range [0, {size}), got [{idx.min()}, {idx.max()}]")
    return idx


def select_positions(a, positions) -> Tensor:
    """Pick one row per batch element: out[n] = a[n, positions[n]]."""
    a = coerce(a)
    if a.ndim < 2:
        raise ShapeError(f"select_positions: got tensor {a.shape}, need (n, L, ...)")
    idx = _indices("select_positions", positions, a.shape[1], (a.shape[0],))
    return _gather("select_positions", a, (np.arange(a.shape[0]), idx))


# reductions -------------------------------------------------------------


def _axis(op: str, axis: int, shape: tuple[int, ...]) -> int:
    """``axis`` as an index in [0, ndim); ShapeError outside [-ndim, ndim)."""
    if not -len(shape) <= axis < len(shape):
        raise ShapeError(f"{op}: axis {axis} invalid for shape {shape}")
    return int(axis) % len(shape)


def _reduced_axes(op: str, axis, shape: tuple[int, ...]) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(len(shape)))
    if isinstance(axis, (int, np.integer)):
        axis = (axis,)
    axes = tuple(_axis(op, ax, shape) for ax in axis)
    if len(set(axes)) != len(axes):
        raise ShapeError(f"{op}: duplicate reduction axes {axis}")
    return axes


def _kept(op: str, keep, shape: tuple[int, ...], axes: tuple[int, ...]) -> Array | None:
    """The bool ``keep`` with leading axes to ``len(shape)``, or None if it keeps all; each ``axes`` slice keeps one."""
    if keep is None:
        return None
    keep = np.asarray(keep)
    if keep.dtype != np.bool_:
        raise ContractError(f"{op}: keep must be a bool array, got {keep.dtype}")
    try:
        np.broadcast_to(keep, shape)
    except ValueError:
        raise ShapeError(f"{op}: keep {keep.shape} does not broadcast to {shape}") from None
    # checked unbroadcast: repeated entries change neither answer, and a pass over ``shape`` costs ms
    keep = keep.reshape((1,) * (len(shape) - keep.ndim) + keep.shape)
    if not keep.any(axis=axes).all():
        raise ContractError(f"{op}: a reduced slice keeps no entry")
    return None if keep.all() else keep


def sum_(a, axis=None) -> Tensor:
    a = coerce(a)
    axes = _reduced_axes("sum", axis, a.shape)
    out = a.data.sum(axis=axes)

    def bwd(g: Array) -> None:
        _accumulate(a, np.broadcast_to(np.expand_dims(g, axes), a.shape).copy())

    return _make(out, (a,), "sum", bwd)


def mean(a, axis=None, keep=None) -> Tensor:
    """Mean over ``axis`` of the entries the bool ``keep`` (broadcast to ``a``) marks, or of all.

    A dropped entry gets exactly zero gradient; a slice that keeps nothing raises ContractError.
    """
    a = coerce(a)
    axes = _reduced_axes("mean", axis, a.shape)
    keep = _kept("mean", keep, a.shape, axes)
    count = math.prod(a.shape[ax] for ax in axes) if keep is None else np.broadcast_to(keep, a.shape).sum(axis=axes)
    # sum / count is what ndarray.mean computes, to the bit
    out = (a.data if keep is None else np.where(keep, a.data, 0.0)).sum(axis=axes) / count

    def bwd(g: Array) -> None:
        full = np.broadcast_to(np.expand_dims(g / count, axes), a.shape).copy()  # an array even when a is 0-d
        if keep is not None:
            full *= keep
        _accumulate(a, full)

    return _make(out, (a,), "mean", bwd)


def _argmax_forward(x: Array, axis: int) -> Array:
    # module-level so the verify suite can patch the tie-break rule
    return np.argmax(x, axis=axis)


def max_(a, axis: int, keep=None) -> Tensor:
    """Max along one axis of the entries the bool ``keep`` (broadcast to ``a``) marks, or of all.

    Ties go to the lowest kept index. A dropped entry is never picked, so its gradient is
    exactly zero; a slice that keeps nothing raises ContractError.
    """
    a = coerce(a)
    axis = _axis("max", axis, a.shape)
    keep = _kept("max", keep, a.shape, (axis,))
    idx = _argmax_forward(a.data, axis=axis) if keep is None else _masked_argmax(a.data, keep, axis)
    grid = np.indices(idx.shape, sparse=True)  # an open grid over the other axes
    return _gather("max", a, grid[:axis] + (idx,) + grid[axis:])


# entries of ``x`` per block of ``_masked_argmax``'s masked copy
_ARGMAX_BLOCK = 1 << 15


def _masked_argmax(x: Array, keep: Array, axis: int) -> Array:
    """``_argmax_forward(np.where(keep, x, -inf), axis)``, the masked copy made block by block.

    The blocks run along the first axis other than ``axis``, which is the first
    axis of the indices too; each block's argmax is the whole array's over that
    block, so the indices are the same. ``keep`` has ``x``'s rank, and broadcasts to it.
    """
    if x.ndim == 1:
        return _argmax_forward(np.where(keep, x, -np.inf), axis=axis)
    ax = 1 if axis == 0 else 0
    step = max(1, _ARGMAX_BLOCK * x.shape[ax] // max(x.size, 1))
    idx = np.empty(x.shape[:axis] + x.shape[axis + 1:], dtype=np.intp)
    for start in range(0, x.shape[ax], step):
        rows = (slice(None),) * ax + (slice(start, start + step),)
        mask = keep if keep.shape[ax] == 1 else keep[rows]
        idx[start : start + step] = _argmax_forward(np.where(mask, x[rows], -np.inf), axis=axis)
    return idx


# linear algebra ---------------------------------------------------------


def matmul(a, b, bias=None, residual=None) -> Tensor:
    """a @ b for ``a`` (..., k) and a 2-D ``b`` (k, m), plus ``bias`` broadcast over the
    product's rows, plus ``residual``, when given.

    Every leading axis of ``a`` shares ``b``: the product and both gradients
    run as one 2-D GEMM over the rows of ``a.reshape(-1, k)``. One tape node
    with parents (a, b, bias, residual): the bias and then the residual are
    added in place on the product, so no pre-bias or pre-residual buffer is
    kept, and ``x + (a @ b + bias)`` needs no ``add`` node of its own (the
    sum is the same bits in either order). ``residual`` must have the
    product's shape; its gradient is the incoming one.
    """
    a, b = coerce(a), coerce(b)
    bias = None if bias is None else coerce(bias)
    residual = None if residual is None else coerce(residual)
    out = _affine("matmul", a.data, b, bias, residual)
    parents = (a, b) + tuple(t for t in (bias, residual) if t is not None)
    k, m = b.shape

    def bwd(g: Array) -> None:
        g2 = g.reshape(-1, m)
        if a.requires_grad:
            _accumulate(a, (g2 @ b.data.T).reshape(a.shape))
        if b.requires_grad:
            _accumulate(b, a.data.reshape(-1, k).T @ g2)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, _unbroadcast(g, bias.shape))
        if residual is not None:
            _accumulate(residual, g)

    return _make(out, parents, "matmul", bwd)


def _affine(op: str, a: Array, b: Tensor, bias: Tensor | None, residual: Tensor | None) -> Array:
    """``a @ b`` for ``a`` (..., k) and a 2-D ``b`` (k, m), as one 2-D GEMM over the rows of
    ``a``, with ``bias`` and then ``residual`` added in place; ShapeError names ``op``."""
    if a.ndim < 2 or b.ndim != 2:
        raise ShapeError(f"{op} requires a of rank >= 2 and a 2-D b, got {a.shape} x {b.shape}")
    k, m = b.shape
    if a.shape[-1] != k:
        raise ShapeError(f"{op} inner dimensions differ: {a.shape} x {b.shape}")
    out = (a.reshape(-1, k) @ b.data).reshape(a.shape[:-1] + (m,))
    if bias is not None:
        try:
            out += bias.data
        except ValueError:
            raise ShapeError(f"{op}: bias {bias.shape} does not broadcast to the product {out.shape}") from None
    if residual is not None:
        if residual.shape != out.shape:
            raise ShapeError(f"{op}: residual {residual.shape} differs from the product {out.shape}")
        out += residual.data
    return out


def mlp(x, w1, b1, w2, b2, residual=None) -> Tensor:
    """``gelu(x @ w1 + b1) @ w2 + b2``, plus ``residual`` when given: the transformer MLP as one
    tape node, with parents (x, w1, b1, w2, b2, residual).

    ``x`` is (..., k), ``w1`` (k, hidden) and ``w2`` (hidden, m); both products run as
    ``matmul``'s do, one 2-D GEMM over the rows with the bias and then the residual
    added in place. The tape keeps the pre-activation ``u`` and GELU's ``cdf``, not the
    hidden activation ``u * cdf``: backward rebuilds that, one multiply per entry, for
    ``w2``'s gradient. The value and every gradient are the same bits as
    ``matmul(gelu(matmul(x, w1, b1)), w2, b2, residual)``.
    """
    x, w1, b1, w2, b2 = (coerce(t) for t in (x, w1, b1, w2, b2))
    residual = None if residual is None else coerce(residual)
    u = _affine("mlp", x.data, w1, b1, None)
    cdf = _gelu_cdf(u)
    out = _affine("mlp", u * cdf, w2, b2, residual)
    parents = (x, w1, b1, w2, b2) + (() if residual is None else (residual,))
    k, hidden = w1.shape
    m = w2.shape[1]

    def bwd(g: Array) -> None:
        g2 = g.reshape(-1, m)
        if w2.requires_grad:
            _accumulate(w2, (u * cdf).reshape(-1, hidden).T @ g2)
        if b2.requires_grad:
            _accumulate(b2, _unbroadcast(g, b2.shape))
        if residual is not None:
            _accumulate(residual, g)
        if not (x.requires_grad or w1.requires_grad or b1.requires_grad):
            return
        gu = _gelu_slope(u, cdf)
        gu *= (g2 @ w2.data.T).reshape(u.shape)
        gu2 = gu.reshape(-1, hidden)
        if x.requires_grad:
            _accumulate(x, (gu2 @ w1.data.T).reshape(x.shape))
        if w1.requires_grad:
            _accumulate(w1, x.data.reshape(-1, k).T @ gu2)
        if b1.requires_grad:
            _accumulate(b1, _unbroadcast(gu, b1.shape))

    return _make(out, parents, "mlp", bwd)


# normalization and activations ------------------------------------------


def _softmax_forward(x: Array, axis: int) -> Array:
    # one buffer, never ``x``: exp(x - max) / sum, the same IEEE operations in place
    e = x - np.max(x, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def softmax(a, axis: int = -1) -> Tensor:
    a = coerce(a)
    axis = _axis("softmax", axis, a.shape)
    return _unary("softmax", a, lambda x: _softmax_forward(x, axis),
                  lambda g, x, out: out * (g - (g * out).sum(axis=axis, keepdims=True)))


# an additive attention or logit mask: softmax weighs a position behind it by exactly zero
MASK_PENALTY = -1e9


def attention(fused, heads: int, attn_bias: Array | None = None, rows: Array | None = None) -> Tensor:
    """Multi-head scaled dot-product self-attention over a fused qkv projection.

    ``fused`` is (n, L, 3w): queries, keys and values side by side, each
    split into ``heads`` heads of width d = w / heads. With ``rows`` None
    every position is a query and the output is (n, L, w). ``rows``, an
    (n,) integer array, instead picks one query position per sequence,
    ``rows[i]`` of sequence i, over the keys and values of all L rows, and
    the output is (n, w). ``attn_bias`` is a constant added to the
    pre-softmax scores, ``MASK_PENALTY`` at a masked key, broadcastable to
    (n, heads, L, L), or to (n, heads, 1, L) with ``rows``. One tape node:
    q, k and v are strided views of ``fused`` and the backward writes their
    gradients straight into one buffer of its shape; with ``rows``, the
    query gradient of every position not picked is zero.
    """
    fused = coerce(fused)
    if fused.ndim != 3 or fused.shape[-1] % 3:
        raise ShapeError(f"attention expects (n, L, 3w) fused qkv, got {fused.shape}")
    n, L, w3 = fused.shape
    w, h = w3 // 3, int(heads)
    if h < 1 or w % h:
        raise ShapeError(f"attention: width {w} not divisible by {h} heads")
    d = w // h
    scale = 1.0 / math.sqrt(d)
    q, k, v = fused.data.reshape(n, L, 3, h, d).transpose(2, 0, 3, 1, 4)  # each (n, h, L, d)
    if rows is not None:
        rows = _indices("attention", rows, L, (n,))
        q = q[np.arange(n), :, rows][:, :, None]  # (n, h, 1, d)
    R = q.shape[2]
    scores = q @ k.swapaxes(-1, -2)
    scores *= scale
    if attn_bias is not None:
        try:
            scores += attn_bias
        except ValueError:
            raise ShapeError(
                f"attention: bias {np.shape(attn_bias)} does not broadcast to scores {scores.shape}"
            ) from None
    probs = _softmax_forward(scores, -1)
    merged = np.empty((n, R, h, d))
    np.matmul(probs, v, out=merged.transpose(0, 2, 1, 3))

    def bwd(g: Array) -> None:
        gm = g.reshape(n, R, h, d).transpose(0, 2, 1, 3)
        gfused = np.empty((n, L, 3, h, d))
        gq, gk, gv = gfused.transpose(2, 0, 3, 1, 4)
        np.matmul(probs.swapaxes(-1, -2), gm, out=gv)
        # softmax backward, probs * (gp - sum(gp * probs)), then the score scale
        gs = gm @ v.swapaxes(-1, -2)
        inner = (gs * probs).sum(axis=-1, keepdims=True)
        gs -= inner
        gs *= probs
        gs *= scale
        if rows is None:
            np.matmul(gs, k, out=gq)
        else:
            gq[...] = 0.0
            gq[np.arange(n), :, rows] = (gs @ k)[:, :, 0]
        np.matmul(gs.swapaxes(-1, -2), q, out=gk)
        _accumulate(fused, gfused.reshape(n, L, w3))

    return _make(merged.reshape((n, L, w) if rows is None else (n, w)), (fused,), "attention", bwd)


def _log_softmax_forward(x: Array, axis: int) -> Array:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def log_softmax(a, axis: int = -1) -> Tensor:
    a = coerce(a)
    axis = _axis("log_softmax", axis, a.shape)
    return _unary("log_softmax", a, lambda x: _log_softmax_forward(x, axis),
                  lambda g, x, out: g - np.exp(out) * g.sum(axis=axis, keepdims=True))


def l2_normalize(a, axis: int = -1) -> Tensor:
    """Scale slices along ``axis`` to unit Euclidean norm.

    Raises instead of clamping when a slice norm falls below 1e-12, so the
    unit-norm invariant downstream is exact rather than approximate.
    """
    a = coerce(a)
    axis = _axis("l2_normalize", axis, a.shape)
    norms = np.sqrt((a.data * a.data).sum(axis=axis, keepdims=True))
    if np.any(norms < NORMALIZE_MIN_NORM):
        raise DegenerateInputError("l2_normalize: slice with near-zero norm")
    out = a.data / norms

    def bwd(g: Array) -> None:
        inner = (g * out).sum(axis=axis, keepdims=True)
        _accumulate(a, (g - out * inner) / norms)

    return _make(out, (a,), "l2_normalize", bwd)


def layernorm(a, gain, bias) -> Tensor:
    """Normalize over the last axis with LAYERNORM_EPS added to the variance,
    then apply an elementwise affine.

    The tape keeps the (..., 1) mean and inverse deviation alone: backward
    rebuilds the normalized input from ``a``, which the tape holds anyway.
    """
    a, gain, bias = coerce(a), coerce(gain), coerce(bias)
    dim = a.shape[-1]
    if gain.shape != (dim,) or bias.shape != (dim,):
        raise ShapeError(
            f"layernorm: gain/bias must have shape ({dim},), got {gain.shape} and {bias.shape}"
        )
    mu = a.data.mean(axis=-1, keepdims=True)
    out = a.data - mu  # centred once, for the variance, then scaled and shifted in place
    var = (out**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    out *= inv
    out *= gain.data
    out += bias.data

    def bwd(g: Array) -> None:
        lead = tuple(range(g.ndim - 1))
        xhat = a.data - mu  # the forward's xhat, to the bit
        xhat *= inv
        buf = g * xhat
        if gain.requires_grad:
            _accumulate(gain, buf.sum(axis=lead))
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=lead))
        if not a.requires_grad:
            return
        # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) in two buffers, same operations
        dxhat = g * gain.data
        centre = dxhat.mean(axis=-1, keepdims=True)
        np.multiply(dxhat, xhat, out=buf)
        np.multiply(xhat, buf.mean(axis=-1, keepdims=True), out=buf)
        dxhat -= centre
        dxhat -= buf
        dxhat *= inv
        _accumulate(a, dxhat)

    return _make(out, (a, gain, bias), "layernorm", bwd)


def embedding_lookup(table, ids) -> Tensor:
    """Rows of a 2-D table by integer ids of any shape, which may repeat: one more gather."""
    table = coerce(table)
    if table.ndim != 2:
        raise ShapeError(f"embedding_lookup: table must be 2-D, got {table.shape}")
    return _gather("embedding_lookup", table, _indices("embedding_lookup", ids, table.shape[0]))


def cross_entropy(logits, targets) -> Tensor:
    """Mean negative log-likelihood of integer targets under row softmax."""
    logits = coerce(logits)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be 2-D, got {logits.shape}")
    n, v = logits.shape
    tgt = _indices("cross_entropy", targets, v, (n,))
    logp = _log_softmax_forward(logits.data, 1)
    rows = np.arange(n)
    out = -logp[rows, tgt].mean()

    def bwd(g: Array) -> None:
        p = np.exp(logp)
        p[rows, tgt] -= 1.0
        _accumulate(logits, (float(g) / n) * p)

    return _make(out, (logits,), "cross_entropy", bwd)


# convolution ------------------------------------------------------------


def conv2d(x, w) -> Tensor:
    """Stride-1 "same" cross-correlation of channel-major input, as one GEMM over im2col columns.

    ``x`` is (c, n, h, w) and ``w`` is (f, c, kh, kw) with kh and kw odd. The input is
    zero-padded by (kh // 2, kw // 2), and the output (f, n, h, w) is ``wf @ cols`` as the
    GEMM returns it: channel-major, as the next layer takes it. The columns are
    ``(c, kh, kw, n, h, w)`` viewed as ``(c*kh*kw, n*h*w)`` (Caffe's layout). Tap (i, j)
    reads the input (i - kh//2) rows down and (j - kw//2) columns right, which in the
    flat input is one offset: each tap is one contiguous copy out of a flat copy of ``x``
    with zero margins, after which the output rows and columns whose input lies past
    the image are zeroed. Each output of ``wf @ cols`` still sums over ``(c, kh, kw)`` in
    the weight's own order, and each entry of the weight gradient ``g @ cols.T`` over
    ``(n, h, w)`` in batch order. The tape does not keep the columns, kh*kw times the
    size of ``x``: backward rebuilds them from ``x``, which it holds anyway, with the
    forward's own helper, ``_im2col``.
    """
    x, w = coerce(x), coerce(w)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input and weight, got {x.shape} and {w.shape}")
    c, n, h, width = x.shape
    f, wc, kh, kw = w.shape
    if wc != c:
        raise ShapeError(f"conv2d channel mismatch: input {c}, weight {wc}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv2d takes odd kernels only, got {kh}x{kw}")
    ph, pw = kh // 2, kw // 2
    size = x.size
    margin = ph * width + pw
    # per tap (i, j): its flat offset, and the output rows and columns that read padding
    taps = [
        (margin + (i - ph) * width + (j - pw), _past_edge(i - ph, h), _past_edge(j - pw, width))
        for i in range(kh)
        for j in range(kw)
    ]
    wf = w.data.reshape(f, c * kh * kw)
    out = (wf @ _im2col(x.data, taps, margin)).reshape(f, n, h, width)

    def bwd(g: Array) -> None:
        g2 = g.reshape(f, n * h * width)
        cols = _im2col(x.data, taps, margin)
        # weight gradient: one GEMM with the batch and output positions as the inner sum
        _accumulate(w, (g2 @ cols.T).reshape(w.shape))
        if not x.requires_grad:  # e.g. the image batch itself
            return
        # col2im: each tap of the column gradient, its border zeroed, is added at the tap's
        # flat offset in (i, j) order; the zeroed entries add an exact +0.0 to the margins
        # and to the neighbouring rows they land on. The column gradient takes the rebuilt
        # columns' buffer, so the rebuild costs backward no extra allocation.
        gcols = np.matmul(wf.T, g2, out=cols).reshape(c, kh * kw, n, h, width)
        gxf = np.zeros(size + 2 * margin)
        for t, (off, rows, columns) in enumerate(taps):
            _zero_border(gcols[:, t], rows, columns)
            block = gxf[off : off + size].reshape(x.shape)
            block += gcols[:, t]
        _accumulate(x, gxf[margin : margin + size].reshape(x.shape))

    return _make(out, (x, w), "conv2d", bwd)


def _im2col(x: Array, taps, margin: int) -> Array:
    """The (c*kh*kw, n*h*w) im2col columns of a (c, n, h, w) input for conv2d's ``taps``,
    read out of a flat copy of ``x`` with ``margin`` zeros on either side."""
    c, n, h, width = x.shape
    size = x.size
    xf = np.zeros(size + 2 * margin)
    xf[margin : margin + size] = x.reshape(-1)
    cols = np.empty((c, len(taps), n, h, width))
    for t, (off, rows, columns) in enumerate(taps):
        cols[:, t] = xf[off : off + size].reshape(x.shape)
        _zero_border(cols[:, t], rows, columns)
    return cols.reshape(c * len(taps), n * h * width)


def _past_edge(shift: int, length: int) -> slice | None:
    """The positions along an axis of ``length`` that read padding when shifted by ``shift``."""
    if shift > 0:
        return slice(max(length - shift, 0), length)
    if shift < 0:
        return slice(0, min(-shift, length))
    return None


def _zero_border(tap: Array, rows: slice | None, columns: slice | None) -> None:
    """Zero the given rows and columns of a (c, n, h, w) tap in place."""
    if rows is not None:
        tap[:, :, rows] = 0.0
    if columns is not None:
        tap[:, :, :, columns] = 0.0


def gelu_avgpool2(x) -> Tensor:
    """GELU, then a 2x2 average pool with stride 2 over the last two (spatial) axes of a 4-D input.

    The first two axes are not read, so NCHW and the conv trunk's channel-major CNHW
    pool alike. The GELU output is a forward temporary: the tape keeps GELU's ``cdf``
    beside ``x``, and backward scales GELU's slope by a quarter of the pooled gradient
    tap by tap, so no full-size upsampled gradient is built. The value and the
    gradient are the same bits as ``gelu`` followed by the reshaped mean.
    """
    x = coerce(x)
    if x.ndim != 4 or x.shape[2] % 2 or x.shape[3] % 2:
        raise ShapeError(f"gelu_avgpool2 expects 4-D input with even height and width, got {x.shape}")
    cdf = _gelu_cdf(x.data)
    z = x.data * cdf
    # the summation order of z.reshape(n, c, h/2, 2, w/2, 2).mean(axis=(3, 5)), so the bits match
    out = ((z[:, :, 0::2, 0::2] + z[:, :, 0::2, 1::2]) + (z[:, :, 1::2, 0::2] + z[:, :, 1::2, 1::2])) / 4

    def bwd(g: Array) -> None:
        quarter = g / 4
        buf = _gelu_slope(x.data, cdf)
        for i in (0, 1):
            for j in (0, 1):
                buf[:, :, i::2, j::2] *= quarter
        _accumulate(x, buf)

    return _make(out, (x,), "gelu_avgpool2", bwd)
