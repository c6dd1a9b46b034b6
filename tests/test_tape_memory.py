"""What the autodiff tape keeps alive after a forward pass.

Backward can rebuild a copy, a sum or a product of arrays the tape already
holds, so the tape keeps none of them. No LayerNorm output is kept: each norm
is folded into the ``matmul`` or ``mlp`` node that reads it (``norm=``), which
keeps its input's (..., 1) statistics and rebuilds the normalized rows. A conv
stage is one ``conv2d(..., gelu_pool=True)`` node that keeps its input and
GELU's slope, so neither the conv pre-activation nor its im2col columns are
kept. A residual sum has no node of its own, and no GELU output is kept
(``mlp`` rebuilds its hidden activation from the pre-activation and GELU's
``cdf``; the conv stage pools it as a temporary). The pinned byte counts catch
a buffer that creeps back.
Backward, in turn, copies no gradient buffer a rule built: the pinned
first-gradient counts catch a copy that creeps back.
"""

import inspect

import numpy as np

from deskclip import tensor as T
from deskclip.encoders import ConvConfig, ConvEncoder, VitConfig, VitEncoder


def _cells(fn) -> dict:
    """The variables a function's closure holds, by name."""
    if getattr(fn, "__closure__", None) is None:
        return {}
    values = {}
    for name, cell in zip(fn.__code__.co_freevars, fn.__closure__):
        try:
            values[name] = cell.cell_contents
        except ValueError:  # an empty cell
            continue
    return values


def _closure(node: T.Tensor) -> dict:
    """The variables a node's backward closure holds, by name."""
    return _cells(node._backward)


def _closure_values(node: T.Tensor) -> list:
    """What a node's backward closure holds, with what the functions it holds close over."""
    values, functions, seen = [], [node._backward], set()
    while functions:
        fn = functions.pop()
        if id(fn) not in seen:
            seen.add(id(fn))
            for value in _cells(fn).values():
                (functions if inspect.isfunction(value) else values).append(value)
    return values


def closure_arrays(node: T.Tensor) -> list[np.ndarray]:
    """The arrays a node's backward closure holds as arrays (not as tensors), its functions' too."""
    return [value for value in _closure_values(node) if isinstance(value, np.ndarray)]


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, T.Tensor):
        yield value.data
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


def _owner(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def tape_bytes(root: T.Tensor) -> int:
    """Bytes of the unique non-parameter buffers the tape under ``root`` holds.

    A buffer is every node's output and every array or tensor its backward
    closure holds, counted once by the array that owns the memory; views of
    one buffer count once. A parameter (a gradient-tracked leaf) is not
    counted, nor is any view of its data.
    """
    nodes = T.build_graph(root).nodes
    params = {id(_owner(n.data)) for n in nodes if n.requires_grad and not n._parents}
    held: dict[int, int] = {}
    for node in nodes:
        for arr in _arrays([node, *_closure_values(node)]):
            owner = _owner(arr)
            if id(owner) not in params:
                held[id(owner)] = owner.nbytes
    return sum(held.values())


def _tiny_vit_forward():
    enc = VitEncoder(VitConfig(image_size=8, patch_size=4, width=12, depth=2, heads=2, embed_dim=8),
                     np.random.default_rng(0))
    return enc(T.constant(np.random.default_rng(1).uniform(0, 1, (3, 3, 8, 8)))).pooled


def _tiny_conv_forward():
    cfg = ConvConfig(image_size=16, stage_channels=(4, 8), kernel_size=3, embed_dim=8)
    enc = ConvEncoder(cfg, np.random.default_rng(0))
    return enc(T.constant(np.random.default_rng(1).uniform(0, 1, (2, 3, 16, 16)))).pooled


def test_tape_bytes_counts_each_buffer_once_and_no_parameter():
    w = T.Tensor(np.ones((4, 3)), requires_grad=True)
    x = T.constant(np.ones((5, 4)))
    h = T.matmul(x, w)  # (5, 3): 120 bytes, and x's 160
    out = T.sum_(h * h)  # h twice, the product (120) and the scalar (8)
    assert tape_bytes(out) == 160 + 120 + 120 + 8


def test_tiny_vit_forward_tape_bytes():
    assert tape_bytes(_tiny_vit_forward()) == 39_880


def test_tiny_conv_forward_tape_bytes():
    assert tape_bytes(_tiny_conv_forward()) == 45_456


def test_a_conv_stage_closure_holds_its_slope_and_no_column_sized_array():
    stages = [n for n in T.build_graph(_tiny_conv_forward()).nodes if n.op == "conv2d"]
    assert len(stages) == 2
    for node in stages:
        x, w = node._parents
        slope = T._gelu_slope(*_conv_pre_activation_and_cdf(node))
        columns = x.size * w.shape[2] * w.shape[3]
        held = [arr for arr in closure_arrays(node) if not np.shares_memory(arr, w.data)]  # w as a matrix
        assert len(held) == 1 and np.array_equal(held[0], slope) and slope.size < columns


def _normed_nodes(nodes) -> list[T.Tensor]:
    """The ``matmul`` and ``mlp`` nodes that run a LayerNorm of their input (``norm=``)."""
    return [n for n in nodes if n.op in ("matmul", "mlp") and _closure(n).get("norm") is not None]


def test_a_folded_layernorm_keeps_its_input_statistics_alone():
    nodes = T.build_graph(_tiny_vit_forward()).nodes
    assert "layernorm" not in {n.op for n in nodes}
    normed = _normed_nodes(nodes)
    # per block the qkv matmul and the mlp, then the final projection
    assert [n.op for n in normed] == ["matmul", "mlp", "matmul", "mlp", "matmul"]
    for node in normed:
        x = node._parents[0]
        stats = [arr for arr in closure_arrays(node) if arr.shape[-1] == 1]
        assert [arr.shape for arr in stats] == [x.shape[:-1] + (1,)] * 2
        assert all(arr.shape != x.shape for arr in closure_arrays(node))


def test_an_mlp_closure_holds_the_pre_activation_and_cdf_and_its_input_statistics_alone():
    mlps = [n for n in T.build_graph(_tiny_vit_forward()).nodes if n.op == "mlp"]
    assert len(mlps) == 2  # one per block
    for node in mlps:
        x, w1 = node._parents[:2]
        hidden = x.shape[:-1] + w1.shape[1:]
        assert sorted(arr.shape for arr in closure_arrays(node)) == sorted([hidden] * 2 + [x.shape[:-1] + (1,)] * 2)
        pair = [arr for arr in closure_arrays(node) if arr.shape == hidden]
        assert any(np.array_equal(cdf, T._gelu_cdf(u)) for u, cdf in (pair, pair[::-1]))
        assert node._parents[0] is node._parents[5]  # x is the residual too


def _conv_pre_activation_and_cdf(node: T.Tensor) -> tuple[np.ndarray, np.ndarray]:
    u = T.conv2d(*(p.data for p in node._parents)).data
    return u, T._gelu_cdf(u)


def _rebuilt_buffers(nodes) -> list[tuple[str, np.ndarray]]:
    """(kind, array) of what the fused nodes compute and leave off the tape: each GELU
    output, each LayerNorm output a GEMM reads and each conv pre-activation."""
    out = []
    for node in nodes:
        closure = _closure(node)
        if node.op in ("matmul", "mlp") and closure.get("norm") is not None:
            x, (gain, bias) = node._parents[0], closure["norm"]
            out.append(("layernorm output", T.layernorm(x.data, gain.data, bias.data).data))
        if node.op == "mlp":
            w1, b1 = (p.data for p in node._parents[1:3])
            x = out[-1][1] if closure.get("norm") is not None else node._parents[0].data
            out.append(("gelu output", T.gelu(T.matmul(x, w1, b1)).data))
        elif node.op == "conv2d":
            u, cdf = _conv_pre_activation_and_cdf(node)
            out += [("conv pre-activation", u), ("gelu output", u * cdf), ("gelu cdf", cdf)]
    return out


def test_no_node_holds_a_gelu_output_a_layernorm_output_or_a_conv_pre_activation():
    expected = {
        _tiny_vit_forward: {"layernorm output": 5, "gelu output": 2},
        _tiny_conv_forward: {"conv pre-activation": 2, "gelu output": 2, "gelu cdf": 2},
    }
    for forward, counts in expected.items():
        nodes = T.build_graph(forward()).nodes
        rebuilt = _rebuilt_buffers(nodes)
        assert {kind: sum(k == kind for k, _ in rebuilt) for kind in counts} == counts
        assert not {"gelu", "layernorm", "gelu_avgpool2"} & {node.op for node in nodes}
        held = [arr for node in nodes for arr in _arrays([node, *_closure_values(node)])]
        for kind, out in rebuilt:
            assert not any(arr.shape == out.shape and np.array_equal(arr, out) for arr in held), kind


def first_gradients(root: T.Tensor, monkeypatch) -> tuple[int, int]:
    """(taken over, copied): how ``_accumulate`` stores each first gradient over one
    backward pass from ``root``. No buffer it takes over shares memory with the
    gradient the rule at hand received."""
    counts, incoming = [0, 0], [None]
    accumulate = T._accumulate

    def spy(target, grad):
        first = target.requires_grad and target.grad is None
        accumulate(target, grad)
        if first:
            taken = target.grad is grad
            assert not (taken and np.shares_memory(grad, incoming[0]))
            counts[not taken] += 1

    def watched(rule):
        def run(g):
            incoming[0] = g
            rule(g)
        return run

    monkeypatch.setattr(T, "_accumulate", spy)
    loss = T.sum_(root * T.constant(np.random.default_rng(2).standard_normal(root.shape)))
    for node in T.build_graph(loss).nodes:
        if node._backward is not None:
            node._backward = watched(node._backward)
    T.backward(loss)
    return tuple(counts)


def test_tiny_vit_backward_takes_over_every_buffer_a_rule_built(monkeypatch):
    # the copies are an incoming gradient or a view of one: four residuals,
    # add's operand and concat's two pieces
    assert first_gradients(_tiny_vit_forward(), monkeypatch) == (40, 7)


def test_tiny_conv_backward_takes_over_every_buffer_a_rule_built(monkeypatch):
    # the copies: reshape's and transpose's views
    assert first_gradients(_tiny_conv_forward(), monkeypatch) == (9, 2)
