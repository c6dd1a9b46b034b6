"""What the autodiff tape keeps alive after a forward pass.

Backward can rebuild a copy, a sum or a product of arrays the tape already
holds, so the tape keeps none of them: layernorm keeps its (..., 1) statistics
and not its normalized input, conv2d keeps no im2col columns, a residual sum
has no node of its own, and no GELU output is kept (``mlp`` rebuilds its hidden
activation from the pre-activation and GELU's ``cdf``; ``gelu_avgpool2`` pools
it as a temporary). The pinned byte counts catch a buffer that creeps back.
Backward, in turn, copies no gradient buffer a rule built: the pinned
first-gradient counts catch a copy that creeps back.
"""

import numpy as np

from deskclip import tensor as T
from deskclip.encoders import ConvConfig, ConvEncoder, VitConfig, VitEncoder


def _closure_values(node: T.Tensor) -> list:
    values = []
    for cell in getattr(node._backward, "__closure__", None) or ():
        try:
            values.append(cell.cell_contents)
        except ValueError:  # an empty cell
            continue
    return values


def closure_arrays(node: T.Tensor) -> list[np.ndarray]:
    """The arrays a node's backward closure holds as arrays (not as tensors)."""
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
    assert tape_bytes(_tiny_vit_forward()) == 44_776


def test_tiny_conv_forward_tape_bytes():
    assert tape_bytes(_tiny_conv_forward()) == 70_032


def test_no_conv2d_closure_holds_a_column_sized_array():
    convs = [n for n in T.build_graph(_tiny_conv_forward()).nodes if n.op == "conv2d"]
    assert len(convs) == 2
    for node in convs:
        x, w = node._parents
        columns = x.size * w.shape[2] * w.shape[3]
        assert all(arr.size < columns for arr in closure_arrays(node))


def test_no_layernorm_closure_holds_an_array_of_its_input_shape():
    norms = [n for n in T.build_graph(_tiny_vit_forward()).nodes if n.op == "layernorm"]
    assert len(norms) == 5  # two per block and the final one
    for node in norms:
        shape = node._parents[0].shape
        assert [arr.shape for arr in closure_arrays(node)] == [shape[:-1] + (1,)] * 2


def test_an_mlp_closure_holds_the_pre_activation_and_cdf_alone():
    mlps = [n for n in T.build_graph(_tiny_vit_forward()).nodes if n.op == "mlp"]
    assert len(mlps) == 2  # one per block
    for node in mlps:
        x, w1 = node._parents[:2]
        hidden = x.shape[:-1] + w1.shape[1:]
        pair = [arr for arr in closure_arrays(node) if arr.shape == hidden]
        assert len(pair) == 2
        assert any(np.array_equal(cdf, T._gelu_cdf(u)) for u, cdf in (pair, pair[::-1]))


def _gelu_outputs(nodes) -> list[np.ndarray]:
    """What GELU gives inside each ``mlp`` and ``gelu_avgpool2`` node."""
    outputs = []
    for node in nodes:
        if node.op == "mlp":
            x, w1, b1 = (p.data for p in node._parents[:3])
            outputs.append(T.gelu(T.matmul(x, w1, b1)).data)
        elif node.op == "gelu_avgpool2":
            outputs.append(T.gelu(node._parents[0]).data)
    return outputs


def test_no_node_holds_a_gelu_output():
    for forward, fused in ((_tiny_vit_forward, "mlp"), (_tiny_conv_forward, "gelu_avgpool2")):
        nodes = T.build_graph(forward()).nodes
        outputs = _gelu_outputs(nodes)
        assert len(outputs) == 2 and "gelu" not in {node.op for node in nodes}
        held = [arr for node in nodes for arr in _arrays([node, *_closure_values(node)])]
        for out in outputs:
            assert not any(arr.shape == out.shape and np.array_equal(arr, out) for arr in held), fused


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
    assert first_gradients(_tiny_vit_forward(), monkeypatch) == (45, 7)


def test_tiny_conv_backward_takes_over_every_buffer_a_rule_built(monkeypatch):
    # the copies: reshape's and transpose's views
    assert first_gradients(_tiny_conv_forward(), monkeypatch) == (11, 2)
