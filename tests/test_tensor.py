"""Autodiff engine: values, bit identities, errors and tape mechanics, and the op-gradient
table of ``deskclip.verify`` swept over seeds against finite differences."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from deskclip import tensor as T
from deskclip.errors import ContractError, DegenerateInputError, ShapeError
from deskclip.gradcheck import five_point_gradient, gradient_report, numeric_gradient
from deskclip import verify
from deskclip.verify import OP_CASES

TOL = 1e-6


def rand(rng, *shape, scale=1.0):
    return T.Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


def check(fn, params):
    report = gradient_report(fn, params)
    assert max(report.values()) <= TOL, f"gradient mismatch: {report}"


# elementwise and broadcasting --------------------------------------------


def test_gelu_values():
    # gelu(0) = 0, gelu(large) ~ identity, gelu(-large) ~ 0
    y = T.gelu(T.constant([0.0, 10.0, -10.0])).data
    assert abs(y[0]) < 1e-15
    assert abs(y[1] - 10.0) < 1e-9
    assert abs(y[2]) < 1e-9



def test_gelu_is_bitwise_the_plain_formula():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((6, 7)) * 3.0
    g = rng.standard_normal((6, 7))
    a = T.Tensor(x, requires_grad=True)
    out = T.gelu(a)
    T.backward(T.sum_(out * T.constant(g)))
    cdf = 0.5 * (1.0 + erf(x * 0.7071067811865476))
    pdf = 0.3989422804014327 * np.exp(-0.5 * x * x)
    assert np.array_equal(out.data, x * cdf)
    assert np.array_equal(a.grad, g * (cdf + x * pdf))


@pytest.mark.parametrize("shape", [(), (7,), (4, 32, 16, 16)], ids=["0-d", "vector", "conv-stage"])
def test_gelu_forward_is_bitwise_the_composed_formula(shape):
    x = np.random.default_rng(23).standard_normal(shape) * 3.0
    a = T.Tensor(x, requires_grad=True)
    out = T.gelu(a)
    # 0.7071067811865476 is 1/sqrt(2) rounded once, as the engine uses it; x / sqrt(2) rounds differently
    assert np.array_equal(out.data, x * (0.5 * (1.0 + erf(x * 0.7071067811865476))))
    T.backward(T.sum_(out))  # a 0-d input too
    assert a.grad.shape == shape


# op -> (the op, its numpy forward, and the gradient of each operand at the broadcast shape)
BINARY = {
    "add": (T.add, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g),
    "sub": (T.sub, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g),
    "mul": (T.mul, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x),
    "div": (T.div, lambda x, y: x / y, lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y)),
}
UNARY = {
    "neg": (T.neg, lambda x: -x, lambda g, x: -g),
    "exp": (T.exp, np.exp, lambda g, x: g * np.exp(x)),
    "log": (T.log, np.log, lambda g, x: g / x),
    "power": (lambda a: T.power(a, 2.5), lambda x: x**2.5, lambda g, x: g * 2.5 * x**1.5),
}
# (a's shape, b's shape, the sums that bring a broadcast-shape gradient back to a and to b)
BROADCASTS = {
    "b-to-a": ((3, 4), (4,), lambda t: t, lambda t: t.sum(axis=0)),
    "a-to-b": ((3, 1), (3, 4), lambda t: t.sum(axis=1, keepdims=True), lambda t: t),
}
FAMILY_CASES = [(op, shapes, const) for op in BINARY for shapes in BROADCASTS for const in "ab"]
FAMILY_CASES += [(op, None, None) for op in UNARY]


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@pytest.mark.parametrize("op, shapes, const", FAMILY_CASES,
                         ids=[f"{op}-{s}-const-{c}" if s else op for op, s, c in FAMILY_CASES])
def test_binary_and_pointwise_ops_are_bitwise_the_numpy_formula(op, shapes, const):
    rng = np.random.default_rng(24)
    if op in UNARY:
        fn, forward, grad = UNARY[op]
        x = rng.uniform(0.5, 2.0, (3, 4))
        tracked, fixed = T.Tensor(x, requires_grad=True), None
        out, want = fn(tracked), forward(x)
        expected = lambda g: grad(g, x)
    else:
        fn, forward, grad_a, grad_b = BINARY[op]
        shape_a, shape_b, sum_a, sum_b = BROADCASTS[shapes]
        x, y = rng.standard_normal(shape_a), rng.standard_normal(shape_b)
        a, b = T.Tensor(x, requires_grad=const != "a"), T.Tensor(y, requires_grad=const != "b")
        out, want = fn(a, b), forward(x, y)
        if const == "a":
            tracked, fixed, expected = b, a, lambda g: sum_b(grad_b(g, x, y))
        else:
            tracked, fixed, expected = a, b, lambda g: sum_a(grad_a(g, x, y))
    assert out.op == op and out.requires_grad
    assert out.shape == want.shape and _bits(out.data) == _bits(want)
    g = rng.standard_normal(out.shape)
    g.flags.writeable = False  # as backward hands it over
    out._backward(g)
    # a first gradient is copied into a fresh buffer as grad + 0.0
    assert _bits(tracked.grad) == _bits(np.add(expected(g), 0.0))
    assert fixed is None or fixed.grad is None


def test_incompatible_shapes_raise():
    a = T.constant(np.zeros((2, 3)))
    b = T.constant(np.zeros((4, 5)))
    with pytest.raises(ShapeError):
        T.add(a, b)
    with pytest.raises(ShapeError):
        T.matmul(a, b)
    for reduce, axis in ((T.sum_, 5), (T.mean, -3), (T.max_, 2), (T.softmax, -3),
                         (T.log_softmax, 2), (T.l2_normalize, 5), (T.sum_, (0, -2))):
        with pytest.raises(ShapeError):
            reduce(a, axis=axis)  # out of range for a 2-D operand, or a repeated axis


# shape ops ---------------------------------------------------------------


def test_select_positions_rejects_a_position_out_of_range():
    with pytest.raises(IndexError):
        T.select_positions(T.constant(np.zeros((4, 5, 3))), np.array([0, 1, 2, 5]))


def test_select_positions_takes_integer_positions_only():
    a = T.constant(np.arange(12.0).reshape(2, 3, 2))
    for bad in ([0.7, 2.9], np.array([0.0, 2.0]), [True, False], slice(0, 2), [[0], [1]], [0]):
        with pytest.raises(ShapeError):
            T.select_positions(a, bad)
    assert np.array_equal(T.select_positions(a, np.array([2, 0], dtype=np.uint8)).data, [[4.0, 5.0], [6.0, 7.0]])


# reductions ---------------------------------------------------------------


def test_axis_ops_accept_a_numpy_integer_axis():
    a = T.constant(np.random.default_rng(24).standard_normal((2, 3)))
    for op in (T.sum_, T.mean, T.max_, T.softmax, T.log_softmax, T.l2_normalize):
        for axis in (1, -2):
            assert np.array_equal(op(a, axis=np.int64(axis)).data, op(a, axis=axis).data), (op.__name__, axis)


def test_max_grad_lowest_index_ties():
    vals = T.Tensor([[1.0, 5.0, 5.0, 2.0]], requires_grad=True)
    out = T.sum_(T.max_(vals, axis=1))
    T.backward(out)
    # both entries tie at 5.0; gradient must land on index 1 only
    assert np.array_equal(vals.grad, [[0.0, 1.0, 0.0, 0.0]])


def test_max_with_keep_never_picks_a_dropped_entry():
    vals = T.Tensor([[9.0, 1.0, 3.0, 2.0], [0.5, 8.0, 0.25, 7.0]], requires_grad=True)
    keep = np.array([[False, True, True, True], [True, False, True, False]])
    out = T.max_(vals, axis=1, keep=keep)
    assert np.array_equal(out.data, [3.0, 0.5])
    T.backward(T.sum_(out))
    assert np.array_equal(vals.grad, [[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]])


def test_max_with_keep_breaks_ties_at_the_lowest_kept_index():
    vals = T.Tensor([[5.0, 5.0, 5.0, 1.0]], requires_grad=True)
    T.backward(T.sum_(T.max_(vals, axis=1, keep=np.array([False, True, True, True]))))
    assert np.array_equal(vals.grad, [[0.0, 1.0, 0.0, 0.0]])


def test_max_with_keep_gives_dropped_entries_exactly_zero_gradient():
    rng = np.random.default_rng(27)
    a = rand(rng, 3, 4, 5)
    keep = rng.random((1, 4, 5)) < 0.5
    keep[:, 0] = True  # every slice along axis 1 keeps one entry
    T.backward(T.sum_(T.max_(a, axis=1, keep=keep) * T.constant(rng.standard_normal((3, 5)))))
    dropped = np.broadcast_to(~keep, a.shape)
    assert np.all(a.grad[dropped] == 0.0) and not np.signbit(a.grad[dropped]).any()
    want = np.where(keep, a.data, -np.inf).max(axis=1)
    assert np.array_equal(T.max_(a, axis=1, keep=keep).data, want)


@pytest.mark.parametrize("axis", [0, 1, 2, 3])
@pytest.mark.parametrize("ties", ["lowest", "highest"])
def test_max_with_a_partial_keep_picks_what_argmax_of_the_whole_masked_copy_does(axis, ties, monkeypatch):
    # blocks of 7 entries, so each call runs several ragged blocks; small integers tie everywhere
    monkeypatch.setattr(T, "_ARGMAX_BLOCK", 7)
    if ties == "highest":  # the verify suite's tie-break fault patches the one argmax
        monkeypatch.setattr(T, "_argmax_forward", verify._highest_index_ties)
    rng = np.random.default_rng(32 + axis)
    x = rng.integers(0, 3, (3, 4, 5, 2)).astype(float)
    # keep's size-1 axes, and a keep of lower rank, broadcast
    for keep_shape in [(3, 4, 5, 2), (1, 4, 5, 2), (3, 1, 5, 1), (3, 4, 1, 2), (5, 2)]:
        keep = rng.random((1,) * (4 - len(keep_shape)) + keep_shape) < 0.5
        along = np.arange(keep.shape[axis]).reshape([-1 if ax == axis else 1 for ax in range(4)])
        keep |= ~keep.any(axis=axis, keepdims=True) & (along == keep.shape[axis] - 1)  # none keeps nothing
        a = T.Tensor(x, requires_grad=True)
        T.backward(T.sum_(T.max_(a, axis=axis, keep=keep.reshape(keep_shape))))
        full = np.broadcast_to(keep, x.shape)
        want = np.zeros_like(x)
        idx = T._argmax_forward(np.where(full, x, -np.inf), axis=axis)
        np.put_along_axis(want, np.expand_dims(idx, axis), 1.0, axis=axis)
        assert np.array_equal(a.grad, want), keep_shape


def test_max_and_mean_with_keep_reject_a_slice_that_keeps_nothing():
    a = T.constant(np.arange(6.0).reshape(2, 3))
    keep = np.array([[True, False, False], [False, False, False]])
    for op in (T.max_, T.mean):
        with pytest.raises(ContractError, match="keeps no entry"):
            op(a, axis=1, keep=keep)
        with pytest.raises(ContractError, match="bool"):
            op(a, axis=1, keep=np.ones((2, 3)))
        with pytest.raises(ShapeError):
            op(a, axis=1, keep=np.ones((3, 2), dtype=bool))
    # a slice only needs one kept entry along the reduced axis
    assert np.array_equal(T.max_(a, axis=0, keep=np.array([[True, False, True], [False, True, False]])).data,
                          [0.0, 4.0, 2.0])


def test_mean_with_keep_equals_a_loop_over_the_kept_entries():
    rng = np.random.default_rng(29)
    a = rand(rng, 4, 5, 3)
    keep = rng.random((4, 5, 1)) < 0.6
    keep[:, 2] = True
    out = T.mean(a, axis=1, keep=keep)
    want = np.array([[np.mean([a.data[i, k, j] for k in range(5) if keep[i, k, 0]]) for j in range(3)]
                     for i in range(4)])
    assert np.allclose(out.data, want, rtol=0, atol=1e-15)
    T.backward(T.sum_(out * T.constant(rng.standard_normal((4, 3)))))
    dropped = np.broadcast_to(~keep, a.shape)
    assert np.all(a.grad[dropped] == 0.0) and np.all(a.grad[~dropped] != 0.0)
    # keeping everything is the plain mean, to the bit
    assert np.array_equal(T.mean(a, axis=1, keep=np.ones(5, dtype=bool)[:, None]).data, a.data.mean(axis=1))


def test_index_scatter_gradients_add_in_place_with_the_bits_of_zero_fill(monkeypatch):
    # x is read by two overlapping slices and one elementwise op; replaying each
    # contribution as a zero-filled full-size buffer added in the same order gives
    # the same bits as adding the slices in place
    rng = np.random.default_rng(30)
    x = rand(rng, 6, 4)
    calls = []
    scatter, accumulate = T._accumulate_at, T._accumulate

    def spy_scatter(target, index, grad):
        if target is x:
            calls.append((index, np.array(grad)))
        scatter(target, index, grad)

    def spy_accumulate(target, grad):
        if target is x:
            calls.append(((), np.array(grad)))
        accumulate(target, grad)

    monkeypatch.setattr(T, "_accumulate_at", spy_scatter)
    monkeypatch.setattr(T, "_accumulate", spy_accumulate)
    w = [T.constant(rng.standard_normal(shape)) for shape in ((4, 4), (3, 4), (6, 4))]
    loss = T.sum_(x[0:4] * w[0]) + T.sum_(x[2:5] * w[1]) + T.sum_(T.exp(x) * w[2])
    T.backward(loss)
    assert [index != () for index, _ in calls].count(True) == 2 and len(calls) == 3
    want = None
    for index, grad in calls:
        full = np.zeros_like(x.data)
        full[index] = grad
        want = full + 0.0 if want is None else want + full
    assert np.array_equal(x.grad, want) and not np.signbit(x.grad[x.grad == 0.0]).any()


# matmul -------------------------------------------------------------------


def test_matmul_identity_fixture():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((5, 5))
    out = T.matmul(T.constant(x), T.constant(np.eye(5)))
    assert np.array_equal(out.data, x)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_matmul_is_one_gemm_over_the_rows_of_a(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    lead = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2), label="leading axes"))
    rows, k, m = (data.draw(st.integers(1, 4), label=name) for name in ("rows", "k", "m"))
    a, b = rand(rng, *lead, rows, k), rand(rng, k, m)
    bias = rand(rng, m) if data.draw(st.booleans(), label="bias") else None
    residual = rand(rng, *lead, rows, m) if data.draw(st.booleans(), label="residual") else None
    out = T.matmul(a, b, bias, residual)
    a2 = a.data.reshape(-1, k)
    want = (a2 @ b.data).reshape(lead + (rows, m))
    for extra in (bias, residual):
        if extra is not None:
            want += extra.data
    assert out.op == "matmul" and _bits(out.data) == _bits(want)
    g = rng.standard_normal(out.shape)
    g2 = g.reshape(-1, m)
    loss = lambda: T.sum_(T.matmul(a, b, bias, residual) * T.constant(g))  # noqa: E731
    T.backward(loss())
    assert np.array_equal(a.grad, (g2 @ b.data.T).reshape(a.shape))
    assert np.array_equal(b.grad, a2.T @ g2)
    if residual is not None:
        assert np.array_equal(residual.grad, g)
    for name, t in (("a", a), ("b", b), ("bias", bias)):
        if t is not None:
            np.testing.assert_allclose(t.grad, numeric_gradient(loss, t), rtol=1e-6, atol=1e-8, err_msg=name)


@pytest.mark.parametrize("ashape, bshape", [
    ((2, 3, 4), (2, 4, 5)),  # a batched right operand
    ((2, 3, 4), (1, 4, 5)),
    ((4,), (4, 5)),  # a 1-D left operand
    ((3, 4), (4,)),
    ((3, 4), (5, 6)),  # inner dimensions differ
], ids=["batched-b", "broadcast-b", "vector-a", "vector-b", "inner"])
def test_matmul_takes_a_2d_right_operand_and_a_left_of_rank_2_or_more(ashape, bshape):
    with pytest.raises(ShapeError):
        T.matmul(T.constant(np.zeros(ashape)), T.constant(np.zeros(bshape)))


def _composed_and_fused(a_data, w_data, b_data, g, take=lambda t: t):
    """Output and (a, w, bias) gradients of matmul + add, then of the fused op."""
    results = []
    for fused in (False, True):
        a, w, b = (T.Tensor(v.copy(), requires_grad=True) for v in (a_data, w_data, b_data))
        x = take(a)
        out = T.matmul(x, w, b) if fused else T.matmul(x, w) + b
        T.backward(T.sum_(out * T.constant(g)))
        results.append((out.data, a.grad, w.grad, b.grad))
    return results


@pytest.mark.parametrize("ashape, take", [
    ((5, 4), lambda t: t),
    ((2, 3, 4), lambda t: t),
    ((2, 4, 4), lambda t: t[:, 1:]),  # non-contiguous rows, as the ViT's token projection
    ((2, 2, 3, 4), lambda t: t),
], ids=["2d", "3d", "3d-strided", "4d"])
def test_matmul_bias_matches_the_composed_add(ashape, take):
    rng = np.random.default_rng(14)
    a, w, b = rng.standard_normal(ashape), rng.standard_normal((4, 6)), rng.standard_normal(6)
    out_shape = take(T.constant(a)).shape[:-1] + (6,)
    g = rng.standard_normal(out_shape)
    (out0, *grads0), (out1, *grads1) = _composed_and_fused(a, w, b, g, take)
    assert np.array_equal(out1, out0)
    for want, got in zip(grads0, grads1):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_matmul_bias_is_one_node_and_checks_shapes():
    rng = np.random.default_rng(15)
    a, w, b = rand(rng, 2, 3, 4), rand(rng, 4, 5), rand(rng, 5)
    out = T.matmul(a, w, b)
    assert out.op == "matmul" and out._parents == (a, w, b)
    assert [node.op for node in T.build_graph(out).nodes] == ["leaf"] * 3 + ["matmul"]
    with T.no_grad():
        quiet = T.matmul(a, w, b)
    assert quiet._parents == () and not quiet.requires_grad and np.array_equal(quiet.data, out.data)
    with pytest.raises(ShapeError, match="does not broadcast"):
        T.matmul(a, w, T.constant(np.zeros(4)))
    with pytest.raises(ShapeError, match="does not broadcast"):
        T.matmul(a, w, T.constant(np.zeros((3, 2, 3, 5))))  # would grow the product
    with pytest.raises(ShapeError, match="inner dimensions"):
        T.matmul(a, T.constant(np.zeros((3, 5))), b)
    with pytest.raises(ShapeError, match="rank >= 2"):
        T.matmul(T.constant(np.zeros(4)), w, b)


@pytest.mark.parametrize("ashape", [(5, 4), (2, 3, 4)], ids=["2d", "3d"])
@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
def test_matmul_residual_is_the_composed_add_and_passes_the_gradient_through(ashape, bias):
    rng = np.random.default_rng(17)
    a_data, w_data, b_data = rng.standard_normal(ashape), rng.standard_normal((4, 6)), rng.standard_normal(6)
    r_data = rng.standard_normal(ashape[:-1] + (6,))
    g = T.constant(rng.standard_normal(r_data.shape))
    runs = []
    for fused in (False, True):
        a, w, r = (T.Tensor(d, requires_grad=True) for d in (a_data, w_data, r_data))
        b = T.Tensor(b_data, requires_grad=True) if bias else None
        out = T.matmul(a, w, b, r) if fused else r + T.matmul(a, w, b)
        T.backward(T.sum_(out * g))
        runs.append([out.data, a.grad, w.grad, r.grad] + ([b.grad] if bias else []))
    for want, got in zip(*runs):
        assert np.array_equal(got, want)
    assert np.array_equal(r.grad, g.data)


def test_matmul_residual_is_one_node_and_must_have_the_product_shape():
    rng = np.random.default_rng(18)
    a, w, b, r = rand(rng, 2, 3, 4), rand(rng, 4, 5), rand(rng, 5), rand(rng, 2, 3, 5)
    out = T.matmul(a, w, b, r)
    assert out._parents == (a, w, b, r)
    assert [node.op for node in T.build_graph(out).nodes] == ["leaf"] * 4 + ["matmul"]
    assert np.array_equal(T.matmul(a, w, residual=r).data, r.data + a.data @ w.data)
    for shape in [(5,), (1, 3, 5), (2, 3, 4), (2, 2, 3, 5)]:  # broadcastable or not, it must match
        with pytest.raises(ShapeError, match="residual"):
            T.matmul(a, w, b, T.constant(np.zeros(shape)))


@pytest.mark.parametrize("ashape", [(3, 4), (2, 3, 4)], ids=["2d", "3d"])
def test_matmul_skips_the_input_gradient_of_a_constant(ashape, monkeypatch):
    rng = np.random.default_rng(16)
    a_data, w_data = rng.standard_normal(ashape), rng.standard_normal((4, 5))
    g = T.constant(rng.standard_normal(ashape[:-1] + (5,)))
    accumulated, accumulate = [], T._accumulate

    def spy(target, grad):
        accumulated.append(grad.shape)
        accumulate(target, grad)

    monkeypatch.setattr(T, "_accumulate", spy)
    grads = []
    for requires in (True, False):
        a, w = T.Tensor(a_data, requires_grad=requires), T.Tensor(w_data, requires_grad=True)
        accumulated.clear()
        T.backward(T.sum_(T.matmul(a, w) * g))
        grads.append(w.grad)
    assert a.grad is None and ashape not in accumulated  # the input gradient is never built
    assert np.array_equal(grads[0], grads[1])


def test_owned_gradient_buffer_turns_negative_zero_positive():
    # gelu's slope at -2 is negative, so its backward builds 0.0 * slope = -0.0 in the
    # buffer it hands over; the leaf must still read +0.0, as zeros + grad would
    x = T.Tensor(np.array([-2.0, 1.0]), requires_grad=True)
    T.backward(T.sum_(T.gelu(x) * T.constant(np.array([0.0, 1.0]))))
    assert x.grad[0] == 0.0 and not np.signbit(x.grad[0])


def test_a_rule_that_writes_into_its_incoming_gradient_raises():
    x = T.Tensor(np.ones(3), requires_grad=True)

    def scales_in_place(g):
        g *= 2.0
        T._accumulate(x, g)

    with pytest.raises(ValueError, match="read-only"):
        T.backward(T.sum_(T._make(x.data * 2.0, (x,), "scale", scales_in_place)))


def test_one_gradient_handed_to_two_parents_gives_each_its_own_buffer():
    rng = np.random.default_rng(31)
    a, b = rand(rng, 3, 4), rand(rng, 3, 4)
    T.backward(T.sum_((a + b) * T.constant(rng.standard_normal((3, 4)))))
    assert np.array_equal(a.grad, b.grad) and not np.shares_memory(a.grad, b.grad)
    x, w = rand(rng, 3, 4), rand(rng, 4, 5)
    bias, residual = rand(rng, 3, 5), rand(rng, 3, 5)  # both take the product's gradient as it is
    T.backward(T.sum_(T.matmul(x, w, bias=bias, residual=residual) * T.constant(rng.standard_normal((3, 5)))))
    grads = [x.grad, w.grad, bias.grad, residual.grad]
    assert np.array_equal(bias.grad, residual.grad)
    assert not any(np.shares_memory(p, q) for i, p in enumerate(grads) for q in grads[i + 1:])


@pytest.mark.parametrize("xshape", [(5, 4), (2, 3, 4)], ids=["2d", "3d"])
@pytest.mark.parametrize("residual", [True, False], ids=["residual", "no-residual"])
def test_mlp_is_bitwise_the_unfused_ops(xshape, residual):
    rng = np.random.default_rng(41)
    shapes = [xshape, (4, 12), (12,), (12, 4), (4,)] + ([xshape] if residual else [])
    data = [2.0 * rng.standard_normal(shape) for shape in shapes]
    g = T.constant(rng.standard_normal(xshape))

    def unfused(x, w1, b1, w2, b2, *r):
        return T.matmul(T.gelu(T.matmul(x, w1, b1)), w2, b2, *r)

    runs = []
    for op in (T.mlp, unfused):
        inputs = [T.Tensor(d, requires_grad=True) for d in data]
        out = op(*inputs)
        T.backward(T.sum_(out * g))
        runs.append([out.data] + [t.grad for t in inputs])
        with T.no_grad():
            quiet = op(*inputs)
        assert np.array_equal(quiet.data, out.data) and quiet._parents == () and quiet._backward is None
    assert len(runs[0]) == len(shapes) + 1
    for got, want in zip(*runs):
        assert np.array_equal(got, want)


def test_mlp_is_one_node_and_checks_shapes():
    rng = np.random.default_rng(42)
    x, w1, b1, w2, b2, r = (rand(rng, *s) for s in ((2, 3, 4), (4, 8), (8,), (8, 5), (5,), (2, 3, 5)))
    out = T.mlp(x, w1, b1, w2, b2, r)
    assert out._parents == (x, w1, b1, w2, b2, r)
    assert [node.op for node in T.build_graph(out).nodes] == ["leaf"] * 6 + ["mlp"]
    with pytest.raises(ShapeError, match="inner dimensions"):
        T.mlp(x, w1, b1, rand(rng, 7, 5), b2)
    with pytest.raises(ShapeError, match="residual"):
        T.mlp(x, w1, b1, w2, b2, rand(rng, 2, 3, 4))
    with pytest.raises(ShapeError, match="bias"):
        T.mlp(x, w1, rand(rng, 7), w2, b2)
    with pytest.raises(ShapeError, match="rank >= 2"):
        T.mlp(rand(rng, 4), w1, b1, w2, b2)


# softmax family ------------------------------------------------------------


def test_softmax_fixtures():
    out = T.softmax(T.constant([[0.0, 0.0]]), axis=1).data
    assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)
    # huge logits must not overflow
    out = T.softmax(T.constant([[1000.0, 0.0]]), axis=1).data
    assert np.isfinite(out).all()
    assert abs(out[0, 0] - 1.0) < 1e-12
    out = T.softmax(T.constant(np.random.default_rng(12).standard_normal((4, 6))), axis=1).data
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_forward_is_bitwise_the_plain_formula_and_leaves_its_input():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((2, 4, 9, 9)) * 30.0
    x[0, 0, 0] = -1e9  # a masked row, as attention's padding bias makes
    before = x.copy()
    for axis in (-1, 1):
        shifted = x - np.max(x, axis=axis, keepdims=True)
        e = np.exp(shifted)
        assert np.array_equal(T._softmax_forward(x, axis), e / e.sum(axis=axis, keepdims=True))
    assert np.array_equal(x, before)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_softmax_rows_sum_to_one_property(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 5)) * rng.uniform(0.1, 50)
    out = T.softmax(T.constant(x), axis=1).data
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
    assert (out >= 0).all()


# l2_normalize / layernorm ---------------------------------------------------


def test_l2_normalize_unit_rows_and_degenerate():
    out = T.l2_normalize(T.constant(np.random.default_rng(14).standard_normal((4, 6))), axis=1).data
    assert np.allclose((out**2).sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(DegenerateInputError):
        T.l2_normalize(T.constant(np.zeros((2, 3))))


def test_layernorm_constant_rows_map_to_bias():
    g = T.constant(np.ones(4))
    b = T.constant(np.full(4, 0.25))
    out = T.layernorm(T.constant(np.full((3, 4), 7.0)), g, b).data
    assert np.allclose(out, 0.25, atol=1e-12)



def test_layernorm_is_bitwise_the_plain_formula():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((2, 5, 8)) * 2.0 + 0.5
    g = rng.standard_normal((2, 5, 8))
    a = T.Tensor(x, requires_grad=True)
    gain = T.Tensor(rng.standard_normal(8), requires_grad=True)
    bias = T.Tensor(rng.standard_normal(8), requires_grad=True)
    out = T.layernorm(a, gain, bias)
    T.backward(T.sum_(out * T.constant(g)))
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + T.LAYERNORM_EPS)
    xhat = (x - mu) * inv
    dxhat = g * gain.data
    term = dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    assert np.array_equal(out.data, xhat * gain.data + bias.data)
    assert np.array_equal(a.grad, inv * term)
    assert np.array_equal(gain.grad, (g * xhat).sum(axis=(0, 1)))
    assert np.array_equal(bias.grad, g.sum(axis=(0, 1)))


# attention -------------------------------------------------------------------


def _composed_attention(fused, heads, attn_bias):
    """Multi-head attention from the generic tape ops, for reference."""
    n, L, w3 = fused.shape
    w = w3 // 3
    d = w // heads

    def split(part):
        return T.transpose(T.reshape(part, (n, L, heads, d)), (0, 2, 1, 3))

    q, k, v = (split(fused[:, :, i * w : (i + 1) * w]) for i in range(3))
    # the batched products as broadcast products summed over the shared axis
    scores = T.sum_(T.reshape(q, (n, heads, L, 1, d)) * T.reshape(k, (n, heads, 1, L, d)), axis=-1)
    scores = scores * (1.0 / math.sqrt(d))
    if attn_bias is not None:
        scores = scores + T.constant(attn_bias)
    probs = T.softmax(scores, axis=-1)
    mixed = T.sum_(T.reshape(probs, (n, heads, L, L, 1)) * T.reshape(v, (n, heads, 1, L, d)), axis=3)
    return T.reshape(T.transpose(mixed, (0, 2, 1, 3)), (n, L, w))


def _padding_bias(n, L):
    pad = np.zeros((n, L), dtype=bool)
    pad[0, L - 2 :] = True  # the first row ends in two padding slots
    return np.where(pad[:, None, None, :], -1e9, 0.0)


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("padded", [False, True])
def test_attention_matches_composed_path(heads, padded):
    rng = np.random.default_rng(24)
    n, L, w = 3, 5, 8
    data = rng.standard_normal((n, L, 3 * w))
    g = rng.standard_normal((n, L, w))
    bias = _padding_bias(n, L) if padded else None
    fused, reference = T.Tensor(data, requires_grad=True), T.Tensor(data.copy(), requires_grad=True)
    out = T.attention(fused, heads, bias)
    want = _composed_attention(reference, heads, bias)
    assert out.shape == (n, L, w)
    np.testing.assert_allclose(out.data, want.data, rtol=0, atol=1e-12)
    T.backward(T.sum_(out * T.constant(g)))
    T.backward(T.sum_(want * T.constant(g)))
    np.testing.assert_allclose(fused.grad, reference.grad, rtol=0, atol=1e-12)


def test_attention_softmax_goes_through_the_patchable_forward(monkeypatch):
    calls = []
    original = T._softmax_forward

    def spy(x, axis):
        calls.append(x.shape)
        return original(x, axis)

    monkeypatch.setattr(T, "_softmax_forward", spy)
    T.attention(T.constant(np.zeros((2, 3, 12))), 2)
    assert calls == [(2, 2, 3, 3)]


def test_attention_builds_one_node_and_checks_shapes():
    fused = T.Tensor(np.zeros((2, 3, 12)), requires_grad=True)
    out = T.attention(fused, 2)
    assert out.op == "attention" and out._parents == (fused,)
    with pytest.raises(ShapeError):
        T.attention(T.constant(np.zeros((2, 3, 13))), 1)  # 3w not divisible by 3
    with pytest.raises(ShapeError):
        T.attention(T.constant(np.zeros((2, 3, 12))), 3)  # 3 heads do not divide w = 4
    with pytest.raises(ShapeError):
        T.attention(T.constant(np.zeros((3, 12))), 2)
    with pytest.raises(ShapeError):
        T.attention(fused, 2, np.zeros((2, 1, 3, 4)))  # bias does not fit the scores


@pytest.mark.parametrize("rows", [[0, 0, 0], [2, 3, 1], [4, 4, 4]], ids=["first", "middle", "last"])
@pytest.mark.parametrize("padded", [False, True])
def test_attention_rows_match_the_same_rows_of_full_attention(rows, padded):
    rng = np.random.default_rng(26)
    n, L, w = 3, 5, 8
    data = rng.standard_normal((n, L, 3 * w))
    picked = (np.arange(n), np.array(rows))
    g = rng.standard_normal((n, w))
    bias = _padding_bias(n, L) if padded else None
    fused, reference = T.Tensor(data, requires_grad=True), T.Tensor(data.copy(), requires_grad=True)
    out = T.attention(fused, 2, bias, rows=np.array(rows))
    full = T.attention(reference, 2, bias)
    assert out.shape == (n, w)
    np.testing.assert_allclose(out.data, full.data[picked], rtol=0, atol=1e-12)
    # the full pass under a gradient that is zero outside the picked rows
    g_full = np.zeros((n, L, w))
    g_full[picked] = g
    T.backward(T.sum_(out * T.constant(g)))
    T.backward(T.sum_(full * T.constant(g_full)))
    np.testing.assert_allclose(fused.grad, reference.grad, rtol=0, atol=1e-12)
    # only the picked rows get a query gradient
    gq = fused.grad[:, :, :w]
    others = np.ones((n, L), dtype=bool)
    others[picked] = False
    assert np.all(gq[others] == 0.0)
    assert np.all(np.abs(gq[picked]).max(axis=-1) > 0)


@pytest.mark.parametrize(
    "rows, error",
    [(slice(0, 1), ShapeError), (np.array([], dtype=np.int64), ShapeError), ([0, 1, 2], ShapeError),
     (0, ShapeError), (np.zeros((2, 1), dtype=np.int64), ShapeError), ([0.0, 1.0], ShapeError),
     ([-1, 0], IndexError), ([0, 5], IndexError)],
    ids=["slice", "empty", "too-long", "int", "2-D", "float", "negative", "past-the-end"],
)
def test_attention_rejects_bad_rows(rows, error):
    with pytest.raises(error):
        T.attention(T.constant(np.zeros((2, 5, 12))), 2, rows=rows)


# the gather family: slice_, select_positions, max_ and embedding_lookup ------------


def _draw_read(data, family):
    """A drawn read of ``family``: the operand's values, the op, the flat entries of the operand
    that the op's output reads (in output order), and whether the op is smooth at these values."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

    def dim(hi):
        return data.draw(st.integers(1, hi))

    if family == "slice":
        n, m = dim(5), dim(3)
        rows = data.draw(st.one_of(
            st.integers(-n, n - 1),
            st.builds(slice, st.none() | st.integers(-n, n), st.none() | st.integers(-n, n),
                      st.sampled_from([None, -2, -1, 1, 2])),
            st.lists(st.integers(-n, n - 1), min_size=1, max_size=6).map(np.array),  # repeats welcome
        ), label="rows")
        key = (rows, data.draw(st.sampled_from([slice(None), -1, slice(None, None, -2)]), label="columns"))
        return rng.standard_normal((n, m)), lambda a: T.slice_(a, key), np.arange(n * m).reshape(n, m)[key], True
    if family == "select_positions":
        n, L, d = dim(3), dim(4), dim(2)
        pos = np.array(data.draw(st.lists(st.integers(0, L - 1), min_size=n, max_size=n), label="positions"))
        flat = np.arange(n * L * d).reshape(n, L, d)
        return rng.standard_normal((n, L, d)), lambda a: T.select_positions(a, pos), flat[np.arange(n), pos], True
    if family == "max":
        shape = tuple(dim(3) for _ in range(dim(3)))
        axis = data.draw(st.integers(-len(shape), len(shape) - 1), label="axis")
        values = rng.integers(-1, 2, shape).astype(float)  # ties in most slices
        is_max = values == values.max(axis=axis, keepdims=True)
        first = np.expand_dims(np.argmax(is_max, axis=axis), axis)  # the lowest index of each max
        picks = np.take_along_axis(np.arange(values.size).reshape(shape), first, axis).squeeze(axis)
        return values, lambda a: T.max_(a, axis=axis), picks, bool((is_max.sum(axis=axis) == 1).all())
    vocab, width = dim(4), dim(3)
    ids = rng.integers(0, vocab, data.draw(st.sampled_from([(5,), (2, 3)]), label="ids shape"))
    flat = np.arange(vocab * width).reshape(vocab, width)
    return rng.standard_normal((vocab, width)), lambda a: T.embedding_lookup(a, ids), flat[ids], True


@pytest.mark.parametrize("family", ["slice", "select_positions", "max", "embedding_lookup"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_gather_sums_the_gradient_of_every_pick(family, data):
    values, op, picks, smooth = _draw_read(data, family)
    a = T.Tensor(values, requires_grad=True)
    out = op(a)
    assert np.array_equal(out.data, values.reshape(-1)[picks])
    # nonzero integer weights keep every sum exact, so the tape must match the dense oracle to the bit
    weights = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="weights"))
    w = T.constant(weights.integers(1, 5, out.shape) * weights.choice([-1.0, 1.0], out.shape))
    T.backward(T.sum_(out * w))
    one_hot = np.zeros((picks.size, values.size))  # P[j, i] = 1 when output j reads entry i
    one_hot[np.arange(picks.size), picks.reshape(-1)] = 1.0
    dense = (one_hot.T @ w.data.reshape(-1)).reshape(values.shape)
    assert np.array_equal(a.grad, dense)
    if smooth:  # at a tie, max_ has a kink, and a difference quotient splits the pick between the tied entries
        assert np.allclose(numeric_gradient(lambda: T.sum_(op(a) * w), a), dense, rtol=1e-6, atol=1e-6)


def test_a_repeated_integer_key_gets_every_picks_gradient():
    x = T.Tensor(np.zeros(3), requires_grad=True)
    T.backward(T.sum_(x[np.array([0, 0, 2])]))
    assert np.array_equal(x.grad, [2.0, 0.0, 1.0])


# embedding / cross entropy --------------------------------------------------


@pytest.mark.parametrize("ids", [[1.9], np.array([1.0]), [True], np.array([True])],
                         ids=["float-list", "float-array", "bool-list", "bool-array"])
def test_embedding_lookup_and_cross_entropy_take_integer_ids_only(ids):
    with pytest.raises(ShapeError, match="integer array"):
        T.embedding_lookup(T.constant(np.zeros((3, 2))), ids)
    with pytest.raises(ShapeError, match="integer array"):
        T.cross_entropy(T.constant(np.zeros((1, 3))), ids)


def test_an_empty_list_is_no_integer_index_but_an_empty_integer_array_is():
    # numpy reads [] as float64, and the check reads the dtype, not the length
    table = T.Tensor(np.ones((3, 2)), requires_grad=True)
    with pytest.raises(ShapeError, match="float64"):
        T.embedding_lookup(table, [])
    with pytest.raises(ShapeError, match="float64"):
        T.cross_entropy(T.constant(np.zeros((0, 3))), [])
    out = T.embedding_lookup(table, np.array([], dtype=np.int64))
    assert out.shape == (0, 2)
    T.backward(T.sum_(out))
    assert np.array_equal(table.grad, np.zeros((3, 2)))


def test_embedding_lookup_rejects_an_id_out_of_range():
    with pytest.raises(IndexError):
        T.embedding_lookup(T.constant(np.zeros((7, 4))), np.array([7]))


def test_cross_entropy_uniform_fixture():
    # uniform logits over V classes: loss = ln V exactly
    for v in (2, 5, 17):
        logits = T.constant(np.zeros((3, v)))
        out = T.cross_entropy(logits, np.zeros(3, dtype=int))
        assert abs(out.item() - np.log(v)) < 1e-12


# conv2d ----------------------------------------------------------------------


def _channel_major(a):
    """(n, c, h, w) as (c, n, h, w), contiguous."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3))


# a 1x1 kernel is the "same" convolution that reads no padding
@pytest.mark.parametrize("kernel", [(1, 1), (3, 3)], ids=["unpadded", "padded"])
def test_conv2d_weight_gradient_is_unchanged_for_a_constant_input(kernel):
    rng = np.random.default_rng(17)
    x_data, w_data = rng.standard_normal((3, 2, 6, 6)), rng.standard_normal((4, 3, *kernel))
    grads = []
    for requires in (True, False):
        x, w = T.Tensor(x_data, requires_grad=requires), T.Tensor(w_data, requires_grad=True)
        out = T.conv2d(x, w)
        T.backward(T.sum_(out * T.constant(np.cos(np.arange(out.size)).reshape(out.shape))))
        grads.append(w.grad)
    assert x.grad is None
    assert np.array_equal(grads[0], grads[1])


def test_conv2d_known_value():
    # one channel, one image, a 3x3 ramp with zero "same" padding
    x = T.constant(np.arange(9, dtype=float).reshape(1, 1, 3, 3))
    # a 3x3 ones kernel sums each window
    out = T.conv2d(x, T.constant(np.ones((1, 1, 3, 3)))).data
    assert np.array_equal(out[0, 0], [[8.0, 15.0, 12.0], [21.0, 36.0, 27.0], [20.0, 33.0, 24.0]])
    # a 1x3 kernel weighs the left, centre and right neighbours by 1, 10 and 100
    out = T.conv2d(x, T.constant(np.array([1.0, 10.0, 100.0]).reshape(1, 1, 1, 3))).data
    assert np.array_equal(out[0, 0], [[100.0, 210.0, 21.0], [430.0, 543.0, 54.0], [760.0, 876.0, 87.0]])


def test_conv2d_rejects_what_it_does_not_compute():
    x = T.constant(np.zeros((3, 2, 5, 5)))
    with pytest.raises(ShapeError, match="odd kernels"):
        T.conv2d(x, T.constant(np.zeros((4, 3, 2, 3))))
    with pytest.raises(ShapeError, match="channel mismatch"):
        T.conv2d(x, T.constant(np.zeros((4, 2, 3, 3))))
    with pytest.raises(ShapeError, match="4-D"):
        T.conv2d(T.constant(np.zeros((3, 5, 5))), T.constant(np.zeros((4, 3, 3, 3))))


def _loop_conv2d(x, w, g):
    """Output, input gradient and weight gradient of a channel-major "same" conv2d, one window at a time."""
    c, n, h, width = x.shape
    f, _, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((f, n, h, width))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for b in range(n):
        for k in range(f):
            for i in range(h):
                for j in range(width):
                    window = xp[:, b, i : i + kh, j : j + kw]
                    out[k, b, i, j] = (window * w[k]).sum()
                    gxp[:, b, i : i + kh, j : j + kw] += g[k, b, i, j] * w[k]
                    gw[k] += g[k, b, i, j] * window
    return out, gxp[:, :, ph : ph + h, pw : pw + width], gw


@pytest.mark.parametrize(
    "xshape, wshape",
    [
        ((3, 2, 7, 6), (4, 3, 3, 5)),
        ((3, 2, 5, 7), (4, 3, 1, 3)),
        ((3, 2, 5, 3), (4, 3, 5, 1)),
        ((2, 2, 3, 2), (3, 2, 5, 5)),  # the kernel overhangs the image on every side
        ((32, 2, 5, 6), (4, 32, 3, 3)),  # c*kh*kw = 288 as in the desk trunk's stage 1: a long inner sum
    ],
    ids=["3x5-on-7x6", "1x3-on-5x7", "5x1-on-5x3", "5x5-on-3x2", "3x3-c32"],
)
def test_conv2d_matches_loop_reference(xshape, wshape):
    rng = np.random.default_rng(19)
    x = rand(rng, *xshape)
    w = rand(rng, *wshape)
    out = T.conv2d(x, w)
    g = rng.standard_normal(out.shape)
    T.backward(T.sum_(out * T.constant(g)))
    want_out, want_gx, want_gw = _loop_conv2d(x.data, w.data, g)
    np.testing.assert_allclose(out.data, want_out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(x.grad, want_gx, rtol=0, atol=1e-12)
    np.testing.assert_allclose(w.grad, want_gw, rtol=0, atol=1e-12)


def _nchw_im2col_conv2d(x, w, g):
    """Output, input gradient and weight gradient of an NCHW "same" conv2d: zero-padded input,
    strided tap copies into channel-major columns, outputs transposed back to NCHW, col2im into
    a padded (n, c, h + 2p, w + 2p) buffer. The channel-major conv2d must match it bit for bit.
    """
    n, c, h, width = x.shape
    f, _, k, _ = w.shape
    p = k // 2
    xt = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))).transpose(1, 0, 2, 3)
    cols = np.empty((c, k, k, n, h, width))
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = xt[:, :, i : i + h, j : j + width]
    cols = cols.reshape(c * k * k, n * h * width)
    wf = w.reshape(f, c * k * k)
    out = np.ascontiguousarray((wf @ cols).reshape(f, n, h, width).transpose(1, 0, 2, 3))
    g2 = g.transpose(1, 0, 2, 3).reshape(f, n * h * width)
    gw = (g2 @ cols.T).reshape(w.shape)
    gcols = (wf.T @ g2).reshape(c, k, k, n, h, width)
    gxp = np.zeros((n, c, h + 2 * p, width + 2 * p))
    gxt = gxp.transpose(1, 0, 2, 3)
    for i in range(k):
        for j in range(k):
            gxt[:, :, i : i + h, j : j + width] += gcols[:, i, j]
    return out, gxp[:, :, p : p + h, p : p + width], gw


@pytest.mark.parametrize(
    "c, f, side", [(3, 32, 32), (32, 64, 16), (64, 96, 8)], ids=["stage0", "stage1", "stage2"]
)
def test_conv2d_is_bitwise_the_nchw_im2col_at_the_desk_stage_shapes(c, f, side):
    rng = np.random.default_rng(23)
    x_data = rng.standard_normal((64, c, side, side))
    w = T.Tensor(rng.standard_normal((f, c, 3, 3)), requires_grad=True)
    g = rng.standard_normal((64, f, side, side))
    x = T.Tensor(_channel_major(x_data), requires_grad=True)
    out = T.conv2d(x, w)
    T.backward(T.sum_(out * T.constant(_channel_major(g))))
    want_out, want_gx, want_gw = _nchw_im2col_conv2d(x_data, w.data, g)
    assert np.array_equal(out.data, _channel_major(want_out))
    assert np.array_equal(x.grad, _channel_major(want_gx))
    assert np.array_equal(w.grad, want_gw)


def test_gelu_avgpool2_is_bitwise_gelu_then_the_reshaped_mean():
    rng = np.random.default_rng(20)
    n, c, h, w = 3, 4, 6, 8
    data = 2.0 * rng.standard_normal((n, c, h, w))
    g = rng.standard_normal((n, c, h // 2, w // 2))
    pooled, reference = T.Tensor(data, requires_grad=True), T.Tensor(data.copy(), requires_grad=True)
    out = T.gelu_avgpool2(pooled)
    want = T.mean(T.reshape(T.gelu(reference), (n, c, h // 2, 2, w // 2, 2)), axis=(3, 5))
    assert np.array_equal(out.data, want.data)
    T.backward(T.sum_(out * T.constant(g)))
    T.backward(T.sum_(want * T.constant(g)))
    assert np.array_equal(pooled.grad, reference.grad)
    with T.no_grad():
        assert np.array_equal(T.gelu_avgpool2(pooled).data, want.data)


def test_gelu_avgpool2_shape_check():
    with pytest.raises(ShapeError):
        T.gelu_avgpool2(T.constant(np.zeros((2, 3, 5, 6))))
    with pytest.raises(ShapeError):
        T.gelu_avgpool2(T.constant(np.zeros((3, 4, 6))))


# graph / backward mechanics ---------------------------------------------------


def test_backward_requires_scalar():
    a = T.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        T.backward(a + a)
    with pytest.raises(ContractError):
        T.backward(T.constant(1.0))


def test_shared_subexpression_accumulates_once_per_path():
    # y = x*x + x*x: dy/dx = 4x; the shared node must be visited once
    x = T.Tensor(np.array(3.0), requires_grad=True)
    sq = x * x
    T.backward(sq + sq)
    assert abs(float(x.grad) - 12.0) < 1e-12



def test_self_add_and_two_consumers_sum_without_aliasing():
    x = T.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    g = np.array([0.5, 0.25, -1.0])
    T.backward(T.sum_((x + x) * T.constant(g)))
    assert np.array_equal(x.grad, 2.0 * g)
    # two consumers, one of them a reshape whose backward hands on a view of its
    # own gradient: x.grad must be a fresh buffer, so the second add cannot write
    # through to the first consumer's gradient
    y = T.Tensor(np.arange(4.0), requires_grad=True)
    gr, gy = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.5, -0.5, 0.25, -0.25])
    shaped = T.reshape(y, (2, 2))
    seen = []
    closure = shaped._backward

    def recording(grad):
        seen.append(grad)
        closure(grad)

    shaped._backward = recording
    T.backward(T.sum_(shaped * T.constant(gr)) + T.sum_(y * T.constant(gy)))
    assert np.array_equal(y.grad, gr.ravel() + gy)
    assert np.array_equal(seen[0], gr) and not np.shares_memory(y.grad, seen[0])


def test_negative_zero_gradient_accumulates_to_positive_zero():
    x = T.Tensor(np.array([2.0, 3.0]), requires_grad=True)
    T.backward(T.sum_(x * T.constant(np.array([-0.0, 1.0]))))
    assert np.array_equal(x.grad, [0.0, 1.0])
    assert not np.signbit(x.grad[0])
    s = T.Tensor(np.array(1.5), requires_grad=True)  # a 0-d leaf broadcast into a vector
    T.backward(T.sum_(s * T.constant(np.array([-0.0, -0.0]))))
    assert s.grad.shape == () and not np.signbit(s.grad)


@pytest.fixture
def unbroadcast_shapes(monkeypatch):
    """Shapes that a backward rule hands to _unbroadcast."""
    seen = []
    original = T._unbroadcast

    def spy(grad, shape):
        seen.append(shape)
        return original(grad, shape)

    monkeypatch.setattr(T, "_unbroadcast", spy)
    return seen


def test_elementwise_backward_skips_constant_operands(unbroadcast_shapes):
    rng = np.random.default_rng(26)
    a = rand(rng, 3, 4)
    c = T.constant(rng.standard_normal((1, 4)))
    for op in (T.add, T.sub, T.mul, T.div):
        unbroadcast_shapes.clear()
        a.grad = None
        T.backward(T.sum_(op(a, c)))
        assert unbroadcast_shapes == [(3, 4)], op.__name__
        T.backward(T.sum_(op(c, a)))
        assert unbroadcast_shapes == [(3, 4), (3, 4)], op.__name__
        assert c.grad is None


def test_diamond_graph_grad():
    rng = np.random.default_rng(19)
    x = rand(rng, 4)
    check(lambda: T.sum_((T.exp(x) + x * x) * (T.exp(x) - x)), [("x", x)])


def test_backward_deterministic():
    rng = np.random.default_rng(20)
    a = rand(rng, 8, 8)
    b = rand(rng, 8, 8)

    def run():
        a.grad = None
        b.grad = None
        loss = T.sum_(T.softmax(T.matmul(a, b), axis=1) * T.constant(np.ones((8, 8))))
        T.backward(loss)
        return a.grad.copy(), b.grad.copy()

    ga1, gb1 = run()
    ga2, gb2 = run()
    assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)


def test_numeric_gradient_matches_closed_form():
    x = T.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    num = numeric_gradient(lambda: T.sum_(x**2.0), x)
    assert np.allclose(num, [2.0, 4.0, 6.0], atol=1e-8)


def test_gradient_report_keeps_the_closer_of_two_finite_differences():
    def relative_error(a, b):
        return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)))

    # small slopes on a large value: a central difference at 1e-5 is mostly round-off there
    x = T.Tensor(np.array([0.3, -1.7, 2.2]), requires_grad=True)
    w = T.constant(np.array([3.6e-4, -2.0e-4, 5.0e-4]))
    offset = T.constant(300.0)
    assert relative_error(w.data, numeric_gradient(lambda: T.sum_(x * w) + offset, x)) > TOL
    check(lambda: T.sum_(x * w) + offset, [("x", x)])
    # a max 1e-4 from its kink: the 5-point stencil's wider step crosses it, the central one does not
    y = T.Tensor(np.array([1.0, 1.0 - 1e-4]), requires_grad=True)
    assert relative_error(np.array([1.0, 0.0]), five_point_gradient(lambda: T.max_(y, axis=0), y)) > 0.1
    check(lambda: T.max_(y, axis=0), [("y", y)])


# the op-gradient table --------------------------------------------------------


@pytest.mark.parametrize("case", OP_CASES, ids=[case.name for case in OP_CASES])
def test_op_case_gradients_match_finite_differences_at_seeds_0_to_7(case):
    for seed in range(8):
        report = gradient_report(*case.probe(np.random.default_rng(seed)))
        assert max(report.values()) <= TOL, f"seed {seed}: {report}"


def test_op_table_rows_name_exactly_the_public_ops_and_record_them():
    plumbing = {"coerce", "constant", "build_graph", "backward", "is_recording", "recording", "no_grad"}
    public = {name for name, fn in vars(T).items()
              if inspect.isfunction(fn) and fn.__module__ == T.__name__ and not name.startswith("_")}
    assert {case.op for case in OP_CASES} == public - plumbing
    for case in OP_CASES:
        loss, _ = case.probe(np.random.default_rng(0))
        assert case.op.rstrip("_") in {node.op for node in T.build_graph(loss()).nodes}, case.name


# no_grad ----------------------------------------------------------------------


def test_no_grad_outputs_have_no_parents_or_closure():
    w = T.Tensor(np.ones((3, 2)), requires_grad=True)
    x = T.Tensor(np.arange(6.0).reshape(2, 3))
    with T.no_grad():
        y = T.gelu(T.matmul(x, w)) + w[0]
    assert not y.requires_grad and y._parents == () and y._backward is None
    assert np.array_equal(y.data, (T.gelu(T.matmul(x, w)) + w[0]).data)


def test_no_grad_restores_recording_after_an_exception():
    w = T.Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ShapeError):
        with T.no_grad():
            with T.no_grad():
                pass
            T.add(w, np.ones(3))
    y = w * 2.0
    assert y.requires_grad and y._parents[0] is w
