import numpy as np
import pytest

from deskclip import tensor as T
from deskclip.encoders import (
    ConvConfig,
    ConvEncoder,
    DualEncoder,
    TextConfig,
    TextEncoder,
    VitConfig,
    VitEncoder,
)
from deskclip.errors import ConfigError, ContractError, ShapeError
from deskclip.losses import make_mlm_batch
from deskclip.nn import LayerNorm, Linear, Module, MultiHeadSelfAttention, TransformerBlock, trunc_normal


def rng():
    return np.random.default_rng(0)


def tiny_vit():
    return VitConfig(image_size=8, patch_size=4, width=12, depth=1, heads=2, embed_dim=8)


def tiny_text(**kw):
    base = dict(vocab_size=32, context_length=8, width=12, depth=1, heads=2, embed_dim=8)
    base.update(kw)
    return TextConfig(**base)


# module plumbing ------------------------------------------------------------


class Leafy(Module):
    def __init__(self):
        super().__init__()
        self.inner = Linear(3, 2, rng())
        self.scale = T.Tensor(np.ones(2), requires_grad=True)


def test_named_parameters_use_dotted_paths():
    m = Leafy()
    names = [n for n, _ in m.named_parameters()]
    assert "inner.weight" in names and "inner.bias" in names and "scale" in names


def test_parameter_count_matches_sizes():
    m = Leafy()
    assert m.parameter_count() == 3 * 2 + 2 + 2


def test_zero_grad_clears_everything():
    m = Leafy()
    out = T.sum_(m.inner(T.Tensor(np.ones((1, 3)))) * m.scale)
    T.backward(out)
    assert any(p.grad is not None for _, p in m.named_parameters())
    m.zero_grad()
    assert all(p.grad is None for _, p in m.named_parameters())


def test_trunc_normal_stays_inside_two_sigma():
    draws = trunc_normal(rng(), (4000,), std=0.02)
    assert np.abs(draws).max() <= 0.04 + 1e-12
    assert abs(draws.mean()) < 0.002


@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
def test_linear_records_one_matmul_node(bias):
    layer = Linear(3, 2, rng(), bias=bias)
    x = T.Tensor(np.arange(12.0).reshape(2, 2, 3), requires_grad=True)
    out = layer(x)
    params = (layer.weight, layer.bias) if bias else (layer.weight,)
    assert out.op == "matmul" and out._parents == (x,) + params
    assert [node.op for node in T.build_graph(out).nodes] == ["leaf"] * (1 + len(params)) + ["matmul"]
    want = x.data @ layer.weight.data + (layer.bias.data if bias else 0.0)
    assert np.array_equal(out.data, want)


@pytest.mark.parametrize("rows", [None, [2, 0]], ids=["every-row", "one-row"])
def test_transformer_block_folds_its_residual_sums_into_its_matmuls(rows):
    block = TransformerBlock(12, 2, rng())
    x = T.Tensor(rng().standard_normal((2, 4, 12)), requires_grad=True)
    rows = None if rows is None else np.array(rows)
    out = block.finish(x, block.fuse(x), rows=rows)
    assert "add" not in [node.op for node in T.build_graph(out).nodes]
    # x + attn(ln(x)), then h + mlp(ln(h)), to the bit
    picked = x.data if rows is None else x.data[np.arange(2), rows]
    h = picked + block.attn.out(T.attention(block.fuse(x), 2, rows=rows)).data
    assert np.array_equal(out.data, h + block.mlp(block.ln2(T.constant(h))).data)


def test_layernorm_standardizes_last_axis():
    ln = LayerNorm(6)
    out = ln(T.Tensor(rng().standard_normal((3, 6)) * 5 + 2)).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-9)
    assert np.allclose(out.var(axis=-1), 1.0, atol=1e-3)


def test_attention_respects_additive_bias():
    attn = MultiHeadSelfAttention(12, 2, rng())
    x = T.Tensor(rng().standard_normal((1, 4, 12)))
    bias = np.zeros((1, 1, 4, 4))
    bias[..., 3] = -1e9  # nobody may look at position 3
    masked = attn.out(T.attention(attn.qkv(x), attn.heads, bias)).data
    x2 = x.data.copy()
    x2[0, 3] = 99.0  # content of a fully masked key changes nothing upstream
    masked2 = attn.out(T.attention(attn.qkv(T.Tensor(x2)), attn.heads, bias)).data
    assert np.allclose(masked[:, :3], masked2[:, :3], atol=1e-12)


# image encoders -------------------------------------------------------------


def test_vit_embeddings_are_unit_norm():
    enc = VitEncoder(tiny_vit(), rng())
    out = enc(T.Tensor(rng().uniform(0, 1, (2, 3, 8, 8))))
    assert out.pooled.shape == (2, 8)
    assert np.allclose(np.linalg.norm(out.pooled.data, axis=1), 1.0, atol=1e-9)
    assert out.tokens.shape == (2, 4, 8)  # 2x2 patch grid, class token excluded
    norms = np.linalg.norm(out.tokens.data, axis=2)
    assert np.allclose(norms, 1.0, atol=1e-9)
    assert out.mask.all()


def test_vit_batch_rows_are_independent():
    enc = VitEncoder(tiny_vit(), rng())
    imgs = rng().uniform(0, 1, (3, 3, 8, 8))
    full = enc(T.Tensor(imgs)).pooled.data
    solo = enc(T.Tensor(imgs[1:2])).pooled.data
    assert np.allclose(full[1], solo[0], atol=1e-12)


def _unsplit_vit(enc, images):
    """(pooled, tokens) with every block, the last one too, run over all rows at once."""
    n = images.shape[0]
    x = enc.patch_proj(enc._patchify(images))
    x = T.concat([T.broadcast_to(enc.class_token, (n, 1, enc.cfg.width)), x], axis=1) + enc.pos_embedding
    for block in enc.blocks:
        x = block(x)
    x = enc.ln_final(x)
    return T.l2_normalize(enc.proj(x[:, 0])), T.l2_normalize(enc.proj(x[:, 1:]))


def _grads(module, loss):
    module.zero_grad()
    T.backward(loss)
    return {name: p.grad.copy() for name, p in module.named_parameters() if p.grad is not None}


@pytest.mark.parametrize("depth", [1, 2])
def test_vit_split_last_block_matches_the_unsplit_reference(depth):
    enc = VitEncoder(VitConfig(image_size=8, patch_size=4, width=12, depth=depth, heads=2, embed_dim=8), rng())
    images = T.Tensor(rng().uniform(0, 1, (3, 3, 8, 8)))
    weights = np.random.default_rng(5).standard_normal((2, 3, 5, 8))

    def loss(pooled, tokens):
        return T.sum_(pooled * T.constant(weights[0, :, 0])) + T.sum_(tokens * T.constant(weights[1, :, 1:]))

    out = enc(images)
    want_pooled, want_tokens = _unsplit_vit(enc, images)
    np.testing.assert_allclose(out.pooled.data, want_pooled.data, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out.tokens.data, want_tokens.data, rtol=0, atol=1e-12)
    got, want = _grads(enc, loss(out.pooled, out.tokens)), _grads(enc, loss(want_pooled, want_tokens))
    assert got.keys() == want.keys() and len(got) == len(enc.parameters())
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12, err_msg=name)


def test_vit_pooled_alone_records_no_patch_row_nodes(monkeypatch):
    cfg = tiny_vit()
    n, patches = 2, cfg.num_patches
    made = []
    original = T._make

    def spy(data, parents, op, backward_fn):
        made.append((op, data.shape))
        return original(data, parents, op, backward_fn)

    monkeypatch.setattr(T, "_make", spy)
    enc = VitEncoder(cfg, rng())
    out = enc(T.Tensor(rng().uniform(0, 1, (n, 3, 8, 8))))
    T.backward(T.sum_(out.pooled))
    # the patch embedding is the only node over the patch rows alone
    patch_rows = [op for op, shape in made if shape[:2] == (n, patches)]
    assert patch_rows == ["reshape", "matmul"]
    assert [shape for op, shape in made if op == "attention"] == [(n, cfg.width)]
    del made[:]
    assert out.tokens.shape == (n, patches, cfg.embed_dim)
    assert [shape for op, shape in made if op == "attention"] == [(n, patches + 1, cfg.width)]
    assert out.tokens is out.tokens and len([op for op, _ in made if op == "attention"]) == 1


def test_tokens_follow_the_recording_state_of_the_encoder_call():
    enc = VitEncoder(tiny_vit(), rng())
    images = T.Tensor(rng().uniform(0, 1, (2, 3, 8, 8)))
    with T.no_grad():
        untracked = enc(images)
    tracked = enc(images)
    with T.no_grad():
        tokens = tracked.tokens
    assert tokens.requires_grad and tokens._parents
    assert T.is_recording()
    tokens = untracked.tokens
    assert not tokens.requires_grad and tokens._parents == () and tokens._backward is None
    assert np.array_equal(tokens.data, tracked.tokens.data)


def test_vit_config_validation():
    with pytest.raises(ConfigError):
        VitConfig(image_size=30, patch_size=4, width=12, depth=1, heads=2, embed_dim=8)
    with pytest.raises(ConfigError):
        VitConfig(image_size=8, patch_size=4, width=13, depth=1, heads=2, embed_dim=8)
    # sizes are checked before they divide anything
    for field in ("image_size", "patch_size", "width", "depth", "heads", "embed_dim", "channels"):
        for bad in (0, -1):
            with pytest.raises(ConfigError, match=f"{field} must be positive"):
                VitConfig(**{field: bad})


@pytest.mark.parametrize("cls", [VitConfig, ConvConfig])
def test_image_configs_take_three_channels_only(cls):
    assert cls().channels == 3
    for channels in (1, 4):
        with pytest.raises(ConfigError, match=f"image.channels must be 3, got {channels}"):
            cls(channels=channels)


def test_conv_config_validation():
    for field in ("image_size", "channels", "kernel_size", "embed_dim"):
        for bad in (0, -1):
            with pytest.raises(ConfigError, match=f"{field} must be positive"):
                ConvConfig(**{field: bad})
    for stages in ((0, 16), (8, -16)):
        with pytest.raises(ConfigError, match="stage_channels must be positive"):
            ConvConfig(stage_channels=stages)


def test_conv_encoder_shapes_and_flag():
    cfg = ConvConfig(image_size=16, stage_channels=(4, 8), kernel_size=3, embed_dim=8)
    enc = ConvEncoder(cfg, rng())
    out = enc(T.Tensor(rng().uniform(0, 1, (2, 3, 16, 16))))
    assert out.pooled.shape == (2, 8)
    final_grid = cfg.image_size // 2 ** len(cfg.stage_channels)
    assert out.tokens.shape == (2, final_grid**2, 8)
    assert out.mask.shape == (2, final_grid**2) and out.mask.all()  # every cell is a real token


def test_conv_lazy_tokens_equal_eager_ones_bit_for_bit():
    enc = ConvEncoder(ConvConfig(image_size=16, stage_channels=(4, 8), kernel_size=3, embed_dim=8), rng())
    images = T.Tensor(rng().uniform(0, 1, (2, 3, 16, 16)))
    weights = np.random.default_rng(5).standard_normal((2, 2, 16, 8))

    def loss(pooled, tokens):
        return T.sum_(pooled * T.constant(weights[0, :, 0])) + T.sum_(tokens * T.constant(weights[1]))

    out = enc(images)
    x = T.transpose(images, (1, 0, 2, 3))  # the trunk runs channel-major
    for w in enc.filters:
        x = T.gelu(T.conv2d(x, w))  # then the 2x2 mean: the stage's ops unfused
        c, n, h, width = x.shape
        x = T.mean(T.reshape(x, (c, n, h // 2, 2, width // 2, 2)), axis=(3, 5))
    cells = T.transpose(T.reshape(x, (8, 2, 16)), (1, 2, 0))
    eager_tokens = T.l2_normalize(enc.proj(cells))
    eager_pooled = T.l2_normalize(enc.proj(T.mean(cells, axis=1)))
    assert np.array_equal(out.tokens.data, eager_tokens.data)
    assert np.array_equal(out.pooled.data, eager_pooled.data)
    got, want = _grads(enc, loss(out.pooled, out.tokens)), _grads(enc, loss(eager_pooled, eager_tokens))
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def test_conv_config_rejects_non_halvable_size():
    with pytest.raises(ConfigError):
        ConvConfig(image_size=10, stage_channels=(4, 8, 16), kernel_size=3, embed_dim=8)
    with pytest.raises(ConfigError):
        ConvConfig(image_size=16, stage_channels=(4,), kernel_size=4, embed_dim=8)


# text encoder ---------------------------------------------------------------


def test_text_pooling_reads_the_end_token():
    enc = TextEncoder(tiny_text(), rng())
    ids = np.array([[1, 6, 7, 2, 0, 0, 0, 0]])
    longer = np.array([[1, 6, 7, 2, 0, 0, 0, 0], [1, 9, 9, 9, 9, 9, 9, 2]])
    alone = enc(ids).pooled.data
    batched = enc(longer).pooled.data
    assert np.allclose(alone[0], batched[0], atol=1e-12)


def test_text_padding_content_is_invisible():
    enc = TextEncoder(tiny_text(), rng())
    a = np.array([[1, 5, 2, 0, 0, 0, 0, 0]])
    out_a = enc(a)
    # the token axis spans the batch's longest caption, not the context
    assert np.array_equal(out_a.mask[0], [True, True, True])
    assert np.allclose(np.linalg.norm(out_a.pooled.data, axis=1), 1.0, atol=1e-9)
    beside = enc(np.array([[1, 5, 2, 0, 0, 0, 0, 0], [1, 9, 9, 9, 9, 9, 9, 2]]))
    assert np.array_equal(beside.mask[0], [True, True, True, False, False, False, False, False])


SHORT = np.array([[1, 6, 7, 2, 0, 0, 0, 0]])
FULL = np.array([[1, 9, 8, 9, 8, 9, 8, 2]])
LONGER = np.array([[1, 9, 8, 9, 8, 2, 0, 0]])


def _row0_scalar_and_grads(enc, ids):
    """Pooled and real-token embeddings of row 0, and the gradients of a scalar built from them."""
    enc.zero_grad()
    out = enc(ids)
    real = int(out.mask[0].sum())
    weights = np.random.default_rng(7).standard_normal((1 + real, out.pooled.shape[1]))
    scalar = T.sum_(out.pooled[0] * T.constant(weights[0])) + T.sum_(out.tokens[0, :real] * T.constant(weights[1:]))
    T.backward(scalar)
    grads = {name: p.grad.copy() for name, p in enc.named_parameters() if p.grad is not None}
    return out.pooled.data[0], out.tokens.data[0, :real], grads


@pytest.mark.parametrize("neighbour", [LONGER, FULL], ids=["longer", "full-width"])
def test_text_caption_alone_equals_caption_beside_a_longer_one(neighbour):
    enc = TextEncoder(tiny_text(), rng())
    pooled_a, tokens_a, grads_a = _row0_scalar_and_grads(enc, SHORT)
    pooled_b, tokens_b, grads_b = _row0_scalar_and_grads(enc, np.concatenate([SHORT, neighbour]))
    assert np.allclose(pooled_a, pooled_b, rtol=0, atol=1e-12)
    assert np.allclose(tokens_a, tokens_b, rtol=0, atol=1e-12)
    assert grads_a.keys() == grads_b.keys() and "pos_embedding" in grads_a
    for name in grads_a:
        assert np.allclose(grads_a[name], grads_b[name], rtol=0, atol=1e-12), name


def test_text_pos_embedding_beyond_the_trimmed_width_gets_zero_gradient():
    enc = TextEncoder(tiny_text(), rng())
    out = enc(np.concatenate([SHORT, LONGER]))
    assert out.tokens.shape[1] == 6 and out.mask.shape == (2, 6)
    T.backward(T.sum_(out.pooled * T.constant(np.ones(out.pooled.shape))) + T.sum_(out.tokens))
    grad = enc.pos_embedding.grad
    assert grad.shape == (1, 8, 12)
    assert np.all(grad[:, 6:] == 0.0)
    assert np.all(np.abs(grad[:, :6]).max(axis=-1) > 0)


def test_text_full_width_batch_builds_no_slice():
    enc = TextEncoder(tiny_text(), rng())
    full = enc(np.concatenate([SHORT, FULL]))
    assert full.tokens.shape[1] == enc.cfg.context_length
    trimmed = enc(SHORT)
    assert trimmed.tokens.shape[1] == 4
    assert enc.forward_hidden(SHORT).shape == (1, 4, 12)


def test_text_lazy_tokens_equal_eager_ones_bit_for_bit():
    enc = TextEncoder(tiny_text(), rng())
    ids = np.concatenate([SHORT, LONGER])
    weights = T.constant(np.random.default_rng(5).standard_normal((2, 6, 8)))
    out = enc(ids)
    hidden = enc.forward_hidden(ids)
    eager_tokens = T.l2_normalize(enc.proj(hidden))  # padding rows included; the mask hides them
    assert np.array_equal(out.tokens.data, eager_tokens.data)
    got, want = _grads(enc, T.sum_(out.tokens * weights)), _grads(enc, T.sum_(eager_tokens * weights))
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_text_pooled_tower_matches_the_unsplit_reference(depth):
    enc = TextEncoder(tiny_text(depth=depth), rng())
    ids = np.concatenate([SHORT, LONGER, FULL])
    weights = np.random.default_rng(5).standard_normal((2, 3, 8, 8))

    def loss(pooled, tokens):
        return T.sum_(pooled * T.constant(weights[0, :, 0])) + T.sum_(tokens * T.constant(weights[1]))

    out = enc(ids)
    # every block, the last one too, over all rows; then the end-of-text rows
    hidden = enc.forward_hidden(ids)
    want_pooled = T.l2_normalize(enc.proj(T.select_positions(hidden, [3, 5, 7])))
    want_tokens = T.l2_normalize(enc.proj(hidden))
    np.testing.assert_allclose(out.pooled.data, want_pooled.data, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out.tokens.data, want_tokens.data, rtol=0, atol=1e-12)
    got, want = _grads(enc, loss(out.pooled, out.tokens)), _grads(enc, loss(want_pooled, want_tokens))
    # every parameter but the masked-token head
    assert got.keys() == want.keys() and len(got) == len(enc.parameters()) - 2
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12, err_msg=name)


def test_text_pooled_alone_records_no_all_row_nodes_in_the_last_block(monkeypatch):
    cfg = tiny_text(depth=2)
    made = []
    original = T._make

    def spy(data, parents, op, backward_fn):
        made.append((op, data.shape))
        return original(data, parents, op, backward_fn)

    monkeypatch.setattr(T, "_make", spy)
    enc = TextEncoder(cfg, rng())
    ids = np.concatenate([SHORT, LONGER])
    n, L, w = 2, 6, cfg.width
    out = enc(ids)
    T.backward(T.sum_(out.pooled))
    # block 0 runs over all rows; past its fused qkv the last block runs the end-of-text rows alone
    assert [shape for op, shape in made if op == "attention"] == [(n, L, w), (n, w)]
    assert [shape for op, shape in made if op == "mlp"] == [(n, L, w), (n, w)]
    del made[:]
    assert out.tokens.shape == (n, L, cfg.embed_dim)
    assert [shape for op, shape in made if op == "attention"] == [(n, L, w)]
    assert [shape for op, shape in made if op == "mlp"] == [(n, L, w)]
    assert out.tokens is out.tokens and len([op for op, _ in made if op == "attention"]) == 1


def test_text_rejects_ids_of_the_wrong_width():
    enc = TextEncoder(tiny_text(), rng())
    for ids in (SHORT[:, :6], np.concatenate([SHORT, [[0]]], axis=1), SHORT[0]):
        with pytest.raises(ShapeError):
            enc(ids)
        with pytest.raises(ShapeError):
            enc.forward_hidden(ids)


def test_text_rejects_bad_ids():
    enc = TextEncoder(tiny_text(), rng())
    with pytest.raises(ContractError):
        enc(np.array([[1, 5, 5, 5, 5, 5, 5, 5]]))  # no end token
    with pytest.raises(IndexError):
        enc(np.array([[1, 99, 2, 0, 0, 0, 0, 0]]))  # id out of range, as for every other index


@pytest.mark.parametrize("ids", [np.array([[1, 6.7, 7, 2, 0, 0, 0, 0]]), [[1, 6, 7, 2, 0, 0, 0, 0.0]],
                                 np.array([[True, False, False, False, False, False, False, False]])],
                         ids=["float-array", "float-list", "bool"])
def test_text_takes_integer_ids_only(ids):
    enc = TextEncoder(tiny_text(), rng())
    for read in (enc, enc.forward_hidden, lambda ids: make_mlm_batch(ids, 32, rng())):
        with pytest.raises(ShapeError, match="integer array"):
            read(ids)  # id 6.7 would read id 6


def test_mlm_logits_take_integer_positions_only():
    enc = TextEncoder(tiny_text(), rng())
    hidden = enc.forward_hidden(np.array([[1, 6, 7, 2, 0, 0, 0, 0]]))
    for positions in (np.array([[0, 1.9]]), [[0.0, 1.0]], np.array([[False, True]])):
        with pytest.raises(ShapeError, match="integer array"):
            enc.mlm_logits(hidden, positions)  # position 1.9 would read column 1
    with pytest.raises(IndexError):
        enc.mlm_logits(hidden, np.array([[1, 0]]))  # past the one row


def test_text_config_validation():
    with pytest.raises(ConfigError):
        tiny_text(context_length=80)  # beyond the hard ceiling
    with pytest.raises(ConfigError):
        tiny_text(vocab_size=4)  # leaves no room for real tokens
    for field in ("width", "heads", "embed_dim"):
        for bad in (0, -1):
            with pytest.raises(ConfigError, match=f"{field} must be positive"):
                tiny_text(**{field: bad})
    with pytest.raises(ConfigError, match="depth must be >= 0"):
        tiny_text(depth=-3)
    # no transformer blocks at all is the far end of the text-depth axis, and it runs
    enc = TextEncoder(tiny_text(depth=0), rng())
    assert len(enc.blocks) == 0
    assert enc(np.array([[1, 6, 7, 2, 0, 0, 0, 0]])).pooled.shape == (1, 8)


def test_mlm_logits_shape_and_grad():
    enc = TextEncoder(tiny_text(), rng())
    ids = np.array([[1, 6, 7, 2, 0, 0, 0, 0]])
    hidden = enc.forward_hidden(ids)
    positions = np.array([[0, 1], [0, 2]])
    logits = enc.mlm_logits(hidden, positions)
    assert logits.shape == (2, 32)
    T.backward(T.mean(logits))
    assert enc.token_embedding.grad is not None
    with pytest.raises(IndexError):
        enc.mlm_logits(hidden, np.array([[0, 4]]))  # past the trimmed width


def test_mlm_logits_read_positions_as_the_flat_row_gather_did_to_the_bit():
    enc = TextEncoder(tiny_text(), rng())
    data = enc.forward_hidden(np.array([[1, 6, 7, 2, 0, 0, 0, 0], [1, 9, 8, 7, 6, 2, 0, 0]])).data
    positions = np.array([[1, 3], [0, 2], [1, 1], [0, 1]])
    n, L, w = data.shape
    r = np.random.default_rng(3)
    weights = T.constant(r.standard_normal((4, 32))), T.constant(r.standard_normal(data.shape))
    runs = []
    for route in ("slice", "reshape + embedding_lookup"):
        hidden = T.Tensor(data, requires_grad=True)
        if route == "slice":
            out = enc.mlm_logits(hidden, positions)
            readers = [node.op for node in T.build_graph(out).nodes if any(p is hidden for p in node._parents)]
            assert readers == ["slice"]
        else:
            flat = T.reshape(hidden, (n * L, w))
            out = enc.mlm_head(T.embedding_lookup(flat, positions[:, 0] * L + positions[:, 1]))
        # a second reader, so hidden's gradient sums two contributions
        T.backward(T.sum_(out * weights[0]) + T.sum_(hidden * weights[1]))
        runs.append((out.data.tobytes(), hidden.grad.tobytes()))
    assert runs[0] == runs[1]


def test_mlm_logits_give_a_repeated_position_every_picks_gradient():
    enc = TextEncoder(tiny_text(), rng())
    hidden = T.Tensor(enc.forward_hidden(np.array([[1, 6, 7, 2, 0, 0, 0, 0]])).data, requires_grad=True)
    w = np.random.default_rng(5).standard_normal((3, 32))
    T.backward(T.sum_(enc.mlm_logits(hidden, np.array([[0, 1], [0, 2], [0, 1]])) * T.constant(w)))
    # logits = h @ W + b, so a pick's gradient at its position is its weight row @ W.T
    want = np.zeros_like(hidden.data)
    want[0, 1] = (w[0] + w[2]) @ enc.mlm_head.weight.data.T
    want[0, 2] = w[1] @ enc.mlm_head.weight.data.T
    assert np.allclose(hidden.grad, want, rtol=1e-12, atol=1e-12)


# the dual wrapper ------------------------------------------------------------


def make_dual():
    r = rng()
    return DualEncoder(VitEncoder(tiny_vit(), r), TextEncoder(tiny_text(), r))


def test_temperature_initial_value():
    model = make_dual()
    assert abs(model.temperature().item() - 0.07) < 1e-12


def test_temperature_clamp_bounds():
    model = make_dual()
    model.log_temperature.data[...] = np.log(1e-6)
    model.clamp_temperature()
    assert abs(model.temperature().item() - 0.005) < 1e-12
    model.log_temperature.data[...] = np.log(1e6)
    model.clamp_temperature()
    assert abs(model.temperature().item() - 100.0) < 1e-12


def test_dual_registers_all_submodule_parameters():
    model = make_dual()
    names = {n for n, _ in model.named_parameters()}
    assert "log_temperature" in names
    assert any(n.startswith("image.") for n in names)
    assert any(n.startswith("text.") for n in names)
