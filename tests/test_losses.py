import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskclip import losses, tensor as T
from deskclip.encoders import ConvConfig, ConvEncoder, EmbeddingSet, TextEncoder
from deskclip.errors import ConfigError, ContractError, ShapeError
from deskclip.losses import (
    LossConfig,
    NNQueue,
    _reduce_token_masks,
    clip_loss,
    combine_terms,
    info_nce,
    make_mlm_batch,
    masked_token_loss,
    multiview_loss,
    neighbor_supervision_loss,
    nt_xent_loss,
    paired_nce,
    tokenwise_alignment_loss,
)
from deskclip.tensor import Tensor
from deskclip.verify import loop_alignment, loop_info_nce, loop_nt_xent, loop_token_masks


def unit(rng, *shape):
    x = rng.standard_normal(shape)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def embset(pooled, tokens, mask=None):
    tokens = np.asarray(tokens)
    if mask is None:
        mask = np.ones(tokens.shape[:2], dtype=bool)
    return EmbeddingSet(Tensor(pooled), Tensor(tokens), mask)


# analytic fixtures -----------------------------------------------------------


def test_info_nce_single_pair_is_zero():
    e = Tensor(np.array([[0.6, 0.8]]))
    assert abs(info_nce(e, e, 0.07).item()) < 1e-15


def test_info_nce_identical_rows_is_log_n():
    rng = np.random.default_rng(0)
    row = unit(rng, 6)
    for n in (2, 5, 17):
        batch = Tensor(np.tile(row, (n, 1)))
        assert abs(info_nce(batch, batch, 0.3).item() - math.log(n)) < 1e-9


def test_info_nce_orthonormal_two():
    eye = Tensor(np.eye(2))
    expected = math.log(1.0 + math.exp(-1.0))
    assert abs(info_nce(eye, eye, 1.0).item() - expected) < 1e-9


def test_info_nce_huge_temperature_flattens_to_log_n():
    rng = np.random.default_rng(1)
    left, right = Tensor(unit(rng, 6, 8)), Tensor(unit(rng, 6, 8))
    assert abs(info_nce(left, right, 1e6).item() - math.log(6)) < 1e-6


def test_info_nce_rejects_bad_inputs():
    rng = np.random.default_rng(2)
    ok = Tensor(unit(rng, 3, 4))
    with pytest.raises(ContractError):
        info_nce(ok, ok, 0.0)
    with pytest.raises(ContractError):
        info_nce(ok, ok, -1.0)
    with pytest.raises(ContractError):
        info_nce(Tensor(np.full((3, 4), 2.0)), ok, 1.0)
    with pytest.raises(ShapeError):
        info_nce(ok, Tensor(unit(rng, 4, 4)), 1.0)


def test_info_nce_gradient_reaches_live_temperature():
    rng = np.random.default_rng(3)
    log_t = Tensor(np.array(math.log(0.07)), requires_grad=True)
    loss = info_nce(Tensor(unit(rng, 4, 8)), Tensor(unit(rng, 4, 8)), T.exp(log_t))
    T.backward(loss)
    assert log_t.grad is not None and abs(float(log_t.grad)) > 0


def test_nt_xent_single_pair_is_zero():
    rng = np.random.default_rng(4)
    a, b = Tensor(unit(rng, 1, 8)), Tensor(unit(rng, 1, 8))
    assert abs(nt_xent_loss(a, b, 0.1).item()) < 1e-12


def test_nt_xent_identical_views_log3():
    row = unit(np.random.default_rng(5), 8)
    batch = Tensor(np.tile(row, (2, 1)))
    # 2N = 4 identical embeddings: 3 equal candidates per row
    assert abs(nt_xent_loss(batch, batch, 0.1).item() - math.log(3)) < 1e-9


# brute-force oracles ---------------------------------------------------------


def test_info_nce_matches_loop_oracle():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        n, d = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        temp = float(rng.uniform(0.05, 3.0))
        left, right = unit(rng, n, d), unit(rng, n, d)
        got = info_nce(Tensor(left), Tensor(right), temp).item()
        worst = max(worst, abs(got - loop_info_nce(left, right, temp)))
    assert worst <= 1e-10


def test_nt_xent_matches_loop_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        n, d = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        temp = float(rng.uniform(0.05, 3.0))
        a, b = unit(rng, n, d), unit(rng, n, d)
        got = nt_xent_loss(Tensor(a), Tensor(b), temp).item()
        worst = max(worst, abs(got - loop_nt_xent(a, b, temp)))
    assert worst <= 1e-10


def test_alignment_loss_matches_loop_oracle():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        n1, n2, d = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(2, 6))
        temp = float(rng.uniform(0.05, 2.0))
        img_tokens = unit(rng, n, n1, d)
        txt_tokens = unit(rng, n, n2, d)
        img_mask = np.ones((n, n1), dtype=bool)
        txt_mask = np.ones((n, n2), dtype=bool)
        for row in txt_mask:
            if len(row) > 1 and rng.random() < 0.5:
                row[rng.integers(0, len(row))] = False
        img = embset(unit(rng, n, d), img_tokens, img_mask)
        txt = embset(unit(rng, n, d), txt_tokens, txt_mask)
        got = tokenwise_alignment_loss(img, txt, temp).item()
        want = loop_alignment(img_tokens, img_mask, txt_tokens, txt_mask, temp)
        worst = max(worst, abs(got - want))
    assert worst <= 1e-10



def _token_sized_elementwise_nodes(loss):
    return sum(node.op in ("add", "mul", "div") and node.ndim >= 3 for node in T.build_graph(loss).nodes)


def test_alignment_loss_records_no_token_sized_elementwise_node():
    # masked tokens are kept out by the kept sets of max_ and mean, never by an added
    # penalty, a multiplied keep array or a divided count
    rng = np.random.default_rng(17)
    img_tokens, txt_tokens = unit(rng, 3, 4, 6), unit(rng, 3, 5, 6)
    txt_mask = np.ones((3, 5), dtype=bool)
    txt_mask[1, 3:] = False
    full = np.ones((3, 4), dtype=bool)
    img = EmbeddingSet(Tensor(unit(rng, 3, 6)), Tensor(img_tokens, requires_grad=True), full)
    txt = embset(unit(rng, 3, 6), txt_tokens, txt_mask)
    loss = tokenwise_alignment_loss(img, txt, 0.4)
    assert _token_sized_elementwise_nodes(loss) == 0
    assert abs(loss.item() - loop_alignment(img_tokens, full, txt_tokens, txt_mask, 0.4)) <= 1e-10
    # every caption as wide as the longest one
    full_txt = np.ones((3, 5), dtype=bool)
    loss = tokenwise_alignment_loss(img, embset(txt.pooled.data, txt_tokens), 0.4)
    assert _token_sized_elementwise_nodes(loss) == 0
    assert abs(loss.item() - loop_alignment(img_tokens, full, txt_tokens, full_txt, 0.4)) <= 1e-10
    img_mask = full.copy()
    img_mask[2, 1] = False
    img = EmbeddingSet(img.pooled, img.tokens, img_mask)
    loss = tokenwise_alignment_loss(img, txt, 0.4)
    assert _token_sized_elementwise_nodes(loss) == 0
    assert abs(loss.item() - loop_alignment(img_tokens, img_mask, txt_tokens, txt_mask, 0.4)) <= 1e-10


# token-level fixtures ---------------------------------------------------------


def test_single_token_alignment_equals_clip():
    rng = np.random.default_rng(14)
    pooled_i, pooled_t = unit(rng, 4, 8), unit(rng, 4, 8)
    img = embset(pooled_i, pooled_i[:, None, :])
    txt = embset(pooled_t, pooled_t[:, None, :])
    aligned = combine_terms(
        {"token_align": tokenwise_alignment_loss(img, txt, 0.2)},
        LossConfig(variant="filip").term_weights(),
    ).total.item()
    paired = clip_loss(img, txt, 0.2).total.item()
    assert abs(aligned - paired) <= 1e-12


def test_alignment_loss_itself_does_not_warn_on_conv_tokens():
    # the overlapping-receptive-field warning belongs to the step function, which knows the trunk
    enc = ConvEncoder(ConvConfig(image_size=8, stage_channels=(2,), embed_dim=4), np.random.default_rng(15))
    img = enc(Tensor(np.random.default_rng(16).uniform(0, 1, (2, 3, 8, 8))))
    txt = embset(img.pooled.data, img.pooled.data[:, None, :])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(tokenwise_alignment_loss(img, txt, 0.5, token_fraction=0.5).item())


@pytest.mark.parametrize("fraction", [0.0, -0.25, 1.5, float("nan")])
def test_alignment_loss_rejects_a_token_fraction_outside_the_unit_interval(fraction):
    rng = np.random.default_rng(15)
    img = embset(unit(rng, 2, 4), unit(rng, 2, 3, 4))
    with pytest.raises(ContractError, match="token_fraction"):
        tokenwise_alignment_loss(img, img, 0.5, token_fraction=fraction)


def _one_sample_masks(img_scores, fraction, img_mask=None):
    """(img, txt) masks kept for one image whose tokens score ``img_scores`` against a one-token text."""
    sims4 = np.asarray(img_scores, dtype=np.float64)[None, :, None, None]
    img_mask = np.ones(sims4.shape[:2], dtype=bool) if img_mask is None else np.asarray(img_mask)
    return _reduce_token_masks(sims4, img_mask, np.ones((1, 1), dtype=bool), fraction)


def test_token_selection_quarter_of_four_keeps_one():
    kept, txt = _one_sample_masks([0.1, 0.9, 0.3, 0.2], 0.25)
    assert kept.tolist() == [[False, True, False, False]]
    assert txt.tolist() == [[True]]  # a lone token always survives
    kept, _ = _one_sample_masks([0.1, 0.9, 0.3, 0.2], 0.01)
    assert kept.sum() == 1


def test_token_selection_tie_prefers_lower_index():
    kept, _ = _one_sample_masks([0.5, 0.5, 0.5], 0.3)
    assert kept.tolist() == [[True, False, False]]
    kept, _ = _one_sample_masks([0.2, 0.5, 0.5, 0.5], 0.5)
    assert kept.tolist() == [[False, True, True, False]]


def test_token_selection_keeps_the_best_scores_wherever_they_are_and_never_a_masked_slot():
    kept, _ = _one_sample_masks([5.0, 1.0, 4.0, 3.0, 2.0], 0.6)
    assert np.flatnonzero(kept[0]).tolist() == [0, 2, 3]
    # a masked slot is never kept, however well it scores, and the quota counts real slots only
    kept, _ = _one_sample_masks([9.0, 1.0, 4.0, 3.0, 2.0], 0.5, [[False, True, True, True, True]])
    assert np.flatnonzero(kept[0]).tolist() == [2, 3]


def test_token_selection_equals_the_per_sample_loop():
    rng = np.random.default_rng(18)
    for _ in range(300):
        n, n1, n2 = (int(v) for v in rng.integers(1, 6, size=3))
        # a coarse grid of scores makes ties common
        sims4 = rng.integers(-3, 4, size=(n, n1, n, n2)) / 4.0
        img_mask = np.arange(n1) < rng.integers(1, n1 + 1, size=(n, 1))
        txt_mask = np.arange(n2) < rng.integers(1, n2 + 1, size=(n, 1))
        fraction = float(rng.choice([0.01, 0.2, 1 / 3, 0.5, 0.75, 1.0]))
        got = _reduce_token_masks(sims4, img_mask, txt_mask, fraction)
        want = loop_token_masks(sims4, img_mask, txt_mask, fraction)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[0].any(axis=1).all() and got[1].any(axis=1).all()


def test_alignment_loss_fraction_keeps_graph_consistent():
    rng = np.random.default_rng(16)
    img = embset(unit(rng, 3, 6), unit(rng, 3, 4, 6))
    txt = embset(unit(rng, 3, 6), unit(rng, 3, 4, 6))
    full = tokenwise_alignment_loss(img, txt, 0.3, token_fraction=1.0).item()
    part = tokenwise_alignment_loss(img, txt, 0.3, token_fraction=0.5).item()
    assert np.isfinite(part) and part != full  # reduced token set changes the value


# masked-token supervision ------------------------------------------------------


def test_mlm_positions_only_hit_ordinary_tokens():
    rng = np.random.default_rng(17)
    ids = np.array([[1, 6, 7, 8, 2, 0, 0, 0], [1, 9, 2, 0, 0, 0, 0, 0]])
    batch = make_mlm_batch(ids, 32, rng)
    assert batch.positions.shape[0] >= 2  # at least one per maskable row
    for row, col in batch.positions:
        assert ids[row, col] >= 5
    assert np.array_equal(batch.targets, ids[batch.positions[:, 0], batch.positions[:, 1]])


def test_mlm_batch_checks_its_ids_against_the_vocabulary():
    ids = np.array([[1, 6, 7, 2], [1, 31, 2, 0]])
    assert make_mlm_batch(ids, 32, np.random.default_rng(0)).positions.shape[0] >= 2
    for bad, vocab_size in ((ids, 31), (-ids, 32)):
        with pytest.raises(IndexError, match="make_mlm_batch"):
            make_mlm_batch(bad, vocab_size, np.random.default_rng(0))


def test_mlm_untouched_positions_are_preserved():
    rng = np.random.default_rng(18)
    ids = np.array([[1, 6, 7, 8, 9, 10, 2, 0]])
    batch = make_mlm_batch(ids, 32, rng)
    touched = {(r, c) for r, c in batch.positions.tolist()}
    for col in range(8):
        if (0, col) not in touched:
            assert batch.ids[0, col] == ids[0, col]


def test_mlm_corruption_statistics():
    rng = np.random.default_rng(19)
    ids = np.tile(np.array([[1] + list(range(5, 35)) + [2]]), (400, 1))
    batch = make_mlm_batch(ids, 512, rng)
    originals = ids[batch.positions[:, 0], batch.positions[:, 1]]
    corrupted = batch.ids[batch.positions[:, 0], batch.positions[:, 1]]
    total = len(originals)
    frac_mask = np.mean(corrupted == 3)
    frac_keep = np.mean(corrupted == originals)
    assert total / ids[:, 1:-1].size == pytest.approx(0.15, abs=0.02)
    assert frac_mask == pytest.approx(0.80, abs=0.04)
    assert frac_keep == pytest.approx(0.10, abs=0.03)
    random_ids = corrupted[(corrupted != 3) & (corrupted != originals)]
    assert random_ids.min() >= 5 and random_ids.max() < 512


def test_mlm_forced_position_under_tiny_rate(monkeypatch):
    monkeypatch.setattr(losses, "MLM_RATE", 1e-9)
    rng = np.random.default_rng(20)
    ids = np.array([[1, 6, 2, 0], [1, 7, 2, 0]])
    batch = make_mlm_batch(ids, 32, rng)
    rows = set(batch.positions[:, 0].tolist())
    assert rows == {0, 1}


def test_mlm_skips_rows_without_ordinary_tokens():
    rng = np.random.default_rng(21)
    ids = np.array([[1, 2, 0, 0], [1, 6, 2, 0]])
    batch = make_mlm_batch(ids, 32, rng)
    assert batch.skipped == 1
    assert set(batch.positions[:, 0].tolist()) == {1}


def test_masked_token_loss_uniform_head_is_log_vocab(tiny_text_encoder):
    enc = tiny_text_encoder
    enc.mlm_head.weight.data[...] = 0.0
    enc.mlm_head.bias.data[...] = 0.0
    rng = np.random.default_rng(22)
    ids = np.array([[1, 6, 7, 2, 0, 0, 0, 0]])
    loss, skipped = masked_token_loss(enc, make_mlm_batch(ids, 32, rng))
    assert skipped == 0
    assert abs(loss.item() - math.log(32)) < 1e-12


def test_masked_token_loss_empty_batch_counts_skip(tiny_text_encoder):
    rng = np.random.default_rng(23)
    ids = np.array([[1, 2, 0, 0, 0, 0, 0, 0]])
    loss, skipped = masked_token_loss(tiny_text_encoder, make_mlm_batch(ids, 32, rng))
    assert loss.item() == 0.0
    assert skipped == 2  # one unmaskable row, plus the empty-batch skip


TRIM_IDS = np.array([[1, 6, 7, 2, 0, 0, 0, 0], [1, 8, 9, 10, 11, 2, 0, 0], [1, 12, 2, 0, 0, 0, 0, 0]])


def _assert_trim_changes_nothing(monkeypatch, enc, term):
    """``term(enc)`` and its text gradients agree within 1e-12 with the trunk trimmed and at full width."""
    results = []
    for trim in (True, False):
        if not trim:
            monkeypatch.setattr(TextEncoder, "_trimmed_ids", TextEncoder._validate_ids)
        enc.zero_grad()
        loss = term(enc)
        T.backward(loss)
        results.append((loss.item(), {n: p.grad.copy() for n, p in enc.named_parameters() if p.grad is not None}))
    (trimmed, g1), (full, g2) = results
    assert abs(trimmed - full) <= 1e-12
    assert g1.keys() == g2.keys()
    for name in g1:
        assert np.allclose(g1[name], g2[name], rtol=0, atol=1e-12), name


def test_masked_token_loss_is_the_same_on_trimmed_hidden_states(monkeypatch, tiny_text_encoder):
    batch = make_mlm_batch(TRIM_IDS, 32, np.random.default_rng(4))
    widths = []

    def term(enc):
        widths.append(enc.forward_hidden(batch.ids).shape[1])
        return masked_token_loss(enc, batch)[0]

    _assert_trim_changes_nothing(monkeypatch, tiny_text_encoder, term)
    assert widths == [6, 8]


def test_alignment_loss_is_the_same_on_trimmed_text_tokens(monkeypatch, tiny_text_encoder):
    rng = np.random.default_rng(9)
    img = embset(unit(rng, 3, 8), unit(rng, 3, 4, 8))
    widths = []

    def term(enc):
        txt = enc(TRIM_IDS)
        widths.append(txt.tokens.shape[1])
        return tokenwise_alignment_loss(img, txt, 0.1)

    _assert_trim_changes_nothing(monkeypatch, tiny_text_encoder, term)
    assert widths == [6, 8]


# multi-view and neighbor terms ---------------------------------------------------


def test_multiview_identity_views_equal_clip():
    rng = np.random.default_rng(24)
    img, txt = unit(rng, 4, 8), unit(rng, 4, 8)
    mvs = multiview_loss(Tensor(img), Tensor(img), Tensor(txt), Tensor(txt), 0.1).item()
    pair = paired_nce(Tensor(img), Tensor(txt), 0.1).item()
    assert abs(mvs - pair) <= 1e-12


def test_multiview_is_mean_of_three_pairings():
    rng = np.random.default_rng(25)
    img, img2, txt, txt2 = (unit(rng, 3, 6) for _ in range(4))
    got = multiview_loss(Tensor(img), Tensor(img2), Tensor(txt), Tensor(txt2), 0.2).item()
    want = np.mean([
        paired_nce(Tensor(img2), Tensor(txt), 0.2).item(),
        paired_nce(Tensor(img), Tensor(txt2), 0.2).item(),
        paired_nce(Tensor(img2), Tensor(txt2), 0.2).item(),
    ])
    assert abs(got - want) <= 1e-12


def test_neighbor_cold_queue_returns_zero_and_enqueues():
    rng = np.random.default_rng(26)
    queue = NNQueue(8)
    img, txt = Tensor(unit(rng, 3, 4)), Tensor(unit(rng, 3, 4))
    loss, skipped = neighbor_supervision_loss(img, txt, queue, 0.1)
    assert loss.item() == 0.0 and skipped == 1
    assert queue.fill == 3


def test_neighbor_with_exact_copies_equals_clip():
    rng = np.random.default_rng(27)
    img, txt = unit(rng, 4, 8), unit(rng, 4, 8)
    queue = NNQueue(16)
    queue.enqueue(txt)
    loss, skipped = neighbor_supervision_loss(Tensor(img), Tensor(txt), queue, 0.1)
    assert skipped == 0
    assert abs(loss.item() - paired_nce(Tensor(img), Tensor(txt), 0.1).item()) <= 1e-12


def test_neighbor_gradient_only_reaches_images():
    rng = np.random.default_rng(28)
    img = Tensor(unit(rng, 3, 4), requires_grad=True)
    txt = Tensor(unit(rng, 3, 4), requires_grad=True)
    queue = NNQueue(8)
    queue.enqueue(unit(rng, 5, 4))
    loss, _ = neighbor_supervision_loss(img, txt, queue, 0.1)
    T.backward(loss)
    assert img.grad is not None
    assert txt.grad is None  # retrieved neighbors are history, not live nodes


def test_queue_wraparound_overwrites_oldest():
    queue = NNQueue(3)
    for i in range(5):
        v = np.zeros((1, 4))
        v[0, 0] = float(i)
        queue.enqueue(v)
    firsts = sorted(queue.buffer[:, 0].tolist())
    assert firsts == [2.0, 3.0, 4.0]
    assert queue.fill == 3


def test_queue_nearest_prefers_lowest_slot_on_ties():
    queue = NNQueue(4)
    same = np.tile(np.array([[1.0, 0.0]]), (3, 1))
    queue.enqueue(same)
    out = queue.nearest(np.array([[1.0, 0.0]]))
    assert np.array_equal(out, same[:1])


def test_queue_state_roundtrip():
    queue = NNQueue(4)
    queue.enqueue(np.arange(8.0).reshape(2, 4))
    buf, fill, head = queue.state()
    other = NNQueue(4)
    other.load_state(buf, fill, head)
    assert np.array_equal(other.nearest(np.eye(4)[:1]), queue.nearest(np.eye(4)[:1]))


@pytest.mark.parametrize("buffer, fill, head", [
    (np.zeros((5, 2)), 0, 0),  # another capacity
    (np.zeros(4), 0, 0),       # not (capacity, dim)
    (np.zeros((4, 2)), 5, 0),
    (np.zeros((4, 2)), 1, 4),
    (np.zeros((4, 0)), 1, 1),  # a fill with no vectors
], ids=["capacity", "rank", "fill", "head", "no-vectors"])
def test_queue_load_state_rejects_a_state_that_does_not_fit(buffer, fill, head):
    queue = NNQueue(4)
    queue.enqueue(np.ones((3, 2)))
    with pytest.raises(ConfigError, match="capacity 4"):
        queue.load_state(buffer, fill, head)
    assert (queue.fill, queue.head) == (3, 3) and np.array_equal(queue.buffer[:3], np.ones((3, 2)))


def test_queue_input_validation():
    queue = NNQueue(4)
    with pytest.raises(ContractError):
        queue.nearest(np.ones((1, 4)))
    queue.enqueue(np.ones((1, 4)))
    with pytest.raises(ShapeError):
        queue.enqueue(np.ones((1, 3)))
    with pytest.raises(ConfigError):
        NNQueue(0)


# composition --------------------------------------------------------------------


def rand_terms(rng):
    return {
        name: Tensor(np.array(float(rng.uniform(0.1, 3.0))))
        for name in ("clip", "image_ssl", "text_mlm", "multiview", "neighbor", "token_align")
    }


def compose(terms, **cfg):
    return combine_terms(terms, LossConfig(**cfg).term_weights())


def test_declip_default_weights():
    rng = np.random.default_rng(30)
    t = rand_terms(rng)
    got = compose(t, variant="declip")
    want = (
        0.4 * t["clip"].item()
        + 0.2 * (t["image_ssl"].item() + t["text_mlm"].item())
        + 0.2 * t["multiview"].item()
        + 0.2 * t["neighbor"].item()
    )
    assert abs(got.total.item() - want) <= 1e-12
    assert abs(got.total.item() - got.recompute_total()) <= 1e-12


def test_defilip_minus_declip_is_weighted_token_term():
    rng = np.random.default_rng(31)
    t = rand_terms(rng)
    full = compose(t, variant="defilip", token_align_weight=0.2)
    base = compose(t, variant="declip")
    diff = full.total.item() - base.total.item()
    assert abs(diff - 0.2 * t["token_align"].item()) <= 1e-12


def test_zero_auxiliary_weights_collapse_to_clip():
    rng = np.random.default_rng(32)
    t = rand_terms(rng)
    full = compose(t, variant="defilip", ssl_weight=0.0, multiview_weight=0.0,
                   neighbor_weight=0.0, token_align_weight=0.0)
    assert abs(full.total.item() - t["clip"].item()) <= 1e-15
    slip = compose(t, variant="slip", slip_ssl_weight=0.0)
    assert abs(slip.total.item() - t["clip"].item()) <= 1e-15


def test_composite_rejects_zero_clip_weight():
    with pytest.raises(ConfigError):
        LossConfig(variant="declip", ssl_weight=0.5, multiview_weight=0.3, neighbor_weight=0.2)


def test_unknown_variant_rejected():
    with pytest.raises(ConfigError):
        LossConfig(variant="blip")


def test_combine_terms_missing_term():
    with pytest.raises(ContractError):
        combine_terms({"clip": Tensor(np.array(1.0))}, {"clip": 1.0, "neighbor": 0.2})


def test_log_line_format_is_stable():
    bd = combine_terms(
        {"clip": Tensor(np.array(1.25)), "image_ssl": Tensor(np.array(0.5))},
        {"clip": 1.0, "image_ssl": 2.0},
        diagnostics={"beta": 2.0, "alpha": 1.0},
    )
    assert bd.log_line(7) == (
        "step=7 total=2.250000 clip=1.250000 image_ssl=0.500000 alpha=1.000000 beta=2.000000"
    )


def test_breakdown_rejects_non_finite_terms():
    with pytest.raises(ContractError):
        combine_terms({"clip": Tensor(np.array(np.nan))}, {"clip": 1.0})


# invariances ---------------------------------------------------------------------


@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_info_nce_permutation_equivariance(n, seed):
    rng = np.random.default_rng(seed)
    left, right = unit(rng, n, 5), unit(rng, n, 5)
    perm = rng.permutation(n)
    base = info_nce(Tensor(left), Tensor(right), 0.3).item()
    shuffled = info_nce(Tensor(left[perm]), Tensor(right[perm]), 0.3).item()
    assert abs(base - shuffled) <= 1e-12


@given(st.integers(1, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_nt_xent_swapping_views_is_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a, b = unit(rng, n, 5), unit(rng, n, 5)
    ab = nt_xent_loss(Tensor(a), Tensor(b), 0.2).item()
    ba = nt_xent_loss(Tensor(b), Tensor(a), 0.2).item()
    assert abs(ab - ba) <= 1e-12
