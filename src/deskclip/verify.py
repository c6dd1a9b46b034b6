"""Self-contained oracle suite behind the `verify` CLI command.

Each check recomputes an expected answer through an independent route
(hand arithmetic, nested loops, finite differences) and compares it with
the production path. Fault hooks deliberately break specific internals so
the suite's power to catch regressions is itself testable. The op-gradient
table (``OP_CASES``) and the nested-loop loss references (``loop_*``) are
the one copy the tests use as well.
"""

from __future__ import annotations

import contextlib
import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import losses, tensor as T
from .corpus import CorpusAccumulator, FilterPolicy, analyze, filter_captions
from .data import Vocab, decode_caption, encode_caption, tokenize_words
from .encoders import ConvConfig, ConvEncoder, DualEncoder, EmbeddingSet, TextConfig, TextEncoder, VitConfig, VitEncoder
from .errors import CheckFailed
from .gradcheck import gradient_report
from .losses import (
    NNQueue,
    info_nce,
    neighbor_supervision_loss,
    nt_xent_loss,
    tokenwise_alignment_loss,
)
from .optim import lr_at
from .seeding import rng_for

def _highest_index_ties(x, axis):
    flipped = np.flip(x, axis=axis)
    return x.shape[axis] - 1 - np.argmax(flipped, axis=axis)


def _naive_softmax(x, axis):
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(x)
        return e / e.sum(axis=axis, keepdims=True)


def _stuck_head_enqueue(self, vectors):
    vectors = np.asarray(vectors, dtype=np.float64)
    if self.buffer is None:
        self.buffer = np.zeros((self.capacity, vectors.shape[1]))
    k = min(vectors.shape[0], self.capacity)
    self.buffer[:k] = vectors[:k]  # head never advances: eviction order wrong
    self.fill = min(self.capacity, self.fill + vectors.shape[0])


# fault name -> (owner, attribute, broken replacement)
_FAULT_PATCHES = {
    "filip-tiebreak": (T, "_argmax_forward", _highest_index_ties),
    "softmax-stability": (T, "_softmax_forward", _naive_softmax),
    "queue-fifo": (NNQueue, "enqueue", _stuck_head_enqueue),
}
FAULTS = tuple(_FAULT_PATCHES)


@contextlib.contextmanager
def inject_fault(name: str):
    """Deliberately break one internal mechanism for the check's duration."""
    if name not in _FAULT_PATCHES:
        raise ValueError(f"unknown fault {name!r}; known: {', '.join(FAULTS)}")
    owner, attribute, broken = _FAULT_PATCHES[name]
    original = getattr(owner, attribute)
    setattr(owner, attribute, broken)
    try:
        yield
    finally:
        setattr(owner, attribute, original)


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _loop_matching_ce(scores: list[list[float]], temperature: float) -> float:
    """Mean over rows i of -log softmax(scores[i] / temperature)[i]."""
    total = 0.0
    for i, row in enumerate(scores):
        logits = [score / temperature for score in row]
        peak = max(logits)
        log_z = peak + math.log(sum(math.exp(l - peak) for l in logits))
        total += -(logits[i] - log_z)
    return total / len(scores)


def loop_info_nce(left: np.ndarray, right: np.ndarray, temperature: float) -> float:
    n = left.shape[0]
    return _loop_matching_ce([[float(left[i] @ right[j]) for j in range(n)] for i in range(n)], temperature)


def loop_nt_xent(a: np.ndarray, b: np.ndarray, temperature: float) -> float:
    z = np.concatenate([a, b], axis=0)
    n = a.shape[0]
    total = 0.0
    for i in range(2 * n):
        positive = (i + n) % (2 * n)
        logits = [float(z[i] @ z[j]) / temperature for j in range(2 * n) if j != i]
        target = [j for j in range(2 * n) if j != i].index(positive)
        peak = max(logits)
        log_z = peak + math.log(sum(math.exp(l - peak) for l in logits))
        total += -(logits[target] - log_z)
    return total / (2 * n)


def loop_alignment(img_tokens, img_mask, txt_tokens, txt_mask, temperature: float) -> float:
    """Token-wise alignment loss of a batch, one (image, text) pair at a time."""
    n = len(img_tokens)
    image_side = [[0.0] * n for _ in range(n)]  # row: image, column: text
    text_side = [[0.0] * n for _ in range(n)]   # row: text, column: image
    for i in range(n):
        img = img_tokens[i][img_mask[i]]
        for j in range(n):
            txt = txt_tokens[j][txt_mask[j]]
            image_side[i][j] = float(np.mean([max(float(a @ b) for b in txt) for a in img]))
            text_side[j][i] = float(np.mean([max(float(a @ b) for a in img) for b in txt]))
    return 0.5 * (_loop_matching_ce(image_side, temperature) + _loop_matching_ce(text_side, temperature))


def loop_token_masks(sims4, img_mask, txt_mask, fraction: float):
    """FILIP's kept tokens, one sample and one modality at a time: each keeps its best
    ``fraction`` (at least one) of its unmasked tokens, ranked by their best similarity to
    any unmasked token of the other modality in the batch, ties to the lower index."""
    img_scores = np.where(txt_mask[None, None], sims4, -np.inf).max(axis=(2, 3))
    txt_scores = np.where(img_mask[:, :, None, None], sims4, -np.inf).max(axis=(0, 1))
    new_img, new_txt = np.zeros_like(img_mask), np.zeros_like(txt_mask)
    for mask, scores, out in ((img_mask, img_scores, new_img), (txt_mask, txt_scores, new_txt)):
        for i in range(len(mask)):
            valid = np.flatnonzero(mask[i])
            k = max(1, math.ceil(fraction * len(valid)))
            ranked = np.argsort(-scores[i, valid], kind="stable")[:k]
            out[i, valid[ranked]] = True
    return new_img, new_txt


def _prefix_masks(rng, n: int, tokens: int) -> np.ndarray:
    """(n, tokens) masks that keep a random non-empty prefix of each row, as padding does."""
    return np.arange(tokens) < rng.integers(1, tokens + 1, size=(n, 1))


# the op-gradient table ---------------------------------------------------------------
# One row per probe of a public tensor op: every gradient the tape gives for a tracked
# input is compared with finite differences. grad.primitives runs every row at seed 7,
# and tier-1 at seeds 0-7.


def _normal(rng, *shape) -> T.Tensor:
    return T.Tensor(rng.standard_normal(shape), requires_grad=True)


def _positive(rng, *shape) -> T.Tensor:
    return T.Tensor(rng.uniform(0.5, 2.0, shape), requires_grad=True)


def _partial_prefixes(rng, n: int, width: int) -> np.ndarray:
    """(n, width) masks that keep a random non-empty prefix of each row and drop its last entry."""
    return np.arange(width) < rng.integers(1, width, size=(n, 1))


def _padding(rng, n: int, length: int) -> np.ndarray:
    """An (n, 1, 1, length) attention bias that masks the tail of every sequence."""
    return np.where(_partial_prefixes(rng, n, length)[:, None, None, :], 0.0, T.MASK_PENALTY)


def _call(fn, *args):
    """The closure ``fn(*args)`` and its gradient-tracked arguments, named by ``fn``'s parameters."""
    tracked = []
    for name, arg in zip(inspect.signature(fn).parameters, args):
        parts = arg if isinstance(arg, list) else [arg]
        tracked += [(name if len(parts) == 1 else f"{name}.{i}", part) for i, part in enumerate(parts)
                    if isinstance(part, T.Tensor) and part.requires_grad]
    return (lambda: fn(*args)), tracked


@dataclass(frozen=True)
class OpCase:
    """One row of the op-gradient table: ``draw(rng, m, k, n)`` draws the values, and any
    shapes beyond the sizes m, k, n in [2, 4], of one call of the public op ``op``, and returns
    the call's closure and the (name, tensor) inputs it tracks."""

    op: str
    label: str
    draw: Callable

    @property
    def name(self) -> str:
        return f"{self.op} {self.label}" if self.label else self.op

    def probe(self, rng):
        """(scalar loss closure, tracked inputs): the op's output against fixed standard-normal
        weights, so every output entry has its own slope."""
        output, tracked = self.draw(rng, *(int(v) for v in rng.integers(2, 5, size=3)))
        with T.no_grad():
            weights = T.constant(rng.standard_normal(output().shape))
        return (lambda: T.sum_(output() * weights)), tracked


def _conv_case(kh: int, kw: int) -> OpCase:
    # a kernel as tall or wide as the image gives every tap but the centre one a zeroed border
    return OpCase("conv2d", f"{kh}x{kw} kernel", lambda r, m, k, n: _call(
        T.conv2d, _normal(r, 2, 2, k + 1, n + 1), _normal(r, m, 2, kh, kw)))


OP_CASES = (
    OpCase("add", "b over a's rows", lambda r, m, k, n: _call(T.add, _normal(r, m, k), _normal(r, k))),
    OpCase("sub", "a over b's columns", lambda r, m, k, n: _call(T.sub, _normal(r, m, 1), _normal(r, m, k))),
    OpCase("mul", "a over b's rows", lambda r, m, k, n: _call(T.mul, _normal(r, k), _normal(r, m, k))),
    OpCase("div", "denominator away from 0", lambda r, m, k, n: _call(
        T.div, _normal(r, m, k), T.Tensor(r.uniform(0.5, 2.0, (1, k)) * r.choice([-1.0, 1.0], (1, k)), True))),
    OpCase("neg", "", lambda r, m, k, n: _call(T.neg, _normal(r, m, k))),
    OpCase("power", "positive base", lambda r, m, k, n: _call(T.power, _positive(r, m, k), r.uniform(-2.0, 3.0))),
    OpCase("exp", "", lambda r, m, k, n: _call(T.exp, _normal(r, m, k))),
    OpCase("log", "positive input", lambda r, m, k, n: _call(T.log, _positive(r, m, k))),
    OpCase("gelu", "", lambda r, m, k, n: _call(T.gelu, T.Tensor(2.0 * r.standard_normal((m, k)), True))),
    OpCase("reshape", "", lambda r, m, k, n: _call(T.reshape, _normal(r, 2, m, k), (m, 2 * k))),
    OpCase("transpose", "axes (2, 0, 1)", lambda r, m, k, n: _call(T.transpose, _normal(r, 2, m, k), (2, 0, 1))),
    OpCase("broadcast_to", "", lambda r, m, k, n: _call(T.broadcast_to, _normal(r, 1, k), (m, k))),
    OpCase("concat", "then a step slice", lambda r, m, k, n: _call(
        lambda tensors: T.concat(tensors, axis=0)[::2], [_normal(r, 1, k), _normal(r, m, k)])),
    # m + 1 keys of m rows (and of k positions) repeat one at least
    OpCase("slice_", "repeated keys", lambda r, m, k, n: _call(T.slice_, _normal(r, m, k), r.integers(0, m, m + 1))),
    OpCase("select_positions", "repeated keys", lambda r, m, k, n: _call(
        T.select_positions, _normal(r, k + 1, k, n), r.integers(0, k, k + 1))),
    OpCase("embedding_lookup", "repeated ids", lambda r, m, k, n: _call(
        T.embedding_lookup, _normal(r, m, k), r.integers(0, m, (2, m)))),
    OpCase("sum_", "one axis", lambda r, m, k, n: _call(T.sum_, _normal(r, m, k, n), 1)),
    OpCase("mean", "axes (0, 2)", lambda r, m, k, n: _call(T.mean, _normal(r, m, k, n), (0, 2))),
    OpCase("mean", "all axes", lambda r, m, k, n: _call(T.mean, _normal(r, m, k))),
    OpCase("mean", "keep", lambda r, m, k, n: _call(
        T.mean, _normal(r, m, k, n), 1, _partial_prefixes(r, m, k)[:, :, None])),
    OpCase("max_", "", lambda r, m, k, n: _call(T.max_, _normal(r, m, k), 1)),
    OpCase("max_", "partial keep", lambda r, m, k, n: _call(T.max_, _normal(r, m, k), 1, _partial_prefixes(r, m, k))),
    OpCase("matmul", "2-D a, bias, residual", lambda r, m, k, n: _call(
        T.matmul, _normal(r, m, k), _normal(r, k, n), _normal(r, n), _normal(r, m, n))),
    OpCase("matmul", "3-D a, bias, residual", lambda r, m, k, n: _call(
        T.matmul, _normal(r, 2, m, k), _normal(r, k, n), _normal(r, n), _normal(r, 2, m, n))),
    # a LayerNorm of width k + 2 folded into the product
    OpCase("matmul", "3-D a, bias, norm=", lambda r, m, k, n: _call(
        T.matmul, _normal(r, 2, m, k + 2), _normal(r, k + 2, n), _normal(r, n), None,
        [_normal(r, k + 2), _normal(r, k + 2)])),
    # a hidden layer of width 2n between widths k and m
    OpCase("mlp", "3-D x, residual", lambda r, m, k, n: _call(
        T.mlp, _normal(r, 2, m, k), _normal(r, k, 2 * n), _normal(r, 2 * n), _normal(r, 2 * n, m), _normal(r, m),
        _normal(r, 2, m, m))),
    OpCase("mlp", "2-D x", lambda r, m, k, n: _call(
        T.mlp, _normal(r, m, k), _normal(r, k, 2 * n), _normal(r, 2 * n), _normal(r, 2 * n, k), _normal(r, k))),
    # x is the operand, under the norm, and the residual, as in a transformer block
    OpCase("mlp", "3-D x, norm=, x is the residual", lambda r, m, k, n: _call(
        lambda x, w1, b1, w2, b2, norm: T.mlp(x, w1, b1, w2, b2, x, norm),
        _normal(r, 2, m, k + 2), _normal(r, k + 2, 2 * n), _normal(r, 2 * n), _normal(r, 2 * n, k + 2),
        _normal(r, k + 2), [_normal(r, k + 2), _normal(r, k + 2)])),
    OpCase("softmax", "", lambda r, m, k, n: _call(T.softmax, _normal(r, m, k), 1)),
    OpCase("log_softmax", "", lambda r, m, k, n: _call(T.log_softmax, _normal(r, m, k), 0)),
    # two heads of width n over k + 1 positions, the tail of every sequence padding
    OpCase("attention", "padded", lambda r, m, k, n: _call(
        T.attention, _normal(r, m, k + 1, 6 * n), 2, _padding(r, m, k + 1))),
    OpCase("attention", "padded, rows=", lambda r, m, k, n: _call(
        T.attention, _normal(r, m, k + 1, 6 * n), 2, _padding(r, m, k + 1), r.integers(0, k + 1, m))),
    OpCase("l2_normalize", "", lambda r, m, k, n: _call(T.l2_normalize, _normal(r, m, k), 1)),
    OpCase("layernorm", "", lambda r, m, k, n: _call(T.layernorm, _normal(r, m, k + 2), _normal(r, k + 2),
                                                      _normal(r, k + 2))),
    OpCase("cross_entropy", "", lambda r, m, k, n: _call(T.cross_entropy, _normal(r, m, k), r.integers(0, k, m))),
    *(_conv_case(kh, kw) for kh, kw in ((1, 1), (3, 3), (3, 5), (5, 1))),
    OpCase("gelu_avgpool2", "", lambda r, m, k, n: _call(T.gelu_avgpool2, _normal(r, 2, m, 2 * k, 2 * n))),
    OpCase("conv2d", "3x3 kernel, gelu_pool", lambda r, m, k, n: _call(
        T.conv2d, _normal(r, 2, 2, 2 * k, 2 * n), _normal(r, m, 2, 3, 3), True)),
)


# checks: each returns (ok, detail) ------------------------------------------------


def check_grad_primitives():
    worst, where = 0.0, ""
    for case in OP_CASES:
        report = gradient_report(*case.probe(np.random.default_rng(7)))
        for name, err in report.items():
            if err >= worst:
                worst, where = err, f"{case.name} ({name})"
    return worst <= 1e-6, (
        f"worst rel. err {worst:.2e} at {where}, over {len(OP_CASES)} rows that cover "
        f"{len({case.op for case in OP_CASES})} tensor ops"
    )


def check_grad_encoders():
    rng = rng_for(0, "verify-grad")
    text_cfg = TextConfig(vocab_size=24, context_length=8, width=8, depth=1, heads=2, embed_dim=8)
    vit = DualEncoder(
        VitEncoder(VitConfig(image_size=8, patch_size=4, width=8, depth=1, heads=2, embed_dim=8), rng),
        TextEncoder(text_cfg, rng),
    )
    # the conv trunk is the only user of conv2d and the 2x2 pool
    conv = DualEncoder(
        ConvEncoder(ConvConfig(image_size=8, stage_channels=(2, 4), embed_dim=8), rng),
        TextEncoder(text_cfg, rng),
    )
    images = T.Tensor(np.random.default_rng(3).uniform(0, 1, (2, 3, 8, 8)))
    ids = np.array([[1, 6, 7, 2, 0, 0, 0, 0], [1, 8, 9, 10, 2, 0, 0, 0]])
    sampled = [
        # the ids are 5 of 8 slots wide, so the text trunk reads 5 rows of pos_embedding
        (vit, ("log_temperature", "image.ln_final.gain", "image.blocks.0.mlp.fc1.bias",
               "text.blocks.0.mlp.fc1.bias", "text.proj.weight", "text.pos_embedding")),
        (conv, ("image.stage0_filter", "image.proj.weight")),
    ]
    worst, count = 0.0, 0
    for model, names in sampled:

        def loss():
            # the pooled path through clip and the token path through token-wise alignment
            img, txt = model.encode_image(images), model.encode_text(ids)
            return (losses.clip_loss(img, txt, model.temperature()).total
                    + tokenwise_alignment_loss(img, txt, model.temperature()))

        params = dict(model.named_parameters())
        report = gradient_report(loss, [(name, params[name]) for name in names])
        worst = max(worst, *report.values())
        count += len(names)
    return worst <= 1e-4, (
        f"worst rel. err {worst:.2e} across {count} sampled parameters (ViT and conv, pooled and token paths)"
    )


def check_loss_fixtures():
    problems = []
    one = T.Tensor(np.array([[1.0, 0.0]]))
    if abs(info_nce(one, one, 1.0).item()) > 1e-15:
        problems.append("single-pair loss not zero")
    rng = np.random.default_rng(11)
    row = rng.standard_normal(6)
    row /= np.linalg.norm(row)
    same = T.Tensor(np.tile(row, (5, 1)))
    if abs(info_nce(same, same, 0.3).item() - math.log(5)) > 1e-9:
        problems.append("identical-embedding loss differs from ln N")
    ortho = T.Tensor(np.eye(2))
    expected = math.log(1.0 + math.exp(-1.0))
    if abs(info_nce(ortho, ortho, 1.0).item() - expected) > 1e-9:
        problems.append("orthonormal N=2 fixture mismatch")
    pair = _unit_rows(rng, 4, 8)
    if abs(info_nce(T.Tensor(pair), T.Tensor(_unit_rows(rng, 4, 8)), 1e6).item() - math.log(4)) > 1e-6:
        problems.append("high-temperature limit differs from ln N")
    return not problems, "; ".join(problems) if problems else "4 closed-form fixtures match"


def check_bruteforce():
    rng = np.random.default_rng(23)
    worst, instances = 0.0, 20
    for _ in range(instances):
        n, d = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        temp = float(rng.uniform(0.05, 2.0))
        left, right = _unit_rows(rng, n, d), _unit_rows(rng, n, d)
        got = info_nce(T.Tensor(left), T.Tensor(right), temp).item()
        worst = max(worst, abs(got - loop_info_nce(left, right, temp)))
        got = nt_xent_loss(T.Tensor(left), T.Tensor(right), temp).item()
        worst = max(worst, abs(got - loop_nt_xent(left, right, temp)))
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        img_toks = _unit_rows(rng, n * n1, d).reshape(n, n1, d)
        txt_toks = _unit_rows(rng, n * n2, d).reshape(n, n2, d)
        img_mask, txt_mask = _prefix_masks(rng, n, n1), _prefix_masks(rng, n, n2)
        img_set = EmbeddingSet(T.Tensor(left), T.Tensor(img_toks), img_mask)
        txt_set = EmbeddingSet(T.Tensor(right), T.Tensor(txt_toks), txt_mask)
        got = tokenwise_alignment_loss(img_set, txt_set, temp).item()
        worst = max(worst, abs(got - loop_alignment(img_toks, img_mask, txt_toks, txt_mask, temp)))
        # the same loss over the tokens FILIP's selection keeps at half
        kept = loop_token_masks(np.einsum("ipd,jqd->ipjq", img_toks, txt_toks), img_mask, txt_mask, 0.5)
        got = tokenwise_alignment_loss(img_set, txt_set, temp, token_fraction=0.5).item()
        worst = max(worst, abs(got - loop_alignment(img_toks, kept[0], txt_toks, kept[1], temp)))
        # queue retrieval vs exhaustive scan
        queue = NNQueue(16)
        stored = _unit_rows(rng, 8, d)
        queue.enqueue(stored)
        queries = _unit_rows(rng, 2, d)
        got_nb = queue.nearest(queries)
        want_nb = stored[np.argmax(queries @ stored.T, axis=1)]
        worst = max(worst, float(np.abs(got_nb - want_nb).max()))
    return worst <= 1e-10, f"{instances} random instances, worst abs. gap {worst:.2e}"


def check_composition():
    rng = np.random.default_rng(31)
    terms = {name: T.Tensor(np.array(float(rng.uniform(0.2, 3.0)))) for name in losses.TERM_ORDER}
    tables = {v: losses.LossConfig(variant=v).term_weights() for v in losses.VARIANTS}
    built = {v: losses.combine_terms(terms, weights) for v, weights in tables.items()}
    gap1 = max(abs(b.total.item() - b.recompute_total()) for b in built.values())
    # a variant whose table extends another's (defilip over declip, slip over
    # clip) differs from it by exactly the extra weighted terms
    gap2, pairs = 0.0, 0
    for big, wide in tables.items():
        for small, narrow in tables.items():
            if big != small and narrow.items() <= wide.items():
                extra = sum(wide[k] * terms[k].item() for k in wide.keys() - narrow.keys())
                gap2 = max(gap2, abs(built[big].total.item() - built[small].total.item() - extra))
                pairs += 1
    ok = gap1 <= 1e-12 and gap2 <= 1e-12 and pairs > 0
    return ok, f"breakdown gap {gap1:.2e}, composite difference gap {gap2:.2e} over {pairs} variant pairs"


def check_filip_tiebreak():
    # two identical one-token images; text 0 holds two identical tokens, so each
    # image's best match in text 0 is a tie. The images being identical, the
    # text-side gradients on text 0 cancel, and what its tokens receive is the
    # image-side gradient, which must all go to the lower index: by hand,
    # (2 p - 1) / (4 tau) along the image token, p = softmax([1, 0.6] / tau)[0].
    temperature = 0.5
    token = np.array([1.0, 0.0])
    images = np.tile(token, (2, 1, 1))
    texts = T.Tensor(np.array([[token, token], [[0.6, 0.8], [0.0, 1.0]]]), requires_grad=True)
    loss = tokenwise_alignment_loss(
        EmbeddingSet(T.Tensor(images[:, 0]), T.Tensor(images), np.ones((2, 1), bool)),
        EmbeddingSet(T.Tensor(images[:, 0]), texts, np.ones((2, 2), bool)),
        temperature,
    )
    T.backward(loss)
    p = 1.0 / (1.0 + math.exp(-0.4 / temperature))
    want = (2 * p - 1) / (4 * temperature) * token
    first_gap = float(np.abs(texts.grad[0, 0] - want).max())
    second = float(np.abs(texts.grad[0, 1]).max())
    ok = first_gap <= 1e-12 and second <= 1e-12
    return ok, f"tied match routed to token 0 (gap to hand gradient {first_gap:.1e}, |g1|={second:.1e})"


def check_softmax_stability():
    out = T.softmax(T.constant([[1000.0, 0.0], [-1000.0, 0.0]]), axis=1).data
    finite = bool(np.isfinite(out).all())
    rows = bool(np.allclose(out.sum(axis=1), 1.0, atol=1e-12))
    return finite and rows, f"extreme logits finite={finite}, rows sum to one={rows}"


def check_queue_fifo():
    queue = NNQueue(4)
    vectors = np.eye(6)[:, :6]  # 6 distinct one-hot rows
    for i in range(6):
        queue.enqueue(vectors[i : i + 1])
    stored = {tuple(row) for row in queue.buffer}
    expected = {tuple(row) for row in vectors[2:]}  # oldest two evicted
    if stored != expected:
        return False, "eviction order wrong: oldest entries were not overwritten first"
    # same-step exclusion: a cold queue returns zero before the enqueue
    queue2 = NNQueue(4)
    img = T.Tensor(np.eye(2))
    loss, skipped = neighbor_supervision_loss(img, img, queue2, 1.0)
    ok = loss.item() == 0.0 and skipped == 1 and queue2.fill == 2
    return ok, "oldest-first eviction and cold-start exclusion verified"


def check_schedule():
    problems = []
    if abs(lr_at(0, 10, 100, 1e-4, 1e-3) - 1e-4) > 1e-18:
        problems.append("step 0 is not base_lr")
    if abs(lr_at(10, 10, 100, 1e-4, 1e-3) - 1e-3) > 1e-18:
        problems.append("warmup boundary is not peak_lr")
    if abs(lr_at(100, 10, 100, 1e-4, 1e-3)) > 1e-12:
        problems.append("final step is not zero")
    left = lr_at(9, 10, 100, 1e-4, 1e-3)
    if not 0 < 1e-3 - left < 1.1e-4:
        problems.append("approach to the boundary is not linear")
    return not problems, "; ".join(problems) if problems else "warmup/cosine endpoints and continuity hold"


def check_tokenizer():
    vocab = Vocab.build(["a photo of a red circle", "the blue square"], max_size=64)
    ids = encode_caption("A photo of a RED circle", vocab, 16)
    back = decode_caption(ids, vocab)
    if back != ["a", "photo", "of", "a", "red", "circle"]:
        return False, f"roundtrip produced {back}"
    long = encode_caption(" ".join(["red"] * 100), vocab, 16)
    if len(long) != 16 or long[-1] != 2:
        return False, "truncation did not preserve the end token"
    if tokenize_words("Hello, world!") != ["hello", ",", "world", "!"]:
        return False, "punctuation splitting broken"
    return True, "roundtrip, truncation, punctuation fixtures match"


def check_corpus():
    report = analyze(["a b", "a b c d"])
    problems = []
    if (report.length_mean, report.length_std) != (3.0, 1.0):
        problems.append(f"mean/std got ({report.length_mean}, {report.length_std})")
    if report.english_ratio != 1.0 or report.unique_tokens != 4:
        problems.append("ratio or unique-token count wrong")
    if abs(analyze(["a ☃"]).english_ratio - 0.5) > 1e-15:
        problems.append("non-ASCII token not excluded from English count")
    left, right = CorpusAccumulator(), CorpusAccumulator()
    for i, cap in enumerate(["a b", "a b c d", "x y z", "a ☃"]):
        (left if i % 2 == 0 else right).add(cap)
    merged = left.merge(right).report()
    single = analyze(["a b", "a b c d", "x y z", "a ☃"])
    if merged != single:
        problems.append("shard merge differs from single pass")
    kept, tally = filter_captions(["a ☃"], FilterPolicy(min_english_ratio=0.9))
    if kept or tally != {"length": 0, "ratio": 1}:
        problems.append("ratio filter fixture wrong")
    return not problems, "; ".join(problems) if problems else "hand fixtures and shard merge match"


CHECKS = (
    ("grad.primitives", check_grad_primitives),
    ("grad.encoders", check_grad_encoders),
    ("loss.fixtures", check_loss_fixtures),
    ("loss.bruteforce", check_bruteforce),
    ("loss.composition", check_composition),
    ("filip.tiebreak", check_filip_tiebreak),
    ("softmax.stability", check_softmax_stability),
    ("queue.fifo", check_queue_fifo),
    ("schedule.boundary", check_schedule),
    ("tokenizer.roundtrip", check_tokenizer),
    ("corpus.fixtures", check_corpus),
)


def run_verify(faults: list[str]) -> None:
    """One PASS or FAIL line per check, with ``faults`` injected; CheckFailed naming the checks that fail."""
    with contextlib.ExitStack() as stack:
        for fault in faults:
            stack.enter_context(inject_fault(fault))
        failed = []
        for name, fn in CHECKS:
            try:
                ok, detail = fn()
            except Exception as err:  # a crashed check is a failed check
                ok, detail = False, f"raised {type(err).__name__}: {err}"
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
            failed += [] if ok else [name]
    print(f"{len(CHECKS) - len(failed)}/{len(CHECKS)} checks passed")
    if failed:
        raise CheckFailed(f"verify failed {len(failed)} of {len(CHECKS)} checks: {', '.join(failed)}")
