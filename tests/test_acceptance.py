"""Acceptance gate. One test per criterion, one PASS/FAIL line each.

Every tolerance is pinned here, next to the check that uses it. The
per-criterion lines are echoed in the terminal summary block after the
run (see conftest.pytest_terminal_summary).

The heavyweight criteria (end-to-end learning, depth sweep) train real
models and together take 20-30 minutes on one desktop core.
"""

import filecmp
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

import deskclip.tensor as T
from deskclip.augment import ImageAugPolicy, TextAugPolicy, default_synonyms
from deskclip.cli import main as cli_main
from deskclip.config import load_run_config
from deskclip.corpus import CorpusAccumulator, analyze
from deskclip.data import Vocab, generate_synthetic, read_manifest
from deskclip.encoders import EmbeddingSet, TextConfig, VitConfig
from deskclip.losses import (
    LossConfig,
    NNQueue,
    clip_loss,
    combine_terms,
    info_nce,
    multiview_loss,
    neighbor_supervision_loss,
    nt_xent_loss,
    tokenwise_alignment_loss,
)
from deskclip.seeding import rng_for
from deskclip.tensor import Tensor
from deskclip.trainer import (
    TrainConfig,
    assemble_views,
    build_model,
    compute_step_loss,
    train,
    trainable_parameters,
)

from tests.conftest import ACCEPTANCE_LINES, DESK_RECIPE


def note(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else "")
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


# -------------------------------------------------------------------- 1. gradient oracle

GRAD_IMAGE = VitConfig(image_size=16, patch_size=8, width=8, depth=1, heads=2, embed_dim=8)
GRAD_TEXT = TextConfig(vocab_size=32, context_length=8, width=8, depth=1, heads=2, embed_dim=8)
VARIANTS = ("clip", "slip", "filip", "declip", "defilip")


def _grad_problem(variant):
    """Model plus a deterministic full-stack loss closure on an N=4 batch."""
    train_cfg = TrainConfig(variant=variant, batch_size=4, seed=0)
    loss_cfg = LossConfig(variant=variant, neighbor_queue_capacity=8)
    model = build_model(train_cfg, GRAD_IMAGE, GRAD_TEXT)
    records = generate_synthetic(num_classes=4, per_class=1, seed=0)
    vocab = Vocab.build((r.caption for r in records), GRAD_TEXT.vocab_size)
    views = assemble_views(
        records, train_cfg, loss_cfg, GRAD_TEXT, vocab, GRAD_IMAGE.image_size,
        ImageAugPolicy(), TextAugPolicy(synonyms=default_synonyms()), 0, 0,
    )
    seed_rows = unit_rows(np.random.default_rng(5), 8, GRAD_TEXT.embed_dim)

    def total_loss() -> Tensor:
        # fresh queue state per call so finite differencing sees a pure function
        queue = NNQueue(8)
        queue.load_state(seed_rows.copy(), 8, 0)
        breakdown = compute_step_loss(model, views, loss_cfg, queue, len(vocab), rng_for(0, "fd"))
        return breakdown.total

    return model, total_loss


def _five_point(total_loss, flat, i, h):
    """(-f(x+2h) + 8 f(x+h) - 8 f(x-h) + f(x-2h)) / 12h at coordinate i, restored after."""
    keep = flat[i]
    values = []
    for k in (2, 1, -1, -2):
        flat[i] = keep + k * h
        values.append(float(total_loss().data))
    flat[i] = keep
    return (-values[0] + 8 * values[1] - 8 * values[2] + values[3]) / (12 * h)


def test_gradient_oracle():
    started = time.monotonic()
    checked = 0
    fallbacks = 0
    misses = []
    for variant in VARIANTS:
        model, total_loss = _grad_problem(variant)
        params = trainable_parameters(model, variant)

        model.zero_grad()
        T.backward(total_loss())
        analytic = {name: p.grad.copy() for name, p in params}

        for name, p in params:
            flat = p.data.reshape(-1)
            grad = analytic[name].reshape(-1)
            for i in range(flat.size):
                if abs(grad[i]) <= 1e-8:
                    continue
                checked += 1
                h = 1e-5 * max(1.0, abs(flat[i]))
                keep = flat[i]
                flat[i] = keep + h
                up = float(total_loss().data)
                flat[i] = keep - h
                down = float(total_loss().data)
                flat[i] = keep
                fd = (up - down) / (2 * h)
                rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]))
                if rel > 1e-4:
                    # on gradients of ~1e-7 round-off swamps a central difference at
                    # h=1e-5; a 5-point stencil at a wider step has O(h^4) truncation
                    fallbacks += 1
                    fd = _five_point(total_loss, flat, i, 1e-3 * max(1.0, abs(keep)))
                    rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]))
                if rel > 1e-4:
                    misses.append(f"{variant} {name}[{i}] rel. err {rel:.2e}")
    elapsed = time.monotonic() - started
    ok = not misses and elapsed < 300
    note(
        "gradient-oracle",
        ok,
        f"5 variants, {checked} finite-difference probes, {len(misses)} outside 1e-4, "
        f"{fallbacks} needed the 5-point fallback, {elapsed:.0f}s"
        + (f"; first misses {misses[:3]}" if misses else ""),
    )


# -------------------------------------------------------------------- 2. brute force


def oracle_info_nce(left, right, tau):
    n = left.shape[0]
    total = 0.0
    for i in range(n):
        logits = np.array([float(left[i] @ right[j]) / tau for j in range(n)])
        total += logsumexp(logits) - logits[i]
    return total / n


def oracle_nt_xent(a, b, tau):
    z = np.concatenate([a, b])
    m = z.shape[0]
    n = m // 2
    total = 0.0
    for i in range(m):
        logits = np.array([float(z[i] @ z[j]) / tau for j in range(m) if j != i])
        positive = float(z[i] @ z[(i + n) % m]) / tau
        total += logsumexp(logits) - positive
    return total / m


def oracle_pair_similarity(img, txt, img_mask, txt_mask):
    image_side = np.mean([
        max(float(img[i] @ txt[j]) for j in np.flatnonzero(txt_mask))
        for i in np.flatnonzero(img_mask)
    ])
    text_side = np.mean([
        max(float(img[i] @ txt[j]) for i in np.flatnonzero(img_mask))
        for j in np.flatnonzero(txt_mask)
    ])
    return image_side, text_side


def oracle_tokenwise_loss(img_tokens, txt_tokens, img_mask, txt_mask, tau):
    n = img_tokens.shape[0]
    score_img = np.zeros((n, n))
    score_txt = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            a, b = oracle_pair_similarity(img_tokens[i], txt_tokens[j], img_mask[i], txt_mask[j])
            score_img[i, j] = a
            score_txt[i, j] = b
    i2t = np.mean([logsumexp(score_img[i] / tau) - score_img[i, i] / tau for i in range(n)])
    t2i = np.mean([logsumexp(score_txt[:, j] / tau) - score_txt[j, j] / tau for j in range(n)])
    return 0.5 * (i2t + t2i)


def oracle_neighbor(img, txt, stored, tau):
    idx = np.argmax(txt @ stored.T, axis=1)
    neighbors = stored[idx]
    return 0.5 * (oracle_info_nce(img, neighbors, tau) + oracle_info_nce(neighbors, img, tau))


def random_masks(rng, n, tokens):
    mask = rng.random((n, tokens)) < 0.7
    for row in mask:
        if not row.any():
            row[rng.integers(tokens)] = True
    return mask


def test_brute_force_equivalence():
    rng = np.random.default_rng(2024)
    worst = {"token-loss": 0.0, "info-nce": 0.0, "nt-xent": 0.0, "neighbor": 0.0}

    for _ in range(100):
        n = int(rng.integers(1, 4))
        n_img, n_txt = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        tau = float(rng.uniform(0.05, 2.0))
        img_tokens = rng.normal(size=(n, n_img, 6))
        txt_tokens = rng.normal(size=(n, n_txt, 6))
        img_mask = random_masks(rng, n, n_img)
        txt_mask = random_masks(rng, n, n_txt)

        pooled = Tensor(unit_rows(rng, n, 6))
        img_set = EmbeddingSet(pooled=pooled, tokens=Tensor(img_tokens), mask=img_mask)
        txt_set = EmbeddingSet(pooled=pooled, tokens=Tensor(txt_tokens), mask=txt_mask)
        got = float(tokenwise_alignment_loss(img_set, txt_set, tau).data)
        want = oracle_tokenwise_loss(img_tokens, txt_tokens, img_mask, txt_mask, tau)
        worst["token-loss"] = max(worst["token-loss"], abs(got - want))

    for _ in range(100):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(2, 8))
        tau = float(rng.uniform(0.05, 2.0))
        left, right = unit_rows(rng, n, d), unit_rows(rng, n, d)
        got = float(info_nce(Tensor(left), Tensor(right), tau).data)
        worst["info-nce"] = max(worst["info-nce"], abs(got - oracle_info_nce(left, right, tau)))

        got = float(nt_xent_loss(Tensor(left), Tensor(right), tau).data)
        worst["nt-xent"] = max(worst["nt-xent"], abs(got - oracle_nt_xent(left, right, tau)))

        stored = unit_rows(rng, int(rng.integers(1, 9)), d)
        queue = NNQueue(16)
        queue.enqueue(stored)
        term, skipped = neighbor_supervision_loss(
            Tensor(left), Tensor(right), queue, tau, update_queue=False
        )
        assert skipped == 0
        worst["neighbor"] = max(
            worst["neighbor"], abs(float(term.data) - oracle_neighbor(left, right, stored, tau))
        )

    ok = all(err <= 1e-10 for err in worst.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    note("brute-force-equivalence", ok, f"100 instances each, max |err|: {detail}")


# -------------------------------------------------------------------- 3. analytic fixtures


def test_analytic_fixtures():
    failures = []

    single = Tensor(np.array([[1.0, 0.0]]))
    v = float(info_nce(single, single, 0.5).data)
    if abs(v) > 1e-15:
        failures.append(f"single-pair={v!r}")

    for n in (2, 5, 17):
        same = Tensor(np.tile([[0.6, 0.8]], (n, 1)))
        v = float(info_nce(same, same, 0.3).data)
        if abs(v - np.log(n)) > 1e-9:
            failures.append(f"uniform n={n} err={abs(v - np.log(n)):.2e}")

    ortho = Tensor(np.eye(2))
    v = float(info_nce(ortho, ortho, 1.0).data)
    if abs(v - np.log(1 + np.exp(-1))) > 1e-9:
        failures.append(f"orthonormal err={abs(v - np.log(1 + np.exp(-1))):.2e}")

    rng = np.random.default_rng(7)
    rows = unit_rows(rng, 6, 4)
    v = float(info_nce(Tensor(rows), Tensor(unit_rows(rng, 6, 4)), 1e6).data)
    if abs(v - np.log(6)) > 1e-6:
        failures.append(f"flat-temperature err={abs(v - np.log(6)):.2e}")

    pooled = unit_rows(rng, 3, 5)
    txt_pooled = unit_rows(rng, 3, 5)
    img_set = EmbeddingSet(
        pooled=Tensor(pooled), tokens=Tensor(pooled[:, None, :]), mask=np.ones((3, 1), bool)
    )
    txt_set = EmbeddingSet(
        pooled=Tensor(txt_pooled), tokens=Tensor(txt_pooled[:, None, :]), mask=np.ones((3, 1), bool)
    )
    gap = abs(
        float(combine_terms(
            {"token_align": tokenwise_alignment_loss(img_set, txt_set, 0.2)},
            LossConfig(variant="filip").term_weights(),
        ).total.data)
        - float(clip_loss(img_set, txt_set, 0.2).total.data)
    )
    if gap > 1e-12:
        failures.append(f"single-token gap={gap:.2e}")

    img_t, txt_t = Tensor(pooled), Tensor(txt_pooled)
    gap = abs(
        float(multiview_loss(img_t, img_t, txt_t, txt_t, 0.2).data)
        - float(clip_loss(img_set, txt_set, 0.2).total.data)
    )
    if gap > 1e-12:
        failures.append(f"identity-multiview gap={gap:.2e}")

    note("analytic-fixtures", not failures, "; ".join(failures) or "6 closed-form cases")


# -------------------------------------------------------------------- 4. composition


def test_composition_identities():
    failures = []
    rng = np.random.default_rng(11)
    terms = {name: Tensor(np.asarray(v)) for name, v in zip(
        ("clip", "image_ssl", "text_mlm", "multiview", "neighbor", "token_align"),
        rng.uniform(0.5, 3.0, size=6),
    )}

    def compose(cfg: LossConfig):
        return combine_terms(terms, cfg.term_weights())

    breakdown = compose(LossConfig(variant="declip"))
    rebuilt = sum(breakdown.weights[k] * float(breakdown.terms[k].data) for k in breakdown.terms)
    if abs(float(breakdown.total.data) - rebuilt) > 1e-12:
        failures.append(f"declip-rebuild gap={abs(float(breakdown.total.data) - rebuilt):.2e}")

    full_cfg = LossConfig(variant="defilip")
    full = compose(full_cfg)
    gap = abs(
        (float(full.total.data) - float(breakdown.total.data))
        - full_cfg.token_align_weight * float(terms["token_align"].data)
    )
    if gap > 1e-12:
        failures.append(f"composite-difference gap={gap:.2e}")

    zeroed = LossConfig(variant="declip", ssl_weight=0.0, multiview_weight=0.0, neighbor_weight=0.0)
    if float(compose(zeroed).total.data) != float(terms["clip"].data):
        failures.append("zero-weight declip != clip")

    zeroed_full = LossConfig(
        variant="defilip", ssl_weight=0.0, multiview_weight=0.0,
        neighbor_weight=0.0, token_align_weight=0.0,
    )
    if float(compose(zeroed_full).total.data) != float(terms["clip"].data):
        failures.append("zero-weight defilip != clip")

    slip_zero = LossConfig(variant="slip", slip_ssl_weight=0.0)
    if float(compose(slip_zero).total.data) != float(terms["clip"].data):
        failures.append("zero-weight slip != clip")

    note("composition-identities", not failures, "; ".join(failures) or "rebuild, difference, collapse")


# -------------------------------------------------------------------- 5. end-to-end

def _desk_dataset(root: Path):
    assert cli_main(["synth", str(root), "--classes", "8", "--train", "800",
                     "--val", "200", "--seed", "0"]) == 0
    train_records = read_manifest(root / "train.tsv")
    val_records = read_manifest(root / "val.tsv")
    names = [l for l in (root / "classes.txt").read_text().splitlines() if l]
    return train_records, val_records, names


def _run_variant(run_dir, variant, dataset):
    train_records, val_records, names = dataset
    cfg = load_run_config(DESK_RECIPE, [f"train.variant={variant}"])
    return train(run_dir, train_records, val_records, names,
                 cfg.train, cfg.loss, cfg.image, cfg.text)


@pytest.fixture(scope="module")
def desk_dataset(tmp_path_factory):
    return _desk_dataset(tmp_path_factory.mktemp("desk_data"))


def test_end_to_end_learning(tmp_path, desk_dataset):
    started = time.monotonic()
    clip_result = _run_variant(tmp_path / "clip", "clip", desk_dataset)
    defilip_result = _run_variant(tmp_path / "defilip", "defilip", desk_dataset)
    elapsed = time.monotonic() - started

    clip_best = clip_result.best_accuracy
    defilip_best = defilip_result.best_accuracy
    ordering = "defilip>clip" if defilip_best > clip_best else "clip>=defilip"
    ok = (
        clip_best >= 0.60 and defilip_best >= 0.60
        and not clip_result.aborted and not defilip_result.aborted
        and elapsed <= 1800
    )
    note(
        "end-to-end-learning",
        ok,
        f"clip best={clip_best:.3f} final={clip_result.final_accuracy:.3f} | "
        f"defilip best={defilip_best:.3f} final={defilip_result.final_accuracy:.3f} | "
        f"ordering {ordering} (recorded, not gated) | chance 0.125 | {elapsed:.0f}s",
    )


# -------------------------------------------------------------------- 6. determinism

MICRO_IMAGE = VitConfig(image_size=16, patch_size=8, width=16, depth=1, heads=2, embed_dim=16)
MICRO_TEXT = TextConfig(vocab_size=64, context_length=12, width=16, depth=1, heads=2, embed_dim=16)


def _micro_run(run_dir, records, *, epochs=2, stop_after_steps=None, resume_from=None, seed=3):
    return train(
        run_dir, records, records[:8],
        ["red circle", "green circle", "blue circle", "yellow circle"],
        TrainConfig(variant="clip", epochs=epochs, batch_size=4, seed=seed, warmup_epochs=0.5),
        LossConfig(variant="clip", neighbor_queue_capacity=8),
        MICRO_IMAGE, MICRO_TEXT,
        stop_after_steps=stop_after_steps, resume_from=resume_from,
    )


def test_determinism(tmp_path):
    records = generate_synthetic(num_classes=4, per_class=6, seed=2)
    a = _micro_run(tmp_path / "a", records)
    b = _micro_run(tmp_path / "b", records)
    logs_equal = a.metrics_path.read_bytes() == b.metrics_path.read_bytes()
    ckpts_equal = filecmp.cmp(a.final_path, b.final_path, shallow=False)
    note(
        "determinism",
        logs_equal and ckpts_equal,
        f"two full runs: metrics byte-equal={logs_equal}, checkpoints byte-equal={ckpts_equal}",
    )


# -------------------------------------------------------------------- 7. depth sweep

SWEEP_SETS = [
    "train.epochs=14", "train.batch_size=16", "train.seed=0",
    "train.peak_lr=0.0005", "train.warmup_epochs=3",
    "image.image_size=16", "image.patch_size=4", "image.width=32",
    "image.depth=2", "image.heads=2", "image.embed_dim=24",
    "text.vocab_size=128", "text.context_length=16", "text.width=32",
    "text.heads=2", "text.embed_dim=24",
]


def test_depth_sweep(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert cli_main(["synth", str(data_dir), "--classes", "4", "--train", "240",
                     "--val", "80", "--seed", "0", "--image-size", "16"]) == 0
    out = tmp_path / "sweep"
    argv = ["sweep", "--over", "text.depth=1,2,3,4", "--out", str(out)]
    for item in SWEEP_SETS + [
        f"data.train_manifest={data_dir}/train.tsv",
        f"data.val_manifest={data_dir}/val.tsv",
        f"data.classes_file={data_dir}/classes.txt",
    ]:
        argv += ["--set", item]
    rc = cli_main(argv)
    capsys.readouterr()
    assert rc == 0

    rows = [line.split() for line in (out / "sweep.txt").read_text().splitlines()[1:]]
    depths = [int(r[0]) for r in rows]
    params = [int(r[1]) for r in rows]
    accs = [float(r[2]) for r in rows]
    chance = 0.25  # four balanced classes
    ok = (
        depths == [1, 2, 3, 4]
        and all(a > chance for a in accs)
        and all(p1 < p2 for p1, p2 in zip(params, params[1:]))
    )
    note(
        "depth-sweep",
        ok,
        "accuracies " + ", ".join(f"{d}:{a:.3f}" for d, a in zip(depths, accs))
        + f" (chance {chance}), params strictly increasing",
    )


# -------------------------------------------------------------------- 8. corpus stats


def test_corpus_stats():
    failures = []
    report = analyze(["a b", "a b c d"])
    if not (report.length_mean == 3.0 and report.length_std == 1.0 and report.count == 2):
        failures.append(f"fixture report={report}")

    rng = np.random.default_rng(23)
    alphabet = ["cat", "dog", "42", "σ", "red", "circle", "!", "photo"]
    captions = [
        " ".join(rng.choice(alphabet, size=rng.integers(0, 10)))
        for _ in range(10_000)
    ]
    single = analyze(captions)
    shards = [CorpusAccumulator() for _ in range(5)]
    for i, caption in enumerate(captions):
        shards[i % 5].add(caption)
    merged_acc = shards[0]
    for shard in shards[1:]:
        merged_acc = merged_acc.merge(shard)
    merged = merged_acc.report()
    if merged != single:
        failures.append("shard merge differs from single pass")

    note("corpus-stats", not failures,
         "; ".join(failures) or "hand fixture exact, 10k shard-merge equals single pass")


# -------------------------------------------------------------------- 9. checkpoint round-trip


def test_checkpoint_roundtrip_50_steps(tmp_path):
    records = generate_synthetic(num_classes=4, per_class=100, seed=4)  # 100 steps/epoch

    whole = _micro_run(tmp_path / "whole", records, epochs=1, stop_after_steps=60)
    part = _micro_run(tmp_path / "part", records, epochs=1, stop_after_steps=10)
    resumed = _micro_run(
        tmp_path / "part", records, epochs=1, stop_after_steps=50,
        resume_from=part.final_path,
    )
    assert resumed.steps_run == 60  # cumulative: 10 before the interrupt + 50 after

    logs_equal = whole.metrics_path.read_bytes() == resumed.metrics_path.read_bytes()
    ckpts_equal = filecmp.cmp(whole.final_path, resumed.final_path, shallow=False)
    note(
        "checkpoint-roundtrip",
        logs_equal and ckpts_equal,
        f"50 post-resume steps: metrics byte-equal={logs_equal}, "
        f"final checkpoints byte-equal={ckpts_equal}",
    )


# -------------------------------------------------------------------- 10. verify command


def test_verify_command(capsys):
    pristine = cli_main(["verify"])
    out = capsys.readouterr().out
    results = {"pristine": pristine}
    named = True
    for fault, oracle in (
        ("filip-tiebreak", "filip.tiebreak"),
        ("softmax-stability", "softmax.stability"),
        ("queue-fifo", "queue.fifo"),
    ):
        rc = cli_main(["verify", f"--break-{fault}"])
        fault_out = capsys.readouterr().out
        results[fault] = rc
        named = named and f"FAIL {oracle}" in fault_out
    ok = (
        results["pristine"] == 0
        and all(results[f] == 1 for f in ("filip-tiebreak", "softmax-stability", "queue-fifo"))
        and named
    )
    note(
        "verify-command",
        ok,
        f"pristine rc={results['pristine']}; faults rc=" +
        ",".join(str(results[f]) for f in ("filip-tiebreak", "softmax-stability", "queue-fifo")) +
        "; each failure names its oracle",
    )
