"""Training loop: any supervision variant over the paired dataset.

One optimizer step per batch, linear-warmup cosine schedule, decoupled
weight decay, temperature clamping after every step, zero-shot validation
after every epoch. Runs are pure functions of (configs, dataset, seed):
metrics logs and checkpoints are byte-identical across repeats, and a
checkpoint resume continues the interrupted trajectory bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .augment import ImageAugPolicy, TextAugPolicy, augment_image, augment_text, default_synonyms
from .checkpoint import (
    STATE_TAG,
    VOCAB_TAG,
    decode_train_state,
    decode_vocab,
    encode_train_state,
    encode_vocab,
    load_checkpoint,
    save_checkpoint,
    write_atomic,
)
from .config import TrainConfig, parse_config_text, render_config_text
from .data import (
    PairRecord,
    Vocab,
    encode_batch,
    iter_batches,
    load_images,
    tokenize_words,
)
from .encoders import ConvConfig, ConvEncoder, DualEncoder, TextConfig, TextEncoder, VitConfig, VitEncoder
from .errors import CheckpointError, ConfigError, ContractError, TrainingAborted
from .losses import (
    LossBreakdown,
    LossConfig,
    NNQueue,
    clip_loss,
    combine_terms,
    make_mlm_batch,
    masked_token_loss,
    multiview_loss,
    neighbor_supervision_loss,
    nt_xent_loss,
    tokenwise_alignment_loss,
)
from .optim import AdamW, lr_at
from .seeding import rng_for
from .zeroshot import PromptSet, desk_prompts, evaluate


@dataclass
class TrainResult:
    final_path: Path
    best_path: Path | None
    metrics_path: Path
    final_accuracy: float
    best_accuracy: float
    steps_run: int
    aborted: bool = False
    abort_reason: str = ""


def build_model(train_cfg: TrainConfig, image_cfg, text_cfg: TextConfig) -> DualEncoder:
    rng = rng_for(train_cfg.seed, "init")
    if train_cfg.image_encoder == "vit":
        if not isinstance(image_cfg, VitConfig):
            raise ConfigError("image_encoder 'vit' needs a VitConfig")
        image = VitEncoder(image_cfg, rng)
    else:
        if not isinstance(image_cfg, ConvConfig):
            raise ConfigError("image_encoder 'conv' needs a ConvConfig")
        image = ConvEncoder(image_cfg, rng)
    return DualEncoder(image, TextEncoder(text_cfg, rng))


MLM_HEAD_PREFIX = "text.mlm_head."


def trainable_parameters(model: DualEncoder, variant: str) -> list:
    """Parameters that receive gradients under the given variant.

    The masked-token head only feeds the text_mlm term, so variants whose
    term table lacks it leave the head out of the optimizer entirely (no
    decay, no updates). Everything else participates every step.
    """
    named = list(model.named_parameters())
    if "text_mlm" in LossConfig(variant=variant).term_weights():
        return named
    return [(n, p) for n, p in named if not n.startswith(MLM_HEAD_PREFIX)]


# per-step view assembly -----------------------------------------------------------


@dataclass
class StepViews:
    images: np.ndarray                 # (N, 3, S, S) base view
    ids: np.ndarray                    # (N, L) base captions
    aug1: np.ndarray | None = None     # strong augmented image views
    aug2: np.ndarray | None = None
    ids_aug: np.ndarray | None = None  # augmented captions


def assemble_views(
    records: list[PairRecord],
    train_cfg: TrainConfig,
    loss_cfg: LossConfig,
    text_cfg: TextConfig,
    vocab: Vocab,
    image_size: int,
    img_policy: ImageAugPolicy,
    txt_policy: TextAugPolicy,
    epoch: int,
    step: int,
) -> StepViews:
    base = load_images(records, image_size)
    captions = [r.caption for r in records]
    views = StepViews(base, encode_batch(captions, vocab, text_cfg.context_length))
    weights = loss_cfg.term_weights()
    if "image_ssl" in weights or "multiview" in weights:
        seeds = rng_for(train_cfg.seed, "augimg", epoch, step).integers(0, 2**63 - 1, size=(len(records), 2))
        views.aug1 = np.stack([augment_image(base[i], img_policy, int(seeds[i, 0])) for i in range(len(records))])
        views.aug2 = np.stack([augment_image(base[i], img_policy, int(seeds[i, 1])) for i in range(len(records))])
    if "multiview" in weights:
        tseeds = rng_for(train_cfg.seed, "augtxt", epoch, step).integers(0, 2**63 - 1, size=len(records))
        edited = [
            " ".join(augment_text(tokenize_words(c), txt_policy, int(s)))
            for c, s in zip(captions, tseeds)
        ]
        views.ids_aug = encode_batch(edited, vocab, text_cfg.context_length)
    return views


def compute_step_loss(
    model: DualEncoder,
    views: StepViews,
    loss_cfg: LossConfig,
    queue: NNQueue,
    vocab_size: int,
    mlm_rng: np.random.Generator,
) -> LossBreakdown:
    """Forward pass computing exactly the terms ``loss_cfg.term_weights()`` names."""
    weights = loss_cfg.term_weights()
    temperature = model.temperature()
    img_set = model.encode_image(T.Tensor(views.images))
    txt_set = model.encode_text(views.ids)
    terms: dict[str, T.Tensor] = {}
    diagnostics: dict[str, float] = {}
    counters: dict[str, int] = {}
    if "clip" in weights:
        base = clip_loss(img_set, txt_set, temperature)
        terms["clip"] = base.terms["clip"]
        diagnostics = base.diagnostics
    if "image_ssl" in weights or "multiview" in weights:
        aug1 = model.encode_image(T.Tensor(views.aug1)).pooled
        aug2 = model.encode_image(T.Tensor(views.aug2)).pooled
    if "image_ssl" in weights:
        terms["image_ssl"] = nt_xent_loss(aug1, aug2, loss_cfg.ssl_temperature)
    if "text_mlm" in weights:
        mlm = make_mlm_batch(views.ids, vocab_size, mlm_rng)
        terms["text_mlm"], counters["text_mlm_skipped"] = masked_token_loss(model.text, mlm)
    if "multiview" in weights:
        txt_aug = model.encode_text(views.ids_aug).pooled
        terms["multiview"] = multiview_loss(img_set.pooled, aug1, txt_set.pooled, txt_aug, temperature)
    if "neighbor" in weights:
        terms["neighbor"], counters["neighbor_cold"] = neighbor_supervision_loss(
            img_set.pooled, txt_set.pooled, queue, temperature
        )
    if "token_align" in weights:
        terms["token_align"] = tokenwise_alignment_loss(
            img_set, txt_set, temperature, loss_cfg.filip_token_fraction
        )
    return combine_terms(terms, weights, diagnostics=diagnostics, counters=counters)


# checkpoint plumbing ---------------------------------------------------------------


def _model_tensors(model: DualEncoder) -> dict[str, np.ndarray]:
    return {name: p.data for name, p in model.named_parameters()}


def _restore_model(model: DualEncoder, tensors: dict[str, np.ndarray]) -> None:
    names = dict(model.named_parameters())
    if set(names) != set(tensors):
        missing = set(names) ^ set(tensors)
        raise CheckpointError(f"parameter names do not match the model: {sorted(missing)[:4]}...")
    for name, p in names.items():
        if tensors[name].shape != p.data.shape:
            raise CheckpointError(f"shape mismatch for {name!r}")
        p.data = tensors[name].copy()


def save_training_checkpoint(
    path: Path,
    model: DualEncoder,
    config_text: str,
    vocab: Vocab,
    optimizer: AdamW,
    queue: NNQueue,
    epoch: int,
    step_in_epoch: int,
    global_step: int,
    best_accuracy: float,
) -> None:
    adam_t, m, v = optimizer.state()
    queue_buffer, queue_fill, queue_head = queue.state()
    state = encode_train_state(
        epoch,
        step_in_epoch,
        global_step,
        best_accuracy,
        adam_t,
        m,
        v,
        queue_buffer,
        queue_fill,
        queue_head,
        queue.capacity,
    )
    blocks = {VOCAB_TAG: encode_vocab(vocab.token_to_id), STATE_TAG: state}
    save_checkpoint(path, config_text, _model_tensors(model), blocks)


def _checkpoint_vocab(blocks: dict[bytes, bytes], path) -> Vocab:
    if VOCAB_TAG not in blocks:
        raise CheckpointError(f"{path}: missing vocabulary block")
    try:
        return Vocab(decode_vocab(blocks[VOCAB_TAG]))
    except ConfigError as err:
        raise CheckpointError(f"{path}: vocabulary block does not build a vocabulary: {err}") from err


def load_model_for_eval(path: str | Path):
    """(model, vocab, configs) from a checkpoint, ready for inference."""
    config_text, tensors, blocks = load_checkpoint(path)
    try:
        train_cfg, loss_cfg, image_cfg, text_cfg = parse_config_text(config_text)
    except ConfigError as err:
        raise CheckpointError(f"{path}: embedded config does not parse: {err}") from err
    model = build_model(train_cfg, image_cfg, text_cfg)
    _restore_model(model, tensors)
    vocab = _checkpoint_vocab(blocks, path)
    return model, vocab, (train_cfg, loss_cfg, image_cfg, text_cfg)


# the loop -------------------------------------------------------------------------


def _cut_log(path: Path, global_step: int, epoch: int) -> None:
    """Keep the log lines a checkpoint at (``epoch``, ``global_step``) covers.

    Those are the ``step=N`` lines with N < global_step and the
    ``epoch=E`` lines with E < epoch; anything later, an ``abort`` line or
    a line cut short by a kill is dropped, so the resumed run appends
    exactly what an uninterrupted run would have written next.
    """
    if not path.exists():
        return
    limits = {"step": global_step, "epoch": epoch}
    kept = []
    for line in path.read_text(encoding="utf-8").splitlines(keepends=True):
        key, _, rest = line.partition("=")
        number = rest.split(" ", 1)[0].rstrip("\n")
        if key in limits and line.endswith("\n") and number.isdigit() and int(number) < limits[key]:
            kept.append(line)
    write_atomic(path, "".join(kept).encode("utf-8"))


def train(
    run_dir: str | Path,
    train_records: list[PairRecord],
    val_records: list[PairRecord],
    class_names: list[str],
    train_cfg: TrainConfig,
    loss_cfg: LossConfig,
    image_cfg,
    text_cfg: TextConfig,
    prompts: PromptSet | None = None,
    resume_from: str | Path | None = None,
    stop_after_steps: int | None = None,
) -> TrainResult:
    """Run the configured variant; see TrainResult for what comes back.

    ``stop_after_steps`` ends the invocation early after that many
    optimizer steps (counters land in the checkpoint, so a later call with
    ``resume_from`` picks up exactly where this one stopped). It is not
    part of the run's config: interrupted and uninterrupted runs share one
    config identity.
    """
    if not train_records:
        raise ConfigError("training set is empty")
    if train_cfg.variant != loss_cfg.variant:
        raise ConfigError(
            f"variant mismatch: train={train_cfg.variant!r} loss={loss_cfg.variant!r}"
        )
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    prompts = prompts or desk_prompts()
    image_size = image_cfg.image_size

    steps_per_epoch = len(train_records) // train_cfg.batch_size
    if train_cfg.epochs > 0 and steps_per_epoch == 0:
        raise ConfigError(
            f"batch_size {train_cfg.batch_size} exceeds the {len(train_records)}-record training set"
        )
    total_steps = train_cfg.epochs * steps_per_epoch
    warmup_steps = math.ceil(train_cfg.warmup_epochs * steps_per_epoch)

    config_text = render_config_text(train_cfg, loss_cfg, image_cfg, text_cfg)
    (run_dir / "config.resolved").write_text(config_text + "\n", encoding="utf-8")

    vocab = Vocab.build((r.caption for r in train_records), text_cfg.vocab_size)
    model = build_model(train_cfg, image_cfg, text_cfg)
    optimizer = AdamW(
        trainable_parameters(model, train_cfg.variant),
        weight_decay=train_cfg.weight_decay,
        betas=(train_cfg.beta1, train_cfg.beta2),
        eps=train_cfg.eps,
    )
    queue = NNQueue(loss_cfg.neighbor_queue_capacity)
    img_policy = ImageAugPolicy()
    txt_policy = TextAugPolicy(synonyms=default_synonyms())

    start_epoch = 0
    start_step = 0
    global_step = 0
    best_accuracy = -1.0

    metrics_path = run_dir / "metrics.log"
    final_path = run_dir / "final.ckpt"
    best_path = run_dir / "best.ckpt"

    if resume_from is not None:
        ck_config, tensors, blocks = load_checkpoint(resume_from)
        if ck_config != config_text:
            raise CheckpointError(
                f"{resume_from}: checkpoint config does not match this run's config"
            )
        if STATE_TAG not in blocks or VOCAB_TAG not in blocks:
            raise CheckpointError(f"{resume_from}: missing train-state or vocabulary block")
        _restore_model(model, tensors)
        vocab = _checkpoint_vocab(blocks, resume_from)
        state = decode_train_state(blocks[STATE_TAG])
        try:
            optimizer.load_state(state["adam_t"], state["moments_m"], state["moments_v"])
        except ConfigError as err:
            raise CheckpointError(f"{resume_from}: {err}") from err
        queue = NNQueue(state["queue_capacity"])
        queue.load_state(state["queue_buffer"], state["queue_fill"], state["queue_head"])
        start_epoch = state["epoch"]
        start_step = state["step_in_epoch"]
        global_step = state["global_step"]
        best_accuracy = state["best_accuracy"]
        _cut_log(metrics_path, global_step, start_epoch)

    log = open(metrics_path, "a" if resume_from else "w", encoding="utf-8")

    def snapshot(path: Path, epoch: int, step_in_epoch: int) -> None:
        save_training_checkpoint(
            path, model, config_text, vocab, optimizer, queue,
            epoch, step_in_epoch, global_step, best_accuracy,
        )

    def run_eval() -> float:
        if not val_records:
            return 0.0
        accuracy, _, _ = evaluate(
            model, val_records, class_names, prompts, vocab,
            text_cfg.context_length, image_size, train_cfg.batch_size,
        )
        return accuracy

    final_accuracy = 0.0
    steps_this_call = 0
    try:
        for epoch in range(start_epoch, train_cfg.epochs):
            for step, batch in enumerate(iter_batches(train_records, train_cfg.batch_size, train_cfg.seed, epoch)):
                if epoch == start_epoch and step < start_step:
                    continue
                views = assemble_views(
                    batch, train_cfg, loss_cfg, text_cfg, vocab, image_size,
                    img_policy, txt_policy, epoch, step,
                )
                mlm_rng = rng_for(train_cfg.seed, "mlm", epoch, step)
                queue_before = queue.state()  # the step enqueues before it can fail
                model.zero_grad()
                try:
                    breakdown = compute_step_loss(model, views, loss_cfg, queue, len(vocab), mlm_rng)
                except ContractError as err:
                    raise TrainingAborted(f"loss diverged at step {global_step}: {err}") from err
                lr = lr_at(global_step, warmup_steps, total_steps, train_cfg.base_lr, train_cfg.peak_lr)
                T.backward(breakdown.total)
                optimizer.step(lr)
                model.clamp_temperature()
                log.write(f"{breakdown.log_line(global_step)} lr={lr:.8f}\n")
                global_step += 1
                steps_this_call += 1
                if stop_after_steps is not None and steps_this_call >= stop_after_steps:
                    log.close()
                    snapshot(final_path, epoch, step + 1)
                    return TrainResult(
                        final_path, best_path if best_path.exists() else None, metrics_path,
                        final_accuracy, max(best_accuracy, 0.0), global_step,
                    )
            accuracy = run_eval()
            final_accuracy = accuracy
            log.write(f"epoch={epoch} val_top1={accuracy:.4f}\n")
            log.flush()
            if accuracy > best_accuracy:
                best_accuracy = accuracy
                snapshot(best_path, epoch + 1, 0)
    except TrainingAborted as err:
        # parameters were not touched by the failing step: keep them, put the
        # queue back, and record the failing step as the one a resume runs next
        queue.load_state(*queue_before)
        log.write(f"abort reason={err}\n")
        log.close()
        snapshot(final_path, epoch, step)
        return TrainResult(
            final_path, best_path if best_accuracy >= 0 else None, metrics_path,
            final_accuracy, max(best_accuracy, 0.0), global_step,
            aborted=True, abort_reason=str(err),
        )

    log.close()
    snapshot(final_path, train_cfg.epochs, 0)
    return TrainResult(
        final_path,
        best_path if best_path.exists() else None,
        metrics_path,
        final_accuracy,
        max(best_accuracy, 0.0),
        global_step,
    )
