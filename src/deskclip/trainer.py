"""Training loop: any supervision variant over the paired dataset.

One optimizer step per batch, linear-warmup cosine schedule, decoupled
weight decay, temperature clamping after every step, zero-shot validation
after every epoch. Runs are pure functions of (configs, dataset, seed):
metrics logs and checkpoints are byte-identical across repeats, and a
checkpoint resume continues the interrupted trajectory bitwise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .augment import ImageAugPolicy, TextAugPolicy, augment_image, augment_text, default_synonyms
from .checkpoint import load_checkpoint, save_checkpoint, write_atomic
from .config import TrainConfig, parse_config_text, render_config_text
from .data import (
    PairRecord,
    Vocab,
    check_images,
    encode_batch,
    iter_batches,
    load_images,
    tokenize_words,
)
from .encoders import IMAGE_TOWERS, ConvEncoder, DualEncoder, TextConfig, TextEncoder
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
    """The ``train.image_encoder`` tower of ``encoders.IMAGE_TOWERS`` and a text tower.

    ``image_cfg`` must be that tower's config class (ConfigError otherwise). The
    image tower draws from the seed's init stream first, then the text tower.
    """
    config_class, tower = IMAGE_TOWERS[train_cfg.image_encoder]
    if not isinstance(image_cfg, config_class):
        raise ConfigError(f"image_encoder {train_cfg.image_encoder!r} needs a {config_class.__name__}")
    rng = rng_for(train_cfg.seed, "init")
    return DualEncoder(tower(image_cfg, rng), TextEncoder(text_cfg, rng))


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
        if isinstance(model.image, ConvEncoder):
            warnings.warn("token-wise alignment over overlapping receptive fields: neighbouring image "
                          "tokens share input pixels, so per-token matches are correlated", stacklevel=2)
        terms["token_align"] = tokenwise_alignment_loss(
            img_set, txt_set, temperature, loss_cfg.filip_token_fraction
        )
    return combine_terms(terms, weights, diagnostics=diagnostics, counters=counters)


# checkpoint plumbing ---------------------------------------------------------------

# A training checkpoint holds the run state as arrays beside the model's
# parameters: the Adam moments as "optim.m.<param>" and "optim.v.<param>", the
# neighbour queue as "queue.buffer" (capacity, dim), and COUNTERS in order as
# "run.counters". Float64 holds each counter exactly.
COUNTERS = ("epoch", "step_in_epoch", "global_step", "best_accuracy", "adam_t", "queue_fill", "queue_head")


def _fresh_run(train_cfg: TrainConfig, loss_cfg: LossConfig, image_cfg, text_cfg: TextConfig):
    """A new run's (model, optimizer, queue)."""
    model = build_model(train_cfg, image_cfg, text_cfg)
    optimizer = AdamW(
        trainable_parameters(model, train_cfg.variant),
        weight_decay=train_cfg.weight_decay,
        betas=(train_cfg.beta1, train_cfg.beta2),
        eps=train_cfg.eps,
    )
    return model, optimizer, NNQueue(loss_cfg.neighbor_queue_capacity)


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
    arrays = {name: p.data for name, p in model.named_parameters()}
    arrays.update({f"optim.m.{name}": moment for name, moment in m.items()})
    arrays.update({f"optim.v.{name}": moment for name, moment in v.items()})
    arrays["queue.buffer"] = queue_buffer
    arrays["run.counters"] = np.array(
        [epoch, step_in_epoch, global_step, best_accuracy, adam_t, queue_fill, queue_head], dtype=np.float64
    )
    save_checkpoint(path, config_text, arrays, vocab.token_to_id)


def _pop_prefixed(arrays: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    return {name[len(prefix) :]: arrays.pop(name) for name in list(arrays) if name.startswith(prefix)}


def load_training_checkpoint(path: str | Path, expected_config: str | None = None):
    """(model, vocab, configs, optimizer, queue, counters) restored from a checkpoint.

    The run-state arrays restore the optimizer, the queue and the COUNTERS;
    the arrays left over must be exactly the model's parameters. Everything
    is checked before anything is returned, so a bad file is never half
    loaded. With ``expected_config``, the embedded config text must equal it.
    """
    config_text, arrays, token_to_id = load_checkpoint(path)
    try:
        configs = parse_config_text(config_text)
    except ConfigError as err:
        raise CheckpointError(f"{path}: embedded config does not parse: {err}") from err
    if expected_config is not None and config_text != expected_config:
        raise CheckpointError(f"{path}: checkpoint config does not match this run's config")
    try:
        vocab = Vocab(token_to_id)
    except ConfigError as err:
        raise CheckpointError(f"{path}: vocabulary does not build a vocabulary: {err}") from err
    if max(token_to_id.values()) >= configs[3].vocab_size:
        raise CheckpointError(f"{path}: vocabulary ids reach past text.vocab_size={configs[3].vocab_size}")
    values = arrays.pop("run.counters", np.zeros(0))
    if values.shape != (len(COUNTERS),):
        raise CheckpointError(f"{path}: run.counters must hold {len(COUNTERS)} values, {', '.join(COUNTERS)}")
    counters = dict(zip(COUNTERS, values.tolist()))
    for name, value in counters.items():
        if name == "best_accuracy":
            if not (value == -1.0 or 0.0 <= value <= 1.0):
                raise CheckpointError(f"{path}: counter best_accuracy={value} is neither -1 nor in [0, 1]")
        elif not (value >= 0 and float(value).is_integer()):
            raise CheckpointError(f"{path}: counter {name}={value} is not a non-negative integer")
        else:
            counters[name] = int(value)
    queue_buffer = arrays.pop("queue.buffer", np.zeros(0))
    width = queue_buffer.shape[1] if queue_buffer.ndim == 2 else 0
    if width not in (0, configs[3].embed_dim):
        raise CheckpointError(f"{path}: queue width {width} is not text.embed_dim={configs[3].embed_dim}")
    # what is left is the parameters and the Adam moments
    for name, values in arrays.items():
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: {name} holds a value that is not finite")
    model, optimizer, queue = _fresh_run(*configs)
    try:
        optimizer.load_state(
            counters["adam_t"], _pop_prefixed(arrays, "optim.m."), _pop_prefixed(arrays, "optim.v.")
        )
        queue.load_state(queue_buffer, counters["queue_fill"], counters["queue_head"])
    except ConfigError as err:
        raise CheckpointError(f"{path}: {err}") from err
    params = dict(model.named_parameters())
    if set(params) != set(arrays):
        unmatched = sorted(set(params) ^ set(arrays))[:4]
        raise CheckpointError(f"{path}: parameter names do not match the model: {unmatched}")
    for name, p in params.items():
        if arrays[name].shape != p.data.shape:
            raise CheckpointError(f"{path}: shape mismatch for {name!r}")
        p.data = arrays[name]
    return model, vocab, configs, optimizer, queue, counters


def load_model_for_eval(path: str | Path):
    """(model, vocab, configs) from a checkpoint, ready for inference."""
    model, vocab, configs, _, _, _ = load_training_checkpoint(path)
    return model, vocab, configs


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


def preflight(train_records: list[PairRecord], val_records: list[PairRecord], train_cfg: TrainConfig,
              loss_cfg: LossConfig, image_cfg, text_cfg: TextConfig):
    """Every check of its data and config a run makes before it writes anything, and
    what they fix: (config text, steps per epoch, total steps, warmup steps). A sweep
    calls it for every run before its first run starts, and `train` calls it first."""
    if not train_records:
        raise ConfigError("training set is empty")
    if train_cfg.variant != loss_cfg.variant:
        raise ConfigError(f"variant mismatch: train={train_cfg.variant!r} loss={loss_cfg.variant!r}")
    steps_per_epoch = len(train_records) // train_cfg.batch_size
    if train_cfg.epochs > 0 and steps_per_epoch == 0:
        raise ConfigError(f"batch_size {train_cfg.batch_size} exceeds the {len(train_records)}-record training set")
    config_text = render_config_text(train_cfg, loss_cfg, image_cfg, text_cfg)
    check_images(train_records + val_records, image_cfg.image_size)
    total_steps = train_cfg.epochs * steps_per_epoch
    return config_text, steps_per_epoch, total_steps, math.ceil(train_cfg.warmup_epochs * steps_per_epoch)


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

    ``stop_after_steps`` (at least 1) ends the invocation early after that
    many optimizer steps (counters land in the checkpoint, so a later call with
    ``resume_from`` picks up exactly where this one stopped). It is not
    part of the run's config: interrupted and uninterrupted runs share one
    config identity.
    """
    if stop_after_steps is not None and stop_after_steps < 1:
        raise ConfigError(f"stop_after_steps must be at least 1, got {stop_after_steps}")
    config_text, steps_per_epoch, total_steps, warmup_steps = preflight(
        train_records, val_records, train_cfg, loss_cfg, image_cfg, text_cfg)
    run_dir = Path(run_dir)
    prompts = prompts or desk_prompts()

    metrics_path = run_dir / "metrics.log"
    final_path = run_dir / "final.ckpt"
    best_path = run_dir / "best.ckpt"

    if resume_from is None:
        vocab = Vocab.build((r.caption for r in train_records), text_cfg.vocab_size)
        model, optimizer, queue = _fresh_run(train_cfg, loss_cfg, image_cfg, text_cfg)
        start_epoch = start_step = global_step = 0
        best_accuracy = -1.0
    else:
        model, vocab, _, optimizer, queue, counters = load_training_checkpoint(resume_from, config_text)
        start_epoch, start_step = counters["epoch"], counters["step_in_epoch"]
        global_step, best_accuracy = counters["global_step"], counters["best_accuracy"]
        # every checkpoint a run writes is on its schedule, at (epochs, 0) at the latest
        if (start_step > steps_per_epoch or (start_epoch, start_step) > (train_cfg.epochs, 0)
                or global_step != start_epoch * steps_per_epoch + start_step):
            raise CheckpointError(f"{resume_from}: epoch={start_epoch} step_in_epoch={start_step} global_step="
                                  f"{global_step} is off the schedule of this training set "
                                  f"({train_cfg.epochs} epochs of {steps_per_epoch} steps)")
    # the inputs and the run state are checked, so the run directory is written from here on
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.resolved").write_text(config_text + "\n", encoding="utf-8")
    if resume_from is not None:
        _cut_log(metrics_path, global_step, start_epoch)
    img_policy = ImageAugPolicy()
    txt_policy = TextAugPolicy(synonyms=default_synonyms())

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
            text_cfg.context_length, image_cfg.image_size, train_cfg.batch_size,
        )
        return accuracy

    final_accuracy = 0.0
    steps_this_call = 0
    stopped_at: tuple[int, int] | None = None  # (epoch, step) a resume of final.ckpt runs next
    abort_reason: str | None = None
    try:
        for epoch in range(start_epoch, train_cfg.epochs):
            for step, batch in enumerate(iter_batches(train_records, train_cfg.batch_size, train_cfg.seed, epoch)):
                if epoch == start_epoch and step < start_step:
                    continue
                views = assemble_views(
                    batch, train_cfg, loss_cfg, text_cfg, vocab, image_cfg.image_size,
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
                    stopped_at = (epoch, step + 1)
                    break
            if stopped_at is not None:
                break
            accuracy = run_eval()
            final_accuracy = accuracy
            log.write(f"epoch={epoch} val_top1={accuracy:.4f}\n")
            log.flush()
            if val_records and accuracy > best_accuracy:
                best_accuracy = accuracy
                snapshot(best_path, epoch + 1, 0)
    except TrainingAborted as err:
        # parameters were not touched by the failing step: keep them, put the
        # queue back, and record the failing step as the one a resume runs next
        queue.load_state(*queue_before)
        log.write(f"abort reason={err}\n")
        abort_reason = str(err)
        stopped_at = (epoch, step)
    finally:
        log.close()

    snapshot(final_path, *(stopped_at or (train_cfg.epochs, 0)))
    # a best.ckpt left by an earlier run in this directory is not this run's,
    # and a best accuracy resumed from elsewhere names no file here
    has_best = best_accuracy >= 0 and best_path.exists()
    return TrainResult(
        final_path,
        best_path if has_best else None,
        metrics_path,
        final_accuracy,
        max(best_accuracy, 0.0),
        global_step,
        aborted=abort_reason is not None,
        abort_reason=abort_reason or "",
    )
