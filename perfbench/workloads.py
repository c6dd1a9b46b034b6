"""The benchmark's workloads: inputs made from the seed, set-up, and a timed closed loop.

A workload name is ``train-<encoder>-<variant>`` or ``eval-conv-zeroshot``.
Training runs optimizer steps interleaved with the trainer's epoch-end
zero-shot evaluation on the live model. Evaluation loads a checkpoint
made in set-up and classifies the validation split, as ``deskclip eval``
does. One process runs one workload, one operation at a time.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from deskclip import tensor as T, trainer, zeroshot
from deskclip.augment import ImageAugPolicy, TextAugPolicy, default_synonyms
from deskclip.checkpoint import load_checkpoint
from deskclip.data import PairRecord, Vocab, encode_batch, load_images
from deskclip.encoders import ConvConfig, DualEncoder, TextConfig, VitConfig
from deskclip.losses import LossConfig, NNQueue
from deskclip.optim import AdamW, lr_at

import checks
from tracing import Tracer, graph_stats, layer_metrics, median_span_ms

# the `deskclip synth` layout: 8 classes, 800 train / 200 val pairs
SHAPES = ("circle", "square")
COLORS = ("red", "green", "blue", "yellow")
CAPTION_TEMPLATES = (
    "a photo of a {label}",
    "a blurry photo of a {label}",
    "a drawing of a {label}",
    "an image of a {label}",
    "the {label} in the picture",
)
NUM_TRAIN = 800
NUM_VAL = 200
BATCH = 64          # the acceptance recipe's batch
IMAGE_SIZE = 32
STEPS_PER_EPOCH = NUM_TRAIN // BATCH
# the desk-scale recipe of scripts/run_benchmark.py: 10 epochs, 2 of warmup
BASE_LR, PEAK_LR = 1e-4, 6e-4
WARMUP_STEPS, TOTAL_STEPS = 2 * STEPS_PER_EPOCH, 10 * STEPS_PER_EPOCH
WEIGHT_DECAY, BETAS, ADAM_EPS = 0.1, (0.9, 0.999), 1e-8

BUILD_REPEATS = 3    # set-up is built this many times; setup_s takes the median
EVAL_SHARE = 0.2     # of a training run's seconds spent in epoch-end eval passes
MIN_EVAL_PASSES = 3
MIN_STEPS = 2        # a traced run needs one traced and one untraced step
MIN_ROUNDS = 2
FD_STEP = 1e-6       # parameter-space length of the finite-difference probe
CHECK_BATCH = 40     # second eval batch size, which does not divide the split


@dataclass(frozen=True)
class Workload:
    kind: str        # train | eval
    encoder: str     # conv | vit
    variant: str

    @classmethod
    def parse(cls, name: str) -> "Workload":
        if name == "eval-conv-zeroshot":
            return cls("eval", "conv", "clip")
        kind, _, rest = name.partition("-")
        encoder, _, variant = rest.partition("-")
        if kind == "train" and encoder in ("conv", "vit") and variant in ("clip", "declip", "defilip"):
            return cls("train", encoder, variant)
        raise ValueError(
            f"unknown workload {name!r}: expected eval-conv-zeroshot or train-(conv|vit)-(clip|declip|defilip)"
        )


@dataclass
class Inputs:
    train: list[PairRecord]
    val: list[PairRecord]
    class_names: list[str]
    val_labels: np.ndarray


def class_label(k: int) -> str:
    return f"{COLORS[k % len(COLORS)]} {SHAPES[k // len(COLORS)]}"


def make_inputs(seed: int) -> Inputs:
    """Synthetic shape/caption pairs; the same seed gives the same pairs."""
    rng = np.random.default_rng([seed, 1])
    num_classes = len(SHAPES) * len(COLORS)

    def records(n: int) -> list[PairRecord]:
        out = []
        for i in range(n):
            k = i % num_classes
            image_seed = int(rng.integers(0, 2**31 - 1))
            template = int(rng.integers(len(CAPTION_TEMPLATES)))
            source = f"synthetic:class={k};seed={image_seed};template={template}"
            out.append(PairRecord(source, CAPTION_TEMPLATES[template].format(label=class_label(k)), k))
        return out

    train, val = records(NUM_TRAIN), records(NUM_VAL)
    names = [class_label(k) for k in range(num_classes)]
    return Inputs(train, val, names, np.asarray([r.label for r in val]))


class Session:
    """Everything set-up builds: inputs, vocabulary, model, optimizer, queue."""

    def __init__(self, workload: Workload, seed: int, text_depth: int):
        self.workload = workload
        self.seed = seed
        self.inputs = make_inputs(seed)
        self.train_cfg = trainer.TrainConfig(
            variant=workload.variant, image_encoder=workload.encoder, batch_size=BATCH, seed=seed,
            base_lr=BASE_LR, peak_lr=PEAK_LR, weight_decay=WEIGHT_DECAY,
            beta1=BETAS[0], beta2=BETAS[1], eps=ADAM_EPS,
        )
        self.loss_cfg = LossConfig(variant=workload.variant)
        self.image_cfg = ConvConfig() if workload.encoder == "conv" else VitConfig()
        self.text_cfg = replace(TextConfig(), depth=text_depth)
        self.vocab = Vocab.build((r.caption for r in self.inputs.train), self.text_cfg.vocab_size)
        self.model: DualEncoder = trainer.build_model(self.train_cfg, self.image_cfg, self.text_cfg)
        self.optimizer = AdamW(
            trainer.trainable_parameters(self.model, workload.variant),
            weight_decay=WEIGHT_DECAY, betas=BETAS, eps=ADAM_EPS,
        )
        self.queue = NNQueue(self.loss_cfg.neighbor_queue_capacity)
        self.img_policy = ImageAugPolicy()
        self.txt_policy = TextAugPolicy(synonyms=default_synonyms())
        self.prompts = zeroshot.desk_prompts()
        self.config_text = trainer.render_config_text(self.train_cfg, self.loss_cfg, self.image_cfg, self.text_cfg)
        self.steps = 0

    def batch(self, step: int) -> list[PairRecord]:
        epoch, within = divmod(step, STEPS_PER_EPOCH)
        order = np.random.default_rng([self.seed, 2, epoch]).permutation(NUM_TRAIN)
        return [self.inputs.train[i] for i in order[within * BATCH : (within + 1) * BATCH]]

    def mlm_rng(self, step: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, 3, step])

    def views(self, step: int):
        epoch, within = divmod(step, STEPS_PER_EPOCH)
        return trainer.assemble_views(
            self.batch(step), self.train_cfg, self.loss_cfg, self.text_cfg, self.vocab, IMAGE_SIZE,
            self.img_policy, self.txt_policy, epoch, within,
        )

    def loss(self, views, step: int):
        return trainer.compute_step_loss(self.model, views, self.loss_cfg, self.queue, len(self.vocab), self.mlm_rng(step))


class Run:
    """One process's run: the measurements, the check outcomes and the counts."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool, text_depth: int,
                 process_start: float, results_dir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.text_depth = text_depth
        self.process_start = process_start
        self.results_dir = results_dir
        self.check_seconds = 0.0
        self.failures: list[str] = []
        self.checks_run: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.tracer = Tracer() if trace else None

    # checks --------------------------------------------------------------------------

    def check(self, name: str, fn, *args) -> None:
        started = time.perf_counter()
        try:
            fn(*args)
        except checks.CheckFailed as err:
            self.failures.append(f"{name}: {err}")
        finally:
            self.checks_run.add(name)
            self.check_seconds += time.perf_counter() - started

    def step_checks(self, session: Session, breakdown) -> None:
        terms = {name: float(t.data) for name, t in breakdown.terms.items()}
        self.check("finite_terms", checks.check_finite_terms, terms)
        self.check("weighted_total", checks.check_weighted_total, float(breakdown.total.data), terms,
                   checks.paper_weights(session.workload.variant))
        self.check("temperature_clamp", checks.check_temperature, float(session.model.log_temperature.data))

    # operations ----------------------------------------------------------------------

    def train_step(self, session: Session) -> float:
        """One optimizer step; returns its wall time in seconds."""
        step = session.steps
        lr = lr_at(step, WARMUP_STEPS, TOTAL_STEPS, BASE_LR, PEAK_LR)
        started = time.perf_counter()
        views = session.views(step)
        session.model.zero_grad()
        breakdown = session.loss(views, step)
        T.backward(breakdown.total)
        session.optimizer.step(lr)
        session.model.clamp_temperature()
        elapsed = time.perf_counter() - started
        session.steps += 1
        self.step_checks(session, breakdown)
        return elapsed

    def warmup_step(self, session: Session) -> None:
        """The untimed first step, which also runs the one-step checks."""
        step = session.steps
        lr = lr_at(step, WARMUP_STEPS, TOTAL_STEPS, BASE_LR, PEAK_LR)
        views = session.views(step)
        queue_before = session.queue.state()
        session.model.zero_grad()
        with EmbeddingCapture() as captured:
            breakdown = session.loss(views, step)
        T.backward(breakdown.total)

        # the one-step checks and the probes they need are not set-up time
        started, check_seconds = time.perf_counter(), self.check_seconds
        queue_after = session.queue.state()
        temperature = math.exp(float(session.model.log_temperature.data))
        self._check_terms(session, views, breakdown, captured, temperature)
        del captured
        self._check_directional(session, views, step, queue_before)
        session.queue.load_state(*queue_after)
        named = session.optimizer.named_params
        before = {name: (p.data.copy(), p.grad.copy()) for name, p in named}
        self.check_seconds = check_seconds + time.perf_counter() - started

        session.optimizer.step(lr)
        session.model.clamp_temperature()
        session.steps += 1

        for name, p in named:
            self.check("first_adamw_update", checks.check_first_adamw_update, name,
                       before[name][0], before[name][1], p.data, lr, WEIGHT_DECAY, ADAM_EPS)
        self.step_checks(session, breakdown)

    def _check_terms(self, session: Session, views, breakdown, captured, temperature: float) -> None:
        """Recompute the clip, NT-Xent and token-wise terms from the returned embeddings."""

        def image_set(pixels):
            return next(s for x, s in captured.images if np.array_equal(x, pixels))

        img = image_set(views.images)
        txt = next(s for ids, s in captured.texts if np.array_equal(ids, views.ids))
        terms = breakdown.terms
        self.check("recompute_clip", checks.check_recomputed, "clip", float(terms["clip"].data),
                   checks.clip_term(img.pooled.data, txt.pooled.data, temperature))
        if "image_ssl" in terms:
            want = checks.nt_xent_term(image_set(views.aug1).pooled.data, image_set(views.aug2).pooled.data)
            self.check("recompute_nt_xent", checks.check_recomputed, "image_ssl",
                       float(terms["image_ssl"].data), want)
        if "token_align" in terms:
            want = checks.token_align_term(img.tokens.data, img.mask, txt.tokens.data, txt.mask, temperature)
            self.check("recompute_token_align", checks.check_recomputed, "token_align",
                       float(terms["token_align"].data), want)

    def _check_directional(self, session: Session, views, step: int, queue_before) -> None:
        """Central difference of the total loss along the tape gradient g against ‖g‖²."""
        params = [p for _, p in session.model.named_parameters() if p.grad is not None]
        grads = [p.grad.copy() for p in params]
        origin = [p.data for p in params]
        grad_sq = math.fsum(float(np.vdot(g, g)) for g in grads)
        eps = FD_STEP / math.sqrt(grad_sq) if grad_sq > 0 else FD_STEP
        values = []
        try:
            for sign in (1.0, -1.0):
                for p, x, g in zip(params, origin, grads):
                    p.data = x + sign * eps * g
                session.queue.load_state(*queue_before)
                values.append(float(session.loss(views, step).total.data))
        finally:
            for p, x in zip(params, origin):
                p.data = x
        self.check("directional_derivative", checks.check_directional_derivative,
                   values[0], values[1], eps, grad_sq)

    def eval_pass(self, session: Session) -> float:
        """The trainer's epoch-end evaluation on the live model; returns seconds."""
        started = time.perf_counter()
        accuracy, preds, _ = zeroshot.evaluate(
            session.model, session.inputs.val, session.inputs.class_names, session.prompts,
            session.vocab, session.text_cfg.context_length, IMAGE_SIZE, BATCH,
        )
        elapsed = time.perf_counter() - started
        self.check("accuracy", checks.check_accuracy, accuracy, preds, session.inputs.val_labels)
        return elapsed

    def eval_round(self, session: Session, path: Path):
        """`deskclip eval`: load the checkpoint, classify the split. Returns (seconds, outputs)."""
        started = time.perf_counter()
        model, vocab, (_, _, image_cfg, text_cfg) = trainer.load_model_for_eval(path)
        accuracy, preds, _ = zeroshot.evaluate(
            model, session.inputs.val, session.inputs.class_names, session.prompts,
            vocab, text_cfg.context_length, image_cfg.image_size, BATCH,
        )
        elapsed = time.perf_counter() - started
        self.check("accuracy", checks.check_accuracy, accuracy, preds, session.inputs.val_labels)
        return elapsed, (model, vocab, text_cfg, preds)

    def attempt(self, operations: int, fn, *args):
        """Run one operation; an exception counts its operations as failed."""
        self.attempted += operations
        try:
            return fn(*args)
        except Exception:  # noqa: BLE001 - a failed operation is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += operations
            return None

    def traced(self, root_name: str, fn, *args):
        """Run ``fn`` under a root span with the program wrapped; returns (root, result)."""
        self.tracer.install()
        try:
            root = self.tracer.begin(root_name)
            try:
                result = fn(*args)
            finally:
                self.tracer.end(root)
        finally:
            self.tracer.uninstall()
        return root, result

    # the run -------------------------------------------------------------------------

    def execute(self) -> dict:
        builds = []
        for _ in range(BUILD_REPEATS):
            started = time.perf_counter()
            session = Session(self.workload, self.seed, self.text_depth)
            builds.append(time.perf_counter() - started)
        extra_builds = sum(builds) - statistics.median(builds)

        self.warmup_step(session)
        if self.workload.kind == "train":
            eval_estimate = self.eval_pass(session)
            setup_s = self._setup_seconds(extra_builds)
            measured = self._train_loop(session, eval_estimate)
        else:
            path = self.results_dir / f"{self.workload.kind}-{os.getpid()}.ckpt"
            saved = {name: p.data.copy() for name, p in session.model.named_parameters()}
            trainer.save_training_checkpoint(path, session.model, session.config_text, session.vocab,
                                             session.optimizer, session.queue, 0, 1, 1, -1.0)
            try:
                self.eval_round(session, path)
                setup_s = self._setup_seconds(extra_builds)
                measured = self._eval_loop(session, path, saved)
            finally:
                path.unlink(missing_ok=True)
        measured["setup_s"] = setup_s
        return measured

    def _setup_seconds(self, extra_builds: float) -> float:
        """Process start until now, less the benchmark's checks and the repeated builds."""
        return time.perf_counter() - self.process_start - self.check_seconds - extra_builds

    def _train_loop(self, session: Session, eval_estimate: float) -> dict:
        """Steps, with the epoch-end eval passes spread evenly through the run."""
        step_times, traced_times, step_roots, eval_times, eval_roots = [], [], [], [], []
        passes = max(MIN_EVAL_PASSES, round(EVAL_SHARE * self.seconds / eval_estimate))
        steps = done = 0
        start = time.perf_counter()
        elapsed = 0.0
        while steps < MIN_STEPS or elapsed < self.seconds:
            if done < passes and elapsed >= (done + 0.5) * self.seconds / passes:
                self._eval_pass_op(session, eval_times, eval_roots)
                done += 1
            elif self.trace and steps % 2 == 1:
                result = self.attempt(1, self.traced, "step", self.train_step, session)
                if result is not None:
                    step_roots.append(result[0])
                    traced_times.append(result[1])
                steps += 1
            else:
                step_seconds = self.attempt(1, self.train_step, session)
                if step_seconds is not None:
                    step_times.append(step_seconds)
                steps += 1
            elapsed = time.perf_counter() - start
        for _ in range(done, passes):
            self._eval_pass_op(session, eval_times, eval_roots)
        measured = {"samples": {"step_s": step_times, "traced_step_s": traced_times, "eval_pass_s": eval_times}}
        if self.trace:
            measured["per_layer"] = self._train_layers(session, step_roots, eval_roots, step_times, traced_times)
        else:
            measured["step_ms"] = 1e3 * statistics.median(step_times)
            measured["eval_images_per_s"] = NUM_VAL / statistics.median(eval_times)
        return measured

    def _eval_pass_op(self, session: Session, eval_times: list, eval_roots: list) -> None:
        if self.trace:
            result = self.attempt(NUM_VAL, self.traced, "eval", self.eval_pass, session)
            if result is not None:
                eval_roots.append(result[0])
        else:
            elapsed = self.attempt(NUM_VAL, self.eval_pass, session)
            if elapsed is not None:
                eval_times.append(elapsed)

    def _eval_loop(self, session: Session, path: Path, saved: dict) -> dict:
        round_times, traced_times, roots = [], [], []
        outputs = None
        rounds = 0
        start = time.perf_counter()
        while rounds < MIN_ROUNDS or time.perf_counter() - start < self.seconds:
            rounds += 1
            if self.trace and rounds % 2 == 0:
                result = self.attempt(NUM_VAL, self.traced, "eval", self.eval_round, session, path)
                if result is not None:
                    roots.append(result[0])
                    traced_times.append(result[1][0])
                    outputs = result[1][1]
            else:
                result = self.attempt(NUM_VAL, self.eval_round, session, path)
                if result is not None:
                    round_times.append(result[0])
                    outputs = result[1]
        if outputs is not None:
            self._eval_checks(session, path, saved, outputs)
        measured = {"samples": {"round_s": round_times, "traced_round_s": traced_times}}
        if self.trace:
            metrics, counts = layer_metrics(self.tracer, roots)
            metrics["trace.overhead_pct"] = _overhead_pct(round_times, traced_times)
            model = outputs[0]
            images = T.Tensor(load_images(session.inputs.val[:BATCH], IMAGE_SIZE))
            nodes, mb = graph_stats(model.encode_image(images).pooled, model.parameters())
            metrics["tensor.graph_nodes"], metrics["tensor.graph_mb"] = nodes, mb
            metrics.update(self._checkpoint_metrics(session))
            measured["per_layer"] = (metrics, counts)
        else:
            measured["step_ms"] = 1e3 * statistics.median(round_times)
            measured["eval_images_per_s"] = NUM_VAL / statistics.median(round_times)
        return measured

    def _eval_checks(self, session: Session, path: Path, saved: dict, outputs) -> None:
        model, vocab, text_cfg, preds = outputs
        loaded = {name: p.data for name, p in model.named_parameters()}
        config_text = load_checkpoint(path)[0]
        self.check("checkpoint_roundtrip", checks.check_roundtrip, saved, loaded,
                   session.vocab.token_to_id, vocab.token_to_id, session.config_text, config_text)
        ctx = text_cfg.context_length
        classifier = zeroshot.build_classifier(session.inputs.class_names, session.prompts, model, vocab, ctx)
        per_prompt = [
            np.stack([model.encode_text(encode_batch([p], vocab, ctx)).pooled.data[0] for p in session.prompts.fill(name)])
            for name in session.inputs.class_names
        ]
        self.check("classifier_rows", checks.check_classifier, classifier, per_prompt)
        images = load_images(session.inputs.val, IMAGE_SIZE)
        other = zeroshot.classify(images, classifier, model, CHECK_BATCH)
        self.check("batch_size_invariance", checks.check_same_predictions, preds, other,
                   f"eval batch size {CHECK_BATCH}")

    # traced-run extras ---------------------------------------------------------------

    def _train_layers(self, session, step_roots, eval_roots, step_times, traced_times):
        metrics, counts = layer_metrics(self.tracer, step_roots)
        eval_metrics, _ = layer_metrics(self.tracer, eval_roots)
        for name in ("zeroshot.build_classifier_ms", "zeroshot.classify_ms"):
            metrics[name] = eval_metrics[name]
        metrics["trace.overhead_pct"] = _overhead_pct(step_times, traced_times)
        views = session.views(session.steps)
        breakdown = session.loss(views, session.steps)
        nodes, mb = graph_stats(breakdown.total, session.model.parameters())
        del breakdown
        metrics["tensor.graph_nodes"], metrics["tensor.graph_mb"] = nodes, mb
        metrics.update(self._checkpoint_metrics(session))
        return metrics, counts

    def _checkpoint_metrics(self, session: Session) -> dict:
        """Median traced save and load of the full training checkpoint."""
        path = self.results_dir / f"checkpoint-{os.getpid()}.ckpt"
        since = len(self.tracer.names)
        try:
            for _ in range(3):
                self.traced("checkpoint", trainer.save_training_checkpoint, path, session.model, session.config_text,
                            session.vocab, session.optimizer, session.queue, 0, session.steps, session.steps, -1.0)
                self.traced("checkpoint", trainer.load_model_for_eval, path)
            size_mb = path.stat().st_size / 2**20
        finally:
            path.unlink(missing_ok=True)
        return {
            "checkpoint.save_ms": median_span_ms(self.tracer, "checkpoint.save", since),
            "checkpoint.load_ms": median_span_ms(self.tracer, "checkpoint.load", since),
            "checkpoint.mb": size_mb,
        }


def _overhead_pct(untraced: list[float], traced: list[float]) -> float:
    if not untraced or not traced:
        return 0.0
    base = statistics.median(untraced)
    return 100.0 * (statistics.median(traced) - base) / base


class EmbeddingCapture:
    """Record the inputs and outputs of every encoder call in the block."""

    def __enter__(self):
        self.images: list[tuple[np.ndarray, object]] = []
        self.texts: list[tuple[np.ndarray, object]] = []
        self._originals = (DualEncoder.encode_image, DualEncoder.encode_text)
        encode_image, encode_text = self._originals
        images, texts = self.images, self.texts

        def capture_image(model, pixels):
            out = encode_image(model, pixels)
            images.append((pixels.data, out))
            return out

        def capture_text(model, ids):
            out = encode_text(model, ids)
            texts.append((np.asarray(ids), out))
            return out

        DualEncoder.encode_image, DualEncoder.encode_text = capture_image, capture_text
        return self

    def __exit__(self, *exc):
        DualEncoder.encode_image, DualEncoder.encode_text = self._originals
        return False


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
