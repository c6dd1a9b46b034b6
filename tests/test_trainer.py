from __future__ import annotations

import dataclasses
import filecmp
import os
import struct
import zlib

import numpy as np
import pytest

from deskclip.augment import ImageAugPolicy, TextAugPolicy, default_synonyms
from deskclip.checkpoint import load_checkpoint, save_checkpoint
from deskclip.config import build_run_config, render_config_text
from deskclip.data import Vocab, generate_synthetic
from deskclip.encoders import IMAGE_TOWERS, ConvConfig, TextConfig, VitConfig
from deskclip.errors import CheckpointError, ConfigError, ContractError
from deskclip.losses import VARIANTS, LossConfig, NNQueue
from deskclip.nn import Linear, Module
from deskclip.optim import AdamW
from deskclip.trainer import (
    COUNTERS,
    MLM_HEAD_PREFIX,
    TrainConfig,
    assemble_views,
    build_model,
    compute_step_loss,
    load_model_for_eval,
    load_training_checkpoint,
    save_training_checkpoint,
    train,
    trainable_parameters,
)

MICRO_IMAGE = VitConfig(image_size=16, patch_size=8, width=16, depth=1, heads=2, embed_dim=16)
MICRO_TEXT = TextConfig(vocab_size=64, context_length=12, width=16, depth=1, heads=2, embed_dim=16)


def micro_train_cfg(**kw) -> TrainConfig:
    base = dict(variant="clip", epochs=1, batch_size=4, seed=3, warmup_epochs=0.5,
                peak_lr=1e-3, base_lr=1e-4)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def records():
    return generate_synthetic(num_classes=4, per_class=3, seed=0)


# ---------------------------------------------------------------- checkpoint codec


VOCAB = {"<pad>": 0, "naive": 5, "café": 6, "☃": 7}


def _resealed(body: bytes) -> bytes:
    """``body`` with a fresh CRC-32 trailer, so a corruption reaches the checks past the checksum."""
    return body + struct.pack("<I", zlib.crc32(body))


def test_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "m.ckpt"
    arrays = {
        "w": np.arange(6, dtype=np.float64).reshape(2, 3),
        "scalar": np.asarray(0.07),
        "empty": np.zeros((4, 0)),
    }
    save_checkpoint(path, "a.b=1\nc.d=two", arrays, VOCAB)
    config, loaded, vocab = load_checkpoint(path)
    assert config == "a.b=1\nc.d=two"
    assert list(loaded) == list(arrays)
    assert np.array_equal(loaded["w"], arrays["w"])
    assert loaded["scalar"].shape == () and float(loaded["scalar"]) == 0.07
    assert loaded["empty"].shape == (4, 0)
    assert vocab == VOCAB


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_version_1_before_its_checksum(tmp_path):
    path = tmp_path / "v1.ckpt"
    path.write_bytes(b"DESKCLIP" + struct.pack("<II", 1, 3) + b"k=v" + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="unsupported version 1"):
        load_checkpoint(path)


def test_checkpoint_detects_truncation(tmp_path):
    path = tmp_path / "whole.ckpt"
    save_checkpoint(path, "k=v", {"w": np.ones((4, 4))}, VOCAB)
    whole = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    # slice at several depths: header, text, array payload, checksum
    for end in (4, 14, 20, len(whole) // 2, len(whole) - 1):
        cut.write_bytes(whole[:end])
        with pytest.raises(CheckpointError):
            load_checkpoint(cut)
    # a cut body under a valid checksum is caught by the parse itself
    cut.write_bytes(_resealed(whole[: len(whole) // 2]))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(cut)


def test_checkpoint_rejects_trailing_garbage(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, "k=v", {"w": np.ones(2)}, VOCAB)
    whole = path.read_bytes()
    path.write_bytes(whole + b"extra")
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)
    path.write_bytes(_resealed(whole[:-4] + b"extra"))
    with pytest.raises(CheckpointError, match="5 trailing bytes"):
        load_checkpoint(path)


@pytest.mark.parametrize("fraction", [0.05, 0.10, 0.20, 1.0])
def test_checkpoint_detects_a_flipped_bit(tmp_path, fraction):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, "k=v", {"w": np.linspace(0.0, 1.0, 64)}, VOCAB)
    raw = bytearray(path.read_bytes())
    raw[min(int(len(raw) * fraction), len(raw) - 1)] ^= 0x10
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_checkpoint_write_that_fails_part_way_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, "k=v", {"w": np.ones(3)}, VOCAB)
    before = path.read_bytes()
    real_fsync = os.fsync

    def half_then_fail(fd):
        # the write stops half way, before the .tmp file reaches the disk
        os.ftruncate(fd, os.fstat(fd).st_size // 2)
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, "k=v", {"w": np.zeros((50, 50))}, VOCAB)
    monkeypatch.setattr(os, "fsync", real_fsync)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]
    save_checkpoint(path, "k=v", {"w": np.zeros((50, 50))}, VOCAB)
    assert np.array_equal(load_checkpoint(path)[1]["w"], np.zeros((50, 50)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


def test_vocab_codec_roundtrip(tmp_path):
    path = tmp_path / "v.ckpt"
    save_checkpoint(path, "", {}, VOCAB)
    assert load_checkpoint(path) == ("", {}, VOCAB)


def _micro_state(capacity=8):
    """A model, optimizer and queue part way through a run, all state non-trivial."""
    train_cfg = micro_train_cfg()
    loss_cfg = LossConfig(variant="clip", neighbor_queue_capacity=capacity)
    model = build_model(train_cfg, MICRO_IMAGE, MICRO_TEXT)
    optimizer = AdamW(trainable_parameters(model, "clip"))
    rng = np.random.default_rng(0)
    for name, p in optimizer.named_params:
        optimizer.m[name] = rng.normal(size=p.data.shape)
        optimizer.v[name] = np.abs(rng.normal(size=p.data.shape))
    optimizer.t = 29
    queue = NNQueue(capacity)
    width = MICRO_TEXT.embed_dim  # the queue holds text embeddings
    queue.enqueue(rng.normal(size=(5, width)))
    queue.enqueue(rng.normal(size=(6, width)))  # wraps: full, head at slot 3
    config_text = render_config_text(train_cfg, loss_cfg, MICRO_IMAGE, MICRO_TEXT)
    return model, config_text, optimizer, queue


def test_train_state_codec_roundtrip(tmp_path, records):
    model, config_text, optimizer, queue = _micro_state()
    vocab = Vocab.build((r.caption for r in records), MICRO_TEXT.vocab_size)
    path = tmp_path / "run.ckpt"
    save_training_checkpoint(path, model, config_text, vocab, optimizer, queue, 2, 5, 29, 0.625)
    got_model, got_vocab, _, got_opt, got_queue, counters = load_training_checkpoint(path, config_text)
    assert counters == dict(zip(COUNTERS, [2, 5, 29, 0.625, 29, 8, 3]))
    assert got_vocab == vocab
    for (name, p), (_, q) in zip(model.named_parameters(), got_model.named_parameters()):
        assert np.array_equal(p.data, q.data), name
    assert got_opt.t == 29
    for name in optimizer.m:
        assert np.array_equal(got_opt.m[name], optimizer.m[name]), name
        assert np.array_equal(got_opt.v[name], optimizer.v[name]), name
    assert (got_queue.capacity, got_queue.fill, got_queue.head) == (8, 8, 3)
    assert np.array_equal(got_queue.buffer, queue.buffer)
    # the run state sits beside the parameters under its own names
    _, arrays, _ = load_checkpoint(path)
    assert arrays["queue.buffer"].shape == (8, MICRO_TEXT.embed_dim)
    assert len([n for n in arrays if n.startswith("optim.m.")]) == len(optimizer.m)


def _with_counters(tmp_path, counters):
    """A training checkpoint whose run.counters array is ``counters``."""
    model, config_text, optimizer, queue = _micro_state()
    path = tmp_path / "run.ckpt"
    save_training_checkpoint(path, model, config_text, Vocab.build([], 8), optimizer, queue, 2, 5, 29, 0.625)
    _, arrays, vocab = load_checkpoint(path)
    arrays["run.counters"] = np.array(counters, dtype=np.float64)
    save_checkpoint(path, config_text, arrays, vocab)
    return path


def test_train_state_rejects_trailing_bytes(tmp_path):
    # the counters are one array of fixed length: a value past its end is rejected
    with pytest.raises(CheckpointError, match="must hold 7 values"):
        load_training_checkpoint(_with_counters(tmp_path, [2, 5, 29, 0.625, 29, 8, 3, 0]))


@pytest.mark.parametrize("counters, message", [
    ([2, 5, -1, 0.625, 29, 8, 3], "global_step=-1.0 is not a non-negative integer"),
    ([2, 5.5, 29, 0.625, 29, 8, 3], "step_in_epoch=5.5 is not"),
    ([2, 5, 29, 0.625, float("nan"), 8, 3], "adam_t=nan is not"),
], ids=["negative", "fraction", "nan"])
def test_run_counters_must_be_non_negative_integers(tmp_path, counters, message):
    with pytest.raises(CheckpointError, match=message):
        load_training_checkpoint(_with_counters(tmp_path, counters))


# ---------------------------------------------------------------- model assembly


def test_build_model_variants_share_interface():
    for encoder in ("vit", "conv"):
        cfg = micro_train_cfg(image_encoder=encoder)
        image_cfg = MICRO_IMAGE if encoder == "vit" else _micro_conv()
        model = build_model(cfg, image_cfg, MICRO_TEXT)
        names = [n for n, _ in model.named_parameters()]
        assert "log_temperature" in names
        assert any(n.startswith("image.") for n in names)
        assert any(n.startswith("text.") for n in names)


def _micro_conv():
    return ConvConfig(image_size=16, stage_channels=(8, 16), embed_dim=16)


def test_build_model_rejects_mismatched_encoder_config():
    with pytest.raises(ConfigError):
        build_model(micro_train_cfg(image_encoder="conv"), MICRO_IMAGE, MICRO_TEXT)


# the config parser reads a field's type from its annotation text, which the __future__ import keeps
@dataclasses.dataclass(frozen=True)
class StubConfig:
    image_size: int = 16
    embed_dim: int = 16


class StubTower(Module):
    def __init__(self, cfg: StubConfig, rng: np.random.Generator):
        super().__init__()
        self.proj = Linear(3, cfg.embed_dim, rng)


def test_a_tower_registered_in_image_towers_alone_is_configured_and_built(monkeypatch):
    monkeypatch.setitem(IMAGE_TOWERS, "stub", (StubConfig, StubTower))
    cfg = build_run_config({"train": {"image_encoder": "stub"}, "image": {"image_size": "8"},
                            "text": {"embed_dim": "16"}})
    assert cfg.image == StubConfig(image_size=8)
    model = build_model(cfg.train, cfg.image, cfg.text)
    assert isinstance(model.image, StubTower)
    with pytest.raises(ConfigError, match="image_encoder 'stub' needs a StubConfig"):
        build_model(cfg.train, MICRO_IMAGE, MICRO_TEXT)
    with pytest.raises(ConfigError, match="image_encoder 'vit' needs a VitConfig"):
        build_model(micro_train_cfg(), StubConfig(), MICRO_TEXT)
    with pytest.raises(ConfigError, match="image_encoder must be one of 'vit', 'conv', 'stub'"):
        micro_train_cfg(image_encoder="resnet")


def test_trainable_parameters_drop_mlm_head_when_unused():
    model = build_model(micro_train_cfg(), MICRO_IMAGE, MICRO_TEXT)
    all_names = {n for n, _ in model.named_parameters()}
    mlm_names = {n for n in all_names if n.startswith("text.mlm_head.")}
    assert mlm_names, "expected an mlm head on the text tower"
    for variant in ("clip", "slip", "filip"):
        kept = {n for n, _ in trainable_parameters(model, variant)}
        assert kept == all_names - mlm_names
    for variant in ("declip", "defilip"):
        kept = {n for n, _ in trainable_parameters(model, variant)}
        assert kept == all_names


def micro_step(records, variant, image_encoder="vit"):
    """(views, breakdown, model) of one step under ``variant``."""
    train_cfg = micro_train_cfg(variant=variant, image_encoder=image_encoder)
    image_cfg = MICRO_IMAGE if image_encoder == "vit" else _micro_conv()
    loss_cfg = LossConfig(variant=variant, neighbor_queue_capacity=8)
    vocab = Vocab.build((r.caption for r in records), MICRO_TEXT.vocab_size)
    views = assemble_views(
        records[:4], train_cfg, loss_cfg, MICRO_TEXT, vocab, image_cfg.image_size,
        ImageAugPolicy(), TextAugPolicy(synonyms=default_synonyms()), 0, 0,
    )
    model = build_model(train_cfg, image_cfg, MICRO_TEXT)
    breakdown = compute_step_loss(model, views, loss_cfg, NNQueue(8), len(vocab), np.random.default_rng(0))
    return views, breakdown, model


@pytest.mark.parametrize("variant", VARIANTS)
def test_step_follows_the_term_table(records, variant):
    table = LossConfig(variant=variant).term_weights()
    views, breakdown, model = micro_step(records, variant)
    assert breakdown.weights == table
    assert set(breakdown.terms) == set(table)
    wants_images = "image_ssl" in table or "multiview" in table
    assert (views.aug1 is not None, views.aug2 is not None) == (wants_images, wants_images)
    assert (views.ids_aug is not None) == ("multiview" in table)
    trained = [n for n, _ in trainable_parameters(model, variant)]
    assert any(n.startswith(MLM_HEAD_PREFIX) for n in trained) == ("text_mlm" in table)


@pytest.mark.parametrize("variant", [v for v in VARIANTS if "token_align" in LossConfig(variant=v).term_weights()])
def test_conv_token_alignment_warns_in_every_variant(records, variant):
    with pytest.warns(UserWarning, match="overlapping receptive fields"):
        micro_step(records, variant, image_encoder="conv")


# ---------------------------------------------------------------- training runs


def run_micro(tmp_path, records, name, *, resume_from=None, stop_after_steps=None,
              epochs=1, variant="clip"):
    return train(
        tmp_path / name,
        records,
        records[:4],
        ["red circle", "green circle", "blue circle", "yellow circle"],
        micro_train_cfg(epochs=epochs, variant=variant),
        LossConfig(variant=variant, neighbor_queue_capacity=8),
        MICRO_IMAGE,
        MICRO_TEXT,
        resume_from=resume_from,
        stop_after_steps=stop_after_steps,
    )


def test_zero_epochs_writes_initial_checkpoint(tmp_path, records):
    result = run_micro(tmp_path, records, "zero", epochs=0)
    assert result.steps_run == 0
    assert not result.aborted
    assert result.final_path.exists()
    config, arrays, vocab = load_checkpoint(result.final_path)
    assert "log_temperature" in arrays and "circle" in vocab
    assert arrays["queue.buffer"].shape == (8, 0)
    assert arrays["run.counters"].tolist() == [0, 0, 0, -1.0, 0, 0, 0]


def test_fresh_run_in_a_reused_directory_names_no_best_checkpoint(tmp_path, records):
    first = run_micro(tmp_path, records, "run", epochs=1)
    assert first.best_path is not None
    fresh = run_micro(tmp_path, records, "run", epochs=0)  # best.ckpt of the first run remains
    assert fresh.best_path is None


def test_a_run_without_a_validation_split_writes_no_best_checkpoint(tmp_path, records):
    result = train(tmp_path / "run", records, [], [], micro_train_cfg(), LossConfig(variant="clip"),
                   MICRO_IMAGE, MICRO_TEXT)
    assert result.steps_run > 0 and result.final_path.exists()
    assert result.best_path is None and not (tmp_path / "run" / "best.ckpt").exists()


def test_training_is_deterministic(tmp_path, records):
    a = run_micro(tmp_path, records, "a")
    b = run_micro(tmp_path, records, "b")
    assert a.metrics_path.read_text() == b.metrics_path.read_text()
    assert filecmp.cmp(a.final_path, b.final_path, shallow=False)


def test_interrupt_and_resume_is_bitwise(tmp_path, records):
    whole = run_micro(tmp_path, records, "whole", epochs=2)
    part = run_micro(tmp_path, records, "part", epochs=2, stop_after_steps=3)
    assert part.steps_run == 3
    resumed = run_micro(tmp_path, records, "part", epochs=2, resume_from=part.final_path)
    assert filecmp.cmp(whole.final_path, resumed.final_path, shallow=False)
    assert whole.metrics_path.read_text() == resumed.metrics_path.read_text()


def test_resume_rejects_config_mismatch(tmp_path, records):
    done = run_micro(tmp_path, records, "origin", epochs=1)
    with pytest.raises(CheckpointError, match="config"):
        train(
            tmp_path / "other",
            records,
            [],
            [],
            micro_train_cfg(epochs=1, seed=99),  # different seed: different config text
            LossConfig(variant="clip", neighbor_queue_capacity=8),
            MICRO_IMAGE,
            MICRO_TEXT,
            resume_from=done.final_path,
        )


def test_composite_variant_trains_a_step(tmp_path, records):
    result = run_micro(tmp_path, records, "declip", variant="declip", stop_after_steps=1)
    assert result.steps_run == 1
    lines = result.metrics_path.read_text().splitlines()
    assert "neighbor=" in lines[0] and "multiview=" in lines[0]


def test_declip_logs_skip_counters(tmp_path, records):
    result = run_micro(tmp_path, records, "declip-counters", variant="declip", stop_after_steps=1)
    fields = result.metrics_path.read_text().splitlines()[0].split()
    # the queue is empty on the first step, so the neighbor term is skipped
    assert "neighbor_cold=1" in fields
    assert any(f.startswith("text_mlm_skipped=") for f in fields)


def test_abort_snapshots_the_failing_step_and_resume_reenters_it(tmp_path, records, monkeypatch):
    import deskclip.trainer as trainer_mod

    fail_at = 4  # epoch 1, step 1: three steps per epoch
    real = trainer_mod.compute_step_loss
    calls = []

    def failing(*args, **kwargs):
        breakdown = real(*args, **kwargs)  # fail after the step has filled the queue
        calls.append(1)
        if len(calls) == fail_at + 1:
            raise ContractError("injected divergence")
        return breakdown

    whole = run_micro(tmp_path, records, "whole", epochs=2, variant="declip")
    monkeypatch.setattr(trainer_mod, "compute_step_loss", failing)
    broken = run_micro(tmp_path, records, "broken", epochs=2, variant="declip")
    assert broken.aborted and broken.steps_run == fail_at
    counters = load_checkpoint(broken.final_path)[1]["run.counters"]
    assert counters[:3].tolist() == [1, 1, fail_at]

    monkeypatch.setattr(trainer_mod, "compute_step_loss", real)
    resumed = run_micro(tmp_path, records, "broken", epochs=2, variant="declip",
                        resume_from=broken.final_path)
    assert not resumed.aborted and resumed.steps_run == whole.steps_run
    assert filecmp.cmp(whole.final_path, resumed.final_path, shallow=False)
    # the resume cut the abort line and re-ran step 4 in its place
    assert resumed.metrics_path.read_text() == whole.metrics_path.read_text()


def test_resume_from_a_checkpoint_older_than_the_log_cuts_the_log_back(tmp_path, records):
    whole = run_micro(tmp_path, records, "whole", epochs=2)
    part = run_micro(tmp_path, records, "part", epochs=2, stop_after_steps=5)
    assert part.best_path is not None  # written at the end of epoch 0, after step 2
    with part.metrics_path.open("a") as log:
        log.write("step=5 total=0.12")  # a line cut short by a kill
    lines = part.metrics_path.read_text().splitlines()
    assert lines[3].startswith("epoch=0 ") and lines[4].startswith("step=3 ") and len(lines) == 7
    resumed = run_micro(tmp_path, records, "part", epochs=2, resume_from=part.best_path)
    assert resumed.metrics_path.read_text() == whole.metrics_path.read_text()
    assert filecmp.cmp(whole.final_path, resumed.final_path, shallow=False)


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


# the records fixture makes 3 steps per epoch; a resume reads the first ``size`` records
@pytest.mark.parametrize("stop, size, position", [
    (2, 4, None),         # step_in_epoch 2 past the 1 step per epoch of 4 records
    (4, 8, None),         # epoch 1, step 1 is global step 3 at 2 steps per epoch, not 4
    (None, 12, (3, 0, 9)),  # (epoch, step_in_epoch, global_step) on the 3-step schedule, past epoch 2
], ids=["step-past-the-epoch", "global-step-off-the-schedule", "past-the-last-epoch"])
def test_resume_rejects_a_position_off_this_training_sets_schedule_before_any_write(
    tmp_path, records, stop, size, position
):
    part = run_micro(tmp_path, records, "part", epochs=2, stop_after_steps=stop)
    if position is not None:
        config, arrays, vocab = load_checkpoint(part.final_path)
        arrays["run.counters"][:3] = position
        save_checkpoint(part.final_path, config, arrays, vocab)
    before = _files(tmp_path / "part")
    with pytest.raises(CheckpointError, match="is off the schedule of this training set"):
        run_micro(tmp_path, records[:size], "part", epochs=2, resume_from=part.final_path)
    assert _files(tmp_path / "part") == before


def test_train_rejects_empty_dataset(tmp_path):
    with pytest.raises(ConfigError, match="empty"):
        train(tmp_path / "r", [], [], [], micro_train_cfg(),
              LossConfig(variant="clip"), MICRO_IMAGE, MICRO_TEXT)


def test_train_rejects_variant_mismatch(tmp_path, records):
    with pytest.raises(ConfigError, match="mismatch"):
        train(tmp_path / "r", records, [], [], micro_train_cfg(variant="clip"),
              LossConfig(variant="slip"), MICRO_IMAGE, MICRO_TEXT)


@pytest.mark.parametrize("stop_after_steps", [0, -3])
def test_train_rejects_stop_after_steps_below_1_before_any_write(tmp_path, records, stop_after_steps):
    with pytest.raises(ConfigError, match=f"stop_after_steps must be at least 1, got {stop_after_steps}"):
        train(tmp_path / "r", records, [], [], micro_train_cfg(), LossConfig(variant="clip"),
              MICRO_IMAGE, MICRO_TEXT, stop_after_steps=stop_after_steps)
    assert not (tmp_path / "r").exists()


def test_train_rejects_oversized_batch(tmp_path, records):
    with pytest.raises(ConfigError, match="batch_size"):
        train(tmp_path / "r", records, [], [], micro_train_cfg(batch_size=512),
              LossConfig(variant="clip"), MICRO_IMAGE, MICRO_TEXT)


def test_load_model_for_eval_reproduces_parameters(tmp_path, records):
    result = run_micro(tmp_path, records, "evalsrc")
    model, vocab, (train_cfg, loss_cfg, image_cfg, text_cfg) = load_model_for_eval(result.final_path)
    _, tensors, _ = load_checkpoint(result.final_path)
    for name, p in model.named_parameters():
        assert np.array_equal(p.data, tensors[name]), name
    assert train_cfg.variant == "clip"
    assert image_cfg.image_size == 16
    assert text_cfg.context_length == 12
    assert "circle" in vocab.token_to_id
