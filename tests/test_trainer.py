import dataclasses
import filecmp
from pathlib import Path

import numpy as np
import pytest

from deskclip.checkpoint import (
    STATE_TAG,
    VOCAB_TAG,
    decode_train_state,
    decode_vocab,
    encode_train_state,
    encode_vocab,
    load_checkpoint,
    save_checkpoint,
)
from deskclip.augment import ImageAugPolicy, TextAugPolicy, default_synonyms
from deskclip.data import Vocab, generate_synthetic
from deskclip.encoders import ConvConfig, TextConfig, VitConfig
from deskclip.errors import CheckpointError, ConfigError, ContractError
from deskclip.losses import VARIANTS, LossConfig, NNQueue
from deskclip.trainer import (
    MLM_HEAD_PREFIX,
    TrainConfig,
    assemble_views,
    build_model,
    compute_step_loss,
    load_model_for_eval,
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


def test_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "m.ckpt"
    tensors = {
        "w": np.arange(6, dtype=np.float64).reshape(2, 3),
        "scalar": np.asarray(0.07),
    }
    blocks = {b"MISC": b"\x00\x01payload"}
    save_checkpoint(path, "a.b=1\nc.d=two", tensors, blocks)
    config, loaded, got_blocks = load_checkpoint(path)
    assert config == "a.b=1\nc.d=two"
    assert np.array_equal(loaded["w"], tensors["w"])
    assert loaded["scalar"].shape == ()
    assert float(loaded["scalar"]) == 0.07
    assert got_blocks[b"MISC"] == blocks[b"MISC"]


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_detects_truncation(tmp_path):
    path = tmp_path / "whole.ckpt"
    save_checkpoint(path, "k=v", {"w": np.ones((4, 4))}, {b"MISC": b"xyz"})
    whole = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    # slice at several depths: header, tensor payload, block payload
    for end in (4, 20, len(whole) // 2, len(whole) - 1):
        cut.write_bytes(whole[:end])
        with pytest.raises(CheckpointError):
            load_checkpoint(cut)


def test_checkpoint_rejects_trailing_garbage(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, "k=v", {"w": np.ones(2)})
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_block_tag(tmp_path):
    with pytest.raises(CheckpointError, match="tag"):
        save_checkpoint(tmp_path / "x.ckpt", "k=v", {}, {b"TOOLONG": b""})


def test_checkpoint_write_that_fails_part_way_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, "k=v", {"w": np.ones(3)})
    before = path.read_bytes()
    real_write = Path.write_bytes

    def half_then_fail(self, data):
        real_write(self, data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, "k=v", {"w": np.zeros((50, 50))})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]
    save_checkpoint(path, "k=v", {"w": np.zeros((50, 50))})
    assert np.array_equal(load_checkpoint(path)[1]["w"], np.zeros((50, 50)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


def test_vocab_codec_roundtrip():
    vocab = {"<pad>": 0, "naive": 5, "café": 6, "☃": 7}
    assert decode_vocab(encode_vocab(vocab)) == vocab


def test_train_state_codec_roundtrip():
    m = {"a": np.random.default_rng(0).normal(size=(3, 2)), "b": np.zeros(())}
    v = {k: np.abs(arr) for k, arr in m.items()}
    buf = np.random.default_rng(1).normal(size=(8, 4))
    payload = encode_train_state(2, 5, 29, 0.625, 29, m, v, buf, 6, 3, 8)
    state = decode_train_state(payload)
    assert (state["epoch"], state["step_in_epoch"], state["global_step"]) == (2, 5, 29)
    assert state["best_accuracy"] == 0.625
    assert state["adam_t"] == 29
    assert np.array_equal(state["moments_m"]["a"], m["a"])
    assert np.array_equal(state["moments_v"]["b"], v["b"])
    assert np.array_equal(state["queue_buffer"], buf)
    assert (state["queue_fill"], state["queue_head"], state["queue_capacity"]) == (6, 3, 8)


def test_train_state_rejects_trailing_bytes():
    payload = encode_train_state(0, 0, 0, 0.0, 0, {}, {}, np.zeros((2, 2)), 0, 0, 2)
    with pytest.raises(CheckpointError, match="trailing"):
        decode_train_state(payload + b"x")


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
    config, tensors, blocks = load_checkpoint(result.final_path)
    assert "log_temperature" in tensors
    assert VOCAB_TAG in blocks and STATE_TAG in blocks


def test_fresh_run_in_a_reused_directory_names_no_best_checkpoint(tmp_path, records):
    first = run_micro(tmp_path, records, "run", epochs=1)
    assert first.best_path is not None
    fresh = run_micro(tmp_path, records, "run", epochs=0)  # best.ckpt of the first run remains
    assert fresh.best_path is None


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
    state = decode_train_state(load_checkpoint(broken.final_path)[2][STATE_TAG])
    assert (state["epoch"], state["step_in_epoch"], state["global_step"]) == (1, 1, fail_at)

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


def test_train_rejects_empty_dataset(tmp_path):
    with pytest.raises(ConfigError, match="empty"):
        train(tmp_path / "r", [], [], [], micro_train_cfg(),
              LossConfig(variant="clip"), MICRO_IMAGE, MICRO_TEXT)


def test_train_rejects_variant_mismatch(tmp_path, records):
    with pytest.raises(ConfigError, match="mismatch"):
        train(tmp_path / "r", records, [], [], micro_train_cfg(variant="clip"),
              LossConfig(variant="slip"), MICRO_IMAGE, MICRO_TEXT)


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
