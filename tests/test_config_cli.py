import importlib
import math
import struct
import sys

import numpy as np
import pytest

from deskclip.checkpoint import (
    STATE_TAG,
    VOCAB_TAG,
    decode_train_state,
    encode_train_state,
    load_checkpoint,
    save_checkpoint,
)
from deskclip.cli import main
from deskclip.config import (
    apply_overrides,
    build_run_config,
    load_run_config,
    parse_config_text,
    render_config_text,
)
from deskclip.encoders import ConvConfig, VitConfig
from deskclip.errors import ConfigError

from tests.conftest import DESK_RECIPE, ROOT

MICRO_SETS = [
    "train.epochs=1", "train.batch_size=4", "train.warmup_epochs=0.5",
    "image.image_size=16", "image.patch_size=8", "image.width=16",
    "image.depth=1", "image.heads=2", "image.embed_dim=16",
    "text.vocab_size=64", "text.context_length=12", "text.width=16",
    "text.depth=1", "text.heads=2", "text.embed_dim=16",
]


def micro_args(data_dir, *extra):
    sets = []
    for item in MICRO_SETS + [
        f"data.train_manifest={data_dir}/train.tsv",
        f"data.val_manifest={data_dir}/val.tsv",
        f"data.classes_file={data_dir}/classes.txt",
    ] + list(extra):
        sets += ["--set", item]
    return sets


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_data")
    rc = main(["synth", str(out), "--classes", "4", "--train", "16", "--val", "8",
               "--image-size", "16"])
    assert rc == 0
    return out


# ---------------------------------------------------------------- config layer


def test_defaults_without_file():
    cfg = load_run_config()
    assert cfg.train.variant == "clip"
    assert cfg.train.batch_size == 64
    assert isinstance(cfg.image, VitConfig)
    assert cfg.data.out_dir == "runs/run"


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section.*valid"):
        build_run_config({"optimizer": {"lr": "1"}})


def test_unknown_key_lists_valid_keys():
    with pytest.raises(ConfigError, match="valid keys.*epochs"):
        build_run_config({"train": {"epoch": "3"}})


def test_bad_value_names_the_key():
    with pytest.raises(ConfigError, match="train.epochs"):
        build_run_config({"train": {"epochs": "three"}})


def test_conv_encoder_switches_image_section():
    cfg = load_run_config(overrides=[
        "train.image_encoder=conv", "image.stage_channels=8,16", "image.image_size=16",
        "image.embed_dim=16",
    ])
    assert isinstance(cfg.image, ConvConfig)
    assert cfg.image.stage_channels == (8, 16)


def test_variant_propagates_from_train_to_loss():
    cfg = load_run_config(overrides=["train.variant=slip"])
    assert cfg.loss.variant == "slip"
    explicit = load_run_config(overrides=["train.variant=slip", "loss.variant=clip"])
    assert explicit.loss.variant == "clip"  # explicit statement wins


def test_later_override_wins():
    cfg = load_run_config(overrides=["train.epochs=3", "train.epochs=7"])
    assert cfg.train.epochs == 7


def test_malformed_override_rejected():
    with pytest.raises(ConfigError, match="section.key=value"):
        apply_overrides({}, ["epochs=3"])
    with pytest.raises(ConfigError, match="unknown section"):
        apply_overrides({}, ["optimizer.lr=1"])


def test_missing_config_file():
    with pytest.raises(ConfigError, match="not found"):
        load_run_config("/nonexistent/run.ini")


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[train]\nepochs = 5\nseed = 9\n\n[text]\ndepth = 2\n")
    cfg = load_run_config(path)
    assert (cfg.train.epochs, cfg.train.seed, cfg.text.depth) == (5, 9, 2)


def test_perfbench_recipe_matches_desk_ini(monkeypatch):
    """perfbench/workloads.py spells the desk recipe out; it must stay the one in configs/desk.ini."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        for name in ("workloads", "checks", "tracing"):  # perfbench's flat module names
            sys.modules.pop(name, None)
    train = load_run_config(DESK_RECIPE).train
    steps_per_epoch = workloads.STEPS_PER_EPOCH
    assert workloads.BATCH == train.batch_size
    assert (workloads.BASE_LR, workloads.PEAK_LR) == (train.base_lr, train.peak_lr)
    assert workloads.WARMUP_STEPS == math.ceil(train.warmup_epochs * steps_per_epoch)
    assert workloads.TOTAL_STEPS == train.epochs * steps_per_epoch
    assert workloads.WEIGHT_DECAY == train.weight_decay
    assert workloads.BETAS == (train.beta1, train.beta2)
    assert workloads.ADAM_EPS == train.eps


def test_render_parse_roundtrip():
    cfg = load_run_config(overrides=MICRO_SETS + ["train.variant=declip"])
    text = render_config_text(cfg.train, cfg.loss, cfg.image, cfg.text)
    train, loss, image, text_cfg = parse_config_text(text)
    assert train == cfg.train
    assert loss == cfg.loss
    assert image == cfg.image
    assert text_cfg == cfg.text
    # and the rendering is a fixed point
    assert render_config_text(train, loss, image, text_cfg) == text


def test_parse_config_text_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("train.epochs=1\ngarbage line\n")


# ---------------------------------------------------------------- CLI exit codes


def test_validate_only(capsys, data_dir):
    rc = main(["train", "--validate-only"] + micro_args(data_dir))
    assert rc == 0
    assert "config ok" in capsys.readouterr().out


def test_unknown_variant_exits_2_listing_valid(capsys):
    rc = main(["train", "--validate-only", "--set", "train.variant=blip"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "blip" in err
    for variant in ("clip", "slip", "filip", "declip", "defilip"):
        assert variant in err


@pytest.mark.parametrize("override", [
    "text.heads=0", "image.heads=0", "image.patch_size=0", "text.depth=-3", "text.width=0",
    "train.image_encoder=conv image.stage_channels=0,16", "train.image_encoder=conv image.kernel_size=-1",
])
def test_nonpositive_size_exits_2(capsys, override):
    argv = ["train", "--validate-only"]
    for item in override.split():
        argv += ["--set", item]
    assert main(argv) == 2
    assert "must be" in capsys.readouterr().err


def test_unknown_config_key_exits_2(capsys):
    rc = main(["train", "--validate-only", "--set", "train.learning_rate=1"])
    assert rc == 2
    assert "valid keys" in capsys.readouterr().err


def test_train_writes_artifacts_and_reports(tmp_path, capsys, data_dir):
    out = tmp_path / "run"
    rc = main(["train", "--out", str(out)] + micro_args(data_dir))
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "steps_run=4" in stdout
    assert "final_accuracy=" in stdout
    assert (out / "final.ckpt").exists()
    assert (out / "metrics.log").exists()
    assert (out / "config.resolved").exists()


def test_zero_epochs_writes_initial_checkpoint(tmp_path, capsys, data_dir):
    out = tmp_path / "zero"
    rc = main(["train", "--out", str(out)] + micro_args(data_dir, "train.epochs=0"))
    assert rc == 0
    assert "steps_run=0" in capsys.readouterr().out
    assert (out / "final.ckpt").exists()


def test_eval_command_roundtrip(tmp_path, capsys, data_dir):
    out = tmp_path / "run"
    assert main(["train", "--out", str(out)] + micro_args(data_dir)) == 0
    capsys.readouterr()
    report_path = tmp_path / "report.txt"
    rc = main(["eval", str(out / "final.ckpt"),
               "--manifest", str(data_dir / "val.tsv"),
               "--classes", str(data_dir / "classes.txt"),
               "--report", str(report_path)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("top1_accuracy=")
    assert report_path.read_text().startswith("top1_accuracy=")


def test_eval_expectation_failure_exits_1(tmp_path, capsys, data_dir):
    out = tmp_path / "run"
    assert main(["train", "--out", str(out)] + micro_args(data_dir)) == 0
    capsys.readouterr()
    rc = main(["eval", str(out / "final.ckpt"),
               "--manifest", str(data_dir / "val.tsv"),
               "--classes", str(data_dir / "classes.txt"),
               "--expect-at-least", "1.01"])  # unreachable bar
    assert rc == 1
    assert "below required" in capsys.readouterr().err


def test_eval_missing_prompt_file_exits_2(tmp_path, capsys, data_dir):
    out = tmp_path / "run"
    assert main(["train", "--out", str(out)] + micro_args(data_dir)) == 0
    capsys.readouterr()
    rc = main(["eval", str(out / "final.ckpt"),
               "--manifest", str(data_dir / "val.tsv"),
               "--classes", str(data_dir / "classes.txt"),
               "--prompts", "/nonexistent/prompts.txt"])
    assert rc == 2
    assert "prompt file not found" in capsys.readouterr().err


def test_eval_on_missing_checkpoint_exits_2(capsys, data_dir):
    rc = main(["eval", "/nonexistent/final.ckpt",
               "--manifest", str(data_dir / "val.tsv"),
               "--classes", str(data_dir / "classes.txt")])
    assert rc == 2


def test_resume_config_mismatch_exits_3(tmp_path, capsys, data_dir):
    out = tmp_path / "run"
    assert main(["train", "--out", str(out)] + micro_args(data_dir)) == 0
    capsys.readouterr()
    rc = main(["train", "--out", str(tmp_path / "other"),
               "--resume", str(out / "final.ckpt")]
              + micro_args(data_dir, "train.seed=42"))
    assert rc == 3
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("fill_head", [
    lambda capacity: (capacity + 1, 0),
    lambda capacity: (0, capacity),
    lambda capacity: (1, 1),
], ids=["fill-past-capacity", "head-past-end", "fill-without-vectors"])
def test_resume_rejects_corrupt_queue_state_exits_3(tmp_path, capsys, data_dir, fill_head):
    out = tmp_path / "run"
    assert main(["train", "--out", str(out)] + micro_args(data_dir)) == 0
    ckpt = out / "final.ckpt"
    config, tensors, blocks = load_checkpoint(ckpt)
    state = blocks[STATE_TAG]
    capacity, dim = decode_train_state(state)["queue_buffer"].shape
    assert dim == 0, "a clip run never fills the neighbor queue"
    # the STAT block ends with u32 capacity, fill, head, dim, then the queue buffer
    at = len(state) - 12
    blocks[STATE_TAG] = state[:at] + struct.pack("<II", *fill_head(capacity)) + state[at + 8:]
    save_checkpoint(ckpt, config, tensors, blocks)
    capsys.readouterr()
    rc = main(["train", "--out", str(tmp_path / "resumed"), "--resume", str(ckpt)]
              + micro_args(data_dir))
    assert rc == 3
    assert "capacity" in capsys.readouterr().err


def _rename_first_m(state):
    first = next(iter(state["moments_m"]))
    state["moments_m"]["no.such.parameter"] = state["moments_m"].pop(first)


def _reshape_first_v(state):
    first = next(iter(state["moments_v"]))
    state["moments_v"][first] = np.zeros(state["moments_v"][first].size + 1)


@pytest.mark.parametrize("edit", [_rename_first_m, _reshape_first_v],
                         ids=["moments-m-renamed", "moments-v-wrong-shape"])
def test_resume_rejects_moments_that_do_not_fit_the_model_exits_3(tmp_path, capsys, data_dir, edit):
    out = tmp_path / "run"
    assert main(["train", "--out", str(out)] + micro_args(data_dir)) == 0
    ckpt = out / "final.ckpt"
    config, tensors, blocks = load_checkpoint(ckpt)
    state = decode_train_state(blocks[STATE_TAG])
    edit(state)
    blocks[STATE_TAG] = encode_train_state(**state)
    save_checkpoint(ckpt, config, tensors, blocks)
    capsys.readouterr()
    rc = main(["train", "--out", str(tmp_path / "resumed"), "--resume", str(ckpt)]
              + micro_args(data_dir))
    err = capsys.readouterr().err
    assert rc == 3
    assert "does not match the parameter set" in err or "moment shape mismatch" in err


def _corrupt_byte(offset):
    def corrupt(ckpt):
        raw = bytearray(ckpt.read_bytes())
        raw[offset(raw)] = 0xFF  # never valid in UTF-8
        ckpt.write_bytes(bytes(raw))
    return corrupt


def _corrupt_config(edit):
    def corrupt(ckpt):
        config, tensors, blocks = load_checkpoint(ckpt)
        save_checkpoint(ckpt, edit(config), tensors, blocks)
    return corrupt


def _corrupt_vocab(edit):
    def corrupt(ckpt):
        config, tensors, blocks = load_checkpoint(ckpt)
        blocks[VOCAB_TAG] = edit(blocks[VOCAB_TAG])
        save_checkpoint(ckpt, config, tensors, blocks)
    return corrupt


# the config text starts at byte 16 (magic, version, length); the first tensor
# name 8 bytes after it (tensor count, name length)
CORRUPTIONS = {
    "config-not-utf8": (_corrupt_byte(lambda raw: 16), "config text is not UTF-8"),
    "tensor-name-not-utf8": (
        _corrupt_byte(lambda raw: 16 + struct.unpack_from("<I", raw, 12)[0] + 8), "tensor name is not UTF-8"
    ),
    "vocab-not-utf8": (_corrupt_vocab(lambda vocab: b"\xff" + vocab), "vocabulary is not UTF-8"),
    "vocab-line-without-tab": (_corrupt_vocab(lambda vocab: vocab + b"\nnotab"), "vocabulary line"),
    "config-unknown-key": (_corrupt_config(lambda config: config + "\ntrain.bogus=1"), "embedded config"),
    "config-unparsable-value": (
        _corrupt_config(lambda config: config.replace("train.epochs=1", "train.epochs=one")), "embedded config"
    ),
}


@pytest.mark.parametrize("corruption", list(CORRUPTIONS))
def test_eval_rejects_corrupt_checkpoint_exits_3(tmp_path, capsys, data_dir, corruption):
    corrupt, message = CORRUPTIONS[corruption]
    out = tmp_path / "run"
    assert main(["train", "--out", str(out)] + micro_args(data_dir)) == 0
    corrupt(out / "final.ckpt")
    capsys.readouterr()
    rc = main(["eval", str(out / "final.ckpt"),
               "--manifest", str(data_dir / "val.tsv"),
               "--classes", str(data_dir / "classes.txt")])
    assert rc == 3
    assert message in capsys.readouterr().err


def test_stats_plain_and_filtered(tmp_path, capsys):
    caps = tmp_path / "caps.txt"
    caps.write_text("a b\na b c d\n")
    rc = main(["stats", str(caps), "--machine"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "examples=2" in out
    assert "caption_length_mean=3.0000" in out
    assert "caption_length_std=1.0000" in out

    rc = main(["stats", str(caps), "--machine", "--min-length", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rejected_length=1" in out
    assert "-- after filtering --" in out
    assert out.count("examples=") == 2


def test_stats_empty_file_zeroed(tmp_path, capsys):
    caps = tmp_path / "empty.txt"
    caps.write_text("")
    rc = main(["stats", str(caps), "--machine"])
    assert rc == 0
    assert "examples=0" in capsys.readouterr().out


def test_stats_missing_file_exits_2(capsys):
    assert main(["stats", "/nonexistent/caps.txt"]) == 2


def test_synth_guards_class_coverage(tmp_path, capsys):
    rc = main(["synth", str(tmp_path / "d"), "--classes", "8", "--train", "4"])
    assert rc == 2
    assert "cover every class" in capsys.readouterr().err


def test_verify_list_names_checks_without_running(capsys):
    rc = main(["verify", "--list"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "grad.primitives" in out
    assert "queue.fifo" in out
    assert "PASS" not in out


def test_random_init_eval_near_chance(tmp_path, capsys, data_dir):
    # untrained checkpoint: 4 classes, accuracy should hover near 0.25
    out = tmp_path / "init"
    assert main(["train", "--out", str(out)] + micro_args(data_dir, "train.epochs=0")) == 0
    capsys.readouterr()
    rc = main(["eval", str(out / "final.ckpt"),
               "--manifest", str(data_dir / "val.tsv"),
               "--classes", str(data_dir / "classes.txt")])
    assert rc == 0
    line = capsys.readouterr().out.splitlines()[0]
    accuracy = float(line.split("=")[1])
    assert 0.0 <= accuracy <= 0.8  # tiny val set: wide but honest band


def test_sweep_table_and_param_growth(tmp_path, capsys, data_dir):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--over", "text.depth=2,1", "--out", str(out)] + micro_args(data_dir))
    assert rc == 0
    table = capsys.readouterr().out
    assert (out / "sweep.txt").read_text() == table
    header, *rows = [line.split() for line in table.splitlines()]
    assert header == ["text.depth", "params", "val_top1", "s_per_step", "best_top1"]
    assert [r[0] for r in rows] == ["2", "1"]  # the order the values were given
    params = [int(r[1]) for r in rows]
    assert params[0] > params[1]
    assert all(float(r[3]) > 0 for r in rows)
    assert (out / "1" / "final.ckpt").exists()
    assert (out / "2" / "final.ckpt").exists()


def test_sweep_over_variants_trains_each_as_train_would(tmp_path, capsys, data_dir):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--over", "train.variant=clip,filip", "--out", str(out)] + micro_args(data_dir))
    assert rc == 0
    header, *rows = [line.split() for line in (out / "sweep.txt").read_text().splitlines()]
    assert header[0] == "train.variant"
    assert [r[0] for r in rows] == ["clip", "filip"]
    for variant in ("clip", "filip"):
        assert (out / variant / "final.ckpt").exists()
        assert f"train.variant={variant}" in (out / variant / "config.resolved").read_text()
    # a sweep run is the `train` run with the swept value as one more --set
    single = tmp_path / "single"
    assert main(["train", "--out", str(single)] + micro_args(data_dir, "train.variant=filip")) == 0
    for name in ("metrics.log", "final.ckpt", "best.ckpt"):
        assert (single / name).read_bytes() == (out / "filip" / name).read_bytes()


@pytest.mark.parametrize("over, message", [
    ("train.bogus=1,2", "unknown key"),
    ("text.depth=1,two", "text.depth: cannot parse"),
    ("text.depth=", "section.key=v1,v2"),
    ("text.depth", "section.key=v1,v2"),
    ("text.depth=1,2,1", "lists '1' twice"),
    ("data.prompts_file=desk.txt,sub/desk.txt", "not a directory name"),
    ("data.prompts_file=..", "not a directory name"),
    ("data.classes_file=classes.txt,missing.txt", "classes file not found"),
], ids=["unknown-key", "bad-value", "empty-list", "no-equals-sign", "duplicate", "path-separator",
        "parent-directory", "missing-input-of-a-later-run"])
def test_sweep_rejects_before_any_run_exits_2(tmp_path, capsys, monkeypatch, data_dir, over, message):
    monkeypatch.chdir(data_dir)  # relative classes files resolve against the data directory
    out = tmp_path / "sweep"
    rc = main(["sweep", "--over", over, "--out", str(out)] + micro_args(data_dir))
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_data_image_size_is_not_a_key(capsys):
    """The image size is image.image_size; [data] has no second copy of it."""
    assert main(["train", "--validate-only", "--set", "data.image_size=32"]) == 2
    assert "unknown key(s) in [data]: image_size" in capsys.readouterr().err
