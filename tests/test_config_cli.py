import dataclasses
import importlib
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

from deskclip import tensor as T
from deskclip.checkpoint import load_checkpoint, save_checkpoint
from deskclip.cli import main
from deskclip.config import (
    TrainConfig,
    apply_overrides,
    build_run_config,
    load_run_config,
    parse_config_text,
    render_config_text,
)
from deskclip.encoders import ConvConfig, EmbeddingSet, VitConfig
from deskclip.errors import ConfigError, ManifestError
from deskclip.losses import LossConfig
from deskclip.trainer import COUNTERS
from deskclip.verify import check_grad_encoders

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
        "image.embed_dim=16", "text.embed_dim=16",
    ])
    assert isinstance(cfg.image, ConvConfig)
    assert cfg.image.stage_channels == (8, 16)


def test_variant_propagates_from_train_to_loss():
    cfg = load_run_config(overrides=["train.variant=slip"])
    assert cfg.loss.variant == "slip"
    explicit = load_run_config(overrides=["train.variant=slip", "loss.variant=slip"])
    assert explicit.loss.variant == "slip"  # [loss] may repeat the variant
    with pytest.raises(ConfigError, match="variant mismatch: train='slip' loss='clip'"):
        load_run_config(overrides=["train.variant=slip", "loss.variant=clip"])


def test_later_override_wins():
    cfg = load_run_config(overrides=["train.epochs=3", "train.epochs=7"])
    assert cfg.train.epochs == 7


def test_malformed_override_rejected():
    with pytest.raises(ConfigError, match="section.key=value"):
        apply_overrides({}, ["epochs=3"])
    with pytest.raises(ConfigError, match="unknown section"):
        apply_overrides({}, ["optimizer.lr=1"])


def test_missing_config_file():
    with pytest.raises(ManifestError, match="cannot read config file /nonexistent/run.ini"):
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


def test_validate_only_rejects_a_loss_variant_other_than_the_train_one_exits_2(capsys, data_dir):
    rc = main(["train", "--validate-only"] + micro_args(data_dir, "loss.variant=slip"))
    assert rc == 2
    captured = capsys.readouterr()
    assert "config ok" not in captured.out
    assert "variant mismatch: train='clip' loss='slip'" in captured.err


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_stop_after_steps_below_1_exits_2_before_any_write(tmp_path, capsys, data_dir, steps):
    out = tmp_path / "run"
    rc = main(["train", "--out", str(out), "--stop-after-steps", steps] + micro_args(data_dir))
    assert rc == 2
    assert f"stop_after_steps must be at least 1, got {steps}" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("override", ["text.pad_id=7", "text.end_id=5", "text.pad_id=2 text.end_id=0"],
                         ids=["pad-id", "end-id", "swapped"])
def test_text_ids_other_than_the_tokenizers_exit_2(capsys, override):
    # the tokenizer alone decides the padding and end-of-text ids; they are not config keys
    argv = ["train", "--validate-only"]
    for item in override.split():
        argv += ["--set", item]
    assert main(argv) == 2
    assert "unknown key(s) in [text]" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "train.warmup_epochs=nan", "train.seed=-1", "train.weight_decay=-5", "train.eps=-1", "train.eps=nan",
    "train.variant=slip loss.ssl_weight=nan", "train.variant=slip loss.ssl_temperature=nan",
    "train.variant=defilip loss.token_align_weight=inf",
])
def test_non_finite_or_out_of_range_values_exit_2(capsys, override):
    argv = ["train", "--validate-only"]
    for item in override.split():
        argv += ["--set", item]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "config ok" not in captured.out
    assert "not a finite number" in captured.err or "must be" in captured.err


FLOAT_FIELDS = [(cls, f.name) for cls in (TrainConfig, LossConfig) for f in dataclasses.fields(cls)
                if f.type == "float"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, name", FLOAT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in FLOAT_FIELDS])
def test_a_config_built_in_python_rejects_a_non_finite_float(cls, name, value):
    with pytest.raises(ConfigError, match=f"{name}: '{value}' is not a finite number"):
        cls(**{name: value})


def test_a_non_finite_value_exits_2_before_the_run_directory_is_made(tmp_path, capsys, data_dir):
    out = tmp_path / "run"
    rc = main(["train", "--out", str(out)] + micro_args(data_dir, "train.variant=slip", "loss.ssl_weight=nan"))
    assert rc == 2
    assert "loss.ssl_weight: 'nan' is not a finite number" in capsys.readouterr().err
    assert not out.exists()


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
               "--expect-at-least", "1"])  # above the micro run's accuracy
    assert rc == 1
    assert "below required" in _one_error_line(capsys)


def test_eval_missing_prompt_file_exits_2(tmp_path, capsys, data_dir):
    out = tmp_path / "run"
    assert main(["train", "--out", str(out)] + micro_args(data_dir)) == 0
    capsys.readouterr()
    rc = main(["eval", str(out / "final.ckpt"),
               "--manifest", str(data_dir / "val.tsv"),
               "--classes", str(data_dir / "classes.txt"),
               "--prompts", "/nonexistent/prompts.txt"])
    assert rc == 2
    assert "cannot read prompt file /nonexistent/prompts.txt" in _one_error_line(capsys)


@pytest.mark.parametrize("case", ["config", "config-directory", "classes", "eval-classes", "prompts"])
def test_an_unreadable_user_file_exits_2_naming_it_before_the_run_directory_is_made(
        tmp_path, capsys, data_dir, case):
    bad, out = tmp_path / "bad", tmp_path / "run"
    if case == "config-directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"[train]\na {label}\n\xff\n")  # not UTF-8
    train = ["train", "--out", str(out)] + micro_args(data_dir)
    argv = {
        "config": train + ["--config", str(bad)],
        "config-directory": train + ["--config", str(bad)],
        "classes": train + ["--set", f"data.classes_file={bad}"],
        "prompts": train + ["--set", f"data.prompts_file={bad}"],
        "eval-classes": ["eval", str(tmp_path / "final.ckpt"), "--manifest", str(data_dir / "val.tsv"),
                         "--classes", str(bad)],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "cannot read" in err and str(bad) in err
    assert not out.exists()


def test_eval_on_missing_checkpoint_exits_2(capsys, data_dir):
    rc = main(["eval", "/nonexistent/final.ckpt",
               "--manifest", str(data_dir / "val.tsv"),
               "--classes", str(data_dir / "classes.txt")])
    assert rc == 2


@pytest.fixture(scope="module")
def micro_checkpoint(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("micro_run")
    assert main(["train", "--out", str(out)] + micro_args(data_dir)) == 0
    return out / "final.ckpt"


def _val_with_last_label(tmp_path, data_dir, label):
    """A copy of the 8-record validation manifest whose last label line reads ``label``."""
    manifest = tmp_path / "val.tsv"
    manifest.write_text((data_dir / "val.tsv").read_text())
    labels = (data_dir / "val.tsv.labels").read_text().split()
    (tmp_path / "val.tsv.labels").write_text("\n".join(labels[:-1] + [label]) + "\n")
    return manifest


@pytest.mark.parametrize("command", ["train", "sweep", "eval"])
@pytest.mark.parametrize("label, message", [
    ("99", "val.tsv.labels: record 8 has label 99, outside [0, 4)"),
    ("-1", "val.tsv.labels:8: label -1 is negative"),
    ("1.5", "val.tsv.labels:8: label '1.5' is not an integer"),
], ids=["past-the-classes", "negative", "non-integer"])
def test_bad_validation_label_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, data_dir, micro_checkpoint, command, label, message
):
    manifest = _val_with_last_label(tmp_path, data_dir, label)
    monkeypatch.setattr("deskclip.cli.load_model_for_eval", lambda path: pytest.fail("checkpoint loaded"))
    out = tmp_path / "out"
    if command == "eval":
        argv = ["eval", str(micro_checkpoint), "--manifest", str(manifest),
                "--classes", str(data_dir / "classes.txt"), "--report", str(out)]
    else:
        over = ["--over", "train.variant=clip,filip"] if command == "sweep" else []
        argv = [command, *over, "--out", str(out)] + micro_args(data_dir, f"data.val_manifest={manifest}")
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("batch_size", ["0", "-3"])
def test_eval_batch_size_below_1_exits_2(capsys, data_dir, micro_checkpoint, batch_size):
    rc = main(["eval", str(micro_checkpoint), "--manifest", str(data_dir / "val.tsv"),
               "--classes", str(data_dir / "classes.txt"), "--batch-size", batch_size])
    assert rc == 2
    assert f"--batch-size must be at least 1, got {batch_size}" in capsys.readouterr().err


def test_resume_config_mismatch_exits_3(tmp_path, capsys, data_dir):
    out = tmp_path / "run"
    assert main(["train", "--out", str(out)] + micro_args(data_dir)) == 0
    capsys.readouterr()
    rc = main(["train", "--out", str(tmp_path / "other"),
               "--resume", str(out / "final.ckpt")]
              + micro_args(data_dir, "train.seed=42"))
    assert rc == 3
    assert "config" in capsys.readouterr().err


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, err
    return err


@pytest.mark.parametrize("failure", ["images-of-another-size", "resume-config-mismatch"])
def test_a_rerun_that_fails_leaves_the_run_directory_as_it_was(tmp_path, capsys, data_dir, failure):
    out = tmp_path / "run"
    assert main(["train", "--out", str(out)] + micro_args(data_dir)) == 0
    before = _files(out)
    assert {"config.resolved", "metrics.log", "final.ckpt"} <= set(before)
    if failure == "images-of-another-size":
        data = tmp_path / "d32"
        assert main(["synth", str(data), "--classes", "4", "--train", "8", "--val", "4", "--materialize"]) == 0
        argv, code = ["train", "--out", str(out)] + micro_args(data, "train.seed=42"), 2
    else:
        argv = ["train", "--out", str(out), "--resume", str(out / "final.ckpt")]
        argv, code = argv + micro_args(data_dir, "train.seed=42"), 3
    capsys.readouterr()
    assert main(argv) == code
    assert _files(out) == before


def _manifest_with_first_source(tmp_path, data_dir, source, split="train"):
    """A copy of a split's manifest, and of its labels, whose first record's source is ``source``."""
    lines = (data_dir / f"{split}.tsv").read_text().splitlines()
    manifest = tmp_path / "bad.tsv"
    manifest.write_text("\n".join([source + "\t" + lines[0].split("\t", 1)[1]] + lines[1:]) + "\n")
    shutil.copyfile(data_dir / f"{split}.tsv.labels", tmp_path / "bad.tsv.labels")
    return manifest


# case -> (its extra arguments, or for spec- and image- cases the first record's source; the error's
# text). The case's command is its first word, train for the rest; {out} stands for the copy of a
# finished run directory (of the data directory for synth) that the case must leave as it was, and
# {empty} for a manifest of blank lines.
INPUT_FAULTS = {
    "image-channels": (["--set", "image.channels=1"], "image.channels must be 3, got 1"),
    "spec-seed": ("synthetic:class=0;seed=-5;template=0", "bad.tsv:1: synthetic spec seed and template must be >= 0"),
    "spec-template": ("synthetic:class=0;seed=5;template=-1", "bad.tsv:1: synthetic spec seed and template"),
    "spec-class-negative": ("synthetic:class=-1;seed=5;template=0", "bad.tsv:1: synthetic spec class -1 outside"),
    "spec-class-past": ("synthetic:class=99;seed=5;template=0", "bad.tsv:1: synthetic spec class 99 outside"),
    "image-a-directory": ("{out}", "cannot read image {out}: [Errno 21] Is a directory"),
    "eval-image-a-directory": ("{out}", "cannot read image {out}: [Errno 21] Is a directory"),
    "train-out-a-file": (["--out", "{out}/final.ckpt"], "run directory must be a directory: {out}/final.ckpt"),
    "train-out-under-a-file": (["--out", "{out}/final.ckpt/run"],
                               "run directory cannot be made: {out}/final.ckpt is not a directory"),
    "sweep-out-a-file": (["--out", "{out}/final.ckpt"], "sweep directory must be a directory: {out}/final.ckpt"),
    "eval-report-a-directory": (["--report", "{out}"], "report file must be a file: {out}"),
    "synth-seed": (["{out}", "--seed", "-5"], "--seed must be at least 0, got -5"),
    "synth-out-a-file": (["{out}/train.tsv"], "output directory must be a directory: {out}/train.tsv"),
    "embed-dim-mismatch": (["--set", "text.embed_dim=32"], "embed_dim mismatch: image=16 text=32"),
    "validate-embed-dim-mismatch": (["--validate-only", "--set", "text.embed_dim=32"],
                                    "embed_dim mismatch: image=16 text=32"),
    "sweep-embed-dim-mismatch": (["--set", "text.embed_dim=32"], "embed_dim mismatch: image=16 text=32"),
    "eval-expect-nan": (["--expect-at-least", "nan"], "--expect-at-least must be a number in [0, 1], got nan"),
    "eval-expect-above-one": (["--expect-at-least", "1.01"], "--expect-at-least must be a number in [0, 1], got 1.01"),
    "eval-expect-negative": (["--expect-at-least", "-0.5"], "--expect-at-least must be a number in [0, 1], got -0.5"),
    "stats-ratio-nan": (["--min-english-ratio", "nan"], "min_english_ratio must lie in [0, 1], got nan"),
    "stats-ratio-negative": (["--min-english-ratio", "-0.5"], "min_english_ratio must lie in [0, 1], got -0.5"),
    "stats-length-negative": (["--min-length", "-3"], "min_length must be at least 0, got -3"),
    "empty-train-manifest": (["--set", "data.train_manifest={empty}"], "{empty}: the manifest holds no record"),
    "empty-val-manifest": (["--set", "data.val_manifest={empty}"], "{empty}: the manifest holds no record"),
    "sweep-empty-val-manifest": (["--set", "data.val_manifest={empty}"], "{empty}: the manifest holds no record"),
    "eval-empty-manifest": (["--manifest", "{empty}"], "{empty}: the manifest holds no record"),
}


@pytest.mark.parametrize("case", list(INPUT_FAULTS))
def test_an_input_fault_exits_2_with_one_error_line_and_leaves_the_run_directory_as_it_was(
    tmp_path, capsys, monkeypatch, data_dir, micro_checkpoint, case
):
    extra, message = INPUT_FAULTS[case]
    command = case.split("-")[0] if case.startswith(("eval-", "sweep-", "synth-", "stats-")) else "train"
    reads_data = command in ("synth", "stats")
    out = tmp_path / ("data" if reads_data else "run")
    shutil.copytree(data_dir if reads_data else micro_checkpoint.parent, out)
    empty = tmp_path / "empty.tsv"
    empty.write_text("\n  \n")
    message, manifest = message.format(out=out, empty=empty), None
    if isinstance(extra, str):  # the first record's source, in the split the command reads
        manifest = _manifest_with_first_source(tmp_path, data_dir, extra.format(out=out),
                                               "val" if command == "eval" else "train")
        extra = [] if command == "eval" else ["--set", f"data.train_manifest={manifest}"]
    extra = [item.format(out=out, empty=empty) for item in extra]
    if command == "synth":
        argv = ["synth", "--classes", "4", "--train", "16", "--val", "8", *extra]
    elif command == "stats":
        argv = ["stats", str(out / "train.tsv"), *extra]
    elif command == "eval":
        argv = ["eval", str(out / "final.ckpt"), "--manifest", str(manifest or data_dir / "val.tsv"),
                "--classes", str(data_dir / "classes.txt"), *extra]
    else:
        over = ["--over", "train.variant=clip,filip"] if command == "sweep" else []
        argv = [command, *over, *([] if "--out" in extra else ["--out", str(out)])] + micro_args(data_dir) + extra
    # every fault is found before any work starts; a run builds its model right after its pre-flight,
    # inside `train`, and eval builds one to load its checkpoint, so eval's model is not work here
    works = ["deskclip.cli.evaluate", "deskclip.cli.read_captions"]
    if command != "eval":
        works.append("deskclip.trainer._fresh_run")
    for work in works:
        monkeypatch.setattr(work, lambda *args, _work=work, **kwargs: pytest.fail(f"{_work} ran"))
    before = _files(out)
    capsys.readouterr()
    assert main(argv) == 2
    assert message in _one_error_line(capsys)
    assert _files(out) == before


@pytest.mark.parametrize("stop", [[], ["--stop-after-steps", "3"]], ids=["finished", "stopped-after-3-steps"])
def test_a_resume_against_a_training_set_of_another_size_exits_3(tmp_path, capsys, data_dir, stop):
    out = tmp_path / "run"
    assert main(["train", "--out", str(out), *stop] + micro_args(data_dir)) == 0  # 16 records, 4 steps per epoch
    before = _files(out)
    capsys.readouterr()
    # the 8 validation records as the training set: 2 steps per epoch
    argv = ["train", "--out", str(out), "--resume", str(out / "final.ckpt")]
    assert main(argv + micro_args(data_dir, f"data.train_manifest={data_dir / 'val.tsv'}")) == 3
    assert "is off the schedule of this training set (1 epochs of 2 steps)" in _one_error_line(capsys)
    assert _files(out) == before


@pytest.mark.parametrize("train", [16, 10008])
def test_synth_splits_share_no_spec(tmp_path, train):
    out = tmp_path / "d"
    assert main(["synth", str(out), "--classes", "8", "--train", str(train), "--val", "8"]) == 0
    sources = [[line.split("\t")[0] for line in (out / f"{split}.tsv").read_text().splitlines()]
               for split in ("train", "val")]
    assert len(sources[0]) == train and not set(sources[0]) & set(sources[1])
    # the validation seeds start at 10,000 unless the training seeds reach it
    assert sources[1][0].split(";")[1] == f"seed={max(10_000, train)}"


def _copy(micro_checkpoint, tmp_path):
    ckpt = tmp_path / "final.ckpt"
    shutil.copyfile(micro_checkpoint, ckpt)
    return ckpt


def _resume(tmp_path, data_dir, ckpt):
    return main(["train", "--out", str(tmp_path / "resumed"), "--resume", str(ckpt)] + micro_args(data_dir))


def _edit_state(edit):
    """Rewrite a checkpoint with ``edit`` applied to its named arrays (the checksum stays valid)."""
    def corrupt(ckpt):
        config, arrays, vocab = load_checkpoint(ckpt)
        edit(arrays)
        save_checkpoint(ckpt, config, arrays, vocab)
    return corrupt


def _set_counters(**values):
    def edit(arrays):
        for name, value in values.items():
            arrays["run.counters"][COUNTERS.index(name)] = value
    return _edit_state(edit)


def test_a_diverged_run_and_its_eval_each_print_one_stderr_line(tmp_path, data_dir):
    # a subprocess: pytest's warning capture would hide numpy's RuntimeWarnings from capsys
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}

    def run(*argv):
        done = subprocess.run([sys.executable, "-m", "deskclip", *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=300)
        return done.returncode, done.stderr

    out = tmp_path / "run"
    conv = [item for item in MICRO_SETS if not item.startswith("image.")] + [
        "train.image_encoder=conv", "image.stage_channels=8,16", "image.image_size=16", "image.embed_dim=16",
        "train.base_lr=1e150", "train.peak_lr=1e300", f"data.train_manifest={data_dir}/train.tsv",
        f"data.val_manifest={data_dir}/val.tsv", f"data.classes_file={data_dir}/classes.txt"]
    rc, err = run("train", "--out", str(out), *(arg for item in conv for arg in ("--set", item)))
    assert rc == 1 and err.startswith("error: training aborted: ") and err.count("\n") == 1, err
    # its weights are finite, so the checkpoint loads, and eval stops on the embeddings it makes
    before, data_before = _files(out), _files(data_dir)
    rc, err = run("eval", str(out / "final.ckpt"), "--manifest", str(data_dir / "val.tsv"),
                  "--classes", str(data_dir / "classes.txt"), "--report", str(out / "report.txt"))
    assert rc == 1 and err.startswith("error: ") and "are not finite" in err and err.count("\n") == 1, err
    assert _files(out) == before and _files(data_dir) == data_before


@pytest.mark.parametrize("fill_head", [
    lambda capacity: (capacity + 1, 0),
    lambda capacity: (0, capacity),
    lambda capacity: (1, 1),
], ids=["fill-past-capacity", "head-past-end", "fill-without-vectors"])
def test_resume_rejects_corrupt_queue_state_exits_3(tmp_path, capsys, data_dir, micro_checkpoint, fill_head):
    ckpt = _copy(micro_checkpoint, tmp_path)
    capacity, dim = load_checkpoint(ckpt)[1]["queue.buffer"].shape
    assert dim == 0, "a clip run never fills the neighbor queue"
    fill, head = fill_head(capacity)
    _set_counters(queue_fill=fill, queue_head=head)(ckpt)
    capsys.readouterr()
    assert _resume(tmp_path, data_dir, ckpt) == 3
    assert "capacity" in capsys.readouterr().err


def _rename_first_m(arrays):
    first = next(name for name in arrays if name.startswith("optim.m."))
    arrays["optim.m.no.such.parameter"] = arrays.pop(first)


def _reshape_first_v(arrays):
    first = next(name for name in arrays if name.startswith("optim.v."))
    arrays[first] = np.zeros(arrays[first].size + 1)


@pytest.mark.parametrize("edit", [_rename_first_m, _reshape_first_v],
                         ids=["moments-m-renamed", "moments-v-wrong-shape"])
def test_resume_rejects_moments_that_do_not_fit_the_model_exits_3(
    tmp_path, capsys, data_dir, micro_checkpoint, edit
):
    ckpt = _copy(micro_checkpoint, tmp_path)
    _edit_state(edit)(ckpt)
    capsys.readouterr()
    assert _resume(tmp_path, data_dir, ckpt) == 3
    err = capsys.readouterr().err
    assert "does not match the parameter set" in err or "moment shape mismatch" in err


def _nan_parameters(arrays):
    # a diverged model: every embedding it made would be NaN, and argmax would read class 0 for all
    for name, values in arrays.items():
        if not name.startswith(("optim.", "queue.", "run.")):
            values[...] = np.nan


def _inf_first_v(arrays):
    arrays[next(name for name in arrays if name.startswith("optim.v."))][...] = np.inf


def _head_past_end(arrays):
    arrays["run.counters"][COUNTERS.index("queue_head")] = len(arrays["queue.buffer"])


def _edit_body(edit):
    """Apply ``edit`` to the bytes before the checksum, then re-seal them, so the
    corruption reaches the checks past the checksum."""
    def corrupt(ckpt):
        body = edit(bytearray(ckpt.read_bytes()[:-4]))
        ckpt.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
    return corrupt


def _vocab_length_at(raw):
    # magic, version, config length, config text, then the vocabulary's length
    return 16 + struct.unpack_from("<I", raw, 12)[0]


def _set_byte(offset):
    def edit(raw):
        raw[offset(raw)] = 0xFF  # never valid in UTF-8
        return raw
    return _edit_body(edit)


def _append_to_vocab(extra):
    def edit(raw):
        at = _vocab_length_at(raw)
        length = struct.unpack_from("<I", raw, at)[0]
        struct.pack_into("<I", raw, at, length + len(extra))
        raw[at + 4 + length : at + 4 + length] = extra
        return raw
    return _edit_body(edit)


def _corrupt_config(edit):
    def corrupt(ckpt):
        config, arrays, vocab = load_checkpoint(ckpt)
        save_checkpoint(ckpt, edit(config), arrays, vocab)
    return corrupt


def _vocab_id_past_the_embedding(ckpt):
    config, arrays, vocab = load_checkpoint(ckpt)
    vocab["circle"] = 999  # the micro run's text.vocab_size is 64
    save_checkpoint(ckpt, config, arrays, vocab)


def _queue_of_width(width):
    def edit(arrays):
        arrays["queue.buffer"] = np.zeros((len(arrays["queue.buffer"]), width))
    return edit


def _flip_byte_at(fraction):
    def corrupt(ckpt):
        raw = bytearray(ckpt.read_bytes())
        raw[int(len(raw) * fraction)] ^= 0xFF
        ckpt.write_bytes(bytes(raw))
    return corrupt


def _as_version_1(ckpt):
    raw = bytearray(ckpt.read_bytes())
    struct.pack_into("<I", raw, 8, 1)
    ckpt.write_bytes(bytes(raw))


def _truncate(ckpt):
    raw = ckpt.read_bytes()
    ckpt.write_bytes(raw[: len(raw) // 2])


def _first_array_name_at(raw):
    # vocabulary length and text, the array count, then the first name's length
    at = _vocab_length_at(raw)
    return at + 4 + struct.unpack_from("<I", raw, at)[0] + 8


CORRUPTIONS = {
    "config-not-utf8": (_set_byte(lambda raw: 16), "config text is not UTF-8"),
    "tensor-name-not-utf8": (_set_byte(_first_array_name_at), "array name is not UTF-8"),
    "vocab-not-utf8": (_set_byte(lambda raw: _vocab_length_at(raw) + 4), "vocabulary is not UTF-8"),
    "vocab-line-without-tab": (_append_to_vocab(b"\nnotab"), "vocabulary line"),
    "vocab-id-past-vocab-size": (_vocab_id_past_the_embedding, "vocabulary ids reach past text.vocab_size=64"),
    "config-unknown-key": (_corrupt_config(lambda config: config + "\ntrain.bogus=1"), "embedded config"),
    "config-unparsable-value": (
        _corrupt_config(lambda config: config.replace("train.epochs=1", "train.epochs=one")), "embedded config"
    ),
    "byte-flipped-at-5%": (_flip_byte_at(0.05), "checksum"),
    "byte-flipped-at-10%": (_flip_byte_at(0.10), "checksum"),
    "byte-flipped-at-20%": (_flip_byte_at(0.20), "checksum"),
    "truncated": (_truncate, "checksum"),
    "trailing-bytes": (_edit_body(lambda raw: raw + b"\x00" * 8), "8 trailing bytes"),
    "version-1": (_as_version_1, "unsupported version 1"),
    "counter-negative": (_set_counters(global_step=-4), "global_step=-4.0 is not a non-negative integer"),
    "queue-head-past-end": (_edit_state(_head_past_end), "capacity"),
    "moments-m-renamed": (_edit_state(_rename_first_m), "does not match the parameter set"),
    "model-parameter-missing": (_edit_state(lambda arrays: arrays.pop("log_temperature")), "parameter names"),
    "queue-width": (_edit_state(_queue_of_width(7)), "queue width 7 is not text.embed_dim=16"),
    "best-accuracy-nan": (_set_counters(best_accuracy=np.nan), "best_accuracy=nan is neither -1 nor in [0, 1]"),
    "best-accuracy-above-one": (_set_counters(best_accuracy=7.0), "best_accuracy=7.0 is neither -1 nor in [0, 1]"),
    "parameters-nan": (_edit_state(_nan_parameters), "holds a value that is not finite"),
    "moment-inf": (_edit_state(_inf_first_v), "holds a value that is not finite"),
}


@pytest.mark.parametrize("corruption", list(CORRUPTIONS))
def test_eval_rejects_corrupt_checkpoint_exits_3(tmp_path, capsys, data_dir, micro_checkpoint, corruption):
    corrupt, message = CORRUPTIONS[corruption]
    ckpt = _copy(micro_checkpoint, tmp_path)
    corrupt(ckpt)
    before, data_before = _files(tmp_path), _files(data_dir)
    capsys.readouterr()
    rc = main(["eval", str(ckpt),
               "--manifest", str(data_dir / "val.tsv"),
               "--classes", str(data_dir / "classes.txt"),
               "--report", str(tmp_path / "report.txt")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err
    assert _files(tmp_path) == before and _files(data_dir) == data_before


@pytest.mark.parametrize("corruption", list(CORRUPTIONS))
def test_resume_rejects_corrupt_checkpoint_exits_3(tmp_path, capsys, data_dir, micro_checkpoint, corruption):
    corrupt, message = CORRUPTIONS[corruption]
    ckpt = _copy(micro_checkpoint, tmp_path)
    corrupt(ckpt)
    capsys.readouterr()
    assert _resume(tmp_path, data_dir, ckpt) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err
    assert not (tmp_path / "resumed").exists()  # nothing is written


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


@pytest.mark.parametrize("args, message", [
    (["--classes", "0"], "need at least 2 classes"),
    (["--classes", "1"], "need at least 2 classes"),
    (["--materialize", "--image-size", "0"], "--image-size must be at least 1, got 0"),
    (["--image-size", "-3"], "--image-size must be at least 1, got -3"),
    (["--seed", "-5"], "--seed must be at least 0, got -5"),
])
def test_synth_rejects_bad_sizes_exits_2_before_making_the_directory(tmp_path, capsys, args, message):
    out = tmp_path / "d"
    assert main(["synth", str(out), "--train", "8", "--val", "8"] + args) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_image_files_of_another_size_exit_2(tmp_path, capsys, micro_checkpoint, command):
    data = tmp_path / "d32"
    assert main(["synth", str(data), "--classes", "4", "--train", "8", "--val", "4", "--materialize"]) == 0
    if command == "eval":
        argv = ["eval", str(micro_checkpoint), "--manifest", str(data / "val.tsv"),
                "--classes", str(data / "classes.txt")]
    else:
        argv = ["train", "--out", str(tmp_path / "run")] + micro_args(data)
    capsys.readouterr()
    assert main(argv) == 2
    assert re.search(r"img_000000\.ff: image is 32x32, expected 16x16", capsys.readouterr().err)


def test_verify_list_names_checks_without_running(capsys):
    rc = main(["verify", "--list"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "grad.primitives" in out
    assert "queue.fifo" in out
    assert "PASS" not in out


def test_grad_encoders_check_reaches_the_token_path(monkeypatch):
    # tokens cut off from the tape: the finite differences still see the token path, the tape does not
    reads = EmbeddingSet.tokens.fget
    monkeypatch.setattr(EmbeddingSet, "tokens", property(lambda self: T.constant(reads(self).data.copy())))
    ok, detail = check_grad_encoders()
    assert not ok, detail


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


def test_an_aborted_sweep_run_is_in_the_table_and_named_in_one_error_line(tmp_path, capsys, data_dir):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--over", "train.peak_lr=0.001,1e300", "--out", str(out)] + micro_args(data_dir))
    assert rc == 1
    table, err = capsys.readouterr()
    assert (out / "sweep.txt").read_text() == table
    assert table.splitlines()[-1].split()[0] == "1e300" and table.endswith("(aborted)\n")
    assert err.startswith("error: training aborted in train.peak_lr=1e300: ") and err.count("\n") == 1, err


def test_a_sweep_run_whose_eval_meets_a_non_finite_embedding_is_aborted_and_the_sweep_goes_on(tmp_path, capsys):
    data = tmp_path / "d8"
    assert main(["synth", str(data), "--classes", "4", "--train", "8", "--val", "4", "--image-size", "16"]) == 0
    sets = [item for item in MICRO_SETS if not item.startswith("image.")] + [
        "train.image_encoder=conv", "image.image_size=16", "image.stage_channels=8,16", "image.embed_dim=16",
        f"data.train_manifest={data}/train.tsv", f"data.val_manifest={data}/val.tsv",
        f"data.classes_file={data}/classes.txt",
    ]
    out = tmp_path / "sweep"
    capsys.readouterr()
    # the 1e300 run's two steps leave every loss finite, but its epoch-end prompt embeddings are not
    rc = main(["sweep", "--over", "train.peak_lr=0.001,1e300,0.002", "--out", str(out)]
              + [arg for item in sets for arg in ("--set", item)])
    assert rc == 1
    table, err = capsys.readouterr()
    assert (out / "sweep.txt").read_text() == table
    rows = [line.split() for line in table.splitlines()[1:]]
    assert [row[0] for row in rows] == ["0.001", "1e300", "0.002"]
    assert rows[1][2:] == ["nan", "nan", "nan", "(aborted)"] and "(aborted)" not in rows[0] + rows[2]
    assert all((out / value / "final.ckpt").exists() for value in ("0.001", "0.002"))
    assert err == "error: training aborted in train.peak_lr=1e300: prompt embeddings for 'red circle' are not finite\n"


@pytest.mark.parametrize("over, message", [
    ("train.bogus=1,2", "unknown key"),
    ("text.depth=1,two", "text.depth: cannot parse"),
    ("text.depth=", "section.key=v1,v2"),
    ("text.depth", "section.key=v1,v2"),
    ("text.depth=1,2,1", "lists '1' twice"),
    ("data.prompts_file=desk.txt,sub/desk.txt", "not a directory name"),
    ("data.prompts_file=..", "not a directory name"),
    ("data.classes_file=classes.txt,missing.txt", "cannot read classes file missing.txt"),
    ("loss.variant=clip,slip", "variant mismatch: train='clip' loss='slip'"),
    ("train.batch_size=4,64", "batch_size 64 exceeds the 16-record training set"),
], ids=["unknown-key", "bad-value", "empty-list", "no-equals-sign", "duplicate", "path-separator",
        "parent-directory", "missing-input-of-a-later-run", "loss-variant-of-a-later-run",
        "oversized-batch-of-a-later-run"])
def test_sweep_rejects_before_any_run_exits_2(tmp_path, capsys, monkeypatch, data_dir, over, message):
    monkeypatch.chdir(data_dir)  # relative classes files resolve against the data directory
    out = tmp_path / "sweep"
    rc = main(["sweep", "--over", over, "--out", str(out)] + micro_args(data_dir))
    assert rc == 2
    assert message in _one_error_line(capsys)
    assert not out.exists()


def test_sweep_rejects_images_of_a_later_runs_size_before_any_run_exits_2(tmp_path, capsys):
    data = tmp_path / "d16"
    assert main(["synth", str(data), "--classes", "4", "--train", "8", "--val", "4",
                 "--image-size", "16", "--materialize"]) == 0
    out = tmp_path / "sweep"
    capsys.readouterr()
    assert main(["sweep", "--over", "image.image_size=16,32", "--out", str(out)] + micro_args(data)) == 2
    assert re.search(r"img_000000\.ff: image is 16x16, expected 32x32", capsys.readouterr().err)
    assert not out.exists()


def test_data_image_size_is_not_a_key(capsys):
    """The image size is image.image_size; [data] has no second copy of it."""
    assert main(["train", "--validate-only", "--set", "data.image_size=32"]) == 2
    assert "unknown key(s) in [data]: image_size" in capsys.readouterr().err
