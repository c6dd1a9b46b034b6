"""Command-line entry point.

Subcommands: train, eval, stats, synth, verify, sweep-text-depth.
Exit codes form a stable contract: 0 success, 1 verification or accuracy
failure (including aborted training), 2 usage/config/manifest problems,
3 checkpoint or artifact mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path

from .config import RunConfig, load_run_config
from .corpus import FilterPolicy, analyze, filter_captions, read_captions
from .data import (
    PairRecord,
    class_names as synthetic_class_names,
    generate_synthetic,
    materialize,
    read_manifest,
    write_manifest,
)
from .errors import CheckpointError, ConfigError, ManifestError, TrainingAborted
from .trainer import TrainResult, build_model, load_model_for_eval, train
from .verify import FAULTS, run_verify
from .zeroshot import PromptSet, desk_prompts, evaluate, evaluation_report

EXIT_OK = 0
EXIT_FAILURE = 1       # verification or accuracy failure
EXIT_USAGE = 2         # bad config, manifest, or arguments
EXIT_ARTIFACT = 3      # checkpoint does not match what was asked of it


def _require_file(path: str, what: str) -> str:
    # missing path is a usage error (2), not an artifact mismatch (3)
    if not Path(path).is_file():
        raise ConfigError(f"{what} not found: {path}")
    return path


def _load_prompts(path: str) -> PromptSet:
    if not path:
        return desk_prompts()
    if not Path(path).is_file():
        raise ConfigError(f"prompt file not found: {path}")
    return PromptSet.load(path)


def _read_class_names(path: str) -> list[str]:
    if not Path(path).is_file():
        raise ConfigError(f"classes file not found: {path}")
    names = [line.strip() for line in Path(path).read_text(encoding="utf-8").splitlines()]
    names = [n for n in names if n]
    if not names:
        raise ConfigError(f"classes file is empty: {path}")
    return names


def _gather_run_inputs(cfg: RunConfig):
    if not cfg.data.train_manifest:
        raise ConfigError("data.train_manifest is required")
    train_records = read_manifest(cfg.data.train_manifest)
    val_records: list[PairRecord] = []
    names: list[str] = []
    if cfg.data.val_manifest:
        val_records = read_manifest(cfg.data.val_manifest)
        if not cfg.data.classes_file:
            raise ConfigError("data.classes_file is required when a validation manifest is set")
        names = _read_class_names(cfg.data.classes_file)
    return train_records, val_records, names, _load_prompts(cfg.data.prompts_file)


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.set)
    if args.validate_only:
        print("config ok")
        return EXIT_OK
    train_records, val_records, names, prompts = _gather_run_inputs(cfg)
    result = train(
        args.out or cfg.data.out_dir,
        train_records,
        val_records,
        names,
        cfg.train,
        cfg.loss,
        cfg.image,
        cfg.text,
        prompts=prompts,
        resume_from=_require_file(args.resume, "resume checkpoint") if args.resume else None,
        stop_after_steps=args.stop_after_steps,
    )
    _print_result(result)
    if result.aborted:
        print(f"training aborted: {result.abort_reason}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _print_result(result: TrainResult) -> None:
    print(f"steps_run={result.steps_run}")
    print(f"final_accuracy={result.final_accuracy:.4f}")
    if result.best_path is not None:
        print(f"best_accuracy={result.best_accuracy:.4f}")
    print(f"final_checkpoint={result.final_path}")
    print(f"metrics_log={result.metrics_path}")


def cmd_eval(args) -> int:
    model, vocab, (train_cfg, _, image_cfg, text_cfg) = load_model_for_eval(
        _require_file(args.checkpoint, "checkpoint")
    )
    records = read_manifest(args.manifest)
    names = _read_class_names(args.classes)
    prompts = _load_prompts(args.prompts)
    accuracy, predictions, labels = evaluate(
        model, records, names, prompts, vocab,
        text_cfg.context_length, image_cfg.image_size, args.batch_size,
    )
    report = evaluation_report(predictions, labels, names)
    print(report)
    if args.report:
        Path(args.report).write_text(report + "\n", encoding="utf-8")
    if args.expect_at_least is not None and accuracy < args.expect_at_least:
        print(
            f"accuracy {accuracy:.4f} below required {args.expect_at_least:.4f}",
            file=sys.stderr,
        )
        return EXIT_FAILURE
    return EXIT_OK


def _emit_report(report, machine: bool) -> None:
    print("\n".join(report.key_value_lines()) if machine else report.pretty())


def cmd_stats(args) -> int:
    plain = {"auto": None, "manifest": False, "plain": True}[args.format]
    captions = read_captions(args.path, plain=plain)
    _emit_report(analyze(captions), args.machine)
    wants_filter = (
        args.min_length > 0 or args.max_length is not None or args.min_english_ratio > 0
    )
    if wants_filter:
        policy = FilterPolicy(
            min_length=args.min_length,
            max_length=args.max_length if args.max_length is not None else 10**9,
            min_english_ratio=args.min_english_ratio,
        )
        kept, tally = filter_captions(captions, policy)
        print(f"rejected_length={tally['length']}")
        print(f"rejected_ratio={tally['ratio']}")
        print("-- after filtering --")
        _emit_report(analyze(kept), args.machine)
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.train < args.classes or args.val < args.classes:
        raise ConfigError("--train and --val must each cover every class at least once")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_records = generate_synthetic(args.classes, args.train // args.classes, args.seed)
    val_records = generate_synthetic(args.classes, args.val // args.classes, args.seed + 10_000)
    if args.materialize:
        train_records = materialize(train_records, out / "images" / "train", args.image_size)
        val_records = materialize(val_records, out / "images" / "val", args.image_size)
    write_manifest(out / "train.tsv", train_records)
    write_manifest(out / "val.tsv", val_records)
    names = synthetic_class_names(args.classes)
    (out / "classes.txt").write_text("\n".join(names) + "\n", encoding="utf-8")
    print(f"wrote {len(train_records)} train / {len(val_records)} val records under {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    faults = [name for name in FAULTS if getattr(args, f"break_{name.replace('-', '_')}")]
    return run_verify(faults=faults, list_only=args.list)


def _sweep_one(cfg: RunConfig, depth: int, out_root: str):
    records, val_records, names, prompts = _gather_run_inputs(cfg)
    text_cfg = dataclasses.replace(cfg.text, depth=depth)
    started = time.perf_counter()
    result = train(
        Path(out_root) / f"depth{depth}",
        records, val_records, names,
        cfg.train, cfg.loss, cfg.image, text_cfg, prompts=prompts,
    )
    # wall time of the whole run, so eval and checkpoint writes are included
    s_per_step = (time.perf_counter() - started) / result.steps_run if result.steps_run else math.nan
    params = build_model(cfg.train, cfg.image, text_cfg).parameter_count()
    return depth, params, result.final_accuracy, result.aborted, s_per_step


def cmd_sweep(args) -> int:
    try:
        depths = [int(d) for d in args.depths.split(",") if d.strip()]
    except ValueError:
        raise ConfigError(f"--depths must be comma-separated integers, got {args.depths!r}")
    if not depths:
        raise ConfigError("--depths is empty")
    cfg = load_run_config(args.config, args.set)
    out_root = args.out or cfg.data.out_dir
    rows = [_sweep_one(cfg, depth, out_root) for depth in sorted(depths)]
    lines = [f"{'depth':>5}  {'params':>10}  {'val_top1':>8}  {'s_per_step':>10}"]
    for depth, params, accuracy, aborted, s_per_step in rows:
        status = "  (aborted)" if aborted else ""
        lines.append(f"{depth:>5}  {params:>10}  {accuracy:>8.4f}  {s_per_step:>10.3f}{status}")
    table = "\n".join(lines)
    print(table)
    Path(out_root).mkdir(parents=True, exist_ok=True)
    (Path(out_root) / "sweep.txt").write_text(table + "\n", encoding="utf-8")
    return EXIT_FAILURE if any(r[3] for r in rows) else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deskclip",
        description="Desk-scale contrastive language-image pretraining toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one supervision variant")
    p.add_argument("--config", help="INI config file; omit to use built-in defaults")
    p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                   help="override a config value (repeatable)")
    p.add_argument("--out", help="run directory (overrides data.out_dir)")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--stop-after-steps", type=int, help="end early after N optimizer steps")
    p.add_argument("--validate-only", action="store_true",
                   help="check the config and exit without training")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="zero-shot evaluation of a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--manifest", required=True, help="labeled image/caption manifest")
    p.add_argument("--classes", required=True, help="file with one class name per line")
    p.add_argument("--prompts", default="", help="prompt template file (default: built-in desk set)")
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--report", help="also write the report to this file")
    p.add_argument("--expect-at-least", type=float,
                   help="exit 1 if top-1 accuracy falls below this value")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("stats", help="corpus statistics for a caption file")
    p.add_argument("path")
    p.add_argument("--format", choices=("auto", "manifest", "plain"), default="auto")
    p.add_argument("--machine", action="store_true", help="key=value lines instead of a table")
    p.add_argument("--min-length", type=int, default=0)
    p.add_argument("--max-length", type=int, default=None)
    p.add_argument("--min-english-ratio", type=float, default=0.0)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("synth", help="generate a synthetic shapes dataset")
    p.add_argument("out_dir")
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--train", type=int, default=800)
    p.add_argument("--val", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--image-size", type=int, default=32)
    p.add_argument("--materialize", action="store_true",
                   help="render images to farbfeld files instead of inline specs")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("verify", help="run the built-in oracle suite")
    p.add_argument("--list", action="store_true", help="list check names without running")
    for fault in FAULTS:
        p.add_argument(f"--break-{fault}", action="store_true",
                       help=argparse.SUPPRESS)  # test hooks: deliberately break one internal
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep-text-depth", help="train at several text-encoder depths")
    p.add_argument("--config", help="INI config file; omit to use built-in defaults")
    p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE")
    p.add_argument("--depths", default="1,2,3,4", help="comma-separated depth list")
    p.add_argument("--out", help="sweep root directory (runs land in depth<N>/ below it)")
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ManifestError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except CheckpointError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ARTIFACT
    except TrainingAborted as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
