#!/usr/bin/env python3
"""Train all five supervision variants on the synthetic benchmark and
print their zero-shot accuracies side by side.

Every variant trains with the desk recipe in configs/desk.ini; --set
overrides any of its keys, e.g. --set train.epochs=2. Writes one run
directory per variant under --out and a benchmark.txt summary. Expects a
dataset laid out like `deskclip synth` produces; point --data at that
directory (it is generated on the fly when absent).
"""

import argparse
import sys
import time
from pathlib import Path

from deskclip.cli import main as cli_main
from deskclip.config import load_run_config
from deskclip.losses import VARIANTS
from deskclip.trainer import train
from deskclip.data import read_manifest
from deskclip.zeroshot import desk_prompts

DESK_RECIPE = Path(__file__).resolve().parents[1] / "configs" / "desk.ini"


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--data", default="runs/benchmark-data")
    p.add_argument("--out", default="runs/benchmark")
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                   help="extra config overrides applied to every variant")
    p.add_argument("--variants", default=",".join(VARIANTS),
                   help="comma-separated subset to run")
    return p.parse_args()


def ensure_data(data_dir: Path, classes: int, seed: int) -> None:
    if (data_dir / "train.tsv").exists():
        return
    rc = cli_main(["synth", str(data_dir), "--classes", str(classes), "--seed", str(seed)])
    if rc != 0:
        sys.exit(rc)


def main() -> int:
    args = parse_args()
    data_dir = Path(args.data)
    ensure_data(data_dir, args.classes, args.seed)

    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    unknown = set(variants) - set(VARIANTS)
    if unknown:
        print(f"unknown variant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2

    class_names = [
        line.strip()
        for line in (data_dir / "classes.txt").read_text().splitlines()
        if line.strip()
    ]
    train_records = read_manifest(data_dir / "train.tsv")
    val_records = read_manifest(data_dir / "val.tsv")

    rows = []
    for variant in variants:
        cfg = load_run_config(DESK_RECIPE, [f"train.variant={variant}", f"train.seed={args.seed}"] + args.set)
        started = time.time()
        result = train(
            Path(args.out) / variant,
            train_records, val_records, class_names,
            cfg.train, cfg.loss, cfg.image, cfg.text,
            prompts=desk_prompts(),
        )
        elapsed = time.time() - started
        rows.append((variant, result.final_accuracy, result.best_accuracy, elapsed,
                     result.aborted))
        status = "aborted" if result.aborted else "done"
        print(f"[{variant}] {status}: final={result.final_accuracy:.4f} "
              f"best={result.best_accuracy:.4f} ({elapsed:.0f}s)")

    lines = [f"{'variant':>8}  {'final':>7}  {'best':>7}  {'seconds':>7}"]
    for variant, final, best, elapsed, aborted in rows:
        mark = " (aborted)" if aborted else ""
        lines.append(f"{variant:>8}  {final:>7.4f}  {best:>7.4f}  {elapsed:>7.0f}{mark}")
    table = "\n".join(lines)
    print()
    print(table)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "benchmark.txt").write_text(table + "\n", encoding="utf-8")
    return 1 if any(r[4] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
