#!/usr/bin/env python3
"""Loss-trajectory check for kernel rewrites.

Trains the first 20 steps of the end-to-end acceptance recipe (8-class
synthetic desk data, configs/desk.ini) in the given checkout (default:
the one holding this script) and prints ``repr`` of the step's total
loss for conv clip, conv defilip and vit defilip, one line per step.
The recipe file is the one next to this script, so an older checkout
trains with the same recipe.
metrics.log keeps only 6 decimals, so it cannot tell a reordered float
sum from a wrong one; these lines keep all 17 digits.

A rewrite that changes the order of float sums cannot reproduce the old
bytes, but it must stay within 1e-9 relative of the old trajectory:

    python3 scripts/check_trajectory.py /path/to/parent > before.txt
    python3 scripts/check_trajectory.py --against before.txt

With ``--against`` it exits 1 if any step differs by more than 1e-9
relative, or if the two outputs do not list the same steps.
"""

import argparse
import contextlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

STEPS = 20
TOLERANCE = 1e-9
DESK_RECIPE = Path(__file__).resolve().parents[1] / "configs" / "desk.ini"
RUNS = [("conv", "clip"), ("conv", "defilip"), ("vit", "defilip")]


def trajectory(encoder: str, variant: str, data: Path, out: Path) -> list[float]:
    """Totals of the first STEPS optimizer steps of the real training loop."""
    from deskclip import trainer
    from deskclip.config import load_run_config
    from deskclip.data import read_manifest

    cfg = load_run_config(DESK_RECIPE, [f"train.variant={variant}", f"train.image_encoder={encoder}"])
    records = read_manifest(data / "train.tsv")
    val = read_manifest(data / "val.tsv")
    names = [line for line in (data / "classes.txt").read_text().splitlines() if line]
    totals: list[float] = []
    step_loss = trainer.compute_step_loss

    def recording(*args, **kwargs):
        breakdown = step_loss(*args, **kwargs)
        totals.append(float(breakdown.total.data))
        return breakdown

    trainer.compute_step_loss = recording
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            trainer.train(out, records, val, names, cfg.train, cfg.loss, cfg.image, cfg.text,
                          stop_after_steps=STEPS)
    finally:
        trainer.compute_step_loss = step_loss
    return totals


def parse(text: str) -> dict[tuple[str, int], float]:
    rows = {}
    for line in text.splitlines():
        run, step, value = line.split()
        rows[(run, int(step))] = float(value)
    return rows


def compare(before: dict, after: dict) -> int:
    if set(before) != set(after):
        print(f"step sets differ: {sorted(set(before) ^ set(after))[:4]}", file=sys.stderr)
        return 1
    worst, where = 0.0, None
    for key, old in before.items():
        gap = abs(after[key] - old) / max(abs(old), 1e-300)
        if gap > worst:
            worst, where = gap, key
    print(f"worst relative gap {worst:.3e} at {where} (tolerance {TOLERANCE:.0e})", file=sys.stderr)
    return 0 if worst <= TOLERANCE else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    p.add_argument("--against", metavar="FILE", help="earlier output to compare with")
    args = p.parse_args()
    sys.path.insert(0, str(Path(args.checkout).resolve() / "src"))
    import deskclip
    from deskclip.cli import main as cli_main

    print(f"deskclip from {Path(deskclip.__file__).parent}", file=sys.stderr)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(["synth", str(data), "--classes", "8", "--train", "800",
                           "--val", "200", "--seed", "0"])
        if rc != 0:
            return rc
        for encoder, variant in RUNS:
            totals = trajectory(encoder, variant, data, Path(tmp) / f"{encoder}-{variant}")
            for step, total in enumerate(totals):
                line = f"{encoder}/{variant} {step} {total!r}"
                lines.append(line)
                print(line, flush=True)
    if args.against:
        return compare(parse(Path(args.against).read_text()), parse("\n".join(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
