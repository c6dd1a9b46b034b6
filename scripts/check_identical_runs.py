#!/usr/bin/env python3
"""Byte-identity check for pure refactors.

Trains one fixed micro recipe in the given checkout (default: the one
holding this script) and prints the sha256 of metrics.log, final.ckpt and
best.ckpt for each run: all five variants on the ViT encoder, plus filip
and defilip on the conv encoder, plus filip and defilip on both encoders
at loss.filip_token_fraction=0.5, so token selection is hashed too.
Synthetic data, seed 0, 4 steps per epoch over 2 epochs, so every run
also writes best.ckpt and the nearest-neighbor queue wraps.

Run it on two checkouts and diff the outputs; a pure refactor prints the
same hashes:

    python3 scripts/check_identical_runs.py /path/to/parent > before.txt
    python3 scripts/check_identical_runs.py > after.txt
    diff before.txt after.txt
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

RECIPE = [
    "train.epochs=2", "train.batch_size=4", "train.seed=0", "train.warmup_epochs=0.5",
    "text.vocab_size=64", "text.context_length=12", "text.width=16",
    "text.depth=1", "text.heads=2", "text.embed_dim=16",
    "loss.neighbor_queue_capacity=8",
]
IMAGE = {
    "vit": ["image.image_size=16", "image.patch_size=8", "image.width=16",
            "image.depth=1", "image.heads=2", "image.embed_dim=16"],
    "conv": ["train.image_encoder=conv", "image.image_size=16",
             "image.stage_channels=8,16", "image.embed_dim=16"],
}
HALF = "loss.filip_token_fraction=0.5"
# (encoder, variant, extra overrides)
RUNS = [("vit", v, ()) for v in ("clip", "slip", "filip", "declip", "defilip")]
RUNS += [("conv", "filip", ()), ("conv", "defilip", ())]
RUNS += [(e, v, (HALF,)) for e in ("vit", "conv") for v in ("filip", "defilip")]
ARTIFACTS = ("metrics.log", "final.ckpt", "best.ckpt")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    args = p.parse_args()
    sys.path.insert(0, str(Path(args.checkout).resolve() / "src"))
    import deskclip
    from deskclip.cli import main as cli_main

    print(f"deskclip from {Path(deskclip.__file__).parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(["synth", str(data), "--classes", "4", "--train", "16",
                           "--val", "8", "--image-size", "16", "--seed", "0"])
        if rc != 0:
            return rc
        inputs = [f"data.train_manifest={data}/train.tsv", f"data.val_manifest={data}/val.tsv",
                  f"data.classes_file={data}/classes.txt"]
        for encoder, variant, extra in RUNS:
            label = f"{encoder}/{variant}" + "".join(f" {item}" for item in extra)
            out = Path(tmp) / label.replace("/", "-").replace(" ", "-")
            sets = [f"train.variant={variant}"] + RECIPE + IMAGE[encoder] + list(extra) + inputs
            argv = ["train", "--out", str(out)]
            for item in sets:
                argv += ["--set", item]
            with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rc = cli_main(argv)
            if rc != 0:
                print(f"{label}: train exited {rc}", file=sys.stderr)
                return rc
            for name in ARTIFACTS:
                digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
                print(f"{label} {name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
