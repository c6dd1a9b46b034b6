"""Golden runs: pinned outputs of fixed training runs, and the check against them.

MICRO trains 4-class synthetic data, seed 0, 2 epochs of 4 steps (each run
writes best.ckpt, the neighbor queue wraps); one vit defilip run is stopped twice
and resumed. DESK, the first 20 steps of configs/desk.ini (~80 s), is not in
tier-1 (tests/test_golden.py). golden.tsv has run<TAB>key<TAB>value lines:
``step N`` is repr of step N's total loss, ``log N`` line N of metrics.log (JSON,
matched exactly), ``final.ckpt A``/``best.ckpt A`` array A's L2 norm and dot
product with a fixed +-1 vector. Numbers match within TOLERANCE relative to the
largest magnitude on their line, which absorbs BLAS kernel choice (it moved conv
checkpoints by 8.2e-12). Run from the repository root with src on PYTHONPATH:

    python -m tests.golden [--desk]           check MICRO (or DESK), print the worst gap
    python -m tests.golden --write [--desk]   rewrite MICRO's (or DESK's) entries

A change that moves outputs on purpose rewrites the file in the same commit.
"""

import argparse
import json
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from tests.conftest import DESK_RECIPE  # first: it pins one BLAS thread before numpy loads

import numpy as np

from deskclip import trainer
from deskclip.checkpoint import load_checkpoint
from deskclip.config import load_run_config
from deskclip.data import class_names, generate_synthetic
from deskclip.losses import VARIANTS

GOLDEN = Path(__file__).with_name("golden.tsv")
TOLERANCE = 1e-9
RECIPE = ["train.epochs=2", "train.batch_size=4", "train.seed=0", "train.warmup_epochs=0.5",
          "text.vocab_size=64", "text.context_length=12", "text.width=16", "text.depth=1",
          "text.heads=2", "text.embed_dim=16", "loss.neighbor_queue_capacity=8"]
IMAGE = {"vit": ["image.image_size=16", "image.patch_size=8", "image.width=16", "image.depth=1",
                 "image.heads=2", "image.embed_dim=16"],
         "conv": ["train.image_encoder=conv", "image.image_size=16", "image.stage_channels=8,16",
                  "image.embed_dim=16"]}
# run label -> (config overrides, steps of each invocation; None runs to the end)
MICRO = {
    f"{encoder}/{variant}" + "".join(f" {item}" for item in extra):
        ([f"train.variant={variant}", *RECIPE, *IMAGE[encoder], *extra], (None,))
    for encoder, variant, extra in [("vit", v, ()) for v in VARIANTS]
    + [("conv", "filip", ()), ("conv", "defilip", ())]
    + [(e, v, ("loss.filip_token_fraction=0.5",)) for e in ("vit", "conv") for v in ("filip", "defilip")]
}
RESUMED = "vit/defilip stopped 3+3"
MICRO[RESUMED] = (MICRO["vit/defilip"][0], (3, 3, None))
DESK = {
    f"desk {encoder}/{variant}": ([f"train.variant={variant}", f"train.image_encoder={encoder}"], (20,))
    for encoder, variant in [("conv", "clip"), ("conv", "defilip"), ("vit", "defilip")]
}


def _fingerprints(path: Path) -> dict[str, list[float]]:
    prints = {}
    for name, array in load_checkpoint(path)[1].items():
        flat, signs = array.ravel(), 1.0 - 2.0 * ((np.arange(array.size) * 2654435761 >> 16) & 1)
        prints[f"{path.name} {name}"] = [float(np.linalg.norm(flat)), float(flat @ signs)]
    return prints


def run_dir(workdir: Path, label: str) -> Path:
    return workdir / label.replace("/", "-").replace(" ", "_")


def record(labels, workdir: Path) -> dict[str, dict]:
    """Train each labelled run in ``workdir``; its values by key. A run that aborts raises."""
    recorded, totals, step_loss = {}, [], trainer.compute_step_loss

    def recording(*args, **kwargs):  # wraps the trainer's loss to keep all 17 digits of each total
        breakdown = step_loss(*args, **kwargs)
        totals.append(float(breakdown.total.data))
        return breakdown

    for label in labels:
        desk = label in DESK
        overrides, stops = (DESK if desk else MICRO)[label]
        cfg = load_run_config(DESK_RECIPE if desk else None, overrides)
        classes, per_class, val_per_class = (8, 100, 25) if desk else (4, 4, 2)
        out, resume = run_dir(workdir, label), None
        totals.clear()
        with mock.patch.object(trainer, "compute_step_loss", recording), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for stop in stops:
                result = trainer.train(
                    out, generate_synthetic(classes, per_class, 0),
                    generate_synthetic(classes, val_per_class, 10_000), class_names(classes),
                    cfg.train, cfg.loss, cfg.image, cfg.text, resume_from=resume, stop_after_steps=stop,
                )
                if result.aborted:
                    raise RuntimeError(f"{label}: training aborted: {result.abort_reason}")
                resume = result.final_path
        values = {f"step {i}": [total] for i, total in enumerate(totals)}
        if not desk:
            lines = (out / "metrics.log").read_text(encoding="utf-8").splitlines(keepends=True)
            values.update({f"log {i}": line for i, line in enumerate(lines)})
            values.update({**_fingerprints(out / "final.ckpt"), **_fingerprints(out / "best.ckpt")})
        recorded[label] = values
    return recorded


def _gap(old, new) -> tuple[float, str]:
    if old is None or new is None:
        return np.inf, f"missing from {'the run' if new is None else GOLDEN.name}"
    if isinstance(old, str):
        return (0.0 if old == new else np.inf), f"{old!r} became {new!r}"
    gap = float(np.max(np.abs(np.subtract(new, old)))) / max(float(np.max(np.abs(old))), 1e-300)
    return (np.inf if np.isnan(gap) else gap), f"relative gap {gap:.3e}"


def compare(golden: dict, recorded: dict) -> tuple[dict[str, str], str]:
    """One line per failing run, and a report of them that ends with the worst gap and where it is."""
    worst, where = 0.0, "-"
    failures = {label: "in the file but in no run table" for label in golden.keys() - MICRO.keys() - DESK.keys()}
    for label, values in recorded.items():
        expected = golden.get(label, {})  # a run missing from the file misses every value
        gaps = [(*_gap(expected.get(key), values.get(key)), key) for key in expected.keys() | values.keys()]
        off = sum(gap > TOLERANCE for gap, _, _ in gaps)
        # the worst value off, a number before a log line; else the worst number
        gap, what, key = max(gaps, key=lambda g: (g[0] > TOLERANCE, g[1].startswith("relative"), g[0]))
        if gap > worst:
            worst, where = gap, f"{label} {key}"
        if off:
            failures[label] = f"{off} value(s) off, worst {key}: {what}"
    lines = [f"FAIL {label}: {text}" for label, text in sorted(failures.items())]
    return failures, "\n".join(lines + [f"worst relative gap {worst:.3e} at {where} (tolerance {TOLERANCE:.0e})"])


def load(path: Path = GOLDEN) -> dict[str, dict]:
    golden: dict[str, dict] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        label, key, value = line.split("\t")
        golden.setdefault(label, {})[key] = json.loads(value) if value[0] == '"' else list(map(float, value.split()))
    return golden


def dump(golden: dict, path: Path = GOLDEN) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for label, values in golden.items():
            for key, value in values.items():
                text = json.dumps(value) if isinstance(value, str) else " ".join(map(repr, value))
                out.write(f"{label}\t{key}\t{text}\n")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--write", action="store_true", help=f"rewrite these runs' entries in {GOLDEN.name}")
    p.add_argument("--desk", action="store_true", help="the desk trajectories instead of the micro runs")
    args = p.parse_args(argv)
    golden = load() if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        recorded = record(DESK if args.desk else MICRO, Path(tmp))  # raises, so nothing is written, if a run fails
    if args.write:
        merged = {**golden, **recorded}
        dump({label: merged[label] for label in [*MICRO, *DESK] if label in merged})
        print(f"wrote {len(recorded)} runs to {GOLDEN}")
        return 0
    failures, text = compare(golden, recorded)
    print(text)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
