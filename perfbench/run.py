#!/usr/bin/env python3
"""Benchmark of deskclip: training step time, zero-shot eval throughput, per-layer trace.

    python3 perfbench/run.py --workload train-conv-clip --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its
``src/``. One process runs one workload as a closed loop with a single
BLAS thread. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See perfbench/README.md for the workloads and what each metric means.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

END_TO_END_UNITS = {"setup_s": "s", "step_ms": "ms", "eval_images_per_s": "images/s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("calls", "graph_nodes")):
        return "count"
    if name.endswith(("mb", "_mb")):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    raise ValueError(f"no unit for metric {name!r}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   help="train-conv-clip, train-vit-defilip, eval-conv-zeroshot; "
                        "any train-(conv|vit)-(clip|declip|defilip) for reference figures")
    p.add_argument("--seed", type=int, default=0, help="makes the inputs (default 0)")
    p.add_argument("--seconds", type=float, default=30.0, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer figures from a traced run instead of end-to-end ones")
    p.add_argument("--text-depth", type=int, default=4, help="text transformer depth (reference sweeps)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "deskclip" / "__init__.py").is_file():
        print(f"error: no deskclip sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: E402 - after the thread pinning and the path

    try:
        workload = workloads.Workload.parse(args.workload)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    run = workloads.Run(workload, args.seed, args.seconds, bool(args.trace), args.text_depth,
                        PROCESS_START, RESULTS)
    measured = run.execute()

    if args.trace:
        values, counts = measured["per_layer"]
        metrics = {name: {"value": values[name], "unit": per_layer_unit(name)} for name in sorted(values)}
    else:
        values = {
            "setup_s": measured["setup_s"],
            "step_ms": measured["step_ms"],
            "eval_images_per_s": measured["eval_images_per_s"],
            "peak_rss_mb": workloads.peak_rss_mb(),
        }
        counts = {}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    correct = not run.failures and run.attempted > run.failed

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.text_depth != 4:
        stem += f"-depth{args.text_depth}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "text_depth": args.text_depth,
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "checks_run": sorted(run.checks_run),
        "check_failures": run.failures,
        "samples": measured["samples"],
        "counts": counts,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps(run.tracer.dump()) + "\n", encoding="utf-8")

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"openblas_num_threads={os.environ['OPENBLAS_NUM_THREADS']}")
    for failure in run.failures:
        print(f"CHECK FAILED {failure}")
    print(f"checks passed: {', '.join(sorted(run.checks_run))}" if not run.failures else "checks: FAILED")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted={run.attempted} failed={run.failed}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
