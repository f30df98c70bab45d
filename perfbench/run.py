"""Repository benchmark: four workloads on two clocks.

Usage (from the repository root)::

    python3 perfbench/run.py --workload detect-fresh --seed 1 \\
        --seconds 25 --trace 0

``--workload all`` runs the four workloads one after another, each in its
own process, and fails if any of them fails.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run and writes its spans as Chrome-trace JSON under
``.perfbench/``.  End-to-end host times are normalised to a reference
speed measured alongside every op (``workloads.reference_ms``); their
plain wall-clock values are printed too.  Every metric is printed as
``name value unit``; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when an output check or a workload guard fails, 2
when the checkout has no ``src/repro`` package to measure.

The workloads, their metrics and which layer each metric attributes are
described in ``perfbench/design.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("detect-fresh", "stream-session", "search-train", "fleet-open")


def pin_blas_threads() -> None:
    """Run BLAS/OpenMP on one thread.  Must run before NumPy is imported.

    The GEMMs here are small (64x64 images, batch 1 to 8): a second BLAS
    thread buys little, and it makes every GEMM wait for the slower of
    two CPUs, so one busy neighbour on a shared host moved the median op
    time of batch-1 detection by 40%.  With one thread it did not move.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def run_all(args) -> int:
    """Each workload in a child process of its own (peak RSS is per
    process); the exit status is the worst child's."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)])
        status = max(status, child.returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run the benchmark "
              "from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    pin_blas_threads()
    sys.path[:0] = [str(src), str(HERE)]
    import workloads

    result = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics = workloads.per_layer_metrics(result)
        units = dict(workloads.PER_LAYER)
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        result.recorder.write(out / f"trace-{stem}.json")
        rollup = workloads.span_rollup(result)
        with open(out / f"rollup-{stem}.json", "w") as fh:
            json.dump(rollup, fh, indent=1, sort_keys=True)
        print(f"spans written to {out / f'trace-{stem}.json'}")
        print(f"span {'(per op)':30s} {'calls':>9s} {'ms':>9s} "
              f"{'self_ms':>9s}")
        for name, row in sorted(rollup.items()):
            print(f"span {name:30s} {row['calls']:9.4g} {row['ms']:9.4g} "
                  f"{row['self_ms']:9.4g}")
    else:
        metrics = workloads.end_to_end_metrics(result)
        units = dict(workloads.END_TO_END)
        wall = workloads.end_to_end_metrics(result, normalise=False)
        refs = [r for op in result.op_refs for r in op]
        print("wall-clock, not normalised: " + ", ".join(
            f"{name} {wall[name]:.6g}" for name in
            ("setup_s", "host_ms_p50", "host_ms_p90", "ops_per_s"))
            + f"; reference slice median {statistics.median(refs):.4g} ms "
            f"over {len(refs)} samples")
    for check in result.checks:
        print(f"ok: {check}")
    print(f"digest {result.digest}")
    print(f"timing samples {len(result.op_ms)} untraced, "
          f"{len(result.traced_op_ms)} traced; set-ups {len(result.setup_s)}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        # an output check or workload guard failed: report, no result
        print(f"check failed: {exc}", file=sys.stderr)
        sys.exit(1)
