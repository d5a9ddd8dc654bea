"""Benchmark of the fedtx commit protocol; one workload per invocation.

    python3 perfbench/run.py --workload rmw_cross_store --seed 1 --seconds 30 --trace 0

Run from the repository root: the program is imported from ``src/``. A run
repeats whole rounds (fresh stores, load, a fixed list of transactions,
checks) until ``--seconds`` have passed, and prints one JSON object as its
last line. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds, reports the per-layer metrics and the
tracing overhead, and writes the spans of its last traced round under
``perfbench/out/``. ``--smoke`` runs one short round of each kind instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def pin_to_one_cpu() -> None:
    """Keep the client and the program's write-pool threads on one CPU.

    On a small shared VM, a wake-up handed to another virtual CPU can wait
    for the host to schedule it; that made the per-phase write pool's
    hand-offs, not the program's own work, set the spread of the timings.
    Threads inherit the affinity, so this runs before any thread starts.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one short round of each kind")
    args = parser.parse_args(argv)

    source = ROOT / "src" / "fedtx" / "__init__.py"
    if not source.is_file():
        print(f"error: {source.parent} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    pin_to_one_cpu()
    from tracing import LayerStats, Tracer, write_spans
    from workloads import SMOKE_TX, WORKLOADS, CheckFailed, end_to_end, percentile_us, run_round

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tx_count = SMOKE_TX if args.smoke else workload.tx_per_round
    inputs = workload.make_inputs(args.seed, tx_count)

    untraced, layers, last_tracer = [], LayerStats(), None
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            traced = args.trace == 1 and len(untraced) > len(layers.results)
            tracer = Tracer() if traced else None
            result = run_round(workload, inputs, tracer)
            print(
                f"round {len(untraced) + len(layers.results)}{' traced' if traced else ''}: "
                f"setup {result.raw_setup_s:.3f} s, {result.committed} tx in "
                f"{result.raw_measure_s:.3f} s; speed scale {result.scale:.3f}",
                file=sys.stderr,
            )
            if traced:
                layers.add_round(tracer, result)
                last_tracer = tracer
            else:
                untraced.append(result)
            enough = len(layers.results) >= 1 if args.trace else True
            if enough and (args.smoke or time.perf_counter() >= deadline):
                break
        if args.trace:
            metrics = layers.metrics(untraced)
            OUT_DIR.mkdir(exist_ok=True)
            write_spans(last_tracer, OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl")
        else:
            metrics = end_to_end(untraced, inputs)
            latencies = [ns for r in untraced for ns in r.latencies_ns]
            print(f"tx_p99_us {percentile_us(latencies, 99):.1f} over {len(latencies)} tx", file=sys.stderr)
        correct = True
    except CheckFailed as failure:
        print(f"check failed: {failure}", file=sys.stderr)
        correct, metrics = False, {}
    rounds = untraced + layers.results
    attempted = sum(r.attempted for r in rounds)
    failed = attempted - sum(r.committed for r in rounds)
    if not correct:
        attempted += len(inputs.txs)  # the round whose check failed
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
