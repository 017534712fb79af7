"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload adhoc-unsorted --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half under the timing shims of ``perfbench/tracing.py``
and prints the per-layer metrics, writing the spans as a Chrome trace to
``.perfbench_out/``.  The last line of output is one JSON object; the
command exits non-zero when any read disagrees with the oracles, any
operation fails, or the run leaks an OS resource.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("adhoc-unsorted", "adhoc-sorted", "serve-rw", "serve-sharded-rw")
#: Set-ups before the measurement, and again after it; setup_s is the
#: median of all of them.
SETUP_REPEATS = 4
#: The end-to-end metrics and their units (``end_to_end`` in BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "query_p50_s": "s",
    "query_tail_s": "s",
    "queries_per_s": "1/s",
    "charged_cost_per_query": "cost_units",
    "op_success_ratio": "ratio",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_reads(workload, passes):
    """Oracle mismatches over every read, and the result fingerprints of each
    label per pass (payloads dropped: every cycle of a serve client updates
    the same keys and periods, so these must agree across passes)."""
    from perfbench.oracle import rows_of

    mismatches = 0
    fingerprints = []
    for run in passes:
        seen = {}
        for read in run.reads:
            rows = rows_of(read.relation)
            if rows != workload.expected(read):
                mismatches += 1
            seen.setdefault(read.label, set()).add(
                tuple((key, start, end) for key, _, start, end in rows)
            )
        fingerprints.append(seen)
    return mismatches, fingerprints


def cost_per_read(reads) -> float:
    """Mean bill per read, averaged per client first.

    Each client's bills repeat exactly cycle after cycle, but two clients
    may finish different numbers of cycles; averaging per client keeps the
    figure independent of that.
    """
    by_client = {}
    for read in reads:
        by_client.setdefault(read.client, []).append(read.cost)
    return statistics.fmean(statistics.fmean(costs) for costs in by_client.values())


def run(name: str, seed: int, seconds: float, trace: bool):
    from perfbench import leaks, workloads
    from perfbench.layers import PER_LAYER, layer_checks, layer_metrics
    from perfbench.metrics import median, tail

    workload = workloads.make(name, seed)
    lines = [f"workload {name} seed {seed}: {workloads.PROVENANCE['workloads'][name]['why']}"]
    before = leaks.snapshot()
    setups = []

    def set_up(keep: bool):
        # Each set-up starts from a collected heap instead of paying, at a
        # random point, for collecting the garbage of the one before it.
        gc.collect()
        begin = time.perf_counter()
        handle = workload.open()
        setups.append(time.perf_counter() - begin)
        if not keep:
            workload.close(handle)
        return handle

    for _ in range(SETUP_REPEATS - 1):
        set_up(keep=False)
    handle = set_up(keep=True)
    tracer = traced = None
    clock = [time.perf_counter()]
    try:
        workload.warm(handle)
        clock.append(time.perf_counter())
        plain = workload.measure(handle, seconds / 2 if trace else seconds)
        if trace:
            from perfbench.tracing import Shims, Tracer

            tracer = Tracer()
            shims = Shims(tracer)
            try:
                traced = workload.measure(handle, seconds / 2, tracer)
            finally:
                shims.remove()
        peak_rss = workload.peak_rss_mib(handle)
    finally:
        workload.close(handle)
    clock.append(time.perf_counter())
    # As many set-ups again after the measurement: setup_s is their median
    # over two points in time, not over one stretch of the host's speed.
    for _ in range(SETUP_REPEATS):
        set_up(keep=False)
    passes = [plain] + ([traced] if traced is not None else [])

    # Everything below runs after the clock stopped.
    leaked = leaks.leaked(before, leaks.snapshot())
    n_leaks = sum(len(found) for found in leaked.values())
    for kind, found in leaked.items():
        if found:
            lines.append(f"LEAK: {len(found)} {kind} left behind: {sorted(found)}")
    mismatches, fingerprints = check_reads(workload, passes)
    if mismatches:
        lines.append(f"MISMATCH: {mismatches} reads differ from the oracle")
    if len(fingerprints) == 2 and fingerprints[0] != fingerprints[1]:
        mismatches += 1
        lines.append("MISMATCH: traced results differ from untraced results")
    guard = workload.guard_failures()
    lines.extend(workload.guard_lines())
    if guard:
        lines.append(f"DETERMINISM: {guard} reads' plan-cache hits differ from the seed's schedule")
    clock.append(time.perf_counter())
    lines.append(
        f"run phases: {len(setups)} set-ups {sum(setups):.2f} s, warm-up "
        f"{clock[1] - clock[0]:.2f} s, measured {clock[2] - clock[1]:.2f} s, "
        f"later set-ups and checks {clock[3] - clock[2]:.2f} s"
    )
    errors = [error for run in passes for error in run.errors]
    for error in errors[:5]:
        lines.append(f"ERROR: {error}")

    reads = sum(len(run.reads) for run in passes)
    # A failed operation left an error instead of a read or a write; each
    # leak check (one per resource kind) is an operation of its own.
    operations = reads + sum(run.writes for run in passes) + len(errors) + len(leaked)
    failed = len(errors) + mismatches + n_leaks + guard
    attempted = max(operations, failed)
    correct = failed == 0 and reads > 0

    latencies = [read.latency for read in plain.reads]
    if trace:
        metrics = layer_metrics(workload.family, traced, plain, tracer.spans)
        units = {metric: unit for metric, unit, _ in PER_LAYER}
        lines.extend(layer_checks(name, traced, tracer.spans))
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        trace_file = out / f"trace_{name}_seed{seed}.json"
        trace_file.write_text(json.dumps(tracer.chrome_trace()))
        lines.append(f"{len(tracer.spans)} spans written to {trace_file.relative_to(ROOT)}")
    else:
        tail_value, percentile = tail(latencies) if latencies else (0.0, 0.0)
        metrics = {
            "setup_s": median(setups),
            "query_p50_s": median(latencies),
            "query_tail_s": tail_value,
            "queries_per_s": len(plain.reads) / plain.wall,
            "charged_cost_per_query": cost_per_read(plain.reads) if plain.reads else 0.0,
            "op_success_ratio": 1 - failed / attempted,
            "peak_rss_mb": peak_rss,
        }
        units = END_TO_END
        lines.append(
            f"query_tail_s is p{percentile:.1f} of {len(latencies)} reads "
            f"(10 beyond it); {plain.writes} writes in {plain.wall:.2f} s"
        )
    for metric, value in metrics.items():
        lines.append(f"{metric} = {value:.6g} {units[metric]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()
        },
    }
    return lines, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.exec import backend_name

    lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(
        f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
        f"kernel backend {backend_name()}"
    )
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
