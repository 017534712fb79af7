"""Lane supervision overhead: the supervised sweep vs the bare pool.

Runs the same undisturbed ``"batch-parallel-sweep"`` partition join (by default
50 000 x 50 000 tuples, the ``harness`` probe-heavy workload under a
48-page budget) twice per round -- once with the lane supervisor watching
the pool (``lane_supervision=True``, the default) and once on the bare
pool (``lane_supervision=False``) -- and reports the best-of-N wall-clock
of each arm.  A real pool is forced even on single-core runners: overhead
of the supervised dispatch loop only exists where a pool exists.

Before any number is reported it asserts the supervision contract on an
undisturbed run: identical join outcomes, the *entire* per-phase charged
I/O breakdown bit-equal between the arms (supervision must never charge a
single extra operation), and an empty degradation log.

Writes machine-readable ``BENCH_supervision.json`` next to the repo root::

    PYTHONPATH=src python benchmarks/bench_supervision.py

CI gates with ``--check``::

    PYTHONPATH=src python benchmarks/bench_supervision.py \\
        --tuples 8000 --check BENCH_supervision.json

failing if supervision charged any extra operation, if the committed
full-scale report no longer proves the <=2% overhead claim, or if the
fresh smoke overhead exceeds 2% plus a small absolute noise floor.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
from pathlib import Path
from typing import Dict, List, Optional

from harness import (
    REPO_ROOT,
    environment,
    load_report,
    phase_stats_fingerprint,
    probe_heavy_relation,
    result_fingerprint,
    timed_join,
)
from repro.core.partition_join import PartitionJoinConfig
from repro.exec import HAVE_NUMPY
from repro.storage.page import PageSpec

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_supervision.json"

#: CI gate: supervised wall-clock may exceed the bare pool's by at most
#: this fraction (best-of-N per arm).  The committed full-scale report
#: must prove it outright; the smoke re-measurement gets a small absolute
#: noise floor on top, because sub-100ms runs are dominated by pool-spawn
#: jitter that has nothing to do with supervision.
OVERHEAD_TOLERANCE = 0.02
NOISE_FLOOR_SECONDS = 0.05


def run_benchmark(
    n_tuples: int,
    *,
    memory_pages: int = 48,
    sweep_workers: Optional[int] = 4,
    rounds: int = 3,
) -> Dict:
    r = probe_heavy_relation("works_on", n_tuples, seed=1994)
    s = probe_heavy_relation("earns", n_tuples, seed=1995)
    page_spec = PageSpec(page_bytes=8192, tuple_bytes=16)
    base = PartitionJoinConfig(
        memory_pages=memory_pages,
        page_spec=page_spec,
        execution="batch-parallel-sweep",
        sweep_workers=sweep_workers,
        collect_result=False,
        max_plan_candidates=6,
    )
    arms = {
        "supervised": base,  # lane_supervision=True is the default
        "bare-pool": dataclasses.replace(base, lane_supervision=False),
    }

    times: Dict[str, List[float]] = {label: [] for label in arms}
    runs: Dict[str, object] = {}
    if HAVE_NUMPY:
        import repro.exec.sweep_parallel as sweep

        saved = (sweep.OVERSUBSCRIBE, sweep.MIN_LANE_ROWS)
        sweep.OVERSUBSCRIBE, sweep.MIN_LANE_ROWS = True, 0
    try:
        for _ in range(max(1, rounds)):
            for label, config in arms.items():
                run, elapsed = timed_join(r, s, config)
                times[label].append(elapsed)
                runs[label] = run
    finally:
        if HAVE_NUMPY:
            sweep.OVERSUBSCRIBE, sweep.MIN_LANE_ROWS = saved

    # -- the supervision contract, asserted before any number is reported --
    supervised, bare = runs["supervised"], runs["bare-pool"]
    if result_fingerprint(supervised) != result_fingerprint(bare):
        raise AssertionError("lane supervision changed the join outcome")
    if phase_stats_fingerprint(supervised) != phase_stats_fingerprint(bare):
        raise AssertionError(
            "lane supervision changed the charged I/O of an undisturbed run"
        )
    extra_ops = (
        supervised.layout.tracker.stats.total_ops
        - bare.layout.tracker.stats.total_ops
    )
    if extra_ops != 0:
        raise AssertionError(
            f"supervision charged {extra_ops} extra operations on an "
            f"undisturbed run (must be exactly 0)"
        )
    for label, run in runs.items():
        lane_events = [
            e.kind
            for e in run.layout.resilience_report.degradations
            if e.kind.startswith("lane-")
        ]
        if lane_events:
            raise AssertionError(
                f"the undisturbed {label} run recorded lane events: {lane_events}"
            )

    rows = {}
    for label in arms:
        best = min(times[label])
        rows[label] = {
            "seconds_best": round(best, 4),
            "seconds_all": [round(t, 4) for t in times[label]],
            "tuples_per_sec": round((len(r) + len(s)) / best, 1),
        }
    overhead = rows["supervised"]["seconds_best"] / rows["bare-pool"]["seconds_best"]
    return {
        "workload": {
            "n_tuples_per_side": n_tuples,
            "memory_pages": memory_pages,
            "page_bytes": page_spec.page_bytes,
            "tuple_bytes": page_spec.tuple_bytes,
            "sweep_workers": sweep_workers,
            "rounds": rounds,
            "n_result_tuples": supervised.outcome.n_result_tuples,
        },
        "environment": environment(),
        "arms": rows,
        "overhead_ratio": round(overhead, 4),
        "extra_charged_ops": extra_ops,
    }


def format_report(report: Dict) -> List[str]:
    lines = [
        "lane supervision overhead -- {n_tuples_per_side} x "
        "{n_tuples_per_side} tuples, {memory_pages} pages, "
        "workers={sweep_workers}, best of {rounds}, backend={backend}".format(
            backend=report["environment"]["backend"], **report["workload"]
        ),
        f"{'arm':<14} {'seconds':>9} {'tuples/sec':>12}",
    ]
    for label, row in report["arms"].items():
        lines.append(
            f"{label:<14} {row['seconds_best']:>9.3f} {row['tuples_per_sec']:>12,.0f}"
        )
    lines.append(
        f"overhead: {(report['overhead_ratio'] - 1.0) * 100.0:+.2f}% wall-clock, "
        f"{report['extra_charged_ops']} extra charged ops"
    )
    return lines


def check_against(report: Dict, committed_path: Path) -> List[str]:
    """The CI perf-smoke gate.

    Three checks: the fresh run charged zero extra ops (deterministic, no
    tolerance); the *committed* full-scale report proves the <=2% overhead
    claim; and the fresh smoke overhead stays within the 2% bound plus the
    absolute noise floor (sub-100ms smoke runs cannot resolve 2%).
    """
    committed = load_report(committed_path)
    failures = []
    if report["extra_charged_ops"] != 0:
        failures.append(
            f"supervision charged {report['extra_charged_ops']} extra ops "
            "(must be exactly 0)"
        )
    committed_bound = 1.0 + OVERHEAD_TOLERANCE
    if committed["overhead_ratio"] > committed_bound:
        failures.append(
            f"the committed full-scale report shows "
            f"{committed['overhead_ratio']}x supervision overhead, above the "
            f"{committed_bound}x bound -- re-measure and re-commit"
        )
    arms = report["arms"]
    delta = arms["supervised"]["seconds_best"] - arms["bare-pool"]["seconds_best"]
    allowed = max(
        NOISE_FLOOR_SECONDS,
        OVERHEAD_TOLERANCE * arms["bare-pool"]["seconds_best"],
    )
    if delta > allowed:
        failures.append(
            f"fresh supervision overhead {delta:.4f}s exceeds the allowed "
            f"{allowed:.4f}s (max of {NOISE_FLOOR_SECONDS}s noise floor and "
            f"{OVERHEAD_TOLERANCE:.0%} of the bare-pool wall-clock)"
        )
    if report["workload"]["n_result_tuples"] <= 0 < report["workload"][
        "n_tuples_per_side"
    ]:
        failures.append("smoke workload produced no result tuples")
    return failures


def test_supervision_overhead(benchmark):
    """Pytest entry: the same A/B at the suite's bench scale."""
    scale = int(os.environ.get("REPRO_BENCH_SCALE", 16))
    n_tuples = max(8_000, 50_000 // scale)
    report = benchmark.pedantic(
        run_benchmark, args=(n_tuples,), kwargs={"rounds": 2}, rounds=1, iterations=1
    )
    print()
    for line in format_report(report):
        print(line)
    benchmark.extra_info["overhead_ratio"] = report["overhead_ratio"]
    assert report["extra_charged_ops"] == 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tuples", type=int, default=50_000, help="tuples per side")
    parser.add_argument("--memory-pages", type=int, default=48)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--rounds", type=int, default=3, help="best-of-N per arm")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="COMMITTED_JSON",
        help="regression-gate mode: assert the supervision contract on a "
        "fresh measurement instead of writing a report",
    )
    args = parser.parse_args(argv)
    if args.tuples < 1:
        parser.error(f"--tuples must be >= 1, got {args.tuples}")
    if args.rounds < 1:
        parser.error(f"--rounds must be >= 1, got {args.rounds}")

    report = run_benchmark(
        args.tuples,
        memory_pages=args.memory_pages,
        sweep_workers=args.workers,
        rounds=args.rounds,
    )
    for line in format_report(report):
        print(line)

    if args.check is not None:
        failures = check_against(report, args.check)
        for failure in failures:
            print(f"FAIL: {failure}")
        if failures:
            return 1
        print(
            f"ok: 0 extra charged ops, overhead within bounds ({args.check})"
        )
        return 0

    from harness import write_report

    write_report(report, args.output)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
