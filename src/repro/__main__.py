"""Command-line interface: regenerate the paper's evaluation from a shell.

Usage::

    python -m repro params                 # the reconstructed Figure 5 table
    python -m repro fig4 [--scale 16]      # planner cost curve (Figure 4)
    python -m repro fig6 [--scale 16]      # memory sweep (Figure 6)
    python -m repro fig7 [--scale 16]      # long-lived sweep (Figure 7)
    python -m repro fig8 [--scale 16]      # memory x density grid (Figure 8)
    python -m repro all [--scale 16]       # everything above
    python -m repro explain [--analyze]    # EXPLAIN (ANALYZE) a workload join
    python -m repro serve [--script f.jsonl]  # concurrent workload driver

Each figure command prints the measured series and the machine-checked
shape verdict against the paper's claims.  ``explain`` renders the chosen
partition plan -- and with ``--analyze`` runs it, reporting predicted vs
actual per-phase costs (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.experiments import (
    ExperimentConfig,
    run_fig4,
    run_fig6,
    run_fig7,
    run_fig8,
)
from repro.experiments import fig4, fig6, fig7, fig8
from repro.experiments.report import format_table, parameter_table, verdict_lines


def _print_fig4(config: ExperimentConfig) -> int:
    result = run_fig4(config)
    print("Figure 4 -- I/O cost vs partition size")
    rows = [
        (c.part_size, c.n_samples, c.c_sample, c.c_join_cache, c.total)
        for c in result.curve
    ]
    print(format_table(("partSize", "m", "C_sample", "C_cache", "total"), rows))
    print(f"chosen partSize: {result.chosen_part_size}")
    problems = fig4.shape_checks(result)
    print(verdict_lines("fig4", problems))
    return len(problems)


def _print_fig6(config: ExperimentConfig) -> int:
    points = run_fig6(config)
    print("Figure 6 -- evaluation cost vs main memory")
    rows = [(p.memory_mb, f"{p.ratio:.0f}:1", p.algorithm, p.cost) for p in points]
    print(format_table(("MiB", "ratio", "algorithm", "cost"), rows))
    problems = fig6.shape_checks(points)
    print(verdict_lines("fig6", problems))
    return len(problems)


def _print_fig7(config: ExperimentConfig) -> int:
    points = run_fig7(config)
    print("Figure 7 -- evaluation cost vs long-lived tuples (8 MiB, 5:1)")
    rows = [(p.long_lived_total, p.algorithm, p.cost) for p in points]
    print(format_table(("long_lived", "algorithm", "cost"), rows))
    problems = fig7.shape_checks(points)
    print(verdict_lines("fig7", problems))
    return len(problems)


def _print_fig8(config: ExperimentConfig) -> int:
    points = run_fig8(config)
    print("Figure 8 -- partition-join cost: memory x long-lived density")
    memories = sorted({p.memory_mb for p in points})
    totals = sorted({p.long_lived_total for p in points})
    lookup = {(p.memory_mb, p.long_lived_total): p.cost for p in points}
    rows = [[t] + [lookup[(m, t)] for m in memories] for t in totals]
    print(format_table(["long_lived \\ MiB"] + [str(m) for m in memories], rows))
    problems = fig8.shape_checks(points)
    print(verdict_lines("fig8", problems))
    return len(problems)


def _print_summary(config: ExperimentConfig) -> int:
    """The Section 4.5 narrative as a measured table: who wins where."""
    points = run_fig6(config, ratios=(5,))
    memories = sorted({p.memory_mb for p in points})
    lookup = {(p.memory_mb, p.algorithm): p.cost for p in points}
    rows = []
    for mb in memories:
        costs = {
            algorithm: lookup[(mb, algorithm)]
            for algorithm in ("partition", "sort_merge", "nested_loop")
        }
        winner = min(costs, key=costs.get)
        advantage = sorted(costs.values())[1] / costs[winner]
        rows.append((mb, winner, f"{advantage:.2f}x over runner-up"))
    print("Section 4.5 summary -- cheapest algorithm per memory size (5:1)")
    print(format_table(("memory_MiB", "winner", "margin"), rows))
    problems = fig6.shape_checks(points)
    print(verdict_lines("summary", problems))
    return len(problems)


_COMMANDS = {
    "fig4": _print_fig4,
    "fig6": _print_fig6,
    "fig7": _print_fig7,
    "fig8": _print_fig8,
    "summary": _print_summary,
}


def _run_explain(argv: List[str]) -> int:
    """``python -m repro explain``: EXPLAIN (ANALYZE) a generated workload join."""
    from repro.engine.database import TemporalDatabase
    from repro.obs import ObservabilityConfig
    from repro.workloads.generator import generate_pair
    from repro.workloads.specs import DatabaseSpec

    parser = argparse.ArgumentParser(
        prog="python -m repro explain",
        description="Render the partition join's chosen plan for a generated "
        "workload; --analyze runs it and reconciles predicted vs actual "
        "per-phase cost.",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="run the join and report per-phase actuals with deviations",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=64,
        help="uniform workload scale divisor (default 64)",
    )
    parser.add_argument(
        "--memory-pages",
        type=int,
        default=32,
        help="buffer pages the evaluation runs under (default 32)",
    )
    parser.add_argument(
        "--execution",
        default="batch",
        choices=("tuple", "batch", "batch-parallel-sweep"),
        help="execution mode of the partition join (default batch)",
    )
    parser.add_argument(
        "--method",
        default="auto",
        choices=("auto", "partition", "sort_merge", "nested_loop"),
        help="join algorithm ('auto' lets the optimizer choose)",
    )
    args = parser.parse_args(argv)

    spec = DatabaseSpec(name="explain").scaled(args.scale)
    r, s = generate_pair(spec)
    db = TemporalDatabase(
        memory_pages=args.memory_pages,
        execution=args.execution,
        observability=ObservabilityConfig(),
    )
    for rel in (r, s):
        db.create_relation(rel.schema).extend(rel.tuples)
    report = db.explain("r", "s", analyze=args.analyze, method=args.method)
    print(report.render())
    return 0


def _run_serve(argv: List[str]) -> int:
    """``python -m repro serve``: drive a concurrent workload through the
    query service and print the serving summary."""
    import json

    from repro.service.workload import demo_workload, load_workload, run_workload

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Replay a JSONL workload script concurrently through the "
        "query service (sessions, admission control, snapshot isolation, "
        "plan/result caching); without --script, a built-in demo workload "
        "runs.  See docs/SERVICE.md for the statement reference.",
    )
    parser.add_argument(
        "--script",
        help="path to a .jsonl workload script (default: built-in demo)",
    )
    parser.add_argument(
        "--pool-pages",
        type=int,
        default=64,
        help="shared buffer pages admission control arbitrates (default 64)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="executor worker threads (default 4)",
    )
    parser.add_argument(
        "--execution",
        default="batch",
        choices=("tuple", "batch", "batch-parallel-sweep"),
        help="partition-join execution mode (default batch)",
    )
    parser.add_argument(
        "--admission-policy",
        default="fifo",
        choices=("fifo", "smallest"),
        help="memory-grant queueing policy (default fifo)",
    )
    parser.add_argument(
        "--sessions",
        type=int,
        default=4,
        help="demo-workload session count (ignored with --script; default 4)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="additionally dump the repro_service_* metric families",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="serve through a ShardedQueryService over N shard worker "
        "processes instead of the single-process service (see "
        "docs/SHARDING.md); results and counters are bit-identical",
    )
    parser.add_argument(
        "--shard-by",
        default="key-hash",
        choices=("key-hash", "time-range"),
        help="shard routing strategy with --shards (default key-hash; "
        "time-range needs pre-registered relations)",
    )
    args = parser.parse_args(argv)

    if args.script:
        statements = load_workload(args.script)
    else:
        statements = demo_workload(sessions=args.sessions)
    service = None
    if args.shards is not None:
        from repro.engine.catalog import VersionedCatalog
        from repro.service.workload import apply_setup, split_statements
        from repro.shard.coordinator import ShardedQueryService

        # Setup must land before the coordinator forks its workers (and,
        # for time-range routing, before the boundaries are computed).
        catalog = VersionedCatalog()
        setup, _per_session = split_statements(statements)
        apply_setup(catalog, setup)
        setup_ids = {id(statement) for statement in setup}
        statements = [s for s in statements if id(s) not in setup_ids]
        service = ShardedQueryService(
            catalog,
            shards=args.shards,
            shard_by=args.shard_by,
            pool_pages=args.pool_pages,
            workers=args.workers,
            execution=args.execution,
            admission_policy=args.admission_policy,
        )
    try:
        report = run_workload(
            statements,
            service=service,
            pool_pages=args.pool_pages,
            workers=args.workers,
            execution=args.execution,
            admission_policy=args.admission_policy,
        )
    finally:
        if service is not None:
            service.close()
    summary = report.summary()
    if args.metrics and service is not None:
        summary["metrics"] = service.metrics_snapshot()
    print(json.dumps(summary, indent=2, default=str))
    for line in report.errors:
        print(f"error: {line}", file=sys.stderr)
    return 1 if report.errors else 0


def main(argv: List[str] | None = None) -> int:
    """Entry point; returns the number of shape-check deviations."""
    if argv is None:
        argv = sys.argv[1:]
    # 'explain' and 'serve' own their flag sets; peel them off before the
    # figure parser.
    if argv and argv[0] == "explain":
        return _run_explain(list(argv[1:]))
    if argv and argv[0] == "serve":
        return _run_serve(list(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the evaluation of 'Efficient Evaluation of "
        "the Valid-Time Natural Join' (ICDE 1994).",
    )
    parser.add_argument(
        "command",
        choices=sorted(_COMMANDS) + ["params", "all"],
        help="which figure to regenerate (or 'params' / 'all')",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=16,
        help="uniform scale divisor (1 = paper scale; default 16)",
    )
    args = parser.parse_args(argv)

    if args.command == "params":
        print("Figure 5 -- reconstructed global parameters (see DESIGN.md)")
        print(parameter_table())
        return 0

    config = ExperimentConfig(scale=args.scale)
    if args.command == "all":
        deviations = 0
        for name in ("fig4", "fig6", "fig7", "fig8"):
            deviations += _COMMANDS[name](config)
            print()
        return deviations
    return _COMMANDS[args.command](config)


if __name__ == "__main__":
    sys.exit(main())
