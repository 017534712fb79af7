"""Per-layer metrics of a traced pass.

Time metrics are the median per evaluated read of the busy time in one
layer's shimmed calls (writes are not reads: catalog append and delete
time is spread over the reads instead).  Count metrics are the mean per
evaluated read.  Workloads that never reach a layer report 0 for it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from perfbench.metrics import median, ratio, self_times

#: name, unit, better -- the ``per_layer`` list of BENCHMARK.json.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("core.planner.plan_s", "s", "lower"),
    ("core.planner.plans", "count", "lower"),
    ("core.planner.candidates", "count", "lower"),
    ("core.planner.sample_tuples", "count", "lower"),
    ("core.partitioner.grace_s", "s", "lower"),
    ("core.partitioner.partitions", "count", "lower"),
    ("core.joiner.sweep_s", "s", "lower"),
    ("core.joiner.overflow_blocks", "count", "lower"),
    ("core.joiner.cache_tuples_spilled", "count", "lower"),
    ("core.joiner.result_tuples", "count", "lower"),
    ("exec.forward_sweep.join_s", "s", "lower"),
    ("storage.place_s", "s", "lower"),
    ("storage.sample_ops", "count", "lower"),
    ("storage.partition_ops", "count", "lower"),
    ("storage.join_ops", "count", "lower"),
    ("engine.join.self_s", "s", "lower"),
    ("engine.catalog.analyze_s", "s", "lower"),
    ("engine.catalog.append_s", "s", "lower"),
    ("engine.catalog.delete_s", "s", "lower"),
    ("service.admission.wait_s", "s", "lower"),
    ("service.admission.grants", "count", "lower"),
    ("service.admission.degraded_grants", "count", "lower"),
    ("service.admission.timeouts", "count", "lower"),
    ("service.cache.plan_hit_ratio", "ratio", "higher"),
    ("service.cache.invalidations", "count", "lower"),
    ("service.evaluate_s", "s", "lower"),
    ("service.query.self_s", "s", "lower"),
    ("shard.partitioning.fragment_s", "s", "lower"),
    ("shard.transport.send_s", "s", "lower"),
    ("shard.transport.recv_wait_s", "s", "lower"),
    ("shard.transport.encode_s", "s", "lower"),
    ("shard.transport.decode_s", "s", "lower"),
    ("shard.transport.bytes_sent", "bytes", "lower"),
    ("shard.transport.bytes_received", "bytes", "lower"),
    ("shard.transport.frames_sent", "count", "lower"),
    ("shard.transport.frames_received", "count", "lower"),
    ("shard.transport.pickle_fallbacks", "count", "lower"),
    ("shard.transport.crc_failures", "count", "lower"),
    ("shard.coordinator.self_s", "s", "lower"),
    ("shard.worker.cost_skew", "ratio", "lower"),
    ("shard.worker.redispatches", "count", "lower"),
    ("resilience.degradations", "count", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
)

#: Busy-time metrics: metric name -> span name.
BUSY = {
    "core.planner.plan_s": "core.planner.plan",
    "core.partitioner.grace_s": "core.partitioner.grace",
    "core.joiner.sweep_s": "core.joiner.sweep",
    "exec.forward_sweep.join_s": "exec.forward_sweep.join",
    "storage.place_s": "storage.place",
    "engine.catalog.analyze_s": "engine.catalog.analyze",
    "service.evaluate_s": "service.evaluate",
    "shard.partitioning.fragment_s": "shard.partitioning.fragment",
    "shard.transport.send_s": "shard.transport.send",
    "shard.transport.recv_wait_s": "shard.transport.recv_wait",
    "shard.transport.encode_s": "shard.transport.encode",
    "shard.transport.decode_s": "shard.transport.decode",
}

#: Per-read counters (span attributes or result counters): metric -> key.
COUNTS = {
    "core.planner.plans": "plans",
    "core.planner.candidates": "candidates",
    "core.planner.sample_tuples": "sample_tuples",
    "core.partitioner.partitions": "partitions",
    "core.joiner.overflow_blocks": "overflow_blocks",
    "core.joiner.cache_tuples_spilled": "cache_tuples_spilled",
    "core.joiner.result_tuples": "result_tuples",
    "storage.sample_ops": "sample_ops",
    "storage.partition_ops": "partition_ops",
    "storage.join_ops": "join_ops",
    "shard.worker.redispatches": "redispatches",
}

#: Pass counter deltas per read: metric -> flattened snapshot key.
DELTAS = {
    "service.admission.grants": "report.admission.grants",
    "service.admission.degraded_grants": "report.admission.degraded_grants",
    "service.admission.timeouts": "report.admission.timeouts",
    "service.cache.invalidations": "report.plan_cache.invalidations",
    "shard.transport.bytes_sent": "transport.bytes_sent",
    "shard.transport.bytes_received": "transport.bytes_received",
    "shard.transport.frames_sent": "transport.frames_sent",
    "shard.transport.frames_received": "transport.frames_received",
    "shard.transport.pickle_fallbacks": "transport.pickle_fallbacks",
    "shard.transport.crc_failures": "transport.crc_failures",
}

SHARD_TIMES = (
    "shard.partitioning.fragment",
    "shard.transport.send",
    "shard.transport.recv_wait",
    "shard.transport.encode",
    "shard.transport.decode",
)


def per_read(reads, spans) -> List[Tuple[Dict[str, float], Dict[str, float], float]]:
    """For each read: busy time by span name, counters, and engine self time.

    Two Grace passes (outer and inner) run per partition join over the same
    partitioning, so the partition count is their maximum, not their sum.
    """
    by_read: Dict[int, list] = defaultdict(list)
    for span in spans:
        by_read[span.read].append(span)
    own = self_times(spans)
    rows = []
    for read in reads:
        busy: Dict[str, float] = defaultdict(float)
        counts: Dict[str, float] = defaultdict(float)
        engine_self = 0.0
        for span in by_read.get(read.span, ()):
            busy[span.name] += span.duration
            if span.name == "engine.join":
                engine_self += own[span.span_id]
            for key, value in span.attrs.items():
                if key == "partitions":
                    counts[key] = max(counts[key], value)
                else:
                    counts[key] += value
        for key, value in read.counters.items():
            counts[key] += value
        rows.append((busy, counts, engine_self))
    return rows


def layer_metrics(family: str, traced, plain, spans) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric of a traced pass (*plain* is its untraced twin)."""
    reads = traced.reads
    n = len(reads)
    rows = per_read(reads, spans)
    values: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    for metric, span_name in BUSY.items():
        values[metric] = median([busy.get(span_name, 0.0) for busy, _, _ in rows])
    for metric, key in COUNTS.items():
        values[metric] = ratio(sum(counts.get(key, 0.0) for _, counts, _ in rows), n)
    values["engine.join.self_s"] = median([own for _, _, own in rows])
    for metric, name in (
        ("engine.catalog.append_s", "engine.catalog.append"),
        ("engine.catalog.delete_s", "engine.catalog.delete"),
    ):
        values[metric] = ratio(sum(s.duration for s in spans if s.name == name), n)
    for metric, key in DELTAS.items():
        values[metric] = ratio(traced.counters.get(key, 0.0), n)
    if family == "service":
        hits = traced.counters.get("report.plan_cache.hits", 0.0)
        misses = traced.counters.get("report.plan_cache.misses", 0.0)
        values["service.cache.plan_hit_ratio"] = ratio(hits, hits + misses)
        values["service.admission.wait_s"] = median(
            [read.counters["queue_wait"] for read in reads]
        )
        values["service.query.self_s"] = median(
            [
                read.latency - read.counters["queue_wait"] - busy.get("service.evaluate", 0.0)
                for read, (busy, _, _) in zip(reads, rows)
            ]
        )
    if family == "sharded":
        values["shard.coordinator.self_s"] = median(
            [
                read.latency - sum(busy.get(name, 0.0) for name in SHARD_TIMES)
                for read, (busy, _, _) in zip(reads, rows)
            ]
        )
        values["shard.worker.cost_skew"] = median(
            [read.counters["cost_skew"] for read in reads]
        )
        values["resilience.degradations"] = ratio(traced.counters.get("degradations", 0.0), n)
    else:
        values["resilience.degradations"] = ratio(
            sum(counts.get("degradations", 0.0) for _, counts, _ in rows), n
        )
    plain_p50 = median([read.latency for read in plain.reads])
    values["bench.trace_overhead_ratio"] = (
        median([read.latency for read in reads]) / plain_p50 - 1 if plain_p50 else 0.0
    )
    return values


def layer_checks(name: str, traced, spans) -> List[str]:
    """Does each workload load the layer it was chosen for?  (Informational.)"""
    rows = per_read(traced.reads, spans)
    p50 = median([read.latency for read in traced.reads])
    lines = []

    def share(span_name: str) -> float:
        return ratio(median([busy.get(span_name, 0.0) for busy, _, _ in rows]), p50)

    if name == "adhoc-unsorted":
        lines.append(f"core.planner.plan_s is {share('core.planner.plan'):.0%} of query_p50_s")
    elif name == "adhoc-sorted":
        lines.append(
            f"core.planner.plan_s is {share('core.planner.plan'):.0%} and "
            f"exec.forward_sweep.join_s {share('exec.forward_sweep.join'):.0%} "
            f"of query_p50_s ({p50:.4f} s)"
        )
    elif name == "serve-rw":
        hit = [
            (read, busy)
            for read, (busy, _, _) in zip(traced.reads, rows)
            if read.plan_hit
        ]
        if hit:
            grace_sweep = median(
                [
                    busy.get("core.partitioner.grace", 0.0) + busy.get("core.joiner.sweep", 0.0)
                    for _, busy in hit
                ]
            )
            evaluate = median([busy.get("service.evaluate", 0.0) for _, busy in hit])
            lines.append(
                f"plan-cache reads: grace + sweep {grace_sweep:.4f} s of "
                f"{evaluate:.4f} s evaluated ({ratio(grace_sweep, evaluate):.0%})"
            )
    elif name == "serve-sharded-rw":
        lines.append(
            f"shard.transport.recv_wait is {share('shard.transport.recv_wait'):.0%} "
            f"of query_p50_s"
        )
    return ["layer check: " + line for line in lines]
