"""Self-tests of the benchmark's metric arithmetic and tracing.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import socket
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

from perfbench.layers import PER_LAYER, layer_metrics, per_read  # noqa: E402
from perfbench.metrics import covered, delta, self_times, tail  # noqa: E402
from perfbench.tracing import Shims, Tracer  # noqa: E402


def span(span_id, start, end, parent=None, name="x", read=None, attrs=None):
    return SimpleNamespace(
        span_id=span_id,
        name=name,
        start=start,
        end=end,
        parent=parent,
        read=read,
        attrs=attrs or {},
        duration=end - start,
    )


# -- the tail percentile -----------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    value, percentile = tail(list(range(1, 101)))
    assert value == 90
    assert percentile == 90.0
    assert sum(v > value for v in range(1, 101)) == 10


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 5
    assert tail(values) == tail(sorted(values))
    assert tail(values) == (3.0, 60.0)


def test_tail_of_eleven_samples_is_the_smallest():
    assert tail(list(range(11))) == (0, 100.0 / 11)


def test_tail_with_too_few_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    with pytest.raises(ValueError):
        tail([])


# -- self time across nested spans --------------------------------------------


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert covered([(1, 4), (3, 6)], 0, 10) == 5
    assert covered([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered([(2, 3), (2, 3)], 0, 10) == 1
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_only_direct_children():
    spans = [
        span(1, 0.0, 10.0),
        span(2, 1.0, 4.0, parent=1),
        span(3, 2.0, 3.0, parent=2),
        # Another thread's child overlapping its sibling: counted once.
        span(4, 3.0, 6.0, parent=1),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(5.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)


def test_tracer_parents_spans_across_threads():
    tracer = Tracer()
    with tracer.span("read") as read:
        parent = tracer.current()

        def worker():
            with tracer.attached(parent), tracer.span("executor.run"):
                with tracer.span("layer"):
                    pass

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["executor.run"].parent == read.span_id
    assert by_name["layer"].parent == by_name["executor.run"].span_id
    assert {s.read for s in tracer.spans} == {read.span_id}
    assert tracer.chrome_trace()["traceEvents"][0]["name"] == "read"


def test_per_read_sums_busy_time_and_takes_the_partition_maximum():
    spans = [
        span(1, 0.0, 10.0, name="read", read=1),
        span(2, 0.0, 6.0, parent=1, name="engine.join", read=1),
        span(3, 1.0, 2.0, parent=2, name="core.partitioner.grace", read=1,
             attrs={"partitions": 8}),
        span(4, 2.0, 4.0, parent=2, name="core.partitioner.grace", read=1,
             attrs={"partitions": 8}),
        span(5, 4.0, 5.0, parent=2, name="core.joiner.sweep", read=1,
             attrs={"result_tuples": 3}),
    ]
    read = SimpleNamespace(span=1, counters={}, latency=10.0)
    [(busy, counts, engine_self)] = per_read([read], spans)
    assert busy["core.partitioner.grace"] == pytest.approx(3.0)
    assert counts["partitions"] == 8
    assert counts["result_tuples"] == 3
    assert engine_self == pytest.approx(2.0)


def test_layer_metrics_reports_every_per_layer_metric():
    read = SimpleNamespace(span=1, counters={}, latency=2.0, plan_hit=False)
    traced = SimpleNamespace(reads=[read], counters={})
    plain = SimpleNamespace(reads=[SimpleNamespace(latency=1.0)])
    values = layer_metrics("engine", traced, plain, [span(1, 0.0, 2.0, name="read", read=1)])
    assert set(values) == {name for name, _, _ in PER_LAYER}
    assert values["bench.trace_overhead_ratio"] == pytest.approx(1.0)


# -- counter deltas around a run ---------------------------------------------


def test_delta_walks_nested_reports_and_skips_non_numbers():
    before = {"admission": {"grants": 3, "policy": "fifo"}, "plan_cache": {"hits": 1}}
    after = {
        "admission": {"grants": 7, "policy": "fifo"},
        "plan_cache": {"hits": 4, "misses": 2},
        "lane_breaker": {"state": "closed", "tripped": False},
        "degradations": [],
    }
    assert delta(before, after) == {
        "admission.grants": 4,
        "plan_cache.hits": 3,
        "plan_cache.misses": 2,
    }


def test_transport_counter_delta_counts_one_frame_each_way():
    from repro.shard.transport import Channel, transport_counters

    left, right = socket.socketpair()
    with Channel(left, name="a") as sender, Channel(right, name="b") as receiver:
        before = transport_counters()
        sender.send(5, b"payload")
        receiver.recv(timeout=5)
        moved = delta(before, transport_counters())
    assert moved["frames_sent"] == 1
    assert moved["frames_received"] == 1
    assert moved["bytes_sent"] == moved["bytes_received"] > len(b"payload")


def test_service_report_delta_counts_one_grant_per_evaluated_read():
    from perfbench.workloads import probe_heavy_rows, relation_of
    from repro.engine.catalog import VersionedCatalog
    from repro.service.service import QueryService

    catalog = VersionedCatalog()
    for name in ("a", "b"):
        relation = relation_of(name, probe_heavy_rows(name, 200, random.Random(name)))
        catalog.register(relation.schema, relation.tuples)
    with QueryService(catalog, execution="batch") as service:
        session = service.open_session(use_result_cache=False)
        session.join("a", "b")
        before = service.report()
        session.join("a", "b")
        session.join("a", "b")
        moved = delta(before, service.report())
    assert moved["admission.grants"] == 2
    assert moved["admission.timeouts"] == 0


def test_shims_are_removed_after_the_traced_run():
    import importlib

    from repro.storage.layout import DiskLayout

    module = importlib.import_module("repro.core.partition_join")
    original_plan = module.determine_part_intervals
    original_place = DiskLayout.__dict__["place_relation"]
    shims = Shims(Tracer())
    assert module.determine_part_intervals is not original_plan
    shims.remove()
    assert module.determine_part_intervals is original_plan
    assert DiskLayout.__dict__["place_relation"] is original_place


# -- the benchmark definition --------------------------------------------------


def test_benchmark_json_matches_the_code():
    from perfbench import run

    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in definition["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in definition["per_layer"]] == [
        tuple(row) for row in PER_LAYER
    ]
    end_to_end = {m["name"]: m["unit"] for m in definition["end_to_end"]}
    assert end_to_end == run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in definition["end_to_end"])
    provenance = json.loads((ROOT / "perfbench" / "provenance.json").read_text())
    assert set(provenance["workloads"]) == set(run.WORKLOADS)
