"""The four workloads: their seeded inputs, set-up and measured loops.

Every workload goes through a public entry point with the repository's
defaults (``TemporalDatabase``, ``QueryService``, ``ShardedQueryService``)
and keeps what it needs to check each read against the oracles after the
clock stops.  Sizes come from ``provenance.json``.

A measured stretch (:class:`Pass`) runs closed-loop until its deadline,
finishing the round or cycle in progress, so a pass always holds whole
rounds: the mix of read kinds -- and with it the mean charged cost per
read -- is the same in every run of a seed.
"""

from __future__ import annotations

import functools
import json
import random
import resource
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import leaks, oracle
from repro.engine.catalog import VersionedCatalog
from repro.engine.database import TemporalDatabase
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.service.service import QueryService
from repro.shard.coordinator import ShardedQueryService
from repro.shard.transport import transport_counters

PROVENANCE = json.loads(Path(__file__).with_name("provenance.json").read_text())

N_KEYS = 32
LIFESPAN = 50_000
#: Client threads of the serve workloads (the box has two cores).
SERVE_CLIENTS = 2


def probe_heavy_rows(name: str, n: int, rng: random.Random) -> List[Tuple]:
    """``(k, payload, start, end)`` rows of the probe-heavy shape.

    32 keys, intervals of one to four chronons over a 50k-chronon lifespan:
    key-matching candidates vastly outnumber intersecting pairs.
    """
    rows = []
    for number in range(n):
        start = rng.randrange(LIFESPAN)
        rows.append(
            (
                f"k{rng.randrange(N_KEYS)}",
                f"{name}{number}",
                start,
                min(LIFESPAN - 1, start + rng.randrange(4)),
            )
        )
    return rows


def schema_for(name: str) -> RelationSchema:
    return RelationSchema(
        name, join_attributes=("k",), payload_attributes=(f"{name}_payload",)
    )


def relation_of(name: str, rows: List[Tuple]) -> ValidTimeRelation:
    return ValidTimeRelation.from_rows(schema_for(name), rows)


@dataclass
class Read:
    """One measured read and what the checks and metrics need of it."""

    label: str
    latency: float
    cost: float
    relation: object
    client: int = 0
    version: int = -1
    plan_hit: bool = False
    expected_hit: bool = False
    span: Optional[int] = None
    counters: Dict[str, float] = field(default_factory=dict)


@dataclass
class Pass:
    """One measured stretch of a workload."""

    reads: List[Read] = field(default_factory=list)
    writes: int = 0
    errors: List[str] = field(default_factory=list)
    wall: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)


def _read_span(tracer):
    return tracer.span("read") if tracer is not None else nullcontext(None)


def _own_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_clients(steps, seconds: float) -> Pass:
    """Run one closed-loop thread per client step until *seconds* pass.

    Each client records into its own :class:`Pass` and finishes the step
    in progress at the deadline; the passes are merged at the end.
    """
    passes = [Pass() for _ in steps]
    start = time.perf_counter()

    def loop(step, own: Pass) -> None:
        while time.perf_counter() - start < seconds:
            step(own)

    threads = [
        threading.Thread(target=loop, args=(step, own), name=f"client{index}")
        for index, (step, own) in enumerate(zip(steps, passes))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    run = Pass(wall=time.perf_counter() - start)
    for own in passes:
        run.reads.extend(own.reads)
        run.writes += own.writes
        run.errors.extend(own.errors)
    return run


class Adhoc:
    """Clients issuing joins through default ``TemporalDatabase`` instances.

    Each client owns a database over its own seeded relations ``a`` and
    ``b``.  With two clients both CPUs carry the load, as in the serve
    workloads: one thread alone sits on one CPU for seconds at a time and
    inherits that CPU's speed, which on a shared host drifts by tens of
    percent from run to run.
    """

    family = "engine"

    def __init__(self, name: str, params: Dict, seed: int) -> None:
        self.name = name
        n = params["tuples_per_relation"]
        self.rows = [
            {
                rel: probe_heavy_rows(rel, n, random.Random(f"{name}:{seed}:{client}{rel}"))
                for rel in ("a", "b")
            }
            for client in range(params["clients"])
        ]
        if name == "adhoc-sorted":
            for rows in self.rows:
                for relation_rows in rows.values():
                    relation_rows.sort(key=lambda row: (row[2], row[3]))
            # Overlaps is one read in four, so the median stays inside the
            # natural joins' latency class.
            self.round: Tuple[Optional[str], ...] = (None, None, None, "overlaps")
        else:
            self.round = (None,)
        self._expected: Dict[Tuple, List[Tuple]] = {}

    def open(self) -> List[TemporalDatabase]:
        databases = []
        for rows in self.rows:
            db = TemporalDatabase()
            for rel, relation_rows in rows.items():
                db.create_relation(schema_for(rel))
                db.insert(rel, relation_rows)
            databases.append(db)
        return databases

    def close(self, databases: List[TemporalDatabase]) -> None:
        pass

    def warm(self, databases: List[TemporalDatabase]) -> None:
        for db in databases:
            for predicate in dict.fromkeys(self.round):
                db.join("a", "b", predicate=predicate)

    def measure(self, databases: List[TemporalDatabase], seconds: float, tracer=None) -> Pass:
        def client_round(client: int, db: TemporalDatabase):
            def step(run: Pass) -> None:
                for predicate in self.round:
                    begin = time.perf_counter()
                    try:
                        with _read_span(tracer) as span:
                            result = db.join("a", "b", predicate=predicate)
                    except Exception as error:  # counted, reported, run goes on
                        run.errors.append(f"client {client} join: {error!r}")
                        continue
                    run.reads.append(
                        Read(
                            label=predicate or "natural",
                            latency=time.perf_counter() - begin,
                            cost=result.cost,
                            relation=result.relation,
                            client=client,
                            span=span.span_id if span is not None else None,
                        )
                    )

            return step

        return run_clients(
            [client_round(client, db) for client, db in enumerate(databases)], seconds
        )

    def expected(self, read: Read) -> List[Tuple]:
        key = (read.client, read.label)
        if key not in self._expected:
            rows = self.rows[read.client]
            self._expected[key] = oracle.PREDICATES[read.label](
                relation_of("a", rows["a"]), relation_of("b", rows["b"])
            )
        return self._expected[key]

    def peak_rss_mib(self, databases: List[TemporalDatabase]) -> float:
        return _own_rss_mib()

    def guard_lines(self) -> List[str]:
        return []

    def guard_failures(self) -> int:
        return 0


class ServeClient:
    """One closed-loop client owning three relations, one of them hot.

    Each cycle makes one valid-time update of the hot relation -- retract
    the previous 64-row batch, assert the next one for the same keys and
    periods with new payloads -- then runs sixteen joins over the three
    pairs in a seeded order.  The update keeps relation sizes stationary,
    so no read's work depends on how many cycles ran before it, and it
    invalidates exactly the two pairs holding the hot relation: with the
    plan cache on, two reads per cycle replan and fourteen reuse a plan.

    Why 7/8 and not 3/4: both clients ask for the whole pool, so each read
    queues behind the other client's read and its latency is the sum of
    the two.  The median read is then a plan-hit read paired with a
    plan-hit read, a class of share h**2 -- 0.56 at h = 3/4, close enough
    to one half that the median flips between classes from run to run;
    0.77 at h = 7/8.
    """

    def __init__(
        self, index: int, workload: str, seed: int, n: int, batch: int, plan_cache: bool
    ) -> None:
        rng = random.Random(f"{workload}:{seed}:client{index}")
        self.index = index
        self.names = [f"c{index}{letter}" for letter in "abc"]
        self.base = {
            name: probe_heavy_rows(name, n, random.Random(f"{workload}:{seed}:{name}"))
            for name in self.names
        }
        self.hot = rng.choice(self.names)
        self.pairs = [
            (self.names[0], self.names[1]),
            (self.names[0], self.names[2]),
            (self.names[1], self.names[2]),
        ]
        self.spec = []
        for _ in range(batch):
            start = rng.randrange(LIFESPAN)
            self.spec.append(
                (f"k{rng.randrange(N_KEYS)}", start, min(LIFESPAN - 1, start + rng.randrange(4)))
            )
        self.schedule_seed = f"{workload}:{seed}:client{index}:schedule"
        self.plan_cache = plan_cache
        self.cycle = 0
        self.planned: set = set()
        self.session = None
        self.expected_hits = 0
        self.realised_hits = 0
        self.hit_mismatches = 0
        self.reads = 0

    def batch(self, cycle: int) -> List[Tuple]:
        return [
            (key, f"{self.hot}u{cycle}_{j}", start, end)
            for j, (key, start, end) in enumerate(self.spec)
        ]

    def cycle_reads(self, cycle: int) -> List[Tuple[str, str]]:
        if cycle == 0:
            return list(self.pairs)  # the warm-up cycle plans every pair once
        hot = [pair for pair in self.pairs if self.hot in pair]
        cold = [pair for pair in self.pairs if self.hot not in pair]
        reads = hot[0:1] * 5 + hot[1:2] * 5 + cold * 6
        random.Random(f"{self.schedule_seed}:{cycle}").shuffle(reads)
        return reads

    def run_cycle(self, run: Pass, tracer=None) -> None:
        """One update and its reads, recorded in this client's own *run*."""
        cycle = self.cycle
        self.cycle += 1
        try:
            with tracer.span("write") if tracer is not None else nullcontext():
                if cycle > 0:
                    self.session.delete(self.hot, self.batch(cycle - 1))
                    run.writes += 1
                self.session.append(self.hot, self.batch(cycle))
                run.writes += 1
        except Exception as error:  # counted, reported, run goes on
            run.errors.append(f"client {self.index} update: {error!r}")
        self.planned = {pair for pair in self.planned if self.hot not in pair}
        for outer, inner in self.cycle_reads(cycle):
            expected_hit = (outer, inner) in self.planned
            if self.plan_cache:
                self.planned.add((outer, inner))
            begin = time.perf_counter()
            try:
                with _read_span(tracer) as span:
                    result = self.session.join(outer, inner)
            except Exception as error:  # counted, reported, run goes on
                run.errors.append(f"client {self.index} join: {error!r}")
                continue
            run.reads.append(
                Read(
                    label=f"{outer}*{inner}",
                    latency=time.perf_counter() - begin,
                    cost=result.cost,
                    relation=result.relation,
                    client=self.index,
                    version=cycle,
                    plan_hit=result.plan_cache_hit,
                    expected_hit=expected_hit,
                    span=span.span_id if span is not None else None,
                    counters=_result_counters(result),
                )
            )


def _result_counters(result) -> Dict[str, float]:
    """What a served result itself reports about the layers it crossed."""
    shards = getattr(result, "shards", None)
    if shards is None:
        return {"queue_wait": result.queue_wait_seconds}
    costs = [shard.cost for shard in shards]
    mean = sum(costs) / len(costs)
    counters = {
        "cost_skew": max(costs) / mean if mean else 1.0,
        "redispatches": result.redispatches,
        "overflow_blocks": result.outcome.overflow_blocks,
        "cache_tuples_spilled": result.outcome.cache_tuples_spilled,
        "result_tuples": result.outcome.n_result_tuples,
    }
    for phase, stats in result.phases.items():
        counters[f"{phase}_ops"] = stats.total_ops
    return counters


class Serve:
    """Two clients reading and updating through one service."""

    def __init__(self, name: str, params: Dict, seed: int) -> None:
        self.name = name
        self.sharded = name == "serve-sharded-rw"
        self.family = "sharded" if self.sharded else "service"
        self.clients = [
            ServeClient(
                index,
                name,
                seed,
                params["tuples_per_relation"],
                params["update_rows"],
                plan_cache=not self.sharded,
            )
            for index in range(SERVE_CLIENTS)
        ]
        self._expected: Dict[Tuple, List[Tuple]] = {}

    def open(self):
        catalog = VersionedCatalog()
        for client in self.clients:
            for name, rows in client.base.items():
                relation = relation_of(name, rows)
                catalog.register(relation.schema, relation.tuples)
        if self.sharded:
            return ShardedQueryService(
                catalog, shards=2, pool_pages=32, execution="batch"
            )
        return QueryService(catalog, execution="batch")

    def close(self, service) -> None:
        service.close()

    def warm(self, service) -> None:
        """Open the sessions and plan every pair once (an unmeasured cycle)."""
        for client in self.clients:
            client.session = service.open_session(
                use_result_cache=False, label=f"client{client.index}"
            )
            warm = Pass()
            client.run_cycle(warm)
            if warm.errors:
                raise RuntimeError(f"warm-up failed: {warm.errors}")

    def _snapshot(self, service) -> Dict:
        snapshot = {"report": service.report(), "transport": transport_counters()}
        if self.sharded:
            snapshot["degradations"] = len(service.resilience.degradations)
        return snapshot

    def measure(self, service, seconds: float, tracer=None) -> Pass:
        from perfbench.metrics import delta

        before = self._snapshot(service)
        run = run_clients(
            [functools.partial(client.run_cycle, tracer=tracer) for client in self.clients],
            seconds,
        )
        run.counters = delta(before, self._snapshot(service))
        for client in self.clients:
            own = [read for read in run.reads if read.client == client.index]
            client.reads += len(own)
            client.realised_hits += sum(read.plan_hit for read in own)
            client.expected_hits += sum(read.expected_hit for read in own)
            client.hit_mismatches += sum(read.plan_hit != read.expected_hit for read in own)
        return run

    def expected(self, read: Read) -> List[Tuple]:
        client = self.clients[read.client]
        outer, inner = read.label.split("*")
        hot = client.hot in (outer, inner)
        key = (read.label, read.version if hot else -1)
        if key not in self._expected:
            base = (read.label, -1)
            if base not in self._expected:
                self._expected[base] = oracle.natural(
                    relation_of(outer, client.base[outer]),
                    relation_of(inner, client.base[inner]),
                )
            rows = self._expected[base]
            if hot:
                # The join distributes over the union base + batch: only the
                # batch's pairs need the oracle again.
                batch = client.batch(read.version)
                sides = {
                    name: batch if name == client.hot else client.base[name]
                    for name in (outer, inner)
                }
                rows = sorted(
                    rows
                    + oracle.natural(
                        relation_of(outer, sides[outer]),
                        relation_of(inner, sides[inner]),
                    )
                )
            self._expected[key] = rows
        return self._expected[key]

    def peak_rss_mib(self, service) -> float:
        total = _own_rss_mib()
        if self.sharded:
            total += sum(
                leaks.peak_rss_mib(pid) for pid in service.worker_pids() if pid is not None
            )
        return total

    def guard_lines(self) -> List[str]:
        return [
            f"client {client.index}: plan-hit share {client.realised_hits}/{client.reads}"
            f" realised, {client.expected_hits}/{client.reads} determined by the seed"
            for client in self.clients
        ]

    def guard_failures(self) -> int:
        """Reads whose plan-cache hit differs from the one the seed determines."""
        return sum(client.hit_mismatches for client in self.clients)


def make(name: str, seed: int):
    params = PROVENANCE["workloads"][name]
    if name.startswith("adhoc-"):
        return Adhoc(name, params, seed)
    return Serve(name, params, seed)
