"""The shard worker: one process, one shard, its own memory and disk.

A worker owns the full serving stack for its shard: a private
:class:`~repro.service.admission.AdmissionController` over its own
:class:`~repro.storage.buffer.BufferPool`, a fresh simulated disk per
fragment (created inside :func:`~repro.core.partition_join.partition_join`,
exactly like the single-process service), and -- for the lane execution
modes -- its own worker-lane pool.  It speaks the
:mod:`repro.shard.transport` protocol:

* ``LOAD`` installs a relation fragment under ``(name, epoch)``; fragments
  are immutable once installed, so re-sending after a respawn rebuilds
  identical state.
* ``EXECUTE`` runs one join fragment pinned to explicit epochs and answers
  with a ``RESULT`` frame: the result columns as span-described blobs
  plus the fragment's :class:`~repro.core.joiner.JoinOutcome` counters,
  per-phase charged-I/O ledger, and admission pedigree.
* ``PING``/``PONG`` is the heartbeat; ``CHAOS`` arms a deterministic hang
  (test hook for the supervision ladder); ``SHUTDOWN`` exits the loop.

Everything a worker computes is a pure function of its fragments and the
query parameters, which is what makes the coordinator's re-dispatch
deterministic: respawn, re-``LOAD``, re-``EXECUTE`` reproduces the lost
fragment bit-identically.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Optional, Tuple

from repro.baselines.nested_loop import nested_loop_join
from repro.baselines.sort_merge import sort_merge_join
from repro.core.partition_join import PartitionJoinConfig, partition_join
from repro.core.planner import estimate_grant_pages
from repro.model.errors import ServiceError
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.service.admission import AdmissionController
from repro.shard import transport
from repro.shard.partitioning import ShardMap
from repro.shard.transport import Channel, TransportError
from repro.storage.buffer import BufferPool
from repro.storage.iostats import CostModel
from repro.storage.page import PageSpec


def schema_to_dict(schema: RelationSchema) -> Dict:
    """The wire shape of a relation schema (LOAD frames, RESULT meta)."""
    return {
        "name": schema.name,
        "join_attributes": list(schema.join_attributes),
        "payload_attributes": list(schema.payload_attributes),
        "tuple_bytes": schema.tuple_bytes,
    }


def schema_from_dict(data: Dict) -> RelationSchema:
    return RelationSchema(
        name=data["name"],
        join_attributes=tuple(data["join_attributes"]),
        payload_attributes=tuple(data["payload_attributes"]),
        tuple_bytes=int(data["tuple_bytes"]),
    )


class ShardWorker:
    """The in-process shard engine (testable without forking).

    Args:
        options: the spawn-time configuration dict: ``rank``, ``pool_pages``,
            ``admission_policy``, ``page_bytes`` / ``tuple_bytes``,
            ``io_ran`` / ``io_seq``, and the ``shard_map`` record.
    """

    def __init__(self, options: Dict) -> None:
        self.rank = int(options["rank"])
        self.shard_map = ShardMap.from_dict(options["shard_map"])
        self.page_spec = PageSpec(
            page_bytes=int(options.get("page_bytes", PageSpec().page_bytes)),
            tuple_bytes=int(options.get("tuple_bytes", PageSpec().tuple_bytes)),
        )
        self.cost_model = CostModel(
            io_ran=float(options.get("io_ran", 5.0)),
            io_seq=float(options.get("io_seq", 1.0)),
        )
        self.pool_pages = int(options.get("pool_pages", 64))
        self.admission = AdmissionController(
            self.pool_pages,
            policy=str(options.get("admission_policy", "fifo")),
        )
        self._fragments: Dict[Tuple[str, int], ValidTimeRelation] = {}
        self._queries = 0
        # Chaos hook: a hang armed at spawn time survives respawns (the
        # coordinator's supervision tests need a worker that fails on
        # every incarnation, not just the first).
        self._hang_seconds: Optional[float] = (
            float(options["chaos_hang_seconds"])
            if "chaos_hang_seconds" in options
            else None
        )

    # -- frame handlers ------------------------------------------------------

    def load(self, meta: Dict, columns) -> Dict:
        """Install a fragment version (idempotent: same key, same bytes)."""
        schema = schema_from_dict(meta["schema"])
        key = (str(meta["name"]), int(meta["epoch"]))
        if columns is None:
            relation = ValidTimeRelation(schema)
        else:
            relation = ValidTimeRelation.from_columns(schema, *columns)
        self._fragments[key] = relation
        return {"rank": self.rank, "loaded": list(key), "n_tuples": len(relation)}

    def execute(self, request: Dict) -> Tuple[Dict, Optional[Tuple]]:
        """Run one fragment join; returns ``(meta, result_columns)``."""
        if self._hang_seconds is not None:
            # The armed chaos hang: sleep where a real wedge would sit --
            # after dequeue, before any work -- so SIGKILL/timeout recovery
            # re-dispatches a fragment that never partially executed.
            seconds, self._hang_seconds = self._hang_seconds, None
            time.sleep(seconds)
        outer = (str(request["outer"]), int(request["outer_epoch"]))
        inner = (str(request["inner"]), int(request["inner_epoch"]))
        try:
            r = self._fragments[outer]
            s = self._fragments[inner]
        except KeyError as missing:
            raise ServiceError(
                f"shard {self.rank} has no fragment {missing} "
                f"(loaded: {sorted(self._fragments)})"
            ) from None
        method = str(request["method"])
        memory_pages = int(request["memory_pages"])
        execution = str(request.get("execution", "batch"))
        predicate = request.get("predicate") or "intersects"

        config = PartitionJoinConfig(
            memory_pages=memory_pages,
            cost_model=self.cost_model,
            page_spec=self.page_spec,
            execution="forward-sweep" if method == "sweep" else execution,
            predicate=predicate,
        )
        outer_pages = self.page_spec.pages_for_tuples(len(r))
        inner_pages = self.page_spec.pages_for_tuples(len(s))
        if method in ("partition", "sweep"):
            ask = estimate_grant_pages(
                outer_pages,
                inner_pages,
                config.memory_pages,
                execution=config.execution,
            )
        else:
            ask = config.memory_pages
        grant = self.admission.acquire(
            max(1, ask), label=f"shard{self.rank}:q{request.get('query_id', 0)}"
        )
        try:
            pool = BufferPool(grant.pages)
            if method in ("partition", "sweep"):
                # A grant clamped to this worker's pool replans for what it
                # actually got -- the same ladder the single-process
                # service rides.
                effective = (
                    config
                    if grant.pages >= config.memory_pages
                    else dataclasses.replace(config, memory_pages=grant.pages)
                )
                run = partition_join(r, s, effective, pool=pool)
                outcome = run.outcome
                tracker = run.layout.tracker
                cost = run.total_cost(self.cost_model)
                algorithm = "forward-sweep" if method == "sweep" else "partition"
            elif method in ("sort_merge", "nested_loop"):
                runner = sort_merge_join if method == "sort_merge" else nested_loop_join
                run = runner(r, s, grant.pages, page_spec=self.page_spec)
                from repro.core.joiner import JoinOutcome

                outcome = JoinOutcome(
                    result=run.result, n_result_tuples=run.n_result_tuples
                )
                tracker = run.layout.tracker
                cost = tracker.stats.cost(self.cost_model)
                algorithm = method
            else:
                raise ServiceError(f"unknown join method {method!r}")
        finally:
            grant.release()
        self._queries += 1

        result = outcome.result
        n_result = outcome.n_result_tuples
        if result is not None and self.shard_map.strategy == "time-range":
            # Replicated inputs meet in every shard both tuples overlap;
            # only the owner of the intersection start reports the pair.
            owned = [
                tup
                for tup in result.tuples
                if self.shard_map.owns_result(self.rank, tup.vs)
            ]
            result = ValidTimeRelation(result.schema, owned)
            n_result = len(owned)

        meta = {
            "query_id": request.get("query_id", 0),
            "rank": self.rank,
            "algorithm": algorithm,
            "outcome": {
                "n_result_tuples": n_result,
                "overflow_blocks": outcome.overflow_blocks,
                "cache_tuples_peak": outcome.cache_tuples_peak,
                "cache_tuples_spilled": outcome.cache_tuples_spilled,
            },
            "phases": {
                name: stats.as_dict() for name, stats in tracker.phases.items()
            },
            "totals": tracker.stats.as_dict(),
            "charged_ops": tracker.stats.total_ops,
            "cost": cost,
            "requested_pages": ask,
            "granted_pages": grant.pages,
            "degraded": grant.degraded,
            "clamped": grant.clamped,
            "peak_granted_pages": self.admission.peak_granted_pages,
            "fragment_tuples": (len(r), len(s)),
            "result_schema": schema_to_dict(result.schema) if result is not None else None,
        }
        columns = result.to_columns() if result is not None else None
        return meta, columns

    def status(self) -> Dict:
        """The PONG body: liveness plus per-shard admission pressure."""
        return {
            "rank": self.rank,
            "fragments": len(self._fragments),
            "queries": self._queries,
            "peak_granted_pages": self.admission.peak_granted_pages,
            "grants": self.admission.grants,
            "pool_pages": self.pool_pages,
        }

    def arm_chaos(self, request: Dict) -> Dict:
        """Arm a deterministic hang before the next EXECUTE (test hook)."""
        self._hang_seconds = float(request["hang_seconds"])
        return {"rank": self.rank, "armed": self._hang_seconds}


def worker_main(sock, options: Dict) -> None:
    """Child-process entry point: serve frames until SHUTDOWN or EOF."""
    worker = ShardWorker(options)
    channel = Channel(sock, name=f"coordinator<-shard{worker.rank}")
    try:
        while True:
            try:
                ftype, flags, payload = channel.recv()
            except TransportError:
                break  # the coordinator went away; nothing left to serve
            try:
                if ftype == transport.SHUTDOWN:
                    channel.send_obj(transport.OK, worker.status())
                    break
                elif ftype == transport.PING:
                    channel.send_obj(transport.PONG, worker.status())
                elif ftype == transport.CHAOS:
                    body = transport.decode_payload(payload, flags)
                    channel.send_obj(transport.OK, worker.arm_chaos(body))
                elif ftype == transport.LOAD:
                    meta, columns = transport.unpack_result(payload)
                    channel.send_obj(transport.OK, worker.load(meta, columns))
                elif ftype == transport.EXECUTE:
                    request = transport.decode_payload(payload, flags)
                    meta, columns = worker.execute(request)
                    channel.send(transport.RESULT, transport.pack_result(meta, columns))
                else:
                    channel.send_obj(
                        transport.ERROR,
                        {"error": f"unexpected frame type {ftype}"},
                    )
            except TransportError:
                break
            except Exception as error:  # deterministic failures travel back
                try:
                    channel.send_obj(
                        transport.ERROR,
                        {"error": f"{type(error).__name__}: {error}"},
                    )
                except TransportError:
                    break
    finally:
        channel.close()
