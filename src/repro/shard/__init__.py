"""Sharded serving: coordinator + N shard worker processes over sockets.

The ROADMAP's "multi-node lane transport" seam, closed: the PR-5
:class:`~repro.service.service.QueryService` scaled past one process by
decomposing every join into per-shard *fragments* (the same shape as the
partition-parallel evaluation of spatial joins -- each fragment is an
independent join whose results union disjointly).  Four cooperating
pieces (see ``docs/SHARDING.md``):

* :mod:`repro.shard.partitioning` -- :class:`ShardMap`: hash sharding by
  join key or range sharding by temporal partition, with the map recorded
  in the :class:`~repro.engine.catalog.VersionedCatalog` so snapshots stay
  epoch-consistent across shards;
* :mod:`repro.shard.transport` -- the length-prefixed, CRC-checked socket
  frames carrying query fragments out and span-described column
  results back (JSON column spans with the PR-6 pickled fallback as the
  degradation rung);
* :mod:`repro.shard.worker` -- the shard worker process: its own
  :class:`~repro.storage.buffer.BufferPool`,
  :class:`~repro.service.admission.AdmissionController`, simulated disk
  and lane pool, executing fragments and reporting per-phase charged-I/O
  ledgers;
* :mod:`repro.shard.coordinator` -- :class:`ShardedQueryService`: routes
  fragments by shard map, merges results deterministically (shard rank,
  then fragment emission order), aggregates
  :class:`~repro.core.joiner.JoinOutcome` counters and I/O ledgers
  exactly, and degrades a SIGKILLed or hung shard to deterministic
  re-dispatch instead of query failure.
"""

from repro.shard.coordinator import (
    ShardedQueryResult,
    ShardedQueryService,
    ShardFragmentReport,
)
from repro.shard.partitioning import (
    SHARD_STRATEGIES,
    ShardMap,
    stable_key_hash,
    time_range_map,
)
from repro.shard.transport import (
    Channel,
    TransportError,
    active_channel_count,
    reset_transport_counters,
    transport_counters,
)

__all__ = [
    "Channel",
    "SHARD_STRATEGIES",
    "ShardFragmentReport",
    "ShardMap",
    "ShardedQueryResult",
    "ShardedQueryService",
    "TransportError",
    "active_channel_count",
    "reset_transport_counters",
    "stable_key_hash",
    "time_range_map",
    "transport_counters",
]
