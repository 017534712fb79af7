"""Shared machinery of the chaos suite.

Every test in this package is deterministic given ``CHAOS_SEED`` (read from
the environment, default 0): relation contents, injected fault streams, and
crash points are all pure functions of it.  CI runs the suite under a small
matrix of seeds; a failure reproduces locally with the same value.
"""

import glob
import os
import random

from repro.core.partition_join import PartitionJoinConfig
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.storage.page import PageSpec

#: Seed of the whole chaos run, settable from the environment (CI matrix).
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

#: Small pages so modest relations still span many partitions.
SPEC = PageSpec(page_bytes=256, tuple_bytes=32)

EXECUTION_MODES = ("tuple", "batch", "batch-parallel-sweep")


def shm_segments() -> set:
    """The ``/dev/shm/repro_*`` entries as the OS lists them right now."""
    return set(glob.glob("/dev/shm/repro_*"))


def chaos_relation(name: str, n_tuples: int, seed: int) -> ValidTimeRelation:
    """A seeded valid-time relation with per-relation payload attributes."""
    schema = RelationSchema(
        name, join_attributes=("emp",), payload_attributes=(f"p_{name}",)
    )
    rng = random.Random(seed)
    rows = []
    for i in range(n_tuples):
        vs = rng.randrange(480)
        rows.append((rng.randrange(12), f"{name}{i}", vs, vs + 1 + rng.randrange(64)))
    return ValidTimeRelation.from_rows(schema, rows)


def chaos_config(execution: str = "tuple", **overrides) -> PartitionJoinConfig:
    """The suite's standard configuration: tight memory, frequent checkpoints."""
    settings = dict(
        memory_pages=8,
        page_spec=SPEC,
        checkpoint_interval=2,
        execution=execution,
    )
    settings.update(overrides)
    return PartitionJoinConfig(**settings)
