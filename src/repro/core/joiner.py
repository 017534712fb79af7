"""``joinPartitions`` (Appendix A.1, Figure 9): the backward partition sweep.

The computation proceeds from partition ``n`` down to partition ``1``.  The
outer-relation partition lives in memory; long-lived outer tuples are
*retained* in that buffer across iterations, and long-lived inner tuples are
migrated through the paged *tuple cache*:

for i from n to 1:
    purge outer buffer of tuples not overlapping p_i; read r_i into it
    join the outer buffer with each page of the old tuple cache,
        copying cache tuples that overlap p_{i-1} into the new cache
    join the outer buffer with each page of s_i,
        copying s_i tuples that overlap p_{i-1} into the new cache

Every tuple is therefore present in every partition it overlaps exactly
when that partition's join is computed, without ever being replicated in
secondary storage.

The paper's Section 5 future-work idea -- "the paging cost ... can be
reduced if sufficient buffer space is allocated to retain, with high
probability, the entire tuple cache in main memory.  Trading off outer
relation partition space for tuple cache space" -- is implemented via
``cache_memory_tuples``: that many cached tuples stay resident and only the
excess pages to disk.

Two concerns the paper leaves implicit are made explicit here:

* **Exactly-once emission.**  A pair of tuples co-resides in every partition
  their overlap spans; emitting on each co-residence would duplicate
  results.  The pair is emitted only in the partition containing the *end*
  chronon of their overlap -- the first partition of the backward sweep
  where both are present -- which the integration tests verify against the
  reference join.
* **Buffer overflow ("thrashing").**  When a partition exceeds the
  ``buffSize`` outer area (a mis-estimated partitioning -- the Kolmogorov
  bound makes this a <=1% event), correctness is preserved and performance
  degraded, exactly as Section 3.4 promises: the overflow is spilled to a
  temp file and joined in additional blocks, each block re-reading the
  inner partition and tuple cache.

**Execution modes.**  The per-page compute -- key-equality probe, interval
intersection, the exactly-once owner filter, and the migration test -- runs
either tuple-at-a-time (``execution="tuple"``, the oracle) or through the
batch kernels of :mod:`repro.exec.kernels` (``execution="batch"``), which
decompose each page into a columnar :class:`~repro.exec.batch.PageBatch`
once and evaluate whole columns per operation (numpy-vectorized when numpy
is installed, pure-Python fallback otherwise).  Both paths emit identical
matches in identical order and charge identical I/O; the integration tests
assert bit-equality of outcomes and per-phase statistics.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.intervals import PartitionMap
from repro.exec.batch import ColumnarBlock
from repro.model.errors import CheckpointError
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.obs import span_or_null
from repro.resilience.checkpoint import SweepCheckpoint, SweepCheckpointer, SweepContext
from repro.storage.buffer import BufferPool, Reservation
from repro.storage.columnar_page import ColumnarPage
from repro.storage.heapfile import HeapFile
from repro.storage.layout import DiskLayout
from repro.time.interval import Interval

if TYPE_CHECKING:  # degrade imports this module; annotation-only the other way
    from repro.obs import Observability
    from repro.resilience.degrade import BufferReduction
    from repro.storage.prefetch import PrefetchPipeline

#: Builds a result tuple from a matched pair and their interval overlap, or
#: None to reject the pair.  The default is the natural-join combination;
#: predicate variants (overlap-join, contain-join, ...) substitute their own.
PairFn = Callable[[VTTuple, VTTuple, Interval], Optional[VTTuple]]

#: Valid values of the ``execution`` knob.  ``"batch"`` runs the sweep on
#: the batch kernels.  The sweep itself is inherently sequential (iteration
#: i+1 consumes the cache iteration i wrote), so ``"batch-parallel-sweep"``
#: keeps the partition order sequential but parallelizes *within* it: the
#: interval-pruned probe of :mod:`repro.exec.sweep_parallel` fans key-group
#: lanes over a worker pool, and a
#: :class:`~repro.storage.prefetch.PrefetchPipeline` overlaps the next
#: partition's page reads (and defers tuple-cache spill writes) with the
#: current partition's compute.  Over columnar pages the lane engine probes
#: packed outer blocks without materializing tuples.  Charged I/O and
#: results are bit-identical in every mode.
EXECUTION_MODES = (
    "tuple",
    "batch",
    "batch-parallel-sweep",
)


def natural_pair(x: VTTuple, y: VTTuple, common: Interval) -> VTTuple:
    """The Section 2 result tuple: both payloads, overlap timestamp."""
    return VTTuple(x.key, x.payload + y.payload, common)


@dataclass
class JoinOutcome:
    """What a partition-sweep join produced and observed.

    Attributes:
        result: the materialized result relation (None when not collected).
        n_result_tuples: result cardinality (always tracked).
        overflow_blocks: extra outer blocks processed due to partition
            overflow (0 when the planner's estimate held everywhere).
        cache_tuples_peak: largest tuple-cache population seen.
        cache_tuples_spilled: cached tuples that overflowed the resident
            area and paged through disk (equals every cached tuple when no
            residency is reserved).
    """

    result: Optional[ValidTimeRelation]
    n_result_tuples: int = 0
    overflow_blocks: int = 0
    cache_tuples_peak: int = 0
    cache_tuples_spilled: int = 0


def join_partitions(
    r_parts: Sequence[HeapFile],
    s_parts: Sequence[HeapFile],
    partition_map: PartitionMap,
    buff_size: int,
    layout: DiskLayout,
    result_schema: Optional[RelationSchema] = None,
    *,
    collect: bool = True,
    pair_fn: PairFn = natural_pair,
    direction: str = "backward",
    cache_memory_tuples: int = 0,
    execution: str = "tuple",
    prefetch_depth: int = 8,
    sweep_workers: Optional[int] = None,
    supervision=None,
    interner=None,
    pool: Optional[BufferPool] = None,
    checkpointer: Optional[SweepCheckpointer] = None,
    resume_from: Optional[SweepCheckpoint] = None,
    buffer_reductions: Sequence["BufferReduction"] = (),
    swapped_inputs: bool = False,
    obs: Optional["Observability"] = None,
) -> JoinOutcome:
    """Join pre-partitioned relations ``r`` and ``s`` (Appendix A.1).

    Args:
        r_parts: outer partitions, index-aligned with *partition_map*.
        s_parts: inner partitions, same alignment.
        partition_map: the partitioning both sides were built with.
        buff_size: pages of the outer-partition buffer area (Figure 3).
        layout: disk layout (tuple cache goes to the CACHE device, result to
            the excluded RESULT stream).
        result_schema: schema of the result, required when *collect* is True.
        collect: materialize the result relation in memory as well as
            writing it through the result stream.
        execution: ``"tuple"`` for the tuple-at-a-time oracle loop,
            ``"batch"`` for the batch kernels, or
            ``"batch-parallel-sweep"`` for the pipelined sweep: the
            interval-pruned lane-parallel probe plus partition-barrier
            prefetch and write-behind.
        prefetch_depth: pages of read-ahead per partition barrier
            (``"batch-parallel-sweep"`` only; 0 disables read-ahead).
        sweep_workers: probe lanes for the pipelined sweeps (None = one per
            core, capped at 8; clamped to the visible cores).
        supervision: a :class:`~repro.resilience.supervisor.SupervisionPolicy`
            putting the sweep's lane pool under a
            :class:`~repro.resilience.supervisor.LaneSupervisor` (crash/hang
            detection, deterministic re-dispatch, quarantine); None runs the
            bare pool with whole-sweep degradation as before.  Results and
            charged I/O are identical either way -- lanes are pure compute.
        interner: a :class:`~repro.exec.batch.KeyInterner` to reuse across
            joins (the service layer's per-relation-version interner cache).
            Interner ids never leak into results -- emission order is
            restored by the final sort -- so sharing is result-identical.
        pool: when given, the sweep reserves its Figure 3 regions in this
            :class:`BufferPool` and guarantees -- on success, failure, or
            simulated crash -- that every reservation is released.
        checkpointer: when given, boundary checkpoints are written every
            ``checkpointer.interval`` completed partitions (plus one at
            position 0), making the sweep resumable.
        resume_from: a committed checkpoint to restart from (requires
            *checkpointer*; the call's other arguments must describe the
            same sweep, normally via the recovery log's context).
        buffer_reductions: scheduled mid-sweep shrinks of the outer area;
            from each reduction's position on, the sweep runs with the
            smaller buffer, routing the excess through the Section 3.4
            overflow machinery and recording a degradation event.
        swapped_inputs: True when the caller passed its inputs in swapped
            orientation and *pair_fn* already compensates (the
            single-partition shortcut).  Recorded in the sweep context so
            :func:`~repro.core.partition_join.resume_join` re-applies the
            same flip to the caller-supplied ``pair_fn`` on replay.
        obs: optional :class:`~repro.obs.Observability` runtime.  Purely
            observational: spans, events, and metrics are recorded around
            the sweep, but results, outcome counters, and charged I/O are
            bit-identical with or without it.
    """
    if len(r_parts) != len(partition_map) or len(s_parts) != len(partition_map):
        raise ValueError("partition lists must align with the partition map")
    if collect and result_schema is None:
        raise ValueError("collect=True requires a result_schema")
    if direction not in ("backward", "forward"):
        raise ValueError(f"direction must be 'backward' or 'forward', got {direction!r}")
    if execution not in EXECUTION_MODES:
        raise ValueError(
            f"execution must be one of {EXECUTION_MODES}, got {execution!r}"
        )
    if resume_from is not None and checkpointer is None:
        raise CheckpointError("resume_from requires the run's checkpointer")

    n = len(partition_map)
    if direction == "backward":
        # The paper's order: tuples stored in their last partition, the
        # sweep runs n..1, migration moves backward, and a pair is owned by
        # the partition holding its overlap's END chronon.
        order_list = list(range(n - 1, -1, -1))
        step = -1
    else:
        # Footnote 1's equivalent strategy: first-partition storage, sweep
        # 1..n, forward migration, ownership by the overlap's START chronon.
        order_list = list(range(n))
        step = 1

    spec = layout.spec

    pipeline: Optional["PrefetchPipeline"] = None
    if execution == "tuple":
        engine: _ProbeEngine = _TupleEngine(partition_map, direction)
    elif execution == "batch-parallel-sweep":
        # Late imports, like the batch engine's kernels: the sweep module
        # pulls in multiprocessing machinery this module must not require.
        from repro.exec.sweep_parallel import (
            PipelinedSweepEngine,
            effective_sweep_workers,
        )
        from repro.storage.prefetch import PrefetchPipeline

        supervisor = None
        if supervision is not None:
            from repro.resilience.supervisor import LaneSupervisor

            supervisor = LaneSupervisor(
                effective_sweep_workers(sweep_workers),
                policy=supervision,
                injector=layout.disk.fault_injector,
                report=layout.resilience_report,
                obs=obs,
            )
        engine = PipelinedSweepEngine(
            partition_map,
            direction,
            workers=sweep_workers,
            obs=obs,
            interner=interner,
            supervisor=supervisor,
            report=layout.resilience_report,
        )
        pipeline = PrefetchPipeline(layout, prefetch_depth)
    else:
        engine = _BatchEngine(partition_map, direction, interner=interner)

    inner_total = sum(part.n_tuples for part in s_parts)
    report = layout.disk.report

    if resume_from is None:
        result_file = layout.result_file("join_result")
        collected = ValidTimeRelation(result_schema) if collect else None
        outcome = JoinOutcome(result=collected)
        outer_retained: List[VTTuple] = []
        cache: Optional[_TupleCache] = None
        start_pos = 0
        if checkpointer is not None:
            checkpointer.begin(
                SweepContext(
                    r_parts=tuple(r_parts),
                    s_parts=tuple(s_parts),
                    partition_map=partition_map,
                    buff_size=buff_size,
                    result_schema=result_schema,
                    collect=collect,
                    direction=direction,
                    cache_memory_tuples=cache_memory_tuples,
                    execution=execution,
                    result_file=result_file,
                    prefetch_depth=prefetch_depth,
                    sweep_workers=sweep_workers,
                    swapped=swapped_inputs,
                )
            )
    else:
        context = checkpointer.recovery.context
        if context is None:
            raise CheckpointError("recovery log has no sweep context to resume")
        # Discard everything the interrupted run did past the checkpoint.
        result_file = context.result_file
        result_file.rewind_to(resume_from.result_pages, resume_from.result_tuples)
        collected = None
        if collect:
            collected = ValidTimeRelation(result_schema)
            for tup in result_file.all_tuples():
                collected.add(tup)
        outcome = JoinOutcome(
            result=collected,
            n_result_tuples=resume_from.n_result_tuples,
            overflow_blocks=resume_from.overflow_blocks,
            cache_tuples_peak=resume_from.cache_tuples_peak,
            cache_tuples_spilled=resume_from.cache_tuples_spilled,
        )
        outer_retained = list(resume_from.outer_retained)
        cache = _TupleCache.restore(layout, cache_memory_tuples, inner_total, resume_from)
        start_pos = resume_from.position

    # The pool reservations of Figure 3: the outer area, the three fixed
    # in-transit pages, and any resident tuple-cache area.  try/finally below
    # guarantees they return to the pool however the sweep ends.
    reservations: List[Reservation] = []
    outer_reservation: Optional[Reservation] = None
    if pool is not None:
        outer_reservation = pool.reserve("outer_partition", buff_size)
        reservations.append(outer_reservation)
        for label in ("inner_page", "tuple_cache_page", "result_page"):
            reservations.append(pool.reserve(label, 1))
        resident_pages = spec.pages_for_tuples(cache_memory_tuples)
        if resident_pages:
            reservations.append(pool.reserve("cache_resident", resident_pages))

    current_buff = buff_size
    new_cache: Optional[_TupleCache] = None
    if obs is not None and pool is not None:
        _pool_gauges(obs, pool)
    sweep_cm = span_or_null(
        obs,
        "sweep",
        partitions=n,
        direction=direction,
        execution=execution,
        buff_size=buff_size,
        resume_position=start_pos,
    )
    sweep_span = sweep_cm.__enter__()
    try:
        for pos in range(start_pos, n):
            index = order_list[pos]
            next_index = index + step  # the partition the sweep visits next
            has_next = 0 <= next_index < n

            with span_or_null(
                obs, "partition", position=pos, partition=index
            ) as part_span:
                # Apply any scheduled buffer reductions that start here (or
                # that started before the resume point -- those shrink
                # silently, the pre-crash run already recorded them).
                effective = min(
                    [buff_size]
                    + [
                        red.buff_size
                        for red in buffer_reductions
                        if red.at_position <= pos
                    ]
                )
                if effective < current_buff:
                    current_buff = effective
                    if outer_reservation is not None:
                        outer_reservation.resize(current_buff)
                        if obs is not None and pool is not None:
                            _pool_gauges(obs, pool)
                    _note_buffer_reduction(report, pos, current_buff, obs)
                block_tuples = max(1, current_buff * spec.capacity)

                # Purge retained outer tuples that do not reach this
                # partition, then read the partition itself from disk.
                outer_pages = (
                    pipeline.scan_pages(r_parts[index])
                    if pipeline is not None
                    else r_parts[index].scan_pages()
                )
                outer = _assemble_outer(
                    outer_retained, outer_pages, partition_map, index, engine
                )

                new_cache = None
                if has_next:
                    if pipeline is not None:
                        new_cache = _PipelinedTupleCache(
                            layout,
                            f"tuple_cache_{next_index}",
                            cache_memory_tuples,
                            inner_total,
                            pipeline,
                        )
                    else:
                        new_cache = _TupleCache(
                            layout,
                            f"tuple_cache_{next_index}",
                            cache_memory_tuples,
                            inner_total,
                        )

                blocks = _split_blocks(outer, block_tuples)
                if len(blocks) > 1:
                    outcome.overflow_blocks += len(blocks) - 1
                    if obs is not None:
                        obs.event(
                            "overflow", partition=index, blocks=len(blocks) - 1
                        )
                        obs.count(
                            "repro_overflow_blocks_total",
                            "Extra outer blocks forced by partition overflow.",
                            float(len(blocks) - 1),
                        )
                    _charge_spill(blocks[1:], layout, spec, index)

                part_rows = part_matches = part_migrated = 0
                for block_number, block in enumerate(blocks):
                    probe_index = engine.build_index(block)
                    migrate = block_number == 0  # migration happens exactly once
                    if cache is not None:
                        with span_or_null(
                            obs,
                            "probe",
                            source="cache",
                            partition=index,
                            block=block_number,
                        ) as probe_span:
                            pages_n, rows_n, matches_n, migrated_n = _probe_pages(
                                cache.pages(),
                                engine,
                                probe_index,
                                index,
                                next_index if has_next else None,
                                new_cache if migrate else None,
                                result_file,
                                collected,
                                outcome,
                                layout,
                                pair_fn,
                            )
                            probe_span.set(
                                pages=pages_n,
                                rows=rows_n,
                                matches=matches_n,
                                migrated=migrated_n,
                            )
                        part_rows += rows_n
                        part_matches += matches_n
                        part_migrated += migrated_n
                    inner_pages = (
                        pipeline.scan_pages(s_parts[index])
                        if pipeline is not None
                        else s_parts[index].scan_pages()
                    )
                    with span_or_null(
                        obs,
                        "probe",
                        source="inner",
                        partition=index,
                        block=block_number,
                    ) as probe_span:
                        pages_n, rows_n, matches_n, migrated_n = _probe_pages(
                            inner_pages,
                            engine,
                            probe_index,
                            index,
                            next_index if has_next else None,
                            new_cache if migrate else None,
                            result_file,
                            collected,
                            outcome,
                            layout,
                            pair_fn,
                        )
                        probe_span.set(
                            pages=pages_n,
                            rows=rows_n,
                            matches=matches_n,
                            migrated=migrated_n,
                        )
                    part_rows += rows_n
                    part_matches += matches_n
                    part_migrated += migrated_n

                if new_cache is not None:
                    new_cache.flush()
                    outcome.cache_tuples_peak = max(
                        outcome.cache_tuples_peak, new_cache.n_tuples
                    )
                    if new_cache.spill is not None:
                        outcome.cache_tuples_spilled += new_cache.spill.n_tuples
                cache = new_cache
                outer_retained = outer
                part_span.set(
                    blocks=len(blocks),
                    outer_tuples=len(outer),
                    probe_rows=part_rows,
                    matches=part_matches,
                    migrated=part_migrated,
                )
                if obs is not None:
                    obs.observe(
                        "repro_probe_rows_per_partition",
                        float(part_rows),
                        "Rows probed against the outer block, per partition.",
                    )

            completed = pos + 1
            if (
                checkpointer is not None
                and completed < n
                and checkpointer.due(completed, start_pos)
            ):
                # Durability point: stored watermarks must cover every
                # emitted tuple, so the result buffer goes out first.
                result_file.flush()
                checkpointer.write(
                    position=completed,
                    outer_retained=outer_retained,
                    cache_resident=cache.resident if cache is not None else (),
                    cache_spill=cache.spill if cache is not None else None,
                    cache_name=cache.name if cache is not None else None,
                    result_file=result_file,
                    n_result_tuples=outcome.n_result_tuples,
                    overflow_blocks=outcome.overflow_blocks,
                    cache_tuples_peak=outcome.cache_tuples_peak,
                    cache_tuples_spilled=outcome.cache_tuples_spilled,
                )
                if obs is not None:
                    obs.event("checkpoint", position=completed)
                    obs.count(
                        "repro_checkpoints_total",
                        "Boundary checkpoints written mid-sweep.",
                    )

            if pipeline is not None and pos + 1 < n:
                with span_or_null(
                    obs, "prefetch", lane="prefetch", next_position=pos + 1
                ) as prefetch_span:
                    _prefetch_next_partition(
                        pipeline,
                        r_parts,
                        s_parts,
                        partition_map,
                        order_list[pos + 1],
                        outer_retained,
                        buff_size,
                        buffer_reductions,
                        pos + 1,
                        spec,
                    )
                    prefetch_span.set(
                        cached_pages=len(pipeline.cache)
                        if pipeline.cache is not None
                        else 0
                    )

        result_file.flush()
        sweep_span.set(
            result_tuples=outcome.n_result_tuples,
            overflow_blocks=outcome.overflow_blocks,
            cache_tuples_peak=outcome.cache_tuples_peak,
        )
        return outcome
    except BaseException:
        # The sweep died (simulated crash, fault, overflow...).  Volatile
        # buffers vanish with the process: drop them WITHOUT charged I/O --
        # a dead evaluator issues no writes.  Disk state stays as the crash
        # left it; resume rewinds it to the last checkpoint's watermarks.
        result_file.abandon()
        for c in (cache, new_cache):
            if c is not None and c.spill is not None:
                c.spill.abandon()
        raise
    finally:
        sweep_cm.__exit__(*sys.exc_info())
        if obs is not None:
            _export_engine_metrics(obs, engine, pipeline)
        if pipeline is not None:
            pipeline.discard()
        close = getattr(engine, "close", None)
        if close is not None:
            close()
        for reservation in reservations:
            reservation.release()
        if obs is not None and pool is not None:
            _pool_gauges(obs, pool)


def _prefetch_next_partition(
    pipeline: "PrefetchPipeline",
    r_parts: Sequence[HeapFile],
    s_parts: Sequence[HeapFile],
    partition_map: PartitionMap,
    next_part: int,
    outer_retained: Sequence[VTTuple],
    buff_size: int,
    buffer_reductions: Sequence["BufferReduction"],
    next_pos: int,
    spec,
) -> None:
    """Read ahead the next partition's pages at the partition barrier.

    The prefix property (see :mod:`repro.storage.prefetch`) needs the
    prefetched pages to be exactly the first demand reads of the next
    iteration.  The one thing that can break that on the TEMP device is a
    partition overflow: its spill round-trip lands between the outer scan
    and the inner scans.  Whether the next partition overflows is fully
    determined by state in hand at the barrier -- the retained outer tuples,
    the partition's cardinality, and the buffer size in force -- so it is
    predicted here without touching the disk, and on a predicted overflow
    the read-ahead stops at the outer partition's pages.
    """
    kept = _retained_overlap_count(outer_retained, partition_map, next_part)
    effective = min(
        [buff_size]
        + [red.buff_size for red in buffer_reductions if red.at_position <= next_pos]
    )
    block_tuples = max(1, effective * spec.capacity)
    will_overflow = kept + r_parts[next_part].n_tuples > block_tuples
    if will_overflow:
        pipeline.prefetch((r_parts[next_part],))
    else:
        pipeline.prefetch((r_parts[next_part], s_parts[next_part]))


def _note_buffer_reduction(
    report, pos: int, buff_size: int, obs: Optional["Observability"] = None
) -> None:
    """Record a buffer-reduction degradation once per sweep position."""
    for event in report.degradations:
        if event.kind == "buffer-reduction" and event.position == pos:
            return
    report.record_degradation(
        "buffer-reduction",
        f"outer buffer shrunk to {buff_size} pages at sweep position {pos}",
        position=pos,
    )
    if obs is not None:
        obs.event(
            "degradation", kind="buffer-reduction", position=pos, buff_size=buff_size
        )
        obs.count(
            "repro_degradations_total",
            "Recorded degradation events by kind.",
            kind="buffer-reduction",
        )


def _pool_gauges(obs: "Observability", pool: BufferPool) -> None:
    """Publish the buffer pool's occupancy gauges."""
    obs.gauge(
        "repro_buffer_pool_pages",
        float(pool.used_pages),
        "Buffer pool occupancy in pages.",
        state="used",
    )
    obs.gauge(
        "repro_buffer_pool_pages",
        float(pool.free_pages),
        "Buffer pool occupancy in pages.",
        state="free",
    )


def _export_engine_metrics(
    obs: "Observability",
    engine: "_ProbeEngine",
    pipeline: Optional["PrefetchPipeline"],
) -> None:
    """Export the sweep's end-of-run ledgers into the metrics registry.

    Covers the pipeline's per-stage I/O ledgers, the prefetch page cache's
    hit/miss/eviction counts, and the parallel engine's worker-pool dispatch
    counters.  Read-only over all of them.
    """
    if pipeline is not None:
        stages = (
            ("prefetch", pipeline.prefetch_stats),
            ("writeback", pipeline.writeback_stats),
            ("demand", pipeline.demand_stats),
        )
        for stage, stats in stages:
            for kind, value in stats.as_dict().items():
                if value:
                    obs.count(
                        "repro_pipeline_stage_ops_total",
                        "Charged I/O operations by pipeline stage and kind.",
                        float(value),
                        stage=stage,
                        kind=kind,
                    )
        if pipeline.cache is not None:
            for kind in ("hits", "misses", "evictions"):
                value = getattr(pipeline.cache, kind, 0)
                if value:
                    obs.count(
                        "repro_page_cache_events_total",
                        "Prefetch page-cache hits, misses, and evictions.",
                        float(value),
                        kind=kind,
                    )
    dispatches = getattr(engine, "pool_dispatches", None)
    if dispatches is not None:
        if dispatches:
            obs.count(
                "repro_pool_dispatches_total",
                "Probe batches dispatched to the sweep worker pool.",
                float(dispatches),
            )
        fallbacks = getattr(engine, "pool_fallbacks", 0)
        if fallbacks:
            obs.count(
                "repro_pool_fallbacks_total",
                "Probe batches that ran in-process instead of on the pool.",
                float(fallbacks),
            )
    lanes = getattr(engine, "lanes", None)
    if lanes:
        obs.gauge(
            "repro_sweep_lanes",
            float(lanes),
            "Probe lanes used by the pipelined sweep engine.",
        )


class _TupleCache:
    """The long-lived tuple cache: an optional resident area plus a paged
    spill file (the Section 5 partition-space / cache-space trade-off).

    With ``memory_tuples == 0`` every cached tuple pages through disk --
    exactly the paper's Figure 3 configuration, where the cache owns a
    single in-transit buffer page.
    """

    def __init__(
        self, layout: DiskLayout, name: str, memory_tuples: int, capacity_hint: int
    ) -> None:
        self._layout = layout
        self.name = name
        self._memory_tuples = memory_tuples
        self._capacity_hint = max(1, capacity_hint)
        self.resident: List[VTTuple] = []
        self.spill: Optional[HeapFile] = None

    @classmethod
    def restore(
        cls,
        layout: DiskLayout,
        memory_tuples: int,
        capacity_hint: int,
        checkpoint: SweepCheckpoint,
    ) -> Optional["_TupleCache"]:
        """Rebuild the cache a checkpoint captured (None when it had none).

        The resident area comes back from the checkpoint record (it was
        persisted with the checkpoint's charged writes); the spill file is
        the on-disk survivor, rolled back to its checkpointed watermarks.
        """
        if checkpoint.cache_name is None:
            return None
        cache = cls(layout, checkpoint.cache_name, memory_tuples, capacity_hint)
        cache.resident = list(checkpoint.cache_resident)
        if checkpoint.cache_spill is not None:
            checkpoint.cache_spill.rewind_to(
                checkpoint.cache_spill_pages, checkpoint.cache_spill_tuples
            )
            cache.spill = checkpoint.cache_spill
        return cache

    def append(self, tup: VTTuple) -> None:
        if len(self.resident) < self._memory_tuples:
            self.resident.append(tup)
            return
        if self.spill is None:
            self.spill = self._layout.cache_file(
                self.name, capacity_tuples=self._capacity_hint
            )
        self.spill.append(tup)

    def flush(self) -> None:
        if self.spill is not None:
            self.spill.flush()

    @property
    def n_tuples(self) -> int:
        return len(self.resident) + (self.spill.n_tuples if self.spill else 0)

    def pages(self):
        """Iterate page-shaped tuple lists: resident first (no I/O charge),
        then the spill file (charged reads)."""
        if self.resident:
            yield self.resident
        if self.spill is not None:
            yield from self.spill.scan_pages()


class _PipelinedTupleCache(_TupleCache):
    """A tuple cache with write-behind: spill appends are buffered in memory
    and written in one run at the partition barrier (inside the pipeline's
    ``writeback`` window, so the writes are charged normally *and* tagged).

    Deferring the writes turns the CACHE device's serial read/write
    interleaving into one read run followed by one write run: the same page
    writes with the same contents, never more random accesses.  Crash-wise
    the deferred tuples are volatile state, exactly like the serial cache's
    partial write-buffer page: a crash before the barrier loses them
    uncharged, and resume rebuilds the cache from the checkpoint.
    """

    def __init__(
        self,
        layout: DiskLayout,
        name: str,
        memory_tuples: int,
        capacity_hint: int,
        pipeline: "PrefetchPipeline",
    ) -> None:
        super().__init__(layout, name, memory_tuples, capacity_hint)
        self._pipeline = pipeline
        self._pending: List[VTTuple] = []

    def append(self, tup: VTTuple) -> None:
        if len(self.resident) < self._memory_tuples:
            self.resident.append(tup)
            return
        self._pending.append(tup)

    def flush(self) -> None:
        if self._pending:
            with self._pipeline.writeback():
                if self.spill is None:
                    self.spill = self._layout.cache_file(
                        self.name, capacity_tuples=self._capacity_hint
                    )
                self.spill.append_many(self._pending)
                self.spill.flush()
            self._pending = []
        elif self.spill is not None:
            self.spill.flush()

    @property
    def n_tuples(self) -> int:
        return (
            len(self.resident)
            + len(self._pending)
            + (self.spill.n_tuples if self.spill else 0)
        )


def _assemble_outer(
    outer_retained, outer_pages, partition_map, index: int, engine
) -> Sequence[VTTuple]:
    """The outer block: purged retained tuples plus the partition's pages.

    When the engine consumes packed blocks and every page is columnar (the
    lane sweep over a columnar layout), rows stay in their pages: the purge
    is vectorized over the column views and no tuple is materialized until
    something touches the row.  Every other combination builds the row-oriented list exactly
    as before.  Both shapes hold the same rows in the same order, and the
    charged page reads happen identically (the scan is consumed up front
    either way).
    """
    pages = list(outer_pages)
    if getattr(engine, "supports_columnar_blocks", False) and all(
        isinstance(page, ColumnarPage) for page in pages
    ):
        if isinstance(outer_retained, ColumnarBlock):
            retained = outer_retained.purged(partition_map, index)._segments
        elif not outer_retained:
            retained = []
        else:
            retained = None
        if retained is not None:
            return ColumnarBlock(retained + [(page, None) for page in pages])
    outer: List[VTTuple] = [
        tup
        for tup in outer_retained
        if partition_map.overlaps_partition(tup.valid, index)
    ]
    for page in pages:
        outer.extend(page)
    return outer


def _retained_overlap_count(outer_retained, partition_map, next_part: int) -> int:
    """How many retained outer tuples reach *next_part* (overflow predictor)."""
    if isinstance(outer_retained, ColumnarBlock):
        return outer_retained.count_overlapping(partition_map, next_part)
    return sum(
        1
        for tup in outer_retained
        if partition_map.overlaps_partition(tup.valid, next_part)
    )


def _split_blocks(outer: List[VTTuple], block_tuples: int) -> List[List[VTTuple]]:
    """Split the outer partition into buffer-sized blocks (usually one)."""
    if len(outer) <= block_tuples:
        return [outer]
    return [outer[i : i + block_tuples] for i in range(0, len(outer), block_tuples)]


def _charge_spill(
    overflow_blocks: List[List[VTTuple]],
    layout: DiskLayout,
    spec,
    index: int,
) -> None:
    """Charge the write and read-back of spilled overflow blocks.

    The tuples themselves stay in Python memory (the simulation is of cost,
    not capacity); what matters is that the overflow pays a round trip to
    the TEMP device, which this spill file records.
    """
    n_tuples = sum(len(block) for block in overflow_blocks)
    spill = layout.temp_file(f"overflow_spill_{index}", capacity_tuples=n_tuples)
    for block in overflow_blocks:
        spill.append_many(block)
    spill.flush()
    for _ in spill.scan_pages():
        pass


def _build_index(block: Sequence[VTTuple]) -> Dict[Tuple, List[VTTuple]]:
    """Hash the outer block on the explicit join attributes."""
    probe_index: Dict[Tuple, List[VTTuple]] = {}
    for tup in block:
        probe_index.setdefault(tup.key, []).append(tup)
    return probe_index


class _ProbeEngine:
    """Strategy for the per-page compute of the sweep.

    An engine builds an index over the outer block and, per inner page,
    produces the emitted matches (in (inner row, outer insertion order)
    order) and the rows to migrate into the next cache (in page order).
    Both engines are pure in-memory compute: all I/O stays in the caller,
    so the charged statistics cannot depend on the engine.
    """

    def build_index(self, block: Sequence[VTTuple]):
        raise NotImplementedError

    def process_page(
        self,
        index_obj,
        page: Sequence[VTTuple],
        part_index: int,
        next_index: Optional[int],
        want_migration: bool,
    ) -> Tuple[List[Tuple[VTTuple, VTTuple, Interval]], List[int]]:
        raise NotImplementedError


class _TupleEngine(_ProbeEngine):
    """The paper-faithful tuple-at-a-time loops (the correctness oracle)."""

    def __init__(self, partition_map: PartitionMap, direction: str) -> None:
        self._map = partition_map
        self._backward = direction == "backward"

    def build_index(self, block: Sequence[VTTuple]) -> Dict[Tuple, List[VTTuple]]:
        return _build_index(block)

    def process_page(self, index_obj, page, part_index, next_index, want_migration):
        partition_map = self._map
        matches: List[Tuple[VTTuple, VTTuple, Interval]] = []
        for inner_tup in page:
            for outer_tup in index_obj.get(inner_tup.key, ()):
                common = outer_tup.valid.intersect(inner_tup.valid)
                if common is None:
                    continue
                # Exactly-once rule: the pair belongs to the first partition
                # of the sweep where both tuples co-reside -- the partition
                # holding the overlap's end chronon (backward sweep) or its
                # start chronon (forward sweep).
                owner_chronon = common.end if self._backward else common.start
                if partition_map.index_of_chronon(owner_chronon) != part_index:
                    continue
                matches.append((outer_tup, inner_tup, common))
        migrate_rows: List[int] = []
        if want_migration and next_index is not None:
            migrate_rows = [
                row
                for row, inner_tup in enumerate(page)
                if partition_map.overlaps_partition(inner_tup.valid, next_index)
            ]
        return matches, migrate_rows


class _BatchEngine(_ProbeEngine):
    """The batch kernels: one columnar decomposition per page, whole-column
    probe / intersection / owner-filter / migration operations."""

    def __init__(
        self, partition_map: PartitionMap, direction: str, kernels=None, interner=None
    ) -> None:
        from repro.exec.batch import CodeTranslator
        from repro.exec.kernels import get_kernels

        self._kernels = kernels if kernels is not None else get_kernels()
        self._boundaries = self._kernels.prepare_boundaries(partition_map)
        self._interner = interner if interner is not None else self._kernels.make_interner()
        self._translator = (
            CodeTranslator(self._interner) if self._kernels.use_numpy else None
        )
        self._direction = direction

    def build_index(self, block: Sequence[VTTuple]):
        return self._kernels.build_probe_index(block, self._interner)

    def process_page(self, index_obj, page, part_index, next_index, want_migration):
        kernels = self._kernels
        batch = kernels.page_batch(page, self._interner, translator=self._translator)
        matches = kernels.probe(
            index_obj, batch, self._boundaries, part_index, self._direction
        )
        migrate_rows: List[int] = []
        if want_migration and next_index is not None:
            migrate_rows = kernels.migration_rows(batch, self._boundaries, next_index)
        return matches, migrate_rows


def _probe_pages(
    pages,
    engine: _ProbeEngine,
    probe_index,
    index: int,
    next_index: Optional[int],
    new_cache: Optional["_TupleCache"],
    result_file: HeapFile,
    collected: Optional[ValidTimeRelation],
    outcome: JoinOutcome,
    layout: DiskLayout,
    pair_fn: PairFn,
) -> Tuple[int, int, int, int]:
    """Join every page of the *pages* stream against the outer block.

    When *new_cache* is given, tuples overlapping the sweep's next
    partition are migrated into it as their page passes through memory
    (Figure 9's ``newCachePage`` handling).  The engine decides *how* the
    page is matched and filtered; emission and migration I/O happen here,
    identically for every engine.

    Returns ``(pages, rows, emitted, migrated)`` counts for the probe span
    -- derived from work already done, never changing what is done.
    """
    n_pages = n_rows = n_emitted = n_migrated = 0
    for page in pages:
        n_pages += 1
        n_rows += len(page)
        matches, migrate_rows = engine.process_page(
            probe_index, page, index, next_index, new_cache is not None
        )
        for outer_tup, inner_tup, common in matches:
            joined = pair_fn(outer_tup, inner_tup, common)
            if joined is None:
                continue
            outcome.n_result_tuples += 1
            n_emitted += 1
            layout.write_result(result_file, joined)
            if collected is not None:
                collected.add(joined)
        if new_cache is not None:
            for row in migrate_rows:
                new_cache.append(page[row])
            n_migrated += len(migrate_rows)
    return n_pages, n_rows, n_emitted, n_migrated
