"""``partitionJoin`` (Figure 2): the top-level valid-time partition join.

Wires the three phases together over a fresh disk layout:

1. ``determinePartIntervals`` -- sample the outer relation and choose the
   cost-minimizing partitioning (phase ``"sample"``).
2. ``doPartitioning`` -- Grace-partition both inputs (phase ``"partition"``).
3. ``joinPartitions`` -- the backward sweep (phase ``"join"``).

Device heads are parked between phases so sequentiality cannot leak across
phase boundaries, and per-phase I/O is recorded on the layout's
:class:`~repro.storage.iostats.PhaseTracker`, giving exactly the paper's
``C_total = C_sample + C_partition + C_join`` decomposition.
"""

from __future__ import annotations

import dataclasses
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

from repro.core.joiner import JoinOutcome, PairFn, join_partitions, natural_pair
from repro.core.partitioner import do_partitioning
from repro.core.planner import PartitionPlan, determine_part_intervals
from repro.obs import Observability, ObservabilityConfig
from repro.model.errors import (
    BufferOverflowError,
    CheckpointError,
    PermanentIOFaultError,
    PlanError,
)
from repro.model.relation import ValidTimeRelation
from repro.resilience.checkpoint import RecoveryLog, SweepCheckpointer
from repro.resilience.degrade import BufferReduction, fallback_nested_loop_join
from repro.resilience.report import ResilienceReport
from repro.resilience.retry import RetryPolicy
from repro.storage.buffer import BufferPool, JoinBufferAllocation
from repro.storage.iostats import CostModel
from repro.storage.layout import DiskLayout
from repro.storage.page import PageSpec

#: Every legal ``PartitionJoinConfig.execution`` value; all modes are
#: required to produce bit-identical results (see docs/EXECUTION.md).
EXECUTION_MODES: Tuple[str, ...] = (
    "tuple",
    "batch",
    "batch-parallel-sweep",
)

#: Modes accepted by :class:`PartitionJoinConfig`: the partition modes above
#: (bit-identical results *and* per-phase I/O) plus the forward-scan sweep
#: operator, which produces the identical result multiset and cardinality
#: but follows its own sort/join phase ledger (see docs/EXECUTION.md) -- so
#: it deliberately stays out of ``EXECUTION_MODES``.
ALL_EXECUTION_MODES: Tuple[str, ...] = EXECUTION_MODES + ("forward-sweep",)

#: The temporal predicate the partition machinery evaluates.
NATURAL_PREDICATE = "intersects"


@dataclass(frozen=True)
class PartitionJoinConfig:
    """Knobs of the partition-join evaluation.

    Attributes:
        memory_pages: total main-memory buffer pages (the Figure 3 budget:
            ``buffSize`` plus the three fixed single-page areas).
        cost_model: random/sequential I/O weights.
        page_spec: page geometry.
        seed: RNG seed for sampling (fixed for reproducible experiments).
        allow_scan_sampling: Section 4.2 sampling optimization switch.
        max_plan_candidates: planner candidate-grid size.
        collect_result: materialize the result relation in memory.
        sweep_direction: ``"backward"`` (the paper: last-partition storage,
            sweep n..1) or ``"forward"`` (footnote 1's equivalent strategy:
            first-partition storage, sweep 1..n).
        cache_buffer_pages: pages of the buffer re-purposed to keep the
            tuple cache resident -- the Section 5 future-work trade-off
            ("trading off outer relation partition space for tuple cache
            space").  Taken out of the outer-partition area; 0 reproduces
            the paper's Figure 3 allocation.
        sample_inner_relation: base the planner's tuple-cache estimate on a
            small charged sample of the inner relation instead of assuming
            the outer's temporal distribution transfers (the Section 5
            mis-estimation caveat).
        execution: how the per-tuple compute runs.  ``"tuple"`` is the
            tuple-at-a-time oracle; ``"batch"`` routes partitioning and the
            sweep through the batch kernels of :mod:`repro.exec`.  Both
            produce identical results and identical per-phase I/O
            statistics.  ``"batch-parallel-sweep"`` stores its inputs in
            the columnar page layout, routes Grace partitioning by column,
            and runs the pipelined sweep: the interval-pruned lane-parallel
            probe of :mod:`repro.exec.sweep_parallel` (pickled lanes on a
            process pool) plus partition-barrier page prefetch and
            write-behind -- still bit-identical results and counters, with
            the pipeline's I/O share tagged on the statistics; see
            ``docs/EXECUTION.md``.
            ``"forward-sweep"`` is the endpoint-sorted forward-scan sweep
            operator of :mod:`repro.exec.forward_sweep`: no sampling, no
            partitioning -- one merged scan with gapless active maps (plus
            a charged sort pass per input lacking endpoint-sorted
            metadata), the only execution evaluating non-natural
            ``predicate`` values.
        predicate: the temporal predicate to evaluate, by
            :mod:`repro.algebra.predicates` registry name.  The partition
            executions support only the natural join (``"intersects"``);
            every other predicate requires ``execution="forward-sweep"``.
        prefetch_depth: pages the sweep's prefetcher reads ahead per
            partition barrier (``"batch-parallel-sweep"`` only; 0 disables
            read-ahead while keeping write-behind).
        sweep_workers: probe lanes of the pipelined sweep (None = one per
            core, capped at 8; the result never depends on the lane count).
        lane_supervision: supervise the sweep's lane pool (heartbeats,
            crash/hang detection, deterministic re-dispatch, quarantine --
            see ``docs/RESILIENCE.md``).  Off, pool failure degrades the
            whole sweep to in-process execution as before.
        lane_timeout_seconds: wall-clock deadline per supervised lane
            dispatch; a dispatch still incomplete past it is declared hung
            and re-dispatched.
        lane_heartbeat_seconds: progress-sampling cadence of the supervisor
            (intervals without a completed lane count as heartbeat misses).
        lane_max_redispatches: consecutive failed dispatches tolerated
            before the supervisor retires to in-process execution.
        lane_quarantine_after: consecutive failures per quarantined lane
            (every Nth consecutive failure shrinks the lane count by one;
            0 disables quarantine).
        checkpoint_interval: completed partitions between sweep checkpoints;
            0 (the default) disables checkpointing, >= 1 makes the sweep
            resumable via :func:`resume_join`.
        retry_limit: override of the disk's retry bound for transient
            faults (None keeps the layout's policy).
        degraded_fallback: when a page fails permanently, re-evaluate the
            join as a block nested loop over the base relations instead of
            raising; the degradation is recorded on the resilience report.
        buffer_reductions: scheduled mid-sweep shrinks of the outer buffer
            area (:class:`~repro.resilience.degrade.BufferReduction`).
        observability: when set, the run records structured spans and
            metrics into an :class:`~repro.obs.Observability` runtime,
            returned on the result.  Strictly observational: results,
            outcome counters, and charged I/O are bit-identical with the
            knob on or off (see ``docs/OBSERVABILITY.md``).

    Every knob is validated centrally here, so a bad configuration fails at
    construction with a clear message instead of deep inside a phase.

    The dataclass is frozen, hence hashable: a config can key the service
    layer's plan and result caches (see ``docs/SERVICE.md``), and mutation
    attempts raise ``FrozenInstanceError`` -- derive variants with
    :func:`dataclasses.replace`.
    """

    memory_pages: int
    cost_model: CostModel = field(default_factory=CostModel)
    page_spec: PageSpec = field(default_factory=PageSpec)
    seed: int = 0x1CDE1994
    allow_scan_sampling: bool = True
    max_plan_candidates: int = 64
    collect_result: bool = True
    sweep_direction: str = "backward"
    cache_buffer_pages: int = 0
    sample_inner_relation: bool = False
    execution: str = "tuple"
    predicate: str = NATURAL_PREDICATE
    prefetch_depth: int = 8
    sweep_workers: Optional[int] = None
    lane_supervision: bool = True
    lane_timeout_seconds: float = 30.0
    lane_heartbeat_seconds: float = 0.5
    lane_max_redispatches: int = 3
    lane_quarantine_after: int = 2
    checkpoint_interval: int = 0
    retry_limit: Optional[int] = None
    degraded_fallback: bool = True
    buffer_reductions: Tuple[BufferReduction, ...] = ()
    observability: Optional[ObservabilityConfig] = None

    def __post_init__(self) -> None:
        min_pages = JoinBufferAllocation.FIXED_PAGES + 1
        if self.memory_pages < min_pages:
            raise BufferOverflowError(
                f"partition join needs >= {min_pages} buffer pages (buffSize "
                f"plus the {JoinBufferAllocation.FIXED_PAGES} fixed single-page "
                f"areas of Figure 3), got {self.memory_pages}"
            )
        if self.cache_buffer_pages < 0:
            raise ValueError("cache_buffer_pages must be non-negative")
        if self.memory_pages - JoinBufferAllocation.FIXED_PAGES - self.cache_buffer_pages < 1:
            raise PlanError(
                f"cache reservation of {self.cache_buffer_pages} pages leaves no "
                f"outer-partition space in a {self.memory_pages}-page buffer"
            )
        if self.execution not in ALL_EXECUTION_MODES:
            raise ValueError(
                f"execution must be one of {ALL_EXECUTION_MODES}, "
                f"got {self.execution!r}"
            )
        from repro.algebra.predicates import resolve_predicate

        resolve_predicate(self.predicate)  # raises on unknown names
        if self.predicate != NATURAL_PREDICATE and self.execution != "forward-sweep":
            raise ValueError(
                f"predicate {self.predicate!r} requires execution="
                f"'forward-sweep'; the partition modes evaluate only the "
                f"valid-time natural join ({NATURAL_PREDICATE!r})"
            )
        if self.execution == "forward-sweep":
            if self.checkpoint_interval > 0:
                raise ValueError(
                    "forward-sweep does not checkpoint (it has no partition "
                    "barriers); set checkpoint_interval=0"
                )
            if self.buffer_reductions:
                raise ValueError(
                    "forward-sweep ignores the outer buffer area; "
                    "buffer_reductions only apply to partition executions"
                )
        if not isinstance(self.prefetch_depth, int) or self.prefetch_depth < 0:
            raise ValueError(
                f"prefetch_depth must be an integer >= 0, got {self.prefetch_depth!r}"
            )
        if self.sweep_workers is not None and self.sweep_workers < 1:
            raise ValueError(
                f"sweep_workers must be >= 1 (or None for the default), "
                f"got {self.sweep_workers}"
            )
        if self.lane_timeout_seconds <= 0:
            raise ValueError(
                f"lane_timeout_seconds must be positive, "
                f"got {self.lane_timeout_seconds}"
            )
        if self.lane_heartbeat_seconds <= 0:
            raise ValueError(
                f"lane_heartbeat_seconds must be positive, "
                f"got {self.lane_heartbeat_seconds}"
            )
        if not isinstance(self.lane_max_redispatches, int) or self.lane_max_redispatches < 0:
            raise ValueError(
                f"lane_max_redispatches must be an integer >= 0, "
                f"got {self.lane_max_redispatches!r}"
            )
        if not isinstance(self.lane_quarantine_after, int) or self.lane_quarantine_after < 0:
            raise ValueError(
                f"lane_quarantine_after must be an integer >= 0 (0 disables "
                f"quarantine), got {self.lane_quarantine_after!r}"
            )
        if not isinstance(self.checkpoint_interval, int) or self.checkpoint_interval < 0:
            raise ValueError(
                f"checkpoint_interval must be an integer >= 1, or 0 to disable "
                f"checkpointing, got {self.checkpoint_interval!r}"
            )
        if self.retry_limit is not None and self.retry_limit < 0:
            raise ValueError(
                f"retry_limit must be >= 0 (or None for the layout's policy), "
                f"got {self.retry_limit}"
            )
        for reduction in self.buffer_reductions:
            if not isinstance(reduction, BufferReduction):
                raise ValueError(
                    f"buffer_reductions must hold BufferReduction objects, "
                    f"got {reduction!r}"
                )
        if self.observability is not None and not isinstance(
            self.observability, ObservabilityConfig
        ):
            raise ValueError(
                f"observability must be an ObservabilityConfig or None, "
                f"got {self.observability!r}"
            )

    @property
    def buff_size(self) -> int:
        """Outer-partition pages after the fixed areas and cache reservation."""
        return (
            self.memory_pages
            - JoinBufferAllocation.FIXED_PAGES
            - self.cache_buffer_pages
        )

    def supervision_policy(self):
        """The lane :class:`~repro.resilience.supervisor.SupervisionPolicy`
        these knobs describe, or None when supervision is off."""
        if not self.lane_supervision:
            return None
        from repro.resilience.supervisor import SupervisionPolicy

        return SupervisionPolicy(
            lane_timeout_seconds=self.lane_timeout_seconds,
            heartbeat_seconds=self.lane_heartbeat_seconds,
            max_redispatches=self.lane_max_redispatches,
            quarantine_after=self.lane_quarantine_after,
        )


@dataclass
class PartitionJoinResult:
    """Everything a partition-join run produced.

    Attributes:
        outcome: result relation and sweep observations.
        plan: the partitioning plan that was executed.
        layout: the disk layout, carrying the phase-tracked I/O statistics.
        recovery: the run's recovery log (None when checkpointing was off).
        observability: the run's :class:`~repro.obs.Observability` runtime
            (None when ``config.observability`` was unset); carries the
            trace and the metrics snapshot.
    """

    outcome: JoinOutcome
    plan: PartitionPlan
    layout: DiskLayout
    recovery: Optional[RecoveryLog] = None
    observability: Optional[Observability] = None

    @property
    def result(self) -> Optional[ValidTimeRelation]:
        return self.outcome.result

    @property
    def resilience(self) -> ResilienceReport:
        """What the resilience machinery observed and did during the run."""
        return self.layout.resilience_report

    def total_cost(self, cost_model: CostModel) -> float:
        """Weighted evaluation cost (result writes excluded, as in the paper)."""
        return self.layout.tracker.stats.cost(cost_model)


def _build_observability(
    config: PartitionJoinConfig, layout: DiskLayout
) -> Optional[Observability]:
    """The run's observability runtime, attached to the layout's disk.

    Reuses a runtime already attached to the disk (a resumed run keeps
    accumulating into the crashed run's trace and metrics).
    """
    if config.observability is None:
        return None
    existing = getattr(layout.disk, "_obs", None)
    if existing is not None:
        return existing
    obs = Observability(config.observability)
    layout.disk.attach_observer(obs)
    return obs


@contextmanager
def _phase(tracker, obs: Optional[Observability], name: str) -> Iterator[None]:
    """A tracker phase, mirrored onto the observability runtime when present."""
    with tracker.phase(name):
        if obs is not None:
            with obs.phase(name):
                yield
        else:
            yield


def partition_join(
    r: ValidTimeRelation,
    s: ValidTimeRelation,
    config: PartitionJoinConfig,
    *,
    layout: Optional[DiskLayout] = None,
    pair_fn: PairFn = natural_pair,
    recovery: Optional[RecoveryLog] = None,
    pool: Optional[BufferPool] = None,
    plan: Optional[PartitionPlan] = None,
    interner=None,
) -> PartitionJoinResult:
    """Evaluate the valid-time natural join ``r JOIN_V s`` by partitioning.

    Args:
        r: outer relation (the one sampled; the paper samples the outer).
        s: inner relation.
        config: evaluation knobs.
        layout: pass a pre-built layout to accumulate statistics across
            operations; a fresh one is created otherwise.
        recovery: recovery log for crash/resume; required to
            :func:`resume_join` later (a private one is used when omitted
            and ``config.checkpoint_interval > 0``).
        pool: buffer pool the sweep reserves its regions in.  A pool smaller
            than ``config.memory_pages`` triggers the *replan* degradation:
            the evaluation re-plans for the pool's actual size instead of
            failing.
        plan: a previously computed :class:`~repro.core.planner.PartitionPlan`
            for the *same* inputs and configuration (the service layer's plan
            cache).  The sampling phase is skipped entirely -- no sample I/O
            is charged -- and the given partitioning executes as-is.  Only
            reuse a plan when relations and ``buff_size`` are unchanged;
            results stay bit-identical because the plan fully determines the
            partitioning.  Ignored when a relation fits in the buffer (the
            single-partition shortcut never samples anyway), and discarded
            when a smaller *pool* forces a replan.
        interner: a :class:`~repro.exec.batch.KeyInterner` shared across
            repeated joins of the same relation version (the service
            layer's interner cache).  Interner ids never reach results, so
            sharing is result-identical; None builds a fresh one per run.

    Raises:
        SchemaError: if the schemas are not join-compatible.
        PlanError: if memory is too small for the Figure 3 allocation.
        PermanentIOFaultError: a page failed permanently and
            ``config.degraded_fallback`` is off.
    """
    result_schema = r.schema.join_result_schema(s.schema)
    if layout is None:
        # The lane sweep and the forward sweep store pages in the packed
        # columnar layout so the kernels probe buffer views; the layout is
        # readable by every mode and changes no charged I/O (page counts
        # are identical).
        layout = DiskLayout(
            spec=config.page_spec,
            columnar=(config.execution in ("batch-parallel-sweep", "forward-sweep")),
        )
    if config.retry_limit is not None:
        layout.disk.retry_policy = RetryPolicy(
            max_retries=config.retry_limit,
            backoff_ops=layout.disk.retry_policy.backoff_ops,
        )
    obs = _build_observability(config, layout)
    if pool is not None and pool.total_pages < config.memory_pages:
        # Graceful degradation: the memory the plan assumed is not there.
        # Re-plan for what the pool can actually grant rather than failing
        # (a too-small pool still raises, from the config validation).
        layout.resilience_report.record_degradation(
            "replan",
            f"buffer pool grants {pool.total_pages} of {config.memory_pages} "
            f"requested pages; re-planning for the smaller budget",
        )
        if obs is not None:
            obs.event(
                "degradation",
                kind="replan",
                granted_pages=pool.total_pages,
                requested_pages=config.memory_pages,
            )
            obs.count(
                "repro_degradations_total",
                "Recorded degradation events by kind.",
                kind="replan",
            )
        config = dataclasses.replace(config, memory_pages=pool.total_pages)
        plan = None  # a cached plan assumed the larger budget
    if config.checkpoint_interval > 0 and recovery is None:
        recovery = RecoveryLog()

    allocation = JoinBufferAllocation(config.memory_pages)
    # The Section 5 trade-off: pages reserved for a resident tuple cache
    # come out of the outer-partition area (validated by the config).
    buff_size = config.buff_size
    rng = random.Random(config.seed)

    r_file = layout.place_relation(r)
    s_file = layout.place_relation(s)
    tracker = layout.tracker

    if config.execution == "forward-sweep":
        return _forward_sweep_eval(
            r, s, r_file, s_file, result_schema, config, layout, pair_fn,
            recovery=recovery, pool=pool, obs=obs,
        )

    try:
        # Degenerate case: a whole relation fits in the outer-partition
        # area, so a single partition suffices -- no sampling, no Grace
        # partitioning, one linear scan of each input.  (The trivial "plan"
        # is one interval covering the inputs' joint lifespan, known from
        # catalog metadata.)
        if min(r_file.n_pages, s_file.n_pages) <= buff_size:
            return _single_partition_join(
                r,
                s,
                r_file,
                s_file,
                result_schema,
                allocation,
                config,
                layout,
                pair_fn,
                recovery=recovery,
                pool=pool,
                obs=obs,
                interner=interner,
            )

        if plan is not None and plan.buff_size != buff_size:
            plan = None  # stale cached plan: planned for a different budget
        if plan is None:
            with _phase(tracker, obs, "sample"):
                plan = determine_part_intervals(
                    buff_size,
                    r_file,
                    inner_tuples=len(s),
                    cost_model=config.cost_model,
                    rng=rng,
                    allow_scan_sampling=config.allow_scan_sampling,
                    max_candidates=config.max_plan_candidates,
                    inner=s_file if config.sample_inner_relation else None,
                )
        elif obs is not None:
            obs.event("plan-reused", num_partitions=len(plan.intervals))
        layout.disk.park_heads()
        if recovery is not None:
            recovery.plan = plan
        if obs is not None and plan.chosen is not None:
            obs.event(
                "plan",
                num_partitions=len(plan.intervals),
                part_size=plan.part_size,
                n_samples=plan.chosen.n_samples,
                c_sample=plan.chosen.c_sample,
                c_join=plan.chosen.c_join,
            )

        partition_map = plan.partition_map()
        placement = "last" if config.sweep_direction == "backward" else "first"
        with _phase(tracker, obs, "partition"):
            r_parts = do_partitioning(
                r_file,
                partition_map,
                layout,
                "r",
                config.memory_pages,
                placement=placement,
                execution=config.execution,
                obs=obs,
            )
            layout.disk.park_heads()
            s_parts = do_partitioning(
                s_file,
                partition_map,
                layout,
                "s",
                config.memory_pages,
                placement=placement,
                execution=config.execution,
                obs=obs,
            )
        layout.disk.park_heads()

        checkpointer = None
        if config.checkpoint_interval > 0:
            checkpointer = SweepCheckpointer(layout, recovery, config.checkpoint_interval)

        with _phase(tracker, obs, "join"):
            outcome = join_partitions(
                r_parts,
                s_parts,
                partition_map,
                buff_size,
                layout,
                result_schema,
                collect=config.collect_result,
                pair_fn=pair_fn,
                direction=config.sweep_direction,
                cache_memory_tuples=config.cache_buffer_pages * layout.spec.capacity,
                execution=config.execution,
                prefetch_depth=config.prefetch_depth,
                sweep_workers=config.sweep_workers,
                supervision=config.supervision_policy(),
                interner=interner,
                pool=pool,
                checkpointer=checkpointer,
                buffer_reductions=config.buffer_reductions,
                obs=obs,
            )

        return PartitionJoinResult(
            outcome=outcome, plan=plan, layout=layout, recovery=recovery,
            observability=obs,
        )
    except PermanentIOFaultError as failure:
        if not config.degraded_fallback:
            raise
        outcome = _degrade_to_nested_loop(
            r, s, buff_size, layout, result_schema, config, pair_fn, failure, obs=obs
        )
        plan = _trivial_plan(r, s, buff_size, config)
        return PartitionJoinResult(
            outcome=outcome, plan=plan, layout=layout, recovery=recovery,
            observability=obs,
        )


def _forward_sweep_eval(
    r: ValidTimeRelation,
    s: ValidTimeRelation,
    r_file,
    s_file,
    result_schema,
    config: PartitionJoinConfig,
    layout: DiskLayout,
    pair_fn: PairFn,
    *,
    recovery: Optional[RecoveryLog] = None,
    pool: Optional[BufferPool] = None,
    obs: Optional[Observability] = None,
) -> PartitionJoinResult:
    """Dispatch to the forward-scan sweep operator.

    The sweep neither samples nor partitions, so its buffer appetite is the
    planner's small fixed grant (:data:`~repro.core.planner.FORWARD_SWEEP_GRANT_PAGES`)
    rather than the Figure 3 allocation; when a pool is present only that
    much is reserved.  A permanent page failure degrades to the nested-loop
    fallback exactly like the partition path -- but only for the natural
    join, because the fallback evaluates intersection semantics; any other
    predicate re-raises.
    """
    from repro.core.planner import FORWARD_SWEEP_GRANT_PAGES
    from repro.exec.forward_sweep import forward_sweep_join

    reservation = None
    if pool is not None:
        reservation = pool.reserve(
            "forward-sweep", min(pool.total_pages, FORWARD_SWEEP_GRANT_PAGES)
        )
    try:
        outcome = forward_sweep_join(
            r_file,
            s_file,
            result_schema,
            layout,
            predicate=config.predicate,
            pair_fn=pair_fn,
            collect=config.collect_result,
            obs=obs,
        )
        plan = _trivial_plan(r, s, config.buff_size, config)
        if recovery is not None:
            recovery.plan = plan
        return PartitionJoinResult(
            outcome=outcome, plan=plan, layout=layout, recovery=recovery,
            observability=obs,
        )
    except PermanentIOFaultError as failure:
        if not config.degraded_fallback or config.predicate != NATURAL_PREDICATE:
            raise
        outcome = _degrade_to_nested_loop(
            r, s, config.buff_size, layout, result_schema, config, pair_fn,
            failure, obs=obs,
        )
        plan = _trivial_plan(r, s, config.buff_size, config)
        return PartitionJoinResult(
            outcome=outcome, plan=plan, layout=layout, recovery=recovery,
            observability=obs,
        )
    finally:
        if reservation is not None:
            reservation.release()


def resume_join(
    r: ValidTimeRelation,
    s: ValidTimeRelation,
    config: PartitionJoinConfig,
    *,
    layout: DiskLayout,
    recovery: RecoveryLog,
    pair_fn: PairFn = natural_pair,
    pool: Optional[BufferPool] = None,
) -> PartitionJoinResult:
    """Restart an interrupted partition join from its last checkpoint.

    The caller supplies the *same* relations, configuration, layout, and
    recovery log of the interrupted :func:`partition_join` call.  The sweep
    replays from the last committed checkpoint: the result and cache-spill
    files are rewound to the checkpoint's watermarks and the remaining
    partitions are joined, producing results and a
    :class:`~repro.core.joiner.JoinOutcome` bit-identical to an
    uninterrupted run.  I/O performed before the crash stays on the
    layout's statistics; resumed work accumulates on top, within the same
    ``"join"`` phase.

    A crash *before* the first committed checkpoint (during sampling,
    partitioning, or the first sweep steps) leaves nothing to replay; the
    evaluation then simply restarts from the beginning on the same layout
    and recovery log -- still producing the bit-identical result.

    Raises:
        CheckpointError: checkpointing is disabled in *config* (there can
            never be anything to resume).
    """
    if config.checkpoint_interval < 1:
        raise CheckpointError(
            f"resume requires checkpoint_interval >= 1, got {config.checkpoint_interval}"
        )
    if not recovery.resumable:
        # The run died before its sweep committed a checkpoint: recover the
        # tracker and restart the whole evaluation.
        layout.tracker.recover()
        recovery.resumes += 1
        layout.resilience_report.resumes += 1
        return partition_join(
            r, s, config, layout=layout, pair_fn=pair_fn, recovery=recovery, pool=pool
        )
    if config.retry_limit is not None:
        layout.disk.retry_policy = RetryPolicy(
            max_retries=config.retry_limit,
            backoff_ops=layout.disk.retry_policy.backoff_ops,
        )
    # A crash can leave a phase open on the tracker (the context manager
    # closes it when the exception unwinds normally, but a recovery catalog
    # cannot assume a tidy unwind).
    layout.tracker.recover()
    recovery.resumes += 1
    layout.resilience_report.resumes += 1
    obs = _build_observability(config, layout)
    if obs is not None:
        obs.event("resume", position=recovery.checkpoint.position)
        obs.count(
            "repro_resumes_total", "Sweep resumes from a committed checkpoint."
        )

    context = recovery.context
    checkpointer = SweepCheckpointer(layout, recovery, config.checkpoint_interval)
    # A single-partition run may have swapped outer/inner (the smaller
    # relation becomes the resident side) and compensated inside its own
    # pair_fn wrapper.  The context's partitions are stored in that swapped
    # orientation, so the resumed sweep needs the same compensation or every
    # replayed pair comes out payload-reversed.
    effective_pair = pair_fn
    if getattr(context, "swapped", False):
        def effective_pair(x, y, common, _pair_fn=pair_fn):
            return _pair_fn(y, x, common)
    try:
        with _phase(layout.tracker, obs, "join"):
            outcome = join_partitions(
                context.r_parts,
                context.s_parts,
                context.partition_map,
                context.buff_size,
                layout,
                context.result_schema,
                collect=context.collect,
                pair_fn=effective_pair,
                direction=context.direction,
                cache_memory_tuples=context.cache_memory_tuples,
                execution=context.execution,
                prefetch_depth=context.prefetch_depth,
                sweep_workers=context.sweep_workers,
                supervision=config.supervision_policy(),
                pool=pool,
                checkpointer=checkpointer,
                resume_from=recovery.checkpoint,
                buffer_reductions=config.buffer_reductions,
                obs=obs,
            )
        plan = recovery.plan
        if plan is None:  # a single-partition run interrupted before plan commit
            plan = _trivial_plan(r, s, context.buff_size, config)
        return PartitionJoinResult(
            outcome=outcome, plan=plan, layout=layout, recovery=recovery,
            observability=obs,
        )
    except PermanentIOFaultError as failure:
        if not config.degraded_fallback:
            raise
        outcome = _degrade_to_nested_loop(
            r, s, context.buff_size, layout, context.result_schema, config,
            pair_fn, failure, obs=obs,
        )
        plan = recovery.plan
        if plan is None:
            plan = _trivial_plan(r, s, context.buff_size, config)
        return PartitionJoinResult(
            outcome=outcome, plan=plan, layout=layout, recovery=recovery,
            observability=obs,
        )


def plan_partition_join(
    r: ValidTimeRelation,
    s: ValidTimeRelation,
    config: PartitionJoinConfig,
) -> Tuple[PartitionPlan, bool, int, int]:
    """Plan the partition join without executing it (the EXPLAIN entry point).

    Runs exactly the planning path :func:`partition_join` would -- the same
    single-partition shortcut test, the same seeded RNG, the same
    ``determinePartIntervals`` call -- on a scratch layout, so the returned
    plan is the plan the execution would choose.  The sampling I/O the
    planner charges lands on the scratch layout and is discarded; EXPLAIN
    predicts cost, it does not bill the catalog.

    Returns ``(plan, single_partition, outer_pages, inner_pages)``.
    """
    layout = DiskLayout(spec=config.page_spec)
    r_file = layout.place_relation(r)
    s_file = layout.place_relation(s)
    buff_size = config.buff_size
    if min(r_file.n_pages, s_file.n_pages) <= buff_size:
        allocation = JoinBufferAllocation(config.memory_pages)
        plan = _single_partition_plan(r, s, r_file, s_file, allocation, config)
        return plan, True, r_file.n_pages, s_file.n_pages
    rng = random.Random(config.seed)
    plan = determine_part_intervals(
        buff_size,
        r_file,
        inner_tuples=len(s),
        cost_model=config.cost_model,
        rng=rng,
        allow_scan_sampling=config.allow_scan_sampling,
        max_candidates=config.max_plan_candidates,
        inner=s_file if config.sample_inner_relation else None,
    )
    return plan, False, r_file.n_pages, s_file.n_pages


def _single_partition_plan(
    r: ValidTimeRelation,
    s: ValidTimeRelation,
    r_file,
    s_file,
    allocation: JoinBufferAllocation,
    config: PartitionJoinConfig,
) -> PartitionPlan:
    """The inline plan of the single-partition shortcut (see
    :func:`_single_partition_join`, which must build the identical plan)."""
    from repro.core.intervals import PartitionMap
    from repro.core.planner import CandidateCost
    from repro.time.interval import Interval
    from repro.time.lifespan import lifespan_of

    swap = not (r_file.n_pages <= allocation.buff_size)
    outer_file, inner_file = (s_file, r_file) if swap else (r_file, s_file)
    lifespan = lifespan_of(
        [tup.valid for tup in r.tuples] + [tup.valid for tup in s.tuples]
    )
    interval = lifespan if lifespan is not None else Interval(0, 0)
    partition_map = PartitionMap([Interval(interval.start, interval.end)])
    return PartitionPlan(
        intervals=list(partition_map.intervals),
        part_size=max(1, outer_file.n_pages),
        buff_size=allocation.buff_size,
        chosen=CandidateCost(
            part_size=outer_file.n_pages,
            error_size=allocation.buff_size - outer_file.n_pages,
            n_samples=0,
            num_partitions=1,
            c_sample=0.0,
            c_join_scan=float(
                2 * config.cost_model.io_ran
                + max(0, outer_file.n_pages + inner_file.n_pages - 2)
                * config.cost_model.io_seq
            ),
            c_join_cache=0.0,
        ),
    )


def _degrade_to_nested_loop(
    r: ValidTimeRelation,
    s: ValidTimeRelation,
    buff_size: int,
    layout: DiskLayout,
    result_schema,
    config: PartitionJoinConfig,
    pair_fn: PairFn,
    failure: PermanentIOFaultError,
    obs: Optional[Observability] = None,
) -> JoinOutcome:
    """The permanent-failure fallback: block nested loop over fresh bases.

    A permanently unreadable page means some file of the planned evaluation
    cannot be trusted; re-placing the base relations and nested-looping over
    them sidesteps every temporary file.  The fallback emits the same result
    *set* as the sweep in a different order -- callers comparing materialized
    results sort first (the sweep's emission order is a partition-ownership
    artifact, not part of the join's contract).
    """
    layout.tracker.recover()
    layout.resilience_report.record_degradation(
        "nested-loop-fallback",
        f"permanent page failure ({failure}); re-evaluating as a block "
        f"nested-loop join",
    )
    if obs is not None:
        obs.event("degradation", kind="nested-loop-fallback", failure=str(failure))
        obs.count(
            "repro_degradations_total",
            "Recorded degradation events by kind.",
            kind="nested-loop-fallback",
        )
        # fallback_nested_loop_join opens its own "degraded-join" tracker
        # phase; mirror the label for the metrics attribution.
        with obs.phase("degraded-join"):
            return fallback_nested_loop_join(
                r,
                s,
                buff_size,
                layout,
                result_schema,
                collect=config.collect_result,
                pair_fn=pair_fn,
            )
    return fallback_nested_loop_join(
        r,
        s,
        buff_size,
        layout,
        result_schema,
        collect=config.collect_result,
        pair_fn=pair_fn,
    )


def _trivial_plan(
    r: ValidTimeRelation,
    s: ValidTimeRelation,
    buff_size: int,
    config: PartitionJoinConfig,
) -> PartitionPlan:
    """A one-interval plan standing in when no real plan was executed."""
    from repro.core.intervals import PartitionMap
    from repro.time.interval import Interval
    from repro.time.lifespan import lifespan_of

    lifespan = lifespan_of(
        [tup.valid for tup in r.tuples] + [tup.valid for tup in s.tuples]
    )
    interval = lifespan if lifespan is not None else Interval(0, 0)
    return PartitionPlan(
        intervals=[Interval(interval.start, interval.end)],
        part_size=max(1, buff_size),
        buff_size=max(1, buff_size),
        chosen=None,
    )


def _single_partition_join(
    r: ValidTimeRelation,
    s: ValidTimeRelation,
    r_file,
    s_file,
    result_schema,
    allocation: JoinBufferAllocation,
    config: PartitionJoinConfig,
    layout: DiskLayout,
    pair_fn: PairFn,
    *,
    recovery: Optional[RecoveryLog] = None,
    pool: Optional[BufferPool] = None,
    obs: Optional[Observability] = None,
    interner=None,
) -> PartitionJoinResult:
    """One-partition evaluation when a relation fits in the buffer.

    The smaller relation becomes the single in-memory "partition"; the other
    streams through the inner page.  Sampling and partitioning cost nothing,
    matching what any real system does when the memory budget swallows an
    input.
    """
    from repro.core.intervals import PartitionMap

    swap = not (r_file.n_pages <= allocation.buff_size)
    outer_file, inner_file = (s_file, r_file) if swap else (r_file, s_file)

    def oriented_pair(x, y, common):
        return pair_fn(y, x, common) if swap else pair_fn(x, y, common)

    plan = _single_partition_plan(r, s, r_file, s_file, allocation, config)
    partition_map = PartitionMap(list(plan.intervals))

    checkpointer = None
    if config.checkpoint_interval > 0 and recovery is not None:
        checkpointer = SweepCheckpointer(layout, recovery, config.checkpoint_interval)

    with _phase(layout.tracker, obs, "join"):
        outcome = join_partitions(
            [outer_file],
            [inner_file],
            partition_map,
            allocation.buff_size,
            layout,
            result_schema,
            collect=config.collect_result,
            pair_fn=oriented_pair,
            execution=config.execution,
            prefetch_depth=config.prefetch_depth,
            sweep_workers=config.sweep_workers,
            supervision=config.supervision_policy(),
            interner=interner,
            pool=pool,
            checkpointer=checkpointer,
            buffer_reductions=config.buffer_reductions,
            swapped_inputs=swap,
            obs=obs,
        )
    if recovery is not None:
        recovery.plan = plan
    return PartitionJoinResult(
        outcome=outcome, plan=plan, layout=layout, recovery=recovery,
        observability=obs,
    )
