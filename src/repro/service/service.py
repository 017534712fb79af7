""":class:`QueryService`: the concurrent multi-session query engine.

One service owns a :class:`~repro.engine.catalog.VersionedCatalog`, a
shared memory budget under an
:class:`~repro.service.admission.AdmissionController`, the epoch-keyed
plan/result caches, and a bounded worker-thread
:class:`~repro.service.executor.QueryExecutor`.  The query path:

1. take a catalog snapshot (snapshot isolation: writers never affect it);
2. consult the result cache -- a hit replays the stored relation and
   :class:`~repro.core.joiner.JoinOutcome` with **zero charged I/O**;
3. ask admission for the planner-estimated memory grant (queue, degrade,
   or time out under pressure);
4. consult the plan cache -- a hit skips the sampling phase entirely;
5. evaluate on a private :class:`~repro.storage.buffer.BufferPool` sized
   to the grant (a smaller grant rides the PR-2 replan ladder);
6. populate the caches, release the grant, record ``repro_service_*``
   metrics.

Every query's result is bit-identical to a serial replay of the same
statements at the same snapshot epochs (property-tested in
``tests/service/test_service_property.py``, all four execution modes).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.baselines.nested_loop import nested_loop_join
from repro.baselines.sort_merge import sort_merge_join
from repro.core.joiner import JoinOutcome
from repro.algebra.predicates import NATURAL_PREDICATE, resolve_predicate
from repro.core.partition_join import (
    ALL_EXECUTION_MODES,
    PartitionJoinConfig,
    partition_join,
)
from repro.core.planner import estimate_grant_pages
from repro.engine.catalog import (
    CatalogSnapshot,
    RelationStatistics,
    VersionedCatalog,
    analyze,
)
from repro.engine.optimizer import choose_algorithm
from repro.model.errors import (
    AdmissionTimeoutError,
    QueryCancelledError,
    QueryDeadlineError,
    ServiceError,
)
from repro.model.relation import ValidTimeRelation
from repro.obs import Observability, ObservabilityConfig
from repro.service.admission import AdmissionController
from repro.service.breaker import LaneCircuitBreaker
from repro.service.cache import CachedJoin, InternerCache, PlanCache, ResultCache
from repro.service.executor import QueryExecutor, QueryHandle
from repro.service.session import (
    JOIN_METHODS,
    Rows,
    Session,
    SessionConfig,
    coerce_rows,
    resolve_session_config,
)
from repro.storage.buffer import BufferPool
from repro.storage.iostats import CostModel
from repro.storage.page import PageSpec

#: Queue-wait histogram bounds, in seconds.
QUEUE_WAIT_BUCKETS = (0.0005, 0.002, 0.01, 0.05, 0.2, 1.0, 5.0, 30.0)

@dataclass(frozen=True)
class ServiceQueryResult:
    """One served query: the result plus its full serving pedigree.

    Attributes:
        relation: the join result.
        outcome: the producing run's outcome counters (shared verbatim on a
            cache hit, which is what makes hits bit-identical).
        algorithm: algorithm that produced the result.
        cost: weighted I/O cost *this* serving charged (0.0 on a cache hit).
        charged_ops: charged I/O operations of this serving (0 on a hit).
        outer / inner: input relation names.
        epochs: ``(outer_epoch, inner_epoch)`` relation-version epochs the
            query saw -- the serial-replay coordinates.
        snapshot_epoch: global catalog epoch of the snapshot.
        result_cache_hit / plan_cache_hit: which caches served.
        requested_pages / granted_pages: the admission ask and grant
            (both 0 on a result-cache hit: no memory was needed).
        degraded: admission granted fewer pages than it tried to satisfy
            (pressure outlasted ``degrade_after``); the grant size is
            nondeterministic, so such a run never populates the result
            cache.
        clamped: the ask exceeded the whole pool and was cut to capacity
            before queueing (deterministic, unlike a degraded grant).
        queue_wait_seconds: time spent queued for admission.
        session_id / query_id: who asked.
    """

    relation: Optional[ValidTimeRelation]
    outcome: JoinOutcome
    algorithm: str
    cost: float
    charged_ops: int
    outer: str
    inner: str
    epochs: Tuple[int, int]
    snapshot_epoch: int
    result_cache_hit: bool = False
    plan_cache_hit: bool = False
    requested_pages: int = 0
    granted_pages: int = 0
    degraded: bool = False
    clamped: bool = False
    queue_wait_seconds: float = 0.0
    session_id: int = 0
    query_id: int = 0


class QueryService:
    """Concurrent query serving over a versioned catalog.

    Args:
        catalog: the versioned catalog to serve (shared with writers).
        pool_pages: the shared buffer budget admission control arbitrates.
        memory_pages: default per-query memory ask (defaults to
            ``pool_pages``: a lone session gets the whole pool).
        workers: executor worker threads.
        queue_limit: bounded run-queue length.
        admission_policy: ``"fifo"`` or ``"smallest"``.
        admission_timeout: default seconds a query may queue for memory.
        degrade_after: seconds of queueing after which a smaller grant is
            accepted (None: queue until timeout).
        plan_cache_entries / result_cache_entries: cache capacities
            (0 disables the respective cache).
        execution: default partition-join execution mode.
        cost_model / page_spec: the served cost environment.
        observability: optional tracing config; metrics are always on.
        max_sessions: open-session cap.
        lane_failure_threshold: lane-disturbed runs within
            ``lane_failure_window`` seconds that trip the lane circuit
            breaker to serial execution (see
            :class:`~repro.service.breaker.LaneCircuitBreaker`).
        lane_failure_window: the breaker's sliding failure window, seconds.
        lane_breaker_cooldown: seconds an open breaker waits before
            admitting a half-open probe query back onto lanes.
    """

    def __init__(
        self,
        catalog: VersionedCatalog,
        *,
        pool_pages: int = 64,
        memory_pages: Optional[int] = None,
        workers: int = 4,
        queue_limit: int = 256,
        admission_policy: str = "fifo",
        admission_timeout: float = 30.0,
        degrade_after: Optional[float] = None,
        plan_cache_entries: int = 256,
        result_cache_entries: int = 256,
        execution: str = "tuple",
        cost_model: Optional[CostModel] = None,
        page_spec: Optional[PageSpec] = None,
        observability: Optional[ObservabilityConfig] = None,
        max_sessions: int = 64,
        lane_failure_threshold: int = 3,
        lane_failure_window: float = 60.0,
        lane_breaker_cooldown: float = 30.0,
    ) -> None:
        if execution not in ALL_EXECUTION_MODES:
            raise ServiceError(
                f"execution must be one of {ALL_EXECUTION_MODES}, got {execution!r}"
            )
        if max_sessions < 1:
            raise ServiceError(f"max_sessions must be >= 1, got {max_sessions}")
        self.catalog = catalog
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.page_spec = page_spec if page_spec is not None else PageSpec()
        self.execution = execution
        self.default_memory_pages = (
            memory_pages if memory_pages is not None else pool_pages
        )
        if self.default_memory_pages < 4:
            raise ServiceError(
                f"memory_pages must be >= 4 (the Figure 3 minimum), "
                f"got {self.default_memory_pages}"
            )
        self.admission = AdmissionController(
            pool_pages,
            policy=admission_policy,
            default_timeout=admission_timeout,
            degrade_after=degrade_after,
        )
        self.executor = QueryExecutor(workers=workers, queue_limit=queue_limit)
        self.lane_breaker = LaneCircuitBreaker(
            threshold=lane_failure_threshold,
            window_seconds=lane_failure_window,
            cooldown_seconds=lane_breaker_cooldown,
        )
        self.plan_cache = PlanCache(plan_cache_entries) if plan_cache_entries else None
        self.result_cache = (
            ResultCache(result_cache_entries) if result_cache_entries else None
        )
        # Per-relation-version key interners for the batch kernels: epoch
        # keyed like the plan cache, so repeated joins of an unchanged
        # relation stop re-interning its keys from scratch.  Sized with the
        # plan cache (0 disables both).
        self.interner_cache = (
            InternerCache(max(1, plan_cache_entries // 4))
            if plan_cache_entries
            else None
        )
        self.max_sessions = max_sessions
        self.obs = Observability(
            observability
            if observability is not None
            else ObservabilityConfig(tracing=False)
        )
        # Exact-count metrics under concurrency need a lock: Counter.inc is
        # a read-modify-write, and the tests assert exact totals.
        self._metrics_lock = threading.Lock()
        self._sessions_lock = threading.Lock()
        self._sessions: Dict[int, Session] = {}
        self._session_ids = 0
        self._stats_lock = threading.Lock()
        self._stats_cache: Dict[Tuple[str, int], RelationStatistics] = {}
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut the executor down and close every open session.

        Queued queries are cancelled outright; in-flight queries get a
        cancel request too, which aborts an admission wait promptly and is
        honored at the query's next cancellation point.  A query already
        deep inside a join kernel has no further cancellation points and
        runs to completion (bounded by the executor's join timeout).
        """
        if self._closed:
            return
        self._closed = True
        self.executor.shutdown(wait=True, cancel_queued=True, cancel_running=True)
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            session.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # -- sessions ------------------------------------------------------------

    def open_session(self, config: Optional[SessionConfig] = None, **overrides) -> Session:
        """Open a session (``config`` or keyword overrides; see
        :class:`~repro.service.session.SessionConfig`)."""
        if self._closed:
            raise ServiceError("service is closed")
        config = resolve_session_config(config, overrides)
        with self._sessions_lock:
            if len(self._sessions) >= self.max_sessions:
                raise ServiceError(
                    f"session limit of {self.max_sessions} reached"
                )
            self._session_ids += 1
            session = Session(self, self._session_ids, config)
            self._sessions[session.session_id] = session
        self._count("repro_service_sessions_total", "Sessions ever opened.")
        self._set_active_sessions()
        return session

    def _session_closed(self, session: Session) -> None:
        with self._sessions_lock:
            self._sessions.pop(session.session_id, None)
        self._set_active_sessions()

    @property
    def active_sessions(self) -> int:
        with self._sessions_lock:
            return len(self._sessions)

    def _set_active_sessions(self) -> None:
        with self._metrics_lock:
            self.obs.gauge(
                "repro_service_active_sessions",
                self.active_sessions,
                "Currently open sessions.",
            )

    # -- writes --------------------------------------------------------------

    def _append(self, session: Session, name: str, rows: Rows) -> int:
        version = self.catalog.current(name)
        tuples = coerce_rows(version.schema, rows)
        new_version = self.catalog.append(name, tuples)
        self._on_mutation(name, "append")
        return new_version.epoch

    def _delete(self, session: Session, name: str, rows: Rows) -> int:
        version = self.catalog.current(name)
        tuples = coerce_rows(version.schema, rows)
        new_version = self.catalog.delete(name, tuples)
        self._on_mutation(name, "delete")
        return new_version.epoch

    def _on_mutation(self, name: str, kind: str) -> None:
        dropped = 0
        for cache in (self.plan_cache, self.result_cache, self.interner_cache):
            if cache is not None:
                count = cache.invalidate_relation(name)
                dropped += count
                if count:
                    self._count(
                        "repro_service_cache_invalidations_total",
                        "Cache entries evicted by relation mutations.",
                        amount=count,
                        cache=cache.name,
                    )
        self._count(
            "repro_service_writes_total",
            "Catalog mutations served.",
            kind=kind,
        )

    # -- queries -------------------------------------------------------------

    def _submit_join(
        self,
        session: Session,
        outer: str,
        inner: str,
        *,
        method: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> QueryHandle:
        if self._closed:
            raise ServiceError("service is closed")
        effective_method = method if method is not None else session.config.method
        if effective_method not in JOIN_METHODS:
            raise ServiceError(
                f"method must be one of {JOIN_METHODS}, got {effective_method!r}"
            )
        predicate = self._session_predicate(session)
        if predicate != NATURAL_PREDICATE and effective_method not in ("auto", "sweep"):
            raise ServiceError(
                f"predicate {predicate!r} requires method 'sweep' (or 'auto'); "
                f"the {effective_method!r} algorithm evaluates only the "
                f"natural join's {NATURAL_PREDICATE!r}"
            )
        label = f"s{session.session_id}:{outer}x{inner}"
        handle = self.executor.submit(
            lambda h: self._run_join(session, outer, inner, effective_method, timeout, h),
            label=label,
            deadline_seconds=session.config.deadline_seconds,
        )
        self._gauge_queue_depth()
        return handle

    def _run_join(
        self,
        session: Session,
        outer: str,
        inner: str,
        method: str,
        timeout: Optional[float],
        handle: QueryHandle,
    ) -> ServiceQueryResult:
        self._gauge_queue_depth()
        try:
            with self.obs.span(
                "service:query", outer=outer, inner=inner, session=session.session_id
            ):
                handle.check_cancelled()
                snapshot = self.catalog.snapshot()
                config = self._query_config(session)
                predicate = self._session_predicate(session)
                # Resolve "auto" before dispatch so every status of
                # repro_service_queries_total carries the same method label.
                if method == "auto":
                    method = self._choose_method(
                        snapshot, outer, inner, config, predicate=predicate
                    )
                # A session-level forward-sweep execution forces the sweep
                # operator regardless of the cost model's pick.
                if config.execution == "forward-sweep" and method == "partition":
                    method = "sweep"
                if method == "sweep":
                    config = dataclasses.replace(
                        config, execution="forward-sweep", predicate=predicate
                    )
                return self._run_join_inner(
                    session, snapshot, outer, inner, method, config, timeout, handle
                )
        except QueryCancelledError:
            self._count_query("cancelled", method)
            raise
        except QueryDeadlineError:
            self._count_query("deadline", method)
            with self._metrics_lock:
                self.obs.count(
                    "repro_service_deadline_exceeded_total",
                    "Queries that blew their whole-query deadline budget.",
                )
            raise
        except AdmissionTimeoutError:
            self._count_query("admission_timeout", method)
            with self._metrics_lock:
                self.obs.count(
                    "repro_service_admission_timeouts_total",
                    "Queries that timed out waiting for a memory grant.",
                )
            raise
        except Exception:
            self._count_query("error", method)
            raise

    def _run_join_inner(
        self,
        session: Session,
        snapshot: CatalogSnapshot,
        outer: str,
        inner: str,
        method: str,
        config: PartitionJoinConfig,
        timeout: Optional[float],
        handle: QueryHandle,
    ) -> ServiceQueryResult:
        r_version = snapshot.version(outer)
        s_version = snapshot.version(inner)
        epochs = (r_version.epoch, s_version.epoch)

        # 1. Result cache: a hit charges nothing at all.
        if self.result_cache is not None and session.config.use_result_cache:
            cached = self.result_cache.lookup(outer, inner, epochs, method, config)
            if cached is not None:
                self._count(
                    "repro_service_result_cache_hits",
                    "Queries served entirely from the result cache.",
                )
                self._count_query("ok", method)
                return ServiceQueryResult(
                    relation=cached.relation,
                    outcome=cached.outcome,
                    algorithm=cached.algorithm,
                    cost=0.0,
                    charged_ops=0,
                    outer=outer,
                    inner=inner,
                    epochs=epochs,
                    snapshot_epoch=snapshot.epoch,
                    result_cache_hit=True,
                    session_id=session.session_id,
                    query_id=handle.query_id,
                )
            self._count(
                "repro_service_result_cache_misses",
                "Queries that had to be evaluated.",
            )

        # 2. Admission: the planner bounds the useful ask.
        outer_pages = self._statistics(r_version).n_pages
        inner_pages = self._statistics(s_version).n_pages
        if method in ("partition", "sweep"):
            request = estimate_grant_pages(
                outer_pages,
                inner_pages,
                config.memory_pages,
                execution=config.execution,
            )
        else:
            request = config.memory_pages
        admission_timeout = (
            timeout
            if timeout is not None
            else session.config.admission_timeout
        )
        handle.check_cancelled()
        handle.check_deadline()
        # The deadline budget covers admission wait too: cap the admission
        # timeout to whatever budget remains, and report an admission wait
        # cut short *by the deadline* as a deadline miss, not a timeout.
        remaining = handle.remaining_seconds()
        deadline_bound = remaining is not None and (
            admission_timeout is None or remaining < admission_timeout
        )
        if deadline_bound:
            admission_timeout = remaining
        try:
            grant = self.admission.acquire(
                request,
                label=handle.label or f"s{session.session_id}",
                timeout=admission_timeout,
                cancelled=handle.cancel_event,
                owner=f"s{session.session_id}",
            )
        except AdmissionTimeoutError as error:
            if deadline_bound:
                raise QueryDeadlineError(
                    f"query {handle.query_id} ({handle.label or 'unlabeled'}) "
                    f"exceeded its deadline budget waiting for admission",
                    deadline_seconds=handle.deadline_seconds,
                ) from error
            raise
        self._observe_queue_wait(grant.queue_wait_seconds)
        self._gauge_pool()
        try:
            handle.check_cancelled()
            handle.check_deadline()
            result = self._evaluate(
                outer, inner, r_version.relation, s_version.relation,
                method, config, grant.pages, epochs, session,
                degraded=grant.degraded,
            )
        finally:
            grant.release()
            self._gauge_pool()
        self._count_query("ok", method)
        return dataclasses.replace(
            result,
            snapshot_epoch=snapshot.epoch,
            requested_pages=request,
            granted_pages=grant.pages,
            degraded=grant.degraded,
            clamped=grant.clamped,
            queue_wait_seconds=grant.queue_wait_seconds,
            session_id=session.session_id,
            query_id=handle.query_id,
        )

    def _evaluate(
        self,
        outer: str,
        inner: str,
        r: ValidTimeRelation,
        s: ValidTimeRelation,
        method: str,
        config: PartitionJoinConfig,
        granted_pages: int,
        epochs: Tuple[int, int],
        session: Session,
        *,
        degraded: bool = False,
    ) -> ServiceQueryResult:
        plan_cache_hit = False
        lane_disturbed = False
        use_lanes = False
        if method == "partition":
            pool = BufferPool(granted_pages)
            plan = None
            full_grant = granted_pages >= config.memory_pages or (
                # estimate_grant_pages may shrink the ask below memory_pages
                # without any degradation: the planner proved the extra
                # pages useless, so the plan is the full-budget plan...
                granted_pages
                >= estimate_grant_pages(
                    self.page_spec.pages_for_tuples(len(r)),
                    self.page_spec.pages_for_tuples(len(s)),
                    config.memory_pages,
                    execution=config.execution,
                )
            )
            # ...but a cached plan must key on the *effective* budget, so a
            # clamped grant uses a config replanned for what it actually got.
            effective_config = (
                config
                if granted_pages >= config.memory_pages
                else dataclasses.replace(config, memory_pages=granted_pages)
            )
            if config.execution == "batch-parallel-sweep":
                # The lane circuit breaker decides pooled-vs-serial BEFORE
                # the plan-cache lookup: a serial run plans identically (the
                # plan never depends on lane count) but must not spawn the
                # pools an open breaker exists to avoid.  Results are
                # bit-identical either way, so this is purely a latency
                # trade and the cache keys stay on the original config.
                use_lanes = self.lane_breaker.admit()
                if not use_lanes:
                    effective_config = dataclasses.replace(
                        effective_config,
                        sweep_workers=1,
                        lane_supervision=False,
                    )
                    self._count(
                        "repro_service_breaker_serial_total",
                        "Queries forced to serial execution by the lane breaker.",
                    )
            use_plan_cache = (
                self.plan_cache is not None
                and session.config.use_plan_cache
                and full_grant
            )
            if use_plan_cache:
                plan = self.plan_cache.lookup(outer, inner, epochs, effective_config)
                if plan is not None:
                    plan_cache_hit = True
                    self._count(
                        "repro_service_plan_cache_hits",
                        "Partition joins that skipped sampling via a cached plan.",
                    )
                else:
                    self._count(
                        "repro_service_plan_cache_misses",
                        "Partition joins that had to sample a plan.",
                    )
            interner = None
            if self.interner_cache is not None and effective_config.execution != "tuple":
                from repro.exec.backend import backend_name

                # Epoch-keyed, so repeated joins of the same relation
                # version skip the per-join interner rebuild.  Ids never
                # reach results; see InternerCache.
                interner = self.interner_cache.lookup_or_create(
                    outer, epochs[0], backend_name()
                )
            run = partition_join(
                r, s, effective_config, pool=pool, plan=plan, interner=interner
            )
            if use_plan_cache and not plan_cache_hit:
                self.plan_cache.store(
                    outer, inner, epochs, effective_config, run.plan
                )
            lane_disturbed = any(
                event.kind.startswith("lane-")
                for event in run.resilience.degradations
            )
            if config.execution == "batch-parallel-sweep":
                self.lane_breaker.record(use_lanes, lane_disturbed)
                self._gauge_breaker()
                if lane_disturbed:
                    self._count(
                        "repro_service_lane_disturbed_total",
                        "Queries whose run recovered from lane failures.",
                    )
            outcome = run.outcome
            relation = run.outcome.result
            cost = run.total_cost(self.cost_model)
            charged_ops = run.layout.tracker.stats.total_ops
            algorithm = "partition"
        elif method == "sweep":
            # The forward sweep neither samples a plan nor interns keys:
            # the plan cache and interner cache have nothing to offer, and
            # the lane breaker never engages (no worker lanes).  The config
            # already carries execution="forward-sweep" and the predicate
            # (set by _run_join), so the result-cache key -- which includes
            # the config -- distinguishes predicates.
            pool = BufferPool(granted_pages)
            run = partition_join(r, s, config, pool=pool)
            outcome = run.outcome
            relation = run.outcome.result
            cost = run.total_cost(self.cost_model)
            charged_ops = run.layout.tracker.stats.total_ops
            algorithm = "forward-sweep"
        elif method in ("sort_merge", "nested_loop"):
            runner = sort_merge_join if method == "sort_merge" else nested_loop_join
            run = runner(r, s, granted_pages, page_spec=self.page_spec)
            relation = run.result
            outcome = JoinOutcome(result=relation, n_result_tuples=run.n_result_tuples)
            cost = run.layout.tracker.stats.cost(self.cost_model)
            charged_ops = run.layout.tracker.stats.total_ops
            algorithm = method
        else:  # pragma: no cover -- validated upstream
            raise ServiceError(f"unknown join method {method!r}")

        # A degraded grant ran with a nondeterministic, pressure-dependent
        # budget: its outcome counters (and potentially tuple order) are not
        # the full-budget answer, so storing it under the full-budget config
        # key would break bit-identity for later full-grant hits.  Mirror
        # the plan cache's full_grant guard and skip the store.  A
        # lane-disturbed run is likewise kept out: its *answer* is provably
        # identical (re-dispatch determinism), but caching it would hide the
        # disturbance from every later serving of the same query -- repeat
        # queries must re-observe lane health, and chaos tests must compare
        # recomputations, not a memo of the disturbed run.
        if (
            self.result_cache is not None
            and session.config.use_result_cache
            and not degraded
            and not lane_disturbed
            and relation is not None
        ):
            self.result_cache.store(
                outer,
                inner,
                epochs,
                method,
                config,
                CachedJoin(
                    relation=relation,
                    outcome=outcome,
                    algorithm=algorithm,
                    cost=cost,
                    charged_ops=charged_ops,
                    epochs=epochs,
                ),
            )
        return ServiceQueryResult(
            relation=relation,
            outcome=outcome,
            algorithm=algorithm,
            cost=cost,
            charged_ops=charged_ops,
            outer=outer,
            inner=inner,
            epochs=epochs,
            snapshot_epoch=0,  # filled by the caller
            plan_cache_hit=plan_cache_hit,
        )

    # -- planning helpers ----------------------------------------------------

    def _query_config(self, session: Session) -> PartitionJoinConfig:
        memory = (
            session.config.memory_pages
            if session.config.memory_pages is not None
            else self.default_memory_pages
        )
        execution = (
            session.config.execution
            if session.config.execution is not None
            else self.execution
        )
        return PartitionJoinConfig(
            memory_pages=memory,
            cost_model=self.cost_model,
            page_spec=self.page_spec,
            execution=execution,
        )

    def _statistics(self, version) -> RelationStatistics:
        key = (version.name, version.epoch)
        with self._stats_lock:
            stats = self._stats_cache.get(key)
        if stats is None:
            stats = analyze(version.relation, self.page_spec)
            with self._stats_lock:
                if len(self._stats_cache) > 1024:
                    self._stats_cache.clear()
                self._stats_cache[key] = stats
        return stats

    def _session_predicate(self, session: Session) -> str:
        """The session's resolved (de-aliased) join predicate name."""
        raw = session.config.predicate
        if raw is None:
            return NATURAL_PREDICATE
        return resolve_predicate(raw).name

    def _choose_method(
        self,
        snapshot: CatalogSnapshot,
        outer: str,
        inner: str,
        config: PartitionJoinConfig,
        *,
        predicate: str = NATURAL_PREDICATE,
    ) -> str:
        # Only the forward sweep evaluates non-intersection Allen
        # predicates; there is nothing to choose for those.
        if predicate != NATURAL_PREDICATE:
            return "sweep"
        outer_stats = self._statistics(snapshot.version(outer))
        inner_stats = self._statistics(snapshot.version(inner))
        return choose_algorithm(
            outer_stats.n_pages,
            inner_stats.n_pages,
            config.memory_pages,
            self.cost_model,
            long_lived_fraction=inner_stats.long_lived_fraction,
            endpoint_sorted=(
                outer_stats.endpoint_sorted,
                inner_stats.endpoint_sorted,
            ),
        )

    # -- metrics -------------------------------------------------------------

    def _count(self, name: str, help: str = "", amount: float = 1.0, **labels) -> None:
        with self._metrics_lock:
            self.obs.count(name, help, amount=amount, **labels)

    def _count_query(self, status: str, method: str) -> None:
        self._count(
            "repro_service_queries_total",
            "Queries served, by final status and method.",
            status=status,
            method=method,
        )

    def _observe_queue_wait(self, seconds: float) -> None:
        with self._metrics_lock:
            self.obs.observe(
                "repro_service_queue_wait_seconds",
                seconds,
                "Admission queue wait per granted query.",
                buckets=QUEUE_WAIT_BUCKETS,
            )

    def _gauge_pool(self) -> None:
        with self._metrics_lock:
            self.obs.gauge(
                "repro_service_granted_pages",
                self.admission.granted_pages,
                "Buffer pages currently granted to running queries.",
            )
            self.obs.gauge(
                "repro_service_queued_pages",
                self.admission.queued_pages,
                "Buffer pages currently queued for admission.",
            )

    def _gauge_breaker(self) -> None:
        with self._metrics_lock:
            self.obs.gauge(
                "repro_service_lane_breaker_state",
                float(self.lane_breaker.state_index),
                "Lane circuit breaker state (0=closed, 1=open, 2=half-open).",
            )
            self.obs.gauge(
                "repro_service_lane_breaker_trips",
                float(self.lane_breaker.trips),
                "Times the lane circuit breaker has tripped open.",
            )

    def _gauge_queue_depth(self) -> None:
        with self._metrics_lock:
            self.obs.gauge(
                "repro_service_run_queue_depth",
                self.executor.queued,
                "Queries waiting in the executor's bounded run queue.",
            )

    def metrics_snapshot(self) -> Dict:
        """Stable snapshot of every ``repro_service_*`` family."""
        self._gauge_pool()
        self._gauge_queue_depth()
        return self.obs.metrics_snapshot()

    def report(self) -> Dict:
        """A human-sized serving summary (caches, admission, sessions)."""
        summary: Dict = {
            "active_sessions": self.active_sessions,
            "admission": {
                "capacity_pages": self.admission.capacity_pages,
                "granted_pages": self.admission.granted_pages,
                "peak_granted_pages": self.admission.peak_granted_pages,
                "grants": self.admission.grants,
                "degraded_grants": self.admission.degraded_grants,
                "timeouts": self.admission.timeouts,
                "clamped_requests": self.admission.clamped_requests,
                "policy": self.admission.policy,
                "per_session_peak_pages": self.admission.owner_peak_pages(),
            },
            "lane_breaker": {
                "state": self.lane_breaker.state,
                "trips": self.lane_breaker.trips,
                "threshold": self.lane_breaker.threshold,
                "window_seconds": self.lane_breaker.window_seconds,
                "cooldown_seconds": self.lane_breaker.cooldown_seconds,
            },
        }
        for label, cache in (
            ("plan_cache", self.plan_cache),
            ("result_cache", self.result_cache),
        ):
            if cache is not None:
                summary[label] = {
                    "entries": len(cache),
                    "hits": cache.stats.hits,
                    "misses": cache.stats.misses,
                    "hit_ratio": round(cache.stats.hit_ratio, 4),
                    "evictions": cache.stats.evictions,
                    "invalidations": cache.stats.invalidations,
                }
        return summary
