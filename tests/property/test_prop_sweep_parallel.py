"""Property tests: ``"batch-parallel-sweep"`` is the tuple sweep, faster.

The pipelined mode's whole contract is *unobservability*: on arbitrary
inputs -- including the overflow machinery under tight memory and the
permanent-fault degradation ladder -- its result tuples (payloads **and**
overlap intervals, in emission order) and its :class:`JoinOutcome`
counters are bit-identical to plain tuple-at-a-time execution.

The mode stores its inputs as columnar pages; on those it must also match
``"tuple"`` and ``"batch"`` in per-phase charged op counts, and match
itself over row pages in the full per-phase random/sequential breakdown --
the page layout is mechanism, never an observable.  That holds on
cache-overflow workloads, across crash/resume, and under concurrent
service load.

Degradation is exercised with *page-keyed* faults (``fail_read`` on a
named extent page), never op-count-keyed crashes: the pipelined mode
reorders the global charge sequence (read-ahead, write-behind), so "the
k-th operation" names different physical accesses in different modes and
would diverge by construction.
"""

import threading

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.partition_join import PartitionJoinConfig, partition_join, resume_join
from repro.model.errors import SimulatedCrashError
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.resilience import FaultInjector, RecoveryLog
from repro.storage.layout import DiskLayout
from repro.storage.page import PageSpec
from repro.time.interval import Interval

SCHEMA_R = RelationSchema("r", ("k",), ("a",), tuple_bytes=128)
SCHEMA_S = RelationSchema("s", ("k",), ("b",), tuple_bytes=128)
SPEC = PageSpec(page_bytes=512, tuple_bytes=128)  # 4 tuples/page: many pages

prop_settings = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def vt_tuples(tag, n_keys=5):
    return st.builds(
        lambda key, start, duration, payload: VTTuple(
            (key,), (f"{tag}{payload}",), Interval(start, start + duration)
        ),
        key=st.integers(0, n_keys),
        start=st.integers(0, 80),
        duration=st.integers(0, 40),
        payload=st.integers(0, 1000),
    )


def relations(schema, tag, min_size=0, n_keys=5):
    return st.lists(vt_tuples(tag, n_keys), min_size=min_size, max_size=40).map(
        lambda tuples: ValidTimeRelation(schema, tuples)
    )


def config(execution, memory, **overrides):
    settings_ = dict(memory_pages=memory, page_spec=SPEC, execution=execution)
    settings_.update(overrides)
    return PartitionJoinConfig(**settings_)


def observe(run):
    """Everything the pipelined mode promises to reproduce exactly."""
    outcome = run.outcome
    return {
        "tuples": list(run.result.tuples),  # payloads + overlap intervals, in order
        "n_result_tuples": outcome.n_result_tuples,
        "overflow_blocks": outcome.overflow_blocks,
        "cache_tuples_peak": outcome.cache_tuples_peak,
        "cache_tuples_spilled": outcome.cache_tuples_spilled,
    }


class TestBitIdenticalToTupleExecution:
    @given(
        relations(SCHEMA_R, "a"),
        relations(SCHEMA_S, "b"),
        st.integers(6, 24),
        st.sampled_from(("backward", "forward")),
    )
    @prop_settings
    def test_results_and_counters_match(self, r, s, memory, direction):
        oracle = partition_join(
            r, s, config("tuple", memory, sweep_direction=direction)
        )
        run = partition_join(
            r,
            s,
            config("batch-parallel-sweep", memory, sweep_direction=direction),
        )
        assert observe(run) == observe(oracle)

    @given(
        relations(SCHEMA_R, "a", min_size=25),
        relations(SCHEMA_S, "b", min_size=25),
        st.integers(6, 8),
    )
    @prop_settings
    def test_overflow_machinery_is_unobservable(self, r, s, memory):
        """Tight memory drives the Section 3.4 overflow path; the pipelined
        sweep must take it at the same blocks with the same counters."""
        oracle = partition_join(r, s, config("tuple", memory))
        run = partition_join(r, s, config("batch-parallel-sweep", memory))
        assert observe(run) == observe(oracle)

    @given(
        relations(SCHEMA_R, "a"),
        relations(SCHEMA_S, "b"),
        st.integers(6, 20),
        st.integers(0, 3),
    )
    @prop_settings
    def test_prefetch_depth_is_unobservable(self, r, s, memory, depth):
        oracle = partition_join(r, s, config("tuple", memory))
        run = partition_join(
            r, s, config("batch-parallel-sweep", memory, prefetch_depth=depth)
        )
        assert observe(run) == observe(oracle)


def op_counts(run):
    """Per-phase charged (reads, writes): what the prefetcher may not change."""
    return {
        name: (stats.reads, stats.writes)
        for name, stats in run.layout.tracker.phases.items()
    }


def full_ledger(run):
    """Per-phase charged counters, random/sequential split included."""
    return {
        name: stats.as_dict() for name, stats in run.layout.tracker.phases.items()
    }


def assert_modes_agree(r, s, memory, **overrides):
    """Tuple, batch, and the lane mode on columnar pages: same tuples, same
    counters, same per-phase op counts; and the columnar lane mode's full
    ledger equals the lane mode's over row pages."""
    oracle = partition_join(r, s, config("tuple", memory, **overrides))
    lane_config = config("batch-parallel-sweep", memory, **overrides)
    lane = partition_join(r, s, lane_config)
    assert lane.layout.columnar
    rows = partition_join(r, s, lane_config, layout=DiskLayout(spec=SPEC))
    for run in (partition_join(r, s, config("batch", memory, **overrides)), lane):
        assert observe(run) == observe(oracle)
        assert op_counts(run) == op_counts(oracle)
    assert full_ledger(lane) == full_ledger(rows)
    return oracle


class TestAllModesBitIdentical:
    @given(relations(SCHEMA_R, "a"), relations(SCHEMA_S, "b"), st.integers(6, 24))
    @prop_settings
    def test_arbitrary_inputs(self, r, s, memory):
        assert_modes_agree(r, s, memory)

    @given(
        relations(SCHEMA_R, "a", n_keys=0),
        relations(SCHEMA_S, "b", n_keys=0),
    )
    @prop_settings
    def test_single_key_skew(self, r, s):
        """One join key: the tuple cache saturates and overflow blocks
        appear at the smallest legal budget; the counters must agree."""
        assert_modes_agree(r, s, 6)


class TestOverflowPath:
    def test_overflow_actually_exercised_and_identical(self):
        """A deterministic workload known to overflow: 240 tuples of one
        key against 180 of the same key under a 6-page budget."""
        r = ValidTimeRelation(
            SCHEMA_R,
            [
                VTTuple(("hot",), (f"a{i}",), Interval(i % 50, i % 50 + 8))
                for i in range(240)
            ],
        )
        s = ValidTimeRelation(
            SCHEMA_S,
            [
                VTTuple(("hot",), (f"b{i}",), Interval(i % 50, i % 50 + 5))
                for i in range(180)
            ],
        )
        oracle = assert_modes_agree(r, s, 6)
        assert oracle.outcome.overflow_blocks > 0, "workload must overflow"


class TestResumeAfterCrash:
    @given(
        relations(SCHEMA_R, "a").filter(lambda rel: len(rel) >= 8),
        relations(SCHEMA_S, "b").filter(lambda rel: len(rel) >= 8),
        st.integers(0, 9),
    )
    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_columnar_resume_matches_tuple_mode(self, r, s, crash_slot):
        """Crash the columnar lane run at a hypothesis-chosen charged op;
        the resumed run must equal the tuple-mode evaluation exactly."""
        baseline = observe(
            partition_join(r, s, config("tuple", 12, checkpoint_interval=2))
        )
        lane_config = config("batch-parallel-sweep", 12, checkpoint_interval=2)

        probe_injector = FaultInjector(seed=0)
        probe_layout = DiskLayout(spec=SPEC, fault_injector=probe_injector, columnar=True)
        probe = partition_join(
            r, s, lane_config, layout=probe_layout, recovery=RecoveryLog()
        )
        assert observe(probe) == baseline
        total_ops = probe_injector.ops_seen

        at_op = 1 + (crash_slot * max(1, total_ops - 1)) // 10
        injector = FaultInjector(seed=0)
        injector.schedule_crash(at_op=at_op)
        layout = DiskLayout(spec=SPEC, fault_injector=injector, columnar=True)
        recovery = RecoveryLog()
        try:
            run = partition_join(r, s, lane_config, layout=layout, recovery=recovery)
        except SimulatedCrashError:
            run = resume_join(r, s, lane_config, layout=layout, recovery=recovery)
        assert observe(run) == baseline


class TestConcurrentService:
    @given(st.integers(0, 3))
    @settings(
        max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_concurrent_lane_sweep_equals_batch(self, seed):
        """Concurrent sessions under admission control: the lane-sweep
        service must produce the same relation and counters as a batch
        service on the same catalog -- including interner-cache reuse
        across the repeated queries."""
        from repro.engine.catalog import VersionedCatalog
        from repro.service import QueryService

        from tests.service.conftest import make_tuples

        def build_catalog():
            catalog = VersionedCatalog()
            catalog.register(
                RelationSchema("r", join_attributes=("k",), payload_attributes=("pr",)),
                make_tuples(60, seed=seed, n_keys=5, lifespan=50),
            )
            catalog.register(
                RelationSchema("s", join_attributes=("k",), payload_attributes=("ps",)),
                make_tuples(45, seed=seed + 10, n_keys=5, lifespan=50),
            )
            return catalog

        outcomes = {}
        for execution in ("batch", "batch-parallel-sweep"):
            results = []
            errors = []
            lock = threading.Lock()
            with QueryService(
                build_catalog(),
                pool_pages=24,
                memory_pages=6,
                workers=3,
                execution=execution,
                page_spec=PageSpec(page_bytes=256, tuple_bytes=32),
                result_cache_entries=0,
                admission_timeout=60.0,
            ) as service:

                def run_one():
                    try:
                        with service.open_session() as session:
                            result = session.join("r", "s", result_timeout=120.0)
                            with lock:
                                results.append(result)
                    except Exception as error:  # pragma: no cover
                        with lock:
                            errors.append(error)

                threads = [threading.Thread(target=run_one) for _ in range(3)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            assert not errors
            assert len(results) == 3
            fingerprints = {
                (
                    tuple(result.relation.tuples),
                    result.outcome.n_result_tuples,
                    result.outcome.overflow_blocks,
                    result.outcome.cache_tuples_peak,
                    result.outcome.cache_tuples_spilled,
                    result.charged_ops,
                )
                for result in results
            }
            assert len(fingerprints) == 1, f"{execution} sessions disagree"
            outcomes[execution] = fingerprints.pop()
        assert outcomes["batch-parallel-sweep"] == outcomes["batch"]


def run_with_fault(r, s, execution, seed):
    injector = FaultInjector(seed=seed)
    injector.fail_read("r_part0", 0, times=50)
    layout = DiskLayout(spec=SPEC, fault_injector=injector, checksums=True)
    run = partition_join(r, s, config(execution, 8), layout=layout)
    return run, layout


class TestDegradationPath:
    @given(
        relations(SCHEMA_R, "a", min_size=20),
        relations(SCHEMA_S, "b", min_size=20),
        st.integers(0, 1_000_000),
    )
    @prop_settings
    def test_permanent_fault_handled_like_tuple_mode(self, r, s, seed):
        """Whether or not the scripted fault fires (degenerate inputs can
        collapse to one partition that never reads ``r_part0``), both modes
        must land in the same place: same tuples, same result count, and
        the same degradation verdict."""
        oracle, oracle_layout = run_with_fault(r, s, "tuple", seed)
        run, layout = run_with_fault(r, s, "batch-parallel-sweep", seed)

        assert sorted(run.result.tuples, key=repr) == sorted(
            oracle.result.tuples, key=repr
        )
        assert run.outcome.n_result_tuples == oracle.outcome.n_result_tuples
        report, oracle_report = layout.resilience_report, oracle_layout.resilience_report
        assert report.degraded == oracle_report.degraded
        assert [e.kind for e in report.degradations] == [
            e.kind for e in oracle_report.degradations
        ]

    def test_fault_actually_fires_on_a_multi_partition_workload(self):
        """Pin one workload where the scripted page failure is guaranteed
        to engage the nested-loop fallback in *both* modes (so the property
        above cannot silently pass on the no-fault branch forever)."""
        import random

        rng = random.Random(11)
        r = ValidTimeRelation(
            SCHEMA_R,
            [
                VTTuple((rng.randrange(6),), (f"a{i}",), Interval(s0, s0 + rng.randrange(40)))
                for i in range(120)
                for s0 in (rng.randrange(400),)
            ],
        )
        s = ValidTimeRelation(
            SCHEMA_S,
            [
                VTTuple((rng.randrange(6),), (f"b{i}",), Interval(s0, s0 + rng.randrange(40)))
                for i in range(120)
                for s0 in (rng.randrange(400),)
            ],
        )
        oracle, oracle_layout = run_with_fault(r, s, "tuple", 0)
        run, layout = run_with_fault(r, s, "batch-parallel-sweep", 0)
        for report in (layout.resilience_report, oracle_layout.resilience_report):
            assert report.degraded
            assert [e.kind for e in report.degradations] == ["nested-loop-fallback"]
        assert sorted(run.result.tuples, key=repr) == sorted(
            oracle.result.tuples, key=repr
        )
        assert run.outcome.n_result_tuples == oracle.outcome.n_result_tuples
