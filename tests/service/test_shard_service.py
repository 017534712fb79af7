"""The sharded query service: bit-identity, merge accounting, topology.

The fast (tier-1) slice of the shard suite: a 2-shard coordinator must be
indistinguishable from the single-process :class:`QueryService` -- same
result multiset, same JoinOutcome counters, same summed charged I/O --
while its report and metrics expose the fan-out.  The heavyweight
shard-count x execution-mode matrices live in the ``shard_slow``-marked
property tests.
"""

from __future__ import annotations

import pytest

from repro.engine.catalog import VersionedCatalog
from repro.model.errors import QueryDeadlineError, ServiceError
from repro.service import QueryService
from repro.service.executor import QueryHandle
from repro.shard import ShardedQueryService, active_channel_count
from repro.storage.iostats import IOStatistics

from tests.service.conftest import make_catalog, make_tuples, outcome_counters


def canonical(relation):
    return sorted((t.key, t.payload, t.vs, t.ve) for t in relation.tuples)


@pytest.fixture
def sharded():
    with ShardedQueryService(make_catalog(), shards=2, pool_pages=32) as svc:
        yield svc


def single_process_result(method="partition", execution="tuple"):
    with QueryService(
        make_catalog(),
        pool_pages=32,
        execution=execution,
        plan_cache_entries=0,
        result_cache_entries=0,
    ) as svc:
        with svc.open_session() as session:
            return session.join("r", "s", method=method)


class TestBitIdentity:
    def test_one_shard_is_literally_the_single_process_service(self):
        base = single_process_result()
        with ShardedQueryService(make_catalog(), shards=1, pool_pages=32) as svc:
            with svc.open_session() as session:
                result = session.join("r", "s", method="partition")
        # shards=1 is the anchor: the fragment IS the relation, so the
        # result order, counters, and charged I/O match to the bit.
        assert [(t.key, t.payload, t.vs, t.ve) for t in result.relation.tuples] == [
            (t.key, t.payload, t.vs, t.ve) for t in base.relation.tuples
        ]
        assert outcome_counters(result.outcome) == outcome_counters(base.outcome)
        assert result.charged_ops == base.charged_ops
        assert result.cost == pytest.approx(base.cost)
        assert result.service_cost == pytest.approx(base.cost)
        assert result.totals.total_ops == base.charged_ops

    @pytest.mark.parametrize("method", ["partition", "sweep", "sort_merge"])
    def test_two_shards_match_single_process_multiset(self, sharded, method):
        base = single_process_result(method=method)
        with sharded.open_session() as session:
            result = session.join("r", "s", method=method)
        assert canonical(result.relation) == canonical(base.relation)
        assert result.outcome.n_result_tuples == base.outcome.n_result_tuples

    def test_lane_mode_runs_inside_shard_workers(self):
        """Shard workers are daemonic and may not fork lane pools; the lane
        sweep must run its lanes in-process there, not fail the query."""
        base = single_process_result()
        with ShardedQueryService(
            make_catalog(), shards=2, pool_pages=32, execution="batch-parallel-sweep"
        ) as svc:
            with svc.open_session() as session:
                result = session.join("r", "s", method="partition")
        assert canonical(result.relation) == canonical(base.relation)
        assert result.outcome.n_result_tuples == base.outcome.n_result_tuples

    def test_time_range_sharding_matches_too(self):
        base = single_process_result()
        with ShardedQueryService(
            make_catalog(), shards=3, shard_by="time-range", pool_pages=32
        ) as svc:
            with svc.open_session() as session:
                result = session.join("r", "s", method="partition")
        assert canonical(result.relation) == canonical(base.relation)
        assert result.outcome.n_result_tuples == base.outcome.n_result_tuples

    def test_merge_is_deterministic_across_runs(self, sharded):
        with sharded.open_session() as session:
            first = session.join("r", "s", method="partition")
            second = session.join("r", "s", method="partition")
        assert [(t.key, t.payload, t.vs, t.ve) for t in first.relation.tuples] == [
            (t.key, t.payload, t.vs, t.ve) for t in second.relation.tuples
        ]


class TestMergeAccounting:
    def test_counters_and_ledgers_fold_exactly(self, sharded):
        with sharded.open_session() as session:
            result = session.join("r", "s", method="partition")
        assert len(result.shards) == 2
        assert result.outcome.n_result_tuples == sum(
            shard.n_result_tuples for shard in result.shards
        )
        assert result.charged_ops == sum(s.charged_ops for s in result.shards)
        assert result.cost == pytest.approx(sum(s.cost for s in result.shards))
        assert result.service_cost == pytest.approx(
            max(s.cost for s in result.shards)
        )
        # The merged per-phase ledgers equal folding each shard's dicts.
        for name, stats in result.phases.items():
            expected = IOStatistics()
            for shard in result.shards:
                if name in shard.phases:
                    expected.merge(IOStatistics(**shard.phases[name]))
            assert stats.as_dict() == expected.as_dict()
        expected_totals = IOStatistics()
        for shard in result.shards:
            expected_totals.merge(IOStatistics(**shard.totals))
        assert result.totals.as_dict() == expected_totals.as_dict()

    def test_epochs_pin_the_snapshot(self, sharded):
        with sharded.open_session() as session:
            before = session.join("r", "s")
            session.append("r", make_tuples(4, seed=99))
            after = session.join("r", "s")
        assert before.epochs[0] < after.epochs[0]
        assert before.epochs[1] == after.epochs[1]
        assert after.outcome.n_result_tuples >= before.outcome.n_result_tuples


class TestTopology:
    def test_report_shape(self, sharded):
        with sharded.open_session() as session:
            session.join("r", "s")
        report = sharded.report()
        assert report["shards"] == 2
        assert report["strategy"] == "key-hash"
        assert len(report["workers"]) == 2
        assert all(w["alive"] for w in report["workers"])
        assert all(w["loaded_fragments"] == 2 for w in report["workers"])
        assert report["transport"]["frames_sent"] > 0
        assert report["transport"]["crc_failures"] == 0

    def test_metrics_families(self, sharded):
        with sharded.open_session() as session:
            session.join("r", "s")
        snapshot = sharded.metrics_snapshot()
        names = set(snapshot)
        assert "repro_shard_queries_total" in names
        assert "repro_shard_fragments_total" in names
        assert "repro_shard_fragment_loads_total" in names
        assert "repro_shard_workers" in names

    def test_ping_all_reaches_every_worker(self, sharded):
        statuses = sharded.ping_all()
        assert [s["rank"] for s in statuses] == [0, 1]

    def test_shard_map_recorded_in_catalog(self, sharded):
        recorded = sharded.catalog.shard_map_at(sharded.catalog.epoch)
        assert recorded == sharded.shard_map.as_dict()

    def test_close_releases_every_channel_and_worker(self):
        baseline = active_channel_count()
        svc = ShardedQueryService(make_catalog(), shards=2, pool_pages=32)
        with svc.open_session() as session:
            session.join("r", "s")
        svc.close()
        svc.close()  # idempotent
        assert active_channel_count() == baseline
        assert svc.alive_workers() == 0

    def test_rejects_bad_shapes(self):
        with pytest.raises(ServiceError):
            ShardedQueryService(make_catalog(), shards=0)
        with pytest.raises(ServiceError):
            ShardedQueryService(make_catalog(), shards=2, execution="warp")
        with pytest.raises(ServiceError):
            ShardedQueryService(make_catalog(), shards=2, memory_pages=2)


class TestDeadlines:
    """Sessions on the sharded service honour the same deadline budget as
    on :class:`QueryService`."""

    @pytest.mark.parametrize("deadline", [0.0, -1.0])
    def test_nonpositive_deadline_is_refused(self, sharded, deadline):
        with pytest.raises(ServiceError):
            sharded.open_session(deadline_seconds=deadline)

    def test_expired_deadline_raises_and_is_counted(self, sharded):
        with sharded.open_session(deadline_seconds=1e-6) as session:
            with pytest.raises(QueryDeadlineError):
                session.join("r", "s")
        series = sharded.metrics_snapshot()["repro_shard_queries_total"]["series"]
        assert sum(n for key, n in series.items() if "status=deadline" in key) == 1

    def test_deadline_after_first_shard_keeps_channels_in_step(
        self, sharded, monkeypatch
    ):
        """A deadline that expires once shard 0 has answered abandons the
        query; shard 1's answer is drained, so the next query reads its own
        results and still matches the single-process service."""
        base = single_process_result()
        checks = []
        original = QueryHandle.check_deadline

        def expire_on_second_check(handle):
            checks.append(handle.query_id)
            if len(checks) == 2:
                raise QueryDeadlineError("deadline expired after shard 0")
            original(handle)

        monkeypatch.setattr(QueryHandle, "check_deadline", expire_on_second_check)
        with sharded.open_session() as session:
            with pytest.raises(QueryDeadlineError):
                session.join("r", "s", method="partition")
            result = session.join("r", "s", method="partition")
        assert canonical(result.relation) == canonical(base.relation)
        assert outcome_counters(result.outcome)[0] == base.outcome.n_result_tuples
        assert result.redispatches == 0


class TestFacadeWiring:
    def test_database_serve_shards(self):
        import random

        from repro.engine.database import TemporalDatabase
        from repro.model.schema import RelationSchema

        db = TemporalDatabase(memory_pages=32)
        rng = random.Random(1)
        for name in ("r", "s"):
            db.create_relation(
                RelationSchema(
                    name, join_attributes=("k",), payload_attributes=(f"p_{name}",)
                )
            )
            db.insert(
                name,
                [
                    (rng.randrange(8), f"{name}{i}", vs, vs + 1 + rng.randrange(30))
                    for i in range(40)
                    for vs in [rng.randrange(100)]
                ],
            )
        single = db.join("r", "s", method="partition")
        with db.serve(shards=2) as svc:
            with svc.open_session() as session:
                sharded = session.join("r", "s", method="partition")
        assert canonical(sharded.relation) == canonical(single.relation)

    def test_explain_shard_fanout(self):
        import random

        from repro.engine.database import TemporalDatabase
        from repro.model.schema import RelationSchema

        db = TemporalDatabase(memory_pages=32)
        rng = random.Random(2)
        for name in ("r", "s"):
            db.create_relation(
                RelationSchema(
                    name, join_attributes=("k",), payload_attributes=(f"p_{name}",)
                )
            )
            db.insert(
                name,
                [
                    (rng.randrange(8), f"{name}{i}", vs, vs + 1 + rng.randrange(30))
                    for i in range(40)
                    for vs in [rng.randrange(100)]
                ],
            )
        report = db.explain("r", "s", shards=4)
        fanout = report.shard_fanout
        assert fanout["shards"] == 4
        assert len(fanout["per_shard"]) == 4
        assert all(row["predicted_cost"] >= 0 for row in fanout["per_shard"])
        assert "shard fan-out: 4 shard(s)" in report.render()
        assert report.as_dict()["shard_fanout"] == fanout
        # Unsharded EXPLAIN stays unsharded.
        assert db.explain("r", "s").shard_fanout is None


class TestPerSessionPeaks:
    def test_query_service_report_includes_per_session_peaks(self):
        with QueryService(
            make_catalog(),
            pool_pages=32,
            plan_cache_entries=0,
            result_cache_entries=0,
        ) as svc:
            with svc.open_session() as first:
                first.join("r", "s")
                with svc.open_session() as second:
                    second.join("r", "s")
            peaks = svc.report()["admission"]["per_session_peak_pages"]
        assert set(peaks) == {"s1", "s2"}
        assert all(0 < peak <= 32 for peak in peaks.values())

    def test_peaks_track_concurrent_grants_per_owner(self):
        from repro.service.admission import AdmissionController

        controller = AdmissionController(32)
        a1 = controller.acquire(8, owner="s1")
        a2 = controller.acquire(8, owner="s1")
        b1 = controller.acquire(4, owner="s2")
        assert controller.owner_peak_pages() == {"s1": 16, "s2": 4}
        a1.release()
        a2.release()
        b1.release()
        a3 = controller.acquire(6, owner="s1")
        a3.release()
        # The peak is a high-water mark: releasing never lowers it.
        assert controller.owner_peak_pages() == {"s1": 16, "s2": 4}

    def test_unowned_grants_stay_invisible(self):
        from repro.service.admission import AdmissionController

        controller = AdmissionController(16)
        grant = controller.acquire(8)
        grant.release()
        assert controller.owner_peak_pages() == {}
