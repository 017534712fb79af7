"""Service-layer semantics of lane failure: breaker, caching, deadlines.

The supervisor makes a killed lane invisible to correctness; this suite
pins down what the *service* must still do about it: keep disturbed runs
out of the result cache, release every granted page, trip the circuit
breaker to serial when failures cluster, half-open it on probe queries,
and enforce whole-query deadline budgets across admission and execution.
"""

import pytest

from repro.exec.backend import HAVE_NUMPY
from repro.model.errors import QueryDeadlineError, ServiceError
from repro.resilience.supervisor import clear_lane_injector, install_lane_injector
from repro.service import LaneCircuitBreaker, QueryService
from repro.service.breaker import BREAKER_STATES
from repro.storage.page import PageSpec

from tests.service.conftest import make_catalog, outcome_counters


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


class TestLaneCircuitBreaker:
    def make(self, **overrides):
        clock = FakeClock()
        kwargs = dict(threshold=2, window_seconds=10.0, cooldown_seconds=5.0)
        kwargs.update(overrides)
        return LaneCircuitBreaker(clock=clock, **kwargs), clock

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threshold": 0},
            {"window_seconds": 0.0},
            {"cooldown_seconds": -1.0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ServiceError):
            LaneCircuitBreaker(**kwargs)

    def test_trips_after_threshold_failures_in_window(self):
        breaker, _ = self.make()
        assert breaker.admit()
        breaker.record(used_lanes=True, lane_failed=True)
        assert breaker.state == "closed"
        breaker.record(used_lanes=True, lane_failed=True)
        assert breaker.state == "open"
        assert breaker.trips == 1
        assert not breaker.admit()

    def test_failures_outside_the_window_age_out(self):
        breaker, clock = self.make()
        breaker.record(used_lanes=True, lane_failed=True)
        clock.advance(11.0)  # past window_seconds
        breaker.record(used_lanes=True, lane_failed=True)
        assert breaker.state == "closed"

    def test_serial_runs_carry_no_signal(self):
        breaker, _ = self.make(threshold=1)
        breaker.record(used_lanes=False, lane_failed=True)
        assert breaker.state == "closed"

    def test_half_open_admits_one_probe_and_closes_on_clean(self):
        breaker, clock = self.make(threshold=1)
        breaker.record(used_lanes=True, lane_failed=True)
        assert breaker.state == "open"
        assert not breaker.admit()  # still cooling down
        clock.advance(5.0)
        assert breaker.admit()  # the probe
        assert breaker.state == "half-open"
        assert not breaker.admit()  # peers stay serial
        breaker.record(used_lanes=True, lane_failed=False)
        assert breaker.state == "closed"
        assert breaker.admit()

    def test_disturbed_probe_reopens(self):
        breaker, clock = self.make(threshold=1)
        breaker.record(used_lanes=True, lane_failed=True)
        clock.advance(5.0)
        assert breaker.admit()
        breaker.record(used_lanes=True, lane_failed=True)
        assert breaker.state == "open"
        assert breaker.trips == 2
        assert not breaker.admit()  # a fresh cooldown started

    def test_state_index_matches_gauge_order(self):
        breaker, clock = self.make(threshold=1)
        assert BREAKER_STATES[breaker.state_index] == "closed"
        breaker.record(used_lanes=True, lane_failed=True)
        assert BREAKER_STATES[breaker.state_index] == "open"
        clock.advance(5.0)
        breaker.admit()
        assert BREAKER_STATES[breaker.state_index] == "half-open"


class TestDeadlineBudget:
    def test_deadline_must_be_positive(self, service):
        with pytest.raises(ServiceError):
            service.open_session(deadline_seconds=0.0)
        with pytest.raises(ServiceError):
            service.open_session(deadline_seconds=-1.0)

    def test_tiny_deadline_raises_before_evaluation(self, service):
        with service.open_session(deadline_seconds=1e-6, label="rushed") as session:
            with pytest.raises(QueryDeadlineError):
                session.join("r", "s")
        snapshot = service.metrics_snapshot()
        deadline_counts = [
            count
            for key, count in snapshot["repro_service_queries_total"]["series"].items()
            if "status=deadline" in key
        ]
        assert sum(deadline_counts) >= 1.0
        assert "repro_service_deadline_exceeded_total" in snapshot

    def test_admission_wait_is_capped_by_the_deadline(self, service):
        """A saturated pool plus a short budget must surface as a deadline
        error, not an admission timeout -- the deadline was the binding
        bound."""
        hog = service.admission.acquire(32, label="hog")  # the whole pool
        try:
            with service.open_session(
                deadline_seconds=0.3, admission_timeout=30.0, label="queued"
            ) as session:
                with pytest.raises(QueryDeadlineError):
                    session.join("r", "s")
        finally:
            hog.release()

    def test_generous_deadline_does_not_interfere(self, service):
        with service.open_session(deadline_seconds=60.0) as session:
            result = session.join("r", "s")
        assert result.outcome.n_result_tuples > 0


needs_pools = pytest.mark.skipif(
    not HAVE_NUMPY, reason="lane pools only dispatch with numpy workers"
)


@pytest.fixture
def forced_lanes(monkeypatch):
    """Force a real 2-lane pool even on a 1-core runner.

    The service path takes the default lane count, so the default itself
    must be lifted to 2 (the join's answer never depends on it).
    """
    sweep = pytest.importorskip("repro.exec.sweep_parallel")
    monkeypatch.setattr(sweep, "OVERSUBSCRIBE", True)
    monkeypatch.setattr(sweep, "MIN_LANE_ROWS", 0)
    monkeypatch.setattr(sweep, "default_sweep_workers", lambda: 2)


def lane_service(**overrides):
    kwargs = dict(
        pool_pages=64,
        memory_pages=8,
        workers=2,
        execution="batch-parallel-sweep",
        page_spec=PageSpec(page_bytes=256, tuple_bytes=32),
    )
    kwargs.update(overrides)
    return QueryService(make_catalog(220, 200, seed=7), **kwargs)


class Injector:
    """Minimal one-shot lane-fault script (the FaultInjector hook shape)."""

    def __init__(self, faults):
        self.faults = dict(faults)

    def on_lane_dispatch(self, dispatch_no):
        return self.faults.pop(dispatch_no, None)


@needs_pools
class TestLaneDeathHygiene:
    def test_killed_lane_releases_pages_and_skips_the_result_cache(
        self, forced_lanes
    ):
        install_lane_injector(Injector({1: "kill"}))
        try:
            with lane_service(lane_failure_threshold=100) as service:
                with service.open_session(label="victim", method="partition") as session:
                    disturbed = session.join("r", "s")
                    # Every page the killed-lane query was granted is back.
                    assert service.admission.granted_pages == 0
                    assert not disturbed.result_cache_hit
                    # The disturbed run must NOT have populated the cache:
                    # the repeat recomputes (and only *it* becomes cacheable).
                    repeat = session.join("r", "s")
                    assert not repeat.result_cache_hit
                    third = session.join("r", "s")
                    assert third.result_cache_hit
                    for other in (repeat, third):
                        assert list(other.relation.tuples) == list(
                            disturbed.relation.tuples
                        )
                        assert outcome_counters(other.outcome) == outcome_counters(
                            disturbed.outcome
                        )
        finally:
            clear_lane_injector()


@needs_pools
class TestBreakerIntegration:
    def test_one_disturbed_query_trips_a_hair_trigger_breaker(self, forced_lanes):
        install_lane_injector(Injector({1: "kill"}))
        try:
            with lane_service(
                lane_failure_threshold=1, lane_breaker_cooldown=3600.0
            ) as service:
                with service.open_session(label="tripper", method="partition") as session:
                    disturbed = session.join("r", "s")
                    report = service.report()["lane_breaker"]
                    assert report["state"] == "open"
                    assert report["trips"] == 1
                    # The next query runs serial -- and answers identically.
                    serial = session.join("r", "s")
                    assert list(serial.relation.tuples) == list(
                        disturbed.relation.tuples
                    )
                    assert service.report()["lane_breaker"]["state"] == "open"
        finally:
            clear_lane_injector()

    def test_breaker_half_opens_and_closes_on_a_clean_probe(self, forced_lanes):
        install_lane_injector(Injector({1: "kill"}))
        try:
            with lane_service(
                lane_failure_threshold=1, lane_breaker_cooldown=0.0
            ) as service:
                with service.open_session(label="prober", method="partition") as session:
                    session.join("r", "s")  # disturbed: trips the breaker
                    assert service.report()["lane_breaker"]["state"] == "open"
                    # Zero cooldown: the very next query is the probe, it
                    # runs clean on lanes, and the breaker closes.
                    session.join("r", "s")
                    assert service.report()["lane_breaker"]["state"] == "closed"
        finally:
            clear_lane_injector()
