"""Unit tests for the lane supervisor itself, against real worker pools.

Chaos tests drive the supervisor through whole joins; here each failure
mode is exercised in isolation against tiny pools: SIGKILLed workers,
wedged dispatches, raising tasks, the quarantine ladder, retirement, spawn
failure, and the teardown contract.  The supervisor is numpy-independent,
so none of this is gated.
"""

import multiprocessing
import time

import pytest

from repro.resilience.report import ResilienceReport
from repro.resilience.retry import RetryPolicy
from repro.resilience.supervisor import (
    LaneSupervisor,
    SupervisionPolicy,
    clear_lane_injector,
    install_lane_injector,
)


def square(x):
    return x * x


def slow_square(x):
    # Slow enough that a scripted SIGKILL always lands mid-dispatch --
    # with instant tasks the kill can arrive after every result is in,
    # and the dispatch (legitimately) succeeds.
    time.sleep(0.3)
    return x * x


def boom(x):
    raise ValueError(f"task {x} always fails")


class ScriptedInjector:
    """Pops one fault per scripted dispatch number (the FaultInjector shape)."""

    def __init__(self, faults):
        self.faults = dict(faults)

    def on_lane_dispatch(self, dispatch_no):
        return self.faults.pop(dispatch_no, None)


def fast_policy(**overrides):
    overrides.setdefault("lane_timeout_seconds", 20.0)
    overrides.setdefault("heartbeat_seconds", 0.05)
    return SupervisionPolicy(**overrides)


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lane_timeout_seconds": 0.0},
            {"lane_timeout_seconds": -1.0},
            {"heartbeat_seconds": 0.0},
            {"max_redispatches": -1},
            {"quarantine_after": -1},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SupervisionPolicy(**kwargs)

    def test_defaults_are_valid(self):
        policy = SupervisionPolicy()
        assert policy.lane_timeout_seconds > 0
        assert policy.quarantine_after >= 0


class TestInProcessFallback:
    def test_single_lane_never_pools(self):
        sup = LaneSupervisor(1)
        try:
            assert sup.ensure_pool() is None
            assert sup.map(square, [1, 2, 3]) == [1, 4, 9]
            assert sup.stats.dispatches == 0  # no pool, no dispatch counted
        finally:
            sup.close()

    def test_spawn_failure_degrades_and_runs_in_process(self, monkeypatch):
        def refuse():
            raise OSError("no processes here")

        monkeypatch.setattr(multiprocessing, "get_context", refuse)
        report = ResilienceReport()
        sup = LaneSupervisor(2, report=report)
        try:
            assert sup.map(square, [1, 2, 3]) == [1, 4, 9]
            assert sup.retired
            assert [e.kind for e in report.degradations] == ["pool-fallback"]
        finally:
            sup.close()

    def test_empty_task_list_is_trivial(self):
        sup = LaneSupervisor(2)
        try:
            assert sup.map(square, []) == []
            assert sup.stats.dispatches == 0
        finally:
            sup.close()


class TestPooledDispatch:
    def test_clean_pool_round_trip(self):
        sup = LaneSupervisor(2, policy=fast_policy())
        try:
            assert sup.map(square, [1, 2, 3, 4]) == [1, 4, 9, 16]
            assert sup.stats.dispatches == 1
            assert sup.stats.failures == 0
        finally:
            sup.close()

    def test_killed_worker_is_redispatched(self):
        report = ResilienceReport()
        sup = LaneSupervisor(
            2,
            policy=fast_policy(),
            injector=ScriptedInjector({1: "kill"}),
            report=report,
        )
        try:
            assert sup.map(slow_square, [1, 2, 3, 4]) == [1, 4, 9, 16]
            assert sup.stats.deaths == 1
            assert sup.stats.redispatches == 1
            assert sup.stats.dispatches == 2
            assert sup.stats.backoff_ops == RetryPolicy().penalty(1)
            assert not sup.retired
            assert [e.kind for e in report.degradations] == ["lane-death"]
        finally:
            sup.close()

    def test_hung_dispatch_is_redispatched(self):
        report = ResilienceReport()
        sup = LaneSupervisor(
            2,
            policy=fast_policy(lane_timeout_seconds=0.4),
            injector=ScriptedInjector({1: "hang"}),
            report=report,
        )
        try:
            assert sup.map(square, [5, 6]) == [25, 36]
            assert sup.stats.hangs == 1
            assert sup.stats.redispatches == 1
            assert [e.kind for e in report.degradations] == ["lane-hang"]
        finally:
            sup.close()

    def test_raising_task_retires_then_raises_in_process(self):
        report = ResilienceReport()
        sup = LaneSupervisor(
            2,
            policy=fast_policy(max_redispatches=1, quarantine_after=0),
            report=report,
        )
        try:
            with pytest.raises(ValueError):
                sup.map(boom, [1, 2])
            # Failures counted until retirement, then the in-process run
            # surfaced the genuine bug unwrapped.
            assert sup.stats.errors == 2
            assert sup.retired
            kinds = [e.kind for e in report.degradations]
            assert kinds == ["lane-error", "lane-error", "lane-retired"]
        finally:
            sup.close()

    def test_quarantine_ladder_shrinks_to_retirement(self):
        report = ResilienceReport()
        sup = LaneSupervisor(
            3,
            policy=fast_policy(quarantine_after=1, max_redispatches=5),
            injector=ScriptedInjector({1: "kill", 2: "kill"}),
            report=report,
        )
        try:
            assert sup.map(slow_square, [1, 2, 3]) == [1, 4, 9]
            assert sup.stats.deaths == 2
            assert sup.stats.quarantines == 2
            assert sup.lanes == 1
            assert sup.retired
            kinds = [e.kind for e in report.degradations]
            assert kinds.count("lane-quarantine") == 2
            assert "lane-retired" in kinds
        finally:
            sup.close()

    def test_recovered_success_resets_the_consecutive_count(self):
        sup = LaneSupervisor(
            2,
            policy=fast_policy(quarantine_after=2),
            injector=ScriptedInjector({1: "kill", 3: "kill"}),
        )
        try:
            assert sup.map(slow_square, [1, 2]) == [1, 4]  # dispatch 1 dies, 2 clean
            assert sup.map(slow_square, [3, 4]) == [9, 16]  # dispatch 3 dies, 4 clean
            # Two isolated failures never reach quarantine_after=2.
            assert sup.stats.deaths == 2
            assert sup.stats.quarantines == 0
            assert not sup.retired
        finally:
            sup.close()


class TestLifecycle:
    def test_close_is_idempotent_and_retires(self):
        sup = LaneSupervisor(2)
        sup.close()
        sup.close()
        assert sup.retired
        assert sup.ensure_pool() is None

    def test_global_injector_hook(self):
        install_lane_injector(ScriptedInjector({1: "kill"}))
        try:
            sup = LaneSupervisor(2, policy=fast_policy())
            try:
                assert sup.map(slow_square, [7, 8]) == [49, 64]
                assert sup.stats.deaths == 1
            finally:
                sup.close()
        finally:
            clear_lane_injector()

    def test_clear_global_injector_disarms_it(self):
        install_lane_injector(ScriptedInjector({1: "kill"}))
        clear_lane_injector()
        sup = LaneSupervisor(2, policy=fast_policy())
        try:
            assert sup.map(square, [9]) == [81]
            assert sup.stats.failures == 0
        finally:
            sup.close()
