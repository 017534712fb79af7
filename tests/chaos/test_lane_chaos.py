"""Chaos tests for lane supervision: kill and hang real workers.

The acceptance contract under fire: a SIGKILLed lane and a hung lane must
each recover through the supervisor's deterministic re-dispatch with
results, ``JoinOutcome`` counters, and the full per-phase charged-I/O
ledgers **bit-identical** to an undisturbed run -- recovery visible only in
``lane-*`` degradation events and the supervisor's own ledger, never in the
charged bill -- and with no ``/dev/shm/repro_*`` entry left behind, in the
lane sweep and under concurrent service load.
"""

import pytest

from repro.core.partition_join import partition_join
from repro.exec.backend import HAVE_NUMPY
from repro.resilience import FaultInjector
from repro.resilience.supervisor import clear_lane_injector, install_lane_injector
from repro.storage.layout import DiskLayout

from tests.chaos.conftest import (
    CHAOS_SEED,
    SPEC,
    chaos_config,
    chaos_relation,
    shm_segments,
)

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="lane pools only dispatch with numpy workers"
)

if HAVE_NUMPY:
    from repro.exec import sweep_parallel as sweep

R = chaos_relation("lr", 400, CHAOS_SEED + 21)
S = chaos_relation("ls", 400, CHAOS_SEED + 22)

#: The pooled sweep modes, all of which must survive the same faults.
POOLED_MODES = ("batch-parallel-sweep",)

_BASELINES = {}


@pytest.fixture(autouse=True)
def no_leaked_segments():
    before = shm_segments()
    yield
    assert shm_segments() - before == set(), "a join leaked a /dev/shm entry"


@pytest.fixture
def forced_lanes(monkeypatch):
    """Force a real 2-lane pool even on a 1-core runner.

    The service path takes the default lane count, so the default itself is
    lifted to 2 as well (the join's answer never depends on it)."""
    monkeypatch.setattr(sweep, "OVERSUBSCRIBE", True)
    monkeypatch.setattr(sweep, "MIN_LANE_ROWS", 0)
    monkeypatch.setattr(sweep, "default_sweep_workers", lambda: 2)


def pooled_config(execution, **overrides):
    overrides.setdefault("sweep_workers", 2)
    overrides.setdefault("lane_timeout_seconds", 10.0)
    return chaos_config(execution, **overrides)


def undisturbed(execution):
    """A memoized pooled-but-undisturbed run of *execution* (per process)."""
    if execution not in _BASELINES:
        layout = DiskLayout(spec=SPEC, columnar=True)
        _BASELINES[execution] = partition_join(
            R, S, pooled_config(execution), layout=layout
        )
    return _BASELINES[execution]


def disturbed_layout(injector, execution):
    return DiskLayout(spec=SPEC, fault_injector=injector, columnar=True)


def assert_bit_identical(run, expected):
    """Results, outcome counters, AND the tagged charged-I/O ledgers."""
    assert list(run.result.tuples) == list(expected.result.tuples)
    assert run.outcome.n_result_tuples == expected.outcome.n_result_tuples
    assert run.outcome.overflow_blocks == expected.outcome.overflow_blocks
    assert run.outcome.cache_tuples_peak == expected.outcome.cache_tuples_peak
    assert (
        run.outcome.cache_tuples_spilled == expected.outcome.cache_tuples_spilled
    )
    # The supervisor's backoff lands on its own ledger, never the disk's:
    # every per-phase charged counter must match the undisturbed run.
    assert (
        run.layout.tracker.stats.as_dict()
        == expected.layout.tracker.stats.as_dict()
    )
    assert {
        name: stats.as_dict() for name, stats in run.layout.tracker.phases.items()
    } == {
        name: stats.as_dict()
        for name, stats in expected.layout.tracker.phases.items()
    }


def lane_kinds(layout):
    return [
        event.kind
        for event in layout.resilience_report.degradations
        if event.kind.startswith("lane-")
    ]


class TestLaneDeath:
    @pytest.mark.parametrize("execution", POOLED_MODES)
    def test_sigkilled_lane_recovers_bit_identical(self, forced_lanes, execution):
        injector = FaultInjector(seed=CHAOS_SEED)
        injector.kill_lane(at_dispatch=1)
        layout = disturbed_layout(injector, execution)
        run = partition_join(R, S, pooled_config(execution), layout=layout)
        assert "lane-death" in lane_kinds(layout)
        assert_bit_identical(run, undisturbed(execution))


class TestLaneHang:
    @pytest.mark.parametrize("execution", POOLED_MODES)
    def test_hung_lane_recovers_bit_identical(self, forced_lanes, execution):
        injector = FaultInjector(seed=CHAOS_SEED)
        injector.hang_lane(at_dispatch=1)
        layout = disturbed_layout(injector, execution)
        run = partition_join(
            R,
            S,
            pooled_config(execution, lane_timeout_seconds=0.5),
            layout=layout,
        )
        assert "lane-hang" in lane_kinds(layout)
        assert_bit_identical(run, undisturbed(execution))


class TestQuarantineLadder:
    def test_repeated_death_quarantines_then_retires(self, forced_lanes):
        """Kills on consecutive dispatch attempts walk 3 lanes -> 2 -> 1:
        two quarantines, then retirement to in-process -- same answer."""
        injector = FaultInjector(seed=CHAOS_SEED)
        injector.kill_lane(at_dispatch=1)
        injector.kill_lane(at_dispatch=2)  # the re-dispatch of attempt 1
        layout = disturbed_layout(injector, "batch-parallel-sweep")
        run = partition_join(
            R,
            S,
            pooled_config(
                "batch-parallel-sweep",
                sweep_workers=3,
                lane_quarantine_after=1,
            ),
            layout=layout,
        )
        kinds = lane_kinds(layout)
        assert kinds.count("lane-death") == 2
        assert kinds.count("lane-quarantine") == 2
        assert "lane-retired" in kinds
        base = partition_join(
            R,
            S,
            pooled_config(
                "batch-parallel-sweep", sweep_workers=3, lane_quarantine_after=1
            ),
            layout=DiskLayout(spec=SPEC, columnar=True),
        )
        assert_bit_identical(run, base)


class TestServiceUnderLaneChaos:
    def test_concurrent_service_load_survives_lane_death(self, forced_lanes):
        """Kill a lane while a service runs concurrent pooled queries: every
        query must answer exactly what an undisturbed service answers."""
        from repro.service import QueryService
        from repro.storage.page import PageSpec

        from tests.service.conftest import make_catalog, outcome_counters

        spec = PageSpec(page_bytes=256, tuple_bytes=32)

        def serve(injector=None):
            if injector is not None:
                install_lane_injector(injector)
            try:
                with QueryService(
                    make_catalog(220, 200, seed=CHAOS_SEED),
                    pool_pages=64,
                    memory_pages=8,
                    workers=3,
                    execution="batch-parallel-sweep",
                    page_spec=spec,
                    result_cache_entries=0,  # force every query to evaluate
                ) as svc:
                    sessions = [
                        svc.open_session(label=f"c{i}", method="partition")
                        for i in range(3)
                    ]
                    handles = [
                        session.submit_join("r", "s") for session in sessions
                    ]
                    results = [handle.result(120.0) for handle in handles]
                    for session in sessions:
                        session.close()
                    recovered = (
                        svc.metrics_snapshot()
                        .get("repro_service_lane_disturbed_total", {})
                        .get("series", {})
                        .get("", 0.0)
                    )
                    return results, recovered
            finally:
                clear_lane_injector()

        expected, baseline_recovered = serve()
        assert baseline_recovered == 0.0
        injector = FaultInjector(seed=CHAOS_SEED)
        injector.kill_lane(at_dispatch=1)
        disturbed, recovered = serve(injector)
        assert recovered >= 1.0, "the scripted lane kill never fired"

        assert len(disturbed) == len(expected) == 3
        for got, want in zip(disturbed, expected):
            assert list(got.relation.tuples) == list(want.relation.tuples)
            assert outcome_counters(got.outcome) == outcome_counters(want.outcome)
            assert got.charged_ops == want.charged_ops


#: Runs in a fresh interpreter: a lane-sweep join on a real 2-lane pool
#: with one lane SIGKILLed, then the OS's view of this process's children.
_KILLED_LANE_SCRIPT = """
import os, sys, time
from repro.core.partition_join import partition_join
from repro.exec import sweep_parallel as sweep
from repro.resilience import FaultInjector
from repro.storage.layout import DiskLayout
from tests.chaos.conftest import CHAOS_SEED, SPEC, chaos_config, chaos_relation

sweep.OVERSUBSCRIBE = True
sweep.MIN_LANE_ROWS = 0
injector = FaultInjector(seed=CHAOS_SEED)
injector.kill_lane(at_dispatch=1)
layout = DiskLayout(spec=SPEC, fault_injector=injector, columnar=True)
run = partition_join(
    chaos_relation("lr", 400, CHAOS_SEED + 21),
    chaos_relation("ls", 400, CHAOS_SEED + 22),
    chaos_config("batch-parallel-sweep", sweep_workers=2, lane_timeout_seconds=10.0),
    layout=layout,
)
assert "lane-death" in [e.kind for e in layout.resilience_report.degradations]


def children():
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    stat = handle.read()
            except OSError:
                continue
            if int(stat[stat.rfind(")") + 2 :].split()[1]) == os.getpid():
                found.append(entry)
    return found


deadline = time.monotonic() + 10.0
while children() and time.monotonic() < deadline:
    time.sleep(0.05)
print("children", len(children()), "results", run.outcome.n_result_tuples)
"""


class TestOsLevelHygiene:
    def test_killed_lane_leaves_nothing_behind(self):
        """As the OS sees it: a SIGKILLed lane leaves no child process, no
        ``/dev/shm/repro_*`` entry, and not one byte on stderr."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        before = shm_segments()
        done = subprocess.run(
            [sys.executable, "-c", _KILLED_LANE_SCRIPT],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert done.stdout.split()[:2] == ["children", "0"]
        assert int(done.stdout.split()[3]) == undisturbed(
            "batch-parallel-sweep"
        ).outcome.n_result_tuples
        assert shm_segments() - before == set()
