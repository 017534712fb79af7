"""Kill the sweep at the k-th I/O, resume, and demand bit-identical results.

The central resilience claim: a partition join interrupted at *any* charged
disk operation and restarted with :func:`repro.core.partition_join.
resume_join` produces exactly the tuples (and exactly the outcome counters)
of an uninterrupted run, in every execution mode -- including the pipelined
``"batch-parallel-sweep"``, whose prefetched pages and deferred writes are
volatile state that must vanish cleanly at the crash.
"""

import pytest

from repro.core.partition_join import partition_join, resume_join
from repro.model.errors import CheckpointError, SimulatedCrashError
from repro.resilience import FaultInjector, RecoveryLog
from repro.storage.layout import DiskLayout

from tests.chaos.conftest import (
    CHAOS_SEED,
    EXECUTION_MODES,
    SPEC,
    chaos_config,
    chaos_relation,
)

R = chaos_relation("r", 400, CHAOS_SEED + 1)
S = chaos_relation("s", 400, CHAOS_SEED + 2)

_ORACLES = {}


def columnar(execution):
    """The page layout :func:`partition_join` picks for *execution*."""
    return execution == "batch-parallel-sweep"


def oracle(execution):
    """The uninterrupted run each crashed run must reproduce exactly."""
    if execution not in _ORACLES:
        run = partition_join(
            R,
            S,
            chaos_config(execution),
            layout=DiskLayout(spec=SPEC, columnar=columnar(execution)),
        )
        _ORACLES[execution] = run
    return _ORACLES[execution]


def crashing_layout(at_op=None, execution="tuple"):
    injector = FaultInjector(seed=CHAOS_SEED)
    if at_op is not None:
        injector.schedule_crash(at_op=at_op)
    return DiskLayout(
        spec=SPEC,
        fault_injector=injector,
        checksums=True,
        columnar=columnar(execution),
    )


def assert_same_outcome(run, expected):
    assert list(run.result.tuples) == list(expected.result.tuples)
    assert run.outcome.n_result_tuples == expected.outcome.n_result_tuples
    assert run.outcome.overflow_blocks == expected.outcome.overflow_blocks
    assert run.outcome.cache_tuples_peak == expected.outcome.cache_tuples_peak
    assert run.outcome.cache_tuples_spilled == expected.outcome.cache_tuples_spilled


class TestCrashResume:
    @pytest.mark.parametrize("execution", EXECUTION_MODES)
    def test_crash_at_kth_op_resumes_bit_identical(self, execution):
        expected = oracle(execution)

        # Probe run: same checkpointed configuration, injector attached but
        # no crash armed -- its operation count bounds the crash sweep.
        probe_layout = crashing_layout(execution=execution)
        probe = partition_join(
            R, S, chaos_config(execution), layout=probe_layout, recovery=RecoveryLog()
        )
        assert_same_outcome(probe, expected)
        assert probe_layout.resilience_report.checkpoints_written >= 1
        total_ops = probe_layout.disk.fault_injector.ops_seen
        assert total_ops > 0

        stride = max(1, total_ops // 8)
        for k in range(1, total_ops + 1, stride):
            layout = crashing_layout(at_op=k, execution=execution)
            recovery = RecoveryLog()
            config = chaos_config(execution)
            try:
                run = partition_join(R, S, config, layout=layout, recovery=recovery)
            except SimulatedCrashError:
                run = resume_join(R, S, config, layout=layout, recovery=recovery)
                assert layout.resilience_report.resumes == 1
            assert_same_outcome(run, expected)

    def test_double_crash_needs_two_resumes(self):
        expected = oracle("tuple")
        layout = crashing_layout()
        injector = layout.disk.fault_injector
        recovery = RecoveryLog()
        config = chaos_config("tuple")

        # First crash mid-run, second crash re-armed during the resume.
        injector.schedule_crash(at_op=120)
        with pytest.raises(SimulatedCrashError):
            partition_join(R, S, config, layout=layout, recovery=recovery)
        injector.schedule_crash(at_op=injector.ops_seen + 150)
        with pytest.raises(SimulatedCrashError):
            resume_join(R, S, config, layout=layout, recovery=recovery)
        run = resume_join(R, S, config, layout=layout, recovery=recovery)

        assert_same_outcome(run, expected)
        assert layout.resilience_report.resumes == 2
        assert recovery.resumes == 2

    def test_resume_requires_checkpointing_enabled(self):
        config = chaos_config("tuple", checkpoint_interval=0)
        with pytest.raises(CheckpointError, match="checkpoint"):
            resume_join(
                R,
                S,
                config,
                layout=DiskLayout(spec=SPEC),
                recovery=RecoveryLog(),
            )


class TestPipelinedSweepCrash:
    """Mid-partition crashes of the pipelined sweep specifically.

    A crash between two checkpoint barriers catches the pipeline with pages
    read ahead but not consumed and cache tuples deferred but not written.
    Both are volatile: the resumed run must replay to bit-identical results,
    and the pipeline tags must stay consistent with the main buckets across
    the crash/resume boundary (a tag can only mark an op that was charged).
    """

    @pytest.mark.parametrize("fraction", [0.35, 0.55, 0.8])
    def test_crash_mid_partition_resumes_bit_identical(self, fraction):
        execution = "batch-parallel-sweep"
        expected = oracle(execution)

        probe_layout = crashing_layout(execution=execution)
        probe = partition_join(
            R, S, chaos_config(execution), layout=probe_layout, recovery=RecoveryLog()
        )
        assert_same_outcome(probe, expected)
        total_ops = probe_layout.disk.fault_injector.ops_seen

        k = max(1, int(total_ops * fraction))
        layout = crashing_layout(at_op=k, execution=execution)
        recovery = RecoveryLog()
        config = chaos_config(execution)
        try:
            run = partition_join(R, S, config, layout=layout, recovery=recovery)
        except SimulatedCrashError:
            run = resume_join(R, S, config, layout=layout, recovery=recovery)
            assert layout.resilience_report.resumes == 1
        assert_same_outcome(run, expected)

        stats = layout.tracker.stats
        assert stats.prefetch_reads <= stats.reads
        assert stats.writeback_writes <= stats.writes


class TestSwappedSinglePartitionResume:
    """Crash/resume through the single-partition shortcut's swap.

    When one relation fits in the buffer area, ``_single_partition_join``
    makes the *smaller* side the outer partition and compensates for the
    argument flip inside its own ``pair_fn`` wrapper.  The checkpointed
    context stores the partitions in that swapped orientation, so a resume
    that forgets the flip replays every pair payload-reversed -- identical
    counters, wrong tuples.  Regression for exactly that: r spans more
    pages than the buffer, s fits, so swap is forced.
    """

    #: 80 tuples = 10 pages of r (exceeds the 5-page outer area) against
    #: 16 tuples = 2 pages of s (fits): single partition, swapped.
    R_SMALL = chaos_relation("rswap", 80, CHAOS_SEED + 5)
    S_SMALL = chaos_relation("sswap", 16, CHAOS_SEED + 6)

    @pytest.mark.parametrize("execution", EXECUTION_MODES)
    def test_resume_preserves_pair_orientation(self, execution):
        config = chaos_config(execution)
        expected = partition_join(
            self.R_SMALL,
            self.S_SMALL,
            config,
            layout=DiskLayout(spec=SPEC, columnar=columnar(execution)),
        )
        assert expected.plan.num_partitions == 1

        probe_layout = crashing_layout(execution=execution)
        probe = partition_join(
            self.R_SMALL,
            self.S_SMALL,
            config,
            layout=probe_layout,
            recovery=RecoveryLog(),
        )
        assert_same_outcome(probe, expected)
        total_ops = probe_layout.disk.fault_injector.ops_seen

        stride = max(1, total_ops // 6)
        for k in range(1, total_ops + 1, stride):
            layout = crashing_layout(at_op=k, execution=execution)
            recovery = RecoveryLog()
            try:
                run = partition_join(
                    self.R_SMALL, self.S_SMALL, config, layout=layout, recovery=recovery
                )
            except SimulatedCrashError:
                run = resume_join(
                    self.R_SMALL, self.S_SMALL, config, layout=layout, recovery=recovery
                )
            assert_same_outcome(run, expected)


class TestCheckpointAccounting:
    def test_checkpoints_are_charged_io(self):
        plain_layout = DiskLayout(spec=SPEC)
        plain = partition_join(
            R, S, chaos_config("tuple", checkpoint_interval=0), layout=plain_layout
        )
        checked_layout = DiskLayout(spec=SPEC)
        checked = partition_join(
            R, S, chaos_config("tuple"), layout=checked_layout, recovery=RecoveryLog()
        )
        assert_same_outcome(checked, plain)
        report = checked_layout.resilience_report
        assert report.checkpoints_written >= 1
        # Checkpoint pages are real writes on the charged stream.
        assert (
            checked_layout.tracker.stats.total_ops
            > plain_layout.tracker.stats.total_ops
        )

    def test_uncrashed_run_commits_recovery_state(self):
        recovery = RecoveryLog()
        run = partition_join(
            R, S, chaos_config("tuple"), layout=DiskLayout(spec=SPEC), recovery=recovery
        )
        assert run.recovery is recovery
        assert recovery.resumable
        assert recovery.plan is not None
        assert recovery.checkpoint is not None
