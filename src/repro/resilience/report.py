"""Structured reporting of what the resilience machinery did.

Every :class:`~repro.storage.disk.SimulatedDisk` owns a
:class:`ResilienceReport`; the disk records fault and retry events into it,
the joiner records checkpoints, resumes, and degradations.  A fault-free run
leaves the report empty, so asserting ``report.clean`` is a cheap way for
tests to prove no resilience path fired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass(frozen=True)
class DegradationEvent:
    """One graceful-degradation decision taken instead of aborting.

    Attributes:
        kind: ``"nested-loop-fallback"`` (permanent page failure, the join
            re-ran as a block nested loop over the base relations),
            ``"replan"`` (the buffer budget shrank before planning, the
            planner re-ran with a smaller ``partSize``),
            ``"buffer-reduction"`` (the budget shrank mid-sweep, the outer
            block was split -- the Section 3.4 overflow machinery),
            ``"pool-fallback"`` (a worker pool could not be used; the
            identical computation ran in-process), or one of the lane
            supervisor's ``"lane-*"`` kinds (``lane-death``, ``lane-hang``,
            ``lane-error``, ``lane-quarantine``, ``lane-retired`` -- see
            :mod:`repro.resilience.supervisor`).
            The ``lane-`` prefix is load-bearing: the service keeps
            lane-disturbed runs out of its result cache by that prefix.
        detail: human-readable description.
        position: sweep position the event applies to, when applicable.
    """

    kind: str
    detail: str
    position: Optional[int] = None


@dataclass
class ResilienceReport:
    """Counters and events accumulated across one storage stack's lifetime.

    Attributes:
        transient_read_faults: injected read faults that were retried.
        transient_write_faults: injected write faults that were retried.
        corruptions_detected: corrupted deliveries caught by checksums.
        corruptions_undetected: corrupted deliveries that went unnoticed
            (checksums disabled -- the injector knows, the reader does not).
        retries: re-issued access attempts.
        backoff_ops: charged backoff penalty operations.
        permanent_failures: context strings of accesses that exhausted the
            retry policy.
        checkpoints_written: committed sweep checkpoints.
        resumes: times a run was resumed from a checkpoint.
        degradations: graceful-degradation events, in order.
    """

    transient_read_faults: int = 0
    transient_write_faults: int = 0
    corruptions_detected: int = 0
    corruptions_undetected: int = 0
    retries: int = 0
    backoff_ops: int = 0
    permanent_failures: List[str] = field(default_factory=list)
    checkpoints_written: int = 0
    resumes: int = 0
    degradations: List[DegradationEvent] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when any degradation path replaced the planned evaluation."""
        return bool(self.degradations)

    @property
    def clean(self) -> bool:
        """True when no fault, retry, or degradation was ever recorded."""
        return (
            self.transient_read_faults == 0
            and self.transient_write_faults == 0
            and self.corruptions_detected == 0
            and self.corruptions_undetected == 0
            and self.retries == 0
            and not self.permanent_failures
            and not self.degradations
        )

    def record_degradation(
        self, kind: str, detail: str, position: Optional[int] = None
    ) -> DegradationEvent:
        """Append a degradation event and return it."""
        event = DegradationEvent(kind=kind, detail=detail, position=position)
        self.degradations.append(event)
        return event

    def summary(self) -> str:
        """One-line digest for logs and CLI output."""
        parts = []
        if self.retries:
            parts.append(f"{self.retries} retries (+{self.backoff_ops} backoff ops)")
        if self.corruptions_detected:
            parts.append(f"{self.corruptions_detected} corruptions detected")
        if self.corruptions_undetected:
            parts.append(f"{self.corruptions_undetected} corruptions UNDETECTED")
        if self.permanent_failures:
            parts.append(f"{len(self.permanent_failures)} permanent failures")
        if self.checkpoints_written:
            parts.append(f"{self.checkpoints_written} checkpoints")
        if self.resumes:
            parts.append(f"{self.resumes} resumes")
        for event in self.degradations:
            parts.append(f"degraded[{event.kind}]")
        return "; ".join(parts) if parts else "clean"
