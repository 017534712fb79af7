"""Exception hierarchy for the valid-time join library.

Every exception raised deliberately by the library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as ``TypeError``.

:class:`ReproError` carries optional *structured context* -- the extent,
device, and page index an error refers to, plus arbitrary further keys --
so fault-handling code (retry loops, degradation fallbacks, chaos-test
assertions) can dispatch on *where* a failure happened instead of parsing
the message.  Context keys are rendered into ``str(error)`` after the
message, e.g. ``page read failed [extent='r_part3', device=1, page_index=7]``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base class for all library-specific errors.

    Args:
        message: human-readable description.
        extent: name of the extent the error refers to, when applicable.
        device: device number the error refers to, when applicable.
        page_index: page index within the extent, when applicable.
        context: any further structured keys worth preserving.
    """

    def __init__(
        self,
        message: str = "",
        *,
        extent: Optional[str] = None,
        device: Optional[int] = None,
        page_index: Optional[int] = None,
        **context: Any,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.context: Dict[str, Any] = {}
        if extent is not None:
            self.context["extent"] = extent
        if device is not None:
            self.context["device"] = device
        if page_index is not None:
            self.context["page_index"] = page_index
        self.context.update(context)

    @property
    def extent(self) -> Optional[str]:
        return self.context.get("extent")

    @property
    def device(self) -> Optional[int]:
        return self.context.get("device")

    @property
    def page_index(self) -> Optional[int]:
        return self.context.get("page_index")

    def __str__(self) -> str:
        if not self.context:
            return self.message
        rendered = ", ".join(f"{key}={value!r}" for key, value in self.context.items())
        return f"{self.message} [{rendered}]"


class SchemaError(ReproError):
    """A relation schema is malformed or two schemas are incompatible."""


class StorageError(ReproError):
    """Invalid operation against the simulated storage layer."""


class BufferOverflowError(StorageError):
    """A buffer-pool reservation exceeded the configured memory size."""


class IOFaultError(StorageError):
    """An injected I/O fault surfaced from the simulated disk."""


class TransientIOFaultError(IOFaultError):
    """A single failed access attempt; the retry policy may recover it."""


class PermanentIOFaultError(IOFaultError):
    """An access kept failing after the retry policy was exhausted."""


class ChecksumError(StorageError):
    """Stored or serialized data failed checksum verification."""


class SimulatedCrashError(ReproError):
    """The fault injector killed the run at a scheduled operation count.

    Models whole-process death: nothing that lives only in simulated main
    memory survives it.  Durable state -- extents already written, committed
    checkpoints -- does, and ``resume_join`` restarts from there.
    """


class CheckpointError(ReproError):
    """A sweep checkpoint could not be written, committed, or restored."""


class LaneFailureError(ReproError):
    """A supervised worker lane crashed, hung, or raised mid-dispatch.

    Carries ``kind`` context (``"death"``/``"hang"``/``"error"``) so the
    :class:`~repro.resilience.supervisor.LaneSupervisor` can account the
    failure before re-dispatching the lost work deterministically.
    """


class PlanError(ReproError):
    """The partition planner could not produce a usable plan."""


class ServiceError(ReproError):
    """Base class for the concurrent query service (``repro.service``)."""


class AdmissionTimeoutError(ServiceError):
    """A memory-grant request waited past its admission timeout."""


class QueryCancelledError(ServiceError):
    """A submitted query was cancelled before it produced a result."""


class SessionClosedError(ServiceError):
    """An operation was issued on a closed (or never-opened) session."""


class CatalogError(ServiceError):
    """A versioned-catalog operation was invalid (unknown name, live view)."""


class QueryDeadlineError(ServiceError):
    """A query exceeded its per-query deadline budget (admission + execution)."""
