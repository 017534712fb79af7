"""Spans recorded from outside the program, around calls into its layers.

The traced run swaps a timing shim in for each module or class attribute
the public entry points call (``SHIMS``), records one :class:`Span` per
call -- name, start, end, parent span, thread, owning read -- keeps every
span in memory, and writes them out once at the end as a Chrome trace.
Nothing under ``src/`` changes and the program's own observability stays
off: these spans are the benchmark's view of the layer boundaries.

Parenting follows the calling thread.  A read opened in a client thread
hands its span to the service's executor thread through the shimmed
``QueryExecutor.submit``, so the work a worker thread does for a read
nests under that read.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One timed call.  ``read`` is the id of the read span it belongs to."""

    span_id: int
    name: str
    start: float
    parent: Optional[int]
    read: Optional[int]
    thread: int
    end: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """An in-memory span recorder with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        span = Span(
            span_id=span_id,
            name=name,
            start=time.perf_counter(),
            parent=parent.span_id if parent is not None else None,
            read=parent.read if parent is not None else span_id,
            thread=threading.get_ident(),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    @contextmanager
    def attached(self, parent: Optional[Span]) -> Iterator[None]:
        """Run this thread's next spans as children of another thread's span."""
        stack = self._stack()
        depth = len(stack)
        if parent is not None:
            stack.append(parent)
        try:
            yield
        finally:
            del stack[depth:]

    def annotate(self, **attrs: float) -> None:
        """Add counters to the innermost open span of this thread."""
        span = self.current()
        if span is not None:
            for key, value in attrs.items():
                span.attrs[key] = span.attrs.get(key, 0) + value

    def chrome_trace(self) -> Dict:
        """The spans as a Chrome ``trace_event`` document (microseconds)."""
        with self._lock:
            spans = sorted(self.spans, key=lambda s: s.start)
        origin = spans[0].start if spans else 0.0
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 1,
                "tid": span.thread,
                "args": {
                    "span": span.span_id,
                    "parent": span.parent,
                    "read": span.read,
                    **span.attrs,
                },
            }
            for span in spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- what each shim records besides its time ---------------------------------


def _plan_attrs(plan) -> Dict[str, float]:
    return {
        "plans": 1,
        "candidates": len(plan.curve),
        "sample_tuples": plan.chosen.n_samples if plan.chosen is not None else 0,
    }


def _outcome_attrs(outcome) -> Dict[str, float]:
    return {
        "overflow_blocks": outcome.overflow_blocks,
        "cache_tuples_spilled": outcome.cache_tuples_spilled,
        "result_tuples": outcome.n_result_tuples,
    }


def _run_attrs(run) -> Dict[str, float]:
    """Per-phase charged ops, partition count and degradations of a run."""
    attrs: Dict[str, float] = {
        f"{phase}_ops": stats.total_ops
        for phase, stats in run.layout.tracker.phases.items()
    }
    attrs["degradations"] = len(run.resilience.degradations)
    return attrs


def _grace_attrs(parts) -> Dict[str, float]:
    return {"partitions": len(parts)}


#: (module, class or None, attribute, span name or None, return -> counters).
#: A span name of None records only the counters, on the enclosing span: a
#: capture point that is not a layer of its own.
SHIMS: Tuple[Tuple[str, Optional[str], str, Optional[str], Optional[Callable]], ...] = (
    ("repro.engine.database", "TemporalDatabase", "join", "engine.join", None),
    ("repro.engine.database", None, "analyze", "engine.catalog.analyze", None),
    ("repro.engine.database", None, "partition_join", None, _run_attrs),
    ("repro.service.service", None, "analyze", "engine.catalog.analyze", None),
    ("repro.shard.coordinator", None, "analyze", "engine.catalog.analyze", None),
    ("repro.engine.catalog", "VersionedCatalog", "append", "engine.catalog.append", None),
    ("repro.engine.catalog", "VersionedCatalog", "delete", "engine.catalog.delete", None),
    ("repro.storage.layout", "DiskLayout", "place_relation", "storage.place", None),
    # ``repro.core.partition_join`` the attribute is the function of that
    # name; the module is only reachable through ``sys.modules``.
    ("repro.core.partition_join", None, "determine_part_intervals",
     "core.planner.plan", _plan_attrs),
    ("repro.core.partition_join", None, "do_partitioning",
     "core.partitioner.grace", _grace_attrs),
    ("repro.core.partition_join", None, "join_partitions",
     "core.joiner.sweep", _outcome_attrs),
    ("repro.exec.forward_sweep", None, "forward_sweep_join",
     "exec.forward_sweep.join", _outcome_attrs),
    ("repro.service.service", None, "partition_join", "service.evaluate", _run_attrs),
    ("repro.shard.partitioning", "ShardMap", "fragment",
     "shard.partitioning.fragment", None),
    ("repro.shard.transport", "Channel", "send", "shard.transport.send", None),
    ("repro.shard.transport", "Channel", "recv", "shard.transport.recv_wait", None),
    ("repro.shard.transport", None, "pack_result", "shard.transport.encode", None),
    ("repro.shard.transport", None, "unpack_result", "shard.transport.decode", None),
)


def _timed(tracer: Tracer, fn: Callable, name: str, attrs: Optional[Callable]):
    def shim(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
            if attrs is not None:
                tracer.annotate(**attrs(result))
            return result

    return shim


def _captured(tracer: Tracer, fn: Callable, attrs: Callable):
    def shim(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.annotate(**attrs(result))
        return result

    return shim


def _submit_shim(tracer: Tracer, submit: Callable):
    """``QueryExecutor.submit`` whose job runs under the submitting span."""

    def shim(self, fn, *args, **kwargs):
        parent = tracer.current()

        def job(handle):
            with tracer.attached(parent), tracer.span("executor.run"):
                return fn(handle)

        return submit(self, job, *args, **kwargs)

    return shim


class Shims:
    """Install every timing shim; :meth:`remove` restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self._saved: List[Tuple[object, str, object]] = []
        try:
            for module_name, class_name, attr, name, attrs in SHIMS:
                importlib.import_module(module_name)
                owner = sys.modules[module_name]
                if class_name is not None:
                    owner = getattr(owner, class_name)
                original = owner.__dict__[attr] if class_name else getattr(owner, attr)
                if name is None:
                    replacement = _captured(tracer, original, attrs)
                else:
                    replacement = _timed(tracer, original, name, attrs)
                self._install(owner, attr, original, replacement)
            executor = importlib.import_module("repro.service.executor").QueryExecutor
            self._install(
                executor, "submit", executor.submit, _submit_shim(tracer, executor.submit)
            )
        except (ImportError, AttributeError, KeyError):
            self.remove()
            raise

    def _install(self, owner, attr: str, original, replacement) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
