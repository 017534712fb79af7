"""The benchmark's metric arithmetic, kept free of the program under test.

Every function here is a pure function of numbers, spans or counter
snapshots, so ``perfbench/tests`` can check the arithmetic on its own.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: Samples that must lie beyond the reported tail latency.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float]:
    """The sample at the highest percentile with *beyond* samples above it.

    Returns ``(value, percentile)``: with ``n`` samples that is the
    ``(n - beyond)``-th smallest one, the ``100 * (n - beyond) / n``-th
    percentile.  With ``beyond`` samples or fewer no percentile qualifies,
    and the maximum is returned as the 100th.
    """
    if not values:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def covered(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    clipped = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    reach = start
    for lo, hi in clipped:
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def self_times(spans) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    *spans* carry ``span_id``, ``parent``, ``start`` and ``end``; children
    may run on other threads and overlap each other, so coverage is the
    union of their intervals, not the sum of their durations.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: (span.end - span.start)
        - covered(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def flatten(report: Mapping, prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a nested report, keyed by dotted path."""
    flat: Dict[str, float] = {}
    for key, value in report.items():
        path = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(flatten(value, path + "."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[path] = value
    return flat


def delta(before: Mapping, after: Mapping) -> Dict[str, float]:
    """Counter growth between two snapshots (nested reports allowed).

    A counter present only in *after* started from zero.
    """
    old = flatten(before)
    return {key: value - old.get(key, 0) for key, value in flatten(after).items()}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0

