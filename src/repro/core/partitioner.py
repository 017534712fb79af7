"""``doPartitioning`` (Section 3.2): Grace partitioning by valid time.

The input relation is scanned linearly; each tuple is placed in the page
buffer of the *last* partition its interval overlaps (Section 3.3's storage
rule) and buffers are flushed to the partition's extent as they fill.

Buffering follows the paper: "We reserve a single buffer page to hold a
page of the input relation, and divide the remaining buffer space evenly
among the partitions."  A per-bucket buffer of ``b`` pages flushes as one
run of ``b`` pages -- one random access plus ``b - 1`` sequential -- so
small memories flush small runs often and pay more random I/O, which is
exactly the partitioning-phase effect Section 4.2 reports.

**Execution modes.**  Tuple placement -- ``index_of_chronon`` of the
storage chronon -- is the CPU-bound part of this phase and runs per tuple
(``"tuple"``, the oracle) or per page through the batch ``locate`` kernel
(``"batch"``, ``"batch-parallel-sweep"``).  The batch modes route a
columnar source's rows as column entries instead of tuples.
In every mode the charged I/O -- the input scan and the bucket flush
sequence -- is issued in the identical serial order, so partition contents
and :class:`~repro.storage.iostats.PhaseTracker` counters are bit-identical
across modes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.intervals import PartitionMap
from repro.model.errors import PlanError
from repro.obs import span_or_null
from repro.storage.heapfile import HeapFile
from repro.storage.layout import DiskLayout

if TYPE_CHECKING:
    from repro.obs import Observability


def do_partitioning(
    source: HeapFile,
    partition_map: PartitionMap,
    layout: DiskLayout,
    name: str,
    memory_pages: int,
    *,
    placement: str = "last",
    execution: str = "tuple",
    obs: Optional["Observability"] = None,
) -> List[HeapFile]:
    """Partition *source* into one heap file per partitioning interval.

    Args:
        source: the relation to partition (scanned once, charged).
        partition_map: the partitioning intervals from the planner.
        layout: disk layout; partitions are created on the TEMP device.
        name: prefix for the partition extents (e.g. ``"r"``).
        memory_pages: total buffer pages available to the partitioning step;
            one is reserved for the input page, the rest split evenly across
            the partition buckets (minimum one page each -- the paper
            "assume[s] that the number of partitions is small" enough for
            this to hold, and the planner's ``partSize >= 1`` guarantees it
            can be satisfied at ``numPartitions <= buffSize``).
        placement: ``"last"`` stores each tuple in the last partition it
            overlaps (the paper's choice, paired with the backward sweep);
            ``"first"`` in the first (footnote 1's equivalent strategy,
            paired with the forward sweep).
        execution: ``"tuple"`` locates per tuple; ``"batch"`` and
            ``"batch-parallel-sweep"`` locate per page via the locate
            kernel and, over a columnar source, route column entries
            through :func:`_route_columns` (identical partitions either
            way).

    Returns:
        One heap file per partition, index-aligned with *partition_map*.
    """
    if placement not in ("last", "first"):
        raise PlanError(f"placement must be 'last' or 'first', got {placement!r}")
    if execution not in ("tuple", "batch", "batch-parallel-sweep"):
        raise PlanError(
            f"execution must be 'tuple', 'batch', or 'batch-parallel-sweep', "
            f"got {execution!r}"
        )
    n_partitions = len(partition_map)
    if memory_pages < 2:
        raise PlanError(f"partitioning needs >= 2 buffer pages, got {memory_pages}")
    bucket_buffer_pages = max(1, (memory_pages - 1) // n_partitions)

    with span_or_null(
        obs,
        "grace-partition",
        relation=name,
        partitions=n_partitions,
        execution=execution,
        placement=placement,
    ) as span:
        spec = source.spec
        # Size each partition extent for the worst case (the whole relation)
        # so overflow of the planner's estimate never fragments the extent.
        partitions = [
            layout.temp_file(f"{name}_part{i}", capacity_tuples=max(1, source.n_tuples))
            for i in range(n_partitions)
        ]
        buffers: List[List] = [[] for _ in range(n_partitions)]
        flush_threshold = bucket_buffer_pages * spec.capacity

        def route(tup, index: int) -> None:
            bucket = buffers[index]
            bucket.append(tup)
            if len(bucket) >= flush_threshold:
                _flush(partitions[index], bucket)
                buffers[index] = []

        if execution == "tuple":
            locate = (
                partition_map.last_overlapping
                if placement == "last"
                else partition_map.first_overlapping
            )
            for page in source.scan_pages():
                for tup in page:
                    route(tup, locate(tup.valid))
        else:
            from repro.exec.kernels import get_kernels

            kernels = get_kernels()
            boundaries = kernels.prepare_boundaries(partition_map)
            if source.dictionary is not None:
                # Columnar source: chronons come straight off the packed
                # column buffers and routing moves (start, end, code,
                # payload) column entries -- no tuple is materialized.
                pages = []
                located: List[int] = []
                for page in source.scan_pages():
                    pages.append(page)
                    chronons = (
                        page.ends_list() if placement == "last" else page.starts_list()
                    )
                    located.extend(kernels.locate(chronons, boundaries))
                _route_columns(
                    pages, located, partitions, source.dictionary, flush_threshold
                )
            else:
                for page in source.scan_pages():
                    batch = kernels.page_batch(page)
                    chronons = batch.ends if placement == "last" else batch.starts
                    for tup, index in zip(page, kernels.locate(chronons, boundaries)):
                        route(tup, index)

        for index, bucket in enumerate(buffers):
            if bucket:
                _flush(partitions[index], bucket)
        span.set(
            tuples=source.n_tuples,
            bucket_buffer_pages=bucket_buffer_pages,
        )
        return partitions


def _flush(partition: HeapFile, bucket: List) -> None:
    """Write a bucket's tuples as one contiguous run of pages."""
    partition.append_many(bucket)
    partition.flush()


def _route_columns(
    pages, located, partitions: List[HeapFile], dictionary, flush_threshold: int
) -> None:
    """Replay the routed flush loop over columnar pages.

    Rows move as column entries -- gathers from the packed page buffers
    into per-bucket column runs -- and flush through
    :meth:`HeapFile.append_coded_run`.  The partitions *share the source
    file's dictionary*, so key codes pass through untranslated: no
    ``dictionary.code`` lookup, no tuple re-decomposition on the write
    side.  Rows are processed in exactly the input order and buckets flush
    at exactly the thresholds of the tuple-routing path, so the charged
    TEMP-device access sequence is bit-identical.
    """
    for partition in partitions:
        partition.dictionary = dictionary
    from repro.exec.backend import HAVE_NUMPY

    if HAVE_NUMPY:
        _route_columns_numpy(pages, located, partitions, flush_threshold)
        return
    buffers = [([], [], [], []) for _ in partitions]
    position = 0
    for page in pages:
        n = len(page)
        page_located = located[position : position + n]
        position += n
        for start, end, code, payload, index in zip(
            page.starts_list(),
            page.ends_list(),
            page.codes_list(),
            page.payloads,
            page_located,
        ):
            bucket = buffers[index]
            bucket[0].append(start)
            bucket[1].append(end)
            bucket[2].append(code)
            bucket[3].append(payload)
            if len(bucket[0]) >= flush_threshold:
                partitions[index].append_coded_run(*bucket)
                buffers[index] = ([], [], [], [])
    for index, bucket in enumerate(buffers):
        if bucket[0]:
            partitions[index].append_coded_run(*bucket)


def _route_columns_numpy(
    pages, located, partitions: List[HeapFile], flush_threshold: int
) -> None:
    """Vectorized bucket routing: group each page's rows by partition index.

    A bucket holds its pending rows as ``(page, row-index array)`` segments
    instead of appending row by row; a flush gathers the column runs from
    the segments at once.  Flush *order* is what the serial loop defines, so
    it is replayed exactly: within one page a bucket can cross the flush
    threshold at most once (a page holds at most ``spec.capacity`` rows and
    ``flush_threshold >= spec.capacity`` since every bucket has at least one
    buffer page), so the crossings are totally ordered by the input-row
    position at which each bucket fills -- flushing in that order issues the
    identical TEMP-device access sequence.
    """
    from repro.exec.backend import np

    segments: List[List] = [[] for _ in partitions]
    sizes = [0] * len(partitions)

    def flush(bucket: int) -> None:
        starts: List[int] = []
        ends: List[int] = []
        codes: List[int] = []
        payloads: List = []
        for seg_page, rows in segments[bucket]:
            if rows is None:
                starts += seg_page.starts_list()
                ends += seg_page.ends_list()
                codes += seg_page.codes_list()
                payloads += seg_page.payloads
            else:
                starts += seg_page.starts_view()[rows].tolist()
                ends += seg_page.ends_view()[rows].tolist()
                codes += seg_page.codes_view()[rows].tolist()
                page_payloads = seg_page.payloads
                payloads += [page_payloads[i] for i in rows.tolist()]
        partitions[bucket].append_coded_run(starts, ends, codes, payloads)
        segments[bucket] = []
        sizes[bucket] = 0

    position = 0
    for page in pages:
        n = len(page)
        loc = np.asarray(located[position : position + n], dtype=np.int64)
        position += n
        # Stable argsort groups the rows by bucket while keeping each
        # group's indices in input order.
        order = np.argsort(loc, kind="stable")
        grouped = loc[order]
        buckets, first = np.unique(grouped, return_index=True)
        boundaries = first.tolist() + [n]
        crossings = []
        for k, bucket in enumerate(buckets.tolist()):
            rows = order[boundaries[k] : boundaries[k + 1]]
            need = flush_threshold - sizes[bucket]
            if len(rows) >= need:
                # This bucket fills at input row rows[need - 1].
                crossings.append((int(rows[need - 1]), bucket, rows, need))
            else:
                # A whole-page group needs no gather at flush time.
                segments[bucket].append((page, rows if len(rows) < n else None))
                sizes[bucket] += len(rows)
        crossings.sort()
        for _row, bucket, rows, need in crossings:
            segments[bucket].append((page, rows[:need]))
            flush(bucket)
            rest = rows[need:]
            if len(rest):
                segments[bucket].append((page, rest))
                sizes[bucket] = len(rest)
    for bucket in range(len(partitions)):
        if sizes[bucket]:
            flush(bucket)
