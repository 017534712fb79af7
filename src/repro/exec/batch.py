"""Columnar batches: the unit of work of the vectorized kernels.

A :class:`PageBatch` is a page of tuples decomposed into parallel columns --
interned key ids, start chronons, end chronons, and row indices back into
the original tuple list.  It is built **once per page** as the page passes
through memory; every kernel then operates on whole columns instead of
revisiting each tuple.

Keys are arbitrary Python tuples (the explicit join attributes), so they
cannot live in a numeric column directly.  A :class:`KeyInterner` maps each
distinct key to a small integer id; the build side of a join *interns*
(assigns fresh ids), the probe side *looks up* (unknown keys map to ``-1``
and can never match, which is exactly the hash-join semantics of
``probe_index.get(key, ())``).

The module also provides the batch (de)composition helpers shared by the
model layer and the columnar serialization format
(:func:`tuples_to_columns` / :func:`tuples_from_columns`), plus the
zero-copy batch path: :meth:`PageBatch.from_columnar` lifts a
:class:`~repro.storage.columnar_page.ColumnarPage` into a batch whose time
columns are views over the page buffer and whose key ids come from one
vectorized gather through a :class:`CodeTranslator` table instead of a
Python dict lookup per tuple.
"""

from __future__ import annotations

import threading

from bisect import bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exec.backend import HAVE_NUMPY, np
from repro.model.vtuple import VTTuple
from repro.time.interval import Interval


class KeyInterner:
    """Bidirectional key <-> dense-integer-id map shared across batches.

    ``version`` counts fresh interns; translation-table caches keyed on it
    (:class:`CodeTranslator`) invalidate exactly when the id space grew.
    The concrete id *values* never influence join results -- match sets are
    id-agnostic and emission order is restored by a final row-index sort --
    which is what makes sharing one interner across queries sound.
    """

    __slots__ = ("_ids", "version")

    def __init__(self) -> None:
        self._ids: Dict[Tuple, int] = {}
        self.version = 0

    def __len__(self) -> int:
        return len(self._ids)

    def intern(self, key: Tuple) -> int:
        """Id of *key*, assigning the next dense id on first sight."""
        ids = self._ids
        found = ids.get(key)
        if found is None:
            found = len(ids)
            ids[key] = found
            self.version += 1
        return found

    def lookup(self, key: Tuple) -> int:
        """Id of *key*, or ``-1`` when the key was never interned."""
        return self._ids.get(key, -1)

    def keys_in_id_order(self) -> List[Tuple]:
        """Every interned key, ordered by assigned id (snapshot copy)."""
        return list(self._ids)


class SharedKeyInterner(KeyInterner):
    """A :class:`KeyInterner` safe to share across a service's sessions.

    The service runs concurrent queries on worker threads; two joins over
    the same relation version may intern simultaneously.  ``intern`` is a
    read-modify-write on the id dict, so it takes a lock; ``lookup`` stays
    lock-free (a single ``dict.get``, atomic under the GIL, and ids are
    never reassigned or removed).
    """

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()

    def intern(self, key: Tuple) -> int:
        with self._lock:
            return super().intern(key)


class PageBatch:
    """One page of tuples in columnar form.

    Attributes:
        tuples: the page's tuples, in page order (kernels return row indices
            into this list; emission still hands whole :class:`VTTuple`
            objects to the pair function).
        key_ids: per-row interned key id (``-1`` = key unknown to the build
            side), or None when built without an interner (the partitioner
            only needs the time columns).
        starts: per-row valid-time start chronon.
        ends: per-row valid-time end chronon.

    Columns are numpy ``int64`` arrays under the numpy backend and plain
    lists under the fallback; the matching kernels consume them natively.
    """

    __slots__ = ("tuples", "key_ids", "starts", "ends")

    def __init__(self, tuples, key_ids, starts, ends) -> None:
        self.tuples = tuples
        self.key_ids = key_ids
        self.starts = starts
        self.ends = ends

    def __len__(self) -> int:
        return len(self.tuples)

    @classmethod
    def from_tuples(
        cls,
        tuples: Sequence[VTTuple],
        interner: Optional[KeyInterner] = None,
        *,
        intern: bool = False,
        use_numpy: bool = HAVE_NUMPY,
    ) -> "PageBatch":
        """Decompose *tuples* into columns.

        Args:
            tuples: the page (any tuple sequence works; pages are typical).
            interner: key dictionary shared with the other batches of the
                join; omit when key columns are not needed.
            intern: assign fresh ids for unseen keys (build side) instead of
                mapping them to ``-1`` (probe side).
            use_numpy: emit numpy columns; callers pass their kernels'
                backend so explicitly-chosen fallback kernels get lists even
                when numpy is importable.
        """
        n = len(tuples)
        key_ids: Optional[Sequence[int]]
        if interner is None:
            key_ids = None
        elif intern:
            key_ids = [interner.intern(tup.key) for tup in tuples]
        else:
            key_ids = [interner.lookup(tup.key) for tup in tuples]
        starts: Sequence[int] = [tup.valid.start for tup in tuples]
        ends: Sequence[int] = [tup.valid.end for tup in tuples]
        if use_numpy:
            if not HAVE_NUMPY:
                raise RuntimeError("numpy batches requested but numpy is unavailable")
            if n:
                starts = np.array(starts, dtype=np.int64)
                ends = np.array(ends, dtype=np.int64)
                if key_ids is not None:
                    key_ids = np.array(key_ids, dtype=np.int64)
            else:
                # Normalized empty columns: every column is int64 even when
                # the page is empty, so downstream concatenation/sorting
                # never sees a stray float64 from ``np.array([])``.
                starts = np.empty(0, np.int64)
                ends = np.empty(0, np.int64)
                if key_ids is not None:
                    key_ids = np.empty(0, np.int64)
        return cls(list(tuples), key_ids, starts, ends)

    @classmethod
    def from_columnar(
        cls,
        page,
        interner: Optional[KeyInterner] = None,
        *,
        intern: bool = False,
        use_numpy: bool = HAVE_NUMPY,
        translator: Optional["CodeTranslator"] = None,
    ) -> "PageBatch":
        """Lift a :class:`~repro.storage.columnar_page.ColumnarPage` into a
        batch without per-tuple work.

        The time columns are ``np.frombuffer`` views straight over the page
        buffer (plain lists under the fallback backend).  Key ids come from
        one vectorized gather ``table[codes]`` through the *translator*'s
        per-dictionary code->id table on the probe side; the build side
        interns row by row, in page order, exactly like the tuple path.
        The batch's ``tuples`` **is the page itself** -- a lazy Sequence
        that materializes a ``VTTuple`` only when a row is emitted.
        """
        n = page.n_rows
        if use_numpy:
            if not HAVE_NUMPY:
                raise RuntimeError("numpy batches requested but numpy is unavailable")
            starts = page.starts_view()
            ends = page.ends_view()
        else:
            starts = page.starts_list()
            ends = page.ends_list()
        key_ids: Optional[Sequence[int]]
        if interner is None:
            key_ids = None
        elif intern:
            # Build side: intern in row order so id assignment matches the
            # tuple path exactly.
            intern_one = interner.intern
            key_of = page.dictionary.key
            ids = [intern_one(key_of(code)) for code in page.codes_list()]
            key_ids = np.array(ids, dtype=np.int64) if use_numpy and n else (
                np.empty(0, np.int64) if use_numpy else ids
            )
        elif translator is not None:
            key_ids = translator.translate(page, use_numpy=use_numpy)
        else:
            lookup = interner.lookup
            key_of = page.dictionary.key
            ids = [lookup(key_of(code)) for code in page.codes_list()]
            key_ids = np.array(ids, dtype=np.int64) if use_numpy and n else (
                np.empty(0, np.int64) if use_numpy else ids
            )
        return cls(page, key_ids, starts, ends)


class CodeTranslator:
    """Caches per-dictionary code -> join-id translation tables.

    A columnar page stores relation-local key *codes* (dense, first-seen
    order at write time); a join works in interner *ids*.  The bridge is a
    dense table ``table[code] == interner.lookup(dictionary.key(code))``,
    built once per (dictionary, interner version) and reused for every page
    of the file -- the per-page cost collapses to one ``table[codes]``
    gather.  Tables are invalidated when the interner grows (a later block
    interned new keys, so ``-1`` entries may have become real ids) or when
    the dictionary grew (the file gained pages with fresh keys).
    """

    __slots__ = ("_interner", "_tables", "_interned")

    def __init__(self, interner: KeyInterner) -> None:
        self._interner = interner
        self._tables: Dict[int, Tuple[object, int, Sequence[int]]] = {}
        self._interned: Dict[int, Tuple[object, int]] = {}

    def ensure_interned(self, dictionary) -> None:
        """Intern every key of *dictionary* (build-side translation).

        ``translate`` uses read-only lookups (probe semantics: unknown keys
        map to ``-1``); an outer *index* build must assign real ids instead.
        Interning the whole dictionary once -- instead of per block tuple --
        is sound because id values never influence join results (see
        :class:`KeyInterner`), and it keeps the translation table cacheable
        across the blocks of a file."""
        cache_key = id(dictionary)
        n = len(dictionary)
        seen = self._interned.get(cache_key)
        if seen is not None and seen[0] is dictionary and seen[1] == n:
            return
        intern = self._interner.intern
        for key in dictionary.keys:
            intern(key)
        self._interned[cache_key] = (dictionary, n)

    def table_for(self, dictionary, *, use_numpy: bool = HAVE_NUMPY) -> Sequence[int]:
        """The code->id table of *dictionary* (cached until stale)."""
        cache_key = id(dictionary)
        version = self._interner.version
        n = len(dictionary)
        cached = self._tables.get(cache_key)
        if cached is not None:
            dict_ref, cached_version, table = cached
            if dict_ref is dictionary and cached_version == version and len(table) == n:
                return table
        lookup = self._interner.lookup
        ids = [lookup(key) for key in dictionary.keys]
        table: Sequence[int]
        if use_numpy:
            table = np.array(ids, dtype=np.int64) if n else np.empty(0, np.int64)
        else:
            table = ids
        self._tables[cache_key] = (dictionary, version, table)
        return table

    def translate(self, page, *, use_numpy: bool = HAVE_NUMPY) -> Sequence[int]:
        """Per-row join ids of *page* via one gather through the table."""
        table = self.table_for(page.dictionary, use_numpy=use_numpy)
        if use_numpy:
            if page.n_rows == 0:
                return np.empty(0, np.int64)
            return table[page.codes_view()]
        return [table[code] for code in page.codes_list()]


class ColumnarBlock(Sequence):
    """An outer block kept as columnar page segments (columnar lane sweep).

    Logically this is exactly the ``List[VTTuple]`` the row-oriented joiner
    assembles -- same rows, same order -- but the rows stay packed: the
    block is a list of ``(page, rows)`` segments, where ``rows`` is ``None``
    for a whole page or an ``int64`` index array for the survivors of a
    retained-tuple purge.  The probe index reads whole columns straight off
    the segments (:meth:`columns`), the partition-boundary purge is one
    vectorized ``searchsorted`` per segment (:meth:`purged`), and a tuple is
    materialized only when something downstream touches the row -- emission
    of a match, spilling an overflow block, or checkpointing.  Row
    materialization goes through each page's memoized :meth:`row`, so a row
    is built at most once however many blocks reference it.
    """

    __slots__ = ("_segments", "_offsets", "_len")

    def __init__(self, segments) -> None:
        self._segments = [
            (page, rows)
            for page, rows in segments
            if (len(page) if rows is None else len(rows))
        ]
        self._offsets: List[int] = []
        total = 0
        for page, rows in self._segments:
            self._offsets.append(total)
            total += len(page) if rows is None else len(rows)
        self._len = total

    # -- sequence protocol (lazy) -------------------------------------------

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._len))]
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError(f"row {index} out of range for {self._len}-row block")
        seg = bisect_right(self._offsets, index) - 1
        page, rows = self._segments[seg]
        offset = index - self._offsets[seg]
        return page.row(offset if rows is None else int(rows[offset]))

    def __iter__(self) -> Iterator[VTTuple]:
        for page, rows in self._segments:
            if rows is None:
                yield from page
            else:
                row = page.row
                for index in rows:
                    yield row(int(index))

    # -- column access (the index build path) -------------------------------

    def columns(self, translator: "CodeTranslator"):
        """``(key_ids, starts, ends)`` of the whole block, as int64 arrays.

        Key ids come from one interning gather per segment through the
        page dictionaries' translation tables; the time columns are sliced
        straight off the page buffers.  No tuple is materialized.
        """
        n = self._len
        key_ids = np.empty(n, np.int64)
        starts = np.empty(n, np.int64)
        ends = np.empty(n, np.int64)
        position = 0
        for page, rows in self._segments:
            translator.ensure_interned(page.dictionary)
            ids = translator.translate(page)
            if rows is None:
                count = len(page)
                key_ids[position : position + count] = ids
                starts[position : position + count] = page.starts_view()
                ends[position : position + count] = page.ends_view()
            else:
                count = len(rows)
                key_ids[position : position + count] = ids[rows]
                starts[position : position + count] = page.starts_view()[rows]
                ends[position : position + count] = page.ends_view()[rows]
            position += count
        return key_ids, starts, ends

    # -- vectorized retained-tuple purge -------------------------------------

    def _overlap_mask(self, page, rows, boundary_ends, last: int, index: int):
        """Which segment rows overlap partition *index* (edge-clamped).

        Vectorizes ``PartitionMap.overlaps_partition``:
        ``first_overlapping(valid) <= index <= last_overlapping(valid)``
        with ``bisect_left`` == ``searchsorted(side="left")`` and the same
        edge clamp.
        """
        starts = page.starts_view()
        ends = page.ends_view()
        if rows is not None:
            starts = starts[rows]
            ends = ends[rows]
        first = np.minimum(np.searchsorted(boundary_ends, starts, side="left"), last)
        last_part = np.minimum(np.searchsorted(boundary_ends, ends, side="left"), last)
        return (first <= index) & (index <= last_part)

    def _boundary_ends(self, partition_map):
        return np.asarray(
            [interval.end for interval in partition_map.intervals], dtype=np.int64
        )

    def purged(self, partition_map, index: int) -> "ColumnarBlock":
        """The sub-block of rows overlapping partition *index*, same order."""
        boundary_ends = self._boundary_ends(partition_map)
        last = len(partition_map) - 1
        segments = []
        for page, rows in self._segments:
            keep = self._overlap_mask(page, rows, boundary_ends, last, index)
            if keep.all():
                segments.append((page, rows))
                continue
            survivors = np.nonzero(keep)[0]
            if survivors.size:
                segments.append(
                    (page, survivors if rows is None else rows[survivors])
                )
        return ColumnarBlock(segments)

    def count_overlapping(self, partition_map, index: int) -> int:
        """How many rows overlap partition *index* (the prefetch predictor)."""
        boundary_ends = self._boundary_ends(partition_map)
        last = len(partition_map) - 1
        total = 0
        for page, rows in self._segments:
            total += int(
                self._overlap_mask(page, rows, boundary_ends, last, index).sum()
            )
        return total


def iter_page_batches(
    pages: Iterable[Sequence[VTTuple]],
    interner: Optional[KeyInterner] = None,
    *,
    intern: bool = False,
    use_numpy: bool = HAVE_NUMPY,
) -> Iterator[PageBatch]:
    """Wrap a page stream (e.g. ``HeapFile.scan_pages()``) into batches.

    I/O accounting is untouched: the underlying stream charges page reads
    exactly as it would tuple-at-a-time; only the in-memory representation
    changes.
    """
    for page in pages:
        yield PageBatch.from_tuples(
            page, interner, intern=intern, use_numpy=use_numpy
        )


# -- batch (de)composition of tuple sequences --------------------------------------


def tuples_to_columns(
    tuples: Iterable[VTTuple],
) -> Tuple[List[Tuple], List[Tuple], List[int], List[int]]:
    """Decompose *tuples* into ``(keys, payloads, starts, ends)`` columns."""
    keys: List[Tuple] = []
    payloads: List[Tuple] = []
    starts: List[int] = []
    ends: List[int] = []
    for tup in tuples:
        keys.append(tup.key)
        payloads.append(tup.payload)
        starts.append(tup.valid.start)
        ends.append(tup.valid.end)
    return keys, payloads, starts, ends


def tuples_from_columns(
    keys: Sequence[Tuple],
    payloads: Sequence[Tuple],
    starts: Sequence[int],
    ends: Sequence[int],
) -> List[VTTuple]:
    """Recompose columns produced by :func:`tuples_to_columns`."""
    if not (len(keys) == len(payloads) == len(starts) == len(ends)):
        raise ValueError("column lengths differ")
    return [
        VTTuple(tuple(key), tuple(payload), Interval(int(vs), int(ve)))
        for key, payload, vs, ve in zip(keys, payloads, starts, ends)
    ]
