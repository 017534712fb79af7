"""Heap files: paged storage of valid-time relations over one extent.

A :class:`HeapFile` is the physical representation of a relation (or of a
partition, or of a sort run -- anything tuple-shaped) as a sequence of
fixed-capacity pages inside a single extent.  All reads and writes are
charged through the owning :class:`SimulatedDisk`.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.model.vtuple import VTTuple
from repro.storage.columnar_page import ColumnarPage, KeyDictionary, page_view
from repro.storage.disk import Extent, SimulatedDisk
from repro.storage.page import PageSpec


class HeapFile:
    """A paged file of tuples.

    Args:
        disk: the simulated disk holding the file.
        extent: the extent the pages live in.
        spec: page geometry.
        columnar: store pages in the packed zero-copy column layout
            (:class:`~repro.storage.columnar_page.ColumnarPage`) instead of
            tuple lists.  The logical content is identical -- a columnar
            page is a Sequence of the same tuples -- but batch consumers
            get ``np.frombuffer`` column views instead of re-decomposing
            each page tuple by tuple.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        extent: Extent,
        spec: PageSpec,
        *,
        columnar: bool = False,
    ) -> None:
        self.disk = disk
        self.extent = extent
        self.spec = spec
        self.columnar = columnar
        self.dictionary: Optional[KeyDictionary] = KeyDictionary() if columnar else None
        self._write_page: List[VTTuple] = []
        self._n_tuples = 0
        # Endpoint-sortedness metadata: True while every tuple has arrived
        # in (start, end) order.  The planner uses it to skip the forward
        # sweep's external-sort charge; one out-of-order append invalidates
        # it permanently (cheap incremental check, never a re-scan).
        self._endpoint_sorted = True
        self._last_span: Optional[Tuple[int, int]] = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(
        cls,
        disk: SimulatedDisk,
        name: str,
        spec: PageSpec,
        *,
        device: int = 0,
        capacity_tuples: int = 0,
        columnar: bool = False,
    ) -> "HeapFile":
        """Allocate a fresh heap file sized for *capacity_tuples*."""
        capacity_pages = max(1, spec.pages_for_tuples(capacity_tuples))
        extent = disk.allocate(name, device=device, capacity=capacity_pages)
        return cls(disk, extent, spec, columnar=columnar)

    @classmethod
    def bulk_load(
        cls,
        disk: SimulatedDisk,
        name: str,
        spec: PageSpec,
        tuples: Iterable[VTTuple],
        *,
        device: int = 0,
        columnar: bool = False,
    ) -> "HeapFile":
        """Create a file already containing *tuples*, without charging I/O.

        This is how base relations enter an experiment: the paper's
        measurements assume the inputs are on disk before evaluation begins.
        """
        tuple_list = list(tuples)
        heap = cls.create(
            disk,
            name,
            spec,
            device=device,
            capacity_tuples=max(1, len(tuple_list)),
            columnar=columnar,
        )
        capacity = spec.capacity
        chunks = [
            tuple_list[i : i + capacity] for i in range(0, len(tuple_list), capacity)
        ]
        pages: List[object]
        if columnar:
            pages = [
                ColumnarPage.from_tuples(chunk, heap.dictionary) for chunk in chunks
            ]
        else:
            pages = list(chunks)
        disk.load(heap.extent, pages)
        heap._n_tuples = len(tuple_list)
        last: Optional[Tuple[int, int]] = None
        sorted_so_far = True
        for tup in tuple_list:
            span = (tup.vs, tup.ve)
            if last is not None and span < last:
                sorted_so_far = False
                break
            last = span
        heap._endpoint_sorted = sorted_so_far
        heap._last_span = (
            (tuple_list[-1].vs, tuple_list[-1].ve) if tuple_list else None
        )
        return heap

    # -- geometry -----------------------------------------------------------------

    @property
    def n_pages(self) -> int:
        """Pages currently on disk (excludes the unflushed write buffer)."""
        return self.extent.n_pages

    @property
    def n_tuples(self) -> int:
        """Tuples stored, including any still in the write buffer."""
        return self._n_tuples

    @property
    def endpoint_sorted(self) -> bool:
        """True while every tuple arrived in ``(start, end)`` order.

        An empty file is trivially sorted.  The flag is maintained
        incrementally by :meth:`bulk_load`, :meth:`append` and
        :meth:`append_coded_run` (the columnar bulk path), and is
        conservative: rewinds and abandoned buffers clear it rather than
        re-scanning.
        """
        return self._endpoint_sorted

    def _note_span(self, start: int, end: int) -> None:
        span = (start, end)
        if self._last_span is not None and span < self._last_span:
            self._endpoint_sorted = False
        self._last_span = span

    # -- writing --------------------------------------------------------------------

    def append(self, tup: VTTuple) -> None:
        """Buffer *tup*; a full page is flushed to disk automatically."""
        if hasattr(tup, "vs"):
            self._note_span(tup.vs, tup.ve)
        else:
            # Opaque payloads (some harnesses store bare rows) carry no
            # timestamps; without spans the flag cannot be maintained.
            self._endpoint_sorted = False
            self._last_span = None
        self._write_page.append(tup)
        self._n_tuples += 1
        if len(self._write_page) >= self.spec.capacity:
            self.flush()

    def append_many(self, tuples: Iterable[VTTuple]) -> None:
        """Append every tuple of *tuples*."""
        for tup in tuples:
            self.append(tup)

    def flush(self) -> None:
        """Write the partial page buffer to disk (no-op when empty)."""
        if self._write_page:
            payload: object = self._write_page
            if self.columnar:
                payload = ColumnarPage.from_tuples(self._write_page, self.dictionary)
            self.disk.append(self.extent, payload)
            self._write_page = []

    def append_coded_run(
        self,
        starts: Sequence[int],
        ends: Sequence[int],
        codes: Sequence[int],
        payloads: Sequence[Tuple],
    ) -> None:
        """Append pre-coded columnar rows, packing pages directly.

        The columnar partitioner routes the source pages' columns here
        without ever materializing tuple objects; the caller guarantees
        *codes* are valid in this file's dictionary (the partitioner shares
        the source relation's dictionary with its partitions, so source
        codes pass through untranslated).  Writes exactly the page sequence
        ``append_many`` + ``flush`` would: one full page per
        ``spec.capacity`` rows and a final partial page, each charged as
        one append.
        """
        if not self.columnar or self.dictionary is None:
            raise ValueError("append_coded_run requires a columnar heap file")
        if self._write_page:
            self.flush()
        capacity = self.spec.capacity
        n = len(starts)
        for k in range(n):
            self._note_span(int(starts[k]), int(ends[k]))
        for i in range(0, n, capacity):
            j = min(i + capacity, n)
            packed = array("q")
            packed.extend(starts[i:j])
            packed.extend(ends[i:j])
            packed.extend(codes[i:j])
            page = ColumnarPage(
                packed.tobytes(), j - i, self.dictionary, tuple(payloads[i:j])
            )
            self.disk.append(self.extent, page)
        self._n_tuples += n

    def abandon(self) -> None:
        """Drop the unflushed write buffer without charging any I/O.

        Models losing volatile state in a crash: tuples that never reached a
        disk page simply disappear.  Used by the exception path of the sweep,
        where a charged flush would be I/O issued by a dead process.
        """
        self._n_tuples -= len(self._write_page)
        self._write_page = []
        if self._n_tuples > 0:
            # The dropped buffer may have carried the watermark span; without
            # re-scanning we can no longer vouch for the ordering.
            self._endpoint_sorted = False
        else:
            self._endpoint_sorted = True
            self._last_span = None

    def rewind_to(self, n_pages: int, n_tuples: int) -> None:
        """Roll the file back to a recorded watermark (uncharged).

        Discards every page beyond *n_pages*, any buffered partial page, and
        resets the tuple count to *n_tuples* -- how resume truncates the
        partial output of an interrupted sweep before replaying from the
        last checkpoint.
        """
        self.disk.truncate(self.extent, keep=n_pages)
        self._write_page = []
        self._n_tuples = n_tuples
        if n_tuples == 0:
            self._endpoint_sorted = True
            self._last_span = None
        else:
            # Conservative: the watermark span of the surviving prefix is
            # unknown without a re-scan.
            self._endpoint_sorted = False

    # -- reading --------------------------------------------------------------------

    def read_page(self, index: int):
        """Read page *index*, charging one I/O.

        List pages are handed out as defensive copies; columnar pages are
        immutable and handed out as-is (that unshared copy is exactly the
        per-read cost the columnar layout removes).
        """
        return page_view(self.disk.read(self.extent, index))

    def scan_pages(self) -> Iterator[List[VTTuple]]:
        """Scan the file page by page, charging one I/O each.

        Over a freshly allocated extent this costs one random access plus
        ``n_pages - 1`` sequential accesses, matching the paper's accounting
        for a linear relation scan.
        """
        for index in range(self.extent.n_pages):
            yield page_view(self.disk.read(self.extent, index))

    def scan(self) -> Iterator[VTTuple]:
        """Scan the file tuple by tuple (page I/O charged underneath)."""
        for page in self.scan_pages():
            yield from page

    # -- verification (uncharged) -------------------------------------------------------

    def all_tuples(self) -> List[VTTuple]:
        """Every stored tuple, *without* charging I/O (tests and setup only)."""
        tuples: List[VTTuple] = []
        for index in range(self.extent.n_pages):
            tuples.extend(self.disk.peek(self.extent, index))
        tuples.extend(self._write_page)
        return tuples

    def page_of_tuple(self, position: int) -> int:
        """Page index holding the tuple at flat *position* (for sampling cost)."""
        return position // self.spec.capacity

    def read_tuple(self, position: int) -> Optional[VTTuple]:
        """Random-read the tuple at flat *position*, charging one page I/O."""
        page_index = self.page_of_tuple(position)
        page = self.read_page(page_index)
        offset = position - page_index * self.spec.capacity
        if offset >= len(page):
            return None
        return page[offset]
