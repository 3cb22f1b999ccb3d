"""The storage system facade: segments + buffer + page sequences.

This is the interface the access system programs against (Fig. 3.1:
"page allocation structures -> page-oriented").  It bundles

* a :class:`~repro.storage.segment.SegmentDirectory` over a simulated disk,
* a buffer manager (single size-aware buffer or static partitions),
* page allocation with buffered first writes,
* and the :class:`~repro.storage.page_sequence.PageSequenceManager`.

:meth:`StorageSystem.page` is the one way the access system reaches a
page (fix on entry, unfix on exit, also when the block raises).  It runs
once per record read, so a buffer hit through it costs a handful of
Python calls: the scope object is a tuple built in C, entry is one
buffer fix, exit one unfix.
"""

from __future__ import annotations

from repro.errors import PageNotFoundError
from repro.storage.buffer import BufferManager, PartitionedBufferManager
from repro.storage.constants import DEFAULT_PAGE_SIZE
from repro.storage.disk import DiskGeometry, SimulatedDisk
from repro.storage.page import PAGE_TYPE_DATA, Page, PageId
from repro.storage.page_sequence import PageSequenceManager
from repro.storage.segment import Segment, SegmentDirectory
from repro.util.stats import Counters


class _PageScope(tuple):
    """One scoped fix: ``(buffer, page_id, write)``.

    A tuple subclass, so building it runs no Python code; ``__exit__``
    unfixes whether or not the block raised.
    """

    __slots__ = ()

    def __enter__(self) -> Page:
        return self[0].fix(self[1])

    def __exit__(self, _type: object, _value: object, _tb: object) -> None:
        self[0].unfix(self[1], self[2])


class StorageSystem:
    """Everything below the access system, behind one object."""

    def __init__(self, buffer_capacity: int = 256 * 8192,
                 policy: str = "modified-lru",
                 partitioned: bool = False,
                 geometry: DiskGeometry | None = None) -> None:
        self.counters = Counters()
        self.disk = SimulatedDisk(geometry=geometry)
        self.segments = SegmentDirectory(self.disk)
        if partitioned:
            self.buffer: BufferManager | PartitionedBufferManager = (
                PartitionedBufferManager(self.disk, buffer_capacity,
                                         counters=self.counters)
            )
        else:
            self.buffer = BufferManager(self.disk, buffer_capacity,
                                        policy=policy, counters=self.counters)
        self.sequences = PageSequenceManager(self)

    # -- segments ---------------------------------------------------------------

    def create_segment(self, name: str, page_size: int = DEFAULT_PAGE_SIZE) -> Segment:
        """Create a segment whose pages all have ``page_size`` bytes."""
        return self.segments.create(name, page_size)

    def drop_segment(self, name: str) -> None:
        """Drop a segment, discarding its buffered pages without write-back."""
        self.buffer.drop_segment_pages(name)
        self.segments.drop(name)

    def segment(self, name: str) -> Segment:
        return self.segments.get(name)

    # -- pages ---------------------------------------------------------------------

    def allocate_page(self, segment_name: str,
                      page_type: int = PAGE_TYPE_DATA) -> PageId:
        """Allocate and buffer a fresh page; returns its id (page unfixed)."""
        segment = self.segments.get(segment_name)
        page_id, page = segment.allocate(page_type)
        self.buffer.fix_new(page_id, page)
        self.buffer.unfix(page_id, dirty=True)
        return page_id

    def free_page(self, page_id: PageId) -> None:
        """Free a page; its buffered image is discarded."""
        segment = self.segments.get(page_id.segment)
        if not segment.owns(page_id.page_no):
            raise PageNotFoundError(f"page {page_id} is not allocated")
        self.buffer.discard(page_id)   # freed pages are never written back
        segment.free(page_id.page_no)

    def fix(self, page_id: PageId) -> Page:
        """Pin a page in the buffer (loading it on a miss)."""
        return self.buffer.fix(page_id)

    def unfix(self, page_id: PageId, dirty: bool = False) -> None:
        """Release a pin, optionally marking the page modified."""
        self.buffer.unfix(page_id, dirty)

    def page(self, page_id: PageId, write: bool = False) -> _PageScope:
        """Scoped fix/unfix: ``with storage.page(pid, write=True) as p: ...``

        The page is fixed when the ``with`` block is entered and unfixed
        when it is left, marked modified when ``write`` is true, also
        when the block raises.
        """
        return _PageScope((self.buffer, page_id, write))

    def flush(self) -> None:
        """Write every dirty buffered page back to disk."""
        self.buffer.flush()

    # -- reporting --------------------------------------------------------------

    def io_report(self) -> dict[str, float | int]:
        """Disk and buffer counters in one dictionary (for benchmarks)."""
        report: dict[str, float | int] = dict(self.disk.counters.snapshot())
        report.update(self.counters.snapshot())
        report["io_time_ms"] = round(self.disk.io_time_ms, 3)
        return report

    def reset_accounting(self) -> None:
        """Zero disk and buffer counters (resident pages are kept)."""
        self.disk.reset_accounting()
        self.counters.reset()
