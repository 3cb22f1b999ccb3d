"""The database buffer: fix/unfix page access on top of the simulated disk.

Two buffer organisations are provided, mirroring the design alternatives
discussed in section 3.3 of the paper:

* :class:`BufferManager` — **one** buffer of a fixed byte budget holding
  pages of all five sizes at once, managed by a size-aware replacement
  policy (the paper's *modified LRU*, or the FIFO/CLOCK baselines).
* :class:`PartitionedBufferManager` — the rejected alternative: the byte
  budget is statically divided into five independent sub-buffers, one per
  page size, each with its own classic LRU.  The paper argues this is
  inflexible when reference patterns change; benchmark A1 measures that.

Pages are fixed (pinned) while in use and unfixed afterwards; fixed pages
are never evicted.  Dirty pages are written back on eviction or flush.

A miss costs O(1) Python work whatever the buffer size: one block read,
one header check (page number plus a CRC checksum computed in C), and one
victim probe per evicted page (see :mod:`repro.storage.replacement`).
Nothing on the miss path visits every frame.  A hit is one frame probe,
one counter call (``fixes`` and ``hits`` under one lock) and one recency
move.
"""

from __future__ import annotations

from repro.errors import BufferFullError, StorageError
from repro.storage.constants import PAGE_SIZES
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageId
from repro.storage.replacement import ReplacementPolicy, make_policy
from repro.util.stats import Counters


class _Frame:
    """One resident page: image plus pin/dirty bookkeeping."""

    __slots__ = ("page", "pins", "dirty")

    def __init__(self, page: Page) -> None:
        self.page = page
        self.pins = 0
        self.dirty = False


class BufferManager:
    """A single buffer with a byte budget shared by all page sizes.

    Counters maintained: ``fixes``, ``hits``, ``misses``, ``evictions``,
    ``dirty_writebacks``.  The hit ratio ``hits / fixes`` is the quantity
    buffer benchmarks report.
    """

    def __init__(self, disk: SimulatedDisk, capacity_bytes: int = 64 * 8192,
                 policy: str | ReplacementPolicy = "modified-lru",
                 counters: Counters | None = None) -> None:
        if capacity_bytes < min(PAGE_SIZES):
            raise StorageError(
                f"buffer of {capacity_bytes} bytes cannot hold even the "
                f"smallest page"
            )
        self.disk = disk
        self.capacity_bytes = capacity_bytes
        self.policy: ReplacementPolicy = (
            make_policy(policy) if isinstance(policy, str) else policy
        )
        self.counters = counters if counters is not None else Counters()
        self._frames: dict[PageId, _Frame] = {}
        self._used_bytes = 0

    # -- inspection -----------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def resident(self) -> set[PageId]:
        """Page ids currently held in the buffer."""
        return set(self._frames)

    def is_resident(self, page_id: PageId) -> bool:
        return page_id in self._frames

    def is_fixed(self, page_id: PageId) -> bool:
        frame = self._frames.get(page_id)
        return frame is not None and frame.pins > 0

    def hit_ratio(self) -> float:
        fixes = self.counters.get("fixes")
        return self.counters.get("hits") / fixes if fixes else 0.0

    # -- the fix/unfix protocol -------------------------------------------------

    def fix(self, page_id: PageId) -> Page:
        """Pin ``page_id`` in the buffer, loading it from disk on a miss."""
        frame = self._frames.get(page_id)
        if frame is not None:
            self.counters.bump_each("fixes", "hits")
            frame.pins += 1
            self.policy.on_access(page_id)
            return frame.page
        self.counters.bump_each("fixes", "misses")
        data = self.disk.read_block(page_id.segment, page_id.page_no)
        page = Page.from_bytes(data)
        # The page header exists "for identification, description, and
        # fault tolerance" (paper, 3.3): verify both on every miss.
        if page.page_no != page_id.page_no:
            raise StorageError(
                f"block {page_id} carries page number {page.page_no}"
            )
        if not page.verify_checksum():
            raise StorageError(f"checksum mismatch reading page {page_id}")
        self._admit(page_id, page, pins=1)
        return page

    def fix_new(self, page_id: PageId, page: Page, dirty: bool = True) -> Page:
        """Pin a page image that was not loaded through :meth:`fix`.

        Freshly formatted pages are dirty (default); pages admitted from a
        chained read already match their disk image and pass
        ``dirty=False``.
        """
        if page_id in self._frames:
            raise StorageError(f"page {page_id} is already resident")
        self._admit(page_id, page, pins=1, dirty=dirty)
        return page

    def unfix(self, page_id: PageId, dirty: bool = False) -> None:
        """Release one pin; ``dirty=True`` marks the image modified."""
        frame = self._frames.get(page_id)
        if frame is None or frame.pins == 0:
            raise StorageError(f"page {page_id} is not fixed")
        frame.pins -= 1
        if dirty:
            frame.dirty = True

    # -- internal admission/eviction ---------------------------------------------

    def _admit(self, page_id: PageId, page: Page, pins: int,
               dirty: bool = False) -> None:
        self._make_room(page.size)
        frame = _Frame(page)
        frame.pins = pins
        frame.dirty = dirty
        self._frames[page_id] = frame
        self._used_bytes += page.size
        self.policy.on_admit(page_id)

    def _make_room(self, needed: int) -> None:
        while self._used_bytes + needed > self.capacity_bytes:
            victim = self.policy.victim(self._unpinned)
            if victim is None:
                fixed = sum(1 for f in self._frames.values() if f.pins)
                raise BufferFullError(
                    f"cannot free {needed} bytes: {fixed} pages are fixed"
                )
            self._evict(victim)

    def _unpinned(self, page_id: PageId) -> bool:
        return self._frames[page_id].pins == 0

    def _evict(self, page_id: PageId) -> None:
        frame = self._frames.pop(page_id)
        self._used_bytes -= frame.page.size
        self.policy.on_evict(page_id)
        self.counters.bump("evictions")
        if frame.dirty:
            self._write_back(page_id, frame.page)

    def _write_back(self, page_id: PageId, page: Page) -> None:
        self.disk.write_block(page_id.segment, page_id.page_no, page.to_bytes())
        self.counters.bump("dirty_writebacks")

    # -- flushing ------------------------------------------------------------------

    def flush(self, page_id: PageId | None = None) -> None:
        """Write back dirty images; all of them when ``page_id`` is None."""
        if page_id is not None:
            frame = self._frames.get(page_id)
            if frame is not None and frame.dirty:
                self._write_back(page_id, frame.page)
                frame.dirty = False
            return
        for pid in sorted(self._frames):
            frame = self._frames[pid]
            if frame.dirty:
                self._write_back(pid, frame.page)
                frame.dirty = False

    def discard(self, page_id: PageId) -> None:
        """Drop a resident page without write-back (absent: no-op)."""
        frame = self._frames.pop(page_id, None)
        if frame is not None:
            self._used_bytes -= frame.page.size
            self.policy.on_evict(page_id)

    def drop_segment_pages(self, segment: str) -> None:
        """Discard all resident pages of a dropped segment (no write-back)."""
        for pid in [p for p in self._frames if p.segment == segment]:
            self.discard(pid)


class PartitionedBufferManager:
    """Statically partitioned buffer: one independent sub-buffer per size.

    The byte budget is split over the five page sizes according to
    ``shares`` (default: equal fifths).  Each partition runs classic LRU.
    Exposes the same interface as :class:`BufferManager` so the two are
    interchangeable in the storage system and in benchmarks.
    """

    def __init__(self, disk: SimulatedDisk, capacity_bytes: int = 64 * 8192,
                 shares: dict[int, float] | None = None,
                 counters: Counters | None = None) -> None:
        self.disk = disk
        self.capacity_bytes = capacity_bytes
        self.counters = counters if counters is not None else Counters()
        if shares is None:
            shares = {size: 1.0 / len(PAGE_SIZES) for size in PAGE_SIZES}
        unknown = set(shares) - set(PAGE_SIZES)
        if unknown:
            raise StorageError(f"shares given for unsupported page sizes {unknown}")
        total = sum(shares.values())
        self._parts: dict[int, BufferManager] = {}
        for size in PAGE_SIZES:
            share = shares.get(size, 0.0) / total
            budget = max(int(capacity_bytes * share), size)
            self._parts[size] = BufferManager(
                disk, capacity_bytes=budget, policy="modified-lru",
                counters=self.counters,
            )

    def partition(self, size: int) -> BufferManager:
        """The sub-buffer responsible for pages of ``size`` bytes."""
        try:
            return self._parts[size]
        except KeyError:
            raise StorageError(f"no partition for page size {size}") from None

    def _part_for(self, page_id: PageId) -> BufferManager:
        size = self.disk.file(page_id.segment).block_size
        return self.partition(size)

    # Interface-compatible delegates -------------------------------------------

    @property
    def used_bytes(self) -> int:
        return sum(part.used_bytes for part in self._parts.values())

    def resident(self) -> set[PageId]:
        out: set[PageId] = set()
        for part in self._parts.values():
            out |= part.resident()
        return out

    def is_resident(self, page_id: PageId) -> bool:
        return self._part_for(page_id).is_resident(page_id)

    def is_fixed(self, page_id: PageId) -> bool:
        return self._part_for(page_id).is_fixed(page_id)

    def hit_ratio(self) -> float:
        fixes = self.counters.get("fixes")
        return self.counters.get("hits") / fixes if fixes else 0.0

    def fix(self, page_id: PageId) -> Page:
        return self._part_for(page_id).fix(page_id)

    def fix_new(self, page_id: PageId, page: Page, dirty: bool = True) -> Page:
        return self.partition(page.size).fix_new(page_id, page, dirty)

    def unfix(self, page_id: PageId, dirty: bool = False) -> None:
        self._part_for(page_id).unfix(page_id, dirty)

    def flush(self, page_id: PageId | None = None) -> None:
        if page_id is not None:
            self._part_for(page_id).flush(page_id)
            return
        for part in self._parts.values():
            part.flush()

    def discard(self, page_id: PageId) -> None:
        self._part_for(page_id).discard(page_id)

    def drop_segment_pages(self, segment: str) -> None:
        for part in self._parts.values():
            part.drop_segment_pages(segment)
