"""Record containers: variable-length byte strings in slotted pages.

Physical records "are stored consecutively in 'containers' offered by the
storage system" (paper, 3.2).  A :class:`RecordContainer` owns one segment
and places records into its slotted pages, maintaining a simple free-space
inventory so inserts find a page without scanning the whole segment.

**Long records** — "the restriction to a certain page size ... is too
stringent, especially considering atom clusters and strings like texts and
images" (paper, 3.3) — are routed onto *page sequences* transparently: the
slotted page keeps a small stub, the bytes live on the sequence, and every
container operation (read, update, delete, scan) resolves the indirection,
so callers never see the difference.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import AccessError, PageOverflowError, RecordNotFoundError, StorageError
from repro.access.address import RecordId
from repro.storage.constants import PAGE_HEADER_SIZE, SLOT_ENTRY_SIZE
from repro.storage.page import PAGE_TYPE_DATA, PageId
from repro.storage.system import StorageSystem


class RecordContainer:
    """Insert/read/update/delete/scan of records in one segment."""

    def __init__(self, storage: StorageSystem, segment_name: str,
                 page_size: int = 8192) -> None:
        self._storage = storage
        self.segment_name = segment_name
        if not storage.segments.exists(segment_name):
            storage.create_segment(segment_name, page_size)
        self.page_size = storage.segment(segment_name).page_size
        self._max_record = self.page_size - PAGE_HEADER_SIZE - SLOT_ENTRY_SIZE
        #: page_no -> free-byte estimate, refreshed on every touch.
        self._free_space: dict[int, int] = {}
        self._record_count = 0
        #: Long-record indirection: stub RecordId -> page-sequence header.
        self._long: dict[RecordId, PageId] = {}

    @property
    def long_record_count(self) -> int:
        """Number of records currently routed onto page sequences."""
        return len(self._long)

    # -- inspection ---------------------------------------------------------------

    @property
    def record_count(self) -> int:
        return self._record_count

    def page_ids(self) -> list[PageId]:
        segment = self._storage.segment(self.segment_name)
        return [PageId(self.segment_name, no) for no in segment.page_numbers()]

    # -- operations ----------------------------------------------------------------

    def insert(self, payload: bytes) -> RecordId:
        """Store ``payload``; returns the new record's physical address.

        Payloads exceeding one page go onto a page sequence; the returned
        id addresses the stub, so the indirection is invisible.
        """
        if len(payload) > self._max_record:
            sequence = self._storage.sequences.create(self.segment_name)
            self._storage.sequences.write(sequence, payload)
            stub = self.insert(b"LONG")
            self._long[stub] = sequence
            return stub
        needed = len(payload) + SLOT_ENTRY_SIZE
        page_id = self._find_page(needed)
        if page_id is not None:
            try:
                with self._storage.page(page_id, write=True) as page:
                    slot = page.insert(payload)
                    self._free_space[page_id.page_no] = page.free_space
                self._record_count += 1
                return RecordId(page_id, slot)
            except PageOverflowError:
                # The free-space estimate was optimistic (tombstone bytes
                # plus directory growth); fall through to a fresh page.
                pass
        page_id = self._storage.allocate_page(self.segment_name)
        with self._storage.page(page_id, write=True) as page:
            slot = page.insert(payload)
            self._free_space[page_id.page_no] = page.free_space
        self._record_count += 1
        return RecordId(page_id, slot)

    def read(self, record_id: RecordId) -> bytes:
        """Return the record's byte string (an empty slot raises
        :class:`RecordNotFoundError`, any other storage failure its own
        :class:`StorageError`)."""
        page_id, slot = record_id
        if page_id.segment != self.segment_name:
            self._check_ownership(record_id)
        if self._long:
            sequence = self._long.get(record_id)
            if sequence is not None:
                return self._storage.sequences.read(sequence)
        with self._storage.page(page_id) as page:
            try:
                return page.read(slot)
            except StorageError as exc:
                raise RecordNotFoundError(str(exc)) from exc

    def update(self, record_id: RecordId, payload: bytes) -> RecordId:
        """Replace the record's bytes; may relocate (returns the new id)."""
        self._check_ownership(record_id)
        sequence = self._long.get(record_id)
        if sequence is not None:
            if len(payload) > self._max_record:
                self._storage.sequences.write(sequence, payload)
                return record_id
            # shrank below the threshold: back into the slotted page
            self._storage.sequences.drop(sequence)
            del self._long[record_id]
            self.delete(record_id)
            return self.insert(payload)
        if len(payload) > self._max_record:
            # grew past the threshold: move onto a page sequence
            self.delete(record_id)
            return self.insert(payload)
        with self._storage.page(record_id.page, write=True) as page:
            try:
                page.update(record_id.slot, payload)
            except PageOverflowError:
                pass  # move to another page below
            except StorageError as exc:
                raise RecordNotFoundError(str(exc)) from exc
            else:
                self._free_space[record_id.page.page_no] = page.free_space
                return record_id
        self.delete(record_id)
        return self.insert(payload)

    def delete(self, record_id: RecordId) -> None:
        """Remove the record (its page keeps serving other records)."""
        self._check_ownership(record_id)
        sequence = self._long.pop(record_id, None)
        if sequence is not None:
            self._storage.sequences.drop(sequence)
        with self._storage.page(record_id.page, write=True) as page:
            try:
                reclaimed = len(page.read(record_id.slot))
                page.delete(record_id.slot)
            except StorageError as exc:
                raise RecordNotFoundError(str(exc)) from exc
            # The tombstoned bytes are reclaimable by compaction, so
            # count them as free for placement decisions.
            self._free_space[record_id.page.page_no] = \
                page.free_space + reclaimed
        self._record_count -= 1

    def scan(self) -> Iterator[tuple[RecordId, bytes]]:
        """All records in physical (page, slot) order — the system-defined
        order of the atom-type scan.  Long records are resolved."""
        for page_id in self.page_ids():
            with self._storage.page(page_id) as page:
                if page.page_type != PAGE_TYPE_DATA:
                    continue   # page-sequence pages of long records
                entries = list(page.records())
            for slot, payload in entries:
                record_id = RecordId(page_id, slot)
                sequence = self._long.get(record_id)
                if sequence is not None:
                    yield record_id, self._storage.sequences.read(sequence)
                else:
                    yield record_id, payload

    def clear(self) -> None:
        """Delete every record (pages are freed)."""
        for sequence in self._long.values():
            self._storage.sequences.drop(sequence)
        self._long.clear()
        for page_id in self.page_ids():
            self._storage.free_page(page_id)
        self._free_space.clear()
        self._record_count = 0

    # -- internals ---------------------------------------------------------------------

    def _check_ownership(self, record_id: RecordId) -> None:
        if record_id.page.segment != self.segment_name:
            raise AccessError(
                f"record {record_id} does not belong to container "
                f"{self.segment_name!r}"
            )

    def _find_page(self, needed: int) -> PageId | None:
        for page_no, free in self._free_space.items():
            if free >= needed:
                return PageId(self.segment_name, page_no)
        return None
