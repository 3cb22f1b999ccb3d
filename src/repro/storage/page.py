"""Pages: the unit of transfer between buffer and disk.

Every page starts with the *usual page header used for identification,
description, and fault tolerance* (paper, section 3.3).  Data pages use a
classic slotted layout so the access system can store variable-length
physical records and address them stably by slot number even when records
move during compaction.

Layout of a slotted page (all integers little-endian)::

    offset 0   u16  magic            (0xDB87 -- "database 1987")
    offset 2   u32  page_no
    offset 6   u8   page_type
    offset 7   u8   flags
    offset 8   u16  slot_count       (entries in the slot directory)
    offset 10  u16  free_start       (first free byte after record area)
    offset 12  u16  free_end         (first byte of the slot directory)
    offset 14  u16  checksum         (low 16 bits of CRC-32, see below)
    ...        record area grows upward from PAGE_HEADER_SIZE
    ...        slot directory grows downward from the page end;
               each entry: u16 offset (0 = empty slot), u16 length

The maximum page size is 8 KByte, hence all offsets fit in u16.

The checksum is the low 16 bits of the CRC-32 (``zlib.crc32``) of every
page byte but the checksum field itself.  It is verified on every buffer
miss, so it must be cheap: CRC-32 runs in C, where a Python-level sum
over 8 KByte costs more than the rest of a miss together.  It is also
stronger: unlike an additive sum it catches two swapped bytes.
"""

from __future__ import annotations

import struct
import zlib
from typing import NamedTuple

from repro.errors import PageOverflowError, StorageError
from repro.storage.constants import PAGE_HEADER_SIZE, SLOT_ENTRY_SIZE, check_page_size

_MAGIC = 0xDB87
_HEADER = struct.Struct("<HIBBHHHH")
_CHECKSUM_AT = 14
_U16 = struct.Struct("<H")
#: One slot-directory entry: record offset (0 = empty slot), length.
_ENTRY = struct.Struct("<HH")

#: Page type tags stored in the header.
PAGE_TYPE_FREE = 0
PAGE_TYPE_DATA = 1
PAGE_TYPE_SEQUENCE_HEADER = 2
PAGE_TYPE_SEQUENCE_COMPONENT = 3
PAGE_TYPE_META = 4


class PageId(NamedTuple):
    """Globally unique page identifier: (segment name, page number).

    A named tuple, so the buffer's frame table and recency order hash
    and compare ids in C.
    """

    segment: str
    page_no: int

    def __repr__(self) -> str:
        return f"{self.segment}:{self.page_no}"


class Page:
    """A mutable in-buffer page image with slotted-record operations."""

    __slots__ = ("data",)

    def __init__(self, data: bytearray) -> None:
        if len(data) != check_page_size(len(data)):
            raise StorageError(f"bad page image length {len(data)}")
        self.data = data

    # -- construction ---------------------------------------------------------

    @classmethod
    def format(cls, size: int, page_no: int, page_type: int = PAGE_TYPE_DATA) -> "Page":
        """Create a freshly initialised empty page."""
        check_page_size(size)
        page = cls(bytearray(size))
        _HEADER.pack_into(page.data, 0, _MAGIC, page_no, page_type, 0,
                          0, PAGE_HEADER_SIZE, size, 0)
        return page

    @classmethod
    def from_bytes(cls, data: bytes) -> "Page":
        """Wrap a block image read from disk, verifying the header."""
        page = cls(bytearray(data))
        magic = page._field(0)
        if magic != _MAGIC:
            raise StorageError(f"bad page magic 0x{magic:04X}")
        return page

    def to_bytes(self) -> bytes:
        """Serialise for writing to disk, refreshing the checksum."""
        self._set_checksum()
        return bytes(self.data)

    # -- header accessors -----------------------------------------------------

    def _field(self, offset: int) -> int:
        return _U16.unpack_from(self.data, offset)[0]

    def _set_field(self, offset: int, value: int) -> None:
        _U16.pack_into(self.data, offset, value)

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def page_no(self) -> int:
        return struct.unpack_from("<I", self.data, 2)[0]

    @property
    def page_type(self) -> int:
        return self.data[6]

    @page_type.setter
    def page_type(self, value: int) -> None:
        self.data[6] = value

    @property
    def slot_count(self) -> int:
        return self._field(8)

    @property
    def free_start(self) -> int:
        return self._field(10)

    @property
    def free_end(self) -> int:
        return self._field(12)

    def _checksum(self) -> int:
        data = self.data
        head = zlib.crc32(data[:_CHECKSUM_AT])
        return zlib.crc32(data[_CHECKSUM_AT + 2:], head) & 0xFFFF

    def _set_checksum(self) -> None:
        self._set_field(_CHECKSUM_AT, self._checksum())

    def verify_checksum(self) -> bool:
        """True when the stored checksum matches the page contents."""
        return self._field(_CHECKSUM_AT) == self._checksum()

    # -- slot directory -------------------------------------------------------

    def _slot(self, slot: int) -> tuple[int, int]:
        data = self.data
        if not 0 <= slot < _U16.unpack_from(data, 8)[0]:
            raise StorageError(f"slot {slot} out of range on page {self.page_no}")
        return _ENTRY.unpack_from(data, len(data) - (slot + 1) * SLOT_ENTRY_SIZE)

    def _set_slot(self, slot: int, offset: int, length: int) -> None:
        data = self.data
        _ENTRY.pack_into(data, len(data) - (slot + 1) * SLOT_ENTRY_SIZE,
                         offset, length)

    def _offsets(self) -> tuple[int, ...]:
        """Every slot's record offset in slot order (0: empty), read in
        one C pass over the directory, which grows down from the page
        end (slot 0 last)."""
        data = self.data
        count = _U16.unpack_from(data, 8)[0]
        entries = struct.unpack_from(f"<{2 * count}H", data,
                                     len(data) - count * SLOT_ENTRY_SIZE)
        return entries[-2::-2]

    @property
    def free_space(self) -> int:
        """Contiguous free bytes between record area and slot directory."""
        return self.free_end - self.free_start

    def space_for(self, length: int) -> bool:
        """Can a new record of ``length`` bytes be inserted (new slot)?"""
        return self.free_space >= length + SLOT_ENTRY_SIZE

    # -- record operations ------------------------------------------------------

    def insert(self, payload: bytes) -> int:
        """Store ``payload`` in a free slot; returns the slot number."""
        needed = len(payload)
        # Reuse the lowest empty slot when one exists (offset 0 marks a
        # tombstone).
        offsets = self._offsets()
        slot = offsets.index(0) if 0 in offsets else None
        grows_directory = slot is None
        needed_total = needed + (SLOT_ENTRY_SIZE if grows_directory else 0)
        if self.free_space < needed_total:
            self._compact()
        if self.free_space < needed_total:
            raise PageOverflowError(
                f"page {self.page_no}: {needed} bytes do not fit "
                f"({self.free_space} free)"
            )
        offset = self.free_start
        self.data[offset:offset + needed] = payload
        self._set_field(10, offset + needed)
        if grows_directory:
            slot = self.slot_count
            self._set_field(12, self.free_end - SLOT_ENTRY_SIZE)
            self._set_field(8, self.slot_count + 1)
        self._set_slot(slot, offset, needed)
        return slot

    def read(self, slot: int) -> bytes:
        """Return the payload stored in ``slot``."""
        data = self.data
        if not 0 <= slot < _U16.unpack_from(data, 8)[0]:
            raise StorageError(f"slot {slot} out of range on page {self.page_no}")
        offset, length = _ENTRY.unpack_from(
            data, len(data) - (slot + 1) * SLOT_ENTRY_SIZE)
        if offset == 0:
            raise StorageError(f"slot {slot} on page {self.page_no} is empty")
        return bytes(data[offset:offset + length])

    def delete(self, slot: int) -> None:
        """Remove the record in ``slot`` (the slot becomes reusable)."""
        offset, _ = self._slot(slot)
        if offset == 0:
            raise StorageError(f"slot {slot} on page {self.page_no} is empty")
        self._set_slot(slot, 0, 0)

    def update(self, slot: int, payload: bytes) -> None:
        """Replace the record in ``slot`` with ``payload`` (may relocate)."""
        offset, length = self._slot(slot)
        if offset == 0:
            raise StorageError(f"slot {slot} on page {self.page_no} is empty")
        if len(payload) <= length:
            self.data[offset:offset + len(payload)] = payload
            self._set_slot(slot, offset, len(payload))
            return
        # Relocate within the page.  Save the old image first: compaction
        # moves records, so a failed grow must re-insert, not re-point.
        old_payload = bytes(self.data[offset:offset + length])
        self._set_slot(slot, 0, 0)
        if self.free_space < len(payload):
            self._compact()
        if self.free_space < len(payload):
            restore_offset = self.free_start
            self.data[restore_offset:restore_offset + length] = old_payload
            self._set_field(10, restore_offset + length)
            self._set_slot(slot, restore_offset, length)
            raise PageOverflowError(
                f"page {self.page_no}: update to {len(payload)} bytes does not fit"
            )
        new_offset = self.free_start
        self.data[new_offset:new_offset + len(payload)] = payload
        self._set_field(10, new_offset + len(payload))
        self._set_slot(slot, new_offset, len(payload))

    def slots(self) -> list[int]:
        """Slot numbers currently holding a record, in slot order."""
        return [slot for slot, offset in enumerate(self._offsets()) if offset]

    def records(self) -> list[tuple[int, bytes]]:
        """All (slot, payload) pairs on the page."""
        return [(s, self.read(s)) for s in self.slots()]

    def _compact(self) -> None:
        """Squeeze out holes left by deletes and shrinking updates.

        Slot numbers are stable record addresses (the access system stores
        them in its addressing structure), so the directory is never
        trimmed — tombstoned slots are reused by later inserts instead.
        """
        live = [(slot, self.read(slot)) for slot in self.slots()]
        cursor = PAGE_HEADER_SIZE
        images = []
        for slot, payload in live:
            images.append((slot, cursor, payload))
            cursor += len(payload)
        for slot, offset, payload in images:
            self.data[offset:offset + len(payload)] = payload
            self._set_slot(slot, offset, len(payload))
        self._set_field(10, cursor)

    # -- raw payload area (for page-sequence component pages) -------------------

    def write_payload(self, payload: bytes) -> None:
        """Overwrite the whole non-header area with ``payload``."""
        capacity = self.size - PAGE_HEADER_SIZE
        if len(payload) > capacity:
            raise PageOverflowError(
                f"payload of {len(payload)} bytes exceeds capacity {capacity}"
            )
        start = PAGE_HEADER_SIZE
        self.data[start:start + len(payload)] = payload
        self._set_field(8, 0)
        self._set_field(10, start + len(payload))
        self._set_field(12, self.size)

    def read_payload(self) -> bytes:
        """Return the raw payload previously written with write_payload."""
        return bytes(self.data[PAGE_HEADER_SIZE:self.free_start])

    @classmethod
    def payload_capacity(cls, size: int) -> int:
        """Raw payload capacity of a page of ``size`` bytes."""
        return check_page_size(size) - PAGE_HEADER_SIZE
