"""Page sequences: arbitrary-length containers (paper, section 3.3).

The five page sizes do not meet the access system's need for containers of
arbitrary length (atom clusters, long strings like texts and images).  The
storage system therefore offers *page sequences*: one **header page**
carrying the usual page header plus a *page-sequence header* — the list of
all component pages — and any number of **component pages** holding the
payload.  A page sequence is read as a whole with chained I/O (its pages
are written back through the buffer like any other page), and an
auxiliary addressing structure provides *relative addressing* within
the sequence, giving fast access to single atoms of an atom cluster
(Fig. 3.2c).

On-page encoding of the sequence header payload::

    u32 total_length     (bytes of payload stored across components)
    u32 component_count
    u32 component_page_no  * component_count
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from repro.errors import StorageError
from repro.storage.page import (
    PAGE_TYPE_SEQUENCE_COMPONENT,
    PAGE_TYPE_SEQUENCE_HEADER,
    Page,
    PageId,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.system import StorageSystem

_U32 = struct.Struct("<I")


def _encode_header(total_length: int, components: list[int]) -> bytes:
    parts = [_U32.pack(total_length), _U32.pack(len(components))]
    parts.extend(_U32.pack(no) for no in components)
    return b"".join(parts)

def _decode_header(payload: bytes) -> tuple[int, list[int]]:
    if len(payload) < 8:
        raise StorageError("corrupt page-sequence header")
    total_length = _U32.unpack_from(payload, 0)[0]
    count = _U32.unpack_from(payload, 4)[0]
    components = [
        _U32.unpack_from(payload, 8 + 4 * i)[0] for i in range(count)
    ]
    return total_length, components


class PageSequenceManager:
    """Create, read, write and drop page sequences on a storage system."""

    def __init__(self, storage: "StorageSystem") -> None:
        self._storage = storage

    # -- lifecycle ---------------------------------------------------------------

    def create(self, segment_name: str) -> PageId:
        """Create an empty page sequence; returns the header page id."""
        header_id = self._storage.allocate_page(
            segment_name, PAGE_TYPE_SEQUENCE_HEADER
        )
        with self._storage.page(header_id, write=True) as header:
            header.write_payload(_encode_header(0, []))
        return header_id

    def drop(self, header_id: PageId) -> None:
        """Free the header page and every component page."""
        _, components = self._read_header(header_id)
        for page_no in components:
            self._storage.free_page(PageId(header_id.segment, page_no))
        self._storage.free_page(header_id)

    # -- whole-sequence I/O ---------------------------------------------------------

    def write(self, header_id: PageId, payload: bytes) -> None:
        """Replace the sequence contents with ``payload`` (any length).

        Component pages are allocated or freed as the length requires; the
        write-back itself happens through the buffer like any page write.
        """
        segment = self._storage.segment(header_id.segment)
        chunk = Page.payload_capacity(segment.page_size)
        needed = (len(payload) + chunk - 1) // chunk if payload else 0
        _, components = self._read_header(header_id)

        while len(components) < needed:
            page_id = self._storage.allocate_page(
                header_id.segment, PAGE_TYPE_SEQUENCE_COMPONENT
            )
            components.append(page_id.page_no)
        while len(components) > needed:
            page_no = components.pop()
            self._storage.free_page(PageId(header_id.segment, page_no))

        for index, page_no in enumerate(components):
            piece = payload[index * chunk:(index + 1) * chunk]
            component_id = PageId(header_id.segment, page_no)
            with self._storage.page(component_id, write=True) as page:
                page.page_type = PAGE_TYPE_SEQUENCE_COMPONENT
                page.write_payload(piece)

        with self._storage.page(header_id, write=True) as header:
            header.write_payload(_encode_header(len(payload), components))

    def read(self, header_id: PageId, chained: bool = True) -> bytes:
        """Read the whole sequence.

        With ``chained=True`` (the default) component pages that are not
        buffer-resident are fetched from disk in **one chained-I/O
        request** — the optimal transfer the paper attributes to the file
        manager's cluster mechanism.  With ``chained=False`` every page is
        fetched individually (benchmark A7 contrasts the two).
        """
        total_length, components = self._read_header(header_id)
        if not components:
            return b""
        segment_name = header_id.segment
        pieces: dict[int, bytes] = {}
        if chained:
            is_resident = self._storage.buffer.is_resident
            missing = [
                no for no in components
                if not is_resident(PageId(segment_name, no))
            ]
            if missing:
                blocks = self._storage.disk.read_chained(segment_name, missing)
                for no, data in zip(missing, blocks):
                    page = Page.from_bytes(data)
                    if not page.verify_checksum():
                        raise StorageError(
                            f"checksum mismatch in page sequence component "
                            f"{segment_name}:{no}"
                        )
                    page_id = PageId(segment_name, no)
                    self._storage.buffer.fix_new(page_id, page, dirty=False)
                    self._storage.buffer.unfix(page_id)
                    pieces[no] = page.read_payload()
        for no in components:
            if no in pieces:
                continue
            with self._storage.page(PageId(segment_name, no)) as page:
                pieces[no] = page.read_payload()
        payload = b"".join(pieces[no] for no in components)
        if len(payload) != total_length:
            raise StorageError(
                f"page sequence {header_id}: expected {total_length} bytes, "
                f"reassembled {len(payload)}"
            )
        return payload

    # -- relative addressing ---------------------------------------------------------

    def length(self, header_id: PageId) -> int:
        """Current payload length of the sequence in bytes."""
        return self._read_header(header_id)[0]

    def component_pages(self, header_id: PageId) -> list[PageId]:
        """Ids of the component pages, in payload order."""
        _, components = self._read_header(header_id)
        return [PageId(header_id.segment, no) for no in components]

    def read_slice(self, header_id: PageId, offset: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``offset``.

        Only the component pages covering the byte range are touched —
        this is the *relative addressing within the page sequence* that
        achieves faster access to single atoms of an atom cluster.
        """
        if offset < 0 or length < 0:
            raise StorageError("negative offset/length in read_slice")
        total_length, components = self._read_header(header_id)
        if offset + length > total_length:
            raise StorageError(
                f"slice [{offset}, {offset + length}) exceeds sequence "
                f"length {total_length}"
            )
        if length == 0:
            return b""
        segment = self._storage.segment(header_id.segment)
        chunk = Page.payload_capacity(segment.page_size)
        first = offset // chunk
        last = (offset + length - 1) // chunk
        pieces: list[bytes] = []
        for index in range(first, last + 1):
            page_id = PageId(header_id.segment, components[index])
            with self._storage.page(page_id) as page:
                pieces.append(page.read_payload())
        blob = b"".join(pieces)
        start = offset - first * chunk
        return blob[start:start + length]

    # -- internals --------------------------------------------------------------------

    def _read_header(self, header_id: PageId) -> tuple[int, list[int]]:
        with self._storage.page(header_id) as header:
            if header.page_type != PAGE_TYPE_SEQUENCE_HEADER:
                raise StorageError(f"page {header_id} is not a sequence header")
            return _decode_header(header.read_payload())
