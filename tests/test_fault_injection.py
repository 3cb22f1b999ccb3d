"""Fault-injection tests: the page header's fault-tolerance role (3.3)."""

import pytest

from repro import Prima
from repro.errors import StorageError
from repro.storage.page import Page, PageId
from repro.storage.system import StorageSystem


@pytest.fixture
def flushed_storage():
    storage = StorageSystem(buffer_capacity=4 * 8192)
    storage.create_segment("data", 512)
    pid = storage.allocate_page("data")
    with storage.page(pid, write=True) as page:
        page.insert(b"precious payload")
    storage.flush()
    storage.buffer.discard(pid)   # the next fix reads from disk
    return storage, pid


class TestChecksumVerification:
    def test_clean_block_reads_fine(self, flushed_storage):
        storage, pid = flushed_storage
        with storage.page(pid) as page:
            assert page.read(0) == b"precious payload"

    def test_flipped_bit_detected(self, flushed_storage):
        storage, pid = flushed_storage
        handle = storage.disk.file("data")
        image = bytearray(handle._blocks[pid.page_no])  # noqa: SLF001
        image[100] ^= 0xFF
        handle._blocks[pid.page_no] = bytes(image)  # noqa: SLF001
        with pytest.raises(StorageError) as err:
            storage.fix(pid)
        assert "checksum" in str(err.value)

    def test_swapped_blocks_detected(self, flushed_storage):
        """A block delivered under the wrong number (misdirected write)
        is caught by the page-number check."""
        storage, pid = flushed_storage
        other = storage.allocate_page("data")
        with storage.page(other, write=True) as page:
            page.insert(b"other page")
        storage.flush()
        storage.buffer.discard(other)
        handle = storage.disk.file("data")
        blocks = handle._blocks  # noqa: SLF001
        blocks[pid.page_no], blocks[other.page_no] = \
            blocks[other.page_no], blocks[pid.page_no]
        with pytest.raises(StorageError) as err:
            storage.fix(pid)
        assert "page number" in str(err.value)

    def test_corrupt_sequence_component_detected(self):
        storage = StorageSystem(buffer_capacity=4 * 8192)
        storage.create_segment("seq", 512)
        header = storage.sequences.create("seq")
        storage.sequences.write(header, bytes(range(256)) * 10)
        storage.flush()
        for pid in storage.buffer.resident():
            storage.buffer.discard(pid)
        component = storage.sequences.component_pages(header)[1]
        handle = storage.disk.file("seq")
        image = bytearray(handle._blocks[component.page_no])  # noqa: SLF001
        image[64] ^= 0x01
        handle._blocks[component.page_no] = bytes(image)  # noqa: SLF001
        with pytest.raises(StorageError) as err:
            storage.sequences.read(header)
        assert "checksum" in str(err.value)

    def test_corruption_in_buffer_is_not_flagged(self, flushed_storage):
        """Only disk reads verify: in-buffer modifications are legitimate
        (the checksum is refreshed at write-back)."""
        storage, pid = flushed_storage
        with storage.page(pid, write=True) as page:
            page.insert(b"legitimate change")
        with storage.page(pid) as page:
            assert len(page.slots()) == 2


def test_a_corrupt_atom_block_is_a_storage_error_on_every_path():
    """The access layer reports only a missing slot as a missing record;
    a checksum failure below it keeps its storage type, whether the atom
    is read directly or through a query."""
    db = Prima()
    db.execute("CREATE ATOM_TYPE city (city_id: IDENTIFIER, "
               "name: CHAR_VAR, pop: INTEGER) KEYS_ARE (name)")
    surrogate = db.insert_atom("city", {"name": "Kaiserslautern",
                                        "pop": 99000})
    db.commit()
    pid = PageId("at_city", 1)
    db.storage.buffer.discard(pid)
    handle = db.storage.disk.file("at_city")
    image = bytearray(handle._blocks[pid.page_no])  # noqa: SLF001
    image[100] ^= 0xFF
    handle._blocks[pid.page_no] = bytes(image)  # noqa: SLF001
    for read in (lambda: db.get_atom(surrogate),
                 lambda: db.query("SELECT ALL FROM city").materialize()):
        with pytest.raises(StorageError, match="checksum"):
            read()
