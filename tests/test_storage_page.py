"""Unit tests: slotted pages."""

import pytest

from repro.errors import PageOverflowError, StorageError
from repro.storage.constants import PAGE_HEADER_SIZE
from repro.storage.page import PAGE_TYPE_DATA, PAGE_TYPE_META, Page


@pytest.fixture
def page() -> Page:
    return Page.format(512, page_no=42)


class TestHeader:
    def test_format_fields(self, page):
        assert page.page_no == 42
        assert page.page_type == PAGE_TYPE_DATA
        assert page.slot_count == 0
        assert page.size == 512

    def test_page_type_settable(self, page):
        page.page_type = PAGE_TYPE_META
        assert page.page_type == PAGE_TYPE_META

    def test_serialise_roundtrip(self, page):
        page.insert(b"payload")
        image = page.to_bytes()
        clone = Page.from_bytes(image)
        assert clone.read(0) == b"payload"
        assert clone.page_no == 42

    def test_bad_magic_rejected(self):
        with pytest.raises(StorageError):
            Page.from_bytes(bytes(512))

    def test_checksum_detects_corruption(self, page):
        page.insert(b"payload")
        image = bytearray(page.to_bytes())
        clone = Page.from_bytes(bytes(image))
        assert clone.verify_checksum()
        image[100] ^= 0xFF
        # keep the magic intact, corrupt the body
        corrupted = Page(bytearray(image))
        assert not corrupted.verify_checksum()

    def test_checksum_detects_swapped_bytes(self, page):
        """Two distinct bytes trading places leave an additive sum as it
        was; the CRC catches them."""
        page.insert(b"payload")
        image = bytearray(page.to_bytes())
        first, second = PAGE_HEADER_SIZE, PAGE_HEADER_SIZE + 1   # "p", "a"
        assert image[first] != image[second]
        image[first], image[second] = image[second], image[first]
        assert sum(image) == sum(page.to_bytes())
        assert not Page(image).verify_checksum()

    def test_bad_size_rejected(self):
        with pytest.raises(Exception):
            Page(bytearray(700))


class TestRecords:
    def test_insert_read(self, page):
        slot = page.insert(b"hello")
        assert page.read(slot) == b"hello"

    def test_multiple_records(self, page):
        slots = [page.insert(bytes([i]) * 10) for i in range(5)]
        for i, slot in enumerate(slots):
            assert page.read(slot) == bytes([i]) * 10

    def test_delete_frees_slot(self, page):
        slot = page.insert(b"gone")
        page.delete(slot)
        with pytest.raises(StorageError):
            page.read(slot)

    def test_deleted_slot_reused(self, page):
        first = page.insert(b"a")
        page.insert(b"b")
        page.delete(first)
        again = page.insert(b"c")
        assert again == first
        assert page.read(again) == b"c"

    def test_insert_takes_the_lowest_empty_slot(self, page):
        slots = [page.insert(bytes([i]) * 8) for i in range(6)]
        for victim in (4, 1, 3):
            page.delete(slots[victim])
        assert [page.insert(b"x"), page.insert(b"y"), page.insert(b"z")] \
            == [1, 3, 4]
        assert page.insert(b"new") == 6
        assert page.slots() == list(range(7))
        assert page.read(3) == b"y"

    def test_update_in_place(self, page):
        slot = page.insert(b"aaaa")
        page.update(slot, b"bb")
        assert page.read(slot) == b"bb"

    def test_update_grow_relocates(self, page):
        slot = page.insert(b"aa")
        page.insert(b"bb")
        page.update(slot, b"c" * 100)
        assert page.read(slot) == b"c" * 100

    def test_slot_numbers_stable_across_compaction(self, page):
        slots = [page.insert(bytes([i]) * 30) for i in range(8)]
        for victim in slots[::2]:
            page.delete(victim)
        # force compaction by filling the page
        big = page.insert(b"x" * (page.free_space - 8))
        for i in (1, 3, 5, 7):
            assert page.read(slots[i]) == bytes([i]) * 30
        assert page.read(big)

    def test_overflow_raises(self, page):
        with pytest.raises(PageOverflowError):
            page.insert(b"x" * 600)

    def test_overflow_after_fill(self, page):
        page.insert(b"x" * 400)
        with pytest.raises(PageOverflowError):
            page.insert(b"y" * 200)

    def test_update_overflow_keeps_record(self, page):
        slot = page.insert(b"small")
        page.insert(b"x" * 300)
        with pytest.raises(PageOverflowError):
            page.update(slot, b"y" * 400)
        assert page.read(slot) == b"small"

    def test_records_listing(self, page):
        page.insert(b"a")
        slot_b = page.insert(b"b")
        page.delete(slot_b)
        page.insert(b"c")
        assert [payload for _slot, payload in page.records()] == [b"a", b"c"]

    def test_empty_slot_errors(self, page):
        with pytest.raises(StorageError):
            page.read(0)
        with pytest.raises(StorageError):
            page.delete(99)


class TestRawPayload:
    def test_write_read_payload(self, page):
        blob = bytes(range(200))
        page.write_payload(blob)
        assert page.read_payload() == blob

    def test_payload_capacity(self):
        assert Page.payload_capacity(512) == 512 - 16

    def test_payload_overflow(self, page):
        with pytest.raises(PageOverflowError):
            page.write_payload(bytes(600))

    def test_payload_overwrite_shrinks(self, page):
        page.write_payload(bytes(100))
        page.write_payload(bytes(10))
        assert len(page.read_payload()) == 10
