"""Unit tests: segments, page allocation, page sequences."""

import pytest

from repro.errors import PageNotFoundError, SegmentError, StorageError
from repro.storage.page import PAGE_TYPE_SEQUENCE_HEADER, PageId
from repro.storage.system import StorageSystem


class TestSegments:
    def test_create_and_get(self, storage):
        storage.create_segment("data", 1024)
        assert storage.segment("data").page_size == 1024

    def test_duplicate_rejected(self, storage):
        storage.create_segment("data", 1024)
        with pytest.raises(SegmentError):
            storage.create_segment("data", 512)

    def test_unknown_rejected(self, storage):
        with pytest.raises(SegmentError):
            storage.segment("ghost")

    def test_allocation_numbers_dense(self, storage):
        storage.create_segment("data", 512)
        pids = [storage.allocate_page("data") for _ in range(3)]
        assert [p.page_no for p in pids] == [1, 2, 3]

    def test_freed_pages_recycled_fifo(self, storage):
        storage.create_segment("data", 512)
        pids = [storage.allocate_page("data") for _ in range(3)]
        storage.free_page(pids[0])
        storage.free_page(pids[1])
        assert storage.allocate_page("data").page_no == pids[0].page_no
        assert storage.allocate_page("data").page_no == pids[1].page_no

    @pytest.mark.parametrize("partitioned", [False, True])
    def test_freed_page_leaves_the_buffer_unwritten(self, partitioned):
        storage = StorageSystem(buffer_capacity=8 * 8192,
                                partitioned=partitioned)
        storage.create_segment("data", 512)
        pid = storage.allocate_page("data")
        used = storage.buffer.used_bytes
        storage.free_page(pid)
        assert pid not in storage.buffer.resident()
        assert storage.buffer.used_bytes == used - 512
        storage.flush()
        assert storage.counters.get("dirty_writebacks") == 0

    def test_free_unallocated_rejected(self, storage):
        storage.create_segment("data", 512)
        with pytest.raises(PageNotFoundError):
            storage.free_page(PageId("data", 9))

    def test_drop_segment_discards_buffered_pages(self, storage):
        storage.create_segment("data", 512)
        pid = storage.allocate_page("data")
        with storage.page(pid, write=True) as page:
            page.insert(b"x")
        storage.drop_segment("data")
        assert pid not in storage.buffer.resident()
        with pytest.raises(SegmentError):
            storage.segment("data")

    def test_page_context_manager_writes(self, storage):
        storage.create_segment("data", 512)
        pid = storage.allocate_page("data")
        with storage.page(pid, write=True) as page:
            slot = page.insert(b"payload")
        storage.flush()
        storage2 = storage  # same instance; re-fix after flush
        with storage2.page(pid) as page:
            assert page.read(slot) == b"payload"

    def test_io_report_contains_counters(self, storage):
        storage.create_segment("data", 512)
        pid = storage.allocate_page("data")
        with storage.page(pid, write=True) as page:
            page.insert(b"x")
        storage.flush()
        report = storage.io_report()
        assert report["blocks_written"] >= 1
        assert "io_time_ms" in report


class TestPageSequences:
    def test_empty_sequence(self, storage):
        storage.create_segment("seq", 512)
        header = storage.sequences.create("seq")
        assert storage.sequences.read(header) == b""
        assert storage.sequences.length(header) == 0

    def test_write_read_roundtrip(self, storage):
        storage.create_segment("seq", 512)
        header = storage.sequences.create("seq")
        blob = bytes(range(256)) * 20
        storage.sequences.write(header, blob)
        assert storage.sequences.read(header) == blob
        assert storage.sequences.length(header) == len(blob)

    def test_header_page_type(self, storage):
        storage.create_segment("seq", 512)
        header = storage.sequences.create("seq")
        with storage.page(header) as page:
            assert page.page_type == PAGE_TYPE_SEQUENCE_HEADER

    def test_rewrite_shrinks_and_frees_pages(self, storage):
        storage.create_segment("seq", 512)
        header = storage.sequences.create("seq")
        storage.sequences.write(header, bytes(5000))
        pages_large = storage.segment("seq").allocated_pages
        storage.sequences.write(header, bytes(100))
        pages_small = storage.segment("seq").allocated_pages
        assert pages_small < pages_large
        assert storage.sequences.read(header) == bytes(100)

    def test_rewrite_grows(self, storage):
        storage.create_segment("seq", 512)
        header = storage.sequences.create("seq")
        storage.sequences.write(header, b"small")
        blob = bytes(range(256)) * 30
        storage.sequences.write(header, blob)
        assert storage.sequences.read(header) == blob

    def test_read_slice(self, storage):
        storage.create_segment("seq", 512)
        header = storage.sequences.create("seq")
        blob = bytes(range(256)) * 20
        storage.sequences.write(header, blob)
        assert storage.sequences.read_slice(header, 0, 10) == blob[:10]
        assert storage.sequences.read_slice(header, 1000, 600) == \
            blob[1000:1600]
        assert storage.sequences.read_slice(header, len(blob) - 5, 5) == \
            blob[-5:]

    def test_read_slice_touches_fewer_pages(self, storage):
        storage.create_segment("seq", 512)
        header = storage.sequences.create("seq")
        storage.sequences.write(header, bytes(5000))
        storage.flush()
        storage.reset_accounting()
        storage.sequences.read_slice(header, 600, 100)
        slice_fixes = storage.counters.get("fixes")
        storage.reset_accounting()
        storage.sequences.read(header, chained=False)
        full_fixes = storage.counters.get("fixes")
        assert slice_fixes < full_fixes

    def test_slice_bounds_checked(self, storage):
        storage.create_segment("seq", 512)
        header = storage.sequences.create("seq")
        storage.sequences.write(header, bytes(100))
        with pytest.raises(StorageError):
            storage.sequences.read_slice(header, 90, 20)
        with pytest.raises(StorageError):
            storage.sequences.read_slice(header, -1, 5)

    def test_chained_read_uses_chained_io(self, storage):
        big = StorageSystem(buffer_capacity=8 * 8192)
        big.create_segment("seq", 512)
        header = big.sequences.create("seq")
        big.sequences.write(header, bytes(20000))
        big.flush()
        # evict everything by filling the buffer with another segment
        big.create_segment("other", 8192)
        for _ in range(10):
            pid = big.allocate_page("other")
            with big.page(pid, write=True) as page:
                page.insert(b"fill")
        big.reset_accounting()
        big.sequences.read(header)
        assert big.disk.counters.get("chained_reads") >= 1

    @pytest.mark.parametrize("partitioned", [False, True])
    def test_chained_read_fetches_only_missing_components(self,
                                                           partitioned):
        storage = StorageSystem(buffer_capacity=64 * 8192,
                                partitioned=partitioned)
        storage.create_segment("seq", 512)
        header = storage.sequences.create("seq")
        payload = bytes(range(256)) * 80
        storage.sequences.write(header, payload)
        storage.flush()
        dropped = storage.sequences.component_pages(header)[2:5]
        for pid in dropped:
            storage.buffer.discard(pid)
        storage.reset_accounting()
        assert storage.sequences.read(header) == payload
        assert storage.disk.counters.get("blocks_read") == len(dropped)
        assert storage.disk.counters.get("chained_reads") == 1
        assert all(storage.buffer.is_resident(pid) for pid in dropped)

    def test_drop_frees_everything(self, storage):
        storage.create_segment("seq", 512)
        header = storage.sequences.create("seq")
        storage.sequences.write(header, bytes(3000))
        storage.sequences.drop(header)
        assert storage.segment("seq").allocated_pages == 0

    def test_component_pages_listed(self, storage):
        storage.create_segment("seq", 512)
        header = storage.sequences.create("seq")
        storage.sequences.write(header, bytes(2000))
        components = storage.sequences.component_pages(header)
        assert len(components) == (2000 + 495) // 496
