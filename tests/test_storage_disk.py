"""Unit tests: the simulated disk and file manager."""

import pytest

from repro.errors import PageSizeError, StorageError
from repro.storage.disk import DiskGeometry, SimulatedDisk


@pytest.fixture
def disk() -> SimulatedDisk:
    return SimulatedDisk()


class TestFiles:
    def test_create_and_lookup(self, disk):
        handle = disk.create_file("seg", 1024)
        assert handle.block_size == 1024
        assert disk.file("seg") is handle

    def test_duplicate_name_rejected(self, disk):
        disk.create_file("seg", 1024)
        with pytest.raises(StorageError):
            disk.create_file("seg", 2048)

    def test_unknown_file_rejected(self, disk):
        with pytest.raises(StorageError):
            disk.file("ghost")

    def test_only_five_block_sizes(self, disk):
        for size in (512, 1024, 2048, 4096, 8192):
            disk.create_file(f"s{size}", size)
        with pytest.raises(PageSizeError):
            disk.create_file("bad", 3000)

    def test_drop_file(self, disk):
        disk.create_file("seg", 512)
        disk.drop_file("seg")
        with pytest.raises(StorageError):
            disk.file("seg")
        with pytest.raises(StorageError):
            disk.drop_file("seg")

    def test_file_names_sorted(self, disk):
        disk.create_file("b", 512)
        disk.create_file("a", 512)
        assert disk.file_names() == ["a", "b"]


class TestBlockIO:
    def test_write_read_roundtrip(self, disk):
        disk.create_file("seg", 512)
        data = bytes(range(256)) * 2
        disk.write_block("seg", 7, data)
        assert disk.read_block("seg", 7) == data

    def test_wrong_length_rejected(self, disk):
        disk.create_file("seg", 512)
        with pytest.raises(StorageError):
            disk.write_block("seg", 1, b"short")

    def test_unwritten_block_rejected(self, disk):
        disk.create_file("seg", 512)
        with pytest.raises(StorageError):
            disk.read_block("seg", 99)

    def test_counters(self, disk):
        disk.create_file("seg", 512)
        disk.write_block("seg", 1, bytes(512))
        disk.read_block("seg", 1)
        assert disk.counters.get("blocks_written") == 1
        assert disk.counters.get("blocks_read") == 1
        assert disk.counters.get("bytes_read") == 512

    def test_block_count(self, disk):
        disk.create_file("seg", 512)
        for no in (1, 2, 2, 5):
            disk.write_block("seg", no, bytes(512))
        assert disk.file("seg").block_count == 3
        assert disk.file("seg").block_numbers() == [1, 2, 5]


class TestCostModel:
    def test_sequential_access_cheaper(self):
        geometry = DiskGeometry()
        assert geometry.access_ms(8192, sequential=True) < \
            geometry.access_ms(8192, sequential=False)

    def test_sequential_blocks_skip_seek(self, disk):
        disk.create_file("seg", 512)
        for no in range(1, 6):
            disk.write_block("seg", no, bytes(512))
        disk.reset_accounting()
        for no in range(1, 6):
            disk.read_block("seg", no)
        # first read seeks, the rest are sequential
        assert disk.counters.get("seeks") == 1

    def test_random_blocks_all_seek(self, disk):
        disk.create_file("seg", 512)
        for no in (1, 5, 3, 9):
            disk.write_block("seg", no, bytes(512))
        disk.reset_accounting()
        for no in (9, 1, 5, 3):
            disk.read_block("seg", no)
        assert disk.counters.get("seeks") == 4

    def test_io_time_accumulates(self, disk):
        disk.create_file("seg", 8192)
        assert disk.io_time_ms == 0.0
        disk.write_block("seg", 1, bytes(8192))
        assert disk.io_time_ms > 0.0


class TestChainedIO:
    def test_chained_read_roundtrip(self, disk):
        disk.create_file("seg", 512)
        blocks = {no: bytes([no]) * 512 for no in range(1, 8)}
        for no, data in blocks.items():
            disk.write_block("seg", no, data)
        got = disk.read_chained("seg", [3, 4, 5])
        assert got == [blocks[3], blocks[4], blocks[5]]

    def test_chained_read_one_seek_for_a_run(self, disk):
        disk.create_file("seg", 512)
        for no in range(1, 11):
            disk.write_block("seg", no, bytes(512))
        disk.reset_accounting()
        disk.read_chained("seg", list(range(1, 11)))
        assert disk.counters.get("seeks") == 1
        assert disk.counters.get("chained_reads") == 1

    def test_chained_read_cheaper_than_random(self, disk):
        disk.create_file("seg", 512)
        for no in range(1, 21):
            disk.write_block("seg", no, bytes(512))
        disk.reset_accounting()
        disk.read_chained("seg", list(range(1, 21)))
        chained_time = disk.io_time_ms
        disk.reset_accounting()
        for no in list(range(2, 21, 2)) + list(range(1, 21, 2)):
            disk.read_block("seg", no)
        assert disk.io_time_ms > 2 * chained_time

    def test_chained_read_missing_block(self, disk):
        disk.create_file("seg", 512)
        disk.write_block("seg", 1, bytes(512))
        with pytest.raises(StorageError):
            disk.read_chained("seg", [1, 2])

    def test_reset_accounting(self, disk):
        disk.create_file("seg", 512)
        disk.write_block("seg", 1, bytes(512))
        disk.reset_accounting()
        assert disk.counters.get("blocks_written") == 0
        assert disk.io_time_ms == 0.0
