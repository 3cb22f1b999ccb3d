"""Unit tests: buffer manager, replacement policies, partitioned buffer."""

import os
import sys

import pytest

import repro
from repro import Prima
from repro.errors import BufferFullError, StorageError
from repro.storage.buffer import BufferManager, PartitionedBufferManager
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageId
from repro.storage.replacement import FIFO, Clock, ModifiedLRU, make_policy
from repro.workloads import brep


def _disk_with_pages(size: int = 512, count: int = 20) -> SimulatedDisk:
    disk = SimulatedDisk()
    disk.create_file("seg", size)
    for no in range(1, count + 1):
        disk.write_block("seg", no, Page.format(size, no).to_bytes())
    return disk


def _eviction_order(policy, evictable) -> list:
    """Probe ``policy`` as the buffer does: each victim is evicted before
    the next probe."""
    order = []
    while (victim := policy.victim(evictable.__contains__)) is not None:
        order.append(victim)
        policy.on_evict(victim)
    return order


class TestFixUnfix:
    def test_miss_then_hit(self):
        disk = _disk_with_pages()
        buffer = BufferManager(disk, capacity_bytes=4 * 512)
        pid = PageId("seg", 1)
        buffer.fix(pid)
        buffer.unfix(pid)
        buffer.fix(pid)
        buffer.unfix(pid)
        assert buffer.counters.get("misses") == 1
        assert buffer.counters.get("hits") == 1
        assert buffer.hit_ratio() == 0.5

    def test_unfix_without_fix_rejected(self):
        buffer = BufferManager(_disk_with_pages(), capacity_bytes=4 * 512)
        with pytest.raises(StorageError):
            buffer.unfix(PageId("seg", 1))

    def test_fixed_pages_never_evicted(self):
        disk = _disk_with_pages()
        buffer = BufferManager(disk, capacity_bytes=2 * 512)
        pinned = PageId("seg", 1)
        buffer.fix(pinned)
        buffer.fix(PageId("seg", 2))
        buffer.unfix(PageId("seg", 2))
        buffer.fix(PageId("seg", 3))   # evicts page 2, not page 1
        buffer.unfix(PageId("seg", 3))
        assert pinned in buffer.resident()
        assert buffer.is_fixed(pinned)

    def test_all_fixed_raises(self):
        disk = _disk_with_pages()
        buffer = BufferManager(disk, capacity_bytes=2 * 512)
        buffer.fix(PageId("seg", 1))
        buffer.fix(PageId("seg", 2))
        with pytest.raises(BufferFullError, match="2 pages are fixed"):
            buffer.fix(PageId("seg", 3))

    def test_pinned_lru_head_is_skipped(self):
        """The victim is the least recently used *unpinned* page."""
        disk = _disk_with_pages()
        buffer = BufferManager(disk, capacity_bytes=3 * 512)
        head = PageId("seg", 1)
        buffer.fix(head)                  # pinned, least recently used
        for no in (2, 3):
            buffer.fix(PageId("seg", no))
            buffer.unfix(PageId("seg", no))
        buffer.fix(PageId("seg", 4))      # evicts page 2
        assert buffer.resident() == {head, PageId("seg", 3),
                                     PageId("seg", 4)}
        assert buffer.counters.get("evictions") == 1

    def test_dirty_write_back_on_eviction(self):
        disk = _disk_with_pages()
        buffer = BufferManager(disk, capacity_bytes=512)
        pid = PageId("seg", 1)
        page = buffer.fix(pid)
        page.insert(b"dirty data")
        buffer.unfix(pid, dirty=True)
        buffer.fix(PageId("seg", 2))   # evicts page 1
        buffer.unfix(PageId("seg", 2))
        assert buffer.counters.get("dirty_writebacks") == 1
        # content survived the round trip
        page = buffer.fix(pid)
        assert page.read(0) == b"dirty data"
        buffer.unfix(pid)

    def test_clean_eviction_no_write(self):
        disk = _disk_with_pages()
        buffer = BufferManager(disk, capacity_bytes=512)
        buffer.fix(PageId("seg", 1))
        buffer.unfix(PageId("seg", 1))
        disk.reset_accounting()
        buffer.fix(PageId("seg", 2))
        buffer.unfix(PageId("seg", 2))
        assert disk.counters.get("blocks_written") == 0

    def test_flush_all(self):
        disk = _disk_with_pages()
        buffer = BufferManager(disk, capacity_bytes=4 * 512)
        for no in (1, 2):
            pid = PageId("seg", no)
            page = buffer.fix(pid)
            page.insert(b"x")
            buffer.unfix(pid, dirty=True)
        disk.reset_accounting()
        buffer.flush()
        assert disk.counters.get("blocks_written") == 2
        buffer.flush()   # second flush: nothing dirty
        assert disk.counters.get("blocks_written") == 2

    def test_fix_new(self):
        disk = _disk_with_pages()
        buffer = BufferManager(disk, capacity_bytes=4 * 512)
        pid = PageId("seg", 99)
        buffer.fix_new(pid, Page.format(512, 99))
        buffer.unfix(pid, dirty=True)
        buffer.flush()
        assert disk.read_block("seg", 99)

    def test_capacity_too_small_rejected(self):
        with pytest.raises(StorageError):
            BufferManager(_disk_with_pages(), capacity_bytes=100)


class TestMixedPageSizes:
    """The paper's point: one buffer must handle five page sizes."""

    def _mixed_disk(self):
        disk = SimulatedDisk()
        for size in (512, 8192):
            disk.create_file(f"seg{size}", size)
            for no in range(1, 11):
                disk.write_block(f"seg{size}", no,
                                 Page.format(size, no).to_bytes())
        return disk

    def test_small_pages_evicted_for_large(self):
        disk = self._mixed_disk()
        buffer = BufferManager(disk, capacity_bytes=8192 + 1024)
        for no in range(1, 4):
            buffer.fix(PageId("seg512", no))
            buffer.unfix(PageId("seg512", no))
        buffer.fix(PageId("seg8192", 1))
        buffer.unfix(PageId("seg8192", 1))
        # byte budget respected, several LRU victims taken if needed
        assert buffer.used_bytes <= buffer.capacity_bytes

    def test_byte_budget_never_exceeded(self):
        disk = self._mixed_disk()
        buffer = BufferManager(disk, capacity_bytes=3 * 8192)
        import random
        rng = random.Random(7)
        for _ in range(100):
            size = rng.choice((512, 8192))
            pid = PageId(f"seg{size}", rng.randint(1, 10))
            buffer.fix(pid)
            buffer.unfix(pid)
            assert buffer.used_bytes <= buffer.capacity_bytes


class TestPolicies:
    def test_make_policy(self):
        assert isinstance(make_policy("modified-lru"), ModifiedLRU)
        assert isinstance(make_policy("lru"), ModifiedLRU)
        assert isinstance(make_policy("fifo"), FIFO)
        assert isinstance(make_policy("clock"), Clock)
        with pytest.raises(ValueError):
            make_policy("magic")

    def test_lru_order(self):
        policy = ModifiedLRU()
        pids = [PageId("s", no) for no in range(3)]
        for pid in pids:
            policy.on_admit(pid)
        policy.on_access(pids[0])   # 0 becomes most recent
        order = _eviction_order(policy, set(pids))
        assert order == [pids[1], pids[2], pids[0]]

    def test_fifo_ignores_access(self):
        policy = FIFO()
        pids = [PageId("s", no) for no in range(3)]
        for pid in pids:
            policy.on_admit(pid)
        policy.on_access(pids[0])
        order = _eviction_order(policy, set(pids))
        assert order == pids

    def test_clock_second_chance(self):
        policy = Clock()
        pids = [PageId("s", no) for no in range(3)]
        for pid in pids:
            policy.on_admit(pid)
        # all referenced: first sweep clears, second selects pids[0]
        assert policy.victim(set(pids).__contains__) == pids[0]

    def test_evicted_pages_leave_policy(self):
        policy = ModifiedLRU()
        pid = PageId("s", 1)
        policy.on_admit(pid)
        policy.on_evict(pid)
        assert _eviction_order(policy, {pid}) == []


class TestPartitionedBuffer:
    def test_partitions_isolated(self):
        disk = SimulatedDisk()
        for size in (512, 8192):
            disk.create_file(f"seg{size}", size)
            for no in range(1, 6):
                disk.write_block(f"seg{size}", no,
                                 Page.format(size, no).to_bytes())
        buffer = PartitionedBufferManager(disk, capacity_bytes=10 * 8192)
        buffer.fix(PageId("seg512", 1))
        buffer.unfix(PageId("seg512", 1))
        buffer.fix(PageId("seg8192", 1))
        buffer.unfix(PageId("seg8192", 1))
        assert PageId("seg512", 1) in buffer.partition(512).resident()
        assert PageId("seg8192", 1) in buffer.partition(8192).resident()

    def test_shares_validated(self):
        disk = SimulatedDisk()
        with pytest.raises(StorageError):
            PartitionedBufferManager(disk, shares={300: 1.0})

    def test_interface_compatible(self):
        disk = SimulatedDisk()
        disk.create_file("seg512", 512)
        disk.write_block("seg512", 1, Page.format(512, 1).to_bytes())
        buffer = PartitionedBufferManager(disk, capacity_bytes=10 * 8192)
        pid = PageId("seg512", 1)
        page = buffer.fix(pid)
        page.insert(b"x")
        buffer.unfix(pid, dirty=True)
        buffer.flush()
        assert buffer.hit_ratio() == 0.0
        assert buffer.used_bytes == 512


class TestMissCost:
    """A miss does the same Python work whatever the buffer size: one
    block read, one C-speed checksum, one victim probe — nothing that
    visits every frame."""

    @staticmethod
    def _calls_per_miss(frames: int) -> int:
        disk = _disk_with_pages(8192, frames + 1)
        buffer = BufferManager(disk, capacity_bytes=frames * 8192)
        for no in range(1, frames + 1):
            buffer.fix(PageId("seg", no))
            buffer.unfix(PageId("seg", no))
        calls = 0

        def count(_frame, event, _arg):
            nonlocal calls
            if event in ("call", "c_call"):
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            buffer.fix(PageId("seg", frames + 1))
        finally:
            sys.setprofile(previous)
        assert buffer.counters.get("evictions") == 1
        return calls

    def test_calls_per_miss_do_not_grow_with_the_buffer(self):
        small, large = self._calls_per_miss(16), self._calls_per_miss(160)
        assert small == large <= 60


class TestReadCost:
    """A buffered atom read is a handful of Python calls: one address
    probe, one page scope (fix, read, unfix), one decode-memo hit.  The
    figure is counted over whole molecule constructions, so operator
    and molecule overhead is spread over the reads it served."""

    STATEMENTS = ("SELECT ALL FROM brep-face-edge-point",
                  "SELECT ALL FROM edge-point ORDER BY length LIMIT 10")

    @staticmethod
    def _package_calls_per_read() -> float:
        db = Prima()
        brep.generate(db, n_solids=16, seed=1987)
        prepared = [db.prepare(text) for text in TestReadCost.STATEMENTS]

        def run_op():
            for statement in prepared:
                result = statement.execute()
                result.materialize()
                result.close()

        for _ in range(3):   # warm: plans bound, decode memo filled
            run_op()
        package = os.path.dirname(repro.__file__) + os.sep
        calls = 0

        def count(frame, event, _arg):
            nonlocal calls
            if event == "call" and \
                    frame.f_code.co_filename.startswith(package):
                calls += 1

        reads = db.io_report()["atoms_read"]
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            for _ in range(2):
                run_op()
        finally:
            sys.setprofile(previous)
        reads = db.io_report()["atoms_read"] - reads
        assert reads == 2 * 2048
        return calls / reads

    def test_calls_per_atom_read(self):
        assert self._package_calls_per_read() <= 15
