"""A readers–writer lock: the narrow mutex that replaced the engine lock.

PR 4's serving layer serialised *every* engine-touching message part
behind one session-wide ``engine_lock`` — reads included — so
multi-session read throughput flatlined at single-session speed.  With
snapshot reads (:mod:`repro.access.snapshots`) handling logical
visibility, the only thing the lock still has to provide is *physical*
consistency: a writer must not mutate pages, address tables, or index
structures while a reader walks them.  That is exactly a
readers–writer lock:

* any number of readers share the lock (concurrent FETCH batches of
  different sessions interleave freely — the GIL permitting),
* one writer holds it exclusively for the span of a whole commit
  (checkin, DML subtransaction, DDL), so readers never observe a
  half-applied write batch.

Writer preference: once a writer is waiting, new readers queue behind
it, so a steady read stream cannot starve commits.  The writer side is
reentrant (a writer may re-enter ``write()`` or ``read()``), because a
checkin's undo path can re-enter the engine under the same thread.

``max_concurrent_readers`` records the high-water mark of readers
inside the lock at once — the structural proof that the engine no
longer serialises readers (under the old ``engine_lock`` this could
never exceed 1).
"""

from __future__ import annotations

import threading


class ReadWriteLock:
    """Shared/exclusive lock with writer preference and counters."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer: int | None = None   # owning thread id
        self._writer_depth = 0
        self._writers_waiting = 0
        #: High-water mark of concurrently active readers.
        self.max_concurrent_readers = 0
        #: Total shared / exclusive acquisitions (for benchmarks).
        self.read_acquisitions = 0
        self.write_acquisitions = 0
        self._reader = _Side(self, shared=True)
        self._writer_side = _Side(self, shared=False)

    # -- the two sides, as reusable context managers -------------------------

    def reader(self) -> "_Side":
        """The shared side: ``with lock.reader(): ...``"""
        return self._reader

    def writer(self) -> "_Side":
        """The exclusive side: ``with lock.writer(): ...``"""
        return self._writer_side

    # -- shared --------------------------------------------------------------

    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                # A writer re-entering as a reader keeps exclusivity.
                self._writer_depth += 1
                return
            while self._writer is not None or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
            self.read_acquisitions += 1
            if self._readers > self.max_concurrent_readers:
                self.max_concurrent_readers = self._readers

    def release_read(self) -> None:
        with self._cond:
            if self._writer == threading.get_ident():
                self._writer_depth -= 1
                return
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    # -- exclusive -----------------------------------------------------------

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._writer_depth = 1
            self.write_acquisitions += 1

    def release_write(self) -> None:
        with self._cond:
            if self._writer != threading.get_ident():
                raise RuntimeError("release_write by non-owning thread")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._cond.notify_all()

    def __repr__(self) -> str:
        return (f"ReadWriteLock(readers={self._readers}, "
                f"writer={'held' if self._writer else 'free'}, "
                f"peak_readers={self.max_concurrent_readers})")


class _Side:
    """One side of the lock as a reusable context manager."""

    def __init__(self, lock: ReadWriteLock, shared: bool) -> None:
        self._lock = lock
        self._shared = shared

    def __enter__(self) -> "_Side":
        if self._shared:
            self._lock.acquire_read()
        else:
            self._lock.acquire_write()
        return self

    def __exit__(self, _exc_type, _exc, _tb) -> None:
        if self._shared:
            self._lock.release_read()
        else:
            self._lock.release_write()
