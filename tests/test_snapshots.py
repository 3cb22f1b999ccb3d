"""Tests: snapshot reads (copy-on-write atom versions).

The version store and the :class:`SnapshotView` facade are exercised
directly first; then the serving layer's end-to-end guarantees: a
pinned cursor never sees a concurrent commit, reads acquire zero
type-level S locks, and readers overlap inside the engine lock.
"""

import threading

import pytest

import repro
from repro import Prima
from repro.errors import (
    AtomNotFoundError,
    CursorStateError,
    SessionStateError,
)
from repro.serve import SessionManager

N_ITEMS = 96
GROUPS = 6


@pytest.fixture
def db():
    database = Prima()
    database.execute("CREATE ATOM_TYPE item (item_id: IDENTIFIER, "
                     "n: INTEGER, grp: INTEGER) KEYS_ARE (n)")
    for i in range(N_ITEMS):
        database.insert_atom("item", {"n": i, "grp": i % GROUPS})
    return database


@pytest.fixture
def manager(db):
    return SessionManager(db, max_sessions=4)


# ---------------------------------------------------------------------------
# The version store (unit level)
# ---------------------------------------------------------------------------

class TestAtomVersionStore:
    def test_publish_advances_the_epoch(self, db):
        store = db.access.atoms.versions
        before = store.epoch
        db.insert_atom("item", {"n": 9000})
        assert store.epoch > before

    def test_preserve_is_a_noop_without_pins(self, db):
        store = db.access.atoms.versions
        surrogate = db.access.atoms.find_by_key("item", (3,))
        db.modify_atom(surrogate, {"grp": 99})
        assert store.versions_preserved == 0
        assert not store.pinned

    def test_first_write_per_window_wins(self, db):
        store = db.access.atoms.versions
        surrogate = db.access.atoms.find_by_key("item", (3,))
        snapshot = db.access.atoms.open_snapshot()
        try:
            db.modify_atom(surrogate, {"grp": 50})
            db.modify_atom(surrogate, {"grp": 60})
            # Both writes landed after the pin, but only the oldest
            # pre-image matters to the pinned reader.
            assert snapshot.get(surrogate)["grp"] == 3 % GROUPS
        finally:
            snapshot.release()

    def test_unpin_garbage_collects_versions(self, db):
        store = db.access.atoms.versions
        surrogate = db.access.atoms.find_by_key("item", (4,))
        snapshot = db.access.atoms.open_snapshot()
        db.modify_atom(surrogate, {"grp": 77})
        assert store.versions_preserved == 1
        snapshot.release()
        assert not store.pinned
        assert store.changed_since(0) == {}

    def test_release_is_idempotent(self, db):
        snapshot = db.access.atoms.open_snapshot()
        snapshot.release()
        snapshot.release()
        assert not db.access.atoms.versions.pinned


# ---------------------------------------------------------------------------
# SnapshotView semantics
# ---------------------------------------------------------------------------

class TestSnapshotView:
    def test_creations_after_the_epoch_are_invisible(self, db):
        with db.access.atoms.open_snapshot() as snapshot:
            created = db.insert_atom("item", {"n": 9100})
            assert not snapshot.exists(created)
            with pytest.raises(AtomNotFoundError):
                snapshot.get(created)
            assert snapshot.count("item") == N_ITEMS
            assert db.access.atoms.count("item") == N_ITEMS + 1

    def test_deletions_after_the_epoch_are_resurrected(self, db):
        surrogate = db.access.atoms.find_by_key("item", (10,))
        with db.access.atoms.open_snapshot() as snapshot:
            db.delete_atom(surrogate)
            assert not db.access.atoms.exists(surrogate)
            assert snapshot.exists(surrogate)
            assert snapshot.get(surrogate)["n"] == 10
            assert snapshot.count("item") == N_ITEMS

    def test_modifications_read_their_epoch_values(self, db):
        surrogate = db.access.atoms.find_by_key("item", (11,))
        with db.access.atoms.open_snapshot() as snapshot:
            db.modify_atom(surrogate, {"grp": 1234})
            assert snapshot.get(surrogate)["grp"] == 11 % GROUPS
            assert db.access.atoms.get(surrogate)["grp"] == 1234

    def test_find_by_key_honours_moved_keys(self, db):
        surrogate = db.access.atoms.find_by_key("item", (12,))
        with db.access.atoms.open_snapshot() as snapshot:
            db.modify_atom(surrogate, {"n": 9200})
            # The live holder of n=9200 held n=12 at the epoch.
            assert snapshot.find_by_key("item", (12,)) == surrogate
            assert snapshot.find_by_key("item", (9200,)) is None
            assert db.access.atoms.find_by_key("item", (9200,)) == surrogate

    def test_ordered_scan_merges_displaced_atoms(self, db):
        # A key move after the pin displaces the atom in the live index
        # walk; the snapshot scan merges its epoch values back in at
        # the correct sorted position.
        from repro.data.result import ResultSet
        db.execute_ldl("CREATE SORT ORDER item_so ON item (n)")
        prepared = db.prepare("SELECT ALL FROM item WHERE grp = 0 "
                              "ORDER BY n")
        snapshot = db.access.atoms.open_snapshot()
        try:
            target = db.access.atoms.find_by_key("item", (18,))
            db.modify_atom(target, {"n": 9999})
            plan = prepared.bind((), {})
            rows = [m.atom["n"] for m in
                    ResultSet(source=plan.compile(db.data,
                                                  snapshot=snapshot))]
            assert rows == [n for n in range(N_ITEMS)
                            if n % GROUPS == 0]
        finally:
            snapshot.release()


# ---------------------------------------------------------------------------
# Serving: snapshot isolation end to end
# ---------------------------------------------------------------------------

class TestServingIsolation:
    def test_pinned_cursor_never_sees_concurrent_checkin(self, db, manager):
        reader = repro.connect(manager)
        writer = repro.connect(manager)
        target = db.access.atoms.find_by_key("item", (7,))
        cursor = reader.query("SELECT ALL FROM item WHERE grp = 1",
                              fetch_size=4)
        first = cursor.fetch_many(2)
        writer.checkin({target: {"grp": 999}})
        rest = cursor.fetch_many(N_ITEMS)
        rows = sorted(m.atom["n"] for m in first + rest)
        assert rows == [n for n in range(N_ITEMS) if n % GROUPS == 1]
        # A cursor opened after the checkin sees the new state.
        after = sorted(m.atom["n"] for m in
                       reader.query("SELECT ALL FROM item WHERE grp = 1"))
        assert 7 not in after
        reader.close()
        writer.close()

    def test_writer_commit_during_open_cursor(self, db, manager):
        reader = repro.connect(manager)
        writer = repro.connect(manager)
        cursor = reader.query("SELECT ALL FROM item", fetch_size=8)
        head = cursor.fetch_many(3)
        assert writer.execute("INSERT item (n = 9300)").affected == 1
        assert writer.execute(
            "DELETE ALL FROM item WHERE n = 50").affected == 1
        rows = [m.atom["n"]
                for m in head + cursor.fetch_many(N_ITEMS + 10)]
        assert len(rows) == N_ITEMS
        assert 9300 not in rows and 50 in rows
        reader.close()
        writer.close()

    def test_reopen_keeps_the_pinned_epoch(self, db, manager):
        reader = repro.connect(manager)
        writer = repro.connect(manager)
        cursor = reader.cursor("SELECT ALL FROM item WHERE grp = 2",
                               fetch_size=4)
        before = [m.atom["n"] for m in cursor]
        writer.execute("INSERT item (n = 9400, grp = 2)")
        cursor.rewind()
        # REOPEN replays the same pipeline against the same snapshot —
        # the new atom stays invisible until the cursor is re-opened.
        assert [m.atom["n"] for m in cursor] == before
        fresh = reader.query("SELECT ALL FROM item WHERE grp = 2")
        assert 9400 in [m.atom["n"] for m in fresh]
        reader.close()
        writer.close()

    def test_reopen_after_truncation_still_raises(self, db, manager):
        with repro.connect(manager) as conn:
            result = conn.query("SELECT ALL FROM item", fetch_size=4)
            result.fetch_many(4)
            result.close()   # molecules pending -> truncated
            with pytest.raises((CursorStateError, SessionStateError)):
                result.reopen()

    def test_snapshot_pin_released_on_close(self, db, manager):
        store = db.access.atoms.versions
        with repro.connect(manager) as conn:
            cursor = conn.cursor("SELECT ALL FROM item", fetch_size=8)
            assert store.pinned
            cursor.close()
            assert not store.pinned

    def test_reads_acquire_zero_type_level_s_locks(self, db, manager):
        with repro.connect(manager) as conn:
            before = dict(manager.txns.locks.grants)
            conn.query("SELECT ALL FROM item", fetch_size=8).materialize()
            conn.query("SELECT ALL FROM item WHERE grp = 3").materialize()
            grants = manager.txns.locks.grants
            assert grants["S"] - before["S"] == 0
            assert grants["X"] == before["X"]
        report = db.io_report()
        assert report["serve_snapshot_reads"] == 2

    def test_reader_progresses_while_peer_retains_x(self, db, manager):
        writer = repro.connect(manager)
        writer.execute("INSERT item (n = 9500)")   # session retains X
        reader = repro.connect(manager)
        rows = reader.query("SELECT ALL FROM item WHERE n = 9500")
        assert len(rows) == 1
        reader.close()
        writer.close()

    def test_concurrent_sessions_fetch_correct_sets(self, db, manager):
        # Many sessions streaming concurrently against one engine:
        # every session delivers exactly its group's set, batches
        # interleaving message by message under the engine mutex.
        errors: list[BaseException] = []

        def stream(group: int) -> None:
            try:
                conn = repro.connect(manager)
                rows = [m.atom["n"] for m in
                        conn.query(f"SELECT ALL FROM item "
                                   f"WHERE grp = {group}",
                                   fetch_size=4)]
                expected = [n for n in range(N_ITEMS)
                            if n % GROUPS == group]
                assert [n for n in rows if n < N_ITEMS] == expected
                conn.close()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=stream, args=(g,), daemon=True)
                   for g in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors


# ---------------------------------------------------------------------------
# EXPLAIN over the wire
# ---------------------------------------------------------------------------

class TestRemoteExplain:
    def test_session_explain_returns_the_plan(self, db, manager):
        with repro.connect(manager) as conn:
            text = conn.explain("SELECT ALL FROM item WHERE grp = 1")
            assert "MOLECULE TYPE SCAN item" in text
            assert "pipeline:" in text
        assert db.io_report()["serve_explains"] == 1

    def test_explain_is_billed_as_a_message_pair(self, db, manager):
        with repro.connect(manager) as conn:
            before = manager.stats.snapshot()["messages"]
            conn.explain("SELECT ALL FROM item")
            assert manager.stats.snapshot()["messages"] == before + 2

    def test_explain_rejects_dml(self, manager):
        with repro.connect(manager) as conn:
            with pytest.raises(SessionStateError):
                conn.explain("INSERT item (n = 9600)")

    def test_remote_cursor_ships_plan_text(self, manager):
        with repro.connect(manager) as conn:
            cursor = conn.cursor("SELECT ALL FROM item WHERE grp = 2",
                                 fetch_size=4)
            assert "MOLECULE TYPE SCAN item" in cursor.explain()
            cursor.close()
