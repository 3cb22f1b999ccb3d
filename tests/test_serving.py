"""Tests: the serving layer — sessions, remote cursors, clients."""

import contextlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro import Prima
from repro.access.encoding import encode_atom
from repro.coupling import PrimaServer, Workstation
from repro.errors import (
    AccessError,
    CursorStateError,
    LockConflictError,
    SessionLimitError,
    SessionStateError,
    TypeMismatchError,
)
from repro.parallel import parallel_select
from repro.serve import PrimaDaemon, SessionManager, protocol
from repro.shard import ShardedCluster
from repro.workloads import brep

N_ITEMS = 120
GROUPS = 8


@pytest.fixture
def db():
    database = Prima()
    database.execute("CREATE ATOM_TYPE item (item_id: IDENTIFIER, "
                     "n: INTEGER, grp: INTEGER) KEYS_ARE (n)")
    for i in range(N_ITEMS):
        database.insert_atom("item", {"n": i, "grp": i % GROUPS})
    database.execute_ldl("CREATE SORT ORDER item_so ON item (n)")
    return database


@pytest.fixture
def manager(db):
    return SessionManager(db, max_sessions=4)


@pytest.fixture(params=["local", "daemon"])
def conn(request, manager):
    """One client connection, over each transport in turn."""
    with contextlib.ExitStack() as stack:
        target = manager if request.param == "local" \
            else stack.enter_context(PrimaDaemon(manager))
        yield stack.enter_context(repro.connect(target))


def run_clients(manager, jobs, names=None):
    """One thread and one ``repro.connect(manager)`` per job; results in
    job order, the first failure (by job index) re-raised."""
    def client(job, name):
        with repro.connect(manager, name=name) as connection:
            return job(connection)

    with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
        return list(pool.map(client, jobs, names or [None] * len(jobs)))


class TestSessionLifecycle:
    def test_open_and_close(self, manager):
        conn = repro.connect(manager, name="alpha")
        assert manager.active_sessions == 1
        assert not conn.session.closed
        conn.close()
        assert conn.session.closed
        assert manager.active_sessions == 0

    def test_closed_session_rejects_messages(self, manager):
        conn = repro.connect(manager)
        conn.close()
        with pytest.raises(SessionStateError):
            conn.session.handle(protocol.Open("SELECT ALL FROM item"))

    def test_context_manager_closes(self, manager):
        with repro.connect(manager) as conn:
            assert not conn.session.closed
        assert conn.session.closed
        assert manager.active_sessions == 0

    def test_double_close_is_idempotent(self, manager):
        conn = repro.connect(manager)
        conn.close()
        conn.close()
        conn.session.close()
        assert manager.active_sessions == 0

    def test_session_names_unique(self, manager):
        first = repro.connect(manager, name="cad")
        second = repro.connect(manager, name="cad")
        assert first.name != second.name

    def test_duplicate_names_keep_distinct_report_keys(self, manager):
        def job(conn):
            conn.query("SELECT ALL FROM item WHERE grp = 7",
                       fetch_size=8).materialize()
            return conn.name

        names = run_clients(manager, [job, job], names=["ws", "ws"])
        assert len(set(names)) == 2
        report = manager.io_report()
        for name in names:
            assert report[f"session:{name}:cursors_opened"] == 1

    def test_dml_and_select_through_session(self, conn):
        inserted = conn.execute("INSERT item (n = 900)").inserted
        assert inserted is not None
        rows = conn.query("SELECT ALL FROM item WHERE n = 900")
        assert [m.atom["n"] for m in rows] == [900]

    def test_cursor_rejects_dml(self, conn):
        with pytest.raises(SessionStateError):
            conn.cursor("INSERT item (n = 901)")


class TestAdmissionControl:
    def test_reject_at_limit(self, db):
        manager = SessionManager(db, max_sessions=2)
        first, second = repro.connect(manager), repro.connect(manager)
        with pytest.raises(SessionLimitError):
            repro.connect(manager)
        first.close()
        third = repro.connect(manager)   # slot freed
        third.close()
        second.close()

    def test_queue_waits_for_slot(self, db):
        manager = SessionManager(db, max_sessions=1, admission="queue")
        first = repro.connect(manager)
        release = threading.Timer(0.05, first.close)
        release.start()
        try:
            second = repro.connect(manager)   # blocks until first closes
        finally:
            release.join()
        assert first.closed
        second.close()

    def test_queue_timeout_raises(self, db):
        manager = SessionManager(db, max_sessions=1, admission="queue",
                                 queue_timeout=0.01)
        first = repro.connect(manager)
        with pytest.raises(SessionLimitError):
            repro.connect(manager)
        first.close()

    def test_knob_validation(self, db):
        with pytest.raises(ValueError):
            SessionManager(db, max_sessions=0)
        with pytest.raises(ValueError):
            SessionManager(db, admission="drop")


class TestRemoteCursor:
    def test_whole_set_is_one_message_pair(self, manager, conn):
        before = manager.stats.messages
        result = conn.query("SELECT ALL FROM item WHERE grp = 0",
                            fetch_size=None)
        assert manager.stats.messages == before + 2
        assert len(result) == N_ITEMS // GROUPS
        # fully shipped at open: consuming costs nothing further
        assert manager.stats.messages == before + 2

    def test_streaming_batches_and_order(self, conn):
        result = conn.query("SELECT ALL FROM item ORDER BY n", fetch_size=16)
        assert [m.atom["n"] for m in result] == list(range(N_ITEMS))

    def test_limit_constructs_at_most_k(self, db, conn):
        k, f = 30, 8
        db.reset_accounting()
        cursor = conn.cursor(
            f"SELECT ALL FROM item ORDER BY n LIMIT {k}", fetch_size=f)
        rows = [m.atom["n"] for m in cursor]
        conn.close()
        assert rows == list(range(k))
        constructed = db.io_report()["operator_rows:MoleculeConstruct"]
        assert constructed <= k
        assert cursor.max_in_flight <= 2 * f

    def test_open_constructs_at_most_two_batches(self, db, conn):
        f = 10
        db.reset_accounting()
        cursor = conn.cursor("SELECT ALL FROM item ORDER BY n", fetch_size=f)
        cursor.next()   # first pull triggers the one-batch prefetch
        constructed = db.io_report()["operator_rows:MoleculeConstruct"]
        assert constructed <= 2 * f
        cursor.close()

    def test_close_while_pending_truncates_over_the_wire(self, db, conn):
        db.reset_accounting()
        result = conn.query("SELECT ALL FROM item", fetch_size=16)
        assert result.fetch_next() is not None
        result.close()
        assert result.truncated
        with pytest.raises(CursorStateError):
            result.reopen()
        # ... and the server side actually released the pipeline.
        assert db.io_report()["serve_pipelines_released"] == 1

    def test_close_decides_truncation_without_a_fetch(self, db, manager,
                                                      conn):
        # The truncation probe consults the cursor's buffered state
        # (has_pending) — abandoning a stream costs only the CLOSE pair,
        # never another FETCH round trip or prefetched batch.
        result = conn.query("SELECT ALL FROM item", fetch_size=16)
        result.fetch_next()
        before = manager.stats.messages
        construct_before = db.io_report()["operator_rows:MoleculeConstruct"]
        result.close()
        assert manager.stats.messages == before + 2   # CLOSE + ack
        # Only the server's own bounded truncation probe constructs
        # (at most one molecule) — no client FETCH, no prefetch batch.
        assert db.io_report()["operator_rows:MoleculeConstruct"] <= \
            construct_before + 1
        assert result.truncated

    def test_abandoned_stream_costs_less_than_the_whole_set(self):
        """Abandoning a 2 000-molecule scan after 10: the stream ships
        about 10 plus one prefetched batch, so its modelled
        communication time stays under the whole-set ship's."""
        db = Prima()
        db.execute("CREATE ATOM_TYPE item (item_id: IDENTIFIER, "
                   "n: INTEGER) KEYS_ARE (n)")
        for i in range(2000):
            db.insert_atom("item", {"n": i})
        manager = SessionManager(db)

        def abandon_after_ten(fetch_size) -> float:
            db.reset_accounting()
            with repro.connect(manager) as conn:
                result = conn.query("SELECT ALL FROM item",
                                    fetch_size=fetch_size)
                for _ in range(10):
                    assert result.fetch_next() is not None
                result.close()
                return db.io_report()["net_comm_time_ms"]

        assert abandon_after_ten(8) < abandon_after_ten(None)

    def test_reopen_restreams_over_the_wire(self, conn):
        result = conn.query("SELECT ALL FROM item WHERE grp = 3",
                            fetch_size=4)
        first = [m.atom["n"] for m in result]
        result.reopen()
        assert [m.atom["n"] for m in result] == first

    def test_close_after_exhaustion_keeps_reopen_legal(self, conn):
        result = conn.query("SELECT ALL FROM item WHERE grp = 3",
                            fetch_size=4)
        first = [m.atom["n"] for m in result]
        result.close()
        assert not result.truncated
        result.reopen()   # complete cache, no wire interaction
        assert [m.atom["n"] for m in result] == first

    def test_on_arrival_sees_every_molecule(self, conn):
        arrived = []
        cursor = conn.cursor(
            "SELECT ALL FROM item WHERE grp = 5", fetch_size=4,
            on_arrival=lambda m: arrived.append(m.atom["n"]))
        delivered = [m.atom["n"] for m in cursor]
        assert arrived == delivered

    def test_unknown_cursor_rejected(self, manager):
        with repro.connect(manager) as conn:
            with pytest.raises(SessionStateError):
                conn.session.handle(protocol.Fetch(cursor_id=99, count=4))

    def test_session_close_releases_open_cursors(self, db, manager):
        conn = repro.connect(manager)
        conn.cursor("SELECT ALL FROM item", fetch_size=8)
        assert conn.session.open_cursors == 1
        conn.close()
        assert db.io_report()["serve_pipelines_released"] >= 1

    def test_session_close_counts_the_cursors_it_releases(self, manager):
        """Teardown keeps opened = closed + open + reaped."""
        conn = repro.connect(manager, name="w")
        conn.cursor("SELECT ALL FROM item WHERE n < 20", fetch_size=4)
        conn.close()
        report = manager.io_report()
        assert report["session:w:cursors_opened"] == 1
        assert report["session:w:cursors_closed"] == 1
        assert "session:w:cursors_reaped" not in report


class TestLockScope:
    def test_peer_write_proceeds_under_open_cursor(self, manager):
        # Snapshot reads take no type-level locks: a peer's INSERT no
        # longer conflicts with an open cursor — and the cursor, pinned
        # to its open-time epoch, never sees the concurrent commit.
        reader = repro.connect(manager)
        writer = repro.connect(manager)
        cursor = reader.query("SELECT ALL FROM item", fetch_size=4)
        assert writer.execute("INSERT item (n = 910)").affected == 1
        rows = [m.atom["n"] for m in cursor]
        assert len(rows) == N_ITEMS and 910 not in rows
        # A cursor opened after the commit sees the new atom.
        assert len(reader.query("SELECT ALL FROM item WHERE n = 910")) == 1
        reader.close()
        writer.close()

    def test_session_can_write_what_it_read(self, conn):
        # The DML subtransaction is a child of the session transaction,
        # so the session's own cursor locks never conflict with it.
        conn.query("SELECT ALL FROM item WHERE grp = 1")
        assert conn.execute("INSERT item (n = 920)").affected == 1

    def test_write_lock_retained_until_session_close(self, manager):
        # The writer retains type-level X until session close (Moss
        # inheritance) — but snapshot readers take no locks, so peer
        # reads proceed and see the committed write immediately.
        writer = repro.connect(manager)
        writer.execute("INSERT item (n = 930)")
        reader = repro.connect(manager)
        assert len(reader.query("SELECT ALL FROM item WHERE n = 930")) == 1
        # The retained X is real: a peer *writer* still conflicts.
        peer = repro.connect(manager)
        with pytest.raises(LockConflictError):
            peer.execute("INSERT item (n = 931)")
        writer.close()   # inherited X released with the session
        assert peer.execute("INSERT item (n = 931)").affected == 1
        peer.close()
        reader.close()

    def test_failed_write_releases_its_lock(self, manager):
        from repro.errors import PrimaError
        writer = repro.connect(manager)
        with pytest.raises(PrimaError):
            writer.execute("INSERT item (n = 0)")   # duplicate key
        peer = repro.connect(manager)
        peer.query("SELECT ALL FROM item WHERE grp = 0")   # no conflict
        peer.close()
        writer.close()

    def test_service_reads_never_block_writes(self, db):
        # The server's service session reads via snapshots, so a client
        # INSERT on the same type proceeds with the service session
        # still open; disconnect only frees the admission slot.
        server = PrimaServer(db)
        server.query("SELECT ALL FROM item WHERE grp = 0").materialize()
        assert server.sessions.active_sessions == 1
        with repro.connect(server.sessions) as conn:
            assert conn.execute("INSERT item (n = 940)").affected == 1
            server.disconnect()   # frees the service slot
            assert server.sessions.active_sessions == 1   # only `conn`
        assert server.sessions.active_sessions == 0

    def test_checkins_do_not_conflict_with_cursors(self):
        database = Prima()
        handles = brep.generate(database, n_solids=2)
        server = PrimaServer(database)
        cad1 = Workstation(server, name="cad-1")
        cad2 = Workstation(server, name="cad-2")
        query = "SELECT ALL FROM brep-edge WHERE brep_no = 1713"
        edge = cad1.checkout(query)[0].component_list("edge")[0].surrogate
        cad2.checkout(query)
        cad1.modify(edge, {"length": 1.0})
        cad2.modify(edge, {"length": 2.0})
        cad1.commit()
        cad2.commit()   # optimistic protocol: later checkin wins
        assert handles.db.access.get(edge)["length"] == 2.0


class TestConcurrentClients:
    def test_concurrent_sessions_no_lost_or_duplicated(self, db):
        manager = SessionManager(db, max_sessions=GROUPS)
        expected = [[n for n in range(N_ITEMS) if n % GROUPS == g]
                    for g in range(GROUPS)]

        def job(group):
            def run(conn):
                result = conn.query(
                    f"SELECT ALL FROM item WHERE grp = {group}",
                    fetch_size=4)
                return [m.atom["n"] for m in result]
            return run

        results = run_clients(manager, [job(g) for g in range(GROUPS)])
        assert results == expected          # nothing lost, nothing doubled
        # deterministic: a second round delivers the same per-session sets
        assert run_clients(manager,
                           [job(g) for g in range(GROUPS)]) == expected
        assert manager.active_sessions == 0

    def test_clients_respect_admission_queue(self, db):
        manager = SessionManager(db, max_sessions=2, admission="queue")

        def job(conn):
            return len(conn.query("SELECT ALL FROM item WHERE grp = 1",
                                  fetch_size=8))

        results = run_clients(manager, [job] * 6)
        assert results == [N_ITEMS // GROUPS] * 6

    def test_crashing_client_frees_its_slot(self, db):
        manager = SessionManager(db, max_sessions=2)

        def bad(_conn):
            raise RuntimeError("client crashed")

        with pytest.raises(RuntimeError):
            run_clients(manager, [bad])
        assert manager.active_sessions == 0

    def test_named_clients_surface_in_io_report(self, db):
        manager = SessionManager(db, max_sessions=2)

        def job(conn):
            conn.query("SELECT ALL FROM item WHERE grp = 2",
                       fetch_size=4).materialize()
            return conn.name

        names = run_clients(manager, [job, job], names=["red", "blue"])
        assert names == ["red", "blue"]
        report = manager.io_report()
        assert report["session:red:cursors_opened"] == 1
        assert report["session:blue:rows_streamed"] == N_ITEMS // GROUPS


class TestServingCounters:
    def test_network_counters_in_io_report(self, db, manager):
        with repro.connect(manager) as conn:
            conn.query("SELECT ALL FROM item WHERE grp = 0",
                       fetch_size=None).materialize()
            report = db.io_report()   # before GOODBYE, a billed pair
        assert report["net_messages"] == 2
        assert report["net_bytes"] > 0
        assert report["net_comm_time_ms"] > 0
        assert report["serve_sessions_opened"] == 1
        assert report["serve_cursors_opened"] == 1

    def test_manager_report_merges_per_session_counters(self, db, manager):
        with repro.connect(manager, name="ws-a") as conn:
            conn.query("SELECT ALL FROM item WHERE grp = 0",
                       fetch_size=4).materialize()
        report = manager.io_report()
        assert report["session:ws-a:cursors_opened"] == 1
        assert report["session:ws-a:rows_streamed"] == N_ITEMS // GROUPS
        assert report["serve_sessions_peak"] == 1
        assert report["net_messages"] == manager.stats.messages

    def test_parallel_query_inside_session(self, db, manager):
        """Beside serving sessions a parallel SELECT holds the engine
        mutex across the whole statement: while another thread holds it,
        its root scan does not even start."""
        query = "SELECT ALL FROM item WHERE grp = 6"
        held, release = threading.Event(), threading.Event()
        outcome = {}

        def write() -> None:
            with db.mutex:
                held.set()
                release.wait(timeout=10)

        def parallel_read() -> None:
            outcome["molecules"] = parallel_select(
                db, query, processors=3).result

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        assert held.wait(timeout=10)
        scans = db.io_report().get("scans_opened", 0)
        reader = threading.Thread(target=parallel_read, daemon=True)
        reader.start()
        reader.join(timeout=0.2)
        assert reader.is_alive()
        assert db.io_report().get("scans_opened", 0) == scans
        release.set()
        writer.join(timeout=10)
        reader.join(timeout=10)
        assert not writer.is_alive() and not reader.is_alive()
        assert [m.to_dict() for m in outcome["molecules"]] == \
            [m.to_dict() for m in db.query(query)]
        assert len(outcome["molecules"]) == N_ITEMS // GROUPS


class TestOneBatchAnswer:
    """A set whose first batch exhausts it is one OPEN exchange: the
    server ends its cursor inside the reply, the client's close sends
    nothing and its rewind replays the held batch."""

    LOOKUP = "SELECT ALL FROM item WHERE n = ?"

    @pytest.fixture(params=["local", "daemon", "shard4"])
    def served(self, request):
        """(engine, connection) over an in-process connection, the
        daemon socket, and a 4-shard cluster."""
        engine = ShardedCluster(shards=4) if request.param == "shard4" \
            else Prima()
        engine.execute("CREATE ATOM_TYPE item (item_id: IDENTIFIER, "
                       "n: INTEGER, grp: INTEGER) KEYS_ARE (n)")
        for i in range(N_ITEMS):
            engine.insert_atom("item", {"n": i, "grp": i % GROUPS})
        with contextlib.ExitStack() as stack:
            target = engine if request.param != "daemon" else \
                stack.enter_context(PrimaDaemon(SessionManager(engine)))
            yield engine, stack.enter_context(repro.connect(target))

    @staticmethod
    def messages(engine) -> int:
        return engine.io_report()["net_messages"]

    @staticmethod
    def assert_released(engine, conn) -> None:
        report = engine.io_report()
        assert report["serve_cursors_closed"] == \
            report["serve_cursors_opened"]
        assert report["serve_pipelines_released"] == \
            report["serve_cursors_opened"]
        if conn.session is not None:
            assert conn.session.open_cursors == 0
        assert not any(shard.access.atoms.versions.pinned
                       for shard in engine.engines)

    def test_lookup_costs_one_message_pair(self, served):
        engine, conn = served
        stmt = conn.prepare(self.LOOKUP)
        before = self.messages(engine)
        result = stmt.execute(7)
        rows = result.materialize()
        result.close()
        assert self.messages(engine) - before == 2
        assert [m.atom["n"] for m in rows] == [7]
        self.assert_released(engine, conn)

    def test_rewind_replays_the_held_answer(self, served):
        engine, conn = served
        arrived: list = []
        stmt = conn.prepare(self.LOOKUP)
        result = stmt.execute(7, fetch_size=None, on_arrival=arrived.append)
        first = [m.to_dict() for m in result.materialize()]
        before = self.messages(engine)
        result.reopen()
        assert [m.to_dict() for m in result.materialize()] == first
        result.close()
        assert self.messages(engine) == before
        assert [m.atom["n"] for m in arrived] == [7, 7]
        self.assert_released(engine, conn)

    def test_query_reopens_without_a_server_cursor(self, served):
        engine, conn = served
        result = conn.query("SELECT ALL FROM item WHERE grp = 3",
                            fetch_size=None)
        first = [m.atom["n"] for m in result]
        result.reopen()
        assert [m.atom["n"] for m in result] == first
        assert len(first) == N_ITEMS // GROUPS
        result.close()
        self.assert_released(engine, conn)

    def test_multi_batch_cursor_still_closes(self, served):
        engine, conn = served
        before = self.messages(engine)
        result = conn.query("SELECT ALL FROM item WHERE n < 5", fetch_size=2)
        assert sorted(m.atom["n"] for m in result) == [0, 1, 2, 3, 4]
        assert engine.io_report().get("serve_cursors_closed", 0) == 0
        result.close()
        # OPEN (2 rows), FETCH (2 rows), FETCH (1 row: exhausted), CLOSE.
        assert self.messages(engine) - before == 8
        self.assert_released(engine, conn)


class TestWorkstationStreaming:
    @pytest.fixture
    def coupled(self):
        database = Prima()
        handles = brep.generate(database, n_solids=3)
        server = PrimaServer(database)
        return handles, server, Workstation(server)

    def test_streaming_checkout_fills_buffer_incrementally(self, coupled):
        _handles, _server, station = coupled
        result = station.checkout("SELECT ALL FROM solid", fetch_size=1)
        loaded_early = len(station.buffer)
        molecules = list(result)
        assert loaded_early < len(molecules)   # not all materialised at open
        assert len(station.buffer) == len(molecules)

    def test_streaming_checkout_close_stops_server_work(self, coupled):
        handles, _server, station = coupled
        handles.db.reset_accounting()
        result = station.checkout("SELECT ALL FROM solid", fetch_size=1)
        assert result.fetch_next() is not None
        result.close()
        constructed = \
            handles.db.io_report()["operator_rows:MoleculeConstruct"]
        assert constructed <= 4   # two batches + the truncation probe
        assert result.truncated

    def test_default_checkout_still_two_messages(self, coupled):
        _handles, server, station = coupled
        station.checkout("SELECT ALL FROM brep-face-edge-point "
                         "WHERE brep_no = 1713")
        assert server.stats.messages == 2

    def test_batched_closure_drops_message_count(self, coupled):
        handles, server, station = coupled
        query = "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1713"
        station.checkout(query, set_oriented=False)
        record_messages = server.stats.messages

        other_server = PrimaServer(handles.db)
        other = Workstation(other_server)
        other.checkout(query, set_oriented=False, batched=True)
        batched_messages = other_server.stats.messages
        assert batched_messages < record_messages / 3
        assert len(other.buffer) == len(station.buffer)

    def test_disconnect_frees_admission_slot(self, coupled):
        _handles, server, station = coupled
        station.checkout("SELECT ALL FROM solid WHERE sub = EMPTY")
        assert server.sessions.active_sessions == 1
        station.disconnect()
        assert server.sessions.active_sessions == 0
        # next interaction reconnects transparently
        station.checkout("SELECT ALL FROM solid WHERE sub = EMPTY")
        assert server.sessions.active_sessions == 1


BREP_FULL = "SELECT ALL FROM brep-face-edge-point"
#: The root edge comes back whole and, under each of its points, again
#: as ``edge_2`` projected to two attributes: one surrogate, two dicts.
BREP_PROJECTED = ("SELECT (edge, point, edge_2 := SELECT edge_id, length "
                  "FROM edge_2) FROM edge-point-edge")


def occurrence_bytes(molecules) -> int:
    """Every atom occurrence of a result, encoded and counted."""
    return sum(len(encode_atom(atom)) for molecule in molecules
               for _label, atom in molecule.atoms())


def drain_notifications(connection, timeout: float = 5.0) -> list:
    deadline = time.monotonic() + timeout
    frames: list = []
    while not frames and time.monotonic() < deadline:
        frames.extend(connection.notifications(timeout=0.1))
    return frames


class TestBillingParity:
    """``net_bytes`` bills one encoded atom per occurrence, shared atoms
    included, on every transport."""

    @pytest.fixture(params=["local", "daemon"])
    def brep_conn(self, request):
        database = Prima()
        handles = brep.generate(database, n_solids=3)
        with contextlib.ExitStack() as stack:
            target = database if request.param == "local" else \
                stack.enter_context(PrimaDaemon(SessionManager(database)))
            yield handles, stack.enter_context(repro.connect(target))

    @pytest.mark.parametrize("mql", [BREP_FULL, BREP_PROJECTED],
                             ids=["full", "projected"])
    def test_open_bills_every_occurrence(self, brep_conn, mql):
        handles, conn = brep_conn
        before = handles.db.io_report()["net_bytes"]
        molecules = conn.query(mql, fetch_size=None).materialize()
        billed = handles.db.io_report()["net_bytes"] - before
        assert billed == (len(mql.encode("utf-8"))
                          + protocol.BATCH_HEADER_BYTES
                          + occurrence_bytes(molecules))

    def test_projection_gives_one_surrogate_two_dicts(self, brep_conn):
        _handles, conn = brep_conn
        shapes: dict = {}
        for molecule in conn.query(BREP_PROJECTED,
                                   fetch_size=None).materialize():
            for _label, atom in molecule.atoms():
                if "edge_id" in atom:
                    shapes.setdefault(atom["edge_id"], set()) \
                        .add(frozenset(atom))
        assert any(len(kinds) == 2 for kinds in shapes.values())

    def test_requery_notify_bills_every_occurrence(self, brep_conn):
        handles, conn = brep_conn
        conn.subscribe(BREP_FULL, deliver="requery")
        before = handles.db.io_report()["net_bytes"]
        point = handles.points[0]
        placement = handles.db.get_atom(point)["placement"]
        placement["x_coord"] += 1.0
        handles.db.modify_atom(point, {"placement": placement})
        frames = drain_notifications(conn)
        assert frames and all(frame.molecules for frame in frames)
        billed = handles.db.io_report()["net_bytes"] - before
        assert billed == sum(protocol.BATCH_HEADER_BYTES
                             + occurrence_bytes(frame.molecules)
                             for frame in frames)


class TestOutOfRangeInteger:
    """An INTEGER outside signed 64-bit is a typed error on every path,
    never a raw ``struct.error``."""

    INSERT = "INSERT item (n = 99999999999999999999, grp = 0)"

    def test_embedded(self, db):
        with pytest.raises(TypeMismatchError):
            db.insert_atom("item", {"n": 2 ** 64, "grp": 0})
        with pytest.raises(TypeMismatchError):
            db.execute(self.INSERT)

    def test_connection(self, conn):
        with pytest.raises(TypeMismatchError):
            conn.execute(self.INSERT)
        # The binding cannot even be billed: the wire encodes INTEGERs
        # in 64 bits.
        lookup = conn.prepare("SELECT ALL FROM item WHERE n = ?")
        with pytest.raises(AccessError):
            lookup.execute(2 ** 64)
        assert len(lookup.execute(3).materialize()) == 1
