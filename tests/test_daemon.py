"""Tests: the asyncio daemon, the wire protocol, and repro.connect().

Covers the event-loop transport end to end — many concurrent async
clients against one daemon thread, admission control over the socket,
resource hygiene (idle cursors, statement handles, session leases) with
an injected clock, abrupt-disconnect reclamation — plus the transport
parity the protocol refactor guarantees: the in-process and the
daemon-socket transport produce identical results *and* identical
modelled network accounting, because both bill through the protocol
codec.
"""

from __future__ import annotations

import asyncio
import gc
import inspect
import re
import struct
import threading
import time
import weakref

import pytest

import repro
from repro import Prima
from repro.errors import (
    CursorStateError,
    ProtocolError,
    SessionError,
    SessionExpiredError,
    SessionLimitError,
    SessionStateError,
)
from repro.obs.network import NetworkModel
from repro.serve import (
    Connection,
    PrimaDaemon,
    SessionManager,
    protocol,
)
from repro.serve.aio import open_client
from repro.serve.tuning import (
    MAX_FETCH_SIZE,
    MIN_FETCH_SIZE,
    tune_fetch_size,
)

N_ITEMS = 60
GROUPS = 6


def make_db(n: int = N_ITEMS) -> Prima:
    db = Prima()
    db.execute("CREATE ATOM_TYPE item (item_id: IDENTIFIER, "
               "n: INTEGER, grp: INTEGER) KEYS_ARE (n)")
    for i in range(n):
        db.insert_atom("item", {"n": i, "grp": i % GROUPS})
    return db


@pytest.fixture
def db():
    return make_db()


class FakeClock:
    """A deterministic manager clock for hygiene tests."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.01)


# ---------------------------------------------------------------------------
# repro.connect(): one façade, every target
# ---------------------------------------------------------------------------

class TestConnect:
    def test_fresh_prima_owned_by_connection(self):
        with repro.connect(name="solo") as conn:
            conn.execute("CREATE ATOM_TYPE t (t_id: IDENTIFIER, "
                         "v: INTEGER)")
            conn.execute("INSERT t (v = 7)")
            assert [m.atom["v"] for m in conn.query("SELECT ALL FROM t")] \
                == [7]
            assert conn.name == "solo"
        assert conn.closed

    def test_existing_prima_reuses_attached_manager(self, db):
        first = repro.connect(db, max_sessions=3)
        second = repro.connect(db)   # no knobs: reuse, same admission domain
        assert second.manager is first.manager
        assert first.manager.active_sessions == 2
        first.close()
        second.close()
        assert first.manager.active_sessions == 0

    def test_existing_prima_with_knobs_builds_new_manager(self, db):
        a = repro.connect(db, max_sessions=1)
        b = repro.connect(db, max_sessions=1)   # separate manager
        assert a.manager is not b.manager
        a.close()
        b.close()

    def test_session_manager_target(self, db):
        manager = SessionManager(db, max_sessions=2)
        with repro.connect(manager, name="m") as conn:
            assert conn.name == "m"
            assert manager.active_sessions == 1
        with pytest.raises(ValueError, match="knobs"):
            repro.connect(manager, max_sessions=5)
        with PrimaDaemon(manager) as daemon:
            with pytest.raises(ValueError, match="knobs cannot be changed"):
                repro.connect(daemon, max_sessions=5)

    def test_every_documented_manager_knob_is_accepted(self, db):
        doc = repro.connect.__doc__
        knobs = re.findall(r"``(\w+)``", doc[doc.index("as its knobs"):
                                             doc.index("see :class:")])
        assert "default_fetch_size" in knobs and len(knobs) >= 5
        assert set(knobs) <= set(inspect.signature(SessionManager).parameters)
        with repro.connect(db, default_fetch_size=4) as conn:
            assert conn.default_fetch_size == 4

    def test_rejects_unknown_target(self):
        with pytest.raises(TypeError, match="cannot connect"):
            repro.connect(42)

    def test_rejects_bad_address(self):
        with pytest.raises(ValueError, match="cannot parse"):
            repro.connect("prima://nowhere")

    def test_closed_connection_refuses(self, db):
        conn = repro.connect(db)
        conn.close()
        with pytest.raises(SessionError):
            conn.query("SELECT ALL FROM item")
        conn.close()   # idempotent

    def test_context_manager_aborts_on_error(self, db):
        manager = SessionManager(db, max_sessions=1)
        with pytest.raises(RuntimeError):
            with repro.connect(manager) as conn:
                conn.execute("INSERT item (n = 900, grp = 0)")
                raise RuntimeError("boom")
        # The abort released the session's X lock on ``item`` and its
        # admission slot: the next writer gets both immediately.
        assert conn.closed
        assert manager.active_sessions == 0
        with repro.connect(manager) as fresh:
            assert fresh.execute("INSERT item (n = 901, grp = 0)"
                                 ).affected == 1


# ---------------------------------------------------------------------------
# The daemon: many async clients, one event-loop thread
# ---------------------------------------------------------------------------

class TestDaemon:
    def test_sync_client_round_trip(self, db):
        manager = SessionManager(db, max_sessions=4)
        with PrimaDaemon(manager) as daemon:
            with daemon.connect(name="ws") as conn:
                rows = sorted(m.atom["n"] for m in
                              conn.query("SELECT ALL FROM item",
                                         fetch_size=8))
                assert rows == list(range(N_ITEMS))
                assert conn.execute("INSERT item (n = 600, grp = 1)"
                                    ).affected == 1
                stmt = conn.prepare("SELECT ALL FROM item WHERE grp = ?")
                assert len(list(stmt.execute(1))) == N_ITEMS // GROUPS + 1
                assert "SCAN" in conn.explain("SELECT ALL FROM item")
                assert conn.ping() == "ws"
        assert manager.active_sessions == 0

    def test_wire_errors_keep_their_class(self, db):
        manager = SessionManager(db, max_sessions=4)
        with PrimaDaemon(manager) as daemon:
            with daemon.connect() as conn:
                with pytest.raises(SessionStateError, match="no cursor"):
                    conn._transport.request(  # noqa: SLF001
                        protocol.Fetch(cursor_id=99, count=4))
                cursor = conn.cursor("SELECT ALL FROM item", fetch_size=4)
                next(iter(cursor))
                cursor.close()
                with pytest.raises(SessionStateError):
                    cursor.rewind()

    def test_truncation_surfaces_across_the_wire(self, db):
        manager = SessionManager(db, max_sessions=4)
        with PrimaDaemon(manager) as daemon:
            with daemon.connect() as conn:
                result = conn.query("SELECT ALL FROM item", fetch_size=4)
                result.fetch_next()
                result.close()
                assert result.truncated
                with pytest.raises(CursorStateError):
                    result.reopen()

    def test_many_async_clients_one_daemon_thread(self, db):
        clients = 32
        manager = SessionManager(db, max_sessions=clients)
        threads_before = threading.active_count()
        peak_threads = 0

        async def one_client(host, port, index):
            async with await open_client(host, port, f"c{index}") as client:
                reply = await client.request(protocol.Open(
                    f"SELECT ALL FROM item WHERE grp = {index % GROUPS}",
                    None, (), None))
                return sorted(m.atom["n"] for m in reply.batch)

        async def fleet(host, port):
            nonlocal peak_threads
            results = await asyncio.gather(*[
                one_client(host, port, i) for i in range(clients)])
            peak_threads = threading.active_count()
            return results

        with PrimaDaemon(manager) as daemon:
            host, port = daemon.address
            results = asyncio.run(fleet(host, port))
            assert daemon.connections_served == clients

        expected = {g: sorted(n for n in range(N_ITEMS) if n % GROUPS == g)
                    for g in range(GROUPS)}
        for index, rows in enumerate(results):
            assert rows == expected[index % GROUPS]
        # The whole fleet was served by O(1) extra threads: the daemon's
        # event loop — not one thread per session.
        assert peak_threads - threads_before <= 2
        assert manager.active_sessions == 0
        assert db.io_report()["serve_sessions_opened"] >= clients

    def test_admission_reject_over_socket(self, db):
        manager = SessionManager(db, max_sessions=1, admission="reject")

        async def scenario(host, port):
            first = await open_client(host, port)
            try:
                with pytest.raises(SessionLimitError):
                    await open_client(host, port)
            finally:
                await first.goodbye()
                await first.close()

        with PrimaDaemon(manager) as daemon:
            asyncio.run(scenario(*daemon.address))
        assert manager.active_sessions == 0

    def test_admission_queue_over_socket(self, db):
        manager = SessionManager(db, max_sessions=1, admission="queue")

        async def scenario(host, port):
            first = await open_client(host, port)
            waiting = asyncio.ensure_future(open_client(host, port))
            await asyncio.sleep(0.08)
            assert not waiting.done()   # parked, not rejected
            await first.goodbye()
            await first.close()
            second = await asyncio.wait_for(waiting, timeout=5)
            pong = await second.request(protocol.Ping())
            assert pong.session
            await second.goodbye()
            await second.close()

        with PrimaDaemon(manager) as daemon:
            asyncio.run(scenario(*daemon.address))
        assert db.io_report()["serve_sessions_queued"] >= 1
        assert manager.active_sessions == 0

    def test_queue_timeout_over_socket(self, db):
        manager = SessionManager(db, max_sessions=1, admission="queue",
                                 queue_timeout=0.1)

        async def scenario(host, port):
            first = await open_client(host, port)
            try:
                with pytest.raises(SessionLimitError, match="timed out"):
                    await open_client(host, port)
            finally:
                await first.goodbye()
                await first.close()

        with PrimaDaemon(manager) as daemon:
            asyncio.run(scenario(*daemon.address))

    def test_abrupt_disconnect_mid_fetch_reclaims_everything(self, db):
        manager = SessionManager(db, max_sessions=1)

        async def scenario(host, port):
            client = await open_client(host, port)
            reply = await client.request(protocol.Open(
                "SELECT ALL FROM item", 4, (), None))
            assert not reply.exhausted
            await client.close()   # no GOODBYE: the crash path

        with PrimaDaemon(manager) as daemon:
            before = db.io_report().get("serve_pipelines_released", 0)
            asyncio.run(scenario(*daemon.address))
            # The daemon aborts the session on EOF: pipeline truncated
            # and released, admission slot returned.
            wait_until(lambda: manager.active_sessions == 0)
            wait_until(lambda: db.io_report().get(
                "serve_pipelines_released", 0) > before)
            with daemon.connect() as conn:   # the slot is usable again
                assert conn.ping()

    def test_hello_required_first(self, db):
        manager = SessionManager(db, max_sessions=1)
        with PrimaDaemon(manager) as daemon:

            async def scenario(host, port):
                reader, writer = await asyncio.open_connection(host, port)
                from repro.serve.aio import read_message, write_message
                await write_message(writer, protocol.Ping())
                reply = await read_message(reader)
                assert isinstance(reply, protocol.WireError)
                assert reply.kind == "ProtocolError"
                writer.close()

            asyncio.run(scenario(*daemon.address))
        assert manager.active_sessions == 0

    def test_daemon_cannot_restart(self, db):
        manager = SessionManager(db)
        daemon = PrimaDaemon(manager).start()
        daemon.stop()
        with pytest.raises(SessionError, match="restarted"):
            daemon.start()


# ---------------------------------------------------------------------------
# Resource hygiene: idle cursors, statement handles, session leases
# ---------------------------------------------------------------------------

class TestHygiene:
    def test_idle_cursor_reaped(self, db):
        clock = FakeClock()
        manager = SessionManager(db, idle_timeout=30, clock=clock)
        conn = repro.connect(manager)
        cursor = conn.cursor("SELECT ALL FROM item", fetch_size=4)
        next(iter(cursor))
        before = db.io_report().get("serve_pipelines_released", 0)
        clock.advance(31)
        reaped = manager.reap()
        assert reaped["cursors_reaped"] == 1
        assert db.io_report()["serve_pipelines_released"] > before
        assert db.io_report()["serve_cursors_reaped"] == 1
        with pytest.raises(SessionExpiredError, match="reclaimed"):
            conn._transport.request(  # noqa: SLF001
                protocol.Fetch(cursor.cursor_id, 4))
        conn.close()

    def test_reaped_cursor_is_not_counted_closed(self, db):
        clock = FakeClock()
        manager = SessionManager(db, idle_timeout=30, clock=clock)
        conn = repro.connect(manager, name="idle")
        cursor = conn.cursor("SELECT ALL FROM item", fetch_size=4)
        clock.advance(31)
        assert manager.reap()["cursors_reaped"] == 1
        cursor.close()              # CLOSE of the reclaimed id
        report = manager.io_report()
        assert report.get("session:idle:cursors_closed", 0) == 0
        assert report["session:idle:cursors_reaped"] == 1
        conn.close()

    def test_active_cursor_survives_reap(self, db):
        clock = FakeClock()
        manager = SessionManager(db, idle_timeout=30, clock=clock)
        conn = repro.connect(manager)
        cursor = conn.cursor("SELECT ALL FROM item", fetch_size=4)
        clock.advance(20)
        next(iter(cursor))          # touches the cursor
        clock.advance(20)
        assert manager.reap()["cursors_reaped"] == 0
        assert sorted(m.atom["n"] for m in cursor) == \
            sorted(range(1, N_ITEMS))
        conn.close()

    def test_idle_statement_reaped(self, db):
        clock = FakeClock()
        manager = SessionManager(db, idle_timeout=60, clock=clock)
        conn = repro.connect(manager)
        stmt = conn.prepare("SELECT ALL FROM item WHERE grp = ?")
        assert len(list(stmt.execute(0))) == N_ITEMS // GROUPS
        clock.advance(61)
        assert manager.reap()["statements_reaped"] == 1
        with pytest.raises(SessionExpiredError, match="deallocated"):
            stmt.execute(1)
        conn.close()

    def test_session_lease_expiry_reclaims_slot(self, db):
        clock = FakeClock()
        manager = SessionManager(db, max_sessions=1, session_lease=120,
                                 clock=clock)
        conn = repro.connect(manager, name="idle")
        conn.execute("INSERT item (n = 700, grp = 0)")   # holds X on item
        clock.advance(121)
        assert manager.reap()["sessions_expired"] == 1
        assert manager.active_sessions == 0
        with pytest.raises(SessionExpiredError, match="lease expired"):
            conn.ping()
        # The slot is free for the next client.
        with repro.connect(manager) as fresh:
            assert fresh.ping()
        assert db.io_report()["serve_sessions_expired"] == 1

    def test_ping_keepalive_refreshes_lease(self, db):
        clock = FakeClock()
        manager = SessionManager(db, session_lease=120, clock=clock)
        conn = repro.connect(manager)
        for _ in range(3):
            clock.advance(100)
            conn.ping()             # keepalive beats the lease
        assert manager.reap()["sessions_expired"] == 0
        assert conn.ping()
        conn.close()

    def test_daemon_reaper_enforces_lease(self, db):
        manager = SessionManager(db, max_sessions=1, session_lease=0.15)
        with PrimaDaemon(manager, reap_interval=0.03) as daemon:
            conn = daemon.connect()
            assert conn.ping()
            wait_until(lambda: manager.active_sessions == 0)
            with pytest.raises(SessionExpiredError):
                conn.ping()
            with daemon.connect() as fresh:   # the slot came back
                assert fresh.ping()


class TestRetiredSessions:
    """The manager holds open sessions only; a closed one leaves its
    counters (and its histograms, folded) behind."""

    def test_closed_session_is_not_kept_alive(self, db):
        manager = SessionManager(db)
        conn = repro.connect(manager, name="gone")
        conn.query("SELECT ALL FROM item", fetch_size=4).materialize()
        session = weakref.ref(conn.session)
        conn.close()
        del conn
        gc.collect()
        assert session() is None
        report = manager.io_report()
        assert report["session:gone:cursors_opened"] == 1
        # Every message, GOODBYE included, is observed once.
        latency = db.metrics_report()["histograms"]["request_latency_ms"]
        assert latency["count"] == report["net_messages"] // 2

    def test_metrics_report_cost_does_not_grow_with_closed_sessions(
            self, db):
        manager = SessionManager(db)

        def cycles(count: int) -> None:
            for _ in range(count):
                with repro.connect(manager) as conn:
                    conn.ping()

        def cost() -> float:
            runs = []
            for _ in range(7):
                started = time.perf_counter()
                db.metrics_report()
                runs.append(time.perf_counter() - started)
            return min(runs)

        cycles(10)
        few = cost()
        cycles(1990)
        assert cost() <= 3 * few


# ---------------------------------------------------------------------------
# Transport parity: in-process vs daemon socket
# ---------------------------------------------------------------------------

def run_workload(conn: Connection) -> list:
    out = []
    out.append(sorted(m.atom["n"] for m in
                      conn.query("SELECT ALL FROM item WHERE grp = 2",
                                 fetch_size=4)))
    stmt = conn.prepare("SELECT ALL FROM item WHERE grp = ?")
    out.append(sorted(m.atom["n"] for m in stmt.execute(3)))
    stmt.close()
    out.append(conn.execute("INSERT item (n = 800, grp = 0)").affected)
    out.append(conn.explain("SELECT ALL FROM item WHERE n < 10"))
    cursor = conn.checkout("SELECT ALL FROM item WHERE grp = 0",
                           fetch_size=None)
    surrogates = [m.surrogate for m in cursor]
    mapping = conn.checkin({surrogates[0]: {"grp": 5}})
    out.append(mapping)
    return out


def accounting(manager: SessionManager) -> dict:
    return {key: value for key, value in manager.io_report().items()
            if key.startswith(("net_", "session:", "serve_sessions_peak"))}


class TestTransportParity:
    def test_results_and_accounting_identical(self):
        db_local, db_remote = make_db(), make_db()
        local_mgr = SessionManager(db_local, max_sessions=2)
        remote_mgr = SessionManager(db_remote, max_sessions=2)

        with repro.connect(local_mgr, name="c") as conn:
            local_out = run_workload(conn)
        with PrimaDaemon(remote_mgr) as daemon:
            with daemon.connect(name="c") as conn:
                remote_out = run_workload(conn)

        # Identical results...
        assert local_out[:4] == remote_out[:4]
        # ...identical modelled accounting: both transports bill through
        # the protocol codec, message for message, byte for byte.
        assert accounting(local_mgr) == accounting(remote_mgr)

    def test_fetch_streaming_parity(self):
        db_local, db_remote = make_db(), make_db()
        local_mgr = SessionManager(db_local, default_fetch_size=8)
        remote_mgr = SessionManager(db_remote, default_fetch_size=8)
        with repro.connect(local_mgr, name="s") as conn:
            local_rows = [m.atom["n"] for m in
                          conn.query("SELECT ALL FROM item ORDER BY n")]
        with PrimaDaemon(remote_mgr) as daemon:
            with daemon.connect(name="s") as conn:
                remote_rows = [m.atom["n"] for m in
                               conn.query("SELECT ALL FROM item "
                                          "ORDER BY n")]
        assert local_rows == remote_rows == list(range(N_ITEMS))
        assert accounting(local_mgr) == accounting(remote_mgr)


# ---------------------------------------------------------------------------
# Fetch-size auto-tuning
# ---------------------------------------------------------------------------

class TestAutoTuning:
    def test_tuned_size_formula(self):
        model = NetworkModel()
        # f >= per_message_ms * bw * (1 - t) / (t * row_bytes), clamped.
        expected = int(model.per_message_ms * model.bytes_per_ms * 0.8
                       / (0.2 * 1000))
        assert tune_fetch_size(model, 1000) == expected
        assert tune_fetch_size(model, 1) == MAX_FETCH_SIZE
        assert tune_fetch_size(model, 10**9) == MIN_FETCH_SIZE
        assert tune_fetch_size(model, 0) == MAX_FETCH_SIZE

    def test_auto_open_resolves_and_streams(self, db):
        manager = SessionManager(db, default_fetch_size="auto")
        with repro.connect(manager) as conn:
            cursor = conn.cursor("SELECT ALL FROM item")
            assert MIN_FETCH_SIZE <= cursor.fetch_size <= MAX_FETCH_SIZE
            assert sorted(m.atom["n"] for m in cursor) == \
                list(range(N_ITEMS))
        assert db.io_report()["serve_fetch_sizes_tuned"] == 1

    def test_auto_beats_the_static_default_on_modelled_time(self):
        """One full stream: the tuned fetch size spends less modelled
        network time than the static 16 (fewer per-message costs)."""
        db = make_db(512)

        def comm_ms(fetch_size) -> float:
            manager = SessionManager(db, default_fetch_size=fetch_size)
            with repro.connect(manager) as conn:
                assert len(list(conn.cursor("SELECT ALL FROM item"))) \
                    == 512
                return manager.io_report()["net_comm_time_ms"]

        assert comm_ms("auto") < comm_ms(16)

    def test_auto_over_the_wire(self, db):
        manager = SessionManager(db)
        with PrimaDaemon(manager) as daemon:
            with daemon.connect() as conn:
                cursor = conn.cursor("SELECT ALL FROM item",
                                     fetch_size="auto")
                assert MIN_FETCH_SIZE <= cursor.fetch_size <= MAX_FETCH_SIZE
                assert len(list(cursor)) == N_ITEMS


# ---------------------------------------------------------------------------
# Protocol codec
# ---------------------------------------------------------------------------

class TestProtocolCodec:
    def test_encode_decode_round_trip(self):
        message = protocol.Open("SELECT ALL FROM item", 8, (1, 2),
                                {"name": "x"})
        decoded = protocol.decode(protocol.encode(message))
        assert decoded == message

    def test_malformed_frame_rejected(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            protocol.decode(b"not a pickle")

    def test_non_message_payload_rejected(self):
        import pickle
        with pytest.raises(ProtocolError, match="not a protocol"):
            protocol.decode(pickle.dumps({"just": "a dict"}))

    def test_runaway_frame_length_rejected(self):
        header = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.frame_length(header)

    def test_wire_error_keeps_class(self):
        error = protocol.wire_error(CursorStateError("truncated set"))
        with pytest.raises(CursorStateError, match="truncated set"):
            protocol.raise_wire_error(error)

    def test_unknown_wire_error_degrades_to_session_error(self):
        error = protocol.WireError(kind="NoSuchError", message="???")
        with pytest.raises(SessionError, match="NoSuchError"):
            protocol.raise_wire_error(error)

    def test_wire_size_matches_legacy_constants(self):
        assert protocol.wire_size(protocol.Fetch(1, 8)) == \
            protocol.FETCH_REQUEST_BYTES
        assert protocol.wire_size(protocol.CloseCursor(1)) == \
            protocol.CONTROL_REQUEST_BYTES
        assert protocol.wire_size(protocol.Ack()) == protocol.ACK_BYTES
        assert protocol.wire_size(protocol.PrepareReply(1)) == \
            protocol.STATEMENT_HANDLE_BYTES
        assert protocol.wire_size(protocol.Batch([], True)) == \
            protocol.BATCH_HEADER_BYTES

    def test_notify_batch_bills_like_a_batch(self, db):
        molecules = db.query("SELECT ALL FROM item WHERE grp = 1") \
            .materialize()
        assert protocol.wire_size(protocol.Notify(molecules=molecules)) \
            == protocol.wire_size(protocol.Batch(molecules, True))
