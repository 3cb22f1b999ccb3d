"""B7 — the asyncio daemon: event-loop serving at O(1) threads.

PR 7 lifted the client exchanges into an explicit wire protocol
(:mod:`repro.serve.protocol`) and added the asyncio daemon transport
(:class:`~repro.serve.daemon.PrimaDaemon`): many concurrent socket
clients multiplexed onto **one** event-loop thread, with bounded send
queues for backpressure and a reaper enforcing leases.

On a single-core CI box wall-clock numbers are noise, so the structural
property is the hard gate and the comparative ones are regression
markers (``benchmarks/check_regressions.py`` fails CI on them):

* **O(1) threads** (hard assert): the daemon's thread count does not
  grow with the client count — 1 → 64 concurrent sessions are all
  served from the same event-loop thread (in-process clients on
  threads, ``_util.run_clients``, need one OS thread *each*);
* **throughput** (marker): at 32 concurrent clients the daemon must
  deliver at least ``THROUGHPUT_MARGIN`` of the thread-per-session
  loop's rows/s — the event loop must not collapse under concurrency
  (the daemon pays real pickling + socket costs the in-process loop
  does not, hence the margin);
* **auto-tuning** (marker): a fetch size tuned from the
  :class:`~repro.obs.network.NetworkModel` must beat the static
  default on modelled ``net_comm_time_ms`` for the same stream;
* **lease reclaim** (hard assert): abandoned sessions are expired by
  the daemon's reaper and their admission slots come back without any
  client cooperation.
"""

from __future__ import annotations

import asyncio
import threading
import time

from _util import emit_bench, run_clients
from common import print_header, print_table

import repro
from repro import Prima
from repro.serve import PrimaDaemon, SessionManager, protocol

N_ITEMS = 4_096
GROUPS = 64
ROWS_PER_CLIENT = N_ITEMS // GROUPS
CLIENT_SWEEP = (1, 4, 16, 32, 64)
FETCH_SIZE = 16
THROUGHPUT_MARGIN = 0.5
STATIC_FETCH_SIZE = 16
#: Thread-count slack over the pre-daemon baseline: the event-loop
#: thread itself plus one for interpreter-internal transients.
THREAD_SLACK = 2


def build_database() -> Prima:
    db = Prima()
    db.execute("CREATE ATOM_TYPE item (item_id: IDENTIFIER, "
               "n: INTEGER, grp: INTEGER) KEYS_ARE (n)")
    for i in range(N_ITEMS):
        db.insert_atom("item", {"n": i, "grp": i % GROUPS})
    return db


async def _stream_client(host: str, port: int, index: int) -> int:
    """One async client: HELLO, OPEN, FETCH to exhaustion, GOODBYE."""
    from repro.serve.aio import open_client
    async with await open_client(host, port, f"c{index}") as client:
        reply = await client.request(protocol.Open(
            f"SELECT ALL FROM item WHERE grp = {index % GROUPS}",
            FETCH_SIZE, (), None))
        rows, exhausted = len(reply.batch), reply.exhausted
        while not exhausted:
            batch = await client.request(
                protocol.Fetch(reply.cursor_id, FETCH_SIZE))
            rows += len(batch.batch)
            exhausted = batch.exhausted
        return rows


def daemon_sweep(db: Prima, regressions: list[str]) -> dict[str, object]:
    """1 → 64 concurrent async clients against one daemon; the thread
    count must stay flat (the hard O(1) gate)."""
    sweep = []
    for clients in CLIENT_SWEEP:
        manager = SessionManager(db, max_sessions=clients,
                                 admission="queue")
        threads_before = threading.active_count()
        with PrimaDaemon(manager) as daemon:
            host, port = daemon.address

            async def fleet(n=clients):
                return await asyncio.gather(*[
                    _stream_client(host, port, i) for i in range(n)])

            started = time.perf_counter()
            counts = asyncio.run(fleet())
            elapsed = time.perf_counter() - started
            threads_during = threading.active_count()
        thread_growth = threads_during - threads_before
        if counts != [ROWS_PER_CLIENT] * clients:
            regressions.append(
                f"{clients} daemon clients delivered {counts} rows "
                f"(want {ROWS_PER_CLIENT} each)")
        if thread_growth > THREAD_SLACK:
            regressions.append(
                f"{clients} clients grew the thread count by "
                f"{thread_growth} (O(1) gate allows {THREAD_SLACK})")
        assert thread_growth <= THREAD_SLACK, \
            "daemon thread count grew with the client count"
        rows = clients * ROWS_PER_CLIENT
        sweep.append({
            "clients": clients,
            "rows": rows,
            "elapsed_s": round(elapsed, 4),
            "rows_per_s": round(rows / elapsed, 1),
            "thread_growth": thread_growth,
        })
    return {"sweep": sweep}


def daemon_vs_thread_loop(db: Prima,
                          regressions: list[str]) -> dict[str, object]:
    """The comparative throughput gate at 32 concurrent clients."""
    clients = 32

    manager = SessionManager(db, max_sessions=clients, admission="queue")

    def job(group: int):
        def run(conn):
            result = conn.query(
                f"SELECT ALL FROM item WHERE grp = {group % GROUPS}",
                fetch_size=FETCH_SIZE)
            return len([m for m in result])
        return run

    started = time.perf_counter()
    counts = run_clients(manager, [job(g) for g in range(clients)])
    loop_elapsed = time.perf_counter() - started
    assert counts == [ROWS_PER_CLIENT] * clients

    manager = SessionManager(db, max_sessions=clients, admission="queue")
    with PrimaDaemon(manager) as daemon:
        host, port = daemon.address

        async def fleet():
            return await asyncio.gather(*[
                _stream_client(host, port, i) for i in range(clients)])

        started = time.perf_counter()
        counts = asyncio.run(fleet())
        daemon_elapsed = time.perf_counter() - started
    assert counts == [ROWS_PER_CLIENT] * clients

    rows = clients * ROWS_PER_CLIENT
    loop_rate = rows / loop_elapsed
    daemon_rate = rows / daemon_elapsed
    if daemon_rate < THROUGHPUT_MARGIN * loop_rate:
        regressions.append(
            f"daemon throughput {daemon_rate:.0f} rows/s fell under "
            f"{THROUGHPUT_MARGIN:.0%} of the thread-per-session loop's "
            f"{loop_rate:.0f} rows/s at {clients} clients")
    return {
        "clients": clients,
        "thread_loop_rows_per_s": round(loop_rate, 1),
        "daemon_rows_per_s": round(daemon_rate, 1),
        "daemon_over_loop": round(daemon_rate / loop_rate, 3),
        "margin": THROUGHPUT_MARGIN,
    }


def auto_tuning(db: Prima, regressions: list[str]) -> dict[str, object]:
    """Auto-tuned fetch size vs the static default, on the modelled
    network time of one full stream."""
    query = "SELECT ALL FROM item"

    def stream(fetch_size) -> tuple[float, int, int]:
        manager = SessionManager(db, default_fetch_size=fetch_size)
        with repro.connect(manager, name="bench") as conn:
            cursor = conn.cursor(query)
            rows = len([m for m in cursor])
            report = manager.io_report()   # before GOODBYE, a billed pair
        return (report["net_comm_time_ms"], report["net_messages"],
                cursor.fetch_size), rows

    (static_ms, static_msgs, _), static_rows = stream(STATIC_FETCH_SIZE)
    (auto_ms, auto_msgs, tuned), auto_rows = stream("auto")
    assert static_rows == auto_rows == N_ITEMS
    if auto_ms > static_ms:
        regressions.append(
            f"auto-tuned fetch size {tuned} cost {auto_ms:.1f} modelled "
            f"ms vs {static_ms:.1f} for the static default "
            f"{STATIC_FETCH_SIZE}")
    return {
        "rows": N_ITEMS,
        "static_fetch_size": STATIC_FETCH_SIZE,
        "static_net_ms": round(static_ms, 1),
        "static_messages": static_msgs,
        "tuned_fetch_size": tuned,
        "auto_net_ms": round(auto_ms, 1),
        "auto_messages": auto_msgs,
        "saving": round(1 - auto_ms / static_ms, 3),
    }


def lease_reclaim(db: Prima, regressions: list[str]) -> dict[str, object]:
    """Abandoned sessions: the daemon's reaper expires leases and
    returns every admission slot without client cooperation."""
    abandoned = 8
    manager = SessionManager(db, max_sessions=abandoned,
                             session_lease=0.2)
    with PrimaDaemon(manager, reap_interval=0.05) as daemon:
        connections = [daemon.connect(name=f"ghost{i}")
                       for i in range(abandoned)]
        assert manager.active_sessions == abandoned
        deadline = time.monotonic() + 10
        while manager.active_sessions and time.monotonic() < deadline:
            time.sleep(0.02)
        reclaimed = abandoned - manager.active_sessions
        if manager.active_sessions:
            regressions.append(
                f"reaper reclaimed only {reclaimed}/{abandoned} "
                f"abandoned sessions")
        assert manager.active_sessions == 0, "lease reaper stalled"
        with daemon.connect(name="fresh") as conn:   # slots are back
            assert conn.ping() == "fresh"
        for connection in connections:
            connection._transport.close()  # noqa: SLF001
    expired = db.io_report()["serve_sessions_expired"]
    return {"abandoned": abandoned, "reclaimed": reclaimed,
            "sessions_expired_counter": expired}


def main() -> None:
    print_header(
        "B7 — asyncio daemon serving",
        f"{N_ITEMS} molecules; client sweep {CLIENT_SWEEP}; "
        f"fetch_size={FETCH_SIZE}",
    )
    regressions: list[str] = []
    db = build_database()

    sweep = daemon_sweep(db, regressions)
    versus = daemon_vs_thread_loop(db, regressions)
    tuning = auto_tuning(db, regressions)
    reclaim = lease_reclaim(db, regressions)

    print_table(
        ["clients", "rows/s", "elapsed s", "thread growth"],
        [[row["clients"], row["rows_per_s"], row["elapsed_s"],
          row["thread_growth"]] for row in sweep["sweep"]],
    )
    print(f"\ndaemon vs thread loop at {versus['clients']} clients: "
          f"{versus['daemon_rows_per_s']} vs "
          f"{versus['thread_loop_rows_per_s']} rows/s "
          f"({versus['daemon_over_loop']:.0%})")
    print(f"auto-tuning: fetch {tuning['tuned_fetch_size']} -> "
          f"{tuning['auto_net_ms']} modelled ms vs "
          f"{tuning['static_net_ms']} at static "
          f"{tuning['static_fetch_size']} "
          f"({tuning['saving']:.0%} saved, "
          f"{tuning['auto_messages']} vs {tuning['static_messages']} "
          f"messages)")
    print(f"lease reclaim: {reclaim['reclaimed']}/{reclaim['abandoned']} "
          f"abandoned sessions expired by the reaper")
    emit_bench("bench_b7_daemon", {
        "n_items": N_ITEMS,
        "client_sweep": list(CLIENT_SWEEP),
        "fetch_size": FETCH_SIZE,
        "daemon_sweep": sweep,
        "daemon_vs_thread_loop": versus,
        "auto_tuning": tuning,
        "lease_reclaim": reclaim,
    }, db=db, regressions=regressions)


if __name__ == "__main__":
    main()
