"""B4 — the serving layer: remote streaming cursors, concurrent sessions.

The serving subsystem (:mod:`repro.serve`) multiplexes many client
sessions onto one PRIMA and streams query results through remote cursors
(OPEN / FETCH(n) / CLOSE over the coupling network's cost model) with
one-batch prefetch.  This bench gates the two properties that make the
layer worth having:

* **End-to-end early termination.**  A served ``SELECT … ORDER BY n
  LIMIT k`` fetched through a ``RemoteCursor`` with ``fetch_size=f``
  constructs **at most k molecules** server-side and never holds more
  than ``2·f`` undelivered molecules in flight (double buffering) —
  hard assertions.  A client that *abandons* an unbounded scan after k
  molecules stops server-side construction at most one batch later,
  where the whole-set ship of the old façade constructed and shipped all
  N — the modelled communication time must reflect that (regression
  marker, deterministic: the network model is a cost model, not a
  wall clock).

* **Deterministic multi-session serving.**  8 concurrent sessions
  interleaving over distinct cursors each see exactly their own molecule
  set — nothing lost, nothing duplicated, identical across repeated
  rounds (regression markers on any mismatch).

Structural properties are asserted hard; comparative properties land in
the JSON ``regressions`` list, which CI's bench-smoke job fails on
(``benchmarks/check_regressions.py``).
"""

from __future__ import annotations

from _util import emit_bench, run_clients
from common import print_header, print_table

import repro
from repro import Prima
from repro.serve import SessionManager

N_ITEMS = 10_000
GROUPS = 8
K = 60
FETCH_SIZE = 16


def build_database() -> Prima:
    db = Prima()
    db.execute("CREATE ATOM_TYPE item (item_id: IDENTIFIER, "
               "n: INTEGER, grp: INTEGER) KEYS_ARE (n)")
    for i in range(N_ITEMS):
        db.insert_atom("item", {"n": i, "grp": i % GROUPS})
    db.execute_ldl("CREATE SORT ORDER item_so ON item (n)")
    return db


def constructed(db: Prima) -> int:
    return int(db.io_report().get("operator_rows:MoleculeConstruct", 0))


def streamed_window(db: Prima, regressions: list[str]) -> dict[str, object]:
    """LIMIT k through a streaming cursor: constructs ≤ k, ≤ 2f in flight."""
    manager = SessionManager(db, max_sessions=2)
    db.reset_accounting()
    with repro.connect(manager, name="window") as conn:
        cursor = conn.cursor(
            f"SELECT ALL FROM item ORDER BY n LIMIT {K}",
            fetch_size=FETCH_SIZE)
        rows = [molecule.atom["n"] for molecule in cursor]
        report = db.io_report()    # before GOODBYE, a billed pair
    built = constructed(db)
    assert rows == list(range(K)), "served window delivered wrong molecules"
    assert built <= K, \
        f"LIMIT {K} constructed {built} molecules through the cursor"
    assert cursor.max_in_flight <= 2 * FETCH_SIZE, \
        f"{cursor.max_in_flight} molecules in flight (> 2*{FETCH_SIZE})"
    if built > K:
        regressions.append(f"streamed LIMIT {K} constructed {built}")
    return {
        "constructed": built,
        "max_in_flight": cursor.max_in_flight,
        "net_messages": report["net_messages"],
        "net_bytes": report["net_bytes"],
        "net_comm_time_ms": report["net_comm_time_ms"],
    }


def abandoned_scan(db: Prima, regressions: list[str]) -> dict[str, object]:
    """Abandon an unbounded scan after k molecules: streamed vs whole-set."""
    manager = SessionManager(db, max_sessions=2)

    db.reset_accounting()
    with repro.connect(manager, name="stream") as conn:
        result = conn.query("SELECT ALL FROM item ORDER BY n",
                            fetch_size=FETCH_SIZE)
        consumed = [result.fetch_next() for _ in range(K)]
        result.close()
        stream_report = db.io_report()
    stream_built = constructed(db)
    assert all(m is not None for m in consumed)
    # current batch + one prefetched batch + the truncation probe
    bound = K + 2 * FETCH_SIZE + 1
    assert stream_built <= bound, \
        f"abandoned stream constructed {stream_built} (> {bound})"

    db.reset_accounting()
    with repro.connect(manager, name="whole") as conn:
        result = conn.query("SELECT ALL FROM item ORDER BY n",
                            fetch_size=None)
        for _ in range(K):
            result.fetch_next()
        result.close()
        whole_report = db.io_report()
    whole_built = constructed(db)
    assert whole_built >= N_ITEMS, "whole-set open should construct all"

    stream_ms = stream_report["net_comm_time_ms"]
    whole_ms = whole_report["net_comm_time_ms"]
    if stream_ms >= whole_ms:
        regressions.append(
            f"streamed abandon-after-{K} cost {stream_ms} ms of modelled "
            f"communication vs {whole_ms} ms for the whole-set ship"
        )
    return {
        "streamed": {"constructed": stream_built,
                     "net_bytes": stream_report["net_bytes"],
                     "net_comm_time_ms": stream_ms},
        "whole_set": {"constructed": whole_built,
                      "net_bytes": whole_report["net_bytes"],
                      "net_comm_time_ms": whole_ms},
    }


def concurrent_sessions(db: Prima,
                        regressions: list[str]) -> dict[str, object]:
    """8 sessions over distinct cursors: per-session results deterministic."""
    manager = SessionManager(db, max_sessions=GROUPS, admission="queue")
    expected = [[n for n in range(N_ITEMS) if n % GROUPS == g]
                for g in range(GROUPS)]

    def job(group: int):
        def run(conn):
            result = conn.query(
                f"SELECT ALL FROM item WHERE grp = {group}", fetch_size=64)
            return [molecule.atom["n"] for molecule in result]
        return run

    rounds = []
    for round_no in range(2):
        results = run_clients(
            manager, [job(g) for g in range(GROUPS)],
            names=[f"r{round_no}-s{g}" for g in range(GROUPS)])
        rounds.append(results)
        for group, (got, want) in enumerate(zip(results, expected)):
            if got != want:
                lost = len(set(want) - set(got))
                extra = len(set(got) - set(want))
                regressions.append(
                    f"round {round_no} session {group}: {lost} lost, "
                    f"{extra} duplicated/foreign molecules"
                )
    if rounds[0] != rounds[1]:
        regressions.append("per-session results differ between rounds")
    report = manager.io_report()
    return {
        "sessions": GROUPS,
        "rows_per_session": N_ITEMS // GROUPS,
        "deterministic": rounds[0] == rounds[1] == expected,
        "sessions_peak": report["serve_sessions_peak"],
        "net_messages": report["net_messages"],
    }


def main() -> None:
    print_header(
        "B4 — serving layer: remote streaming cursors, concurrent sessions",
        f"{N_ITEMS} molecules; LIMIT {K} via fetch_size={FETCH_SIZE}; "
        f"{GROUPS} concurrent sessions",
    )
    regressions: list[str] = []
    db = build_database()

    window = streamed_window(db, regressions)
    abandon = abandoned_scan(db, regressions)
    sessions = concurrent_sessions(db, regressions)

    print_table(
        ["case", "constructed", "net bytes", "comm ms"],
        [
            [f"LIMIT {K} streamed (f={FETCH_SIZE})",
             window["constructed"], window["net_bytes"],
             window["net_comm_time_ms"]],
            [f"abandon after {K}, streamed",
             abandon["streamed"]["constructed"],
             abandon["streamed"]["net_bytes"],
             abandon["streamed"]["net_comm_time_ms"]],
            [f"abandon after {K}, whole-set ship",
             abandon["whole_set"]["constructed"],
             abandon["whole_set"]["net_bytes"],
             abandon["whole_set"]["net_comm_time_ms"]],
        ],
    )
    print(f"\nmax in flight: {window['max_in_flight']} "
          f"(bound 2*{FETCH_SIZE})")
    print(f"concurrent sessions: {sessions['sessions']} x "
          f"{sessions['rows_per_session']} rows, deterministic: "
          f"{sessions['deterministic']}")
    emit_bench("bench_b4_serving", {
        "n_items": N_ITEMS,
        "k": K,
        "fetch_size": FETCH_SIZE,
        "window": window,
        "abandoned_scan": abandon,
        "concurrent_sessions": sessions,
    }, db=db, regressions=regressions)


if __name__ == "__main__":
    main()
