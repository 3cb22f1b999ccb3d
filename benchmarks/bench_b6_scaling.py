"""B6 — snapshot reads: lock-free reads and the multi-session sweep.

Read pipelines pin a copy-on-write snapshot epoch
(:mod:`repro.access.snapshots`) instead of taking type-level S locks;
each message runs under the serving layer's one engine mutex, so
sessions interleave message by message.

On a single-core CI box wall-clock scaling is noise, so the gates are
**structural** (hard assertions + regression markers) and the rows/s of
the 1/2/4/8-session sweep ride along as data:

* snapshot reads acquire **zero** type-level S locks (the lock table
  counts grants per mode);
* readers make progress while a peer session *retains* a type-level X
  (Moss inheritance keeps the lock until session close — under PR 5
  semantics every such read deadlocked or raised);
* a cursor pinned before a write never sees it (isolation under churn).

Comparative misses land in the JSON ``regressions`` list, which CI's
bench-smoke job fails on (``benchmarks/check_regressions.py``).
"""

from __future__ import annotations

import time

from _util import emit_bench, run_clients
from common import print_header, print_table

import repro
from repro import Prima
from repro.serve import SessionManager

N_ITEMS = 6_000
GROUPS = 8
SESSION_SWEEP = (1, 2, 4, 8)
FETCH_SIZE = 32


def build_database() -> Prima:
    db = Prima()
    db.execute("CREATE ATOM_TYPE item (item_id: IDENTIFIER, "
               "n: INTEGER, grp: INTEGER) KEYS_ARE (n)")
    for i in range(N_ITEMS):
        db.insert_atom("item", {"n": i, "grp": i % GROUPS})
    db.execute_ldl("CREATE SORT ORDER item_so ON item (n)")
    return db


def read_scaling(db: Prima, regressions: list[str]) -> dict[str, object]:
    """Sessions sweep: throughput as data, zero S grants as the gate."""
    rows_expected = N_ITEMS // GROUPS
    sweep = []
    for sessions in SESSION_SWEEP:
        manager = SessionManager(db, max_sessions=sessions,
                                 admission="queue")
        locks = manager.txns.locks
        s_before, x_before = locks.grants["S"], locks.grants["X"]

        def job(group: int):
            def run(conn):
                result = conn.query(
                    f"SELECT ALL FROM item WHERE grp = {group % GROUPS}",
                    fetch_size=FETCH_SIZE)
                return len([m for m in result])
            return run

        started = time.perf_counter()
        counts = run_clients(manager, [job(g) for g in range(sessions)])
        elapsed = time.perf_counter() - started
        if counts != [rows_expected] * sessions:
            regressions.append(
                f"{sessions} sessions delivered {counts} rows "
                f"(want {rows_expected} each)"
            )
        s_grants = locks.grants["S"] - s_before
        if s_grants:
            regressions.append(
                f"{sessions}-session read sweep took {s_grants} "
                f"type-level S locks (snapshot reads must take none)"
            )
        assert s_grants == 0, "snapshot reads acquired S locks"
        assert locks.grants["X"] == x_before, "a read acquired an X lock"
        sweep.append({
            "sessions": sessions,
            "rows_per_session": rows_expected,
            "elapsed_s": round(elapsed, 4),
            "rows_per_s": round(sessions * rows_expected / elapsed, 1),
            "s_lock_grants": s_grants,
        })
    return {"sweep": sweep}


def reads_under_retained_x(db: Prima,
                           regressions: list[str]) -> dict[str, object]:
    """Readers progress while a peer session retains type-level X."""
    manager = SessionManager(db, max_sessions=4, admission="queue")
    writer = repro.connect(manager, name="writer")
    writer.execute(f"INSERT item (n = {N_ITEMS + 1})")
    delivered = []
    try:
        for g in range(3):
            reader = repro.connect(manager)
            rows = reader.query(f"SELECT ALL FROM item WHERE grp = {g}",
                                fetch_size=FETCH_SIZE)
            delivered.append(len([m for m in rows]))
            reader.close()
    finally:
        writer.close()
    want = [N_ITEMS // GROUPS] * 3
    if delivered != want:
        regressions.append(
            f"reads under retained X delivered {delivered} (want {want})"
        )
    return {"rows_per_reader": delivered}


def isolation_under_churn(db: Prima,
                          regressions: list[str]) -> dict[str, object]:
    """A cursor pinned before a write never sees it, batch after batch."""
    manager = SessionManager(db, max_sessions=2, admission="queue")
    reader = repro.connect(manager, name="pinned")
    writer = repro.connect(manager, name="churn")
    cursor = reader.query("SELECT ALL FROM item WHERE grp = 0",
                          fetch_size=FETCH_SIZE)
    seen = [m.atom["n"] for m in cursor.fetch_many(FETCH_SIZE)]
    churn = 0
    while True:
        writer.execute(f"INSERT item (n = {N_ITEMS + 100 + churn}, "
                       f"grp = 0)")
        churn += 1
        batch = cursor.fetch_many(FETCH_SIZE)
        if not batch:
            break
        seen.extend(m.atom["n"] for m in batch)
    expected = [n for n in range(N_ITEMS) if n % GROUPS == 0]
    if seen != expected:
        regressions.append(
            f"pinned cursor saw {len(seen)} rows across {churn} "
            f"concurrent commits (want {len(expected)} epoch rows)"
        )
    assert seen == expected, "snapshot cursor leaked concurrent commits"
    fresh = len(reader.query("SELECT ALL FROM item WHERE grp = 0"))
    reader.close()
    writer.close()
    return {"commits_during_stream": churn,
            "epoch_rows": len(seen),
            "fresh_cursor_rows": fresh}


def main() -> None:
    print_header(
        "B6 — snapshot reads / session sweep",
        f"{N_ITEMS} molecules; sessions sweep {SESSION_SWEEP}; "
        f"fetch_size={FETCH_SIZE}",
    )
    regressions: list[str] = []
    db = build_database()

    scaling = read_scaling(db, regressions)
    retained = reads_under_retained_x(db, regressions)
    isolation = isolation_under_churn(db, regressions)

    print_table(
        ["sessions", "rows/s", "elapsed s", "S grants"],
        [[row["sessions"], row["rows_per_s"], row["elapsed_s"],
          row["s_lock_grants"]]
         for row in scaling["sweep"]],
    )
    print(f"\nreads under retained X: {retained['rows_per_reader']}")
    print(f"isolation: {isolation['epoch_rows']} epoch rows across "
          f"{isolation['commits_during_stream']} concurrent commits "
          f"(fresh cursor: {isolation['fresh_cursor_rows']})")
    emit_bench("bench_b6_scaling", {
        "n_items": N_ITEMS,
        "session_sweep": list(SESSION_SWEEP),
        "fetch_size": FETCH_SIZE,
        "read_scaling": scaling,
        "reads_under_retained_x": retained,
        "isolation_under_churn": isolation,
    }, db=db, regressions=regressions)


if __name__ == "__main__":
    main()
