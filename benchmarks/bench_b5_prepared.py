"""B5 — prepared statements and the plan cache: frontend cost to ~zero.

PRIMA's engineering workloads re-run the same molecule query with
different key values (the repeated-query regime of the Wisconsin
tradition).  Every entry point used to re-lex, re-parse, re-validate,
and re-plan the MQL text per call; the prepared redesign does that work
once and binds parameters at pipeline-open time.  This bench measures
the repeated point query of the acceptance shape — ``WHERE key = ?
ORDER BY a LIMIT ?`` — three ways over one database:

* **prepared** — ``db.prepare(...)`` once, then R × ``stmt.execute``
  with fresh bindings.  Gate (hard assertion): the whole phase performs
  **exactly one parse** (``statements_parsed``) and zero plan builds
  after the prepare.
* **re-parsed** — R × ``db.execute(text, ..., use_cache=False)``: the
  old per-call frontend cost.  Gate (regression marker): prepared
  execution must be measurably faster than this baseline.
* **plan cache** — R × plain ``db.query(literal_text)`` of *repeated
  text*: the shared cache under the unprepared path; one parse, R−1
  hits (hard assertion).

A serving scenario re-executes a server-side statement handle
(EXECUTE_PREPARED) and reports the request bytes against re-shipping the
text through plain OPEN messages — the no-text-reshipped protocol win.

Timing-based findings go into the JSON ``regressions`` list, which CI's
bench-smoke job fails on (``benchmarks/check_regressions.py``).
"""

from __future__ import annotations

import time

from _util import emit_bench
from common import print_header, print_table

import repro
from repro import Prima

N_ITEMS = 4_000
REPEAT = 1_000
QUERY = "SELECT ALL FROM item WHERE n = ? ORDER BY grp LIMIT ?"


def build_database(n_items: int = N_ITEMS) -> Prima:
    db = Prima()
    db.execute("CREATE ATOM_TYPE item (item_id: IDENTIFIER, "
               "n: INTEGER, grp: INTEGER) KEYS_ARE (n)")
    for i in range(n_items):
        db.insert_atom("item", {"n": i, "grp": i % 97})
    return db


def _best_of(rounds: int, run) -> tuple[float, dict[str, object]]:
    """Fastest wall-time of ``rounds`` runs; stats come from the last."""
    best_ms = None
    stats: dict[str, object] = {}
    for _ in range(max(rounds, 1)):
        wall_ms, stats = run()
        if best_ms is None or wall_ms < best_ms:
            best_ms = wall_ms
    return best_ms, stats


def run_prepared(db: Prima, repeat: int = REPEAT,
                 rounds: int = 3) -> dict[str, object]:
    stmt = db.prepare(QUERY)

    def once() -> tuple[float, dict[str, object]]:
        db.reset_accounting()
        started = time.perf_counter()
        delivered = 0
        for i in range(repeat):
            delivered += len(stmt.execute(i % N_ITEMS, 5).materialize())
        wall_ms = (time.perf_counter() - started) * 1000.0
        report = db.io_report()
        return wall_ms, {
            "delivered": delivered,
            "statements_parsed": report.get("statements_parsed", 0),
            "statements_planned": report.get("statements_planned", 0),
            "prepared_executions": report.get("prepared_executions", 0),
        }

    wall_ms, stats = _best_of(rounds, once)
    return {"mode": "prepared", "wall_ms": round(wall_ms, 3),
            "per_exec_us": round(wall_ms * 1000.0 / repeat, 2), **stats}


def run_reparsed(db: Prima, repeat: int = REPEAT,
                 rounds: int = 3) -> dict[str, object]:
    def once() -> tuple[float, dict[str, object]]:
        db.reset_accounting()
        started = time.perf_counter()
        delivered = 0
        for i in range(repeat):
            result = db.execute(QUERY, i % N_ITEMS, 5, use_cache=False)
            delivered += len(result.materialize())
        wall_ms = (time.perf_counter() - started) * 1000.0
        report = db.io_report()
        return wall_ms, {
            "delivered": delivered,
            "statements_parsed": report.get("statements_parsed", 0),
            "statements_planned": report.get("statements_planned", 0),
        }

    wall_ms, stats = _best_of(rounds, once)
    return {"mode": "re-parsed", "wall_ms": round(wall_ms, 3),
            "per_exec_us": round(wall_ms * 1000.0 / repeat, 2), **stats}


def run_cached_text(db: Prima, repeat: int = REPEAT,
                    rounds: int = 3) -> dict[str, object]:
    text = "SELECT ALL FROM item WHERE n = 123 ORDER BY grp LIMIT 5"
    db.data.plan_cache.clear()

    def once() -> tuple[float, dict[str, object]]:
        db.data.plan_cache.clear()
        db.reset_accounting()
        started = time.perf_counter()
        delivered = 0
        for _ in range(repeat):
            delivered += len(db.query(text).materialize())
        wall_ms = (time.perf_counter() - started) * 1000.0
        report = db.io_report()
        return wall_ms, {
            "delivered": delivered,
            "statements_parsed": report.get("statements_parsed", 0),
            "plan_cache_hits": report.get("plan_cache_hits", 0),
            "plan_cache_misses": report.get("plan_cache_misses", 0),
        }

    wall_ms, stats = _best_of(rounds, once)
    return {"mode": "plan cache (repeated text)",
            "wall_ms": round(wall_ms, 3),
            "per_exec_us": round(wall_ms * 1000.0 / repeat, 2), **stats}


def run_serving(db: Prima, repeat: int = 200) -> dict[str, object]:
    """EXECUTE_PREPARED vs re-shipped OPEN: request bytes per execute."""
    session = repro.connect(db, name="bench")
    manager = session.manager
    stmt = session.prepare(QUERY)
    stmt.execute(0, 5).materialize()          # warm the statement handle
    before = manager.stats.snapshot()["bytes_sent"]
    for i in range(repeat):
        stmt.execute(i % N_ITEMS, 5).materialize()
    prepared_bytes = manager.stats.snapshot()["bytes_sent"] - before
    before = manager.stats.snapshot()["bytes_sent"]
    for i in range(repeat):
        session.query(QUERY, args=(i % N_ITEMS, 5)).materialize()
    open_bytes = manager.stats.snapshot()["bytes_sent"] - before
    session.close()
    return {
        "repeat": repeat,
        "execute_prepared_bytes": prepared_bytes,
        "reshipped_open_bytes": open_bytes,
        "bytes_saved_per_exec": round(
            (open_bytes - prepared_bytes) / repeat, 1),
    }


def report(n_items: int = N_ITEMS, repeat: int = REPEAT) -> None:
    print_header(
        "B5 — prepared statements / plan cache (repeated point query)",
        f"{QUERY!r}, {repeat:,} executions over {n_items:,} item atoms",
    )
    regressions: list[str] = []
    db = build_database(n_items)
    prepared = run_prepared(db, repeat)
    reparsed = run_reparsed(db, repeat)
    cached = run_cached_text(db, repeat)
    serving = run_serving(db)

    rows = [prepared, reparsed, cached]
    print_table(
        ["mode", "wall ms", "µs/exec", "parsed", "planned"],
        [[r["mode"], r["wall_ms"], r["per_exec_us"],
          r.get("statements_parsed"), r.get("statements_planned", "-")]
         for r in rows],
    )
    print()
    print(f"serving: EXECUTE_PREPARED request stream "
          f"{serving['execute_prepared_bytes']:,} B vs re-shipped OPEN "
          f"{serving['reshipped_open_bytes']:,} B "
          f"({serving['bytes_saved_per_exec']} B saved/exec)")

    # Hard gates — deterministic counter properties of the redesign.
    assert prepared["statements_parsed"] == 0, (
        f"{repeat} prepared re-executions parsed "
        f"{prepared['statements_parsed']} times (expected 0 after the "
        f"single prepare — 1 parse per statement total)"
    )
    assert prepared["statements_planned"] == 0, (
        f"prepared re-executions re-planned "
        f"{prepared['statements_planned']} times"
    )
    assert prepared["delivered"] == repeat
    assert reparsed["statements_parsed"] == repeat
    assert cached["statements_parsed"] == 1
    assert cached["plan_cache_hits"] == repeat - 1
    assert serving["execute_prepared_bytes"] < serving["reshipped_open_bytes"]

    # Timing gate — a regression marker, CI fails on it.
    speedup = reparsed["wall_ms"] / max(prepared["wall_ms"], 1e-9)
    if speedup <= 1.0:
        regressions.append(
            f"prepared execution ({prepared['wall_ms']} ms) not faster "
            f"than re-parsed execution ({reparsed['wall_ms']} ms)"
        )
    print(f"\nspeedup prepared vs re-parsed: {speedup:.2f}x")

    emit_bench("bench_b5_prepared", {
        "bench": "b5_prepared",
        "query": QUERY,
        "n_molecules": n_items,
        "repeat": repeat,
        "modes": rows,
        "serving": serving,
        "speedup_prepared_vs_reparsed": round(speedup, 2),
    }, db=db, regressions=regressions)


# ---------------------------------------------------------------------------
# pytest entries (kept small so the tier-1 run stays fast)
# ---------------------------------------------------------------------------

def test_prepared_parses_once() -> None:
    db = build_database(300)
    outcome = run_prepared(db, repeat=50, rounds=1)
    assert outcome["statements_parsed"] == 0
    assert outcome["statements_planned"] == 0
    assert outcome["delivered"] == 50


def test_cache_hits_for_repeated_text() -> None:
    db = build_database(300)
    outcome = run_cached_text(db, repeat=20, rounds=1)
    assert outcome["statements_parsed"] == 1
    assert outcome["plan_cache_hits"] == 19


if __name__ == "__main__":
    report()
