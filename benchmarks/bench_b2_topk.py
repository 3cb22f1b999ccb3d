"""B2 — top-k pushdown: bounded-heap TopK vs. the full Sort pipeline.

An ORDER BY + LIMIT k query used to materialise and sort every
constructed molecule before Limit discarded all but k of them.  The TopK
operator fuses Sort/Offset/Limit into one bounded heap of k + offset
entries, so at most k + offset molecules are ever *retained* — and when a
sort order delivers the stream pre-ordered on a prefix of the ORDER BY,
the heap bound becomes a search argument that cuts ``MoleculeConstruct``
short after ~k roots.  This bench measures both effects over a flat
10k-molecule atom type:

* wall-time of the TopK pipeline vs. the full-sort pipeline (the same
  plan compiled with ``use_topk=False``), unordered input;
* the same comparison with a prefix-matching sort order, where TopK's
  sargable early exit stops construction itself;
* heap high-water mark and molecules constructed, straight from the
  operator probes and the ``operator_rows:*`` counters.
"""

from __future__ import annotations

import time

from _util import emit_bench
from common import print_header, print_table

from repro import Prima
from repro.data.operators import TopK
from repro.mql.parser import parse

N_ITEMS = 10_000
K = 10
OFFSET = 5
QUERY = f"SELECT ALL FROM item ORDER BY grp, n LIMIT {K} OFFSET {OFFSET}"


def build_database(n_items: int = N_ITEMS, sort_order: bool = False) -> Prima:
    db = Prima()
    db.execute("CREATE ATOM_TYPE item (item_id: IDENTIFIER, "
               "n: INTEGER, grp: INTEGER) KEYS_ARE (n)")
    for i in range(n_items):
        db.insert_atom("item", {"n": i, "grp": i % 97})
    if sort_order:
        db.execute_ldl("CREATE SORT ORDER item_by_grp ON item (grp)")
    return db


def find_topk(operator) -> TopK | None:
    if isinstance(operator, TopK):
        return operator
    for child in operator.children:
        found = find_topk(child)
        if found is not None:
            return found
    return None


def run_pipeline(db: Prima, mql: str, use_topk: bool,
                 repeat: int = 1) -> dict[str, object]:
    """Compile, drain, and measure one pipeline variant.

    ``repeat`` re-runs the whole compile+drain and keeps the *fastest*
    wall-time (construction noise over 10k molecules dwarfs the
    Sort-vs-TopK delta on unordered input); counters come from the last
    run.
    """
    best_ms = None
    for _ in range(max(repeat, 1)):
        db.reset_accounting()
        plan = db.data.plan_select(parse(mql))
        pipeline = plan.compile(db.data, use_topk=use_topk)
        started = time.perf_counter()
        delivered = 0
        while pipeline.next() is not None:
            delivered += 1
        wall_ms = (time.perf_counter() - started) * 1000.0
        pipeline.close()
        if best_ms is None or wall_ms < best_ms:
            best_ms = wall_ms
    report = db.io_report()
    topk = find_topk(pipeline)
    return {
        "pipeline": "TopK" if use_topk else "Sort+Offset+Limit",
        "wall_ms": round(best_ms, 3),
        "delivered": delivered,
        "molecules_constructed":
            report.get("operator_rows:MoleculeConstruct", 0),
        "heap_max": topk.max_heap_size if topk is not None else None,
        # The sargable early exit fires either way: as the delivery-time
        # cut (cut_short) or — since the dynamic bound pushdown — by
        # stopping the ordered walk before the beyond-bound root is
        # constructed (bounds_pushed).
        "cut_short": topk.cut_short if topk is not None else False,
        "bounds_pushed": topk.bounds_pushed if topk is not None else 0,
    }


def compare(db: Prima, mql: str,
            repeat: int = 1) -> list[dict[str, object]]:
    # One unmeasured full drain first, so the buffer is equally warm for
    # both measured variants.
    run_pipeline(db, mql, use_topk=False)
    full = run_pipeline(db, mql, use_topk=False, repeat=repeat)
    topk = run_pipeline(db, mql, use_topk=True, repeat=repeat)
    return [topk, full]


def report(n_items: int = N_ITEMS) -> None:
    print_header(
        "B2 — top-k pushdown (bounded heap vs. full sort)",
        f"{QUERY!r} over {n_items:,} item atoms",
    )
    scenarios = {}
    for label, sort_order in [("unordered input", False),
                              ("prefix sort order (early exit)", True)]:
        db = build_database(n_items, sort_order=sort_order)
        rows = compare(db, QUERY, repeat=3)
        scenarios[label] = rows
        print()
        print(label)
        print_table(
            ["pipeline", "wall ms", "delivered", "constructed",
             "heap max", "cut short"],
            [[r["pipeline"], r["wall_ms"], r["delivered"],
              r["molecules_constructed"], r["heap_max"], r["cut_short"]]
             for r in rows],
        )
    payload: dict[str, object] = {
        "bench": "b2_topk",
        "query": QUERY,
        "n_molecules": n_items,
        "k": K,
        "offset": OFFSET,
        "scenarios": scenarios,
    }
    for label, rows in scenarios.items():
        topk, full = rows
        payload[f"speedup ({label})"] = \
            round(full["wall_ms"] / max(topk["wall_ms"], 1e-9), 2)
    emit_bench("bench_b2_topk", payload, db=db)
    # The CI gate: bench-smoke fails the build when a bench raises, so
    # these assertions are the benchmark regression gate.  The early-exit
    # scenario must beat the full sort decisively (it constructs ~k
    # molecules instead of all of them); the unordered scenario's win is
    # retention, its wall-time delta sits inside construction noise and
    # is reported, not gated.
    early_topk, early_full = scenarios["prefix sort order (early exit)"]
    assert early_topk["cut_short"] or early_topk["bounds_pushed"], \
        "early exit did not trigger"
    assert early_topk["molecules_constructed"] < \
        early_full["molecules_constructed"]
    assert early_topk["heap_max"] <= K + OFFSET
    assert early_topk["wall_ms"] < early_full["wall_ms"], (
        f"TopK early exit ({early_topk['wall_ms']} ms) must beat the "
        f"full sort ({early_full['wall_ms']} ms)"
    )


# ---------------------------------------------------------------------------
# pytest entries (kept small so the tier-1 run stays fast)
# ---------------------------------------------------------------------------

def test_topk_equals_full_sort_oracle() -> None:
    db = build_database(500)
    topk, full = compare(db, "SELECT ALL FROM item ORDER BY grp, n "
                             "LIMIT 7 OFFSET 2")
    assert topk["delivered"] == full["delivered"] == 7
    assert topk["heap_max"] == 9      # k + offset, never more
    oracle = [m.atom["n"] for m in
              db.query("SELECT ALL FROM item ORDER BY grp, n "
                       "LIMIT 7 OFFSET 2")]
    assert len(oracle) == 7


def test_early_exit_constructs_less() -> None:
    db = build_database(500, sort_order=True)
    topk, full = compare(db, QUERY)
    assert topk["cut_short"] or topk["bounds_pushed"]
    assert topk["molecules_constructed"] < full["molecules_constructed"]


if __name__ == "__main__":
    report()
