"""B3 — descending / mixed-direction ordered scans + dynamic TopK bound.

A DESC (or mixed-direction) ORDER BY used to force the explicit Sort
pipeline breaker: every molecule was constructed, materialised and
sorted before the window discarded all but k of them.  The access layer
now walks its ordering structures in **reverse**, so a DESC ORDER BY is
served (or prefix-served) by the same sort-order/B*-tree scan that
serves the ascending case — and TopK feeds its tightening heap bound
into the walk as a *dynamic stop key*, so the B*-tree walk itself stops
at the first entry that cannot reach the result window.  Measured over a
flat 10k-molecule atom type:

* ``ORDER BY grp DESC, n DESC LIMIT k`` fully served by a reverse
  (grp, n) sort-order scan — constructs exactly k molecules — vs. the
  full-sort baseline (no sort order, ``use_topk=False``);
* ``ORDER BY grp DESC, n LIMIT k`` prefix-served by a reverse (grp)
  scan with the dynamic bound pushdown, vs. the same plan with the
  bound disconnected (``push_bound=False``) and vs. the full sort;
* index entries walked, molecules constructed and heap high-water mark,
  straight from the operator probes and counters.

Structural properties (construction/walk counts) are asserted hard —
they are deterministic.  Wall-time comparisons are emitted as
``regressions`` markers in the JSON payload; CI's bench-smoke job fails
the build when any bench reports a non-empty marker list (see
``benchmarks/check_regressions.py``).
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
DESC_QUERY = f"SELECT ALL FROM item ORDER BY grp DESC, n DESC LIMIT {K}"
MIXED_QUERY = f"SELECT ALL FROM item ORDER BY grp DESC, n LIMIT {K}"


def build_database(n_items: int = N_ITEMS,
                   sort_order: tuple[str, ...] = ()) -> Prima:
    db = Prima()
    db.execute("CREATE ATOM_TYPE item (item_id: IDENTIFIER, "
               "n: INTEGER, grp: INTEGER) KEYS_ARE (n)")
    for i in range(n_items):
        db.insert_atom("item", {"n": i, "grp": i % 97})
    if sort_order:
        db.execute_ldl(
            f"CREATE SORT ORDER item_so ON item ({', '.join(sort_order)})"
        )
    return db


def find_topk(operator) -> TopK | None:
    if isinstance(operator, TopK):
        return operator
    for child in operator.children:
        found = find_topk(child)
        if found is not None:
            return found
    return None


def run_pipeline(db: Prima, mql: str, label: str, use_topk: bool = True,
                 push_bound: bool = True, repeat: int = 1) -> dict[str, object]:
    """Compile, drain, and measure one pipeline variant (fastest of
    ``repeat`` compile+drain rounds; counters from the last round)."""
    best_ms = None
    for _ in range(max(repeat, 1)):
        db.reset_accounting()
        plan = db.data.plan_select(parse(mql))
        pipeline = plan.compile(db.data, use_topk=use_topk,
                                push_bound=push_bound)
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
        "pipeline": label,
        "wall_ms": round(best_ms, 3),
        "delivered": delivered,
        "order_served": plan.order_served_by_access,
        "order_prefix_served": plan.order_prefix_served,
        "molecules_constructed":
            report.get("operator_rows:MoleculeConstruct", 0),
        "entries_walked": report.get("sort_scan_entries_walked", 0),
        "heap_max": topk.max_heap_size if topk is not None else None,
        "bounds_pushed": topk.bounds_pushed if topk is not None else 0,
    }


def measure(n_items: int = N_ITEMS,
            repeat: int = 3) -> tuple[dict[str, list], list[str], Prima]:
    """All scenario rows, the wall-time regression markers, and the
    prefix-served database (for the emitted metrics snapshot)."""
    scenarios: dict[str, list] = {}
    regressions: list[str] = []

    plain = build_database(n_items)
    served = build_database(n_items, sort_order=("grp", "n"))
    prefix = build_database(n_items, sort_order=("grp",))

    # Warm each database's buffer once before measuring.
    for db in (plain, served, prefix):
        run_pipeline(db, DESC_QUERY, "warmup", use_topk=False)

    full = run_pipeline(plain, DESC_QUERY, "full Sort baseline",
                        use_topk=False, repeat=repeat)
    reverse = run_pipeline(served, DESC_QUERY, "reverse sort-order scan",
                           repeat=repeat)
    scenarios["desc fully served"] = [reverse, full]
    assert reverse["order_served"], "reverse scan did not serve the order"
    assert reverse["molecules_constructed"] <= K, (
        f"served DESC window must construct <= k={K} molecules, "
        f"constructed {reverse['molecules_constructed']}"
    )
    if not reverse["wall_ms"] < full["wall_ms"]:
        regressions.append(
            f"desc fully served: reverse scan ({reverse['wall_ms']} ms) "
            f"did not beat the full sort ({full['wall_ms']} ms)"
        )

    mixed_full = run_pipeline(plain, MIXED_QUERY, "full Sort baseline",
                              use_topk=False, repeat=repeat)
    mixed_nobound = run_pipeline(prefix, MIXED_QUERY,
                                 "prefix scan, bound off",
                                 push_bound=False, repeat=repeat)
    mixed_bound = run_pipeline(prefix, MIXED_QUERY,
                               "prefix scan + dynamic bound",
                               repeat=repeat)
    scenarios["mixed direction, prefix served"] = \
        [mixed_bound, mixed_nobound, mixed_full]
    assert mixed_bound["order_prefix_served"] == 1
    assert mixed_bound["bounds_pushed"] > 0, "no bound was pushed down"
    # Each grp group holds ~n/97 items.  The heap fills after k entries;
    # the bound anchors on the group holding the k-th entry, so the walk
    # runs to the end of that group plus one beyond-bound probe — never
    # further, and nowhere near all n entries.
    group = -(-n_items // 97)
    walk_limit = max(K, group) + group + 1
    assert mixed_bound["entries_walked"] <= walk_limit, (
        f"bounded walk visited {mixed_bound['entries_walked']} entries, "
        f"expected <= {walk_limit}"
    )
    assert mixed_bound["molecules_constructed"] < \
        mixed_nobound["molecules_constructed"]
    if not mixed_bound["wall_ms"] < mixed_full["wall_ms"]:
        regressions.append(
            f"mixed direction: bounded prefix scan "
            f"({mixed_bound['wall_ms']} ms) did not beat the full sort "
            f"({mixed_full['wall_ms']} ms)"
        )
    return scenarios, regressions, prefix


def report(n_items: int = N_ITEMS) -> None:
    print_header(
        "B3 — descending / mixed-direction top-k (reverse scan + "
        "dynamic bound)",
        f"{DESC_QUERY!r} / {MIXED_QUERY!r} over {n_items:,} item atoms",
    )
    scenarios, regressions, prefix_db = measure(n_items)
    for label, rows in scenarios.items():
        print()
        print(label)
        print_table(
            ["pipeline", "wall ms", "delivered", "constructed",
             "walked", "heap max", "bounds pushed"],
            [[r["pipeline"], r["wall_ms"], r["delivered"],
              r["molecules_constructed"], r["entries_walked"],
              r["heap_max"], r["bounds_pushed"]] for r in rows],
        )
    payload: dict[str, object] = {
        "bench": "b3_desc_topk",
        "desc_query": DESC_QUERY,
        "mixed_query": MIXED_QUERY,
        "n_molecules": n_items,
        "k": K,
        "scenarios": scenarios,
    }
    for label, rows in scenarios.items():
        best, *_rest, full = rows
        payload[f"speedup ({label})"] = \
            round(full["wall_ms"] / max(best["wall_ms"], 1e-9), 2)
    emit_bench("bench_b3_desc_topk", payload, db=prefix_db,
               regressions=regressions)


# ---------------------------------------------------------------------------
# pytest entries (kept small so the tier-1 run stays fast)
# ---------------------------------------------------------------------------

def test_desc_served_constructs_k_and_matches_full_sort() -> None:
    served = build_database(500, sort_order=("grp", "n"))
    plain = build_database(500)
    want = [m.atom["n"] for m in plain.query(DESC_QUERY)]
    served.reset_accounting()
    got = [m.atom["n"] for m in served.query(DESC_QUERY)]
    assert got == want
    assert served.io_report().get("operator_rows:MoleculeConstruct") == K


def test_mixed_prefix_bound_cuts_walk() -> None:
    scenarios, _regressions, _db = measure(500, repeat=1)
    bound, nobound, full = scenarios["mixed direction, prefix served"]
    assert bound["delivered"] == nobound["delivered"] \
        == full["delivered"] == K
    assert bound["entries_walked"] < full["molecules_constructed"]


if __name__ == "__main__":
    report()
