"""B1 — streaming pipeline: first-molecule latency vs. full-result latency.

The eager executor materialised every molecule before handing back the
first one, so first-result latency equalled full-result latency.  The
Volcano-style pipeline delivers the first molecule as soon as one root
atom has been constructed, and ``LIMIT k`` bounds the work to k
constructions.  This bench measures both effects on the BREP database:

* time to the first molecule vs. time to the full result, for the
  pipelined cursor and for an (emulated) eager execution;
* atoms read / molecules constructed for ``LIMIT k`` vs. the full scan,
  straight from the access counters.
"""

from __future__ import annotations

import time

from _util import emit_bench
from common import brep_database, print_header, print_table

QUERY = "SELECT ALL FROM brep-face-edge-point"


def _timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    out = fn()
    return (time.perf_counter() - start) * 1000.0, out


def first_vs_full(n_solids: int) -> list[list[object]]:
    handles = brep_database(n_solids)
    db = handles.db

    # pipelined: pull one molecule, then drain the rest
    cursor = db.query(QUERY)
    first_ms, _ = _timed(cursor.fetch_next)
    rest_ms, _ = _timed(cursor.materialize)
    total = len(cursor.materialize())

    # eager (what select() did before the refactor): materialise, then look
    eager_ms, materialised = _timed(
        lambda: db.query(QUERY).materialize())

    return [
        ["pipelined, first molecule", f"{first_ms:.2f} ms", 1],
        ["pipelined, full result", f"{first_ms + rest_ms:.2f} ms", total],
        ["eager full materialisation", f"{eager_ms:.2f} ms",
         len(materialised)],
    ]


def limit_counters(n_solids: int, k: int = 2) -> list[list[object]]:
    handles = brep_database(n_solids)
    db = handles.db
    rows = []
    for label, mql in [
        (f"LIMIT {k}", f"{QUERY} LIMIT {k}"),
        ("full scan", QUERY),
    ]:
        db.reset_accounting()
        db.query(mql).materialize()
        report = db.io_report()
        rows.append([
            label,
            report.get("atoms_read", 0),
            report.get("molecules_from_traversal", 0)
            + report.get("molecules_from_cluster", 0),
            report.get("operator_rows:RootScan", 0),
        ])
    return rows


def report(n_solids: int = 24) -> None:
    print_header(
        "B1 — streaming operator pipeline",
        f"{QUERY!r} over a {n_solids}-solid BREP database",
    )
    print()
    print("first-molecule vs. full-result latency")
    latency_rows = first_vs_full(n_solids)
    print_table(["execution", "latency", "molecules"], latency_rows)
    print()
    print("early termination (access counters)")
    counter_rows = limit_counters(n_solids)
    print_table(["query", "atoms read", "molecules built", "roots pulled"],
                counter_rows)
    db = brep_database(n_solids).db
    emit_bench("bench_b1_streaming", {
        "bench": "b1_streaming",
        "query": QUERY,
        "n_solids": n_solids,
        "latency": [
            {"execution": row[0], "latency": row[1], "molecules": row[2]}
            for row in latency_rows
        ],
        "early_termination": [
            {"query": row[0], "atoms_read": row[1],
             "molecules_built": row[2], "roots_pulled": row[3]}
            for row in counter_rows
        ],
    }, db=db)


def test_limit_reads_less() -> None:
    """pytest entry: LIMIT k touches fewer atoms than the full scan."""
    rows = limit_counters(8)
    limited, full = rows[0], rows[1]
    assert limited[1] < full[1]
    assert limited[2] < full[2]


if __name__ == "__main__":
    report()
