#!/usr/bin/env python3
"""Observability: trace a sharded query, read the slow log remotely.

PR 9's :mod:`repro.obs` layer answers "where did my query spend its
time" at every level of the stack:

* **span trees** — ``explain(analyze=True)`` actually runs the query
  and renders one span per operator; on a sharded cluster the
  ``Gather`` span fans out into one ``shard:<i>`` span per shard, so a
  scatter-gather TopK shows exactly which shard was the straggler;
* **metrics** — ``metrics_report()`` merges counters, gauges, and
  fixed-bucket histograms (query latency, fetch batch sizes, admission
  wait, …) across sessions and shards into one JSON-able view;
* **the slow log** — a bounded ring of the N slowest queries with
  their span trees, readable over any transport via
  ``Connection.server_stats()`` — no server-side shell needed.

Tracing is off by default and its disabled cost is one float test per
query (pinned by ``tests/test_obs.py::TestTracer``); turn it on per engine
with ``db.obs.enable_tracing(sample)``.

Run:  python examples/observability.py
"""

import json

import repro
from repro.serve import PrimaDaemon, SessionManager

SHARDS = 4
N_PARTS = 200


def build_cluster() -> repro.ShardedCluster:
    cluster = repro.ShardedCluster(shards=SHARDS)
    cluster.execute("CREATE ATOM_TYPE part (part_id: IDENTIFIER, "
                    "name: CHAR_VAR, grade: INTEGER) KEYS_ARE (name)")
    for i in range(N_PARTS):
        cluster.execute(f"INSERT part (name = 'p{i}', "
                        f"grade = {(i * 37) % 100})")
    return cluster


def main() -> None:
    with build_cluster() as cluster:
        # 1. EXPLAIN ANALYZE on a scatter-gather TopK: the plan text,
        #    then the measured span tree — under the Gather one span
        #    per shard, each carrying its own operator breakdown.
        print("explain analyze (4-shard scatter TopK)")
        print(cluster.explain(
            "SELECT ALL FROM part ORDER BY grade DESC LIMIT 5",
            analyze=True))

        # 2. The same tree as an object: ``trace`` returns the root
        #    :class:`~repro.obs.Span`, so tooling can walk it.
        span = cluster.trace(
            "SELECT ALL FROM part ORDER BY grade DESC LIMIT 5")
        shard_spans = [child for child in span.walk()
                       if child.name.startswith("shard:")]
        print(f"\ntrace    : {len(shard_spans)} shard spans under the "
              f"root ({span.duration * 1000.0:.3f} ms total)")
        slowest = max(shard_spans, key=lambda child: child.duration)
        print(f"straggler: {slowest.name} at "
              f"{slowest.duration * 1000.0:.3f} ms, "
              f"{slowest.attrs.get('rows')} rows gathered")

        # 3. The merged metrics view: per-shard registries, coordinator
        #    gauges, and latency histograms in one report.
        report = cluster.metrics_report()
        latency = report["histograms"]["query_latency_ms"]
        print(f"\nmetrics  : {latency['count']} queries, "
              f"{latency['sum']:.3f} ms total; buffer hit ratio "
              f"{report['gauges'].get('buffer_hit_ratio')}")

    # 4. Remotely: the daemon serves STATS and TRACE like any other
    #    request, so the slow log and a span tree travel the wire.
    db = repro.Prima()
    db.execute("CREATE ATOM_TYPE part (part_id: IDENTIFIER, "
               "name: CHAR_VAR, grade: INTEGER) KEYS_ARE (name)")
    for i in range(N_PARTS):
        db.execute(f"INSERT part (name = 'p{i}', "
                   f"grade = {(i * 37) % 100})")
    db.obs.enable_tracing(1.0)     # sample every query into the log

    manager = SessionManager(db, max_sessions=4)
    with PrimaDaemon(manager) as daemon:
        host, port = daemon.address
        with repro.connect(f"prima://{host}:{port}", name="ops") as conn:
            conn.query("SELECT ALL FROM part WHERE grade > 90")
            conn.query("SELECT ALL FROM part ORDER BY grade LIMIT 3")

            # The on-demand remote trace: runs the statement, ships
            # the rendered tree and its dict form back.
            traced = conn.trace(
                "SELECT ALL FROM part ORDER BY grade DESC LIMIT 3")
            print("\nremote trace")
            print(traced["text"])

            stats = conn.server_stats()
            worst = stats["slowlog"][0]
            print(f"\nslow log : {len(stats['slowlog'])} entries; "
                  f"slowest {worst['duration_ms']} ms "
                  f"for {worst['mql']!r}")
            print("histogram:", json.dumps(
                stats["metrics"]["histograms"]["query_latency_ms"]))


if __name__ == "__main__":
    main()
