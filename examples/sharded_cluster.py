#!/usr/bin/env python3
"""Sharded scale-out: a partitioned engine cluster behind one API.

A :class:`repro.ShardedCluster` owns N independent PRIMA engines — each
with its own buffer, locks, catalog, plan cache, and snapshot store —
and a coordinator that executes MQL across them:

* a single-key lookup **routes** to exactly the shard owning the key
  (the same router that placed the atom at insert time);
* everything else **scatter-gathers**: every shard runs its own bounded
  pipeline against its own pinned snapshot, and the coordinator merges
  the ordered per-shard streams, pushing the tightening global TopK
  bound back down into shards still in flight;
* DDL fans out, so the per-shard catalogs (and plan caches) move in
  lockstep.

The cluster inherits the same ``Engine`` facade as ``Prima``, so
``repro.connect``, the serving layer, and the daemon all work over it
unchanged.

Run:  python examples/sharded_cluster.py
"""

import repro

SHARDS = 4
N_PARTS = 40


def main() -> None:
    # A fresh 4-engine cluster, served through the ordinary client API.
    with repro.connect(shards=SHARDS, name="cad") as conn:
        print(f"cluster  : serving {conn.shards} shards")

        conn.execute("CREATE ATOM_TYPE part (part_id: IDENTIFIER, "
                     "name: CHAR_VAR, grade: INTEGER) KEYS_ARE (name)")
        # INSERTs route by root key: each part lands on the shard its
        # name hashes to, so the data is partitioned from the start.
        for i in range(N_PARTS):
            conn.execute(f"INSERT part (name = 'p{i}', "
                         f"grade = {(i * 37) % 100})")

        # 1. A key lookup touches exactly one shard; EXPLAIN shows the
        #    routing decision as part of the plan.
        plan = conn.explain("SELECT ALL FROM part WHERE name = 'p7'")
        print("routing  :", plan.splitlines()[1].strip())
        cursor = conn.cursor("SELECT ALL FROM part WHERE name = 'p7'")
        molecule = cursor.next()
        print("routed   :", molecule.atom["name"], "grade",
              molecule.atom["grade"], f"(from shard {cursor.shard})")
        cursor.close()

        # 2. An ordered TopK scatter-gathers: every shard contributes
        #    at most k molecules and the coordinator merges the window.
        best = conn.query(
            "SELECT ALL FROM part ORDER BY grade DESC LIMIT 5")
        print("top 5    :", [(m.atom["name"], m.atom["grade"])
                             for m in best])

        # 3. Prepared statements replan cluster-wide after DDL: the
        #    access path is created on every shard (catalog lockstep),
        #    and the next execution rides it on each of them.
        stmt = conn.prepare(
            "SELECT ALL FROM part WHERE grade > ? ORDER BY grade")
        print("prepared :", len(list(stmt.execute(80))), "parts above 80")

    # Direct (sessionless) cluster access, and the accounting surface.
    with repro.ShardedCluster(shards=SHARDS) as cluster:
        cluster.execute("CREATE ATOM_TYPE part (part_id: IDENTIFIER, "
                        "name: CHAR_VAR, grade: INTEGER) KEYS_ARE (name)")
        for i in range(N_PARTS):
            cluster.execute(f"INSERT part (name = 'p{i}', "
                            f"grade = {(i * 37) % 100})")
        result = cluster.execute(
            "SELECT ALL FROM part ORDER BY grade DESC LIMIT 5")
        result.materialize()
        result.close()   # closing bills each shard's service channel
        report = cluster.io_report()
        counts = [engine.access.atoms.count("part")
                  for engine in cluster.engines]
        print("shards   :", counts, "parts per shard")
        print("gather   :", report.get("scatter_queries", 0), "scatter,",
              report.get("routed_queries", 0), "routed;",
              f"makespan {report['shard_makespan_ms']} modelled ms")


if __name__ == "__main__":
    main()
