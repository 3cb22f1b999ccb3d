"""B8 — sharded scale-out: routed execution and scatter-gather reads.

PR 8 added the partitioned engine cluster
(:class:`~repro.shard.ShardedCluster`): N independent engines — each
with its own buffer, locks, catalog, plan cache, and snapshot store —
behind one coordinator that routes single-key lookups to the owning
shard and scatter-gathers everything else through an ordered k-way
merge.  Three gates, all on deterministic quantities (modelled service
channels and operator counters), so a noisy CI box cannot flake them:

* **routing** (hard assert): a prepared single-key lookup touches
  exactly **one** shard — every other engine's query counter stands
  still;
* **scale-out** (hard assert + marker): at 32 serving sessions the
  4-shard cluster's read throughput on the modelled channel makespan is
  at least ``SPEEDUP_FLOOR`` × the 1-shard cluster's — balanced shards
  divide the gather bytes, so the slowest channel carries ~1/N of the
  work;
* **TopK pushdown** (hard assert): a cross-shard ``ORDER BY ... DESC
  LIMIT k`` constructs at most ``k`` molecules *per shard* (each
  shard's own bounded window, tightened further by the coordinator's
  pushed global bound) and returns results byte-identical to a
  single-engine oracle.
"""

from __future__ import annotations

import pickle
import time

from _util import emit_bench, run_clients
from common import print_header, print_table

from repro import Prima, ShardedCluster
from repro.serve import SessionManager

N_ITEMS = 4_096
GROUPS = 32
ROWS_PER_GROUP = N_ITEMS // GROUPS
#: Payload ballast per molecule, so gather bytes (not per-message
#: latency) dominate the modelled channel time.
PAD = "x" * 512
#: Generous per-engine buffer: the padded dataset must stay resident
#: (concurrent reader sessions share the buffer without eviction
#: churn, like every serving bench before this one).
BUFFER_CAPACITY = 4_096 * 8_192
SHARD_SWEEP = (1, 2, 4, 8)
SESSION_SWEEP = (1, 8, 32)
LOOKUPS_PER_SESSION = 16
GATE_SHARDS = 4
GATE_SESSIONS = 32
SPEEDUP_FLOOR = 2.5
TOPK_K = 8


def build_cluster(shards: int) -> ShardedCluster:
    cluster = ShardedCluster(shards=shards,
                             buffer_capacity=BUFFER_CAPACITY)
    populate(cluster)
    return cluster


def populate(db) -> None:
    db.execute("CREATE ATOM_TYPE item (item_id: IDENTIFIER, n: INTEGER, "
               "grp: INTEGER, pad: CHAR_VAR) KEYS_ARE (n)")
    for i in range(N_ITEMS):
        db.execute(f"INSERT item (n = {i}, grp = {i % GROUPS}, "
                   f"pad = '{PAD}')")


def routed_lookup_gate(regressions: list[str]) -> dict[str, object]:
    """A prepared key lookup must touch exactly one shard."""
    with build_cluster(GATE_SHARDS) as cluster:
        stmt = cluster.prepare("SELECT ALL FROM item WHERE n = ?")
        probes = []
        for key in (0, 1, 2, 3, 17, 1000):
            before = [e.access.counters.snapshot().get("cluster_queries", 0)
                      for e in cluster.engines]
            result = stmt.execute(key)
            rows = len(result.materialize())
            result.close()
            after = [e.access.counters.snapshot().get("cluster_queries", 0)
                     for e in cluster.engines]
            touched = [i for i in range(GATE_SHARDS)
                       if after[i] > before[i]]
            expected = cluster.router.shard_of_key("item", key)
            if touched != [expected] or rows != 1:
                regressions.append(
                    f"lookup n={key} touched shards {touched} "
                    f"(want [{expected}]) and returned {rows} row(s)")
            assert touched == [expected], \
                "routed lookup touched more than its owning shard"
            probes.append({"key": key, "shard": expected, "rows": rows})
        routed = cluster.io_report()["routed_queries"]
    return {"probes": probes, "routed_queries": routed}


def _session_job(group: int):
    """One serving session: a scatter group stream plus a spray of
    routed point lookups."""
    def run(conn) -> int:
        rows = len([m for m in conn.query(
            f"SELECT ALL FROM item WHERE grp = {group % GROUPS}")])
        stmt = conn.prepare("SELECT ALL FROM item WHERE n = ?")
        for i in range(LOOKUPS_PER_SESSION):
            rows += len(stmt.execute((group * LOOKUPS_PER_SESSION + i)
                                     % N_ITEMS).materialize())
        return rows
    return run


def scale_sweep(regressions: list[str]) -> dict[str, object]:
    """Shard count × session count: modelled-makespan read throughput."""
    rows_per_session = ROWS_PER_GROUP + LOOKUPS_PER_SESSION
    sweep = []
    throughput: dict[tuple[int, int], float] = {}
    for shards in SHARD_SWEEP:
        for sessions in SESSION_SWEEP:
            with build_cluster(shards) as cluster:
                cluster.reset_accounting()
                manager = SessionManager(cluster, max_sessions=sessions,
                                         admission="queue")
                started = time.perf_counter()
                counts = run_clients(
                    manager, [_session_job(g) for g in range(sessions)])
                elapsed = time.perf_counter() - started
                assert counts == [rows_per_session] * sessions
                service = cluster.service_report()
                report = cluster.io_report()
            makespan = service["makespan_ms"]
            rows = rows_per_session * sessions
            rate = rows / makespan if makespan else 0.0
            throughput[(shards, sessions)] = rate
            sweep.append({
                "shards": shards,
                "sessions": sessions,
                "rows": rows,
                "makespan_ms": makespan,
                "total_service_ms": service["total_service_ms"],
                "rows_per_modelled_s": round(rate * 1000.0, 1),
                "routed_queries": report["routed_queries"],
                "scatter_queries": report["scatter_queries"],
                "wall_s": round(elapsed, 3),
            })
    speedup = throughput[(GATE_SHARDS, GATE_SESSIONS)] / \
        throughput[(1, GATE_SESSIONS)]
    if speedup < SPEEDUP_FLOOR:
        regressions.append(
            f"{GATE_SHARDS}-shard throughput is only {speedup:.2f}x the "
            f"1-shard cluster at {GATE_SESSIONS} sessions "
            f"(floor {SPEEDUP_FLOOR}x)")
    assert speedup >= SPEEDUP_FLOOR, \
        f"scale-out gate: {speedup:.2f}x < {SPEEDUP_FLOOR}x"
    return {"sweep": sweep,
            "gate": {"shards": GATE_SHARDS, "sessions": GATE_SESSIONS,
                     "speedup": round(speedup, 2),
                     "floor": SPEEDUP_FLOOR}}


def _constructed(engine) -> int:
    snapshot = engine.access.counters.snapshot()
    return snapshot.get("molecules_from_traversal", 0) + \
        snapshot.get("molecules_from_cluster", 0)


def topk_pushdown_gate(regressions: list[str]) -> dict[str, object]:
    """Cross-shard DESC TopK: per-shard construction caps at k, and the
    gathered window is byte-identical to the single-engine oracle."""
    oracle = Prima(buffer_capacity=BUFFER_CAPACITY)
    populate(oracle)
    oracle.execute_ldl("CREATE ACCESS PATH item_n ON item (n)")
    oracle.analyze()
    mql = f"SELECT (n, grp) FROM item ORDER BY n DESC LIMIT {TOPK_K}"
    expected = [(m.atom.get("n"), m.atom.get("grp"))
                for m in oracle.execute(mql)]
    with build_cluster(GATE_SHARDS) as cluster:
        cluster.execute_ldl("CREATE ACCESS PATH item_n ON item (n)")
        cluster.analyze()
        before = [_constructed(e) for e in cluster.engines]
        result = cluster.execute(mql)
        got = [(m.atom.get("n"), m.atom.get("grp")) for m in result]
        result.close()
        per_shard = [_constructed(e) - before[i]
                     for i, e in enumerate(cluster.engines)]
        pushed = cluster.io_report().get("shard_bounds_pushed", 0)
        metrics = cluster.metrics_report()
    identical = pickle.dumps(got) == pickle.dumps(expected)
    if not identical:
        regressions.append(
            f"cross-shard TopK window diverged from the oracle: "
            f"{got} != {expected}")
    if any(count > TOPK_K for count in per_shard):
        regressions.append(
            f"a shard constructed more than k={TOPK_K} molecules for "
            f"the global window: {per_shard}")
    assert identical, "TopK gather is not byte-identical to the oracle"
    assert all(count <= TOPK_K for count in per_shard), per_shard
    return {"k": TOPK_K, "per_shard_constructed": per_shard,
            "total_constructed": sum(per_shard),
            "bounds_pushed": pushed, "byte_identical": identical,
            "metrics": metrics}


def main() -> None:
    print_header(
        "B8 — sharded scale-out",
        f"{N_ITEMS} molecules over shard sweep {SHARD_SWEEP}; "
        f"sessions {SESSION_SWEEP}; k={TOPK_K}",
    )
    regressions: list[str] = []

    routed = routed_lookup_gate(regressions)
    scale = scale_sweep(regressions)
    topk = topk_pushdown_gate(regressions)

    print_table(
        ["shards", "sessions", "rows", "makespan ms", "rows/modelled s"],
        [[row["shards"], row["sessions"], row["rows"],
          row["makespan_ms"], row["rows_per_modelled_s"]]
         for row in scale["sweep"]],
    )
    gate = scale["gate"]
    print(f"\nrouting: {routed['routed_queries']} prepared lookups, each "
          f"touching exactly 1 of {GATE_SHARDS} shards")
    print(f"scale-out at {gate['sessions']} sessions: "
          f"{gate['shards']}-shard throughput = {gate['speedup']}x "
          f"1-shard (floor {gate['floor']}x)")
    print(f"TopK pushdown: per-shard constructed {topk['per_shard_constructed']} "
          f"(cap {TOPK_K}), {topk['bounds_pushed']} bound(s) pushed, "
          f"byte-identical: {topk['byte_identical']}")
    emit_bench("bench_b8_sharding", {
        "n_items": N_ITEMS,
        "shard_sweep": list(SHARD_SWEEP),
        "session_sweep": list(SESSION_SWEEP),
        "routed_lookup": routed,
        "scale_out": scale,
        "topk_pushdown": topk,
        "metrics": topk.pop("metrics"),
    }, regressions=regressions)


if __name__ == "__main__":
    main()
