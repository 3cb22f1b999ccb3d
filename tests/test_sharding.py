"""Tests: the sharded cluster — routing, scatter-gather, invalidation.

Covers the four gates of the sharding layer: routed-vs-scatter result
parity against a single-engine oracle, shard-local TopK bound pushdown
(no shard constructs more than the global window), per-shard DDL
invalidation plus coordinator replan, and daemon-over-cluster parity on
results and accounting.
"""

from __future__ import annotations

import pytest

import repro
import repro.data.prepared as prepared
from repro import Prima, ShardedCluster, ShardRouter
from repro.errors import DecompositionError, PrimaError
from repro.mad.types import Surrogate
from repro.parallel import parallel_select
from repro.serve import PrimaDaemon, SessionManager
from repro.shard.router import stable_hash

SHARDS = 4
N_CITIES = 60
GROUPS = 6

DDL = ("CREATE ATOM_TYPE city (city_id: IDENTIFIER, name: CHAR_VAR, "
       "pop: INTEGER, grp: INTEGER) KEYS_ARE (name)")


def populate(db, n: int = N_CITIES) -> None:
    db.execute(DDL)
    for i in range(n):
        db.execute(f"INSERT city (name = 'c{i}', pop = {1000 + i * 7}, "
                   f"grp = {i % GROUPS})")


@pytest.fixture
def cluster():
    with ShardedCluster(shards=SHARDS) as c:
        populate(c)
        yield c


@pytest.fixture
def oracle():
    db = Prima()
    populate(db)
    return db


def payloads(molecules, attrs=("name", "pop", "grp")):
    """Surrogate-free comparison payloads (cluster and oracle assign
    different surrogate numbers, so identity attrs are stripped)."""
    return [tuple(m.atom.get(a) for a in attrs) for m in molecules]


# ---------------------------------------------------------------------------
# The router: placement decisions
# ---------------------------------------------------------------------------

class TestRouter:
    def test_stable_hash_is_deterministic_and_type_aware(self):
        assert stable_hash("c7") == stable_hash("c7")
        assert stable_hash(17) == 17
        assert stable_hash(-17) == 17
        assert stable_hash(True) == 1

    def test_hash_routing_consistent_with_insert_placement(self):
        router = ShardRouter(SHARDS)
        for i in range(40):
            key = f"c{i}"
            placed = router.shard_for_insert(("name",), "city",
                                             {"name": key, "pop": i})
            assert placed == router.shard_of_key("city", key)
            assert 0 <= placed < SHARDS

    def test_unroutable_insert_returns_none(self):
        router = ShardRouter(SHARDS)
        assert router.shard_for_insert((), "city", {"pop": 1}) is None
        assert router.shard_for_insert(("name",), "city", {"pop": 1}) is None

    def test_range_routing_partitions_by_split_points(self):
        router = ShardRouter(4, ranges={"city": ("g", "n", "t")})
        assert router.shard_of_key("city", "a") == 0
        assert router.shard_of_key("city", "g") == 1
        assert router.shard_of_key("city", "m") == 1
        assert router.shard_of_key("city", "n") == 2
        assert router.shard_of_key("city", "z") == 3

    def test_range_routing_validates_split_points(self):
        with pytest.raises(PrimaError, match="split point"):
            ShardRouter(4, ranges={"city": ("g",)})
        with pytest.raises(PrimaError, match="ascending"):
            ShardRouter(3, ranges={"city": ("n", "g")})

    def test_surrogate_residue_recovers_owner(self):
        router = ShardRouter(SHARDS)
        for number in range(1, 20):
            assert router.shard_of_surrogate(
                Surrogate("city", number)) == (number - 1) % SHARDS

    def test_cluster_rejects_mismatched_router(self):
        with pytest.raises(PrimaError, match="router is built for"):
            ShardedCluster(shards=4, router=ShardRouter(2))


# ---------------------------------------------------------------------------
# Routed execution: single-key lookups touch exactly one shard
# ---------------------------------------------------------------------------

class TestRoutedLookup:
    def test_data_is_actually_partitioned(self, cluster):
        counts = [engine.access.atoms.count("city")
                  for engine in cluster.engines]
        assert sum(counts) == N_CITIES
        assert all(count > 0 for count in counts)
        assert cluster.access.counters.snapshot()["routed_inserts"] \
            == N_CITIES

    def test_prepared_key_lookup_touches_one_shard(self, cluster, oracle):
        stmt = cluster.prepare("SELECT ALL FROM city WHERE name = ?")
        expected_shard = cluster.router.shard_of_key("city", "c13")
        before = [engine.access.counters.snapshot().get("cluster_queries", 0)
                  for engine in cluster.engines]
        result = stmt.execute("c13")
        rows = payloads(result)
        result.close()
        after = [engine.access.counters.snapshot().get("cluster_queries", 0)
                 for engine in cluster.engines]
        touched = [i for i in range(SHARDS) if after[i] > before[i]]
        assert touched == [expected_shard]
        assert result.shard == expected_shard
        oracle_rows = payloads(
            oracle.execute("SELECT ALL FROM city WHERE name = 'c13'"))
        assert rows == oracle_rows == [("c13", 1000 + 13 * 7, 13 % GROUPS)]
        assert cluster.access.counters.snapshot()["routed_queries"] == 1

    def test_every_key_routes_to_its_owner(self, cluster, oracle):
        stmt = cluster.prepare("SELECT ALL FROM city WHERE name = ?")
        for i in range(0, N_CITIES, 7):
            result = stmt.execute(f"c{i}")
            assert payloads(result) == [(f"c{i}", 1000 + i * 7, i % GROUPS)]
            assert result.shard == cluster.router.shard_of_key("city",
                                                               f"c{i}")
            result.close()

    def test_explain_carries_the_routing_line(self, cluster):
        plan = cluster.explain("SELECT ALL FROM city WHERE name = 'c3'")
        assert f"routed to 1 of {SHARDS} shard(s)" in plan
        scatter = cluster.explain("SELECT ALL FROM city WHERE pop > 1100")
        assert f"scatter to {SHARDS} shard(s)" in scatter

    def test_explain_binds_a_literal_variant(self, cluster, oracle):
        # The third variant rides the shared template: EXPLAIN shows its
        # own key, never the internal placeholder, as Prima's does.
        for i in (1, 2):
            cluster.explain(f"SELECT ALL FROM city WHERE name = 'c{i}'")
            oracle.explain(f"SELECT ALL FROM city WHERE name = 'c{i}'")
        mql = "SELECT ALL FROM city WHERE name = 'c3'"
        plan = cluster.explain(mql)
        assert "key = ('c3',)" in plan
        assert "__t" not in plan

        def root(text):
            return [line for line in text.splitlines()
                    if line.startswith("  root:")]
        assert root(plan) == root(oracle.explain(mql))

    def test_unbound_parameter_key_falls_back_to_scatter(self, cluster):
        # A plan-time explain of a parameterized key cannot route yet;
        # binding concrete values resolves the target shard.
        stmt = cluster.prepare("SELECT ALL FROM city WHERE name = :n")
        plan = stmt.plan()
        assert plan.routing["mode"] == "routed"
        assert "shard" not in plan.routing
        bound = stmt.bind((), {"n": "c5"})
        assert bound.routing["shard"] == \
            cluster.router.shard_of_key("city", "c5")


# ---------------------------------------------------------------------------
# Plan once, bind once: a cluster statement is one plan, not one per shard
# ---------------------------------------------------------------------------

class TestBindOnce:
    @pytest.fixture
    def binds(self, monkeypatch):
        """Every ``bind_plan`` call a statement makes."""
        calls = []
        original = prepared.bind_plan

        def counting(plan, bindings):
            calls.append(plan)
            return original(plan, bindings)

        monkeypatch.setattr(prepared, "bind_plan", counting)
        return calls

    @pytest.fixture
    def pins(self, cluster, monkeypatch):
        """Snapshot pins taken per shard."""
        counts = [0] * SHARDS
        for index, engine in enumerate(cluster.engines):
            original = engine.access.atoms.open_snapshot

            def counting(index=index, original=original):
                counts[index] += 1
                return original()

            monkeypatch.setattr(engine.access.atoms, "open_snapshot",
                                counting)
        return counts

    def test_routed_lookup_binds_once_and_pins_one_shard(self, cluster,
                                                         binds, pins):
        stmt = cluster.prepare("SELECT ALL FROM city WHERE name = ?")
        result = stmt.open(("c13",))
        assert payloads(result) == [("c13", 1000 + 13 * 7, 13 % GROUPS)]
        result.close()
        assert len(binds) == 1
        owner = cluster.router.shard_of_key("city", "c13")
        assert pins == [int(index == owner) for index in range(SHARDS)]

    def test_scatter_binds_once(self, cluster, oracle, binds, pins):
        mql = "SELECT ALL FROM city WHERE pop > ? ORDER BY pop DESC LIMIT 5"
        want = payloads(oracle.execute(mql, 1100))
        binds.clear()
        result = cluster.prepare(mql).open((1100,))
        assert payloads(result) == want
        result.close()
        assert len(binds) == 1
        assert pins == [1] * SHARDS


# ---------------------------------------------------------------------------
# Scatter-gather parity against the single-engine oracle
# ---------------------------------------------------------------------------

class TestScatterParity:
    def test_full_scan_parity(self, cluster, oracle):
        mine = sorted(payloads(cluster.execute("SELECT ALL FROM city")))
        ref = sorted(payloads(oracle.execute("SELECT ALL FROM city")))
        assert mine == ref
        assert cluster.access.counters.snapshot()["scatter_queries"] == 1

    def test_ordered_topk_byte_identical(self, cluster, oracle):
        mql = "SELECT ALL FROM city ORDER BY pop DESC LIMIT 10"
        assert payloads(cluster.execute(mql)) == \
            payloads(oracle.execute(mql))

    def test_ordered_window_with_offset(self, cluster, oracle):
        mql = ("SELECT ALL FROM city ORDER BY pop DESC "
               "LIMIT 8 OFFSET 5")
        assert payloads(cluster.execute(mql)) == \
            payloads(oracle.execute(mql))

    def test_ordered_stream_without_limit(self, cluster, oracle):
        mql = "SELECT ALL FROM city ORDER BY pop"
        assert payloads(cluster.execute(mql)) == \
            payloads(oracle.execute(mql))

    def test_residual_filter_parity(self, cluster, oracle):
        mql = ("SELECT ALL FROM city WHERE pop > 1100 AND grp = 2 "
               "ORDER BY pop")
        assert payloads(cluster.execute(mql)) == \
            payloads(oracle.execute(mql))

    def test_projection_applies_once_at_the_gather(self, cluster, oracle):
        mql = "SELECT (name) FROM city ORDER BY pop DESC LIMIT 5"
        mine = cluster.execute(mql)
        ref = oracle.execute(mql)
        assert payloads(mine, attrs=("name",)) == \
            payloads(ref, attrs=("name",))

    def test_rewind_replays_the_gathered_window(self, cluster):
        result = cluster.execute(
            "SELECT ALL FROM city ORDER BY pop DESC LIMIT 6")
        first = payloads(result)
        result.reopen()
        assert payloads(result) == first
        result.close()

    def test_parallel_select_refuses_a_cluster(self, cluster):
        with pytest.raises(DecompositionError, match="scatter-gathers"):
            parallel_select(cluster, "SELECT ALL FROM city")


# ---------------------------------------------------------------------------
# Shard-local TopK bound pushdown
# ---------------------------------------------------------------------------

class TestTopKPushdown:
    def _constructed(self, engine) -> int:
        snapshot = engine.access.counters.snapshot()
        return snapshot.get("molecules_from_traversal", 0) + \
            snapshot.get("molecules_from_cluster", 0)

    def test_no_shard_constructs_more_than_the_window(self, cluster,
                                                      oracle):
        k = 5
        cluster.execute_ldl("CREATE ACCESS PATH city_pop ON city (pop)")
        oracle.execute_ldl("CREATE ACCESS PATH city_pop ON city (pop)")
        cluster.analyze()
        oracle.analyze()
        before = [self._constructed(e) for e in cluster.engines]
        mql = f"SELECT ALL FROM city ORDER BY pop DESC LIMIT {k}"
        result = cluster.execute(mql)
        rows = payloads(result)
        result.close()
        assert rows == payloads(oracle.execute(mql))
        per_shard = [self._constructed(e) - before[i]
                     for i, e in enumerate(cluster.engines)]
        # Each shard's own TopK window caps construction at k molecules;
        # the coordinator's pushed global bound can only tighten that.
        assert all(count <= k for count in per_shard), per_shard
        assert sum(per_shard) < N_CITIES

    def test_global_bound_pushed_into_later_shards(self, cluster):
        cluster.execute_ldl("CREATE ACCESS PATH city_pop ON city (pop)")
        cluster.analyze()
        result = cluster.execute(
            "SELECT ALL FROM city ORDER BY pop DESC LIMIT 3")
        result.materialize()
        result.close()
        pushed = cluster.access.counters.snapshot().get(
            "shard_bounds_pushed", 0)
        # The bound tightens once the first shard fills the window —
        # every remaining shard receives it before draining.
        assert pushed == SHARDS - 1


# ---------------------------------------------------------------------------
# DML and DDL across shards
# ---------------------------------------------------------------------------

class TestClusterDML:
    def test_modify_fans_out_and_matches_oracle(self, cluster, oracle):
        mql = "MODIFY city SET pop = 9999 FROM city WHERE grp = 1"
        mine = cluster.execute(mql).affected
        ref = oracle.execute(mql).affected
        assert mine == ref == N_CITIES // GROUPS
        check = "SELECT ALL FROM city WHERE pop = 9999 ORDER BY name"
        assert payloads(cluster.execute(check)) == \
            payloads(oracle.execute(check))
        assert cluster.access.counters.snapshot()["dml_fanouts"] == 1

    def test_delete_fans_out_and_matches_oracle(self, cluster, oracle):
        mql = "DELETE city FROM city WHERE grp = 4"
        assert cluster.execute(mql).affected == \
            oracle.execute(mql).affected == N_CITIES // GROUPS
        assert cluster.access.atoms.count("city") == \
            N_CITIES - N_CITIES // GROUPS

    def test_direct_atom_access_routes_by_surrogate(self, cluster):
        surrogate = cluster.insert_atom(
            "city", {"name": "zz", "pop": 1, "grp": 0})
        owner = cluster.router.shard_of_surrogate(surrogate)
        assert cluster.engines[owner].access.atoms.exists(surrogate)
        cluster.modify_atom(surrogate, {"pop": 2})
        assert cluster.get_atom(surrogate)["pop"] == 2
        cluster.delete_atom(surrogate)
        assert not cluster.engines[owner].access.atoms.exists(surrogate)

    def test_keyless_inserts_round_robin(self):
        with ShardedCluster(shards=3) as c:
            c.execute("CREATE ATOM_TYPE note (note_id: IDENTIFIER, "
                      "v: INTEGER)")
            for i in range(9):
                c.execute(f"INSERT note (v = {i})")
            assert [e.access.atoms.count("note") for e in c.engines] \
                == [3, 3, 3]
            assert c.access.counters.snapshot()["unrouted_inserts"] == 9


class TestDDLInvalidation:
    def test_ddl_fans_out_and_moves_every_catalog(self, cluster):
        versions = [e.data.catalog_version for e in cluster.engines]
        fanouts = cluster.access.counters.snapshot()["ddl_fanouts"]
        cluster.execute("CREATE ATOM_TYPE extra (extra_id: IDENTIFIER, "
                        "v: INTEGER)")
        for engine, before in zip(cluster.engines, versions):
            assert engine.schema.atom_type("extra") is not None
            assert engine.data.catalog_version > before
        assert cluster.access.counters.snapshot()["ddl_fanouts"] \
            == fanouts + 1

    def test_prepared_statement_replans_after_ddl(self, cluster):
        stmt = cluster.prepare(
            "SELECT ALL FROM city WHERE pop = ? ORDER BY name")
        assert "SCAN" in stmt.explain(args=(1014,))
        cluster.execute_ldl("CREATE ACCESS PATH city_pop ON city (pop)")
        cluster.analyze()
        # The summed cluster version moved (every shard's DDL bump);
        # the handle replans on shard 0 onto the fresh access path and
        # re-derives routing — no re-prepare needed.
        replanned = stmt.explain(args=(1014,))
        assert "city_pop" in replanned
        assert cluster.access.counters.snapshot()[
            "plans_invalidated"] >= 1

    def test_prepared_cache_returns_one_handle(self, cluster):
        first = cluster.prepare("SELECT ALL FROM city WHERE name = ?")
        second = cluster.prepare(
            "SELECT  ALL\nFROM city   WHERE name = ?")
        assert second is first
        assert cluster.access.counters.snapshot()[
            "plan_cache_hits"] == 1


# ---------------------------------------------------------------------------
# Serving a cluster: sessions, the daemon, accounting
# ---------------------------------------------------------------------------

class TestServingOverCluster:
    def test_in_process_connection_parity(self, cluster, oracle):
        mql = "SELECT ALL FROM city ORDER BY pop DESC LIMIT 10"
        with repro.connect(cluster) as conn:
            assert conn.shards == SHARDS
            assert payloads(conn.query(mql)) == \
                payloads(oracle.execute(mql))
            stmt = conn.prepare("SELECT ALL FROM city WHERE name = ?")
            assert payloads(stmt.execute("c9")) \
                == [("c9", 1000 + 9 * 7, 9 % GROUPS)]
            assert f"routed to 1 of {SHARDS}" in conn.explain(
                "SELECT ALL FROM city WHERE name = 'c9'")

    def test_routed_cursor_reports_its_shard(self, cluster):
        with repro.connect(cluster) as conn:
            cursor = conn.cursor("SELECT ALL FROM city WHERE name = 'c2'")
            assert cursor.shard == cluster.router.shard_of_key("city", "c2")
            scatter = conn.cursor("SELECT ALL FROM city ORDER BY pop")
            assert scatter.shard is None
            cursor.close()
            scatter.close()

    def test_daemon_over_cluster_parity(self, cluster, oracle):
        manager = SessionManager(cluster, max_sessions=4)
        mql = "SELECT ALL FROM city ORDER BY pop DESC LIMIT 10"
        with PrimaDaemon(manager) as daemon:
            with daemon.connect(name="ws") as conn:
                assert conn.shards == SHARDS
                assert payloads(conn.query(mql, fetch_size=4)) == \
                    payloads(oracle.execute(mql))
                cursor = conn.cursor(
                    "SELECT ALL FROM city WHERE name = 'c2'")
                assert cursor.shard == \
                    cluster.router.shard_of_key("city", "c2")
                cursor.close()
                assert conn.execute(
                    "INSERT city (name = 'c600', pop = 42, grp = 0)"
                ).affected == 1
        assert manager.active_sessions == 0
        owner = cluster.router.shard_of_key("city", "c600")
        assert cluster.engines[owner].access.atoms.find_by_key(
            "city", "c600") is not None

    def test_daemon_accounting_covers_the_cluster(self, cluster):
        manager = SessionManager(cluster, max_sessions=2)
        with PrimaDaemon(manager) as daemon:
            with daemon.connect() as conn:
                result = conn.query("SELECT ALL FROM city ORDER BY pop")
                assert len(list(result)) == N_CITIES
                result.close()
        report = cluster.io_report()
        assert report["shards"] == SHARDS
        # Every shard served part of the gather, so every modelled
        # service channel billed some communication time.
        assert all(ms > 0 for ms in report["shard_service_ms"])
        assert report["shard_makespan_ms"] == \
            max(report["shard_service_ms"])
        assert report.get("serve_sessions_opened", 0) >= 1

    def test_four_shards_divide_the_modelled_makespan(self):
        """Scale-out: padded rows make gather bytes dominate the
        modelled channel time, so four balanced shards cut the slowest
        channel's time (the makespan) to well under half of one
        shard's."""
        pad = "x" * 512

        def makespan(shards: int) -> float:
            with ShardedCluster(shards=shards) as cluster:
                cluster.execute("CREATE ATOM_TYPE item (item_id: "
                                "IDENTIFIER, n: INTEGER, grp: INTEGER, "
                                "pad: CHAR_VAR) KEYS_ARE (n)")
                for i in range(512):
                    cluster.execute(f"INSERT item (n = {i}, grp = {i % 8}, "
                                    f"pad = '{pad}')")
                cluster.reset_accounting()
                manager = SessionManager(cluster)
                for group in range(8):
                    with repro.connect(manager) as conn:
                        assert len(conn.query(
                            f"SELECT ALL FROM item WHERE grp = {group}")) \
                            == 64
                        stmt = conn.prepare(
                            "SELECT ALL FROM item WHERE n = ?")
                        for i in range(4):
                            assert len(stmt.execute(
                                group * 4 + i).materialize()) == 1
                return cluster.service_report()["makespan_ms"]

        assert makespan(1) >= 2.5 * makespan(4)

    def test_connect_shards_option_creates_a_cluster(self):
        with repro.connect(shards=3, name="fresh") as conn:
            assert conn.shards == 3
            conn.execute("CREATE ATOM_TYPE t (t_id: IDENTIFIER, "
                         "v: INTEGER) KEYS_ARE (v)")
            for i in range(6):
                conn.execute(f"INSERT t (v = {i})")
            assert sorted(m.atom["v"] for m in conn.query(
                "SELECT ALL FROM t")) == list(range(6))


# ---------------------------------------------------------------------------
# The range-router split-point advisor
# ---------------------------------------------------------------------------

class TestRangeAdvisor:
    def test_derive_split_points_integers(self):
        assert ShardRouter.derive_split_points(0, 100, 4) == (25, 50, 75)

    def test_derive_split_points_floats(self):
        assert ShardRouter.derive_split_points(0.0, 1.0, 4) == \
            (0.25, 0.5, 0.75)

    def test_derive_rejects_non_numeric_and_degenerate_domains(self):
        assert ShardRouter.derive_split_points("a", "z", 4) is None
        assert ShardRouter.derive_split_points(5, 5, 4) is None
        assert ShardRouter.derive_split_points(True, False, 4) is None
        assert ShardRouter.derive_split_points(None, None, 4) is None
        assert ShardRouter.derive_split_points(0, 100, 1) is None

    def test_derive_rejects_too_narrow_integer_domains(self):
        # 8 shards over [0, 3]: rounding collides adjacent cuts.
        assert ShardRouter.derive_split_points(0, 3, 8) is None

    def test_adopt_ranges_validates_like_the_constructor(self):
        router = ShardRouter(4)
        with pytest.raises(PrimaError):
            router.adopt_ranges("city", (1, 2))       # wrong count
        with pytest.raises(PrimaError):
            router.adopt_ranges("city", (3, 2, 1))    # not ascending
        router.adopt_ranges("city", (10, 20, 30))
        assert router.scheme("city") == "range"
        assert router.range_points("city") == (10, 20, 30)
        assert router.routable("city")

    def test_advise_ranges_derives_from_statistics(self):
        with ShardedCluster(shards=SHARDS) as cluster:
            cluster.execute("CREATE ATOM_TYPE m (m_id: IDENTIFIER, "
                            "v: INTEGER) KEYS_ARE (v)")
            for v in range(100):
                cluster.execute(f"INSERT m (v = {v})")
            adopted = cluster.advise_ranges()
            assert "m" in adopted
            assert len(adopted["m"]) == SHARDS - 1
            assert list(adopted["m"]) == sorted(adopted["m"])
            assert cluster.router.scheme("m") == "range"
            assert cluster.io_report()["router_ranges_advised"] == 1

    def test_advise_skips_declared_and_keyless_types(self):
        with ShardedCluster(shards=2, ranges={"r": (50,)}) as cluster:
            cluster.execute("CREATE ATOM_TYPE r (r_id: IDENTIFIER, "
                            "v: INTEGER) KEYS_ARE (v)")
            cluster.execute("CREATE ATOM_TYPE nk (nk_id: IDENTIFIER, "
                            "w: INTEGER)")
            for v in range(10):
                cluster.execute(f"INSERT r (v = {v * 10})")
                cluster.execute(f"INSERT nk (w = {v})")
            adopted = cluster.advise_ranges()
            assert adopted == {}
            assert cluster.router.range_points("r") == (50,)

    def test_advise_skips_non_numeric_keys(self, cluster):
        # The fixture's city type is keyed on name (CHAR_VAR).
        assert cluster.advise_ranges("city") == {}
        assert cluster.router.scheme("city") == "hash"

    def test_mixed_placement_keeps_old_atoms_findable(self):
        with ShardedCluster(shards=3) as cluster:
            cluster.execute("CREATE ATOM_TYPE m (m_id: IDENTIFIER, "
                            "v: INTEGER) KEYS_ARE (v)")
            for v in range(30):
                cluster.execute(f"INSERT m (v = {v})")
            cluster.advise_ranges("m")
            # Ranges adopted over hash-placed data: lookups must keep
            # scattering, so every pre-adoption atom stays reachable.
            assert not cluster.router.routable("m")
            for v in (0, 13, 29):
                rows = cluster.execute(f"SELECT ALL FROM m WHERE v = {v}")
                assert [x.atom["v"] for x in rows] == [v]
            # New inserts follow the derived ranges.
            cluster.execute("INSERT m (v = 500)")
            owner = cluster.router.shard_of_key("m", 500)
            assert cluster.engines[owner].access.atoms.find_by_key(
                "m", 500) is not None
            rows = cluster.execute("SELECT ALL FROM m WHERE v = 500")
            assert [x.atom["v"] for x in rows] == [500]

    def test_advised_cluster_parity_with_oracle(self, oracle):
        with ShardedCluster(shards=SHARDS) as cluster:
            cluster.execute("CREATE ATOM_TYPE m (m_id: IDENTIFIER, "
                            "v: INTEGER) KEYS_ARE (v)")
            oracle2 = Prima()
            oracle2.execute("CREATE ATOM_TYPE m (m_id: IDENTIFIER, "
                            "v: INTEGER) KEYS_ARE (v)")
            for v in range(40):
                cluster.execute(f"INSERT m (v = {v})")
                oracle2.execute(f"INSERT m (v = {v})")
            cluster.advise_ranges("m")
            for v in range(40, 60):
                cluster.execute(f"INSERT m (v = {v})")
                oracle2.execute(f"INSERT m (v = {v})")
            mql = "SELECT ALL FROM m WHERE v >= 20"
            assert sorted(x.atom["v"] for x in
                          cluster.execute(mql)) == \
                sorted(x.atom["v"] for x in oracle2.execute(mql))
