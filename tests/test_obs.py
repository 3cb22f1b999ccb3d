"""Tests: the observability layer (repro.obs) and its surfaces.

Covers the PR-9 acceptance properties:

* histogram bucket edges are upper-edge inclusive, Prometheus-style;
* ``merge()`` is associative, so per-session/per-shard registries fold
  into one cluster view in any grouping;
* tracer sampling is deterministic and the disabled path returns None;
* the slow log stays bounded and ranks slowest-first;
* a 4-shard scatter trace carries one child span per shard whose summed
  operator self-times never exceed the root span's duration, and
  ``explain(analyze=True)`` renders those shard lines;
* ``server_stats()`` returns the identical histogram schema over the
  in-process transport and the socket daemon;
* ``Prima.metrics_report()`` exports the counters/gauges/histograms
  shape every bench embeds.
"""

from __future__ import annotations

import pytest

import repro
from repro import Prima, ShardedCluster
from repro.obs import (
    LATENCY_BUCKETS_MS,
    Histogram,
    MetricsRegistry,
    SlowLog,
    Tracer,
)
from repro.serve import PrimaDaemon, SessionManager


# ---------------------------------------------------------------------------
# Histogram semantics
# ---------------------------------------------------------------------------

class TestHistogram:

    def test_bucket_edges_are_upper_inclusive(self):
        hist = Histogram((1.0, 5.0, 10.0))
        hist.observe(1.0)       # == first bound: first bucket
        hist.observe(1.0001)    # just past it: second bucket
        hist.observe(5.0)       # == second bound: second bucket
        hist.observe(10.0)      # == last bound: third bucket
        hist.observe(10.0001)   # overflow bucket
        assert hist.counts == [1, 2, 1, 1]
        assert hist.count == 5

    def test_underflow_lands_in_first_bucket(self):
        hist = Histogram((1.0, 2.0))
        hist.observe(0.0)
        hist.observe(-3.0)
        assert hist.counts == [2, 0, 0]

    def test_merge_requires_identical_bounds(self):
        hist = Histogram((1.0, 2.0))
        with pytest.raises(ValueError, match="different bounds"):
            hist.merge(Histogram((1.0, 3.0)))

    def test_bounds_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram((2.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram(())

    def test_snapshot_schema(self):
        hist = Histogram((1.0,))
        hist.observe(0.5)
        snap = hist.snapshot()
        assert set(snap) == {"bounds", "counts", "count", "sum"}
        assert snap["bounds"] == [1.0]
        assert snap["counts"] == [1, 0]
        assert snap["sum"] == 0.5

    def test_quantile_returns_bucket_edge(self):
        hist = Histogram((1.0, 10.0, 100.0))
        for value in (0.5, 0.6, 5.0, 50.0):
            hist.observe(value)
        assert hist.quantile(0.5) == 1.0
        assert hist.quantile(1.0) == 100.0


# ---------------------------------------------------------------------------
# Registry merge
# ---------------------------------------------------------------------------

class TestMerge:

    @staticmethod
    def _registry(latency: float, queries: int,
                  ratio: float) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.bump("queries", queries)
        registry.gauge("buffer_hit_ratio", ratio)
        registry.observe("query_latency_ms", latency)
        return registry

    def test_merge_is_associative(self):
        a = self._registry(1.0, 1, 0.1)
        b = self._registry(30.0, 2, 0.5)
        c = self._registry(700.0, 4, 0.9)
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.report() == right.report()
        assert left.get("queries") == 7
        assert left.histogram("query_latency_ms").count == 3

    def test_merge_does_not_mutate_sources(self):
        a = self._registry(1.0, 1, 0.1)
        b = self._registry(2.0, 2, 0.2)
        a.merge(b)
        assert a.get("queries") == 1
        assert b.histogram("query_latency_ms").count == 1

    def test_gauges_take_last_writer(self):
        a = self._registry(1.0, 1, 0.1)
        b = self._registry(1.0, 1, 0.9)
        assert a.merge(b).gauge_value("buffer_hit_ratio") == 0.9
        assert b.merge(a).gauge_value("buffer_hit_ratio") == 0.1

    def test_default_buckets_make_schemas_mergeable(self):
        # Two registries that never saw each other still agree on the
        # bounds of a well-known name — merge cannot raise.
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("query_latency_ms", 3.0)
        b.observe("query_latency_ms", 4000.0)
        merged = a.merge(b)
        assert merged.histogram("query_latency_ms").bounds == \
            tuple(LATENCY_BUCKETS_MS)


# ---------------------------------------------------------------------------
# Tracer sampling
# ---------------------------------------------------------------------------

class TestTracer:

    def test_disabled_returns_none(self):
        tracer = Tracer()
        assert not tracer.enabled
        assert tracer.start("query") is None

    def test_full_sampling_traces_everything(self):
        tracer = Tracer(1.0)
        spans = [tracer.start("query") for _ in range(5)]
        assert all(span is not None for span in spans)

    def test_sampling_leaves_the_answer_unchanged(self):
        db = _build_db()
        mql = "SELECT ALL FROM t ORDER BY n LIMIT 5"
        untraced = [m.atom["n"] for m in db.query(mql)]
        db.obs.enable_tracing(1.0)
        result = db.query(mql)
        assert [m.atom["n"] for m in result] == untraced
        result.close()
        assert any("trace" in entry for entry in db.obs.slowlog.entries())

    def test_fractional_sampling_is_deterministic(self):
        tracer = Tracer()
        tracer.enable(0.25)
        hits = [tracer.start("query") is not None for _ in range(8)]
        assert hits == [False, False, False, True] * 2

    def test_enable_validates_sample(self):
        tracer = Tracer()
        for bad in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError, match="sample"):
                tracer.enable(bad)

    def test_span_tree_shape(self):
        tracer = Tracer(1.0)
        root = tracer.start("query", mql="SELECT")
        child = root.child("shard:0", rows=3)
        child.finish()
        root.finish()
        assert [span.name for span in root.walk()] == ["query", "shard:0"]
        tree = root.to_dict()
        assert tree["attrs"] == {"mql": "SELECT"}
        assert tree["children"][0]["attrs"]["rows"] == 3
        assert root.self_time <= root.duration


# ---------------------------------------------------------------------------
# Slow log
# ---------------------------------------------------------------------------

class TestSlowLog:

    def test_bounded_and_ranked(self):
        log = SlowLog(capacity=3)
        for i in range(10):
            log.record(f"q{i}", duration=float(i))
        assert len(log) == 3
        entries = log.entries()
        assert [e["mql"] for e in entries] == ["q9", "q8", "q7"]
        assert entries[0]["duration_ms"] == 9000.0

    def test_fast_query_rejected_when_saturated(self):
        log = SlowLog(capacity=2)
        assert log.record("slow", 2.0)
        assert log.record("slower", 3.0)
        assert not log.record("fast", 0.1)
        assert len(log) == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            SlowLog(capacity=0)


# ---------------------------------------------------------------------------
# Sharded scatter trace (the acceptance query)
# ---------------------------------------------------------------------------

class TestShardedTrace:

    @pytest.fixture()
    def cluster(self):
        with ShardedCluster(shards=4) as cluster:
            cluster.execute("CREATE ATOM_TYPE part (part_id: IDENTIFIER, "
                            "name: CHAR_VAR, grade: INTEGER) "
                            "KEYS_ARE (name)")
            for i in range(64):
                cluster.execute(f"INSERT part (name = 'p{i}', "
                                f"grade = {(i * 37) % 100})")
            yield cluster

    MQL = "SELECT ALL FROM part ORDER BY grade DESC LIMIT 5"

    @staticmethod
    def shard_spans(span):
        return [s for s in span.walk() if s.name.startswith("shard:")]

    def test_scatter_trace_one_child_span_per_shard(self, cluster):
        span = cluster.trace(self.MQL)
        shard_spans = self.shard_spans(span)
        assert sorted(c.name for c in shard_spans) == \
            [f"shard:{i}" for i in range(4)]
        assert span.attrs["mode"] == "scatter"
        assert span.attrs["rows"] == 5

    def test_shard_self_times_bounded_by_root_duration(self, cluster):
        span = cluster.trace(self.MQL)
        for shard_span in self.shard_spans(span):
            operator_self = sum(s.self_time for s in shard_span.walk())
            assert operator_self <= span.duration + 1e-9

    def test_explain_analyze_renders_shard_lines(self, cluster):
        text = cluster.explain(self.MQL, analyze=True)
        assert "analyzed:" in text
        for i in range(4):
            assert f"shard:{i}" in text

    def test_routed_trace_touches_one_shard(self, cluster):
        span = cluster.trace("SELECT ALL FROM part WHERE name = 'p7'")
        assert span.attrs["mode"] == "routed"
        assert len(self.shard_spans(span)) == 1

    def test_trace_rejects_non_select(self, cluster):
        with pytest.raises(repro.PrimaError, match="SELECT"):
            cluster.trace("INSERT part (name = 'x', grade = 1)")


# ---------------------------------------------------------------------------
# server_stats over both transports
# ---------------------------------------------------------------------------

def _build_db() -> Prima:
    db = Prima()
    db.execute("CREATE ATOM_TYPE t (t_id: IDENTIFIER, n: INTEGER) "
               "KEYS_ARE (n)")
    for i in range(32):
        db.insert_atom("t", {"n": i})
    return db


class TestServerStats:

    @staticmethod
    def _exercise(conn) -> dict:
        for mql in ("SELECT ALL FROM t",
                    "SELECT ALL FROM t ORDER BY n LIMIT 3"):
            result = conn.query(mql)
            result.materialize()
            result.close()     # lazy cursors bill on close, not drain
        return conn.server_stats()

    def test_schema_identical_in_process_and_socket(self):
        in_process = self._exercise(repro.connect(_build_db(), name="ip"))
        manager = SessionManager(_build_db(), max_sessions=2)
        with PrimaDaemon(manager) as daemon:
            host, port = daemon.address
            with repro.connect(f"prima://{host}:{port}",
                               name="sock") as conn:
                remote = self._exercise(conn)

        assert set(in_process) == set(remote) == {"metrics", "slowlog"}
        local_hists = in_process["metrics"]["histograms"]
        remote_hists = remote["metrics"]["histograms"]
        # The query-path histograms exist on both transports; the
        # daemon adds transport-only ones (send_queue_depth, …) on top.
        core = {"query_latency_ms", "request_latency_ms",
                "fetch_batch_rows", "buffer_hit_ratio"}
        assert core <= set(local_hists)
        assert core <= set(remote_hists)
        for name in set(local_hists) & set(remote_hists):
            local, remote_hist = local_hists[name], remote_hists[name]
            assert set(local) == set(remote_hist) == \
                {"bounds", "counts", "count", "sum"}
            assert local["bounds"] == remote_hist["bounds"]

    def test_traced_queries_reach_the_remote_slowlog(self):
        db = _build_db()
        db.obs.enable_tracing(1.0)
        manager = SessionManager(db, max_sessions=2)
        with PrimaDaemon(manager) as daemon:
            host, port = daemon.address
            with repro.connect(f"prima://{host}:{port}",
                               name="ops") as conn:
                result = conn.query("SELECT ALL FROM t ORDER BY n LIMIT 3")
                result.materialize()
                result.close()
                stats = conn.server_stats()
        # Sampled entries carry span trees: the engine's per-query spans
        # and the session's per-message spans both land in the log.
        trees = [e["trace"] for e in stats["slowlog"] if "trace" in e]
        assert trees, "sampled queries left no span in the slow log"
        query_trees = [t for t in trees if t["name"] == "query"]
        assert query_trees, "no engine query span reached the slow log"
        assert query_trees[0]["children"], \
            "span tree lost its operator spans"
        assert any(t["name"].startswith("msg:") for t in trees)

    def test_reset_clears_server_side_state(self):
        with repro.connect(_build_db(), name="r") as conn:
            result = conn.query("SELECT ALL FROM t")
            result.materialize()
            result.close()
            before = conn.server_stats()
            assert any(e["mql"] == "SELECT ALL FROM t"
                       for e in before["slowlog"])
            conn.server_stats(reset=True)
            stats = conn.server_stats()
            assert all(e["mql"] != "SELECT ALL FROM t"
                       for e in stats["slowlog"])

    def test_remote_trace_round_trips(self):
        manager = SessionManager(_build_db(), max_sessions=2)
        with PrimaDaemon(manager) as daemon:
            host, port = daemon.address
            with repro.connect(f"prima://{host}:{port}",
                               name="t") as conn:
                traced = conn.trace("SELECT ALL FROM t ORDER BY n LIMIT 2")
        assert traced["tree"]["name"] == "query"
        assert "RootScan" in traced["text"]


# ---------------------------------------------------------------------------
# Prima.metrics_report()
# ---------------------------------------------------------------------------

class TestMetricsReport:

    def test_report_structure(self):
        db = _build_db()
        result = db.query("SELECT ALL FROM t")
        result.materialize()
        result.close()     # lazy cursors bill on close, not drain
        report = db.metrics_report()
        assert set(report) == {"counters", "gauges", "histograms"}
        assert report["counters"]["statements_parsed"] >= 1
        assert 0.0 <= report["gauges"]["buffer_hit_ratio"] <= 1.0
        latency = report["histograms"]["query_latency_ms"]
        assert latency["count"] >= 1
        assert latency["bounds"] == list(LATENCY_BUCKETS_MS)

    def test_cluster_report_merges_shards(self):
        with ShardedCluster(shards=2) as cluster:
            cluster.execute("CREATE ATOM_TYPE t (t_id: IDENTIFIER, "
                            "n: INTEGER) KEYS_ARE (n)")
            for i in range(8):
                cluster.execute(f"INSERT t (n = {i})")
            result = cluster.execute("SELECT ALL FROM t ORDER BY n")
            result.materialize()
            result.close()
            report = cluster.metrics_report()
        assert set(report) == {"counters", "gauges", "histograms"}
        assert report["histograms"]["query_latency_ms"]["count"] >= 1
