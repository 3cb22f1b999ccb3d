"""Prepared statements, parameter binding, and the plan cache.

Covers the whole redesigned query surface: MQL placeholders (``?`` /
``:name``), ``Prima.prepare`` → ``execute`` with late binding, the
shared catalog-versioned :class:`~repro.data.prepared.PlanCache` under
every entry point, DDL/LDL invalidation (never run a stale plan), the
serving layer's PREPARE / EXECUTE_PREPARED protocol, and the prepared
``parallel_select`` path.
"""

from __future__ import annotations

import threading

import pytest

import repro
from repro import Prima
from repro.data.plan import QueryPlan
from repro.errors import (
    ExecutionError,
    PrimaError,
    SessionStateError,
    ValidationError,
)
from repro.mql.ast import Parameter
from repro.mql.parser import parse
from repro.parallel import parallel_select
from repro.serve import SessionManager, protocol


def make_items(db: Prima, count: int = 60) -> None:
    db.execute("CREATE ATOM_TYPE item (item_id: IDENTIFIER, "
               "n: INTEGER, grp: INTEGER, name: CHAR_VAR) KEYS_ARE (n)")
    for i in range(count):
        db.insert_atom("item", {"n": i, "grp": i % 7, "name": f"i{i}"})


# ---------------------------------------------------------------------------
# Parsing placeholders
# ---------------------------------------------------------------------------

class TestPlaceholderParsing:
    def test_positional_markers_numbered_in_textual_order(self):
        statement = parse("SELECT ALL FROM item WHERE n = ? AND grp > ? "
                          "ORDER BY n LIMIT ? OFFSET ?")
        first, second = statement.where.parts
        assert first.right == Parameter(index=0)
        assert second.right == Parameter(index=1)
        assert statement.limit == Parameter(index=2)
        assert statement.offset == Parameter(index=3)

    def test_named_markers(self):
        statement = parse("SELECT ALL FROM item WHERE n = :key OR n = :key")
        for part in statement.where.parts:
            assert part.right == Parameter(name="key")

    def test_parameter_on_left_side_of_comparison(self):
        statement = parse("SELECT ALL FROM item WHERE ? < n")
        assert statement.where.left == Parameter(index=0)

    def test_parameter_inside_quantifier_condition(self):
        statement = parse("SELECT ALL FROM solid-face "
                          "WHERE EXISTS face: face.area > :min")
        assert statement.where.condition.right == Parameter(name="min")

    def test_parameter_in_insert_values_and_ref_keys(self):
        statement = parse("INSERT item (n = ?, name = :nm)")
        values = dict(statement.assignments)
        assert values["n"] == Parameter(index=0)
        assert values["name"] == Parameter(name="nm")
        statement = parse("SELECT ALL FROM a WHERE owner = REF user(?)")
        assert statement.where.right.key == (Parameter(index=0),)

    def test_render_markers(self):
        assert Parameter(index=2).render() == "?3"
        assert Parameter(name="lo").render() == ":lo"


# ---------------------------------------------------------------------------
# Prepare / execute through the facade
# ---------------------------------------------------------------------------

class TestPreparedExecution:
    def test_positional_binding(self, db):
        make_items(db)
        stmt = db.prepare("SELECT ALL FROM item WHERE n = ?")
        assert [m.atom["n"] for m in stmt.execute(7)] == [7]
        assert [m.atom["n"] for m in stmt.execute(11)] == [11]

    def test_named_binding(self, db):
        make_items(db)
        stmt = db.prepare(
            "SELECT ALL FROM item WHERE grp = :g AND n < :hi ORDER BY n")
        rows = [m.atom["n"] for m in stmt.execute(g=3, hi=20)]
        assert rows == [3, 10, 17]

    def test_signature_is_validated(self, db):
        make_items(db)
        stmt = db.prepare("SELECT ALL FROM item WHERE n = ? AND grp = :g")
        with pytest.raises(ExecutionError, match="1 positional"):
            stmt.execute(g=1)
        with pytest.raises(ExecutionError, match="no value bound"):
            stmt.execute(5)
        with pytest.raises(ExecutionError, match="unknown named"):
            stmt.execute(5, g=1, typo=2)

    def test_unbound_statement_refuses_direct_execution(self, db):
        make_items(db)
        with pytest.raises(ExecutionError, match="positional parameter"):
            db.query("SELECT ALL FROM item WHERE n = ?")
        # Compiling a plan template directly is refused too.
        stmt = db.prepare("SELECT ALL FROM item WHERE n = ?")
        with pytest.raises(ExecutionError, match="unbound parameter"):
            stmt.plan().compile(db.data)

    def test_parameterized_window(self, db):
        make_items(db, 30)
        stmt = db.prepare("SELECT ALL FROM item ORDER BY n LIMIT ? OFFSET ?")
        assert [m.atom["n"] for m in stmt.execute(3, 5)] == [5, 6, 7]
        assert [m.atom["n"] for m in stmt.execute(2, 0)] == [0, 1]

    def test_window_binding_is_validated(self, db):
        make_items(db, 10)
        stmt = db.prepare("SELECT ALL FROM item ORDER BY n LIMIT ?")
        with pytest.raises(ExecutionError, match="LIMIT"):
            stmt.execute(-1)
        with pytest.raises(ExecutionError, match="LIMIT"):
            stmt.execute("ten")

    def test_literal_negative_window_still_rejected_at_plan_time(self, db):
        from dataclasses import replace
        make_items(db, 5)
        statement = parse("SELECT ALL FROM item LIMIT 3")
        with pytest.raises(ValidationError):
            db.data.plan_select(replace(statement, limit=-1))
        with pytest.raises(ValidationError):
            db.data.plan_select(replace(statement, offset=-2))

    def test_execute_with_inline_bindings_on_facade(self, db):
        make_items(db)
        result = db.execute("SELECT ALL FROM item WHERE n = ?", 9)
        assert [m.atom["n"] for m in result] == [9]
        result = db.query("SELECT ALL FROM item WHERE grp = :g LIMIT 2", g=2)
        assert all(m.atom["grp"] == 2 for m in result)

    def test_prepared_dml_skips_reparsing(self, db):
        db.execute("CREATE ATOM_TYPE node (node_id: IDENTIFIER, "
                   "v: INTEGER)")
        insert = db.prepare("INSERT node (v = ?)")
        parsed_before = db.io_report()["statements_parsed"]
        for i in range(20):
            insert.execute(i)
        report = db.io_report()
        assert report["statements_parsed"] == parsed_before
        assert len(db.query("SELECT ALL FROM node")) == 20
        modify = db.prepare(
            "MODIFY node SET v = :new FROM node WHERE v = :old")
        assert modify.execute(new=100, old=3).affected == 1
        values = {m.atom["v"] for m in db.query("SELECT ALL FROM node")}
        assert 100 in values and 3 not in values

    def test_explain_template_and_bound(self, db):
        make_items(db)
        stmt = db.prepare("SELECT ALL FROM item WHERE n = ? "
                          "ORDER BY grp LIMIT ?")
        template = stmt.explain()
        assert "?1" in template and "?2" in template
        bound = stmt.explain(args=(4, 2))
        assert "?1" not in bound and "(key = (4,))" in bound
        analyzed = stmt.explain(analyze=True, args=(4, 2))
        assert "rows=" in analyzed
        with pytest.raises(PrimaError):
            db.explain("INSERT item (n = 1)")

    def test_facade_explain_with_positional_bindings(self, db):
        make_items(db)
        rendered = db.explain("SELECT ALL FROM item WHERE n = ?", 4)
        assert "(key = (4,))" in rendered
        analyzed = db.explain("SELECT ALL FROM item WHERE n = ?", 4,
                              analyze=True)
        assert "rows=" in analyzed

    def test_subquery_window_parameter_binds_like_the_literal_form(self, db):
        db.execute("CREATE ATOM_TYPE a (a_id: IDENTIFIER, an: INTEGER, "
                   "bs: SET_OF (REF_TO (b.a)))")
        db.execute("CREATE ATOM_TYPE b (b_id: IDENTIFIER, bn: INTEGER, "
                   "a: REF_TO (a.bs))")
        root = db.insert_atom("a", {"an": 1})
        for i in range(3):
            db.insert_atom("b", {"bn": i, "a": root})
        literal = db.query("SELECT (an, b := SELECT ALL FROM b "
                           "WHERE bn >= 1 LIMIT 2) FROM a-b")
        stmt = db.prepare("SELECT (an, b := SELECT ALL FROM b "
                          "WHERE bn >= :lo LIMIT :k) FROM a-b")
        bound = stmt.execute(lo=1, k=2)
        assert [m.atom["bn"] for m in bound[0].component_list("b")] == \
            [m.atom["bn"] for m in literal[0].component_list("b")]
        with pytest.raises(ExecutionError, match="LIMIT"):
            stmt.execute(lo=1, k=-2)

    def test_results_identical_to_literal_form(self, db):
        make_items(db)
        db.execute_ldl("CREATE ACCESS PATH item_grp ON item (grp) "
                       "USING BTREE")
        stmt = db.prepare("SELECT ALL FROM item WHERE grp >= ? AND "
                          "grp <= ? ORDER BY n")
        literal = db.query("SELECT ALL FROM item WHERE grp >= 2 AND "
                           "grp <= 3 ORDER BY n")
        assert [m.atom["n"] for m in stmt.execute(2, 3)] == \
            [m.atom["n"] for m in literal]


# ---------------------------------------------------------------------------
# Sargability of prepared plans
# ---------------------------------------------------------------------------

class TestPreparedSargability:
    def test_key_equality_takes_key_lookup(self, db):
        make_items(db)
        stmt = db.prepare("SELECT ALL FROM item WHERE n = ?")
        assert stmt.plan().root_access.kind == "key_lookup"

    def test_range_takes_access_path(self, db):
        make_items(db)
        db.execute_ldl("CREATE ACCESS PATH item_grp ON item (grp) "
                       "USING BTREE")
        stmt = db.prepare("SELECT ALL FROM item WHERE grp >= :lo")
        plan = stmt.plan()
        assert plan.root_access.kind == "access_path"
        bound = stmt.bind(params={"lo": 5})
        condition = bound.root_access.detail["conditions"][0]
        assert condition.start == 5
        assert "grp >= 5" in bound.root_access.detail["range"]

    def test_search_argument_on_atom_type_scan(self, db):
        make_items(db)
        stmt = db.prepare("SELECT ALL FROM item WHERE grp = ?")
        plan = stmt.plan()
        assert plan.root_access.kind == "atom_type_scan"
        bound = stmt.bind(args=(4,))
        assert ("grp", "=", 4) in bound.root_access.detail["search"]
        assert all(m.atom["grp"] == 4 for m in stmt.execute(4))

    def test_acceptance_query_key_order_limit(self, db):
        """The acceptance shape: WHERE key = ? ORDER BY a LIMIT ?."""
        make_items(db)
        stmt = db.prepare("SELECT ALL FROM item WHERE n = ? "
                          "ORDER BY grp LIMIT ?")
        plan = stmt.plan()
        assert plan.root_access.kind == "key_lookup"
        assert plan.uses_topk
        assert [m.atom["n"] for m in stmt.execute(13, 5)] == [13]

    def test_prepared_topk_bound_pushdown(self, db):
        make_items(db, 400)
        db.execute_ldl("CREATE SORT ORDER item_grp ON item (grp)")
        # ORDER BY grp, n over a sort order on (grp): prefix-served,
        # TopK pushes its tightening heap bound into the walk.
        stmt = db.prepare("SELECT ALL FROM item ORDER BY grp, n LIMIT ?")
        db.reset_accounting()
        result = stmt.execute(5)
        rows = [(m.atom["grp"], m.atom["n"]) for m in result]
        assert rows == [(0, 0), (0, 7), (0, 14), (0, 21), (0, 28)]
        report = db.io_report()
        assert report["topk_bounds_pushed"] >= 1
        assert report["operator_rows:MoleculeConstruct"] < 400


# ---------------------------------------------------------------------------
# The plan cache
# ---------------------------------------------------------------------------

class TestLazyPlanText:
    """An execute renders its plan text only when somebody reads it."""

    def test_execute_and_drain_never_render_the_plan(self, db,
                                                     monkeypatch):
        make_items(db)
        stmt = db.prepare("SELECT ALL FROM item WHERE n = ?")
        expected = stmt.explain(args=(7,))
        rendered: list = []
        explain = QueryPlan.explain
        monkeypatch.setattr(QueryPlan, "explain",
                            lambda plan: rendered.append(plan)
                            or explain(plan))
        result = stmt.execute(7)
        assert [m.atom["n"] for m in result.materialize()] == [7]
        result.close()
        adhoc = db.query("SELECT ALL FROM item WHERE n = 3")
        assert len(adhoc) == 1
        assert rendered == []
        assert result.plan_text == expected
        assert len(rendered) == 1
        assert result.plan_text == expected
        assert len(rendered) == 1


class TestPlanCache:
    def test_repeated_text_parses_once(self, db):
        make_items(db)
        db.reset_accounting()
        for i in range(10):
            db.query("SELECT ALL FROM item WHERE grp = 3").materialize()
        report = db.io_report()
        assert report["statements_parsed"] == 1
        assert report["plan_cache_misses"] == 1
        assert report["plan_cache_hits"] == 9

    def test_whitespace_is_normalized(self, db):
        make_items(db)
        db.reset_accounting()
        db.query("SELECT ALL FROM item WHERE grp = 3").materialize()
        db.query("SELECT  ALL\n  FROM item\n WHERE grp = 3").materialize()
        assert db.io_report()["plan_cache_hits"] == 1

    def test_use_cache_false_bypasses(self, db):
        make_items(db)
        db.reset_accounting()
        for _ in range(3):
            db.query("SELECT ALL FROM item", use_cache=False).materialize()
        report = db.io_report()
        assert report["statements_parsed"] == 3
        assert report.get("plan_cache_hits", 0) == 0

    def test_dml_is_not_cached(self, db):
        db.execute("CREATE ATOM_TYPE node (node_id: IDENTIFIER, "
                   "v: INTEGER)")
        db.reset_accounting()
        db.execute("INSERT node (v = 1)")
        db.execute("INSERT node (v = 1)")
        report = db.io_report()
        assert report["statements_parsed"] == 2
        assert report.get("plan_cache_hits", 0) == 0

    def test_lru_eviction(self, db):
        # Eight distinct placeholder shapes: literal variants of one
        # shape would share a single template entry instead.
        make_items(db, 10)
        db.data.plan_cache.capacity = 4
        for attr in ("n", "grp"):
            for op in ("=", "<", ">", "!="):
                db.query(f"SELECT ALL FROM item WHERE {attr} {op} ?",
                         3).materialize()
        assert len(db.data.plan_cache) == 4
        assert db.data.plan_cache.evictions == 4

    def test_shared_prepared_object_on_hit(self, db):
        make_items(db)
        first = db.prepare("SELECT ALL FROM item WHERE n = ?")
        second = db.prepare("SELECT ALL FROM item  WHERE n = ?")
        assert first is second

    def test_string_literals_survive_normalization(self, db):
        """Whitespace inside string literals distinguishes statements —
        'a b' and 'a  b' must never share a cached plan."""
        make_items(db, 3)
        db.insert_atom("item", {"n": 100, "grp": 0, "name": "a b"})
        db.insert_atom("item", {"n": 101, "grp": 0, "name": "a  b"})
        one = db.query("SELECT ALL FROM item WHERE name = 'a b'")
        two = db.query("SELECT ALL FROM item WHERE name = 'a  b'")
        assert [m.atom["n"] for m in one] == [100]
        assert [m.atom["n"] for m in two] == [101]
        # ... while formatting outside literals still shares the key.
        db.data.plan_cache.clear()
        db.reset_accounting()
        db.query("SELECT ALL FROM item WHERE name = 'a b'").materialize()
        db.query("SELECT  ALL FROM item  WHERE name = 'a b'").materialize()
        assert db.io_report()["plan_cache_hits"] == 1


# ---------------------------------------------------------------------------
# Invalidation: DDL, LDL, version stamps
# ---------------------------------------------------------------------------

class TestInvalidation:
    def test_catalog_version_bumps(self, db):
        v0 = db.data.catalog_version
        db.execute("CREATE ATOM_TYPE t (t_id: IDENTIFIER, x: INTEGER)")
        v1 = db.data.catalog_version
        assert v1 > v0
        db.execute_ldl("CREATE SORT ORDER t_x ON t (x)")
        v2 = db.data.catalog_version
        assert v2 > v1
        db.execute_ldl("DROP SORT ORDER t_x")
        assert db.data.catalog_version > v2
        db.execute("DEFINE MOLECULE TYPE mt FROM t")
        v3 = db.data.catalog_version
        assert v3 > v2
        db.execute("DROP MOLECULE_TYPE mt")
        assert db.data.catalog_version > v3
        db.execute("DROP ATOM_TYPE t")
        assert db.data.catalog_version > v3 + 1 - 1

    def test_ldl_structure_picked_up_by_prepared_plan(self, db):
        make_items(db)
        stmt = db.prepare("SELECT ALL FROM item ORDER BY grp")
        assert stmt.plan().root_access.kind == "atom_type_scan"
        db.execute_ldl("CREATE SORT ORDER item_grp ON item (grp)")
        assert stmt.plan().root_access.kind == "sort_scan"
        assert db.io_report()["plans_invalidated"] >= 1
        groups = [m.atom["grp"] for m in stmt.execute()]
        assert groups == sorted(groups)
        # ... and dropping the structure re-plans back to the scan.
        db.execute_ldl("DROP SORT ORDER item_grp")
        assert stmt.plan().root_access.kind == "atom_type_scan"

    def test_drop_atom_type_raises_instead_of_stale(self, db):
        db.execute("CREATE ATOM_TYPE t (t_id: IDENTIFIER, x: INTEGER)")
        stmt = db.prepare("SELECT ALL FROM t WHERE x = ?")
        assert stmt.execute(1).materialize() == []
        db.execute("DROP ATOM_TYPE t")
        with pytest.raises(ValidationError):
            stmt.execute(1)

    def test_cached_plain_text_also_revalidates(self, db):
        make_items(db)
        db.query("SELECT ALL FROM item ORDER BY grp LIMIT 3").materialize()
        db.execute_ldl("CREATE SORT ORDER item_grp ON item (grp)")
        db.reset_accounting()
        result = db.query("SELECT ALL FROM item ORDER BY grp LIMIT 3")
        result.materialize()
        report = db.io_report()
        assert report["plan_cache_hits"] == 1       # text cache still hits
        assert report["plans_invalidated"] == 1     # ... but re-plans
        assert "SORT SCAN" in result.plan_text

    def test_define_molecule_type_invalidates(self, db):
        db.execute("CREATE ATOM_TYPE base (base_id: IDENTIFIER, "
                   "v: INTEGER)")
        stmt = db.prepare("SELECT ALL FROM base")
        stmt.execute().materialize()
        before = db.io_report().get("plans_invalidated", 0)
        db.execute("DEFINE MOLECULE TYPE mt FROM base")
        stmt.execute().materialize()
        assert db.io_report().get("plans_invalidated", 0) == before + 1


# ---------------------------------------------------------------------------
# Serving: PREPARE / EXECUTE_PREPARED
# ---------------------------------------------------------------------------

class TestServingPrepared:
    def test_execute_prepared_streams_without_text(self, db):
        make_items(db)
        manager = SessionManager(db, max_sessions=2)
        with repro.connect(manager, name="w1") as conn:
            long_tail = " AND n >= 0" * 30
            text = ("SELECT ALL FROM item WHERE grp = ?" + long_tail +
                    " ORDER BY n LIMIT 3")
            stmt = conn.prepare(text)
            # Re-execution ships handle + bindings only: its request is
            # far smaller than reshipping the statement text.
            before = manager.stats.snapshot()["bytes_sent"]
            rows = [m.atom["n"] for m in stmt.execute(2)]
            prepared_bytes = manager.stats.snapshot()["bytes_sent"] - before
            assert rows == [2, 9, 16]
            before = manager.stats.snapshot()["bytes_sent"]
            plain = conn.query(text, args=(2,))
            assert [m.atom["n"] for m in plain] == [2, 9, 16]
            plain_bytes = manager.stats.snapshot()["bytes_sent"] - before
            assert prepared_bytes < plain_bytes - len(long_tail)

    def test_rebinding_across_executions(self, db):
        make_items(db)
        db.reset_accounting()
        manager = SessionManager(db)
        with repro.connect(manager) as conn:
            stmt = conn.prepare(
                "SELECT ALL FROM item WHERE n = ? ORDER BY grp LIMIT ?")
            assert [m.atom["n"] for m in stmt.execute(4, 2)] == [4]
            assert [m.atom["n"] for m in stmt.execute(40, 2)] == [40]
            report = manager.io_report()
            assert report["serve_statements_prepared"] == 1
            assert report["serve_prepared_executions"] == 2
            assert report["statements_parsed"] == 1

    def test_prepared_cursor_honours_fetch_size(self, db):
        make_items(db, 40)
        with repro.connect(db, default_fetch_size=4) as conn:
            stmt = conn.prepare("SELECT ALL FROM item WHERE grp = :g")
            cursor = stmt.open_cursor(g=1)
            rows = [m.atom["n"] for m in cursor]
            assert rows == [1, 8, 15, 22, 29, 36]
            assert cursor.max_in_flight <= 8

    def test_prepared_dml_through_session(self, db):
        db.execute("CREATE ATOM_TYPE node (node_id: IDENTIFIER, "
                   "v: INTEGER)")
        with repro.connect(db) as conn:
            insert = conn.prepare("INSERT node (v = ?)")
            for i in range(5):
                insert.execute(i)
            result = conn.execute(
                "MODIFY node SET v = :nv FROM node WHERE v = :ov",
                nv=99, ov=2)
            assert result.affected == 1
        values = {m.atom["v"] for m in db.query("SELECT ALL FROM node")}
        assert values == {0, 1, 99, 3, 4}

    def test_deallocated_handle_refuses(self, db):
        make_items(db, 5)
        with repro.connect(db) as conn:
            stmt = conn.prepare("SELECT ALL FROM item")
            assert conn.session.open_statements == 1
            stmt.close()
            assert conn.session.open_statements == 0
            with pytest.raises(SessionStateError):
                stmt.execute()

    def test_unknown_statement_handle(self, db):
        make_items(db, 5)
        with repro.connect(db) as conn:
            with pytest.raises(SessionStateError, match="no prepared"):
                conn.session.handle(protocol.ExecutePrepared(statement_id=99))

    def test_ldl_between_serving_executions_replans(self, db):
        make_items(db)
        manager = SessionManager(db)
        with repro.connect(manager, name="admin") as admin, \
                repro.connect(manager, name="reader") as rd:
            stmt = rd.prepare("SELECT ALL FROM item ORDER BY grp LIMIT 4")
            first = stmt.execute()
            assert "ATOM TYPE SCAN" in first.plan_text
            del admin  # (admin session exercises multi-session setup)
            db.execute_ldl("CREATE SORT ORDER item_grp ON item (grp)")
            second = stmt.execute()
            assert "SORT SCAN" in second.plan_text
            assert [m.atom["grp"] for m in second] == \
                [m.atom["grp"] for m in first]


# ---------------------------------------------------------------------------
# A threaded hammer: concurrent executions under DDL/LDL churn
# ---------------------------------------------------------------------------

@pytest.mark.timeout(60)
class TestConcurrentInvalidation:
    def test_hammer_never_executes_stale(self, db):
        """Sessions re-executing a shared prepared statement while LDL
        churns tuning structures must always see correct results —
        every execution runs a current (re-validated) plan."""
        make_items(db, 80)
        manager = SessionManager(db, max_sessions=6)
        text = "SELECT ALL FROM item WHERE grp = ? ORDER BY n LIMIT 5"
        expected = {
            g: [m.atom["n"] for m in db.query(text, g)]
            for g in range(7)
        }
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader(worker: int) -> None:
            try:
                conn = repro.connect(manager, name=f"r{worker}")
                stmt = conn.prepare(text)
                for round_no in range(40):
                    group = (worker + round_no) % 7
                    rows = [m.atom["n"] for m in stmt.execute(group)]
                    assert rows == expected[group], \
                        f"stale plan result {rows} for group {group}"
                conn.close()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                stop.set()

        def churn() -> None:
            try:
                for i in range(25):
                    if stop.is_set():
                        break
                    db.execute_ldl(
                        f"CREATE SORT ORDER churn_{i} ON item (grp)")
                    db.execute_ldl(f"DROP SORT ORDER churn_{i}")
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(w,), daemon=True)
                   for w in range(4)]
        threads.append(threading.Thread(target=churn, daemon=True))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=45)
            assert not thread.is_alive(), "hammer thread deadlocked"
        assert not errors, errors
        assert db.io_report().get("plans_invalidated", 0) >= 1


# ---------------------------------------------------------------------------
# Prepared parallel_select
# ---------------------------------------------------------------------------

class TestParallelPrepared:
    def test_prepared_statement_through_parallel_select(self, db):
        make_items(db, 50)
        stmt = db.prepare("SELECT ALL FROM item WHERE grp = ? ORDER BY n")
        serial = [m.atom["n"] for m in stmt.execute(3)]
        db.reset_accounting()
        outcome = parallel_select(db, stmt, processors=3, args=(3,))
        assert [m.atom["n"] for m in outcome.result] == serial
        assert db.io_report().get("statements_parsed", 0) == 0

    def test_text_path_rides_the_cache(self, db):
        make_items(db, 30)
        db.reset_accounting()
        for _ in range(3):
            parallel_select(db, "SELECT ALL FROM item WHERE grp = :g",
                            processors=2, params={"g": 1})
        report = db.io_report()
        assert report["statements_parsed"] == 1
        assert report["plan_cache_hits"] == 2

    def test_non_select_prepared_rejected(self, db):
        db.execute("CREATE ATOM_TYPE node (node_id: IDENTIFIER, "
                   "v: INTEGER)")
        stmt = db.prepare("INSERT node (v = ?)")
        from repro.errors import DecompositionError
        with pytest.raises(DecompositionError):
            parallel_select(db, stmt, args=(1,))


# ---------------------------------------------------------------------------
# Facade satellites: context manager, reset_accounting
# ---------------------------------------------------------------------------

class TestFacadeLifecycle:
    def test_context_manager_closes_and_flushes(self):
        with Prima() as db:
            make_items(db, 5)
            manager = SessionManager(db)
            conn = repro.connect(manager, name="s")
            conn.query("SELECT ALL FROM item").materialize()
            assert db.io_report().get("net_messages", 0) > 0
        # closed: sessions torn down, network stats detached
        assert conn.session.closed
        assert "net_messages" not in db.io_report()

    def test_close_is_idempotent(self):
        db = Prima()
        db.close()
        db.close()

    def test_reset_accounting_resets_session_counters(self, db):
        make_items(db, 10)
        manager = SessionManager(db)
        conn = repro.connect(manager, name="alice")
        conn.query("SELECT ALL FROM item").materialize()
        report = manager.io_report()
        assert report["session:alice:cursors_opened"] == 1
        assert report["serve_cursors_opened"] == 1
        db.reset_accounting()
        report = manager.io_report()
        assert report.get("session:alice:cursors_opened", 0) == 0
        assert report.get("serve_cursors_opened", 0) == 0
        assert report["net_messages"] == 0
        conn.close()

    def test_query_is_execute(self):
        assert Prima.query is Prima.execute
        assert not hasattr(Prima, "stream")


# ---------------------------------------------------------------------------
# The acceptance shape, across every surface
# ---------------------------------------------------------------------------

class TestAcceptanceCrossSurface:
    def test_same_prepared_query_everywhere(self, db):
        """One prepared ``WHERE key-ish = ? ORDER BY a LIMIT ?`` works
        identically through Prima, a serving Session (server-side
        handle), and parallel_select — with zero parse/plan work after
        the single prepare."""
        make_items(db, 60)
        text = "SELECT ALL FROM item WHERE grp = ? ORDER BY n LIMIT ?"
        expected = [m.atom["n"] for m in db.query(text, 2, 3)]
        stmt = db.prepare(text)          # cache hit: the same template
        db.reset_accounting()
        direct = [m.atom["n"] for m in stmt.execute(2, 3)]
        with repro.connect(db) as conn:
            handle = conn.prepare(text)   # hit again — no parse
            served = [m.atom["n"] for m in handle.execute(2, 3)]
        outcome = parallel_select(db, stmt, processors=2, args=(2, 3))
        via_parallel = [m.atom["n"] for m in outcome.result]
        assert direct == served == via_parallel == expected
        assert db.io_report().get("statements_parsed", 0) == 0
        assert db.io_report().get("statements_planned", 0) == 0


# ---------------------------------------------------------------------------
# Auto-parameterization: literal variants share one cached template
# ---------------------------------------------------------------------------

class TestAutoParameterize:
    def test_literal_variants_share_one_template(self, db):
        """Distinct literals of one statement shape plan once (as a
        shared template) after the shape is seen twice."""
        make_items(db, 70)
        expected = {g: [m.atom["n"] for m in
                        db.query("SELECT ALL FROM item WHERE grp = ? "
                                 "ORDER BY n", g)]
                    for g in range(5)}
        db.data.plan_cache.clear()
        db.reset_accounting()
        rows = {g: [m.atom["n"] for m in
                    db.query(f"SELECT ALL FROM item WHERE grp = {g} "
                             f"ORDER BY n")]
                for g in range(5)}
        assert rows == expected          # every literal gets its own set
        report = db.io_report()
        # Literal #0 plans literally (first sighting of the shape),
        # literal #1 promotes the shape into a template; #2..#4 ride it.
        assert report["statements_parsed"] == 2
        assert report["plan_cache_template_hits"] == 3

    def test_explicit_placeholders_never_templated(self, db):
        make_items(db, 30)
        db.data.plan_cache.clear()
        db.reset_accounting()
        rows = [m.atom["n"] for m in
                db.query("SELECT ALL FROM item WHERE grp = ?", 3)]
        assert rows == [n for n in range(30) if n % 7 == 3]
        assert db.io_report().get("plan_cache_template_hits", 0) == 0

    def test_limit_literals_lifted(self, db):
        make_items(db, 40)
        db.data.plan_cache.clear()
        db.reset_accounting()
        sizes = [len(db.query(f"SELECT ALL FROM item ORDER BY n LIMIT {k}"))
                 for k in (3, 5, 9)]
        assert sizes == [3, 5, 9]        # each variant honours its window
        assert db.io_report()["plan_cache_template_hits"] == 1

    def test_bound_template_rejects_external_bindings(self, db):
        make_items(db, 20)
        db.data.plan_cache.clear()
        db.prepare("SELECT ALL FROM item WHERE grp = 1")
        db.prepare("SELECT ALL FROM item WHERE grp = 2")
        bound = db.prepare("SELECT ALL FROM item WHERE grp = 3")
        assert bound.param_count == 0
        assert [m.atom["n"] for m in bound.execute()] == \
            [n for n in range(20) if n % 7 == 3]
        with pytest.raises(ExecutionError):
            bound.execute(4)

    def test_literal_variant_rejects_reserved_names(self, db):
        make_items(db, 20)
        db.data.plan_cache.clear()
        db.prepare("SELECT ALL FROM item WHERE grp = 1")
        variant = db.prepare("SELECT ALL FROM item WHERE grp = 2")
        assert variant.param_names == ()
        with pytest.raises(ExecutionError, match="reserved"):
            variant.execute(__t0=4)

    def test_own_reserved_name_placeholder_still_binds(self, db):
        """Only a handle carrying lifted literals reserves ``:__tN`` — a
        statement whose own text names one binds it like any other."""
        make_items(db, 20)
        stmt = db.prepare("SELECT ALL FROM item WHERE grp = :__t0")
        assert stmt.param_names == ("__t0",)
        assert [m.atom["n"] for m in stmt.execute(__t0=3)] == \
            [n for n in range(20) if n % 7 == 3]

    def test_string_literals_survive_the_round_trip(self, db):
        make_items(db, 25)
        db.data.plan_cache.clear()
        db.reset_accounting()
        for i in (3, 8, 14):
            rows = db.query(f"SELECT ALL FROM item WHERE name = 'i{i}'")
            assert [m.atom["n"] for m in rows] == [i]
        assert db.io_report()["plan_cache_template_hits"] == 1
