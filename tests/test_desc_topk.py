"""Tests: descending / mixed-direction ordered scans + dynamic TopK bound.

Covers the direction-aware access layer end to end — DESC ORDER BY served
by a reverse sort-order (or B*-tree access-path) scan, mixed-direction
ORDER BY prefix-served in either direction, the surrogate tie-break
agreement between every SortScan backing and the stable Sort operator,
the dynamic heap-bound pushdown into the lazy B*-tree walk, the parallel
prologue's direction + bound shaping, the wrong-label ORDER BY
diagnostic, and the closed-cursor contract edge cases.
"""

import pytest

from repro import Prima
from repro.access.scans import SortScan
from repro.data.operators import TopK
from repro.errors import CursorStateError, ValidationError
from repro.mql.parser import parse
from repro.parallel.decompose import SemanticDecomposer

N_PARTS = 60


def build_db(sort_order=None, access_path=None, n_parts=N_PARTS):
    db = Prima()
    db.execute("CREATE ATOM_TYPE part (part_id: IDENTIFIER, "
               "n: INTEGER, grp: INTEGER) KEYS_ARE (n)")
    for value in range(n_parts):
        db.insert_atom("part", {"n": value, "grp": value % 4})
    if sort_order:
        attrs = ", ".join(sort_order)
        db.execute_ldl(f"CREATE SORT ORDER so ON part ({attrs})")
    if access_path:
        attrs = ", ".join(access_path)
        db.execute_ldl(f"CREATE ACCESS PATH ap ON part ({attrs})")
    return db


def _find(operator, kind):
    if isinstance(operator, kind):
        return operator
    for child in operator.children:
        found = _find(child, kind)
        if found is not None:
            return found
    return None


class TestReverseServing:
    def test_desc_fully_served_by_reverse_sort_order(self):
        db = build_db(sort_order=["n"])
        plan = db.data.plan_select(
            parse("SELECT ALL FROM part ORDER BY n DESC"))
        assert plan.order_served_by_access
        assert plan.root_access.kind == "sort_scan"
        assert plan.root_access.detail["reverse"] is True
        got = [m.atom["n"] for m in
               db.query("SELECT ALL FROM part ORDER BY n DESC")]
        assert got == list(reversed(range(N_PARTS)))

    def test_desc_limit_constructs_exactly_k(self):
        db = build_db(sort_order=["n"])
        db.reset_accounting()
        got = [m.atom["n"] for m in
               db.query("SELECT ALL FROM part ORDER BY n DESC LIMIT 5")]
        assert got == [59, 58, 57, 56, 55]
        report = db.io_report()
        assert report.get("operator_rows:MoleculeConstruct") == 5
        # The lazy walk stopped with the construction, not after it:
        # at most a handful of index entries were ever visited.
        assert report.get("sort_scan_entries_walked", 0) <= 6

    def test_desc_served_by_reverse_access_path(self):
        db = build_db(access_path=["n"])
        plan = db.data.plan_select(
            parse("SELECT ALL FROM part ORDER BY n DESC"))
        assert plan.order_served_by_access
        assert plan.root_access.detail["order"] == "ap"
        got = [m.atom["n"] for m in
               db.query("SELECT ALL FROM part ORDER BY n DESC LIMIT 3")]
        assert got == [59, 58, 57]

    def test_multi_attr_desc_served(self):
        db = build_db(sort_order=["grp", "n"])
        plan = db.data.plan_select(
            parse("SELECT ALL FROM part ORDER BY grp DESC, n DESC"))
        assert plan.order_served_by_access
        got = [(m.atom["grp"], m.atom["n"]) for m in
               db.query("SELECT ALL FROM part ORDER BY grp DESC, n DESC")]
        assert got == sorted(got, reverse=True)

    def test_ascending_still_served_forward(self):
        db = build_db(sort_order=["n"])
        plan = db.data.plan_select(
            parse("SELECT ALL FROM part ORDER BY n"))
        assert plan.order_served_by_access
        assert not plan.root_access.detail["reverse"]

    def test_longer_access_path_beats_shorter_sort_order(self):
        """A fully-matching (grp, n) access path serves the whole ORDER
        BY; the one-attribute sort order must not shadow it."""
        db = build_db(sort_order=["grp"], access_path=["grp", "n"])
        plan = db.data.plan_select(
            parse("SELECT ALL FROM part ORDER BY grp DESC, n DESC "
                  "LIMIT 4"))
        assert plan.order_served_by_access
        assert plan.root_access.detail["order"] == "ap"
        db.reset_accounting()
        got = [(m.atom["grp"], m.atom["n"]) for m in db.query(
            "SELECT ALL FROM part ORDER BY grp DESC, n DESC LIMIT 4")]
        assert got == [(3, 59), (3, 55), (3, 51), (3, 47)]
        assert db.io_report().get("operator_rows:MoleculeConstruct") == 4

    def test_equal_match_prefers_sort_order_record_copies(self):
        db = build_db(sort_order=["n"], access_path=["n"])
        plan = db.data.plan_select(
            parse("SELECT ALL FROM part ORDER BY n DESC"))
        assert plan.root_access.detail["order"] == "so"

    def test_access_path_reverse_convenience(self):
        from repro.access.access_path import AccessPath
        db = build_db(access_path=["n"])
        path = db.data.access.atoms.structure("ap")
        assert isinstance(path, AccessPath)
        forward = [key[0] for key, _s in path.scan()]
        backward = [key[0] for key, _s in path.scan(reverse=True)]
        assert backward == list(reversed(forward))


class TestMixedDirectionPrefix:
    def test_leading_desc_run_prefix_served(self):
        db = build_db(sort_order=["grp"])
        plan = db.data.plan_select(
            parse("SELECT ALL FROM part ORDER BY grp DESC, n LIMIT 6"))
        assert not plan.order_served_by_access
        assert plan.order_prefix_served == 1
        assert plan.root_access.detail["reverse"] is True

    def test_mixed_result_equals_full_sort(self):
        mql = "SELECT ALL FROM part ORDER BY grp DESC, n LIMIT 6"
        baseline = [m.atom["n"] for m in build_db().query(mql)]
        served = [m.atom["n"] for m in
                  build_db(sort_order=["grp"]).query(mql)]
        assert served == baseline
        # grp 3 holds parts 3, 7, 11, ... — ascending n within the group.
        assert served == [3, 7, 11, 15, 19, 23]

    def test_mixed_prefix_cuts_construction(self):
        db = build_db(sort_order=["grp"])
        db.reset_accounting()
        statement = parse("SELECT ALL FROM part ORDER BY grp DESC, n "
                          "LIMIT 6")
        plan = db.data.plan_select(statement)
        pipeline = plan.compile(db.data)
        assert [m.atom["n"] for m in pipeline] == [3, 7, 11, 15, 19, 23]
        topk = _find(pipeline, TopK)
        assert topk.bounds_pushed > 0
        # grp 3 holds 15 parts; the reverse walk stops at the first
        # grp-2 entry without constructing it.
        assert db.io_report().get(
            "operator_rows:MoleculeConstruct") == 15

    def test_explain_shows_prefix_served_and_direction(self):
        db = build_db(sort_order=["grp"])
        text = db.explain("SELECT ALL FROM part ORDER BY grp DESC, n "
                          "LIMIT 6", analyze=True)
        assert "order_prefix_served=1" in text
        assert "dynamic bound into the reverse scan" in text
        assert "SORT SCAN so ON part (grp) DESC" in text

    def test_direction_flip_breaks_prefix(self):
        """ORDER BY grp, n DESC over a (grp, n) sort order serves only
        the first attribute — the direction flip ends the uniform run."""
        db = build_db(sort_order=["grp", "n"])
        plan = db.data.plan_select(
            parse("SELECT ALL FROM part ORDER BY grp, n DESC LIMIT 4"))
        assert not plan.order_served_by_access
        assert plan.order_prefix_served == 1
        mql = "SELECT ALL FROM part ORDER BY grp, n DESC LIMIT 4"
        assert [m.atom["n"] for m in db.query(mql)] == \
            [m.atom["n"] for m in build_db().query(mql)]


class TestTieBreakConsistency:
    """Every backing of a descending scan agrees with the stable sort:
    equal keys arrive in insertion (ascending surrogate) order."""

    def backends(self):
        return {
            "sort_order": build_db(sort_order=["grp"]),
            "access_path": build_db(access_path=["grp"]),
            "explicit": build_db(),
        }

    def test_desc_scan_paths_agree_on_ties(self):
        results = {}
        for label, db in self.backends().items():
            scan = SortScan(db.data.access.atoms, "part", ["grp"],
                            reverse=True)
            results[label] = [values["n"] for _s, values in scan]
        assert results["sort_order"] == results["access_path"] \
            == results["explicit"]
        # Within each equal-grp run the parts keep insertion order.
        assert results["explicit"][:15] == list(range(3, N_PARTS, 4))

    def test_desc_query_equals_stable_sort_operator(self):
        mql = "SELECT ALL FROM part ORDER BY grp DESC"
        baseline = [m.atom["n"] for m in build_db().query(mql)]
        for label, db in self.backends().items():
            assert [m.atom["n"] for m in db.query(mql)] == baseline, label


class TestDynamicBound:
    def test_walk_stops_with_the_bound(self):
        db = build_db(sort_order=["grp"], n_parts=1000)
        db.reset_accounting()
        statement = parse("SELECT ALL FROM part ORDER BY grp, n LIMIT 5")
        plan = db.data.plan_select(statement)
        pipeline = plan.compile(db.data)
        list(pipeline)
        report = db.io_report()
        # grp 0 holds 250 of 1000 parts: the walk visits the grp-0 run
        # plus the single grp-1 entry that passes the bound.
        assert report.get("sort_scan_entries_walked") == 251
        assert report.get("operator_rows:MoleculeConstruct") == 250

    def test_bound_off_constructs_one_more(self):
        db = build_db(sort_order=["grp"], n_parts=1000)
        db.reset_accounting()
        plan = db.data.plan_select(
            parse("SELECT ALL FROM part ORDER BY grp, n LIMIT 5"))
        pipeline = plan.compile(db.data, push_bound=False)
        list(pipeline)
        assert _find(pipeline, TopK).cut_short
        assert db.io_report().get(
            "operator_rows:MoleculeConstruct") == 251

    def test_bound_results_equal_unbounded(self):
        mql = "SELECT ALL FROM part ORDER BY grp, n LIMIT 7 OFFSET 2"
        with_bound = [m.atom["n"] for m in
                      build_db(sort_order=["grp"]).query(mql)]
        without = [m.atom["n"] for m in build_db().query(mql)]
        assert with_bound == without

    def test_reopen_after_bound_replays_cached_run(self):
        db = build_db(sort_order=["grp"])
        result = db.query("SELECT ALL FROM part ORDER BY grp, n LIMIT 4")
        first = [m.atom["n"] for m in result]
        result.reopen()
        assert [m.atom["n"] for m in result] == first


class TestParallelShaping:
    def test_served_order_limits_the_prologue(self):
        db = build_db(sort_order=["n"])
        decomposer = SemanticDecomposer(db.data)
        plan, units = decomposer.decompose_select(
            "SELECT ALL FROM part ORDER BY n DESC LIMIT 5")
        assert plan.order_served_by_access
        assert len(units) == 5          # one DU per window member only
        result = decomposer.run_all(plan, units)
        assert [m.atom["n"] for m in result] == [59, 58, 57, 56, 55]

    def test_prefix_bound_prunes_the_prologue(self):
        db = build_db(sort_order=["grp"])
        decomposer = SemanticDecomposer(db.data)
        plan, units = decomposer.decompose_select(
            "SELECT ALL FROM part ORDER BY grp DESC, n LIMIT 6")
        assert plan.order_prefix_served == 1
        # grp 3 holds 15 parts; no DU beyond that group is created.
        assert len(units) == 15
        result = decomposer.run_all(plan, units)
        assert [m.atom["n"] for m in result] == [3, 7, 11, 15, 19, 23]

    def test_root_only_residual_keeps_prefix_shaping(self):
        # An OR qualification is not sargable: it stays residual, the
        # sort order still serves the ORDER BY.  Because the residual
        # touches only root attributes, the prologue can evaluate it
        # per root atom and still truncate at the window — counting
        # only *qualified* roots, so disqualified ones never displace a
        # window member.
        db = build_db(sort_order=["n"])
        decomposer = SemanticDecomposer(db.data)
        plan, units = decomposer.decompose_select(
            "SELECT ALL FROM part WHERE n < 4 OR n > 54 "
            "ORDER BY n DESC LIMIT 8")
        assert plan.order_served_by_access
        assert plan.residual_where is not None
        assert len(units) == 8          # window of qualified roots only
        result = decomposer.run_all(plan, units)
        assert [m.atom["n"] for m in result] == \
            [59, 58, 57, 56, 55, 3, 2, 1]

    def test_parallel_equals_serial_under_desc(self):
        from repro.parallel import parallel_select
        db = build_db(sort_order=["grp"])
        mql = "SELECT ALL FROM part ORDER BY grp DESC, n LIMIT 6"
        serial = [m.atom["n"] for m in db.query(mql)]
        outcome = parallel_select(db, mql, processors=4)
        assert [m.atom["n"] for m in outcome.result] == serial


class TestOrderByDiagnostics:
    def test_wrong_label_reported_as_wrong_label(self):
        db = build_db()
        with pytest.raises(ValidationError) as excinfo:
            db.query("SELECT ALL FROM part ORDER BY widget.n")
        message = str(excinfo.value)
        assert "widget" in message
        assert "root label 'part'" in message

    def test_deep_path_still_rejected_by_shape(self):
        db = build_db()
        with pytest.raises(ValidationError) as excinfo:
            db.query("SELECT ALL FROM part ORDER BY a.b.c")
        assert "root attributes only" in str(excinfo.value)


class TestCursorContract:
    def test_reopen_mid_iteration_under_desc_order(self):
        db = build_db(sort_order=["n"])
        result = db.query("SELECT ALL FROM part ORDER BY n DESC LIMIT 10")
        first_three = [result.fetch_next().atom["n"] for _ in range(3)]
        assert first_three == [59, 58, 57]
        result.reopen()                 # mid-iteration: legal, restarts
        assert [m.atom["n"] for m in result] == list(range(59, 49, -1))

    def test_reopen_after_partial_close_raises(self):
        db = build_db(sort_order=["n"])
        result = db.query("SELECT ALL FROM part ORDER BY n DESC LIMIT 10")
        result.fetch_next()
        result.close()
        assert result.truncated
        with pytest.raises(CursorStateError):
            result.reopen()

    def test_close_after_complete_fetch_is_not_truncated(self):
        """A cursor that consumed every molecule but never pulled the
        terminal None is complete — close() must not poison reopen()."""
        db = build_db(sort_order=["n"])
        result = db.query("SELECT ALL FROM part ORDER BY n DESC LIMIT 3")
        assert [result.fetch_next().atom["n"] for _ in range(3)] == \
            [59, 58, 57]
        result.close()                 # all 3 fetched; nothing pending
        assert not result.truncated
        result.reopen()
        assert len(result) == 3

    def test_close_on_empty_result_is_not_truncated(self):
        db = build_db()
        result = db.query("SELECT ALL FROM part WHERE n > 999 "
                          "ORDER BY n DESC")
        result.close()
        assert not result.truncated
        result.reopen()
        assert len(result) == 0

    def test_truncated_set_refuses_whole_set_accessors(self):
        db = build_db()
        result = db.query("SELECT ALL FROM part ORDER BY grp, n LIMIT 5")
        result.fetch_next()
        result.close()
        assert result.truncated
        with pytest.raises(CursorStateError):
            len(result)
        with pytest.raises(CursorStateError):
            result.to_dicts()
        # The streaming interface still serves the cached prefix
        # (close() probed one molecule into the cache alongside it).
        assert [m.atom["n"] for m in result] == [0, 4]

    def test_fetch_next_interleaved_with_indexing_on_topk(self):
        db = build_db()
        result = db.query("SELECT ALL FROM part ORDER BY grp, n LIMIT 5")
        first = result.fetch_next()
        assert first.atom["n"] == 0
        # Indexing materialises ahead without moving the fetch cursor.
        assert result[3].atom["n"] == 12
        assert result.fetch_next().atom["n"] == 4
        assert len(result) == 5
        assert result.fetch_next().atom["n"] == 8
