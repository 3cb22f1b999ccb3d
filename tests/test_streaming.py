"""Tests: the streaming operator pipeline and the lazy ResultSet cursor.

Covers the Volcano-style execution path end to end — early termination
via LIMIT/OFFSET (verified through ``access.counters``), first-molecule
delivery before the root scan is exhausted, operator-tree explain output
for every root-access kind, the parallel subsystem's construction on
the operator layer — plus the tightest-bound regression of ``_range_for``.
"""

import pytest

from repro import Prima
from repro.data.executor import _range_for
from repro.data.operators import (
    Limit,
    MoleculeConstruct,
    Offset,
    Project,
    RootPartition,
    RootScan,
)
from repro.errors import ValidationError
from repro.mql.parser import parse
from repro.parallel import parallel_select
from repro.parallel.decompose import SemanticDecomposer


N_PARTS = 40


@pytest.fixture()
def db():
    database = Prima()
    database.execute("CREATE ATOM_TYPE part (part_id: IDENTIFIER, "
                     "n: INTEGER, grp: INTEGER) KEYS_ARE (n)")
    for value in range(N_PARTS):
        database.insert_atom("part", {"n": value, "grp": value % 4})
    return database


# ---------------------------------------------------------------------------
# _range_for: tightest-bound combination (regression)
# ---------------------------------------------------------------------------

class TestRangeFor:
    def test_last_term_no_longer_wins_on_lower_bounds(self):
        condition = _range_for([("x", ">", 5), ("x", ">", 3)], "x")
        assert condition.start == 5 and not condition.include_start

    def test_max_of_starts(self):
        condition = _range_for([("x", ">", 3), ("x", ">", 5)], "x")
        assert condition.start == 5 and not condition.include_start

    def test_min_of_stops(self):
        condition = _range_for([("x", "<", 9), ("x", "<", 7)], "x")
        assert condition.stop == 7 and not condition.include_stop

    def test_exclusive_wins_at_equal_value(self):
        condition = _range_for([("x", ">=", 5), ("x", ">", 5)], "x")
        assert condition.start == 5 and not condition.include_start
        condition = _range_for([("x", "<", 5), ("x", "<=", 5)], "x")
        assert condition.stop == 5 and not condition.include_stop

    def test_inclusive_kept_when_looser_side_comes_later(self):
        condition = _range_for([("x", ">", 5), ("x", ">=", 3)], "x")
        assert condition.start == 5 and not condition.include_start

    def test_equality_short_circuits(self):
        condition = _range_for([("x", ">", 3), ("x", "=", 4)], "x")
        assert condition.start == 4 and condition.stop == 4

    def test_end_to_end_over_access_path(self, db):
        db.execute_ldl("CREATE ACCESS PATH pn ON part (n)")
        result = db.query("SELECT ALL FROM part WHERE n > 3 AND n > 5")
        values = sorted(m.atom["n"] for m in result)
        assert values == list(range(6, N_PARTS))


# ---------------------------------------------------------------------------
# LIMIT / OFFSET through the grammar and the pipeline
# ---------------------------------------------------------------------------

class TestLimitOffset:
    def test_parse_limit_offset(self):
        statement = parse("SELECT ALL FROM part LIMIT 5 OFFSET 2")
        assert statement.limit == 5 and statement.offset == 2

    def test_parse_limit_only(self):
        statement = parse("SELECT ALL FROM part LIMIT 7")
        assert statement.limit == 7 and statement.offset == 0

    def test_no_limit_defaults(self):
        statement = parse("SELECT ALL FROM part")
        assert statement.limit is None and statement.offset == 0

    def test_limit_delivers_k(self, db):
        result = db.query("SELECT ALL FROM part LIMIT 5")
        assert len(result) == 5

    def test_limit_zero_is_empty(self, db):
        assert len(db.query("SELECT ALL FROM part LIMIT 0")) == 0

    def test_offset_skips(self, db):
        everything = [m.atom["n"] for m in
                      db.query("SELECT ALL FROM part ORDER BY n")]
        window = [m.atom["n"] for m in
                  db.query("SELECT ALL FROM part ORDER BY n "
                           "LIMIT 4 OFFSET 3")]
        assert window == everything[3:7]

    def test_limit_constructs_at_most_k_molecules(self, db):
        """The acceptance criterion: LIMIT k stops construction at k."""
        db.reset_accounting()
        result = db.query("SELECT ALL FROM part LIMIT 3")
        result.materialize()
        constructed = db.io_report().get("molecules_from_traversal", 0)
        assert constructed == 3

    def test_limit_fetches_less_than_full_scan(self, db):
        db.reset_accounting()
        db.query("SELECT ALL FROM part LIMIT 3").materialize()
        limited = db.io_report()
        db.reset_accounting()
        db.query("SELECT ALL FROM part").materialize()
        full = db.io_report()
        assert limited.get("atoms_read", 0) < full.get("atoms_read", 0)
        assert limited.get("molecules_from_traversal", 0) < \
            full.get("molecules_from_traversal", 0)
        assert full.get("molecules_from_traversal", 0) == N_PARTS

    def test_limit_with_residual_filter(self, db):
        result = db.query("SELECT ALL FROM part "
                          "WHERE EXISTS part: part.grp = 0 LIMIT 2")
        molecules = result.materialize()
        assert len(molecules) == 2
        assert all(m.atom["grp"] == 0 for m in molecules)

    def test_negative_limit_rejected(self, db):
        # the grammar only produces non-negative INTs; drive the
        # validation path directly through the AST
        statement = parse("SELECT ALL FROM part LIMIT 1")
        statement.limit = -1
        with pytest.raises(ValidationError):
            db.data.plan_select(statement)


# ---------------------------------------------------------------------------
# Lazy cursor semantics
# ---------------------------------------------------------------------------

class TestLazyResultSet:
    def test_first_molecule_before_scan_exhausted(self, db):
        db.reset_accounting()
        result = db.query("SELECT ALL FROM part")
        first = next(iter(result))
        assert first is not None
        assert not result.exhausted
        # far fewer atom reads than a full materialisation would need
        assert db.io_report().get("atoms_read", 0) < N_PARTS
        assert db.io_report().get("molecules_from_traversal", 0) == 1

    def test_indexing_materialises_on_demand(self, db):
        db.reset_accounting()
        result = db.query("SELECT ALL FROM part")
        result[2]
        assert db.io_report().get("molecules_from_traversal", 0) == 3
        assert not result.exhausted

    def test_len_materialises_fully(self, db):
        result = db.query("SELECT ALL FROM part")
        assert len(result) == N_PARTS
        assert result.exhausted

    def test_reiteration_is_stable(self, db):
        result = db.query("SELECT ALL FROM part")
        first_pass = [m.atom["n"] for m in result]
        second_pass = [m.atom["n"] for m in result]
        assert first_pass == second_pass and len(first_pass) == N_PARTS

    def test_fetch_next_protocol(self, db):
        result = db.query("SELECT ALL FROM part LIMIT 2")
        assert result.fetch_next() is not None
        assert result.fetch_next() is not None
        assert result.fetch_next() is None
        assert result.exhausted

    def test_fetch_next_works_on_eager_sets(self, db):
        """The one-molecule-at-a-time interface also serves eagerly
        constructed sets (DML outcomes, parallel results)."""
        outcome = parallel_select(db, "SELECT ALL FROM part LIMIT 2")
        first = outcome.result.fetch_next()
        second = outcome.result.fetch_next()
        assert first is not None and second is not None
        assert outcome.result.fetch_next() is None

    def test_close_abandons_pipeline(self, db):
        from repro.errors import CursorStateError
        db.reset_accounting()
        result = db.query("SELECT ALL FROM part")
        result.fetch_next()
        result.close()
        assert result.exhausted
        assert result.truncated
        # The truncated prefix streams, but must not pose as the set.
        with pytest.raises(CursorStateError):
            len(result)
        # one fetched + close()'s single pending-work probe
        assert db.io_report().get("molecules_from_traversal", 0) == 2

    def test_sort_is_a_pipeline_breaker(self, db):
        """ORDER BY without index support must construct everything
        before the first delivery."""
        db.reset_accounting()
        result = db.query("SELECT ALL FROM part ORDER BY n DESC")
        next(iter(result))
        assert db.io_report().get("molecules_from_traversal", 0) == N_PARTS

    def test_dml_results_stay_eager(self, db):
        outcome = db.execute("DELETE ALL FROM part WHERE n = 3")
        assert outcome.affected == 1
        assert len(db.query("SELECT ALL FROM part")) == N_PARTS - 1

    def test_script_select_drained_before_later_dml(self, db):
        """A SELECT in a script reflects the state *before* the script's
        later DML statements."""
        results = db.execute_script(
            "SELECT ALL FROM part WHERE n = 1; "
            "MODIFY part SET n = 999 FROM part WHERE n = 1"
        )
        assert len(results[0]) == 1
        assert results[1].affected == 1

    def test_closed_operator_stays_closed(self, db):
        from repro.mql.parser import parse as parse_mql
        plan = db.data.plan_select(parse_mql("SELECT ALL FROM part"))
        pipeline = plan.compile(db.data)
        assert pipeline.next() is not None
        pipeline.close()
        assert pipeline.next() is None   # no silent re-execution
        assert pipeline.rows_out == 1


# ---------------------------------------------------------------------------
# explain(): the operator tree per root-access kind
# ---------------------------------------------------------------------------

class TestExplainTree:
    def _tree(self, plan: str) -> str:
        assert "pipeline:" in plan
        return plan.split("pipeline:")[1]

    def test_key_lookup_tree(self, db):
        plan = db.explain("SELECT ALL FROM part WHERE n = 3")
        tree = self._tree(plan)
        assert "RootScan (KEY LOOKUP part" in tree
        assert "MoleculeConstruct" in tree and "Project (ALL)" in tree

    def test_atom_type_scan_tree(self, db):
        plan = db.explain("SELECT ALL FROM part WHERE n > 1")
        tree = self._tree(plan)
        assert "RootScan (ATOM TYPE SCAN part" in tree
        assert "ResidualFilter" in tree

    def test_access_path_tree(self, db):
        db.execute_ldl("CREATE ACCESS PATH pn ON part (n)")
        plan = db.explain("SELECT ALL FROM part WHERE n > 1 AND n < 4")
        assert "RootScan (ACCESS PATH SCAN pn" in self._tree(plan)

    def test_sort_scan_tree_skips_sort_operator(self, db):
        db.execute_ldl("CREATE SORT ORDER by_n ON part (n)")
        plan = db.explain("SELECT ALL FROM part ORDER BY n")
        tree = self._tree(plan)
        assert "RootScan (SORT SCAN by_n" in tree
        assert "Sort (" not in tree     # order served by the access

    def test_explicit_sort_without_limit_in_tree(self, db):
        plan = db.explain("SELECT ALL FROM part ORDER BY n DESC")
        tree = self._tree(plan)
        assert "Sort (n DESC — pipeline breaker)" in tree
        assert "TopK" not in tree
        assert tree.index("Sort") < tree.index("RootScan")

    def test_sort_window_fuses_into_topk(self, db):
        """ORDER BY + LIMIT compiles the Sort/Offset/Limit stack into one
        bounded-heap TopK operator."""
        plan = db.explain("SELECT ALL FROM part ORDER BY n DESC "
                          "LIMIT 3 OFFSET 1")
        tree = self._tree(plan)
        assert "TopK (k=3, offset=1; n DESC — bounded heap)" in tree
        assert "Sort (" not in tree
        assert "Limit (" not in tree and "Offset (" not in tree
        assert tree.index("TopK") < tree.index("MoleculeConstruct") < \
            tree.index("RootScan")

    def test_compiled_tree_matches_description(self, db):
        statement = parse("SELECT ALL FROM part WHERE grp = 1 "
                          "ORDER BY n DESC LIMIT 2")
        plan = db.data.plan_select(statement)
        pipeline = plan.compile(db.data)
        names = [line.strip().split(" (")[0]
                 for line in pipeline.render_tree()]
        assert names == [name for name, _detail
                         in plan.operator_descriptions()]


# ---------------------------------------------------------------------------
# operator/scan row counters
# ---------------------------------------------------------------------------

class TestRowCounters:
    def test_operator_rows_counted(self, db):
        db.reset_accounting()
        db.query("SELECT ALL FROM part LIMIT 4").materialize()
        report = db.io_report()
        assert report.get("operator_rows:Limit") == 4
        assert report.get("operator_rows:Project") == 4
        assert report.get("operator_rows:MoleculeConstruct") == 4
        assert report.get("operator_rows:RootScan") == 4

    def test_scan_rows_counted(self, db):
        db.reset_accounting()
        db.query("SELECT ALL FROM part").materialize()
        report = db.io_report()
        assert report.get("scan_rows:AtomTypeScan") == N_PARTS
        assert report.get("scan_rows_delivered") == N_PARTS
        assert report.get("scans_opened") == 1


# ---------------------------------------------------------------------------
# decomposed construction (repro.parallel on the operator layer)
# ---------------------------------------------------------------------------

class TestPartitionedConstruction:
    def test_partitioned_result_equals_serial(self, db):
        serial = db.query("SELECT ALL FROM part WHERE grp = 1")
        outcome = parallel_select(db, "SELECT ALL FROM part WHERE grp = 1",
                                  processors=4)
        assert [m.to_dict() for m in outcome.result] == \
            [m.to_dict() for m in serial]

    def test_order_and_window_equal_serial(self, db):
        """The parallel path applies Sort/Offset/Limit like the serial
        pipeline above the decomposed units."""
        mql = "SELECT ALL FROM part ORDER BY n DESC LIMIT 4 OFFSET 2"
        serial = db.query(mql)
        outcome = parallel_select(db, mql, processors=4)
        assert [m.to_dict() for m in outcome.result] == \
            [m.to_dict() for m in serial]
        assert len(outcome.result) == 4

    def test_order_by_projected_away_attribute(self, db):
        """The final sort uses pre-projection values even when the sort
        attribute is projected away."""
        mql = "SELECT grp FROM part ORDER BY n DESC LIMIT 3"
        serial = db.query(mql)
        outcome = parallel_select(db, mql, processors=2)
        assert [m.to_dict() for m in outcome.result] == \
            [m.to_dict() for m in serial]

    def test_roots_come_from_root_scan_operator(self, db):
        decomposer = SemanticDecomposer(db.data)
        plan, units = decomposer.decompose_select("SELECT ALL FROM part")
        assert len(units) == N_PARTS
        scan = RootScan(db.data, plan.root_access)
        assert [u.root for u in units] == list(scan)

    def test_manual_worker_pipeline(self, db):
        """A RootPartition-fed construction pipeline is a first-class
        operator tree."""
        plan = db.data.plan_select(parse("SELECT ALL FROM part"))
        roots = list(RootScan(db.data, plan.root_access))[:5]
        pipeline = Project(
            Limit(Offset(MoleculeConstruct(RootPartition(roots), db.data,
                                           plan.structure), 1), 3),
            db.data, plan.projection, plan.structure)
        molecules = list(pipeline)
        assert [m.atom["n"] for m in molecules] == \
            [db.access.get(r)["n"] for r in roots[1:4]]
