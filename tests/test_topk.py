"""Tests: TopK pushdown, per-operator timing, and pipeline re-opening.

Covers the bounded-heap TopK operator against the full-sort oracle
(ties, OFFSET, k larger than the result, descending keys), the
acceptance bound that an ORDER BY + LIMIT k query over >= 10k molecules
retains at most k + offset molecules in the heap, the sargable early
exit over a prefix-matching sort order, per-operator span self-times
and ``explain(analyze=True)``, and the Sort/TopK cached-run
regression (re-opening a result set must not re-sort).
"""

import pytest

from repro import Prima
from repro.data.operators import Sort, TopK, top_k_stable
from repro.mql.parser import parse
from repro.shard import ShardedCluster

N_PARTS = 60


@pytest.fixture()
def db():
    database = Prima()
    database.execute("CREATE ATOM_TYPE part (part_id: IDENTIFIER, "
                     "n: INTEGER, grp: INTEGER) KEYS_ARE (n)")
    for value in range(N_PARTS):
        # grp repeats (ties), rev reverses the insertion order.
        database.insert_atom("part", {"n": value, "grp": value % 4})
    return database


def _find(operator, kind):
    if isinstance(operator, kind):
        return operator
    for child in operator.children:
        found = _find(child, kind)
        if found is not None:
            return found
    return None


def _oracle(db, order_key, limit, offset=0):
    """Stable full sort + window over all parts, as (grp, n) tuples."""
    molecules = db.query("SELECT ALL FROM part").materialize()
    decorated = sorted(
        ((order_key(m), i, m) for i, m in enumerate(molecules)),
        key=lambda t: (t[0], t[1]),
    )
    return [m.atom["n"] for _k, _i, m in decorated[offset:offset + limit]]


class TestTopKCorrectness:
    def test_matches_full_sort_with_ties(self, db):
        got = [m.atom["n"] for m in
               db.query("SELECT ALL FROM part ORDER BY grp LIMIT 9")]
        # grp has 4 values over 60 parts: heavy ties; stability means the
        # earliest-inserted parts of grp 0 win.
        assert got == _oracle(db, lambda m: (m.atom["grp"],), 9)
        assert got == [0, 4, 8, 12, 16, 20, 24, 28, 32]

    def test_offset_window(self, db):
        got = [m.atom["n"] for m in
               db.query("SELECT ALL FROM part ORDER BY grp, n "
                        "LIMIT 5 OFFSET 7")]
        assert got == _oracle(db, lambda m: (m.atom["grp"], m.atom["n"]),
                              5, offset=7)

    def test_k_larger_than_result(self, db):
        got = [m.atom["n"] for m in
               db.query("SELECT ALL FROM part ORDER BY n DESC LIMIT 500")]
        assert got == list(reversed(range(N_PARTS)))

    def test_offset_beyond_result_is_empty(self, db):
        result = db.query("SELECT ALL FROM part ORDER BY n "
                          "LIMIT 5 OFFSET 500")
        assert len(result) == 0

    def test_descending_keys(self, db):
        got = [(m.atom["grp"], m.atom["n"]) for m in
               db.query("SELECT ALL FROM part ORDER BY grp DESC, n DESC "
                        "LIMIT 6")]
        everything = sorted(
            ((m.atom["grp"], m.atom["n"]) for m in
             db.query("SELECT ALL FROM part")),
            reverse=True,
        )
        assert got == everything[:6]

    def test_mixed_directions(self, db):
        got = [(m.atom["grp"], m.atom["n"]) for m in
               db.query("SELECT ALL FROM part ORDER BY grp, n DESC "
                        "LIMIT 4")]
        assert got == [(0, 56), (0, 52), (0, 48), (0, 44)]

    def test_limit_zero_pulls_nothing(self, db):
        db.reset_accounting()
        result = db.query("SELECT ALL FROM part ORDER BY grp LIMIT 0")
        assert len(result) == 0
        assert db.io_report().get("operator_rows:MoleculeConstruct", 0) == 0

    def test_equals_sort_pipeline_output(self, db):
        statement = parse("SELECT ALL FROM part ORDER BY grp, n DESC "
                          "LIMIT 8 OFFSET 3")
        plan = db.data.plan_select(statement)
        with_topk = [m.atom["n"]
                     for m in plan.compile(db.data)]
        plan = db.data.plan_select(statement)
        with_sort = [m.atom["n"]
                     for m in plan.compile(db.data, use_topk=False)]
        assert with_topk == with_sort

    def test_top_k_stable_helper_matches_sort(self):
        items = [(i % 3, i) for i in range(20)]
        got = top_k_stable(items, [("a", False)],
                           lambda item, _attr: item[0], 5, offset=2)
        want = sorted(items, key=lambda t: t[0])[2:7]
        assert got == want


class TestHeapBound:
    def test_10k_molecules_retain_at_most_k_plus_offset(self):
        """The acceptance criterion: ORDER BY + LIMIT k over >= 10k
        molecules keeps at most k + offset molecules in the heap."""
        db = Prima()
        db.execute("CREATE ATOM_TYPE item (item_id: IDENTIFIER, "
                   "n: INTEGER, grp: INTEGER) KEYS_ARE (n)")
        total, k, offset = 10_000, 7, 3
        for i in range(total):
            db.insert_atom("item", {"n": i, "grp": i % 11})
        statement = parse(f"SELECT ALL FROM item ORDER BY grp, n "
                          f"LIMIT {k} OFFSET {offset}")
        plan = db.data.plan_select(statement)
        db.reset_accounting()
        pipeline = plan.compile(db.data)
        delivered = [m.atom["n"] for m in pipeline]
        report = db.io_report()
        topk = _find(pipeline, TopK)
        assert topk is not None
        assert topk.max_heap_size <= k + offset
        assert report.get("operator_rows:TopK") == k
        assert report.get("operator_rows:MoleculeConstruct") == total
        assert delivered == [33, 44, 55, 66, 77, 88, 99]

    def test_heap_never_exceeds_bound_small(self, db):
        statement = parse("SELECT ALL FROM part ORDER BY grp "
                          "LIMIT 3 OFFSET 2")
        plan = db.data.plan_select(statement)
        pipeline = plan.compile(db.data)
        list(pipeline)
        assert _find(pipeline, TopK).max_heap_size == 5


class TestEarlyExit:
    def test_prefix_sort_order_cuts_construction_short(self, db):
        db.execute_ldl("CREATE SORT ORDER by_grp ON part (grp)")
        statement = parse("SELECT ALL FROM part ORDER BY grp, n LIMIT 4")
        plan = db.data.plan_select(statement)
        assert plan.order_prefix_served == 1
        assert not plan.order_served_by_access
        db.reset_accounting()
        pipeline = plan.compile(db.data)
        got = [m.atom["n"] for m in pipeline]
        assert got == [0, 4, 8, 12]          # the first four of grp 0
        topk = _find(pipeline, TopK)
        # The dynamic bound pushdown stops the sort-order walk *before*
        # the first grp-1 root is constructed, so the delivery-time early
        # exit never has to fire.
        assert topk.bounds_pushed > 0
        assert not topk.cut_short
        constructed = db.io_report().get("operator_rows:MoleculeConstruct")
        # grp 0 holds 15 parts; the walk stops at the first grp 1 entry,
        # which is never constructed (the pre-pushdown pipeline built 16).
        assert constructed < N_PARTS
        assert constructed == 15

    def test_delivery_time_exit_without_bound_pushdown(self, db):
        """``push_bound=False`` keeps the old delivery-time early exit:
        one beyond-bound molecule is constructed before TopK stops."""
        db.execute_ldl("CREATE SORT ORDER by_grp ON part (grp)")
        statement = parse("SELECT ALL FROM part ORDER BY grp, n LIMIT 4")
        plan = db.data.plan_select(statement)
        db.reset_accounting()
        pipeline = plan.compile(db.data, push_bound=False)
        got = [m.atom["n"] for m in pipeline]
        assert got == [0, 4, 8, 12]
        topk = _find(pipeline, TopK)
        assert topk.cut_short
        assert topk.bounds_pushed == 0
        assert db.io_report().get("operator_rows:MoleculeConstruct") == 16

    def test_early_exit_result_equals_full_sort(self, db):
        mql = "SELECT ALL FROM part ORDER BY grp, n LIMIT 6 OFFSET 2"
        without = [m.atom["n"] for m in db.query(mql)]
        db.execute_ldl("CREATE SORT ORDER by_grp ON part (grp)")
        with_order = [m.atom["n"] for m in db.query(mql)]
        assert with_order == without

    def test_longer_sort_order_serves_shorter_order_by(self, db):
        db.execute_ldl("CREATE SORT ORDER by_grp_n ON part (grp, n)")
        plan = db.data.plan_select(parse("SELECT ALL FROM part "
                                         "ORDER BY grp LIMIT 5"))
        assert plan.order_served_by_access
        got = [m.atom["grp"] for m in
               db.query("SELECT ALL FROM part ORDER BY grp LIMIT 5")]
        assert got == [0] * 5


class TestOperatorTiming:
    def test_operator_span_self_times(self, db):
        root = db.trace("SELECT ALL FROM part ORDER BY grp LIMIT 5")
        self_times = {span.name: span.self_time for span in root.walk()}
        for name in ("RootScan", "MoleculeConstruct", "TopK", "Project"):
            assert name in self_times, name
        assert all(value >= 0 for value in self_times.values())

    def test_self_time_excludes_children(self, db):
        statement = parse("SELECT ALL FROM part")
        plan = db.data.plan_select(statement)
        pipeline = plan.compile(db.data)
        list(pipeline)
        total = pipeline.time_total
        child_total = pipeline.children[0].time_total
        assert pipeline.self_time == pytest.approx(total - child_total)
        assert 0 <= pipeline.self_time <= total

    def test_explain_analyze_renders_rows_and_time(self, db):
        text = db.explain("SELECT ALL FROM part ORDER BY grp LIMIT 3",
                          analyze=True)
        assert "analyzed:" in text
        assert "TopK" in text
        assert f"[rows={N_PARTS}," in text      # construction saw all
        assert "[rows=3," in text               # the window delivered 3
        assert "ms]" in text

    def test_plain_explain_does_not_execute(self, db):
        db.reset_accounting()
        db.explain("SELECT ALL FROM part ORDER BY grp LIMIT 3")
        assert db.io_report().get("operator_rows:RootScan", 0) == 0


class TestSortRunCaching:
    def test_reopen_does_not_resort_or_reconstruct(self, db):
        db.reset_accounting()
        result = db.query("SELECT ALL FROM part ORDER BY grp")
        first = [m.atom["n"] for m in result]
        report = db.io_report()
        assert report.get("operator_sort_runs") == 1
        constructed = report.get("operator_rows:MoleculeConstruct")
        result.reopen()
        second = [m.atom["n"] for m in result]
        assert second == first
        report = db.io_report()
        assert report.get("operator_sort_runs") == 1          # no re-sort
        assert report.get("operator_rows:MoleculeConstruct") == constructed

    def test_topk_reopen_replays_cached_run(self, db):
        db.reset_accounting()
        result = db.query("SELECT ALL FROM part ORDER BY grp LIMIT 4")
        first = [m.atom["n"] for m in result]
        constructed = db.io_report().get("operator_rows:MoleculeConstruct")
        result.reopen()
        assert [m.atom["n"] for m in result] == first
        report = db.io_report()
        assert report.get("operator_topk_runs") == 1
        assert report.get("operator_rows:MoleculeConstruct") == constructed

    def test_reopen_without_breaker_reexecutes(self, db):
        db.reset_accounting()
        result = db.query("SELECT ALL FROM part LIMIT 3")
        assert len(result.materialize()) == 3
        result.reopen()
        assert len(result.materialize()) == 3
        # no pipeline breaker: the molecules really are re-constructed
        assert db.io_report().get("operator_rows:MoleculeConstruct") == 6

    def test_reopen_after_partial_close_raises(self, db):
        from repro.errors import CursorStateError
        result = db.query("SELECT ALL FROM part ORDER BY n LIMIT 5")
        result.fetch_next()
        result.close()                         # 4 molecules abandoned
        assert result.truncated
        with pytest.raises(CursorStateError):
            result.reopen()                    # the cache is a prefix

    def test_reopen_after_exhausted_close_is_legal(self, db):
        result = db.query("SELECT ALL FROM part ORDER BY n LIMIT 5")
        assert len(result.materialize()) == 5
        result.close()                         # nothing was pending
        assert not result.truncated
        result.reopen()                        # cursor reset over the cache
        assert result.fetch_next() is not None
        assert len(result) == 5

    def test_rewound_sort_operator_emits_same_run(self, db):
        statement = parse("SELECT ALL FROM part ORDER BY grp")
        plan = db.data.plan_select(statement)
        pipeline = plan.compile(db.data, use_topk=False)
        first = [m.atom["n"] for m in pipeline]
        sort = _find(pipeline, Sort)
        construct_rows = sort.children[0].rows_out
        pipeline.rewind()
        assert [m.atom["n"] for m in pipeline] == first
        assert sort.children[0].rows_out == construct_rows


class TestUnreadClose:
    """Closing an unread ORDER BY + LIMIT result decides truncation
    without running the window: no atom is read, on one engine or on a
    cluster (whose Gather would otherwise run every shard's TopK)."""

    QUERY = "SELECT ALL FROM city ORDER BY pop LIMIT 5"

    @pytest.fixture(params=["prima", "shard4"])
    def engine(self, request):
        engine = ShardedCluster(shards=4) if request.param == "shard4" \
            else Prima()
        engine.execute("CREATE ATOM_TYPE city (city_id: IDENTIFIER, "
                       "name: CHAR_VAR, pop: INTEGER) KEYS_ARE (name)")
        for i in range(200):
            engine.insert_atom("city", {"name": f"c{i}",
                                        "pop": (i * 37) % 200})
        return engine

    def test_close_reads_no_atom(self, engine):
        engine.reset_accounting()
        result = engine.query(self.QUERY)
        result.close()
        assert engine.io_report().get("atoms_read", 0) == 0
        assert result.truncated

    def test_close_after_the_window_is_read_is_complete(self, engine):
        result = engine.query(self.QUERY)
        assert [m.atom["pop"] for m in result.fetch_many(5)] == \
            [0, 1, 2, 3, 4]
        result.close()
        assert not result.truncated
        assert len(result) == 5
