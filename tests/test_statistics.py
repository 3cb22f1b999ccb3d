"""Tests: meta-data statistics and the selectivity-based optimizer."""

import pytest

from repro import Prima
from repro.data.statistics import AttributeStatistics
from repro.workloads import brep


@pytest.fixture
def db() -> Prima:
    database = Prima()
    database.execute("CREATE ATOM_TYPE part (part_id: IDENTIFIER, "
                     "x: INTEGER, tag: CHAR_VAR)")
    database.query("SELECT ALL FROM part")
    for value in range(100):
        database.insert_atom("part", {"x": value, "tag": f"t{value % 4}"})
    return database


class TestCollection:
    def test_analyze_counts_atoms(self, db):
        assert db.analyze("part") == 100
        stats = db.data.statistics.type_statistics("part")
        assert stats.cardinality == 100

    def test_attribute_distribution(self, db):
        db.analyze("part")
        stats = db.data.statistics.type_statistics("part")
        x = stats.attributes["x"]
        assert (x.minimum, x.maximum) == (0, 99)
        assert x.distinct == 100
        tag = stats.attributes["tag"]
        assert tag.distinct == 4

    def test_nulls_counted(self, db):
        db.insert_atom("part", {"x": None, "tag": None})
        db.analyze("part")
        stats = db.data.statistics.type_statistics("part")
        assert stats.attributes["x"].nulls == 1

    def test_analyze_all_types(self):
        handles = brep.generate(Prima(), n_solids=2)
        examined = handles.db.analyze()
        counts = handles.counts()
        assert examined == sum(counts.values())

    def test_fanout_measured(self):
        handles = brep.generate(Prima(), n_solids=2)
        handles.db.analyze()
        stats = handles.db.data.statistics.type_statistics("brep")
        assert stats.fanout["faces"] == 6.0
        assert stats.fanout["edges"] == 12.0
        face_stats = handles.db.data.statistics.type_statistics("face")
        assert face_stats.fanout["border"] == 4.0


class TestSelectivityEstimates:
    def test_equality_uses_distinct(self):
        column = AttributeStatistics(count=100, distinct=4)
        assert column.selectivity("=", "t1") == 0.25
        assert column.selectivity("!=", "t1") == 0.75

    def test_range_interpolates(self):
        column = AttributeStatistics(count=100, minimum=0, maximum=100,
                                     distinct=100)
        assert column.selectivity("<", 25) == pytest.approx(0.25)
        assert column.selectivity(">", 25) == pytest.approx(0.75)
        assert column.selectivity("<", 200) == 1.0

    def test_non_numeric_default(self):
        column = AttributeStatistics(count=10, minimum="a", maximum="z",
                                     distinct=10)
        assert column.selectivity("<", "m") == pytest.approx(1 / 3)

    def test_empty_type(self):
        assert AttributeStatistics().selectivity("=", 1) == 0.0


class TestOptimizerIntegration:
    def test_selective_predicate_keeps_access_path(self, db):
        db.execute_ldl("CREATE ACCESS PATH px ON part (x)")
        db.analyze("part")
        plan = db.explain("SELECT ALL FROM part WHERE x < 5")
        assert "ACCESS PATH SCAN px" in plan

    def test_unselective_predicate_vetoed_to_scan(self, db):
        db.execute_ldl("CREATE ACCESS PATH px ON part (x)")
        db.analyze("part")
        plan = db.explain("SELECT ALL FROM part WHERE x < 90")
        assert "ATOM TYPE SCAN part" in plan

    def test_without_statistics_path_always_used(self, db):
        db.execute_ldl("CREATE ACCESS PATH px ON part (x)")
        plan = db.explain("SELECT ALL FROM part WHERE x < 90")
        assert "ACCESS PATH SCAN px" in plan

    def test_results_identical_either_way(self, db):
        db.execute_ldl("CREATE ACCESS PATH px ON part (x)")
        before = {m.atom["x"] for m in
                  db.query("SELECT ALL FROM part WHERE x < 90")}
        db.analyze("part")
        after = {m.atom["x"] for m in
                 db.query("SELECT ALL FROM part WHERE x < 90")}
        assert before == after and len(after) == 90

    def test_threshold_configurable(self, db):
        db.execute_ldl("CREATE ACCESS PATH px ON part (x)")
        db.analyze("part")
        db.data.scan_threshold = 0.99
        plan = db.explain("SELECT ALL FROM part WHERE x < 90")
        assert "ACCESS PATH SCAN px" in plan


class TestMostCommonValues:
    @pytest.fixture
    def skewed(self) -> Prima:
        database = Prima()
        database.execute("CREATE ATOM_TYPE part (part_id: IDENTIFIER, "
                         "x: INTEGER, tag: CHAR_VAR)")
        # 80 rows of one dominant tag + 20 distinct singletons.
        for value in range(80):
            database.insert_atom("part", {"x": value, "tag": "hot"})
        for value in range(20):
            database.insert_atom("part", {"x": 80 + value,
                                          "tag": f"rare{value}"})
        return database

    def test_mcvs_collected_for_skewed_column(self, skewed):
        skewed.analyze("part")
        stats = skewed.data.statistics.type_statistics("part")
        tag = stats.attributes["tag"]
        assert tag.most_common == {"'hot'": 80}
        assert tag.distinct == 21

    def test_uniform_column_keeps_no_mcvs(self, db):
        db.analyze("part")
        stats = db.data.statistics.type_statistics("part")
        assert stats.attributes["x"].most_common == {}
        # ... so equality stays at the classic 1/distinct.
        assert stats.attributes["x"].selectivity("=", 7) == \
            pytest.approx(1 / 100)

    def test_equality_is_value_aware(self, skewed):
        skewed.analyze("part")
        stats = skewed.data.statistics.type_statistics("part")
        tag = stats.attributes["tag"]
        assert tag.selectivity("=", "hot") == pytest.approx(0.80)
        # A non-MCV probe gets the residual mass spread over the
        # residual distinct values: 20 rows / 100 / 20 values.
        assert tag.selectivity("=", "rare3") == pytest.approx(0.01)
        assert tag.selectivity("!=", "hot") == pytest.approx(0.20)

    def test_bind_time_reveto_flips_on_equality(self, skewed):
        """The PR-10 satellite gate: a prepared equality probe on a
        dominant value demotes to the scan at bind time."""
        skewed.execute_ldl("CREATE ACCESS PATH ptag ON part (tag)")
        skewed.analyze("part")
        stmt = skewed.prepare("SELECT ALL FROM part WHERE tag = ?")
        before = skewed.access.counters.snapshot()
        hot = stmt.execute("hot")
        after = skewed.access.counters.snapshot()
        assert len(hot) == 80
        assert after.get("plans_revetoed", 0) == \
            before.get("plans_revetoed", 0) + 1
        # A rare value keeps the access path (no veto).
        rare = stmt.execute("rare3")
        final = skewed.access.counters.snapshot()
        assert len(rare) == 1
        assert final.get("plans_revetoed", 0) == \
            after.get("plans_revetoed", 0)
