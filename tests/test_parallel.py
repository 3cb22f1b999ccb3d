"""Unit tests: semantic decomposition and the simulated scheduler."""

import pytest

from repro import Prima
from repro.errors import DecompositionError
from repro.parallel import (
    SemanticDecomposer,
    UnitOfWork,
    build_conflict_edges,
    parallel_select,
    simulate,
)
from repro.mad.types import Surrogate
from repro.workloads import brep


def _unit(index, cost, reads=(), writes=()):
    unit = UnitOfWork(index=index, root=Surrogate("t", index))
    unit.cost = cost
    unit.read_set = {Surrogate("t", n) for n in reads}
    unit.write_set = {Surrogate("t", n) for n in writes}
    return unit


class TestConflicts:
    def test_read_read_never_conflicts(self):
        a = _unit(0, 1, reads=(1, 2))
        b = _unit(1, 1, reads=(2, 3))
        assert not a.conflicts_with(b)
        assert build_conflict_edges([a, b]) == []

    def test_write_write_conflicts(self):
        a = _unit(0, 1, writes=(5,))
        b = _unit(1, 1, writes=(5,))
        assert a.conflicts_with(b)
        assert build_conflict_edges([a, b]) == [(0, 1)]

    def test_read_write_conflicts(self):
        a = _unit(0, 1, reads=(5,))
        b = _unit(1, 1, writes=(5,))
        assert a.conflicts_with(b) and b.conflicts_with(a)

    def test_disjoint_writes_ok(self):
        a = _unit(0, 1, writes=(1,))
        b = _unit(1, 1, writes=(2,))
        assert build_conflict_edges([a, b]) == []


class TestScheduler:
    def test_single_processor_equals_serial(self):
        units = [_unit(i, 10) for i in range(5)]
        report = simulate(units, processors=1)
        assert report.makespan == report.serial_time == 50
        assert report.speedup == 1.0

    def test_perfect_parallelism(self):
        units = [_unit(i, 10) for i in range(8)]
        report = simulate(units, processors=4)
        assert report.makespan == 20
        assert report.speedup == 4.0
        assert report.efficiency == 1.0

    def test_uneven_costs(self):
        units = [_unit(0, 30), _unit(1, 10), _unit(2, 10), _unit(3, 10)]
        report = simulate(units, processors=2)
        assert report.makespan == 30   # the long unit dominates

    def test_conflicts_serialise(self):
        units = [_unit(i, 10, writes=(7,)) for i in range(4)]
        report = simulate(units, processors=4)
        assert report.makespan == 40   # fully serialised
        assert report.conflict_edges == 6

    def test_conflict_order_preserved(self):
        units = [_unit(0, 10, writes=(7,)), _unit(1, 1, writes=(7,))]
        report = simulate(units, processors=2)
        first = next(s for s in report.schedule if s.unit_index == 0)
        second = next(s for s in report.schedule if s.unit_index == 1)
        assert second.start >= first.finish

    def test_processor_count_validated(self):
        with pytest.raises(DecompositionError):
            simulate([], processors=0)

    def test_empty_units(self):
        report = simulate([], processors=4)
        assert report.makespan == 0.0

    def test_explain_text(self):
        report = simulate([_unit(0, 5)], processors=2)
        assert "speedup" in report.explain()


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def handles(self):
        return brep.generate(Prima(), n_solids=6)

    def test_results_equal_serial_execution(self, handles):
        db = handles.db
        query = "SELECT ALL FROM brep-face-edge-point"
        outcome = parallel_select(db, query, processors=4)
        serial = db.query(query)
        assert [m.to_dict() for m in outcome.result] == \
            [m.to_dict() for m in serial]

    def test_retrieval_units_conflict_free(self, handles):
        decomposer = SemanticDecomposer(handles.db.data)
        plan, units = decomposer.decompose_select(
            "SELECT ALL FROM brep-face-edge-point")
        decomposer.run_all(plan, units)
        assert build_conflict_edges(units) == []
        assert all(unit.cost >= 1 for unit in units)
        assert all(unit.read_set for unit in units)
        assert all(unit.result is not None for unit in units)

    def test_literal_variant_handle(self, handles):
        """The second literal variant of a shape prepares as a handle
        over the shared template; parallel_select takes it like any
        other prepared statement."""
        db = handles.db
        db.prepare("SELECT ALL FROM brep WHERE brep_no = 1713")
        query = "SELECT ALL FROM brep WHERE brep_no = 1714"
        outcome = parallel_select(db, db.prepare(query), processors=2)
        assert [m.to_dict() for m in outcome.result] == \
            [m.to_dict() for m in db.query(query)]
        assert len(outcome.result) == 1

    def test_order_and_window_equal_serial(self, handles):
        db = handles.db
        query = ("SELECT ALL FROM brep ORDER BY brep_no DESC "
                 "LIMIT 3 OFFSET 1")
        outcome = parallel_select(db, query, processors=4)
        assert [m.to_dict() for m in outcome.result] == \
            [m.to_dict() for m in db.query(query)]

    def test_unordered_limit_derives_only_the_window(self, handles):
        """Without ORDER BY the scan order is the result order: LIMIT 2
        creates two DUs and reads exactly the atoms the serial pipeline
        reads."""
        db = handles.db
        query = "SELECT ALL FROM brep-face-edge-point LIMIT 2"
        db.reset_accounting()
        serial = db.query(query).materialize()
        serial_reads = db.io_report()["atoms_read"]
        db.reset_accounting()
        outcome = parallel_select(db, query, processors=4)
        assert outcome.report.unit_count == 2
        assert db.io_report()["atoms_read"] == serial_reads
        assert [m.to_dict() for m in outcome.result] == \
            [m.to_dict() for m in serial]

    def test_unordered_limit_with_root_only_residual(self, handles):
        db = handles.db
        query = ("SELECT ALL FROM brep-face WHERE brep_no > 1713 "
                 "OR brep_no < 0 LIMIT 2 OFFSET 1")
        outcome = parallel_select(db, query, processors=2)
        assert outcome.report.unit_count == 3
        assert [m.to_dict() for m in outcome.result] == \
            [m.to_dict() for m in db.query(query)]

    def test_limit_zero_derives_no_unit(self, handles):
        db = handles.db
        db.reset_accounting()
        outcome = parallel_select(
            db, "SELECT ALL FROM brep-face-edge-point LIMIT 0")
        assert outcome.report.unit_count == 0
        assert len(outcome.result) == 0
        assert db.io_report().get("atoms_read", 0) == 0

    def test_speedup_grows_with_processors(self, handles):
        db = handles.db
        query = "SELECT ALL FROM brep-face-edge-point"
        speedups = [
            parallel_select(db, query, processors=p).report.speedup
            for p in (1, 2, 4)
        ]
        assert speedups[0] == pytest.approx(1.0)
        assert speedups[0] < speedups[1] < speedups[2]

    def test_sargable_root_predicate_shrinks_unit_count(self, handles):
        db = handles.db
        outcome = parallel_select(
            db, "SELECT ALL FROM brep-face WHERE brep_no = 1713",
            processors=2)
        assert len(outcome.result) == 1
        # the key lookup already selected the single root: one DU only
        assert outcome.report.unit_count == 1

    def test_residual_qualification_inside_units(self, handles):
        db = handles.db
        outcome = parallel_select(
            db, "SELECT ALL FROM brep-face WHERE "
                "EXISTS_AT_LEAST (6) face: face.square_dim > 0.0",
            processors=2)
        # non-sargable qualification: every root becomes a DU, the
        # qualification is evaluated inside the unit
        assert outcome.report.unit_count == len(handles.breps)
        assert len(outcome.result) == len(handles.breps)

    def test_dml_rejected(self, handles):
        decomposer = SemanticDecomposer(handles.db.data)
        with pytest.raises(DecompositionError):
            decomposer.decompose_select("INSERT solid (solid_no = 1)")


class TestDmlDecomposition:
    @pytest.fixture
    def handles(self):
        return brep.generate(Prima(), n_solids=4)

    def test_modify_units_carry_write_sets(self, handles):
        decomposer = SemanticDecomposer(handles.db.data)
        context, units = decomposer.decompose_modify(
            "MODIFY face SET square_dim = 3.0 FROM brep-face")
        for unit in units:
            decomposer.execute_modify_unit(context, unit)
        assert len(units) == len(handles.breps)
        assert all(len(unit.write_set) == 6 for unit in units)
        result = handles.db.query("SELECT ALL FROM face")
        assert all(m.atom["square_dim"] == 3.0 for m in result)

    def test_shared_atoms_create_conflicts(self, handles):
        """Edges are shared by two faces of the same brep — but across
        breps nothing is shared: conflicts appear exactly where molecules
        overlap."""
        decomposer = SemanticDecomposer(handles.db.data)
        context, units = decomposer.decompose_modify(
            "MODIFY edge SET length = 1.0 FROM face-edge")
        for unit in units:
            decomposer.execute_modify_unit(context, unit)
        edges = build_conflict_edges(units)
        assert edges            # faces of one box share edges
        # all conflicts stay within one brep's face group (6 faces/box)
        for i, j in edges:
            assert units[i].root.atom_type == "face"
            shared = units[i].write_set & units[j].write_set
            assert shared
        report = simulate(units, processors=8)
        assert 1.0 <= report.speedup < 8.0   # partial parallelism

    def test_disjoint_modify_fully_parallel(self, handles):
        decomposer = SemanticDecomposer(handles.db.data)
        context, units = decomposer.decompose_modify(
            "MODIFY brep SET hull = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0] "
            "FROM brep")
        for unit in units:
            decomposer.execute_modify_unit(context, unit)
        assert build_conflict_edges(units) == []

    def test_qualification_respected(self, handles):
        decomposer = SemanticDecomposer(handles.db.data)
        context, units = decomposer.decompose_modify(
            "MODIFY face SET square_dim = 9.0 FROM brep-face "
            "WHERE brep_no = 1713")
        for unit in units:
            decomposer.execute_modify_unit(context, unit)
        changed = handles.db.query(
            "SELECT ALL FROM face WHERE square_dim = 9.0")
        assert len(changed) == 6

    def test_results_equal_serial_modify(self):
        serial = brep.generate(Prima(), n_solids=3)
        parallel = brep.generate(Prima(), n_solids=3)
        serial.db.execute("MODIFY edge SET length = 2.5 FROM face-edge")
        decomposer = SemanticDecomposer(parallel.db.data)
        context, units = decomposer.decompose_modify(
            "MODIFY edge SET length = 2.5 FROM face-edge")
        for unit in units:
            decomposer.execute_modify_unit(context, unit)
        a = sorted(repr(m.to_dict())
                   for m in serial.db.query("SELECT ALL FROM edge"))
        b = sorted(repr(m.to_dict())
                   for m in parallel.db.query("SELECT ALL FROM edge"))
        assert a == b

    def test_select_statement_rejected(self, handles):
        decomposer = SemanticDecomposer(handles.db.data)
        with pytest.raises(DecompositionError):
            decomposer.decompose_modify("SELECT ALL FROM brep")
