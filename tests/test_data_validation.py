"""Unit tests: query validation, structure resolution, simplification."""

import pytest

from repro.data.simplification import conjuncts, sargable_root_terms, simplify
from repro.data.validation import Validator
from repro.errors import ValidationError
from repro.mad.molecule import MoleculeType, MoleculeTypeCatalog
from repro.mql.ast import (
    And,
    Comparison,
    Literal,
    Not,
    Or,
    Path,
    Quantified,
)
from repro.mql.parser import parse


@pytest.fixture
def brep_validator(brep_db):
    data = brep_db.db.data
    return data.validator, data


class TestStructureResolution:
    def test_linear_chain(self, brep_validator):
        validator, _data = brep_validator
        statement = parse("SELECT ALL FROM brep-face-edge-point")
        structure = validator.resolve_structure(statement.from_clause)
        assert structure.labels() == ["brep", "face", "edge", "point"]
        assert structure.children[0].via.source_attr == "faces"

    def test_branching(self, brep_validator):
        validator, _data = brep_validator
        statement = parse("SELECT ALL FROM brep-edge (face, point)")
        structure = validator.resolve_structure(statement.from_clause)
        edge = structure.children[0]
        assert {child.label for child in edge.children} == {"face", "point"}

    def test_duplicate_types_get_numbered_labels(self, brep_validator):
        validator, _data = brep_validator
        statement = parse("SELECT ALL FROM edge (point, face-point)")
        structure = validator.resolve_structure(statement.from_clause)
        labels = structure.labels()
        assert "point" in labels and "point_2" in labels

    def test_molecule_type_resolution_keeps_name_as_root_label(
            self, brep_validator):
        validator, _data = brep_validator
        statement = parse("SELECT ALL FROM piece_list")
        structure = validator.resolve_structure(statement.from_clause)
        assert structure.label == "piece_list"
        assert structure.atom_type == "solid"
        assert structure.children[0].recursive

    def test_molecule_type_grafted_inline(self, brep_validator):
        validator, _data = brep_validator
        statement = parse("SELECT ALL FROM brep-face_obj")
        structure = validator.resolve_structure(statement.from_clause)
        assert structure.atom_type == "brep"
        assert structure.children[0].atom_type == "face"
        assert structure.children[0].children[0].atom_type == "edge"

    def test_unknown_name_rejected(self, brep_validator):
        validator, _data = brep_validator
        statement = parse("SELECT ALL FROM nonsense")
        with pytest.raises(ValidationError):
            validator.resolve_structure(statement.from_clause)

    def test_no_association_rejected(self, brep_validator):
        validator, _data = brep_validator
        statement = parse("SELECT ALL FROM solid-point")
        with pytest.raises(ValidationError):
            validator.resolve_structure(statement.from_clause)

    def test_ambiguous_association_needs_attr(self, brep_validator):
        validator, _data = brep_validator
        # solid-solid is ambiguous (sub and super)
        statement = parse("SELECT ALL FROM solid-solid")
        with pytest.raises(ValidationError) as err:
            validator.resolve_structure(statement.from_clause)
        assert "sub" in str(err.value) and "super" in str(err.value)

    def test_explicit_attr_resolves_ambiguity(self, brep_validator):
        validator, _data = brep_validator
        statement = parse("SELECT ALL FROM solid.super-solid")
        structure = validator.resolve_structure(statement.from_clause)
        assert structure.children[0].via.source_attr == "super"

    def test_wrong_attr_target_rejected(self, brep_validator):
        validator, _data = brep_validator
        statement = parse("SELECT ALL FROM brep.faces-point")
        with pytest.raises(ValidationError):
            validator.resolve_structure(statement.from_clause)

    def test_recursion_must_be_self_association(self, brep_validator):
        validator, _data = brep_validator
        statement = parse("SELECT ALL FROM brep-face (RECURSIVE)")
        with pytest.raises(ValidationError):
            validator.resolve_structure(statement.from_clause)

    def test_root_recursion_rejected(self, brep_validator):
        validator, _data = brep_validator
        from repro.mql.ast import FromNode
        with pytest.raises(ValidationError):
            validator.resolve_structure(FromNode("solid", recursive=True))


class TestPathValidation:
    def _check(self, validator, text):
        statement = parse(text)
        structure = validator.resolve_structure(statement.from_clause)
        validator.check_select(statement, structure)
        return structure

    def test_valid_paths_pass(self, brep_validator):
        validator, _data = brep_validator
        self._check(validator, "SELECT face.square_dim, edge "
                               "FROM brep-face-edge WHERE brep_no = 1")

    def test_unknown_attr_rejected(self, brep_validator):
        validator, _data = brep_validator
        with pytest.raises(ValidationError):
            self._check(validator,
                        "SELECT ALL FROM brep WHERE nonsense = 1")

    def test_unknown_label_in_quantifier(self, brep_validator):
        validator, _data = brep_validator
        with pytest.raises(ValidationError):
            self._check(validator, "SELECT ALL FROM brep-face "
                                   "WHERE EXISTS edge: edge.length > 1")

    def test_label_only_projection_ok_but_not_in_where(self, brep_validator):
        validator, _data = brep_validator
        self._check(validator, "SELECT face FROM brep-face")
        with pytest.raises(ValidationError):
            self._check(validator, "SELECT ALL FROM brep-face WHERE face = 1")

    def test_qualified_projection_checked(self, brep_validator):
        validator, _data = brep_validator
        self._check(validator,
                    "SELECT face := SELECT square_dim FROM face "
                    "WHERE square_dim > 1.0 FROM brep-face")
        with pytest.raises(ValidationError):
            self._check(validator,
                        "SELECT face := SELECT nonsense FROM face "
                        "FROM brep-face")

    def test_empty_projection_rejected(self, brep_validator):
        validator, _data = brep_validator
        from repro.mql.ast import Projection, SelectStatement
        statement = parse("SELECT ALL FROM brep")
        structure = validator.resolve_structure(statement.from_clause)
        bad = SelectStatement(Projection(select_all=False, items=[]),
                              statement.from_clause, None)
        with pytest.raises(ValidationError):
            validator.check_select(bad, structure)


class TestCatalog:
    def test_define_and_drop(self):
        from repro.mad.molecule import StructureNode
        catalog = MoleculeTypeCatalog()
        catalog.define(MoleculeType("m", StructureNode("a", "a")))
        assert catalog.get("m") is not None
        with pytest.raises(ValidationError):
            catalog.define(MoleculeType("m", StructureNode("a", "a")))
        catalog.drop("m")
        assert catalog.get("m") is None
        with pytest.raises(ValidationError):
            catalog.drop("m")


class TestSimplification:
    def test_not_pushed_inward(self):
        expr = Not(Or([Comparison("=", Path(("x",)), Literal(1)),
                       Comparison("<", Path(("y",)), Literal(2))]))
        out = simplify(expr)
        assert isinstance(out, And)
        assert out.parts[0].op == "!="
        assert out.parts[1].op == ">="

    def test_double_negation(self):
        expr = Not(Not(Comparison("=", Path(("x",)), Literal(1))))
        out = simplify(expr)
        assert isinstance(out, Comparison) and out.op == "="

    def test_nested_and_flattened(self):
        inner = And([Comparison("=", Path(("x",)), Literal(1)),
                     Comparison("=", Path(("y",)), Literal(2))])
        expr = And([inner, Comparison("=", Path(("z",)), Literal(3))])
        out = simplify(expr)
        assert len(out.parts) == 3

    def test_constant_folding(self):
        expr = Comparison("<", Literal(1), Literal(2))
        out = simplify(expr)
        assert isinstance(out, Literal) and out.value is True

    def test_true_conjunct_removed(self):
        expr = And([Comparison("<", Literal(1), Literal(2)),
                    Comparison("=", Path(("x",)), Literal(1))])
        out = simplify(expr)
        assert isinstance(out, Comparison)

    def test_quantifier_condition_simplified(self):
        expr = Quantified("exists", None, "edge",
                          Not(Not(Comparison("=", Path(("x",)), Literal(1)))))
        out = simplify(expr)
        assert isinstance(out.condition, Comparison)

    def test_none_passthrough(self):
        assert simplify(None) is None

    def test_conjuncts(self):
        expr = simplify(And([Comparison("=", Path(("x",)), Literal(1)),
                             Comparison("=", Path(("y",)), Literal(2))]))
        assert len(conjuncts(expr)) == 2
        assert conjuncts(None) == []


class TestSargableTerms:
    def test_bare_and_labelled_root_attrs(self):
        expr = simplify(And([
            Comparison("=", Path(("brep_no",)), Literal(1713)),
            Comparison("<", Path(("brep", "brep_no")), Literal(99)),
            Comparison(">", Path(("face", "square_dim")), Literal(1.0)),
        ]))
        terms = sargable_root_terms(expr, "brep", {"brep_no", "hull"})
        assert ("brep_no", "=", 1713) in terms
        assert ("brep_no", "<", 99) in terms
        assert len(terms) == 2

    def test_reversed_comparison_normalised(self):
        expr = Comparison("<", Literal(5), Path(("brep_no",)))
        terms = sargable_root_terms(expr, "brep", {"brep_no"})
        assert terms == [("brep_no", ">", 5)]

    def test_or_not_sargable(self):
        expr = Or([Comparison("=", Path(("brep_no",)), Literal(1)),
                   Comparison("=", Path(("brep_no",)), Literal(2))])
        assert sargable_root_terms(expr, "brep", {"brep_no"}) == []

    def test_level_zero_counts_as_root(self):
        expr = Comparison("=", Path(("piece_list", "solid_no"), level=0),
                          Literal(4711))
        terms = sargable_root_terms(expr, "piece_list", {"solid_no"})
        assert terms == [("solid_no", "=", 4711)]

    def test_deeper_level_not_sargable(self):
        expr = Comparison("=", Path(("piece_list", "solid_no"), level=2),
                          Literal(4711))
        assert sargable_root_terms(expr, "piece_list", {"solid_no"}) == []
