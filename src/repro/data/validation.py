"""Query validation and modification (paper, 3.1).

Checks the initial query for syntactic and semantic correctness, performs
the resolution of predefined molecule types, and resolves a meshed molecule
type into an equivalent hierarchical one which is easier to cope with.  The
output is the validated :class:`~repro.mad.molecule.StructureNode` tree the
planner works on.

Resolution rules:

* A FROM root naming a defined molecule type is replaced by that type's
  structure (Table 2.1b uses the predefined ``piece_list``).
* Every edge needs an association between parent and child atom types;
  when more than one exists the reference attribute must be named
  explicitly (``solid.sub-solid``), otherwise validation fails listing the
  candidates — this is the paper's "in case of ambiguity the reference
  attribute has to be denoted".
* Node labels default to the atom type name; duplicate types in one
  structure get numbered labels (``face``, ``face_2``) so paths stay
  unambiguous.  This numbering is the hierarchical resolution of meshed
  structures: an atom type reachable over two paths becomes two structure
  nodes.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.mad.molecule import MoleculeTypeCatalog, StructureNode
from repro.mad.schema import Schema
from repro.mql.ast import (
    And,
    Comparison,
    Expr,
    FromNode,
    Not,
    Or,
    Path,
    Projection,
    Quantified,
    SelectStatement,
)


class Validator:
    """Resolves FROM clauses and checks paths against the structure."""

    def __init__(self, schema: Schema, catalog: MoleculeTypeCatalog) -> None:
        self._schema = schema
        self._catalog = catalog

    # -- structure resolution ---------------------------------------------------

    def resolve_structure(self, from_node: FromNode) -> StructureNode:
        """FROM clause -> validated, labelled StructureNode tree."""
        # Predefined molecule type at the root (no children allowed there).
        molecule_type = self._catalog.get(from_node.name)
        if molecule_type is not None:
            if from_node.children or from_node.via_attr:
                raise ValidationError(
                    f"{from_node.name!r} names a molecule type; it cannot "
                    f"be extended inline"
                )
            return _relabel_copy(molecule_type.root, _LabelAllocator(),
                                 rename_root=from_node.name)
        labels = _LabelAllocator()
        return self._resolve_node(from_node, parent=None, labels=labels)

    def _resolve_node(self, node: FromNode, parent: StructureNode | None,
                      labels: "_LabelAllocator") -> StructureNode:
        # An inner node may also name a predefined molecule type: graft it.
        molecule_type = self._catalog.get(node.name)
        if molecule_type is not None and parent is not None:
            grafted = _relabel_copy(molecule_type.root, labels)
            grafted.via = self._edge_association(
                parent, grafted.atom_type, node.via_attr
            )
            grafted.recursive = grafted.recursive or node.recursive
            for child in node.children:
                grafted.add_child(self._resolve_node(child, grafted, labels))
            return grafted

        if not self._schema.has_atom_type(node.name):
            known_mt = ", ".join(self._catalog.names()) or "none"
            raise ValidationError(
                f"{node.name!r} is neither an atom type nor a defined "
                f"molecule type (molecule types: {known_mt})"
            )
        resolved = StructureNode(
            atom_type=node.name,
            label=labels.allocate(node.name),
            recursive=node.recursive,
        )
        if parent is not None:
            resolved.via = self._edge_association(parent, node.name,
                                                  node.via_attr)
        elif node.recursive:
            raise ValidationError("the FROM root cannot be recursive")
        if node.recursive:
            if resolved.via is None or \
                    resolved.via.source_type != resolved.atom_type or \
                    resolved.via.target_type != resolved.atom_type:
                # recursion re-applies the incoming association; both ends
                # must be the same atom type (solid.sub -> solid).
                raise ValidationError(
                    f"recursive node {node.name!r} needs an association "
                    f"from {node.name!r} to itself"
                )
        for child in node.children:
            resolved.add_child(self._resolve_node(child, resolved, labels))
        return resolved

    def _edge_association(self, parent: StructureNode, child_type: str,
                          via_attr: str | None):
        if not self._schema.has_atom_type(child_type):
            raise ValidationError(f"unknown atom type {child_type!r}")
        if via_attr is not None:
            assoc = self._schema.association(parent.atom_type, via_attr)
            if assoc.target_type != child_type:
                raise ValidationError(
                    f"{parent.atom_type}.{via_attr} references "
                    f"{assoc.target_type!r}, not {child_type!r}"
                )
            return assoc
        candidates = self._schema.associations_between(parent.atom_type,
                                                       child_type)
        if not candidates:
            raise ValidationError(
                f"no association from {parent.atom_type!r} to "
                f"{child_type!r}; the molecule structure must follow "
                f"declared associations"
            )
        if len(candidates) > 1:
            attrs = ", ".join(a.source_attr for a in candidates)
            raise ValidationError(
                f"ambiguous association from {parent.atom_type!r} to "
                f"{child_type!r}: denote the reference attribute "
                f"({parent.atom_type}.{attrs})"
            )
        return candidates[0]

    # -- path validation ---------------------------------------------------------------

    def check_select(self, statement: SelectStatement,
                     structure: StructureNode) -> None:
        """Validate every path in projection and qualification."""
        self._check_projection(statement.projection, structure)
        if statement.where is not None:
            self._check_expr(statement.where, structure)

    def _check_projection(self, projection: Projection,
                          structure: StructureNode) -> None:
        if projection.select_all:
            return
        if not projection.items:
            raise ValidationError("empty projection list")
        for item in projection.items:
            if item.subquery is not None:
                label = item.label
                assert label is not None
                node = structure.find(label)
                if node is None:
                    raise ValidationError(
                        f"qualified projection on unknown label {label!r}"
                    )
                if item.subquery.from_clause.name not in (node.atom_type,
                                                          label):
                    raise ValidationError(
                        f"qualified projection of {label!r} must select "
                        f"FROM {node.atom_type!r}"
                    )
                for sub_item in item.subquery.projection.items:
                    if sub_item.subquery is not None:
                        raise ValidationError(
                            "nested qualified projections are not supported"
                        )
                    self._check_attr_of(node, sub_item.path)
                if item.subquery.where is not None:
                    self._check_expr_against_node(item.subquery.where, node)
                continue
            assert item.path is not None
            self.resolve_path(item.path, structure, allow_label_only=True)

    def _check_expr(self, expr: Expr, structure: StructureNode) -> None:
        if isinstance(expr, (And, Or)):
            for part in expr.parts:
                self._check_expr(part, structure)
        elif isinstance(expr, Not):
            self._check_expr(expr.inner, structure)
        elif isinstance(expr, Comparison):
            for side in (expr.left, expr.right):
                if isinstance(side, Path):
                    self.resolve_path(side, structure,
                                      allow_label_only=False)
        elif isinstance(expr, Quantified):
            node = structure.find(expr.label)
            if node is None:
                raise ValidationError(
                    f"quantifier over unknown label {expr.label!r}"
                )
            self._check_expr(expr.condition, structure)

    def _check_expr_against_node(self, expr: Expr,
                                 node: StructureNode) -> None:
        if isinstance(expr, (And, Or)):
            for part in expr.parts:
                self._check_expr_against_node(part, node)
        elif isinstance(expr, Not):
            self._check_expr_against_node(expr.inner, node)
        elif isinstance(expr, Comparison):
            for side in (expr.left, expr.right):
                if isinstance(side, Path):
                    self._check_attr_of(node, side)
        elif isinstance(expr, Quantified):
            raise ValidationError(
                "quantifiers are not allowed inside qualified projections"
            )

    def _check_attr_of(self, node: StructureNode, path: Path | None) -> None:
        if path is None:
            raise ValidationError("missing attribute path")
        attr = path.parts[-1] if len(path.parts) > 1 else path.parts[0]
        atom_type = self._schema.atom_type(node.atom_type)
        if attr not in atom_type.attributes:
            raise ValidationError(
                f"atom type {node.atom_type!r} has no attribute {attr!r}"
            )

    def resolve_path(self, path: Path, structure: StructureNode,
                     allow_label_only: bool) -> tuple[str, str | None]:
        """Resolve an attribute path against a structure (public: the
        projection operator and external tooling use it too).

        Returns (label, attr-or-None); raises on unknown names.

        Bare names resolve as: a structure label (whole subtree, when
        allowed), else an attribute of the root atom type.
        """
        first = path.parts[0]
        node = structure.find(first)
        if node is not None:
            if len(path.parts) == 1:
                if not allow_label_only:
                    raise ValidationError(
                        f"{first!r} names a structure component, not a value"
                    )
                return first, None
            attr = path.parts[1]
            atom_type = self._schema.atom_type(node.atom_type)
            if attr not in atom_type.attributes:
                raise ValidationError(
                    f"atom type {node.atom_type!r} has no attribute {attr!r}"
                )
            return first, attr
        # Bare attribute of the root.
        root_type = self._schema.atom_type(structure.atom_type)
        if first in root_type.attributes:
            return structure.label, first
        raise ValidationError(
            f"{first!r} is neither a component label nor an attribute of "
            f"{structure.atom_type!r}"
        )


class _LabelAllocator:
    """Hands out unique labels: type, type_2, type_3, ..."""

    def __init__(self) -> None:
        self._used: dict[str, int] = {}

    def allocate(self, base: str) -> str:
        count = self._used.get(base, 0) + 1
        self._used[base] = count
        return base if count == 1 else f"{base}_{count}"


def _relabel_copy(node: StructureNode, labels: _LabelAllocator,
                  rename_root: str | None = None) -> StructureNode:
    """Deep-copy a molecule type's structure with fresh labels.

    ``rename_root`` keeps the molecule type's *name* as the root label so
    seed qualifications like ``piece_list (0).solid_no`` resolve.
    """
    label = rename_root if rename_root is not None \
        else labels.allocate(node.atom_type)
    copy = StructureNode(
        atom_type=node.atom_type,
        label=label,
        via=node.via,
        recursive=node.recursive,
    )
    for child in node.children:
        copy.add_child(_relabel_copy(child, labels))
    return copy
