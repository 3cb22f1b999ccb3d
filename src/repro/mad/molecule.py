"""Molecule types and molecule occurrences (paper, 2.2).

A *molecule type* determines both the molecule structure — a hierarchy of
atom types connected by associations — and the corresponding molecule set.
Molecule types are defined dynamically in queries (the FROM clause) or
pre-defined and named with DEFINE MOLECULE TYPE; either way the data system
resolves the structure to the tree form represented here ("resolution of a
meshed molecule type into an equivalent hierarchical one", paper 3.1).

A *molecule occurrence* (shortly: molecule) is a root atom plus, for every
structure edge, the list of component molecules reached over the edge's
association.  Because n:m associations are allowed, the same atom may occur
in many molecules — molecules may overlap (non-disjoint complex objects).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import SchemaError, ValidationError
from repro.mad.schema import Association
from repro.mad.types import Surrogate


@dataclass
class StructureNode:
    """One node of a molecule structure tree.

    ``label`` names the node in results and projections; it equals the atom
    type name unless the same type occurs more than once in the structure
    (then the validator disambiguates).  ``via`` is the association used to
    reach this node from its parent (None at the root).  A ``recursive``
    node re-applies its ``via`` association transitively, computing the
    least fixpoint from the seed atoms (e.g. piece_list, Fig. 2.3c).
    """

    atom_type: str
    label: str
    via: Association | None = None
    children: list["StructureNode"] = field(default_factory=list)
    recursive: bool = False

    def add_child(self, child: "StructureNode") -> "StructureNode":
        if child.via is None:
            raise SchemaError(
                f"child node {child.label!r} needs an association"
            )
        self.children.append(child)
        return child

    def walk(self) -> Iterator["StructureNode"]:
        """This node and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def labels(self) -> list[str]:
        return [node.label for node in self.walk()]

    def atom_types(self) -> list[str]:
        """All atom types in the structure (with duplicates removed)."""
        seen: list[str] = []
        for node in self.walk():
            if node.atom_type not in seen:
                seen.append(node.atom_type)
        return seen

    def find(self, label: str) -> "StructureNode | None":
        for node in self.walk():
            if node.label == label:
                return node
        return None

    def __repr__(self) -> str:
        inner = ""
        if self.children:
            inner = "(" + ", ".join(repr(c) for c in self.children) + ")"
        rec = " (RECURSIVE)" if self.recursive else ""
        return f"{self.label}{inner}{rec}"


@dataclass
class MoleculeType:
    """A (possibly named) molecule type: the structure plus its name."""

    name: str
    root: StructureNode

    @property
    def recursive(self) -> bool:
        return any(node.recursive for node in self.root.walk())

    def __repr__(self) -> str:
        return f"MOLECULE TYPE {self.name} FROM {self.root!r}"


class MoleculeTypeCatalog:
    """Named (pre-defined) molecule types: DEFINE MOLECULE TYPE results."""

    def __init__(self) -> None:
        self._types: dict[str, MoleculeType] = {}
        #: Monotonic stamp bumped on DEFINE/DROP; part of the plan-cache
        #: version.
        self.version = 0

    def define(self, molecule_type: MoleculeType) -> None:
        if molecule_type.name in self._types:
            raise ValidationError(
                f"molecule type {molecule_type.name!r} already defined"
            )
        self._types[molecule_type.name] = molecule_type
        self.version = self.version + 1

    def drop(self, name: str) -> None:
        if name not in self._types:
            raise ValidationError(f"molecule type {name!r} is not defined")
        del self._types[name]
        self.version = self.version + 1

    def get(self, name: str) -> MoleculeType | None:
        return self._types.get(name)

    def names(self) -> list[str]:
        return sorted(self._types)


class Molecule:
    """One molecule occurrence: a root atom plus component molecules.

    ``atom`` is the attribute-value dict of the root atom (always including
    its IDENTIFIER).  ``components`` maps a child node label to the list of
    component molecules reached over that edge.  For recursive structures
    the recursion is unrolled into nesting: each level's components sit
    under the same label.
    """

    __slots__ = ("node", "atom", "components")

    def __init__(self, node: StructureNode, atom: dict[str, Any]) -> None:
        self.node = node
        self.atom = atom
        # A loop, not a comprehension: one Molecule per atom read, and a
        # comprehension is a function call of its own before Python 3.12.
        components: dict[str, list[Molecule]] = {}
        for child in node.children:
            components[child.label] = []
        if node.recursive:
            components.setdefault(node.label, [])
        self.components = components

    # -- identity ------------------------------------------------------------------

    @property
    def surrogate(self) -> Surrogate:
        """The root atom's surrogate (its IDENTIFIER value)."""
        for value in self.atom.values():
            if isinstance(value, Surrogate) and \
                    value.atom_type == self.node.atom_type:
                return value
        raise SchemaError("molecule root atom carries no surrogate")

    # -- content access -----------------------------------------------------------

    def add_component(self, label: str, component: "Molecule") -> None:
        self.components.setdefault(label, []).append(component)

    def component_list(self, label: str) -> list["Molecule"]:
        return self.components.get(label, [])

    def atoms(self) -> Iterator[tuple[str, dict[str, Any]]]:
        """All (label, atom) pairs in the molecule, pre-order, with
        duplicates when an atom is reachable over several paths."""
        yield self.node.label, self.atom
        for label, comps in self.components.items():
            for comp in comps:
                yield from comp.atoms()

    def atom_count(self) -> int:
        """Number of distinct atoms constituting the molecule."""
        seen: set[Surrogate] = set()

        def visit(molecule: "Molecule") -> None:
            seen.add(molecule.surrogate)
            for comps in molecule.components.values():
                for comp in comps:
                    visit(comp)

        visit(self)
        return len(seen)

    def depth(self) -> int:
        """Nesting depth (1 for a molecule without components)."""
        deepest = 0
        for comps in self.components.values():
            for comp in comps:
                deepest = max(deepest, comp.depth())
        return deepest + 1

    def to_dict(self) -> dict[str, Any]:
        """Plain-data rendering used by examples and tests."""
        out: dict[str, Any] = dict(self.atom)
        for label, comps in self.components.items():
            out[f"<{label}>"] = [comp.to_dict() for comp in comps]
        return out

    def map_atoms(self, fn: Callable[[dict[str, Any]], dict[str, Any]]) -> None:
        """Apply ``fn`` to every atom dict in place (projection support)."""
        self.atom = fn(self.atom)
        for comps in self.components.values():
            for comp in comps:
                comp.map_atoms(fn)

    def __repr__(self) -> str:
        sizes = {label: len(comps) for label, comps in self.components.items()}
        return f"Molecule({self.node.label}, components={sizes})"
