"""DDL round-tripping: regenerate MQL DDL from a live catalog.

Every attribute type knows its DDL rendering (:meth:`AttrType.ddl`); this
module assembles whole ``CREATE ATOM_TYPE`` and ``DEFINE MOLECULE TYPE``
statements from the catalog, such that parsing the dump reproduces an
equivalent schema — the property the round-trip tests assert.  Useful for
schema migration, documentation, and debugging.
"""

from __future__ import annotations

from repro.mad.molecule import MoleculeTypeCatalog, StructureNode
from repro.mad.schema import AtomType, Schema


def atom_type_to_ddl(atom_type: AtomType) -> str:
    """One CREATE ATOM_TYPE statement for ``atom_type``."""
    lines = [f"CREATE ATOM_TYPE {atom_type.name}"]
    attr_lines = []
    width = max(len(name) for name in atom_type.attributes)
    for name, attr in atom_type.attributes.items():
        attr_lines.append(f"  {name.ljust(width)} : {attr.ddl()}")
    lines.append("(" + ",\n".join(attr_lines).lstrip() + " )")
    if atom_type.keys:
        lines.append(f"KEYS_ARE ({', '.join(atom_type.keys)})")
    return "\n".join(lines)


def structure_to_from_clause(node: StructureNode) -> str:
    """Render a structure tree back into FROM-clause syntax."""

    def render(current: StructureNode) -> str:
        children = current.children
        rec_suffix = ""
        label = current.atom_type
        if current.recursive and current.via is not None:
            rec_suffix = " (RECURSIVE)"
        if not children:
            return label + rec_suffix

        def child_text(child: StructureNode) -> str:
            # The edge's reference attribute is written on the parent:
            # "solid.sub-solid".  Always name it explicitly — re-parsing
            # is then never ambiguous.
            assert child.via is not None
            prefix = f".{child.via.source_attr}-"
            return prefix + render(child)

        if len(children) == 1:
            return label + child_text(children[0]) + rec_suffix
        # Inside a branch the parent attribute cannot be written with the
        # X.attr-Y chain syntax; branches therefore render the plain
        # sub-structures (valid when the associations are unambiguous,
        # which holds for structures that validated in the first place
        # unless two parallel associations exist — those cannot round-trip
        # through a branch and raise at re-parse time instead).
        inner = ", ".join(render(child) for child in children)
        return f"{label} ({inner}){rec_suffix}"

    return render(node)


def dump_schema(schema: Schema,
                catalog: MoleculeTypeCatalog | None = None) -> str:
    """All DDL statements of a catalog, ';'-separated, dependency-safe.

    Atom types may reference each other cyclically; MQL's CREATE does not
    check targets until first use, so plain name order works.
    """
    statements = [
        atom_type_to_ddl(schema.atom_type(name))
        for name in schema.atom_type_names()
    ]
    if catalog is not None:
        for name in catalog.names():
            molecule_type = catalog.get(name)
            assert molecule_type is not None
            clause = structure_to_from_clause(molecule_type.root)
            statements.append(
                f"DEFINE MOLECULE TYPE {name} FROM {clause}"
            )
    return ";\n\n".join(statements)
