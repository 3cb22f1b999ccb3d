"""Atom types, associations, and the schema catalog.

A MAD schema consists of *atom types* only — molecules are defined
dynamically in queries.  Each atom type is put together from constituent
attribute types; relationships between atom types are expressed as
*association types*: a pair of reference-bearing attributes that point at
each other (Fig. 2.2).  The catalog validates this pairing, derives the
relationship kind (1:1, 1:n, n:m), and records KEYS_ARE constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import SchemaError, TypeMismatchError, UnknownTypeError
from repro.mad.types import (
    AttrType,
    IdentifierType,
    ReferenceType,
    is_reference,
    reference_of,
)


@dataclass(frozen=True)
class Association:
    """One *direction* of an association type between two atom types.

    ``source_type.source_attr`` holds references to
    ``target_type.target_attr`` — and the schema guarantees the inverse
    direction exists and points back (symmetry).
    """

    source_type: str
    source_attr: str
    target_type: str
    target_attr: str
    #: True when the source side may hold many references (SET_OF/LIST_OF).
    source_many: bool
    #: True when the target side may hold many back-references.
    target_many: bool

    @property
    def kind(self) -> str:
        """Relationship kind seen from the source: '1:1', '1:n' or 'n:m'."""
        if self.source_many and self.target_many:
            return "n:m"
        if self.source_many or self.target_many:
            return "1:n"
        return "1:1"

    def reverse(self) -> "Association":
        """The same association traversed from the target side."""
        return Association(
            source_type=self.target_type,
            source_attr=self.target_attr,
            target_type=self.source_type,
            target_attr=self.source_attr,
            source_many=self.target_many,
            target_many=self.source_many,
        )

    def __repr__(self) -> str:
        return (f"{self.source_type}.{self.source_attr} -> "
                f"{self.target_type}.{self.target_attr} ({self.kind})")


class AtomType:
    """One atom type: named, typed attributes plus key constraints.

    Exactly one attribute must be of type IDENTIFIER; it holds the atom's
    surrogate.  KEYS_ARE lists attributes whose combination must be unique
    across all atoms of the type.
    """

    def __init__(self, name: str,
                 attributes: list[tuple[str, AttrType]],
                 keys: tuple[str, ...] = ()) -> None:
        if not name or not name[0].isalpha():
            raise SchemaError(f"invalid atom type name {name!r}")
        self.name = name
        self.attributes: dict[str, AttrType] = {}
        for attr_name, attr_type in attributes:
            if attr_name in self.attributes:
                raise SchemaError(
                    f"duplicate attribute {attr_name!r} in atom type {name!r}"
                )
            self.attributes[attr_name] = attr_type
        identifiers = [n for n, t in self.attributes.items()
                       if isinstance(t, IdentifierType)]
        if len(identifiers) != 1:
            raise SchemaError(
                f"atom type {name!r} must have exactly one IDENTIFIER "
                f"attribute, found {len(identifiers)}"
            )
        self.identifier_attr = identifiers[0]
        for key_attr in keys:
            if key_attr not in self.attributes:
                raise SchemaError(
                    f"KEYS_ARE names unknown attribute {key_attr!r} "
                    f"in atom type {name!r}"
                )
        self.keys = tuple(keys)

    # -- attribute access -------------------------------------------------------

    def attr(self, name: str) -> AttrType:
        try:
            return self.attributes[name]
        except KeyError:
            raise UnknownTypeError(
                f"atom type {self.name!r} has no attribute {name!r}"
            ) from None

    def reference_attrs(self) -> list[str]:
        """Names of all reference-bearing attributes."""
        return [n for n, t in self.attributes.items() if is_reference(t)]

    def data_attrs(self) -> list[str]:
        """Attributes that are neither IDENTIFIER nor reference-bearing."""
        return [
            n for n, t in self.attributes.items()
            if not isinstance(t, IdentifierType) and not is_reference(t)
        ]

    # -- value validation ----------------------------------------------------------

    def validate_values(self, values: dict[str, Any],
                        partial: bool = False) -> dict[str, Any]:
        """Validate an attribute-value dict against this type.

        With ``partial=False`` (inserts) missing attributes receive their
        type's default; with ``partial=True`` (modifies) only supplied
        attributes are checked and returned.
        """
        unknown = set(values) - set(self.attributes)
        if unknown:
            raise UnknownTypeError(
                f"atom type {self.name!r} has no attributes {sorted(unknown)}"
            )
        if self.identifier_attr in values and values[self.identifier_attr] is not None:
            raise TypeMismatchError(
                f"the IDENTIFIER attribute {self.identifier_attr!r} is "
                f"assigned by the system and cannot be written"
            )
        out: dict[str, Any] = {}
        for attr_name, attr_type in self.attributes.items():
            if isinstance(attr_type, IdentifierType):
                continue
            if attr_name in values:
                out[attr_name] = attr_type.validate(
                    values[attr_name], f"{self.name}.{attr_name}"
                )
            elif not partial:
                out[attr_name] = attr_type.default()
        return out

    def __repr__(self) -> str:
        return f"AtomType({self.name!r}, {len(self.attributes)} attrs)"


class Schema:
    """The schema catalog: all atom types plus derived association info."""

    def __init__(self) -> None:
        self._atom_types: dict[str, AtomType] = {}
        #: Monotonic DDL stamp: bumped on every CREATE/DROP ATOM_TYPE,
        #: it feeds the catalog version that invalidates cached plans.
        self.version = 0

    # -- atom type management -------------------------------------------------------

    def create_atom_type(self, atom_type: AtomType) -> AtomType:
        if atom_type.name in self._atom_types:
            raise SchemaError(f"atom type {atom_type.name!r} already exists")
        self._atom_types[atom_type.name] = atom_type
        self.version = self.version + 1
        return atom_type

    def drop_atom_type(self, name: str) -> None:
        if name not in self._atom_types:
            raise UnknownTypeError(f"atom type {name!r} does not exist")
        # Dropping a type whose attributes are referenced elsewhere would
        # leave dangling association halves.
        for other in self._atom_types.values():
            if other.name == name:
                continue
            for attr_name, attr_type in other.attributes.items():
                ref = reference_of(attr_type)
                if ref is not None and ref.target_type == name:
                    raise SchemaError(
                        f"cannot drop atom type {name!r}: referenced by "
                        f"{other.name}.{attr_name}"
                    )
        del self._atom_types[name]
        self.version = self.version + 1

    def atom_type(self, name: str) -> AtomType:
        try:
            return self._atom_types[name]
        except KeyError:
            raise UnknownTypeError(f"atom type {name!r} does not exist") from None

    def has_atom_type(self, name: str) -> bool:
        return name in self._atom_types

    def atom_type_names(self) -> list[str]:
        return sorted(self._atom_types)

    # -- association derivation --------------------------------------------------------

    def check_symmetry(self) -> None:
        """Verify every reference attribute has a consistent back-reference.

        An association is symmetric in that the referenced atom type must
        contain a back-reference attribute usable in exactly the same way
        (paper, 2.1).  Called after DDL processing; raises SchemaError on
        any dangling or mismatched half.
        """
        for atom_type in self._atom_types.values():
            for attr_name, attr_type in atom_type.attributes.items():
                ref = reference_of(attr_type)
                if ref is None:
                    continue
                if ref.target_type not in self._atom_types:
                    raise SchemaError(
                        f"{atom_type.name}.{attr_name} references unknown "
                        f"atom type {ref.target_type!r}"
                    )
                target = self._atom_types[ref.target_type]
                if ref.target_attr not in target.attributes:
                    raise SchemaError(
                        f"{atom_type.name}.{attr_name} references unknown "
                        f"back-attribute {ref.target_type}.{ref.target_attr}"
                    )
                back = reference_of(target.attributes[ref.target_attr])
                if back is None:
                    raise SchemaError(
                        f"{ref.target_type}.{ref.target_attr} is not a "
                        f"reference attribute (needed as back-reference of "
                        f"{atom_type.name}.{attr_name})"
                    )
                if back.target_type != atom_type.name or \
                        back.target_attr != attr_name:
                    raise SchemaError(
                        f"asymmetric association: {atom_type.name}."
                        f"{attr_name} -> {ref.target_type}.{ref.target_attr}"
                        f" but the back side points to "
                        f"{back.target_type}.{back.target_attr}"
                    )

    def association(self, source_type: str, source_attr: str) -> Association:
        """The association starting at ``source_type.source_attr``."""
        atom_type = self.atom_type(source_type)
        attr_type = atom_type.attr(source_attr)
        ref = reference_of(attr_type)
        if ref is None:
            raise SchemaError(
                f"{source_type}.{source_attr} is not a reference attribute"
            )
        target = self.atom_type(ref.target_type)
        target_attr_type = target.attr(ref.target_attr)
        return Association(
            source_type=source_type,
            source_attr=source_attr,
            target_type=ref.target_type,
            target_attr=ref.target_attr,
            source_many=not isinstance(attr_type, ReferenceType),
            target_many=not isinstance(target_attr_type, ReferenceType),
        )

    def associations(self) -> Iterator[Association]:
        """Every association direction declared in the schema."""
        for atom_type in self._atom_types.values():
            for attr_name in atom_type.reference_attrs():
                yield self.association(atom_type.name, attr_name)

    def associations_between(self, type_a: str,
                             type_b: str) -> list[Association]:
        """All associations leading from ``type_a`` to ``type_b``."""
        return [
            assoc for assoc in self.associations()
            if assoc.source_type == type_a and assoc.target_type == type_b
        ]
