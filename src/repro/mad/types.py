"""The extended attribute type concept of the MAD model (paper, 2.2).

Atoms are composed of attributes whose types come from a richer selection
than in conventional data models:

* ``IDENTIFIER`` — a system-assigned surrogate [ML83] identifying the atom;
* ``REF_TO(type.attr)`` — a typed reference to another atom, always paired
  with a *back-reference* attribute in the target type (the association
  concept, Fig. 2.2);
* the standard scalars ``INTEGER``, ``REAL``, ``BOOLEAN``, ``CHAR_VAR``;
* ``RECORD`` (named fields), ``ARRAY_OF`` (fixed length), and the
  repeating-group types ``SET_OF`` and ``LIST_OF``;
* ``SET_OF`` may carry a ``(min, max)`` cardinality restriction used for
  refined structural integrity enforced by the system.

Every type knows how to :meth:`validate` a Python value against itself and
supplies a :meth:`default` used when an insert omits the attribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import CardinalityError, TypeMismatchError

#: Marker for a VARiable (unbounded) cardinality limit, as in ``(4,VAR)``.
VAR: None = None


@dataclass(frozen=True, order=True)
class Surrogate:
    """A logical address: identifies one atom, stable for its lifetime.

    Generated by the access system when an atom is inserted and released
    when it is deleted (paper, 3.2).  Implements both the IDENTIFIER
    attribute and the value space of REFERENCE attributes.
    """

    atom_type: str
    number: int

    def __repr__(self) -> str:
        return f"{self.atom_type}#{self.number}"


class AttrType:
    """Base class of all attribute types."""

    #: Display name used in error messages and DDL round-tripping.
    name: str = "?"

    def validate(self, value: Any, context: str = "") -> Any:
        """Check ``value`` against this type; returns the normalised value.

        Raises :class:`TypeMismatchError` when the value does not conform.
        """
        raise NotImplementedError

    def default(self) -> Any:
        """Value stored when an insert does not supply this attribute."""
        return None

    def ddl(self) -> str:
        """DDL text for this type (inverse of the MQL type parser)."""
        return self.name

    def __repr__(self) -> str:
        return self.ddl()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AttrType) and self.ddl() == other.ddl()

    def __hash__(self) -> int:
        return hash(self.ddl())


def _fail(context: str, expected: str, value: Any) -> None:
    where = f" for {context}" if context else ""
    raise TypeMismatchError(
        f"expected {expected}{where}, got {type(value).__name__}: {value!r}"
    )


class IdentifierType(AttrType):
    """IDENTIFIER: the atom's own surrogate; assigned by the system."""

    name = "IDENTIFIER"

    def validate(self, value: Any, context: str = "") -> Any:
        if value is not None and not isinstance(value, Surrogate):
            _fail(context, "IDENTIFIER (surrogate)", value)
        return value


@dataclass(frozen=True)
class ReferenceType(AttrType):
    """REF_TO (target_type.target_attr): a typed, symmetric reference.

    ``target_attr`` names the *back-reference* attribute in the target atom
    type; the access system maintains the two sides in lock step.
    """

    target_type: str
    target_attr: str

    @property
    def name(self) -> str:  # type: ignore[override]
        return "REF_TO"

    def validate(self, value: Any, context: str = "") -> Any:
        if value is None:
            return None
        if not isinstance(value, Surrogate):
            _fail(context, f"REF_TO({self.target_type})", value)
        if value.atom_type != self.target_type:
            raise TypeMismatchError(
                f"reference {context or ''} must point to atom type "
                f"{self.target_type!r}, got {value!r}"
            )
        return value

    def ddl(self) -> str:
        return f"REF_TO ({self.target_type}.{self.target_attr})"


class IntegerType(AttrType):
    """INTEGER: a signed 64-bit integer (the width of its record
    encoding)."""

    name = "INTEGER"

    def validate(self, value: Any, context: str = "") -> Any:
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(context, "INTEGER", value)
        if not -(1 << 63) <= value < (1 << 63):
            _fail(context, "INTEGER (signed 64-bit)", value)
        return value


class RealType(AttrType):
    name = "REAL"

    def validate(self, value: Any, context: str = "") -> Any:
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(context, "REAL", value)
        return float(value)


class BooleanType(AttrType):
    name = "BOOLEAN"

    def validate(self, value: Any, context: str = "") -> Any:
        if value is None:
            return None
        if not isinstance(value, bool):
            _fail(context, "BOOLEAN", value)
        return value


@dataclass(frozen=True)
class CharVarType(AttrType):
    """CHAR_VAR: variable-length character string (optional max length)."""

    max_length: int | None = None

    @property
    def name(self) -> str:  # type: ignore[override]
        return "CHAR_VAR"

    def validate(self, value: Any, context: str = "") -> Any:
        if value is None:
            return None
        if not isinstance(value, str):
            _fail(context, "CHAR_VAR", value)
        if self.max_length is not None and len(value) > self.max_length:
            raise TypeMismatchError(
                f"CHAR_VAR({self.max_length}) value too long "
                f"({len(value)} chars) for {context or 'attribute'}"
            )
        return value

    def ddl(self) -> str:
        if self.max_length is None:
            return "CHAR_VAR"
        return f"CHAR_VAR ({self.max_length})"


class BytesType(AttrType):
    """BYTE_VAR: uninterpreted byte strings (texts, images; paper 3.3)."""

    name = "BYTE_VAR"

    def validate(self, value: Any, context: str = "") -> Any:
        if value is None:
            return None
        if not isinstance(value, (bytes, bytearray)):
            _fail(context, "BYTE_VAR", value)
        return bytes(value)


@dataclass(frozen=True)
class RecordType(AttrType):
    """RECORD ... END: a named tuple of sub-attributes."""

    fields: tuple[tuple[str, AttrType], ...]

    @property
    def name(self) -> str:  # type: ignore[override]
        return "RECORD"

    def validate(self, value: Any, context: str = "") -> Any:
        if value is None:
            return None
        if not isinstance(value, dict):
            _fail(context, "RECORD (dict)", value)
        known = dict(self.fields)
        extra = set(value) - set(known)
        if extra:
            raise TypeMismatchError(
                f"RECORD {context or ''} has unknown fields {sorted(extra)}"
            )
        out: dict[str, Any] = {}
        for fname, ftype in self.fields:
            out[fname] = ftype.validate(value.get(fname), f"{context}.{fname}")
        return out

    def default(self) -> Any:
        return {fname: ftype.default() for fname, ftype in self.fields}

    def ddl(self) -> str:
        inner = ", ".join(f"{n}: {t.ddl()}" for n, t in self.fields)
        return f"RECORD {inner} END"


@dataclass(frozen=True)
class ArrayType(AttrType):
    """ARRAY_OF (element type, length): fixed-length homogeneous array."""

    element: AttrType
    length: int

    @property
    def name(self) -> str:  # type: ignore[override]
        return "ARRAY_OF"

    def validate(self, value: Any, context: str = "") -> Any:
        if value is None:
            return None
        if not isinstance(value, (list, tuple)):
            _fail(context, f"ARRAY_OF({self.element.ddl()}, {self.length})", value)
        if len(value) != self.length:
            raise TypeMismatchError(
                f"array {context or ''} must have exactly {self.length} "
                f"elements, got {len(value)}"
            )
        return [self.element.validate(v, f"{context}[{i}]")
                for i, v in enumerate(value)]

    def ddl(self) -> str:
        return f"ARRAY_OF ({self.element.ddl()}, {self.length})"


@dataclass(frozen=True)
class SetType(AttrType):
    """SET_OF (element type) (min, max): unordered repeating group.

    Cardinality restrictions allow exact mapping of relationship types,
    enforced by the system (paper, Fig. 2.3).  ``max_card is None`` means
    VAR (unbounded).  Sets are normalised to duplicate-free lists sorted by
    a canonical order so stored images are deterministic.
    """

    element: AttrType
    min_card: int = 0
    max_card: int | None = VAR

    @property
    def name(self) -> str:  # type: ignore[override]
        return "SET_OF"

    def validate(self, value: Any, context: str = "") -> Any:
        if value is None:
            value = []
        if isinstance(value, (set, frozenset, tuple)):
            value = list(value)
        if not isinstance(value, list):
            _fail(context, f"SET_OF({self.element.ddl()})", value)
        checked = [self.element.validate(v, f"{context}{{}}") for v in value]
        unique: list[Any] = []
        for item in checked:
            if item not in unique:
                unique.append(item)
        try:
            unique.sort(key=repr)
        except TypeError:  # pragma: no cover - heterogeneous unsortables
            pass
        # Only the maximum is enforced at write time: molecules are built
        # incrementally (an edge exists before its faces connect to it), so
        # minimum cardinalities are verified by the explicit integrity
        # check (repro.access.integrity), not on every write.
        if self.max_card is not None and len(unique) > self.max_card:
            raise CardinalityError(
                f"set {context or ''} may contain at most {self.max_card} "
                f"elements, has {len(unique)}"
            )
        return unique

    def check_cardinality(self, count: int, context: str = "") -> None:
        """Enforce the full (min, max) restriction on the element count."""
        if count < self.min_card:
            raise CardinalityError(
                f"set {context or ''} must contain at least {self.min_card} "
                f"elements, has {count}"
            )
        if self.max_card is not None and count > self.max_card:
            raise CardinalityError(
                f"set {context or ''} may contain at most {self.max_card} "
                f"elements, has {count}"
            )

    def default(self) -> Any:
        return []

    def ddl(self) -> str:
        base = f"SET_OF ({self.element.ddl()})"
        if self.min_card == 0 and self.max_card is None:
            return base
        upper = "VAR" if self.max_card is None else str(self.max_card)
        return f"{base} ({self.min_card},{upper})"


@dataclass(frozen=True)
class ListType(AttrType):
    """LIST_OF (element type): ordered repeating group (duplicates kept)."""

    element: AttrType

    @property
    def name(self) -> str:  # type: ignore[override]
        return "LIST_OF"

    def validate(self, value: Any, context: str = "") -> Any:
        if value is None:
            value = []
        if isinstance(value, tuple):
            value = list(value)
        if not isinstance(value, list):
            _fail(context, f"LIST_OF({self.element.ddl()})", value)
        return [self.element.validate(v, f"{context}[{i}]")
                for i, v in enumerate(value)]

    def default(self) -> Any:
        return []

    def ddl(self) -> str:
        return f"LIST_OF ({self.element.ddl()})"


#: Singleton instances for the unparameterised scalar types.
IDENTIFIER = IdentifierType()
INTEGER = IntegerType()
REAL = RealType()
BOOLEAN = BooleanType()
CHAR_VAR = CharVarType()
BYTE_VAR = BytesType()


def is_reference(attr_type: AttrType) -> bool:
    """True for REF_TO and for SET_OF/LIST_OF over REF_TO."""
    if isinstance(attr_type, ReferenceType):
        return True
    if isinstance(attr_type, (SetType, ListType)):
        return isinstance(attr_type.element, ReferenceType)
    return False


def reference_of(attr_type: AttrType) -> ReferenceType | None:
    """The underlying ReferenceType of a reference-bearing attribute."""
    if isinstance(attr_type, ReferenceType):
        return attr_type
    if isinstance(attr_type, (SetType, ListType)):
        element = attr_type.element
        if isinstance(element, ReferenceType):
            return element
    return None


def reference_values(attr_type: AttrType, value: Any) -> list[Surrogate]:
    """All surrogates stored in a reference-bearing attribute value."""
    if value is None:
        return []
    if isinstance(attr_type, ReferenceType):
        return [value]
    if isinstance(attr_type, (SetType, ListType)):
        return list(value)
    return []
