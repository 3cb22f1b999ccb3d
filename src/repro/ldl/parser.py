"""Parser for LDL statements.

Grammar (sharing the MQL lexer and FROM-structure syntax)::

    ldl_statement := CREATE ACCESS PATH name ON type '(' attrs ')'
                       [USING (BTREE | GRID)]
                   | CREATE SORT ORDER name ON type '(' attrs ')'
                   | CREATE PARTITION name ON type '(' attrs ')'
                   | CREATE ATOM_CLUSTER name FROM structure
                   | DROP (ACCESS PATH | SORT ORDER | PARTITION |
                           ATOM_CLUSTER) name

The exact concrete syntax of PRIMA's LDL is not given in the paper; this
grammar realises precisely the four mechanisms section 2.3 enumerates
(access methods, partitioning, sort orders, physical clusters).
:func:`structure_to_ldl` renders an installed structure back into the
CREATE statement that re-creates it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.access.structure import StorageStructure
from repro.mad.ddl import structure_to_from_clause
from repro.mql.ast import FromNode
from repro.mql.parser import Parser


class LdlStatement:
    """Base class of LDL statements."""


@dataclass
class CreateAccessPath(LdlStatement):
    name: str
    atom_type: str
    attrs: list[str]
    method: str = "btree"


@dataclass
class CreateSortOrder(LdlStatement):
    name: str
    atom_type: str
    attrs: list[str]


@dataclass
class CreatePartition(LdlStatement):
    name: str
    atom_type: str
    attrs: list[str]


@dataclass
class CreateAtomCluster(LdlStatement):
    name: str
    structure: FromNode


@dataclass
class DropStructure(LdlStatement):
    name: str


class LdlParser(Parser):
    """Reuses the MQL token stream and structure grammar."""

    def parse_ldl_statement(self) -> LdlStatement:
        statement = self._ldl_statement()
        if self._peek().is_op(";"):
            self._advance()
        if self._peek().kind != "EOF":
            raise self._error("unexpected trailing input")
        return statement

    def parse_ldl_script(self) -> list[LdlStatement]:
        statements: list[LdlStatement] = []
        while self._peek().kind != "EOF":
            statements.append(self._ldl_statement())
            while self._peek().is_op(";"):
                self._advance()
        return statements

    def _ldl_statement(self) -> LdlStatement:
        if self._peek().is_keyword("CREATE"):
            return self._ldl_create()
        if self._peek().is_keyword("DROP"):
            return self._ldl_drop()
        raise self._error("expected CREATE or DROP")

    def _ldl_create(self) -> LdlStatement:
        self._expect_keyword("CREATE")
        token = self._peek()
        if token.is_keyword("ACCESS"):
            self._advance()
            self._expect_keyword("PATH")
            name = self._expect_ident()
            self._expect_keyword("ON")
            atom_type = self._expect_ident()
            attrs = self._attr_list()
            method = "btree"
            if self._peek().is_keyword("USING"):
                self._advance()
                word = self._expect_keyword("BTREE", "GRID")
                method = word.value.lower()
            return CreateAccessPath(name, atom_type, attrs, method)
        if token.is_keyword("SORT"):
            self._advance()
            self._expect_keyword("ORDER")
            name = self._expect_ident()
            self._expect_keyword("ON")
            atom_type = self._expect_ident()
            return CreateSortOrder(name, atom_type, self._attr_list())
        if token.is_keyword("PARTITION"):
            self._advance()
            name = self._expect_ident()
            self._expect_keyword("ON")
            atom_type = self._expect_ident()
            return CreatePartition(name, atom_type, self._attr_list())
        if token.is_keyword("ATOM_CLUSTER"):
            self._advance()
            name = self._expect_ident()
            self._expect_keyword("FROM")
            return CreateAtomCluster(name, self._structure())
        raise self._error(
            "expected ACCESS PATH, SORT ORDER, PARTITION or ATOM_CLUSTER"
        )

    def _ldl_drop(self) -> DropStructure:
        self._expect_keyword("DROP")
        while self._peek().is_keyword("ACCESS", "PATH", "SORT", "ORDER",
                                      "PARTITION", "ATOM_CLUSTER"):
            self._advance()
        return DropStructure(self._expect_ident())

    def _attr_list(self) -> list[str]:
        self._expect_op("(")
        attrs = [self._expect_ident()]
        while self._peek().is_op(","):
            self._advance()
            attrs.append(self._expect_ident())
        self._expect_op(")")
        return attrs


def parse_ldl(text: str) -> LdlStatement:
    """Parse one LDL statement."""
    return LdlParser(text).parse_ldl_statement()


def parse_ldl_script(text: str) -> list[LdlStatement]:
    """Parse a ';'-separated LDL script."""
    return LdlParser(text).parse_ldl_script()


def structure_to_ldl(structure: StorageStructure) -> str:
    """The CREATE statement that re-creates ``structure`` (read from the
    attributes each kind keeps; parses back with :func:`parse_ldl`)."""
    head = f"{structure.name} ON {structure.atom_type}"
    if structure.kind == "access_path":
        return (f"CREATE ACCESS PATH {head} ({', '.join(structure.attrs)}) "
                f"USING {structure.method.upper()}")
    if structure.kind == "sort_order":
        return f"CREATE SORT ORDER {head} ({', '.join(structure.sort_attrs)})"
    if structure.kind == "partition":
        return f"CREATE PARTITION {head} ({', '.join(structure.attrs)})"
    return (f"CREATE ATOM_CLUSTER {structure.name} FROM "
            f"{structure_to_from_clause(structure.structure)}")
