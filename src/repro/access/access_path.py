"""Access paths as installable tuning structures (paper, 2.3 / 3.2).

Several access methods may exist for one or more attributes, permitting
multidimensional access.  An access path maps the values of its attribute
list to surrogates; one-attribute paths use the B*-tree, multi-attribute
paths may choose the grid file for symmetric multi-dimensional access.

Access paths are *immediate* structures: queries consult them directly, so
their entries are adjusted within the triggering operation (they index only
keys and surrogates — no record copies — which is why the paper's deferred
update argument does not apply to them).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.access.btree import BStarTree, make_key
from repro.access.multidim import GridFile, KeyCondition
from repro.access.structure import StorageStructure
from repro.errors import AccessError
from repro.mad.schema import AtomType
from repro.mad.types import Surrogate


class AccessPath(StorageStructure):
    """An index over one or more attributes of an atom type."""

    kind = "access_path"
    deferred = False

    def __init__(self, name: str, atom_type: AtomType, attrs: list[str],
                 method: str = "btree") -> None:
        super().__init__(name, atom_type.name)
        if not attrs:
            raise AccessError("an access path needs at least one attribute")
        for attr in attrs:
            atom_type.attr(attr)   # raises on unknown attributes
        self.attrs = tuple(attrs)
        if method == "btree":
            self._index: BStarTree | GridFile = BStarTree()
        elif method == "grid":
            self._index = GridFile(dims=len(attrs))
        else:
            raise AccessError(
                f"unknown access method {method!r} (btree or grid)"
            )
        self.method = method

    # -- helpers -------------------------------------------------------------------

    def key_of(self, values: dict[str, Any]) -> tuple:
        return tuple(values.get(attr) for attr in self.attrs)

    def __len__(self) -> int:
        return len(self._index)

    # -- maintenance hooks ----------------------------------------------------------

    def on_insert(self, surrogate: Surrogate, values: dict[str, Any]) -> None:
        self._index.insert(self.key_of(values), surrogate)

    def on_delete(self, surrogate: Surrogate, values: dict[str, Any]) -> None:
        self._index.delete(self.key_of(values), surrogate)

    def on_modify(self, surrogate: Surrogate, old: dict[str, Any],
                  new: dict[str, Any]) -> None:
        old_key = self.key_of(old)
        new_key = self.key_of(new)
        if old_key != new_key:
            self._index.delete(old_key, surrogate)
            self._index.insert(new_key, surrogate)

    def drop(self) -> None:
        if isinstance(self._index, BStarTree):
            self._index = BStarTree()
        else:
            self._index = GridFile(dims=len(self.attrs))

    # -- lookups -----------------------------------------------------------------------

    def search(self, key: Any) -> list[Surrogate]:
        """Exact-match lookup."""
        if isinstance(self._index, BStarTree):
            return self._index.search(key)
        key_tuple = key if isinstance(key, tuple) else (key,)
        conditions = [KeyCondition(start=v, stop=v) for v in key_tuple]
        return [s for _k, s in self._index.box(conditions)]

    def scan(self, conditions: list[KeyCondition] | None = None,
             reverse: bool = False) -> Iterator[tuple[tuple, Surrogate]]:
        """Range scan with per-key start/stop conditions and directions.

        For the B*-tree only the first key's condition bounds the scan
        (linear order); the grid file honours every key's condition
        individually (the n-dimensional selection path).  ``reverse``
        flips the scan direction when no explicit conditions are given —
        a convenience mirroring ``SortOrder.iterate(reverse=...)``;
        callers with explicit conditions set ``descending`` per key
        instead (as the direction-aware sort scan does).  A reverse
        B*-tree walk keeps the surrogate tie-break ascending within
        equal keys (see :meth:`BStarTree.range`), so descending
        access-path scans agree with the stable sort on ties.
        """
        if conditions is None:
            conditions = [KeyCondition(descending=reverse)] + \
                [KeyCondition() for _ in self.attrs[1:]]
        if len(conditions) != len(self.attrs):
            raise AccessError(
                f"access path {self.name!r} needs {len(self.attrs)} key "
                f"conditions, got {len(conditions)}"
            )
        if isinstance(self._index, GridFile):
            yield from self._index.box(conditions)
            return
        first = conditions[0]
        rest = conditions[1:]
        for key, surrogate in self._index.range(
            start=first.start, stop=first.stop,
            include_start=first.include_start,
            include_stop=first.include_stop,
            reverse=first.descending,
        ):
            values = key.values
            if self._qualifies_rest(values[1:], rest):
                yield values, surrogate

    @staticmethod
    def _qualifies_rest(values: tuple, conditions: list[KeyCondition]) -> bool:
        for value, cond in zip(values, conditions):
            if cond.start is not None:
                lo = make_key(cond.start)
                v = make_key(value)
                if v < lo or (v == lo and not cond.include_start):
                    return False
            if cond.stop is not None:
                hi = make_key(cond.stop)
                v = make_key(value)
                if hi < v or (v == hi and not cond.include_stop):
                    return False
        return True
