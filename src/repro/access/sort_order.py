"""Sort orders: redundant sorted record lists (paper, 3.2).

A *sort order* consists of a sorted list of physical records, one for each
atom of the respective type.  It supports the sort scan: reading all atoms
in a user-defined order according to a specified sort criterion without
sorting at query time.  The sort scan also works *without* such a support
structure — it then sorts explicitly into a temporary order (benchmark A3
measures the difference).

The record copies live in their own container; the order itself is kept in
a B*-tree over the sort key, so inserts keep the list sorted and range
restrictions (start/stop conditions) are cheap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.access.btree import BStarTree
from repro.access.container import RecordContainer
from repro.access.encoding import encode_atom
from repro.access.structure import StorageStructure
from repro.mad.schema import AtomType
from repro.mad.types import Surrogate
from repro.storage.system import StorageSystem

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.access.atoms import AtomManager


class SortOrder(StorageStructure):
    """Redundant copy of one atom type, sorted by a key attribute list."""

    kind = "sort_order"
    deferred = True

    def __init__(self, name: str, atom_type: AtomType, sort_attrs: list[str],
                 storage: StorageSystem, atoms: AtomManager,
                 page_size: int = 8192) -> None:
        super().__init__(name, atom_type.name)
        for attr in sort_attrs:
            atom_type.attr(attr)    # raises on unknown attributes
        self.sort_attrs = tuple(sort_attrs)
        self._identifier_attr = atom_type.identifier_attr
        self._addresses = atoms.addresses
        self._decode = atoms.decode
        self._container = RecordContainer(
            storage, f"so_{name}", page_size=page_size
        )
        self._index = BStarTree()

    # -- helpers ------------------------------------------------------------------

    def key_of(self, values: dict[str, Any]) -> tuple:
        return tuple(values.get(attr) for attr in self.sort_attrs)

    @property
    def record_count(self) -> int:
        return self._container.record_count

    # -- maintenance hooks -------------------------------------------------------------

    def on_insert(self, surrogate: Surrogate, values: dict[str, Any]) -> None:
        stored = dict(values)
        stored[self._identifier_attr] = surrogate
        record_id = self._container.insert(encode_atom(stored))
        self._addresses.place(surrogate, self.structure_id, record_id)
        self._index.insert(self.key_of(values), surrogate)

    def on_delete(self, surrogate: Surrogate, values: dict[str, Any]) -> None:
        placement = self._addresses.placement(surrogate, self.structure_id)
        if placement is not None:
            self._container.delete(placement.record)
            self._addresses.unplace(surrogate, self.structure_id)
        self._index.delete(self.key_of(values), surrogate)

    def on_modify(self, surrogate: Surrogate, old: dict[str, Any],
                  new: dict[str, Any]) -> None:
        # Keep the *order* correct immediately (it is an in-memory index);
        # the record copy itself is refreshed later (deferred update).
        old_key = self.key_of(old)
        new_key = self.key_of(new)
        if old_key != new_key:
            self._index.delete(old_key, surrogate)
            self._index.insert(new_key, surrogate)

    def refresh(self, surrogate: Surrogate, values: dict[str, Any]) -> None:
        stored = dict(values)
        stored[self._identifier_attr] = surrogate
        payload = encode_atom(stored)
        placement = self._addresses.placement(surrogate, self.structure_id)
        if placement is None:
            record_id = self._container.insert(payload)
        else:
            record_id = self._container.update(placement.record, payload)
        self._addresses.mark_fresh(surrogate, self.structure_id, record_id)

    # -- scanning support -----------------------------------------------------------------

    def iterate(self, start: Any = None, stop: Any = None,
                include_start: bool = True, include_stop: bool = True,
                reverse: bool = False) -> Iterator[Surrogate]:
        """Surrogates in sort-key order within the start/stop conditions.

        ``reverse=True`` walks the order backwards (descending keys); the
        surrogate tie-break stays ascending either way, so a reverse walk
        equals a stable descending sort.
        """
        for _values, surrogate in self.iterate_entries(
            start=start, stop=stop, include_start=include_start,
            include_stop=include_stop, reverse=reverse,
        ):
            yield surrogate

    def iterate_entries(self, start: Any = None, stop: Any = None,
                        include_start: bool = True, include_stop: bool = True,
                        reverse: bool = False,
                        ) -> Iterator[tuple[tuple, Surrogate]]:
        """(sort-key values, surrogate) pairs in scan order.

        The key values let a caller drive a *dynamic* stop condition
        (e.g. TopK's tightening heap bound) without re-reading atoms.
        """
        for key, surrogate in self._index.range(
            start=start, stop=stop, include_start=include_start,
            include_stop=include_stop, reverse=reverse,
        ):
            yield key.values, surrogate

    def read(self, surrogate: Surrogate) -> dict[str, Any] | None:
        """The sort order's record copy, or None when absent/stale."""
        placement = self._addresses.placement(surrogate, self.structure_id)
        if placement is None or not placement.fresh:
            return None
        return self._decode(self._container.read(placement.record))

    def drop(self) -> None:
        self._container.clear()
        self._index = BStarTree()
