"""Partitions: separate storage of attribute combinations (paper, 3.2).

The projection of frequently used attributes may be supported by means of
*partitions*, i.e. separate storage of attribute combinations — a physical
record then corresponds to a *part* of an atom.  Partitions collect the
results of projections; reading a partition record transfers far fewer
bytes than reading the whole atom (benchmark A4).

Partitions are deferred-update structures: a modify touches only the base
copy; the partition record is refreshed later (or lazily on read).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.access.container import RecordContainer
from repro.access.encoding import encode_atom
from repro.access.structure import StorageStructure
from repro.errors import SchemaError
from repro.mad.schema import AtomType
from repro.mad.types import Surrogate
from repro.storage.system import StorageSystem

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.access.atoms import AtomManager


class Partition(StorageStructure):
    """Vertical partition of one atom type over a fixed attribute subset."""

    kind = "partition"
    deferred = True

    def __init__(self, name: str, atom_type: AtomType, attrs: list[str],
                 storage: StorageSystem, atoms: AtomManager,
                 page_size: int = 2048) -> None:
        super().__init__(name, atom_type.name)
        for attr in attrs:
            atom_type.attr(attr)     # raises on unknown attributes
        if atom_type.identifier_attr in attrs:
            raise SchemaError(
                "the IDENTIFIER attribute is stored implicitly; do not list it"
            )
        self.attrs = tuple(attrs)
        self._identifier_attr = atom_type.identifier_attr
        self._addresses = atoms.addresses
        self._decode = atoms.decode
        self._container = RecordContainer(
            storage, f"pt_{name}", page_size=page_size
        )

    # -- queries used by the optimizer --------------------------------------------

    def covers(self, requested: list[str] | tuple[str, ...]) -> bool:
        """True when every requested attribute is stored in this partition
        (the IDENTIFIER is always available)."""
        stored = set(self.attrs) | {self._identifier_attr}
        return set(requested) <= stored

    @property
    def record_count(self) -> int:
        return self._container.record_count

    # -- maintenance hooks ------------------------------------------------------------

    def _project(self, surrogate: Surrogate,
                 values: dict[str, Any]) -> dict[str, Any]:
        out: dict[str, Any] = {self._identifier_attr: surrogate}
        for attr in self.attrs:
            out[attr] = values.get(attr)
        return out

    def on_insert(self, surrogate: Surrogate, values: dict[str, Any]) -> None:
        record_id = self._container.insert(
            encode_atom(self._project(surrogate, values))
        )
        self._addresses.place(surrogate, self.structure_id, record_id)

    def on_delete(self, surrogate: Surrogate, values: dict[str, Any]) -> None:
        placement = self._addresses.placement(surrogate, self.structure_id)
        if placement is not None:
            self._container.delete(placement.record)
            self._addresses.unplace(surrogate, self.structure_id)

    def on_modify(self, surrogate: Surrogate, old: dict[str, Any],
                  new: dict[str, Any]) -> None:
        # Deferred: the base copy was already rewritten by the atom
        # manager; our record is refreshed later via refresh().
        return

    def refresh(self, surrogate: Surrogate, values: dict[str, Any]) -> None:
        placement = self._addresses.placement(surrogate, self.structure_id)
        payload = encode_atom(self._project(surrogate, values))
        if placement is None:
            record_id = self._container.insert(payload)
        else:
            record_id = self._container.update(placement.record, payload)
        self._addresses.mark_fresh(surrogate, self.structure_id, record_id)

    # -- reads --------------------------------------------------------------------------

    def read(self, surrogate: Surrogate) -> dict[str, Any] | None:
        """The partition's copy, or None when absent/stale."""
        placement = self._addresses.placement(surrogate, self.structure_id)
        if placement is None or not placement.fresh:
            return None
        return self._decode(self._container.read(placement.record))

    def drop(self) -> None:
        self._container.clear()
