"""Logical addressing: surrogates and the atom↔record mapping.

Update operations and direct access are restricted to atoms identified by
their *logical address* — a surrogate generated by the access system when
the atom is inserted and released when it is deleted (paper, 3.2).

Because the tuning mechanisms introduce storage redundancy, one atom may be
materialised in several physical records (base storage, sort orders,
partitions, atom clusters), and one physical record (a cluster record) may
materialise many atoms: an **n:m relationship between atoms and physical
records**, where the usual conceptual-to-internal mapping is 1:1.  The
:class:`AddressTable` is the "sophisticated addressing structure" [Si87]
managing this mapping: for every surrogate it lists the *placements* of the
atom, keyed by the storage structure owning each copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.errors import AtomNotFoundError
from repro.mad.types import Surrogate
from repro.storage.page import PageId

#: Identifier of the (mandatory) primary storage structure of an atom type.
BASE_STRUCTURE = "base"


class RecordId(NamedTuple):
    """Physical address of one record: page plus slot (a named tuple,
    hashed and compared in C like :class:`PageId`)."""

    page: PageId
    slot: int

    def __repr__(self) -> str:
        return f"{self.page}/{self.slot}"


@dataclass(frozen=True)
class Placement:
    """One materialisation of an atom inside a storage structure.

    ``structure`` names the owning structure (``base``, ``sort:<name>``,
    ``partition:<name>``, ``cluster:<name>``); ``record`` is where the
    bytes live.  ``fresh`` is False while a deferred update is pending —
    stale placements must not serve reads (paper, 3.2: during an update
    only one physical record is modified, all others later).
    """

    structure: str
    record: RecordId
    fresh: bool = True


class SurrogateGenerator:
    """Hands out never-reused surrogate numbers per atom type.

    ``start``/``stride`` confine the generator to one residue class of
    the surrogate number space: shard *i* of an N-engine cluster runs
    with ``start=i+1, stride=N`` and generates ``i+1, i+1+N, ...`` — so
    surrogates stay globally unique across independent engines and the
    owning shard is recoverable as ``(number - 1) % N``.
    """

    def __init__(self, start: int = 1, stride: int = 1) -> None:
        self._next: dict[str, int] = {}
        self.start = start
        self.stride = stride

    def generate(self, atom_type: str) -> Surrogate:
        number = self._next.get(atom_type, self.start)
        self._next[atom_type] = number + self.stride
        return Surrogate(atom_type, number)

    def next_numbers(self) -> dict[str, int]:
        """Each type's next surrogate number, by type name (types never
        generated are absent)."""
        return dict(sorted(self._next.items()))

    def note_existing(self, surrogate: Surrogate) -> None:
        """Advance the counter past an externally created surrogate,
        staying inside this generator's residue class."""
        current = self._next.get(surrogate.atom_type, self.start)
        if surrogate.number >= current:
            bump = surrogate.number + 1 - current
            steps = -(-bump // self.stride)   # ceil division
            self._next[surrogate.atom_type] = \
                current + steps * self.stride


class AddressTable:
    """surrogate → {structure → placement}, with staleness tracking."""

    def __init__(self) -> None:
        self._map: dict[Surrogate, dict[str, Placement]] = {}
        #: surrogate -> base record, mirrored from ``_map`` by every
        #: write of a base placement, so the read path's probe
        #: (:attr:`base_record`) runs in C.
        self._base: dict[Surrogate, RecordId] = {}
        #: ``base_record(surrogate)``: the atom's base record, or None
        #: when no atom has this logical address (one dict probe).
        self.base_record = self._base.get

    # -- existence ----------------------------------------------------------------

    def register(self, surrogate: Surrogate) -> None:
        """Create an (empty) entry for a newly inserted atom."""
        if surrogate in self._map:
            raise AtomNotFoundError(f"surrogate {surrogate} already registered")
        self._map[surrogate] = {}

    def release(self, surrogate: Surrogate) -> None:
        """Drop the entry of a deleted atom (the address is released)."""
        self._require(surrogate)
        del self._map[surrogate]
        self._base.pop(surrogate, None)

    def exists(self, surrogate: Surrogate) -> bool:
        return surrogate in self._map

    def _require(self, surrogate: Surrogate) -> dict[str, Placement]:
        try:
            return self._map[surrogate]
        except KeyError:
            raise AtomNotFoundError(
                f"no atom with logical address {surrogate}"
            ) from None

    # -- placements ----------------------------------------------------------------

    def place(self, surrogate: Surrogate, structure: str,
              record: RecordId, fresh: bool = True) -> None:
        """Record that ``structure`` materialises the atom at ``record``."""
        self._require(surrogate)[structure] = Placement(structure, record, fresh)
        if structure == BASE_STRUCTURE:
            self._base[surrogate] = record

    def unplace(self, surrogate: Surrogate, structure: str) -> None:
        """Remove the atom's placement in ``structure`` (if any)."""
        self._require(surrogate).pop(structure, None)
        if structure == BASE_STRUCTURE:
            self._base.pop(surrogate, None)

    def placement(self, surrogate: Surrogate,
                  structure: str) -> Placement | None:
        """The atom's placement in ``structure``, or None."""
        return self._require(surrogate).get(structure)

    def placements(self, surrogate: Surrogate) -> list[Placement]:
        """All placements of the atom, base first."""
        entry = self._require(surrogate)
        ordered = sorted(entry.values(),
                         key=lambda p: (p.structure != BASE_STRUCTURE,
                                        p.structure))
        return ordered

    # -- staleness (deferred update support) ------------------------------------------

    def mark_stale(self, surrogate: Surrogate, structure: str) -> None:
        entry = self._require(surrogate)
        placement = entry.get(structure)
        if placement is not None and placement.fresh:
            entry[structure] = Placement(structure, placement.record, False)

    def mark_fresh(self, surrogate: Surrogate, structure: str,
                   record: RecordId | None = None) -> None:
        entry = self._require(surrogate)
        placement = entry.get(structure)
        if placement is None and record is None:
            return
        target = record if record is not None else placement.record
        entry[structure] = Placement(structure, target, True)
        if structure == BASE_STRUCTURE:
            self._base[surrogate] = target

    def stale_placements(self, surrogate: Surrogate) -> list[Placement]:
        return [p for p in self._require(surrogate).values() if not p.fresh]

    # -- bulk iteration ----------------------------------------------------------------

    def surrogates(self, atom_type: str | None = None) -> Iterator[Surrogate]:
        """All registered surrogates, optionally restricted to one type."""
        for surrogate in sorted(self._map):
            if atom_type is None or surrogate.atom_type == atom_type:
                yield surrogate

    def count(self, atom_type: str | None = None) -> int:
        if atom_type is None:
            return len(self._map)
        return sum(1 for s in self._map if s.atom_type == atom_type)
