"""Atom clusters: materialised molecules in physical contiguity (Fig. 3.2).

In order to speed up construction of frequently used molecules, atoms of
the 'main lanes' to be traversed during molecule derivation are allocated
in physical contiguity (paper, 3.2).  An atom-cluster type is declared by
naming the atom types whose atoms are to be clustered; each cluster is
defined by a *characteristic atom* containing references to all member
atoms, grouped by atom type.

The reproduction follows Fig. 3.2 exactly:

a) logical view — the characteristic atom references the members;
b) one **physical record** holds the characteristic atom plus the encoded
   member atoms (the n:m atom↔record mapping);
c) the record is mapped onto a **page sequence**, whose header plus an
   auxiliary directory provide relative addressing, so a single member atom
   can be fetched without reassembling the whole cluster.

Record layout::

    u32 header length
    header  = encoded dict {root, members: {label: [surrogates]},
                            directory: [[surrogate, label, offset, length]]}
    payload = concatenated encoded member atoms (offsets relative to
              payload start)

Clusters are deferred-update structures: when any member atom changes, the
affected clusters are marked stale and rebuilt later (or lazily on read).
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Any, Iterator

from repro.access.encoding import decode_atom, encode_atom
from repro.access.structure import StorageStructure
from repro.errors import AccessError
from repro.mad.molecule import StructureNode
from repro.mad.types import Surrogate, reference_values
from repro.storage.page import PageId
from repro.storage.system import StorageSystem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.access.atoms import AtomManager

_U32 = struct.Struct("<I")


class AtomCluster(StorageStructure):
    """An atom-cluster type over a molecule structure."""

    kind = "cluster"
    deferred = True

    def __init__(self, name: str, structure: StructureNode,
                 manager: "AtomManager", storage: StorageSystem,
                 page_size: int = 8192) -> None:
        super().__init__(name, structure.atom_type)
        self.structure = structure
        self._manager = manager
        self._storage = storage
        self._segment = f"cl_{name}"
        if not storage.segments.exists(self._segment):
            storage.create_segment(self._segment, page_size)
        #: root surrogate -> header page of the cluster's page sequence.
        self._sequences: dict[Surrogate, PageId] = {}
        #: member surrogate -> roots of the clusters containing it.
        self._member_roots: dict[Surrogate, set[Surrogate]] = {}
        #: clusters whose record no longer matches the base data.
        self._stale: set[Surrogate] = set()

    # -- structure interface --------------------------------------------------------

    @property
    def watched_types(self) -> tuple[str, ...]:
        return tuple(self.structure.atom_types())

    @property
    def cluster_count(self) -> int:
        return len(self._sequences)

    def roots(self) -> list[Surrogate]:
        """Characteristic atoms (cluster roots) in surrogate order."""
        return sorted(self._sequences)

    def has_root(self, root: Surrogate) -> bool:
        """Does ``root`` have a cluster record (one probe, no sort)?"""
        return root in self._sequences

    def is_stale(self, root: Surrogate) -> bool:
        return root in self._stale

    # -- maintenance hooks -------------------------------------------------------------

    def on_insert(self, surrogate: Surrogate, values: dict[str, Any]) -> None:
        if surrogate.atom_type == self.atom_type:
            self.materialize(surrogate)

    def on_delete(self, surrogate: Surrogate, values: dict[str, Any]) -> None:
        if surrogate.atom_type == self.atom_type and \
                surrogate in self._sequences:
            self._drop_cluster(surrogate)
            return
        for root in sorted(self._member_roots.get(surrogate, set())):
            # Deleting a member atom deletes it from the cluster; the
            # back-reference machinery has already disconnected it, so a
            # rebuild reflects the new membership.
            self.materialize(root)

    def on_modify(self, surrogate: Surrogate, old: dict[str, Any],
                  new: dict[str, Any]) -> None:
        if surrogate.atom_type == self.atom_type and \
                surrogate in self._sequences:
            self._stale.add(surrogate)
        for root in self._member_roots.get(surrogate, set()):
            self._stale.add(root)

    def refresh(self, surrogate: Surrogate, values: dict[str, Any]) -> None:
        """Deferred-update propagation: rebuild every affected cluster."""
        targets: set[Surrogate] = set()
        if surrogate.atom_type == self.atom_type and \
                surrogate in self._sequences:
            targets.add(surrogate)
        targets |= self._member_roots.get(surrogate, set())
        for root in sorted(targets & self._stale):
            self.materialize(root)

    def drop(self) -> None:
        self._sequences.clear()
        self._member_roots.clear()
        self._stale.clear()
        self._storage.drop_segment(self._segment)

    # -- materialisation -----------------------------------------------------------------

    def derive_members(self, root: Surrogate) -> list[tuple[str, Surrogate]]:
        """Traverse the structure from ``root``; returns (label, surrogate)
        pairs in derivation order, duplicates removed."""
        out: list[tuple[str, Surrogate]] = []
        seen: set[tuple[str, Surrogate]] = set()

        def visit(node: StructureNode, atoms: list[Surrogate]) -> None:
            for surrogate in atoms:
                entry = (node.label, surrogate)
                if entry in seen:
                    continue
                seen.add(entry)
                out.append(entry)
            for child in node.children:
                assert child.via is not None
                attr = child.via.source_attr
                next_atoms: list[Surrogate] = []
                for surrogate in atoms:
                    values = self._manager.get(surrogate)
                    attr_type = self._manager.schema \
                        .atom_type(surrogate.atom_type).attr(attr)
                    next_atoms.extend(
                        reference_values(attr_type, values.get(attr))
                    )
                visit(child, next_atoms)
            if node.recursive and node.via is not None:
                attr = node.via.source_attr
                frontier = atoms
                while frontier:
                    next_atoms = []
                    for surrogate in frontier:
                        values = self._manager.get(surrogate)
                        attr_type = self._manager.schema \
                            .atom_type(surrogate.atom_type).attr(attr)
                        for target in reference_values(attr_type,
                                                       values.get(attr)):
                            entry = (node.label, target)
                            if entry not in seen:
                                seen.add(entry)
                                out.append(entry)
                                next_atoms.append(target)
                    frontier = next_atoms

        visit(self.structure, [root])
        return out

    def materialize(self, root: Surrogate) -> None:
        """(Re)build the cluster record of ``root`` on its page sequence."""
        if not self._manager.exists(root):
            return
        members = self.derive_members(root)

        payload_parts: list[bytes] = []
        directory: list[list[Any]] = []
        grouped: dict[str, list[Surrogate]] = {}
        offset = 0
        for label, surrogate in members:
            encoded = encode_atom(self._manager.get(surrogate))
            directory.append([surrogate, label, offset, len(encoded)])
            payload_parts.append(encoded)
            offset += len(encoded)
            grouped.setdefault(label, []).append(surrogate)

        header = encode_atom({
            "root": root,
            "members": {label: list(s) for label, s in grouped.items()},
            "directory": directory,
        })
        record = _U32.pack(len(header)) + header + b"".join(payload_parts)

        sequence = self._sequences.get(root)
        if sequence is None:
            sequence = self._storage.sequences.create(self._segment)
            self._sequences[root] = sequence
        self._storage.sequences.write(sequence, record)

        # Refresh the member → roots index.
        for surrogate, roots in list(self._member_roots.items()):
            roots.discard(root)
            if not roots:
                del self._member_roots[surrogate]
        for _label, surrogate in members:
            if surrogate != root:
                self._member_roots.setdefault(surrogate, set()).add(root)
        self._stale.discard(root)

    def _drop_cluster(self, root: Surrogate) -> None:
        sequence = self._sequences.pop(root)
        self._storage.sequences.drop(sequence)
        for surrogate, roots in list(self._member_roots.items()):
            roots.discard(root)
            if not roots:
                del self._member_roots[surrogate]
        self._stale.discard(root)

    # -- reads -------------------------------------------------------------------------------

    def _ensure_fresh(self, root: Surrogate) -> PageId:
        if root not in self._sequences:
            raise AccessError(
                f"cluster {self.name!r} has no cluster rooted at {root}"
            )
        if root in self._stale:
            # Lazy propagation: a stale record must not serve reads.
            self._manager.deferred.propagate_one(self, root)
            if root in self._stale:
                self.materialize(root)
        return self._sequences[root]

    def characteristic(self, root: Surrogate) -> dict[str, Any]:
        """The characteristic atom: references to all members, grouped by
        type (Fig. 3.2a)."""
        sequence = self._ensure_fresh(root)
        header_len = _U32.unpack(
            self._storage.sequences.read_slice(sequence, 0, 4)
        )[0]
        header = decode_atom(
            self._storage.sequences.read_slice(sequence, 4, header_len)
        )
        return {"root": header["root"], "members": header["members"]}

    def read_cluster(self, root: Surrogate,
                     chained: bool = True) -> dict[str, list[dict[str, Any]]]:
        """All member atoms, grouped by structure label, in **one** page-
        sequence transfer (chained I/O)."""
        sequence = self._ensure_fresh(root)
        record = self._storage.sequences.read(sequence, chained=chained)
        header_len = _U32.unpack_from(record, 0)[0]
        header = decode_atom(bytes(record[4:4 + header_len]))
        payload_start = 4 + header_len
        out: dict[str, list[dict[str, Any]]] = {}
        for _surrogate, label, offset, length in header["directory"]:
            start = payload_start + offset
            atom = decode_atom(bytes(record[start:start + length]))
            out.setdefault(label, []).append(atom)
        return out

    def read_member(self, root: Surrogate,
                    member: Surrogate) -> dict[str, Any]:
        """Direct access to a single member atom via relative addressing —
        only the pages covering the atom are touched (Fig. 3.2c)."""
        sequence = self._ensure_fresh(root)
        header_len = _U32.unpack(
            self._storage.sequences.read_slice(sequence, 0, 4)
        )[0]
        header = decode_atom(
            self._storage.sequences.read_slice(sequence, 4, header_len)
        )
        for surrogate, _label, offset, length in header["directory"]:
            if surrogate == member:
                start = 4 + header_len + offset
                return decode_atom(
                    self._storage.sequences.read_slice(sequence, start, length)
                )
        raise AccessError(
            f"atom {member} is not a member of the cluster rooted at {root}"
        )

    def members_of(self, root: Surrogate,
                   atom_type: str | None = None) -> Iterator[Surrogate]:
        """Member surrogates of one cluster (optionally one type only)."""
        char = self.characteristic(root)
        for label, surrogates in sorted(char["members"].items()):
            for surrogate in surrogates:
                if atom_type is None or surrogate.atom_type == atom_type:
                    yield surrogate
