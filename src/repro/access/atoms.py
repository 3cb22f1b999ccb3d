"""The atom manager: the access system's atom-oriented interface.

Like the Research Storage System of System R [As76], the access system
offers retrieval and update of single atoms identified by their logical
address (paper, 3.2).  Performing update operations, it is responsible for
the **automatic maintenance of referential integrity** defined by reference
attributes: an update on a reference attribute includes implicit updates on
other atoms to adjust the corresponding back-reference attributes.

The atom manager also drives the registered tuning structures (access
paths, sort orders, partitions, atom clusters): inserts and deletes update
them immediately; modifies rewrite only the base record and defer the rest
(deferred update).

Whole-atom records are decoded **once per stored image**: MAD molecules
share subobjects (a BREP's faces share edges, its edges share points), so
one retrieval reaches the same record many times.  :meth:`AtomManager.decode`
keys a memo by the record's exact bytes.  Decoding is a pure function of
those bytes, so the memo needs no invalidation: an insert, modify,
back-reference update, delete/restore or relocation writes other bytes (or
leaves nothing to read), and snapshots stay correct.  Every read still
fixes its page and counts as ``atoms_read``; only misses count as
``atom_decodes``.  Each caller gets its own copy (fresh lists and dicts,
shared immutable leaves).  The memo holds at most the buffer's
``capacity_bytes`` of record bytes and is cleared wholesale when a miss
would exceed that; a checkpoint never holds it.

A miss also **interns** the record's surrogates into a pool owned by the
memo (:func:`~repro.access.encoding.decode_atom` with a pool): the edge a
face's ``border`` lists and that edge's own ``edge_id`` are then one
object, and so is every copy handed out.  A molecule set thus carries one
``Surrogate`` per logical address — equality checks short-cut on
identity, and pickling a wire reply writes each surrogate once per frame.
The pool is cleared with the memo.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.access.address import (
    BASE_STRUCTURE,
    AddressTable,
    SurrogateGenerator,
)
from repro.access.container import RecordContainer
from repro.access.deferred import DeferredUpdateManager
from repro.access.encoding import decode_atom, encode_atom
from repro.access.structure import StorageStructure
from repro.errors import (
    AtomNotFoundError,
    CardinalityError,
    DuplicateKeyError,
    IntegrityError,
    StructureExistsError,
    StructureNotFoundError,
)
from repro.access.snapshots import AtomVersionStore, SnapshotView
from repro.mad.schema import AtomType, Schema
from repro.mad.types import (
    ReferenceType,
    SetType,
    Surrogate,
    is_reference,
    reference_values,
)
from repro.storage.system import StorageSystem
from repro.util.stats import Counters

_NESTED = (list, dict)


def _thaw(value: Any) -> Any:
    """A structural copy of a decoded value: fresh lists and dicts,
    shared leaves (scalars, ``bytes`` and Surrogates are immutable)."""
    if type(value) is list:
        return [_thaw(item) for item in value]
    if type(value) is dict:
        return {key: _thaw(item) for key, item in value.items()}
    return value


def _copier(value: list | dict):
    """The cheapest copy that gives a caller its own ``value``."""
    items = value.values() if type(value) is dict else value
    if any(type(item) in _NESTED for item in items):
        return _thaw
    return type(value).copy


class AtomManager:
    """Insert, read, modify and delete atoms; maintain all their records."""

    #: Decoded-record memo: record bytes -> (values, per-attribute copiers
    #: of its nested values), the record bytes it holds, and the surrogate
    #: pool its decodes intern into.  Created on first use; a checkpoint
    #: never holds it (see :meth:`decode`).
    _decoded: dict[bytes, tuple] | None = None
    _decoded_bytes = 0
    _interned: dict[bytes, Surrogate] | None = None

    def __init__(self, storage: StorageSystem, schema: Schema,
                 counters: Counters | None = None) -> None:
        self.storage = storage
        self.schema = schema
        self.counters = counters if counters is not None else Counters()
        self.addresses = AddressTable()
        self.surrogates = SurrogateGenerator()
        self.deferred = DeferredUpdateManager(self._read_base_values,
                                              counters=self.counters)
        self._containers: dict[str, RecordContainer] = {}
        self._key_index: dict[str, dict[tuple, Surrogate]] = {}
        self._structures: dict[str, StorageStructure] = {}
        self._structures_by_type: dict[str, list[StorageStructure]] = {}
        #: Monotonic LDL stamp: bumped whenever a tuning structure is
        #: installed or dropped — access-path choices of cached plans
        #: depend on the structure inventory, so this feeds the
        #: plan-cache version.
        self.structures_version = 0
        #: The copy-on-write version store behind snapshots.
        self.versions = AtomVersionStore()

    # ----------------------------------------------------------- snapshots --

    def publish_epoch(self) -> int:
        """Publish a new epoch — called at commit boundaries (checkin,
        DML statement end, DDL), never per low-level operation."""
        return self.versions.publish()

    def open_snapshot(self) -> SnapshotView:
        """Pin a snapshot at the current epoch; the caller must
        :meth:`SnapshotView.release` it when the reader is done."""
        epoch = self.versions.pin()
        self.counters.bump("snapshots_pinned")
        return SnapshotView(self, epoch)

    # ------------------------------------------------------------------ setup --

    def register_atom_type(self, name: str) -> None:
        """Create the base storage of a (previously declared) atom type."""
        atom_type = self.schema.atom_type(name)
        if atom_type.name in self._containers:
            return
        self._containers[name] = RecordContainer(
            self.storage, f"at_{name}", page_size=8192
        )
        self._key_index[name] = {}

    def unregister_atom_type(self, name: str) -> None:
        """Drop the base storage of an atom type (atoms must be gone)."""
        container = self._containers.pop(name, None)
        if container is not None:
            container.clear()
        self._key_index.pop(name, None)
        for structure in self._structures_by_type.pop(name, []):
            self._structures.pop(structure.name, None)
            structure.drop()

    def _container(self, atom_type: str) -> RecordContainer:
        try:
            return self._containers[atom_type]
        except KeyError:
            self.register_atom_type(atom_type)
            return self._containers[atom_type]

    # ------------------------------------------------------- tuning structures --

    def add_structure(self, structure: StorageStructure,
                      backfill: bool = True) -> StorageStructure:
        """Install a tuning structure; existing atoms are backfilled."""
        if structure.name in self._structures:
            raise StructureExistsError(
                f"storage structure {structure.name!r} already exists"
            )
        self._structures[structure.name] = structure
        self.structures_version = self.structures_version + 1
        for type_name in structure.watched_types:
            self._structures_by_type.setdefault(type_name, []) \
                .append(structure)
        if backfill:
            for surrogate, values in self.atoms_of_type(structure.atom_type):
                structure.on_insert(surrogate, values)
        return structure

    def drop_structure(self, name: str) -> None:
        structure = self._structures.pop(name, None)
        if structure is None:
            raise StructureNotFoundError(f"no storage structure {name!r}")
        self.structures_version = self.structures_version + 1
        for type_name in structure.watched_types:
            self._structures_by_type[type_name].remove(structure)
        self.deferred.cancel_all(structure.structure_id)
        for surrogate in list(self.addresses.surrogates(structure.atom_type)):
            self.addresses.unplace(surrogate, structure.structure_id)
        structure.drop()

    def structure(self, name: str) -> StorageStructure:
        try:
            return self._structures[name]
        except KeyError:
            raise StructureNotFoundError(f"no storage structure {name!r}") \
                from None

    def structures_for(self, atom_type: str,
                       kind: str | None = None) -> list[StorageStructure]:
        out = self._structures_by_type.get(atom_type, [])
        if kind is not None:
            out = [s for s in out if s.kind == kind]
        return list(out)

    def structure_names(self) -> list[str]:
        return sorted(self._structures)

    def structures(self) -> list[StorageStructure]:
        """Every installed tuning structure, in creation order."""
        return list(self._structures.values())

    # ----------------------------------------------------------------- inserts --

    def insert(self, type_name: str, values: dict[str, Any] | None = None,
               ) -> Surrogate:
        """Insert a new atom; returns its freshly generated surrogate.

        Values may assign all or only selected attributes (paper, 3.2);
        reference attributes trigger back-reference maintenance on the
        referenced atoms.
        """
        atom_type = self.schema.atom_type(type_name)
        checked = atom_type.validate_values(values or {}, partial=False)
        self._check_targets_exist(atom_type, checked)
        surrogate = self.surrogates.generate(type_name)
        checked[atom_type.identifier_attr] = surrogate
        self._check_key_free(atom_type, checked)

        store = self.versions
        store.preserve(surrogate, None)
        store.note_touched(type_name)
        self.addresses.register(surrogate)
        record_id = self._container(type_name).insert(encode_atom(checked))
        self.addresses.place(surrogate, BASE_STRUCTURE, record_id)
        self._key_register(atom_type, checked, surrogate)

        # Symmetric maintenance: every reference we store implies a
        # back-reference in the target atom.
        for attr_name in atom_type.reference_attrs():
            for target in reference_values(atom_type.attr(attr_name),
                                           checked.get(attr_name)):
                self._backref_add(atom_type, attr_name, surrogate, target)

        for structure in self._structures_by_type.get(type_name, []):
            structure.on_insert(surrogate, checked)
        self.counters.bump("atoms_inserted")
        return surrogate

    def restore_atom(self, surrogate: Surrogate,
                     values: dict[str, Any]) -> None:
        """Re-insert a previously deleted atom under its old surrogate.

        Used by transaction undo and checkpoint load: the atom reappears
        with its last stored state; back-references to it are re-built
        from its reference attributes (symmetry restores both sides).
        """
        atom_type = self.schema.atom_type(surrogate.atom_type)
        if self.addresses.exists(surrogate):
            raise IntegrityError(f"atom {surrogate} already exists")
        stored = dict(values)
        stored[atom_type.identifier_attr] = surrogate
        self._check_key_free(atom_type, stored)
        store = self.versions
        store.preserve(surrogate, None)
        store.note_touched(surrogate.atom_type)
        self.surrogates.note_existing(surrogate)
        self.addresses.register(surrogate)
        record_id = self._container(surrogate.atom_type) \
            .insert(encode_atom(stored))
        self.addresses.place(surrogate, BASE_STRUCTURE, record_id)
        self._key_register(atom_type, stored, surrogate)
        for attr_name in atom_type.reference_attrs():
            for target in reference_values(atom_type.attr(attr_name),
                                           stored.get(attr_name)):
                if self.addresses.exists(target):
                    self._backref_add(atom_type, attr_name, surrogate, target)
        for structure in self._structures_by_type.get(surrogate.atom_type, []):
            structure.on_insert(surrogate, stored)
        self.counters.bump("atoms_restored")

    # ------------------------------------------------------------------- reads --

    def get(self, surrogate: Surrogate,
            attrs: list[str] | None = None) -> dict[str, Any]:
        """Read an atom — whole or only selected attributes.

        The physical record with minimum access cost serves the read: a
        fresh partition covering the requested attributes wins over the
        (larger) base record.
        """
        atom_type = self.schema.atom_type(surrogate.atom_type)
        if attrs is None:
            values = self.get_or_none(surrogate)
            if values is None:
                raise AtomNotFoundError(
                    f"no atom with logical address {surrogate}")
            return values
        if not self.addresses.exists(surrogate):
            raise AtomNotFoundError(f"no atom with logical address {surrogate}")
        self.counters.bump("atoms_read")
        unknown = set(attrs) - set(atom_type.attributes)
        if unknown:
            raise AtomNotFoundError(
                f"atom type {atom_type.name!r} has no attributes "
                f"{sorted(unknown)}"
            )
        for partition in self.structures_for(surrogate.atom_type,
                                             "partition"):
            if partition.covers(attrs):                # type: ignore[attr-defined]
                copy = partition.read(surrogate)       # type: ignore[attr-defined]
                if copy is not None:
                    self.counters.bump("reads_from_partition")
                    out = {atom_type.identifier_attr: surrogate}
                    for attr in attrs:
                        out[attr] = copy.get(attr)
                    return out
        values = self._read_base_values(surrogate)
        out = {atom_type.identifier_attr: surrogate}
        for attr in attrs:
            out[attr] = values.get(attr)
        return out

    def get_or_none(self, surrogate: Surrogate) -> dict[str, Any] | None:
        """The whole atom, or None when no atom has this logical address.

        The read path of molecule construction and scans: one
        address-table probe both tests existence and finds the base
        record, where ``exists`` then ``get`` probed twice.  Counts
        ``atoms_read`` like :meth:`get`.
        """
        record = self.addresses.base_record(surrogate)
        if record is None:
            return None
        self.counters.bump("atoms_read")
        payload = self._containers[surrogate.atom_type].read(record)
        # A memo hit is copied here; a miss (or no memo yet) decodes.
        entry = self._decoded.get(payload) if self._decoded else None
        if entry is None:
            return self.decode(payload)
        values, copiers = entry
        out = values.copy()
        for name, copy in copiers:
            out[name] = copy(values[name])
        return out

    def exists(self, surrogate: Surrogate) -> bool:
        return self.addresses.exists(surrogate)

    def atoms_of_type(self, type_name: str) -> Iterator[tuple[Surrogate, dict[str, Any]]]:
        """All atoms of a type in system-defined (physical) order."""
        atom_type = self.schema.atom_type(type_name)
        container = self._container(type_name)
        for _record_id, payload in container.scan():
            values = self.decode(payload)
            yield values[atom_type.identifier_attr], values

    def count(self, type_name: str) -> int:
        return self.addresses.count(type_name)

    def find_by_key(self, type_name: str, key: tuple | Any) -> Surrogate | None:
        """Locate an atom by its KEYS_ARE value (None when absent)."""
        if not isinstance(key, tuple):
            key = (key,)
        return self._key_index.get(type_name, {}).get(key)

    # ----------------------------------------------------------------- modifies --

    def modify(self, surrogate: Surrogate, values: dict[str, Any]) -> None:
        """Modify selected attributes of an atom (never the IDENTIFIER).

        Reference-attribute changes imply implicit updates on other atoms
        to adjust the appropriate back-reference attributes.
        """
        atom_type = self.schema.atom_type(surrogate.atom_type)
        changes = atom_type.validate_values(values, partial=True)
        self._check_targets_exist(atom_type, changes)
        old = self._read_base_values(surrogate)
        new = dict(old)
        new.update(changes)
        if new == old:
            return
        self._key_move(atom_type, old, new, surrogate)

        # Back-reference deltas for every changed reference attribute.
        # Self-references (an atom connected to itself over a recursive
        # association) are folded into ``new`` directly — writing them via
        # the generic path would be overwritten by the base rewrite below.
        for attr_name in atom_type.reference_attrs():
            if attr_name not in changes:
                continue
            attr_type = atom_type.attr(attr_name)
            before = set(reference_values(attr_type, old.get(attr_name)))
            after = set(reference_values(attr_type, new.get(attr_name)))
            for removed in before - after:
                if removed == surrogate:
                    self._self_backref(atom_type, attr_name, surrogate, new,
                                       add=False)
                else:
                    self._backref_remove(atom_type, attr_name, surrogate,
                                         removed)
            for added in after - before:
                if added == surrogate:
                    self._self_backref(atom_type, attr_name, surrogate, new,
                                       add=True)
                else:
                    self._backref_add(atom_type, attr_name, surrogate, added)

        store = self.versions
        store.preserve(surrogate, old)
        store.note_touched(surrogate.atom_type)
        self._write_base(surrogate, new)
        self._notify_modify(surrogate, old, new)
        self.counters.bump("atoms_modified")

    # ------------------------------------------------------------------ deletes --

    def delete(self, surrogate: Surrogate) -> None:
        """Delete an atom, disconnecting it from all its partners.

        Every reference this atom holds (in either association direction)
        is withdrawn from the partner atom's paired attribute, so no
        dangling references remain; then all records are removed and the
        logical address is released.
        """
        atom_type = self.schema.atom_type(surrogate.atom_type)
        values = self._read_base_values(surrogate)
        store = self.versions
        store.preserve(surrogate, values)
        store.note_touched(surrogate.atom_type)
        for attr_name in atom_type.reference_attrs():
            for target in reference_values(atom_type.attr(attr_name),
                                           values.get(attr_name)):
                if self.addresses.exists(target):
                    self._backref_remove(atom_type, attr_name, surrogate,
                                         target)
        for structure in self._structures_by_type.get(surrogate.atom_type, []):
            structure.on_delete(surrogate, values)
            self.deferred.cancel(structure.structure_id, surrogate)
        placement = self.addresses.placement(surrogate, BASE_STRUCTURE)
        assert placement is not None
        self._container(surrogate.atom_type).delete(placement.record)
        self._key_unregister(atom_type, values)
        self.addresses.release(surrogate)
        self.counters.bump("atoms_deleted")

    # ------------------------------------------------- back-reference machinery --

    def _backref_add(self, source_type: AtomType, source_attr: str,
                     source: Surrogate, target: Surrogate) -> None:
        assoc = self.schema.association(source_type.name, source_attr)
        target_type = self.schema.atom_type(assoc.target_type)
        attr_type = target_type.attr(assoc.target_attr)
        current = self._read_base_values(target)
        if isinstance(attr_type, ReferenceType):
            existing = current.get(assoc.target_attr)
            if existing is not None and existing != source:
                raise IntegrityError(
                    f"{target}.{assoc.target_attr} already references "
                    f"{existing}; disconnect it before connecting {source}"
                )
            if existing == source:
                return
            new_value: Any = source
        else:
            members = list(current.get(assoc.target_attr) or [])
            if source in members:
                return
            members.append(source)
            members.sort(key=repr)
            if isinstance(attr_type, SetType) and \
                    attr_type.max_card is not None and \
                    len(members) > attr_type.max_card:
                raise CardinalityError(
                    f"{target}.{assoc.target_attr} may hold at most "
                    f"{attr_type.max_card} references"
                )
            new_value = members
        new = dict(current)
        new[assoc.target_attr] = new_value
        store = self.versions
        store.preserve(target, current)
        store.note_touched(target.atom_type)
        self._write_base(target, new)
        self._notify_modify(target, current, new)
        self.counters.bump("backrefs_maintained")

    def _backref_remove(self, source_type: AtomType, source_attr: str,
                        source: Surrogate, target: Surrogate) -> None:
        assoc = self.schema.association(source_type.name, source_attr)
        attr_type = self.schema.atom_type(assoc.target_type) \
            .attr(assoc.target_attr)
        current = self._read_base_values(target)
        if isinstance(attr_type, ReferenceType):
            if current.get(assoc.target_attr) != source:
                return
            new_value: Any = None
        else:
            members = list(current.get(assoc.target_attr) or [])
            if source not in members:
                return
            members.remove(source)
            new_value = members
        new = dict(current)
        new[assoc.target_attr] = new_value
        store = self.versions
        store.preserve(target, current)
        store.note_touched(target.atom_type)
        self._write_base(target, new)
        self._notify_modify(target, current, new)
        self.counters.bump("backrefs_maintained")

    def _self_backref(self, atom_type: AtomType, source_attr: str,
                      surrogate: Surrogate, new: dict[str, Any],
                      add: bool) -> None:
        """Maintain the back-reference of a self-referencing atom in place."""
        assoc = self.schema.association(atom_type.name, source_attr)
        attr_type = atom_type.attr(assoc.target_attr)
        if isinstance(attr_type, ReferenceType):
            if add:
                existing = new.get(assoc.target_attr)
                if existing is not None and existing != surrogate:
                    raise IntegrityError(
                        f"{surrogate}.{assoc.target_attr} already references "
                        f"{existing}"
                    )
                new[assoc.target_attr] = surrogate
            elif new.get(assoc.target_attr) == surrogate:
                new[assoc.target_attr] = None
            return
        members = list(new.get(assoc.target_attr) or [])
        if add and surrogate not in members:
            members.append(surrogate)
            members.sort(key=repr)
            if isinstance(attr_type, SetType) and \
                    attr_type.max_card is not None and \
                    len(members) > attr_type.max_card:
                raise CardinalityError(
                    f"{surrogate}.{assoc.target_attr} may hold at most "
                    f"{attr_type.max_card} references"
                )
        elif not add and surrogate in members:
            members.remove(surrogate)
        new[assoc.target_attr] = members

    def _check_targets_exist(self, atom_type: AtomType,
                             values: dict[str, Any]) -> None:
        for attr_name, value in values.items():
            attr_type = atom_type.attr(attr_name)
            if not is_reference(attr_type):
                continue
            for target in reference_values(attr_type, value):
                if not self.addresses.exists(target):
                    raise IntegrityError(
                        f"{atom_type.name}.{attr_name} references "
                        f"non-existent atom {target}"
                    )

    # -------------------------------------------------------------- key indexes --

    def _key_of(self, atom_type: AtomType,
                values: dict[str, Any]) -> tuple | None:
        if not atom_type.keys:
            return None
        return tuple(values.get(attr) for attr in atom_type.keys)

    def _check_key_free(self, atom_type: AtomType,
                        values: dict[str, Any]) -> None:
        key = self._key_of(atom_type, values)
        if key is None or all(part is None for part in key):
            return
        holder = self._key_index.setdefault(atom_type.name, {}).get(key)
        if holder is not None:
            raise DuplicateKeyError(
                f"atom type {atom_type.name!r}: key {key} already taken "
                f"by {holder}"
            )

    def _key_register(self, atom_type: AtomType, values: dict[str, Any],
                      surrogate: Surrogate) -> None:
        key = self._key_of(atom_type, values)
        if key is not None and not all(part is None for part in key):
            self._key_index.setdefault(atom_type.name, {})[key] = surrogate

    def _key_unregister(self, atom_type: AtomType,
                        values: dict[str, Any]) -> None:
        key = self._key_of(atom_type, values)
        if key is not None:
            self._key_index.get(atom_type.name, {}).pop(key, None)

    def _key_move(self, atom_type: AtomType, old: dict[str, Any],
                  new: dict[str, Any], surrogate: Surrogate) -> None:
        old_key = self._key_of(atom_type, old)
        new_key = self._key_of(atom_type, new)
        if old_key == new_key:
            return
        if new_key is not None and not all(p is None for p in new_key):
            holder = self._key_index.setdefault(atom_type.name, {}) \
                .get(new_key)
            if holder is not None and holder != surrogate:
                raise DuplicateKeyError(
                    f"atom type {atom_type.name!r}: key {new_key} already "
                    f"taken by {holder}"
                )
        if old_key is not None:
            self._key_index.get(atom_type.name, {}).pop(old_key, None)
        if new_key is not None and not all(p is None for p in new_key):
            self._key_index[atom_type.name][new_key] = surrogate

    # --------------------------------------------------------- record plumbing --

    def _read_base_values(self, surrogate: Surrogate) -> dict[str, Any]:
        record = self.addresses.base_record(surrogate)
        if record is None:
            raise AtomNotFoundError(f"no atom with logical address {surrogate}")
        return self.decode(self._containers[surrogate.atom_type].read(record))

    def decode(self, payload: bytes) -> dict[str, Any]:
        """Decode a whole-atom record, once per stored image; the caller
        gets its own copy.  Only a miss decodes and counts
        ``atom_decodes``, interning its surrogates into the memo's pool;
        a miss that would push the memo past the buffer's capacity clears
        the memo and the pool first."""
        memo = self._decoded
        if memo is None:
            memo = self._decoded = {}
            self._interned = {}
        entry = memo.get(payload)
        if entry is None:
            held = self._decoded_bytes + len(payload)
            if held > self.storage.buffer.capacity_bytes:
                memo.clear()
                self._interned = {}
                held = len(payload)
            values = decode_atom(payload, self._interned)
            entry = (values, tuple((name, _copier(value))
                                   for name, value in values.items()
                                   if type(value) in _NESTED))
            memo[payload] = entry
            self._decoded_bytes = held
            self.counters.bump("atom_decodes")
        values, copiers = entry
        out = values.copy()
        for name, copy in copiers:
            out[name] = copy(values[name])
        return out

    def forget_decodes(self) -> None:
        """Drop the memo; the next decode starts it, and its surrogate
        pool, afresh."""
        self._decoded = None
        self._decoded_bytes = 0

    def _write_base(self, surrogate: Surrogate,
                    values: dict[str, Any]) -> None:
        placement = self.addresses.placement(surrogate, BASE_STRUCTURE)
        assert placement is not None
        new_record = self._container(surrogate.atom_type).update(
            placement.record, encode_atom(values)
        )
        if new_record != placement.record:
            self.addresses.place(surrogate, BASE_STRUCTURE, new_record)

    def _notify_modify(self, surrogate: Surrogate, old: dict[str, Any],
                       new: dict[str, Any]) -> None:
        """Drive the tuning structures after a base rewrite.

        Immediate structures (access paths) adjust themselves here;
        deferred structures are marked stale and queued (deferred update).
        """
        for structure in self._structures_by_type.get(surrogate.atom_type, []):
            structure.on_modify(surrogate, old, new)
            if structure.deferred:
                self.addresses.mark_stale(surrogate, structure.structure_id)
                self.deferred.defer(structure, surrogate)
