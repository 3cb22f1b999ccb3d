"""Copy-on-write atom versions: snapshot reads without read locks.

A read that runs against a *consistent version* of the database needs
no type-level S lock at all — there is more than one admissible
serialisation, and pinning a reader to the state as of its open is one
of them.  This module supplies the two halves of that idea:

:class:`AtomVersionStore`
    The copy-on-write side.  An **epoch counter** (the atom-version
    clock, advanced by :meth:`publish` whenever a checkin, DML
    statement, or DDL commits) stamps every pre-image: before a writer
    overwrites or deletes an atom while any snapshot is pinned, the
    atom's *old* values are preserved under the current epoch.  A
    reader pinned at epoch *R* reconstructs the state as of *R* by
    taking, per atom, the preserved pre-image with the smallest stamp
    ``>= R`` — or the live record if none exists (the atom never
    changed since).  Inserts preserve a ``None`` marker ("did not exist
    at this epoch"), deletes preserve the final values ("still existed").
    Only the *first* write per atom and epoch window records a
    pre-image (the oldest one is the one every reader at that epoch
    wants), nothing is recorded while no snapshot is pinned, and
    unpinning garbage-collects every version no remaining reader can
    select.

:class:`SnapshotView`
    The read facade.  It mirrors the :class:`~repro.access.atoms
    .AtomManager` read surface (``get`` / ``get_or_none`` / ``exists`` /
    ``atoms_of_type`` / ``find_by_key`` / ``count`` / structure
    inspection), overlaying the version store on the live manager:
    atoms created after the epoch are invisible, atoms deleted after it
    are resurrected from their pre-images, atoms modified after it read
    their epoch values.  Ordered scans ask :meth:`SnapshotView.overlay`
    for the set of *displaced* atoms — every atom with a pre-image at
    this epoch — skip them in the live index walk, and merge their
    epoch values back in at the correct sorted position.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import AtomNotFoundError
from repro.mad.types import Surrogate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.access.atoms import AtomManager


class AtomVersionStore:
    """Epoch clock + pinned-snapshot refcounts + pre-image versions."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        #: The published atom-version epoch (the snapshot clock).
        self.epoch = 0
        #: epoch -> number of snapshots pinned at it.
        self._pins: dict[int, int] = {}
        #: surrogate -> [(stamp, values-or-None)] with strictly
        #: increasing stamps; ``None`` values mean "did not exist".
        self._pre_images: dict[Surrogate, list[tuple[int,
                                                     dict[str, Any] | None]]] = {}
        self.versions_preserved = 0
        #: Atom types written since the last :meth:`publish` — drained
        #: into the epoch delta handed to listeners at the next commit
        #: boundary.  Runtime state only (not checkpointed).
        self._touched: set[str] = set()
        #: ``callback(epoch, frozenset(touched_types))`` hooks invoked
        #: after each publish, *outside* the store mutex.  Callbacks run
        #: on the committing thread (which typically still holds the
        #: engine mutex), so they do cheap bookkeeping and queue
        #: handoffs only — never engine work.
        self._listeners: list[Any] = []

    # -- the epoch clock ------------------------------------------------------

    def publish(self) -> int:
        """Advance the epoch (a commit boundary); returns the new epoch.

        The set of atom types touched since the previous publish is
        drained into a **typed epoch delta** ``(epoch, frozenset)`` and
        handed to every registered listener — the invalidation hook live
        queries ride on.  Listeners fire outside the mutex, on the
        committing thread.
        """
        with self._mutex:
            self.epoch += 1
            epoch = self.epoch
            touched = frozenset(self._touched)
            self._touched.clear()
            listeners = list(self._listeners)
        for callback in listeners:
            callback(epoch, touched)
        return epoch

    def note_touched(self, type_name: str) -> None:
        """Record that an atom of ``type_name`` was written this epoch
        window (insert / modify / delete / backref maintenance)."""
        with self._mutex:
            self._touched.add(type_name)

    def add_listener(self, callback: Any) -> None:
        """Register a ``callback(epoch, touched_types)`` publish hook."""
        with self._mutex:
            if callback not in self._listeners:
                self._listeners.append(callback)

    def remove_listener(self, callback: Any) -> None:
        with self._mutex:
            try:
                self._listeners.remove(callback)
            except ValueError:
                pass

    def pin(self) -> int:
        """Pin a snapshot at the current epoch; returns that epoch."""
        with self._mutex:
            self._pins[self.epoch] = self._pins.get(self.epoch, 0) + 1
            return self.epoch

    def unpin(self, epoch: int) -> None:
        """Release one pin; versions nobody can select anymore are GCed."""
        with self._mutex:
            count = self._pins.get(epoch, 0) - 1
            if count > 0:
                self._pins[epoch] = count
            else:
                self._pins.pop(epoch, None)
            self._gc_locked()

    @property
    def pinned(self) -> bool:
        return bool(self._pins)

    def _gc_locked(self) -> None:
        if not self._pins:
            self._pre_images.clear()
            return
        floor = min(self._pins)
        dead = []
        for surrogate, versions in self._pre_images.items():
            keep = [(s, v) for s, v in versions if s >= floor]
            if keep:
                self._pre_images[surrogate] = keep
            else:
                dead.append(surrogate)
        for surrogate in dead:
            del self._pre_images[surrogate]

    # -- copy-on-write --------------------------------------------------------

    def preserve(self, surrogate: Surrogate,
                 values: dict[str, Any] | None) -> None:
        """Record an atom's pre-image before a write (``None``: the atom
        did not exist).  A no-op while no snapshot is pinned; only the
        first write per atom and epoch window is preserved."""
        if not self._pins:   # fast path — writers are serialised anyway
            return
        with self._mutex:
            if not self._pins:
                return
            stamp = self.epoch
            versions = self._pre_images.setdefault(surrogate, [])
            if versions and versions[-1][0] >= stamp:
                return   # keep the oldest pre-image of this window
            versions.append(
                (stamp, None if values is None else dict(values)))
            self.versions_preserved += 1

    # -- reader side ----------------------------------------------------------

    def version_at(self, surrogate: Surrogate,
                   epoch: int) -> tuple[bool, dict[str, Any] | None]:
        """``(True, values-or-None)`` when the atom changed since
        ``epoch`` (its pre-image applies), ``(False, None)`` when the
        live record is current for that epoch."""
        versions = self._pre_images.get(surrogate)
        if not versions:
            return (False, None)
        with self._mutex:
            for stamp, values in self._pre_images.get(surrogate, ()):
                if stamp >= epoch:
                    return (True, values)
        return (False, None)

    def changed_since(self, epoch: int) -> dict[Surrogate,
                                                dict[str, Any] | None]:
        """All displaced atoms of a snapshot: surrogate -> epoch values
        (``None``: did not exist at the epoch)."""
        with self._mutex:
            out: dict[Surrogate, dict[str, Any] | None] = {}
            for surrogate, versions in self._pre_images.items():
                for stamp, values in versions:
                    if stamp >= epoch:
                        out[surrogate] = values
                        break
            return out

    def __repr__(self) -> str:
        return (f"AtomVersionStore(epoch={self.epoch}, "
                f"pins={sum(self._pins.values())}, "
                f"versions={sum(len(v) for v in self._pre_images.values())})")


class SnapshotView:
    """An AtomManager-shaped read facade pinned to one epoch."""

    #: Scans check this flag to switch into snapshot mode (skip record
    #: copies that may be fresher than the epoch, merge displaced atoms).
    is_snapshot = True

    def __init__(self, manager: "AtomManager", epoch: int) -> None:
        self._manager = manager
        self._store = manager.versions
        self.epoch = epoch
        self.schema = manager.schema
        self.counters = manager.counters
        self._released = False

    def release(self) -> None:
        """Drop this snapshot's pin (idempotent)."""
        if not self._released:
            self._released = True
            self._store.unpin(self.epoch)

    def __enter__(self) -> "SnapshotView":
        return self

    def __exit__(self, _exc_type, _exc, _tb) -> None:
        self.release()

    # -- the AtomManager read surface -----------------------------------------

    def exists(self, surrogate: Surrogate) -> bool:
        changed, values = self._store.version_at(surrogate, self.epoch)
        if changed:
            return values is not None
        return self._manager.exists(surrogate)

    def get_or_none(self, surrogate: Surrogate) -> dict[str, Any] | None:
        """The whole atom as of the epoch, or None when it did not exist
        then (see :meth:`AtomManager.get_or_none`)."""
        changed, values = self._store.version_at(surrogate, self.epoch)
        if not changed:
            return self._manager.get_or_none(surrogate)
        if values is None:
            return None
        self.counters.bump("atoms_read")
        self.counters.bump("snapshot_version_reads")
        return dict(values)

    def get(self, surrogate: Surrogate,
            attrs: list[str] | None = None) -> dict[str, Any]:
        changed, values = self._store.version_at(surrogate, self.epoch)
        if not changed:
            return self._manager.get(surrogate, attrs)
        if values is None:
            raise AtomNotFoundError(
                f"no atom with logical address {surrogate} at epoch "
                f"{self.epoch}"
            )
        self.counters.bump("atoms_read")
        self.counters.bump("snapshot_version_reads")
        if attrs is None:
            return dict(values)
        atom_type = self.schema.atom_type(surrogate.atom_type)
        out: dict[str, Any] = {atom_type.identifier_attr: surrogate}
        for attr in attrs:
            out[attr] = values.get(attr)
        return out

    def atoms_of_type(self, type_name: str
                      ) -> Iterator[tuple[Surrogate, dict[str, Any]]]:
        """All atoms of a type *as of the epoch*: post-epoch creations
        are invisible, post-epoch deletions are resurrected, modified
        atoms read their epoch values."""
        seen: set[Surrogate] = set()
        for surrogate, live_values in self._manager.atoms_of_type(type_name):
            changed, values = self._store.version_at(surrogate, self.epoch)
            if changed and values is None:
                continue   # created after the epoch
            seen.add(surrogate)
            yield surrogate, (dict(values) if changed else live_values)
        # Resurrect atoms deleted after the epoch (skipping everything
        # the live walk already delivered — an atom deleted *behind*
        # the walk would otherwise appear twice).
        for surrogate, values in self._store.changed_since(self.epoch).items():
            if surrogate.atom_type != type_name or values is None:
                continue
            if surrogate in seen or self._manager.exists(surrogate):
                continue
            self.counters.bump("snapshot_version_reads")
            yield surrogate, dict(values)

    def count(self, type_name: str) -> int:
        return sum(1 for _ in self.atoms_of_type(type_name))

    def find_by_key(self, type_name: str,
                    key: tuple | Any) -> Surrogate | None:
        """Key lookup as of the epoch: a live holder whose key *moved*
        after the epoch does not count, and a displaced atom that held
        the key at the epoch does."""
        if not isinstance(key, tuple):
            key = (key,)
        atom_type = self.schema.atom_type(type_name)
        live = self._manager.find_by_key(type_name, key)
        if live is not None:
            changed, values = self._store.version_at(live, self.epoch)
            if not changed:
                return live
            if values is not None and self._key_of(atom_type, values) == key:
                return live
        # The epoch-time holder may have been displaced (key moved or
        # atom deleted after the epoch) — find it in the overlay.
        for surrogate, values in self._store.changed_since(self.epoch).items():
            if surrogate.atom_type != type_name or values is None:
                continue
            if self._key_of(atom_type, values) == key:
                return surrogate
        return None

    def _key_of(self, atom_type, values: dict[str, Any]) -> tuple | None:
        if not atom_type.keys:
            return None
        return tuple(values.get(attr) for attr in atom_type.keys)

    # -- displaced atoms (ordered-scan support) -------------------------------

    def overlay(self, type_name: str) -> dict[Surrogate,
                                              dict[str, Any] | None]:
        """Every displaced atom of a type: surrogate -> epoch values
        (``None``: invisible at this epoch).  Ordered scans skip these
        in the live index walk and merge the non-``None`` ones back in
        at the position their epoch values sort to."""
        return {
            surrogate: values
            for surrogate, values
            in self._store.changed_since(self.epoch).items()
            if surrogate.atom_type == type_name
        }

    # -- structure inspection (live: DDL under a pinned snapshot is
    # outside the snapshot contract, like most MVCC systems) ------------------

    def structure(self, name: str):
        return self._manager.structure(name)

    def structures_for(self, atom_type: str, kind: str | None = None):
        return self._manager.structures_for(atom_type, kind)

    def structure_names(self) -> list[str]:
        return self._manager.structure_names()

    def __repr__(self) -> str:
        return f"SnapshotView(epoch={self.epoch})"
