"""The workstation side: application layer with an object buffer.

Effective workstation-host coupling is a prime requirement for interactive
engineering applications (paper, section 4).  The application layer (AL)
runs close to the application: molecules are **checked out** into a local
*object buffer*, most DBMS work then happens locally (large buffer sizes,
locality of reference), and modified molecules move back to PRIMA at commit
time (**checkin**).

Every workstation holds its own **connection** to the server's serving
layer (:func:`repro.connect`): checkout drives a *remote streaming cursor*,
and checkin runs as a short transaction under the session scope.  Three
checkout shapes cover benchmark A9's comparison and the streaming mode the
serving layer adds:

* ``set_oriented=True`` (default, ``fetch_size=None``) — the whole
  molecule set ships in the cursor's open response: one query message,
  one response (the MAD interface);
* ``set_oriented=True`` with an integer ``fetch_size`` — the **checkout
  stream**: molecules arrive in fetch-size batches with one-batch
  prefetch, and the object buffer fills incrementally as the returned
  cursor is consumed — at most ``2 * fetch_size`` molecules are in
  flight, so abandoning the cursor stops server-side construction at
  most one batch later;
* ``set_oriented=False`` — the conventional record-at-a-time baseline:
  the root set is fetched first, then the atom closure round trip by
  round trip (``batched=True`` upgrades the closure to one message pair
  per BFS frontier via the server's ``fetch_atoms`` — the N+1 fix —
  while the default keeps the historical one-atom-per-trip baseline).
"""

from __future__ import annotations

from typing import Any

from repro.coupling.server import PrimaServer
from repro.data.result import ResultSet
from repro.errors import CouplingError
from repro.mad.molecule import Molecule
from repro.mad.types import Surrogate, reference_values
from repro.serve import DEFAULT_FETCH_SIZE, Connection, connect


class ObjectBuffer:
    """The workstation-resident cache of checked-out atoms."""

    def __init__(self) -> None:
        self._atoms: dict[Surrogate, dict[str, Any]] = {}
        self._dirty: set[Surrogate] = set()
        self.local_reads = 0
        self.local_writes = 0

    def __len__(self) -> int:
        return len(self._atoms)

    def __contains__(self, surrogate: Surrogate) -> bool:
        return surrogate in self._atoms

    def load(self, surrogate: Surrogate, values: dict[str, Any]) -> None:
        self._atoms[surrogate] = dict(values)

    def read(self, surrogate: Surrogate) -> dict[str, Any]:
        """Local read — no host communication."""
        try:
            values = self._atoms[surrogate]
        except KeyError:
            raise CouplingError(
                f"atom {surrogate} is not checked out"
            ) from None
        self.local_reads += 1
        return dict(values)

    def write(self, surrogate: Surrogate, values: dict[str, Any]) -> None:
        """Local modification — shipped to the host only at checkin."""
        if surrogate not in self._atoms:
            raise CouplingError(f"atom {surrogate} is not checked out")
        self._atoms[surrogate].update(values)
        self._dirty.add(surrogate)
        self.local_writes += 1

    def dirty_atoms(self) -> dict[Surrogate, dict[str, Any]]:
        return {s: dict(self._atoms[s]) for s in sorted(self._dirty)}

    def clear(self) -> None:
        self._atoms.clear()
        self._dirty.clear()


class Workstation:
    """One engineering workstation coupled to a PRIMA server."""

    def __init__(self, server: PrimaServer, name: str = "ws") -> None:
        self.server = server
        self.name = name
        self.buffer = ObjectBuffer()
        self._session: Connection | None = None
        self._checked_out: list[Molecule] = []
        #: atoms created locally: temporary surrogate -> values.
        self._creations: dict[Surrogate, dict[str, Any]] = {}
        self._deletions: list[Surrogate] = []
        self._temp_counter = 0
        #: temp -> real mapping of the last commit.
        self.last_mapping: dict[Surrogate, Surrogate] = {}

    @property
    def session(self) -> Connection:
        """This workstation's connection to the server (opened lazily)."""
        if self._session is None or self._session.closed:
            self._session = connect(self.server.sessions, name=self.name)
        return self._session

    def disconnect(self) -> None:
        """Close the connection: releases cursors, locks, the admission
        slot.  Local state (object buffer, pending creations) survives —
        the next server interaction reconnects."""
        if self._session is not None and not self._session.closed:
            self._session.close()

    # -- checkout ------------------------------------------------------------------

    def checkout(self, mql: str, set_oriented: bool = True,
                 fetch_size: Any = DEFAULT_FETCH_SIZE,
                 batched: bool = False) -> ResultSet:
        """Fetch the molecules of ``mql`` into the object buffer.

        Set-oriented checkout opens a remote cursor on this workstation's
        connection; every molecule is loaded into the object buffer *as its
        batch arrives at the workstation* — immediately for the default
        whole-set fetch, incrementally while the returned cursor is
        consumed for a streaming ``fetch_size``.
        """
        if set_oriented:
            cursor = self.session.checkout(
                mql, fetch_size=fetch_size, on_arrival=self._receive)
            return ResultSet(source=cursor, plan_text=cursor.plan_text)
        # Record-at-a-time baseline: roots first, then the closure —
        # atom by atom, or frontier-batched when ``batched`` is set.
        roots = self.server.query_roots(mql)
        for root in roots:
            self._fetch_closure(root, batched=batched)
        result = self.server.db.query(mql)   # shape only; atoms came singly
        for molecule in result:
            self._receive(molecule)
        return result

    def _receive(self, molecule: Molecule) -> None:
        """One checked-out molecule arrived at the workstation."""
        self._load_molecule(molecule)
        self._checked_out.append(molecule)

    def _fetch_closure(self, root: Surrogate, batched: bool = False) -> None:
        """Fetch ``root`` and everything it references.

        ``batched=True`` (the fixed protocol) ships each BFS frontier as
        one ``fetch_atoms`` message pair; the default replays the
        conventional one-atom-per-round-trip interface (the A9 baseline,
        N+1 round trips by design — matching :meth:`checkout`'s
        default, so the benchmark comparison stays honest)."""
        seen: set[Surrogate] = set()
        schema = self.server.db.schema

        def references(surrogate: Surrogate,
                       values: dict[str, Any]) -> list[Surrogate]:
            atom_type = schema.atom_type(surrogate.atom_type)
            out: list[Surrogate] = []
            for attr_name in atom_type.reference_attrs():
                out.extend(reference_values(atom_type.attr(attr_name),
                                            values.get(attr_name)))
            return out

        frontier = [root]
        while frontier:
            if batched:
                wanted = [s for s in dict.fromkeys(frontier)
                          if s not in seen]
                seen.update(wanted)
                frontier = []
                if not wanted:
                    continue
                for surrogate, values in \
                        self.server.fetch_atoms(wanted).items():
                    self.buffer.load(surrogate, values)
                    frontier.extend(t for t in references(surrogate, values)
                                    if t not in seen)
            else:
                surrogate = frontier.pop()
                if surrogate in seen:
                    continue
                seen.add(surrogate)
                values = self.server.fetch_atom(surrogate)
                self.buffer.load(surrogate, values)
                frontier.extend(t for t in references(surrogate, values)
                                if t not in seen)

    def _load_molecule(self, molecule: Molecule) -> None:
        self.buffer.load(molecule.surrogate, molecule.atom)
        for comps in molecule.components.values():
            for comp in comps:
                self._load_molecule(comp)

    # -- local work -------------------------------------------------------------------

    def read(self, surrogate: Surrogate) -> dict[str, Any]:
        """Read from the object buffer (locality of reference)."""
        return self.buffer.read(surrogate)

    def modify(self, surrogate: Surrogate, values: dict[str, Any]) -> None:
        """Modify locally; shipped at commit."""
        if surrogate in self._creations:
            self._creations[surrogate].update(values)
            self.buffer.local_writes += 1
            return
        self.buffer.write(surrogate, values)

    def create(self, type_name: str,
               values: dict[str, Any] | None = None) -> Surrogate:
        """Create a new atom *locally* under a temporary surrogate.

        Newly created molecules are moved back to PRIMA at commit time
        (paper, section 4); the temporary surrogate is remapped to a real
        one by the server and the mapping is applied to the caller's view.
        References may point at checked-out atoms or at other local
        creations (in any order — cycles included).
        """
        self._temp_counter += 1
        temp = Surrogate(type_name, -self._temp_counter)
        self._creations[temp] = dict(values or {})
        self.buffer.local_writes += 1
        return temp

    def delete(self, surrogate: Surrogate) -> None:
        """Delete locally; shipped at commit."""
        if surrogate in self._creations:
            del self._creations[surrogate]
            return
        if surrogate not in self.buffer:
            raise CouplingError(f"atom {surrogate} is not checked out")
        self._deletions.append(surrogate)

    # -- checkin ----------------------------------------------------------------------

    def commit(self) -> int:
        """Checkin: move modified and newly created molecules back to
        PRIMA in one message pair; returns the number of atoms applied."""
        dirty = self.buffer.dirty_atoms()
        cleaned: dict[Surrogate, dict[str, Any]] = {}
        schema = self.server.db.schema
        for surrogate, values in dirty.items():
            if surrogate in self._deletions:
                continue
            identifier = schema.atom_type(surrogate.atom_type).identifier_attr
            values.pop(identifier, None)
            cleaned[surrogate] = values
        creations = list(self._creations.items())
        deletions = list(self._deletions)
        applied = 0
        if cleaned or creations or deletions:
            mapping = self.session.checkin(cleaned, deletions=deletions,
                                           creations=creations)
            applied = len(cleaned) + len(creations) + len(deletions)
            self.last_mapping = mapping
        self.buffer.clear()
        self._creations = {}
        self._deletions = []
        self._checked_out = []
        return applied
