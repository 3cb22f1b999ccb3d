"""The host side: PRIMA behind a message interface.

The server executes molecule queries on behalf of workstations and accepts
checked-in modifications at commit time (checkout/checkin, [KLMP84]).
The façade rides on :mod:`repro.serve`: a
:class:`~repro.serve.SessionManager` multiplexes the workstations (each
holding its own :func:`repro.connect` connection, hence its own session
with transaction/lock scope), queries stream through remote cursors
(OPEN / FETCH(n) / CLOSE over the network model), and checkins run as
short-lived transactions.  ``query()`` with the default whole-set fetch
costs one request and one response message (open-with-fetch), exactly
the set-oriented MAD interface of benchmark A9.
"""

from __future__ import annotations

from typing import Any

from repro.access.encoding import encoded_size
from repro.data.result import ResultSet
from repro.db import Prima
from repro.mad.types import Surrogate
from repro.obs.network import NetworkModel
from repro.serve import DEFAULT_FETCH_SIZE, Connection, SessionManager, connect


class PrimaServer:
    """Message-oriented facade over a Prima instance.

    ``sessions`` is the serving subsystem underneath: workstations
    connect to it, while the server's direct entry points (``query``,
    ``checkin``) run on a lazily opened *service connection*.
    ``stats``/``model`` alias the manager's network accounting, so all
    traffic of all sessions lands in one place — per-session splits come
    from ``sessions.io_report()``.
    """

    def __init__(self, db: Prima, model: NetworkModel | None = None,
                 max_sessions: int = 8, admission: str = "reject",
                 default_fetch_size: int | None = None) -> None:
        self.db = db
        self.sessions = SessionManager(
            db, model=model, max_sessions=max_sessions, admission=admission,
            default_fetch_size=default_fetch_size)
        self.model = self.sessions.model
        self.stats = self.sessions.stats
        self._service: Connection | None = None

    # -- internals ---------------------------------------------------------------

    def _message(self, nbytes: int) -> None:
        self.stats.account(self.model, nbytes)

    def _service_connection(self) -> Connection:
        """The server's own connection for direct (non-workstation)
        calls."""
        if self._service is None or self._service.closed:
            self._service = connect(self.sessions, name="service")
        return self._service

    def disconnect(self) -> None:
        """Close the service connection: releases its cursors, its
        retained write locks and its admission slot.  The next direct
        call reconnects transparently."""
        if self._service is not None and not self._service.closed:
            self._service.close()

    # -- set-oriented interface (the MAD interface across the wire) -----------------

    def query(self, mql: str,
              fetch_size: Any = DEFAULT_FETCH_SIZE) -> ResultSet:
        """A molecule query over a remote streaming cursor.

        With ``fetch_size=None`` (the default when the server has no
        ``default_fetch_size`` set) the whole set ships in the open response
        — one request, one response, the paper's set-oriented coupling.
        An integer ``fetch_size`` streams the set in batches with
        one-batch prefetch instead (see :mod:`repro.serve.cursor`).
        """
        return self._service_connection().query(mql, fetch_size=fetch_size)

    def checkin(self, modifications: dict[Surrogate, dict[str, Any]],
                deletions: list[Surrogate] | None = None,
                creations: list[tuple[Surrogate, dict[str, Any]]] | None
                = None) -> dict[Surrogate, Surrogate]:
        """Apply a workstation's object buffer in one message pair.

        Delegates to the service connection's transactional checkin (see
        :meth:`repro.serve.Connection.checkin`): creations are inserted
        under real surrogates (the temporary → real mapping is returned
        and billed into the ack), references among new atoms are
        remapped in two phases so cyclic n:m references work, and the
        whole application is undo-logged — a failing checkin rolls back
        cleanly.
        """
        return self._service_connection().checkin(
            modifications, deletions=deletions, creations=creations)

    # -- record-at-a-time interface (the conventional baseline) ------------------------

    def query_roots(self, mql: str) -> list[Surrogate]:
        """Baseline step 1: ship only the qualifying root surrogates."""
        self._message(len(mql.encode("utf-8")))
        result = self.db.query(mql)
        roots = [molecule.surrogate for molecule in result]
        self._message(16 * max(len(roots), 1))
        return roots

    def fetch_atom(self, surrogate: Surrogate) -> dict[str, Any]:
        """Baseline step 2..n: one round trip per atom."""
        self._message(16)                                 # request
        values = self.db.access.get(surrogate)
        self._message(encoded_size(values))               # response
        return values

    def fetch_atoms(self, surrogates: list[Surrogate]
                    ) -> dict[Surrogate, dict[str, Any]]:
        """Fetch a *batch* of atoms in one message pair.

        The fix for the record-at-a-time N+1: instead of one round trip
        per atom, a closure traversal ships each BFS frontier as one
        request (16 bytes per surrogate) and receives all its atoms in
        one response — the message count drops from atoms to frontier
        levels (visible in :class:`NetworkStats`).
        """
        self._message(16 * max(len(surrogates), 1))       # request
        atoms = {surrogate: self.db.access.get(surrogate)
                 for surrogate in surrogates}
        self._message(sum(encoded_size(values)
                          for values in atoms.values()) or 8)  # response
        return atoms
