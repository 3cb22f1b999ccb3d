"""Multi-session serving: many clients multiplexed onto one PRIMA.

The workstation–server coupling of the paper checks molecules out to
engineering workstations; this module grows that single-caller façade
into a **serving subsystem**: a :class:`SessionManager` multiplexes many
concurrent client sessions onto one :class:`~repro.db.Prima` instance.

Each :class:`Session` owns

* a **top-level transaction** (:mod:`repro.txn`) as its *write* lock
  scope — DML takes X on the target atom type in a *subtransaction*,
  the lock inherited upward and retained until the session closes, so
  two sessions writing the same type conflict loudly; checkins run in
  short-lived top-level transactions that commit — and release their
  atom-level X locks — immediately, preserving the optimistic
  last-writer-wins checkout protocol.  Reads take **no locks at all**:
  opening a cursor pins a *snapshot* of the atom-version epoch
  (:mod:`repro.access.snapshots`) and the pipeline reads that
  consistent state for its whole life, no matter what writers commit
  concurrently;
* a set of **server cursors** (:mod:`repro.serve.cursor`) streaming lazy
  ResultSet pipelines to the client in fetch-size batches;
* a set of **server-side prepared statements**: PREPARE ships the MQL
  text once and returns a handle; EXECUTE_PREPARED re-executes it with
  fresh placeholder bindings — the request carries only the handle id +
  values, and the server binds its cached, catalog-versioned plan;
* **per-session counters**, merged into :meth:`SessionManager.io_report`
  (and mirrored as ``serve_*`` aggregates into the shared access-system
  counters).

**The protocol core.**  Every client exchange is one typed request in,
one typed response out (:mod:`repro.serve.protocol`), dispatched through
:meth:`Session.handle` — the single transport-agnostic entry point.  The
in-process transport (:class:`~repro.serve.connection.LocalTransport`)
calls ``handle`` directly; the asyncio daemon
(:mod:`repro.serve.daemon`) decodes the same dataclasses off a socket
and calls the same method.  Message/byte accounting happens once, in
``handle``, via :func:`repro.serve.protocol.wire_size` — so every
transport is billed identically against the network cost model.

**Resource hygiene at scale.**  Two knobs reclaim what abandoned
clients leave behind (both off by default; the daemon runs a periodic
reaper, in-process callers invoke :meth:`SessionManager.reap`):

* ``idle_timeout`` — a cursor nobody FETCHes from is closed, its
  pipeline (and pinned snapshot) released, and a statement handle
  nobody executes is deallocated; later use of either id raises
  :class:`~repro.errors.SessionExpiredError`;
* ``session_lease`` — a session with no message traffic at all is
  aborted and its admission slot returned; PING refreshes the lease
  without doing work (keepalive).

A closed session leaves only its counters behind (``io_report``'s
``session:<name>:*`` keys; its histograms are folded into one retired
registry), so a long-running server does not accumulate sessions.

**Admission control.**  ``max_sessions`` bounds concurrency; the
``admission`` knob decides what happens at the limit: ``"reject"``
raises :class:`~repro.errors.SessionLimitError` immediately, ``"queue"``
makes the opener wait until a slot frees (optionally bounded by
``queue_timeout`` seconds).  :meth:`SessionManager.admit` is the one
admission path: :meth:`SessionManager.open` waits between its steps on
a condition, the daemon awaits, so a full server never stalls its event
loop.

**Threading model.**  Every message is handled under **the engine
mutex** (``Engine.mutex``, one reentrant lock per engine, shared by
every manager on it), taken once around the whole of
:meth:`Session.handle`; there is no per-session lock.  Sessions
interleave *between* messages: a cursor spans many FETCHes with commits
in between, and its pinned snapshot epoch — not the mutex — keeps those
commits out of it.  Only teardown outside ``handle`` (``close``,
``abort``, ``expire``, ``reap_idle``) and the live-query requery take
the mutex themselves.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.access.encoding import molecules_size
from repro.data.prepared import PreparedStatement
from repro.errors import (
    CouplingError,
    SessionExpiredError,
    SessionLimitError,
    SessionStateError,
)
from repro.live import LiveQueryHub
from repro.mad.types import Surrogate
from repro.mql.ast import (
    DeleteStatement,
    InsertStatement,
    ModifyStatement,
)
from repro.obs import MetricsRegistry
from repro.obs.network import NetworkModel, NetworkStats
from repro.serve import protocol
from repro.serve.cursor import ServerCursor
from repro.serve.protocol import wire_size
from repro.serve.tuning import AUTO_PROBE_SIZE, tune_fetch_size
from repro.txn import Transaction, TransactionManager

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.data.result import ResultSet
    from repro.engine import Engine

#: Requests whose handling time is a *query* latency (they bind and run
#: a statement), observed into ``query_latency_ms`` next to the generic
#: per-message ``request_latency_ms``.
_QUERY_REQUESTS = (protocol.Open, protocol.Execute,
                   protocol.ExecutePrepared)


def _lock_resource(atom_type: str) -> tuple[str, str]:
    """The lock-table resource of one atom type (kept distinct from
    surrogate resources)."""
    return ("atom_type", atom_type)


class _HandleTable:
    """One session's id-keyed table of server resources: its cursors, or
    its prepared statements.

    Allocates ids, records when each entry was last used, reaps entries
    idle for the manager's ``idle_timeout`` and releases what is left on
    teardown.  Reaped ids are remembered, so a late lookup can say why
    the id is gone instead of claiming it never existed.
    """

    __slots__ = ("_session", "_noun", "_fate", "_counter", "_release",
                 "_entries", "_reaped", "_next")

    def __init__(self, session: "Session", noun: str, fate: str,
                 counter: str,
                 release: Callable[[Any], None] = lambda _resource: None,
                 ) -> None:
        self._session = session
        #: ``"cursor"`` / ``"prepared statement"`` — the error texts' noun.
        self._noun = noun
        #: What reaping did, formatted with the timeout.
        self._fate = fate
        #: The session counter that reaping bumps.
        self._counter = counter
        self._release = release
        #: id -> [resource, manager-clock time of last use]
        self._entries: dict[int, list] = {}
        self._reaped: set[int] = set()
        self._next = 0

    def add(self, resource: Any) -> int:
        """Store ``resource`` under a fresh id (used as of now)."""
        self._next += 1
        self._entries[self._next] = [resource, self._session.manager._now()]
        return self._next

    def get(self, handle_id: int) -> Any:
        """The resource under ``handle_id``, marked used now."""
        entry = self._entries.get(handle_id)
        if entry is None:
            session = self._session
            if handle_id in self._reaped:
                fate = self._fate.format(session.manager.idle_timeout)
                raise SessionExpiredError(
                    f"{self._noun} #{handle_id} of session "
                    f"{session.name!r} was {fate}")
            raise SessionStateError(
                f"session {session.name!r} has no {self._noun} #{handle_id}")
        entry[1] = self._session.manager._now()
        return entry[0]

    def discard(self, handle_id: int) -> bool:
        """Release one entry; False when the id is unknown (never
        allocated, already discarded, or reaped)."""
        entry = self._entries.pop(handle_id, None)
        if entry is not None:
            self._release(entry[0])
        return entry is not None

    def reap(self, now: float) -> int:
        """Release every entry idle for ``idle_timeout``, count them;
        returns how many went."""
        timeout = self._session.manager.idle_timeout
        if timeout is None:
            return 0
        idle = [handle_id for handle_id, (_r, used) in self._entries.items()
                if now - used >= timeout]
        for handle_id in idle:
            self.discard(handle_id)
            self._reaped.add(handle_id)
        if idle:
            self._session._count(self._counter, len(idle))
        return len(idle)

    def clear(self) -> int:
        """Release every entry (session teardown); returns how many."""
        released = list(self._entries)
        for handle_id in released:
            self.discard(handle_id)
        return len(released)

    def values(self) -> list[Any]:
        return [resource for resource, _used in self._entries.values()]

    def __len__(self) -> int:
        return len(self._entries)


class Session:
    """The server side of one client session: transaction scope,
    cursors, statement handles, counters.

    :meth:`handle` answers one protocol request; everything else public
    is resource ownership (``close``/``abort``/``expire``/``reap_idle``,
    the notification queue).  Clients never call a session directly —
    they hold a :class:`~repro.serve.connection.Connection` whose
    transport delivers their requests here.
    """

    def __init__(self, manager: "SessionManager", name: str) -> None:
        self.manager = manager
        self.name = name
        self.txn: Transaction = manager.txns.begin()
        #: A full metrics registry (still a ``Counters`` — the serving
        #: reports keep reading it as one): counters plus the session's
        #: request-latency and fetch-batch-size histograms, merged into
        #: the cluster view by ``metrics_report()``.
        self.counters = MetricsRegistry()
        self.closed = False
        self.expired = False
        #: Manager-clock time of the last message (the lease input).
        self.last_activity = manager._now()
        self._cursors = _HandleTable(
            self, "cursor",
            "reclaimed after {}s idle — its pipeline resources were "
            "returned", "cursors_reaped", ServerCursor.close)
        #: Server-side prepared-statement handles of this session.
        self._statements = _HandleTable(
            self, "prepared statement", "deallocated after {}s idle",
            "statements_reaped")
        #: Undelivered server pushes (live-query NOTIFY frames) for the
        #: in-process transport; bounded so an unpolled session cannot
        #: grow without limit — overflow drops the oldest frame.  The
        #: daemon replaces the sink with a handoff into its bounded
        #: asyncio send queue.
        self._notifications: deque[protocol.Notify] = deque(maxlen=256)
        self._notify_sink: Callable[[protocol.Notify], bool] | None = None

    # -- internals -----------------------------------------------------------

    def _require_open(self) -> None:
        if self.closed:
            if self.expired:
                raise SessionExpiredError(
                    f"session {self.name!r} lease expired after "
                    f"{self.manager.session_lease}s without traffic — "
                    f"its admission slot was reclaimed"
                )
            raise SessionStateError(f"session {self.name!r} is closed")

    def _bill(self, message: protocol.Request | protocol.Response) -> None:
        """Account one protocol message against the network cost model.

        Sizing lives in the codec (:func:`~repro.serve.protocol.wire_size`),
        so the in-process transport and the daemon socket bill the exact
        same bytes for the same exchange."""
        self.manager.stats.account(self.manager.model, wire_size(message))

    def _count(self, name: str, amount: float = 1) -> None:
        """Bump a per-session counter and its ``serve_*`` aggregate."""
        self.counters.bump(name, amount)
        self.manager.db.access.counters.bump(f"serve_{name}", amount)

    def _count_batch(self, batch: list) -> None:
        """Count one batch shipped in a reply (OPEN, FETCH, REOPEN)."""
        self._count("fetch_messages")
        self._count("rows_streamed", len(batch))
        self.counters.observe("fetch_batch_rows", len(batch))

    @property
    def _db(self) -> "Engine":
        return self.manager.db

    def _prepare_select(self, mql: str, verb: str) -> PreparedStatement:
        """Prepare ``mql`` for a message that serves SELECTs only."""
        prepared = self._db.data.prepare(mql)
        if prepared.kind != "select":
            raise SessionStateError(
                f"{verb} supports SELECT statements only")
        return prepared

    # -- the protocol core ---------------------------------------------------

    def handle(self, request: protocol.Request) -> protocol.Response:
        """Serve one protocol request — the transport-agnostic entry.

        Bills the request and the response against the network model
        (via the codec's :func:`~repro.serve.protocol.wire_size`),
        refreshes the session lease, and dispatches on the message
        type under the engine mutex.  Raises the usual :class:`~repro.errors.PrimaError`
        subclasses; socket transports convert them to
        :class:`~repro.serve.protocol.WireError` frames.
        """
        with self._db.mutex:
            handler = self._DISPATCH.get(type(request))
            if handler is None:
                raise SessionStateError(
                    f"session {self.name!r} cannot serve "
                    f"{type(request).__name__} messages"
                )
            if self.closed and isinstance(
                    request, (protocol.CloseCursor, protocol.Deallocate,
                              protocol.Goodbye)):
                # Session teardown already released everything —
                # idempotent, unbilled (matches a direct close()).
                return protocol.Ack()
            self._require_open()
            self.last_activity = self.manager._now()
            self._bill(request)
            obs = self._db.data.obs
            span = obs.tracer.start(f"msg:{type(request).__name__}",
                                    session=self.name)
            started = time.perf_counter()
            response = handler(self, request)
            duration = time.perf_counter() - started
            self.counters.observe("request_latency_ms",
                                  duration * 1000.0)
            if isinstance(request, _QUERY_REQUESTS):
                self.counters.observe("query_latency_ms",
                                      duration * 1000.0)
            if span is not None:
                span.finish()
                span.duration = duration
                text = getattr(request, "mql", "") or \
                    f"msg:{type(request).__name__}"
                obs.slowlog.record(text, duration, span)
            self._bill(response)
            if isinstance(request, protocol.Goodbye):
                # Ended after the message's last observation: release
                # folds this session's registry into the manager's.
                self._teardown(self.txn.abort if request.abort
                               else self.txn.commit)
            return response

    # -- cursor messages -----------------------------------------------------

    def _resolve_fetch_size(self, fetch_size: Any) -> int | str | None:
        if fetch_size == protocol.DEFAULT_FETCH_SIZE_WIRE:
            fetch_size = self.manager.default_fetch_size
        if fetch_size is None or fetch_size == protocol.AUTO_FETCH_SIZE:
            return fetch_size
        if not isinstance(fetch_size, int) or fetch_size < 1:
            raise SessionStateError(
                "fetch_size must be >= 1, None, or 'auto'")
        return fetch_size

    def _open_pipeline(self, prepared: PreparedStatement, args: tuple,
                       params: dict[str, Any] | None,
                       fetch_size: int | str | None) -> protocol.OpenReply:
        """Open a prepared SELECT's server cursor (``prepared.open``),
        fetch the first batch.  :meth:`handle` holds the engine mutex;
        the caller has checked that ``prepared`` is a SELECT.

        No lock is taken on the root atom type: the pipeline is compiled
        against a pinned snapshot of the atom-version epoch, so it keeps
        reading the state as of this open — concurrent commits neither
        block it nor leak into it.  The pin is released when the
        pipeline closes: right here when the first batch exhausts the
        set, else on client CLOSE, idle reap or session close.

        A set whose first batch exhausts it ends inside this reply: the
        pipeline closes before the reply leaves, no cursor id is
        allocated (the reply's ``cursor_id`` is 0) and the cursor counts
        as opened and closed at once — a one-batch answer is one round
        trip, with no CLOSE to follow.

        ``fetch_size="auto"`` serves a probe batch and answers with the
        size tuned from the network model against the *measured* mean
        molecule wire size of this very result (see
        :mod:`repro.serve.tuning`); the reply's ``fetch_size`` is always
        the resolved value the client should FETCH with.
        """
        result = prepared.open(args, params or {})
        self._count("snapshot_reads")
        cursor = ServerCursor(self, result)
        try:
            if fetch_size == protocol.AUTO_FETCH_SIZE:
                batch, exhausted = cursor.fetch(AUTO_PROBE_SIZE)
                if batch:
                    row_bytes = max(1, molecules_size(batch) // len(batch))
                else:
                    row_bytes = 0
                resolved = tune_fetch_size(self.manager.model, row_bytes)
                self._count("fetch_sizes_tuned")
            else:
                batch, exhausted = cursor.fetch(fetch_size)
                resolved = fetch_size
        except BaseException:
            cursor.close()
            raise
        self._count("cursors_opened")
        self._count_batch(batch)
        if exhausted:
            cursor.close()
            self._count("cursors_closed")
            cursor_id = 0
        else:
            cursor_id = self._cursors.add(cursor)
        return protocol.OpenReply(cursor_id, batch, exhausted,
                                  result.plan_text, resolved,
                                  shard=result.shard)

    def _handle_open(self, request: protocol.Open) -> protocol.OpenReply:
        """OPEN: compile the pipeline, deliver the first batch.

        The statement text rides in the request; preparation runs
        through the shared plan cache, so repeated text skips parse+plan
        even over this one-shot message."""
        fetch_size = self._resolve_fetch_size(request.fetch_size)
        prepared = self._prepare_select(request.mql, "OPEN")
        return self._open_pipeline(prepared, request.args, request.params,
                                   fetch_size)

    def _handle_fetch(self, request: protocol.Fetch) -> protocol.Batch:
        """FETCH(n): the next batch of an open cursor."""
        cursor = self._cursors.get(request.cursor_id)
        batch, exhausted = cursor.fetch(request.count)
        self._count_batch(batch)
        return protocol.Batch(batch, exhausted)

    def _handle_reopen(self, request: protocol.Reopen) -> protocol.Batch:
        """REOPEN: restart the stream (truncation raises, as locally)."""
        cursor = self._cursors.get(request.cursor_id)
        cursor.reopen()
        batch, exhausted = cursor.fetch(request.fetch_size)
        self._count_batch(batch)
        return protocol.Batch(batch, exhausted)

    def _handle_close_cursor(self,
                             request: protocol.CloseCursor) -> protocol.Ack:
        """CLOSE: release the server pipeline for good.  A reaped or
        unknown id has nothing left to close and is not counted."""
        if self._cursors.discard(request.cursor_id):
            self._count("cursors_closed")
        return protocol.Ack()

    # -- prepared-statement messages -----------------------------------------

    def _handle_prepare(self,
                        request: protocol.Prepare) -> protocol.PrepareReply:
        """PREPARE: ship the text once; the response is a statement
        handle.  Every later EXECUTE_PREPARED carries only the handle
        and the bindings — the text is never reshipped, and the server
        never re-plans it (until a catalog-version bump forces a
        transparent re-plan)."""
        prepared = self._db.data.prepare(request.mql)
        statement_id = self._statements.add(prepared)
        self._count("statements_prepared")
        return protocol.PrepareReply(
            statement_id, prepared.kind, prepared.text,
            prepared.param_count, tuple(prepared.param_names))

    def _handle_execute_prepared(
            self, request: protocol.ExecutePrepared
    ) -> protocol.OpenReply | protocol.Executed:
        """EXECUTE_PREPARED: open a cursor (SELECT) or run the DML over
        a server-side statement handle — handle + bindings only."""
        prepared = self._statements.get(request.statement_id)
        self._count("prepared_executions")
        return self._open_or_execute(prepared, request.args, request.params,
                                     request.fetch_size)

    def _handle_deallocate(self,
                           request: protocol.Deallocate) -> protocol.Ack:
        """DEALLOCATE: drop a server-side statement handle."""
        self._statements.discard(request.statement_id)
        return protocol.Ack()

    # -- one-shot statements -------------------------------------------------

    def _handle_execute(
            self, request: protocol.Execute
    ) -> protocol.OpenReply | protocol.Executed:
        """EXECUTE: the server routes — SELECT opens a default-sized
        cursor (the reply is an :class:`~repro.serve.protocol.OpenReply`),
        DML runs in a subtransaction and answers with its outcome."""
        return self._open_or_execute(
            self._db.data.prepare(request.mql), request.args,
            request.params, protocol.DEFAULT_FETCH_SIZE_WIRE)

    def _open_or_execute(
            self, prepared: PreparedStatement, args: tuple,
            params: dict[str, Any] | None, fetch_size: Any,
    ) -> protocol.OpenReply | protocol.Executed:
        """The step EXECUTE and EXECUTE_PREPARED share: a SELECT opens a
        cursor, anything else runs in a subtransaction."""
        if prepared.kind == "select":
            return self._open_pipeline(prepared, args, params,
                                       self._resolve_fetch_size(fetch_size))
        result = self._execute_locked(prepared, args, params)
        self._count("statements")
        return protocol.Executed(result.molecules, result.affected,
                                 result.inserted)

    def _handle_explain(self,
                        request: protocol.Explain) -> protocol.ExplainReply:
        """EXPLAIN: the server renders the processing plan as a
        first-class message pair — request carries the text (+ optional
        bindings), response carries the plan text.  No pipeline opens,
        no cursor, no locks beyond the engine mutex."""
        prepared = self._prepare_select(request.mql, "EXPLAIN")
        text = prepared.explain(args=request.args,
                                params=request.params or {})
        self._count("explains")
        return protocol.ExplainReply(text)

    # -- observability -------------------------------------------------------

    def _handle_stats(self,
                      request: protocol.Stats) -> protocol.StatsReply:
        """STATS: export the server's merged metrics registry and its
        slow-query log — the same ``metrics_report()`` schema the
        in-process API returns, so clients see identical histograms on
        every transport.  ``reset=True`` zeroes the observability
        accounting (the metrics bundle and the slow log; the plain
        counter report is left alone) after the read."""
        obs = self._db.data.obs
        reply = protocol.StatsReply(metrics=self._db.metrics_report(),
                                    slowlog=obs.slowlog.snapshot())
        if request.reset:
            obs.reset()
            self.manager.metrics.reset()
        self._count("stats_pulls")
        return reply

    def _handle_trace(self,
                      request: protocol.Trace) -> protocol.TraceReply:
        """TRACE: run a SELECT to exhaustion under a forced trace and
        ship its span tree back — rendered text plus the JSON form.  No
        cursor opens; the engine mutex covers the run exactly like an
        OPEN."""
        prepared = self._prepare_select(request.mql, "TRACE")
        span = prepared.trace(request.args, request.params or {})
        self._count("traces")
        return protocol.TraceReply("\n".join(span.render()),
                                   span.to_dict())

    # -- checkin -------------------------------------------------------------

    def _handle_checkin(self,
                        request: protocol.Checkin) -> protocol.CheckinReply:
        """CHECKIN: apply a workstation's object buffer in one message
        pair.

        ``creations`` carries atoms created locally under *temporary*
        surrogates; they are inserted here and the mapping temporary →
        real surrogate is returned (and billed into the ack message).
        References among new atoms are remapped, in two phases so cyclic
        n:m references among creations work.

        The application runs in a short-lived transaction under the
        engine mutex: every touched atom is X-locked (and undo-logged) for
        the duration, the commit releases the locks — concurrent
        checkins serialise at message granularity and the later one wins
        (the optimistic object-buffer protocol).
        """
        mapping = self._apply_checkin(request.modifications,
                                      request.deletions, request.creations)
        self._count("checkins")
        return protocol.CheckinReply(mapping)

    # -- live queries --------------------------------------------------------

    def _handle_subscribe(self, request: protocol.Subscribe,
                          ) -> protocol.SubscribeReply:
        """SUBSCRIBE: register a prepared SELECT for server push.

        The statement is prepared (riding the plan cache), its
        dependency set extracted from the plan, and the subscription
        admitted against the session's budget
        (``manager.max_subscriptions``).  From here on, any commit
        touching a type in the set pushes an unsolicited NOTIFY frame.
        """
        prepared = self._prepare_select(request.mql, "SUBSCRIBE")
        sub = self.manager.live.subscribe(
            self, prepared, request.args, request.params or {},
            request.deliver)
        self._count("subscriptions_opened")
        return protocol.SubscribeReply(sub.subscription_id,
                                       tuple(sorted(sub.types)),
                                       sub.catalog_version)

    def _handle_unsubscribe(self, request: protocol.Unsubscribe,
                            ) -> protocol.Ack:
        """UNSUBSCRIBE: drop one subscription (idempotent)."""
        if self.manager.live.unsubscribe(request.subscription_id,
                                         session=self):
            self._count("subscriptions_closed")
        return protocol.Ack()

    def set_notify_sink(self,
                        sink: Callable[[protocol.Notify], bool] | None,
                        ) -> None:
        """Route pushes somewhere other than the in-process deque (the
        daemon installs a thread-safe handoff into its send queue)."""
        self._notify_sink = sink

    def deliver_notification(self, **fields: Any) -> bool:
        """Build one NOTIFY frame from its ``fields`` (see
        :class:`~repro.serve.protocol.Notify`) and hand it to this
        session's client.

        Called by the notifier (committing thread or flush thread) —
        deliberately lock-free against the engine mutex: a
        deque append / queue handoff plus billing, nothing that could
        wait behind a long-running request.  Returns False once the
        session is closed (the frame is dropped)."""
        if self.closed:
            return False
        message = protocol.Notify(**fields)
        self._bill(message)
        sink = self._notify_sink
        if sink is not None:
            delivered = sink(message)
        else:
            if len(self._notifications) == self._notifications.maxlen:
                self._count("notifications_dropped")
            self._notifications.append(message)
            delivered = True
        if delivered:
            self._count("notifications_delivered")
        else:
            self._count("notifications_dropped")
        return delivered

    def pop_notifications(self) -> list[protocol.Notify]:
        """Drain the in-process notification queue (sync client poll),
        first flushing throttled/coalesced deltas that have left their
        re-notify window (in process there is no daemon tick)."""
        live = self.manager._live  # noqa: SLF001
        if live is not None:
            live.pump()
        out: list[protocol.Notify] = []
        while True:
            try:
                out.append(self._notifications.popleft())
            except IndexError:
                return out

    # -- connection management -----------------------------------------------

    def _handle_ping(self, _request: protocol.Ping) -> protocol.Pong:
        """PING: refresh the session lease (keepalive) — no work."""
        self._count("keepalives")
        return protocol.Pong(self.name)

    def _handle_goodbye(self, _request: protocol.Goodbye) -> protocol.Ack:
        """GOODBYE: acknowledged here; :meth:`handle` then ends the
        session (``abort=True`` rolls it back)."""
        return protocol.Ack()

    _DISPATCH: dict[type, Callable[["Session", Any], protocol.Response]] = {
        protocol.Open: _handle_open,
        protocol.Fetch: _handle_fetch,
        protocol.Reopen: _handle_reopen,
        protocol.CloseCursor: _handle_close_cursor,
        protocol.Prepare: _handle_prepare,
        protocol.ExecutePrepared: _handle_execute_prepared,
        protocol.Deallocate: _handle_deallocate,
        protocol.Execute: _handle_execute,
        protocol.Explain: _handle_explain,
        protocol.Stats: _handle_stats,
        protocol.Trace: _handle_trace,
        protocol.Checkin: _handle_checkin,
        protocol.Subscribe: _handle_subscribe,
        protocol.Unsubscribe: _handle_unsubscribe,
        protocol.Ping: _handle_ping,
        protocol.Goodbye: _handle_goodbye,
    }

    def _execute_locked(self, prepared: PreparedStatement, args: tuple,
                        params: dict[str, Any] | None) -> ResultSet:
        """Run a non-SELECT prepared statement in a *subtransaction*.

        The subtransaction is the lock scope: an X lock on the target
        atom type is taken for the statement — a peer session's open
        cursor on that type (S) conflicts loudly, while this session's
        own read locks never do (Moss's ancestor rule: the session
        transaction is the writer's parent).  On success the lock is
        inherited upward, so the session *retains* X on every type it
        wrote until it closes; a failing statement aborts the
        subtransaction and releases it.  Write effects themselves become
        visible immediately, like a checkin — to *new* snapshots; open
        cursors keep their pinned epoch.  The engine mutex, held by
        :meth:`handle`, covers the statement, its copy-on-write pre-image
        preservation, and the epoch publish.
        """
        writer = self.txn.begin_nested()
        try:
            target = self._statement_target(prepared.statement)
            if target is not None:
                self.manager.txns.locks.acquire(
                    writer, _lock_resource(target), "X")
            result = prepared.execute(*args, **(params or {}))
            result.materialize()
        except BaseException:
            writer.abort()   # drops the writer's locks
            raise
        writer.commit()      # the session inherits the X lock
        return result

    def _statement_target(self, statement) -> str | None:
        if isinstance(statement, InsertStatement):
            return statement.type_name
        if isinstance(statement, (DeleteStatement, ModifyStatement)):
            structure = self._db.data.validator.resolve_structure(
                statement.from_clause)
            return structure.atom_type
        return None

    def _apply_checkin(self, modifications, deletions,
                       creations) -> dict[Surrogate, Surrogate]:
        db = self._db
        writer = self.manager.txns.begin()
        try:
            mapping: dict[Surrogate, Surrogate] = {}
            deferred_refs: list[tuple[Surrogate, dict[str, Any]]] = []
            for temp, values in creations:
                plain = {k: v for k, v in values.items()
                         if not _mentions_temp(v, creations)}
                refs = {k: v for k, v in values.items() if k not in plain}
                real = writer.insert(temp.atom_type, plain)
                mapping[temp] = real
                if refs:
                    deferred_refs.append((real, refs))
            for real, refs in deferred_refs:
                writer.modify(real, _remap(refs, mapping))
            for surrogate, values in modifications.items():
                if not db.access.atoms.exists(surrogate):
                    raise CouplingError(
                        f"checkin of unknown atom {surrogate}"
                    )
                writer.modify(surrogate, _remap(values, mapping))
            for surrogate in deletions:
                writer.delete(surrogate)
        except BaseException:
            # Selective recovery: roll the half-applied checkin back.
            writer.abort()
            raise
        writer.commit()
        db.commit()
        # The commit boundary of the snapshot clock: cursors opened
        # from here on see the checkin; pinned ones keep their epoch.
        db.data.publish_data_version()
        return mapping

    # -- resource hygiene ----------------------------------------------------

    def reap_idle(self, now: float) -> tuple[int, int]:
        """Close idle cursors and deallocate idle statement handles
        (driven by :meth:`SessionManager.reap`); returns the counts.

        A reaped cursor's pipeline is released exactly as a client CLOSE
        would release it — the pinned snapshot unpins, close-hooks run,
        close-while-pending marks the set truncated.  Later client use
        of the reclaimed id raises
        :class:`~repro.errors.SessionExpiredError`.
        """
        with self._db.mutex:
            if self.closed:
                return 0, 0
            return self._cursors.reap(now), self._statements.reap(now)

    def expire(self) -> None:
        """Lease ran out: abort the session and reclaim its slot.

        Abort — not commit — because an expired session is an abandoned
        one: its uncommitted subtransaction work is rolled back, exactly
        as for a client that disconnects without GOODBYE.  (Checkins
        committed in their own short transactions are unaffected.)
        """
        self._teardown(self.txn.abort, expired=True)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release every cursor, commit the session transaction (freeing
        its locks), and return the admission slot."""
        self._teardown(self.txn.commit)

    def abort(self) -> None:
        """Abort the session transaction (undoing logged effects) and
        release everything."""
        self._teardown(self.txn.abort)

    def _teardown(self, finish: Callable[[], None],
                  expired: bool = False) -> None:
        """The one teardown of close, abort and expire: release cursors
        and statement handles, ``finish`` the session transaction, then
        hand the session back to its manager."""
        with self._db.mutex:
            if self.closed:
                return
            if expired:
                self.expired = True
                self._count("sessions_expired")
            released = self._cursors.clear()
            if released:
                self._count("cursors_closed", released)
            self._statements.clear()
            self.closed = True
            finish()
        self.manager._release(self)  # noqa: SLF001

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is not None and not self.closed:
            self.abort()
        else:
            self.close()

    @property
    def open_cursors(self) -> int:
        return len(self._cursors)

    @property
    def open_statements(self) -> int:
        """Server-side prepared-statement handles currently held."""
        return len(self._statements)

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (f"Session({self.name!r}, {state}, "
                f"{len(self._cursors)} cursor(s))")


class SessionManager:
    """Session lifecycle + admission control over one engine (a
    :class:`~repro.engine.Engine`: ``Prima`` or ``ShardedCluster``)."""

    def __init__(self, db: "Engine", model: NetworkModel | None = None,
                 max_sessions: int = 8, admission: str = "reject",
                 queue_timeout: float | None = None,
                 default_fetch_size: int | str | None = None,
                 idle_timeout: float | None = None,
                 session_lease: float | None = None,
                 clock: Callable[[], float] | None = None,
                 max_subscriptions: int = 32,
                 notify_interval: float = 0.0) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if admission not in ("reject", "queue"):
            raise ValueError(
                f"admission must be 'reject' or 'queue', got {admission!r}"
            )
        if isinstance(default_fetch_size, str) and \
                default_fetch_size != protocol.AUTO_FETCH_SIZE:
            raise ValueError(
                f"default_fetch_size must be None, an int >= 1, or "
                f"'auto', got {default_fetch_size!r}"
            )
        for knob, value in (("idle_timeout", idle_timeout),
                            ("session_lease", session_lease)):
            if value is not None and value <= 0:
                raise ValueError(f"{knob} must be positive (or None)")
        if max_subscriptions < 1:
            raise ValueError("max_subscriptions must be >= 1")
        if notify_interval < 0:
            raise ValueError("notify_interval must be >= 0")
        self.db = db
        self.model = model if model is not None else NetworkModel()
        self.stats = NetworkStats()
        #: Manager-level metrics (admission waits, daemon loop health);
        #: merged with every session's registry by
        #: :meth:`metric_registries`.
        self.metrics = MetricsRegistry()
        self.max_sessions = max_sessions
        self.admission = admission
        self.queue_timeout = queue_timeout
        #: None: whole set in the open response; int: streaming batches;
        #: ``"auto"``: the server tunes per cursor from the network model.
        self.default_fetch_size = default_fetch_size
        #: Resource-hygiene knobs (seconds; None disables) — enforced by
        #: :meth:`reap`, which the daemon calls periodically.
        self.idle_timeout = idle_timeout
        self.session_lease = session_lease
        #: Live-query admission budgets: subscriptions per session, and
        #: the minimum seconds (manager clock) between NOTIFY frames of
        #: one subscription — fires inside the window coalesce into one
        #: pending delta.
        self.max_subscriptions = max_subscriptions
        self.notify_interval = notify_interval
        #: The live-query hub, built on first touch (its version-store
        #: listeners stay entirely out of subscriptions-free workloads).
        self._live: LiveQueryHub | None = None
        #: Injectable monotonic clock (tests drive expiry determinis-
        #: tically by substituting a fake).
        self._clock = clock if clock is not None else time.monotonic
        self.txns = TransactionManager(db.access)
        self._slots = threading.Condition()
        self._peak = 0
        self._session_seq = 0
        #: Open sessions by label, one admission slot each.
        self._sessions: dict[str, Session] = {}
        #: What closed sessions leave behind: their counters by label
        #: (``io_report``; the keys keep their labels reserved) and
        #: their registries folded into one (``metric_registries``).
        self._retired_counters: dict[str, dict[str, float]] = {}
        self._retired = MetricsRegistry()
        db.attach_sessions(self)

    def _now(self) -> float:
        return self._clock()

    @property
    def live(self) -> LiveQueryHub:
        """The manager's live-query hub (built on first use)."""
        with self._slots:
            if self._live is None:
                self._live = LiveQueryHub(self)
            return self._live

    # -- lifecycle -----------------------------------------------------------

    def open(self, name: str | None = None,
             timeout: float | None = None) -> Session:
        """Open one session, subject to admission control.

        With ``admission='reject'`` a full server raises
        :class:`~repro.errors.SessionLimitError` immediately; with
        ``'queue'`` the opener waits until a slot frees (``timeout``
        overrides the manager's ``queue_timeout``).
        """
        admission = self.admit(name, timeout)
        with self._slots:
            while True:
                try:
                    wait = next(admission)
                except StopIteration as admitted:
                    return admitted.value
                self._slots.wait(wait)

    def admit(self, name: str | None = None, timeout: float | None = None,
              ) -> Generator[float | None, None, Session]:
        """The one admission path, as steps its caller drives: a step
        admits (the generator returns the session), raises
        :class:`~repro.errors.SessionLimitError` (full under
        ``'reject'``, or queued past ``timeout``, default
        ``queue_timeout``), or yields the seconds to wait before the
        next step (None: no limit).  :meth:`open` waits on the slot
        condition; the daemon awaits, so its event loop never blocks."""
        limit = self.queue_timeout if timeout is None else timeout
        queued: float | None = None
        while True:
            with self._slots:
                if len(self._sessions) < self.max_sessions:
                    if queued is not None:
                        self.metrics.observe(
                            "admission_wait_ms",
                            (time.perf_counter() - queued) * 1000.0)
                    return self._new_session(name)
                if self.admission == "reject":
                    raise SessionLimitError(
                        f"server at max_sessions={self.max_sessions}"
                    )
                now = time.perf_counter()
                if queued is None:
                    self.db.access.counters.bump("serve_sessions_queued")
                    queued = now
                elif limit is not None and now - queued >= limit:
                    raise SessionLimitError(
                        f"queued session timed out after {limit}s "
                        f"(max_sessions={self.max_sessions})"
                    )
            yield None if limit is None else max(limit - (now - queued), 0.0)

    def _new_session(self, name: str | None) -> Session:
        """Take a free admission slot (the caller holds ``_slots``)."""
        self._session_seq += 1
        label = name if name is not None else f"s{self._session_seq}"
        if label in self._sessions or label in self._retired_counters:
            # Reserve a unique label atomically with the slot, so
            # two concurrent opens under one name cannot collide
            # (their io_report keys would silently merge).
            label = f"{label}#{self._session_seq}"
        session = self._sessions[label] = Session(self, label)
        self._peak = max(self._peak, len(self._sessions))
        self.db.access.counters.bump("serve_sessions_opened")
        return session

    def _release(self, session: Session) -> None:
        """Session teardown hook: drop its subscriptions, keep its
        counters, return its slot — and hold no reference to it after."""
        if self._live is not None:
            self._live.release_session(session)
        with self._slots:
            del self._sessions[session.name]
            self._retired_counters[session.name] = session.counters.snapshot()
            self._retired = self._retired.merge(session.counters)
            self._slots.notify_all()

    def close_all(self) -> None:
        """Close every still-open session (releasing their pipelines)."""
        for session in list(self._sessions.values()):
            session.close()
        if self._live is not None:
            self._live.close()

    # -- resource hygiene ----------------------------------------------------

    def reap(self, now: float | None = None) -> dict[str, int]:
        """One sweep of the resource-hygiene timers.

        Expires sessions whose lease ran out (aborting them and
        returning their admission slots), then closes idle cursors and
        deallocates idle statement handles of the surviving sessions.
        The daemon calls this periodically from its event loop;
        in-process setups call it manually (or from their own timer).
        Returns the reclamation counts.
        """
        now = self._now() if now is None else now
        # Flush live-query deltas that left their throttle window (the
        # reaper is the daemon's periodic tick, so coalesced NOTIFYs go
        # out even between commits).
        if self._live is not None:
            self._live.pump()
        expired = cursors = statements = 0
        for session in list(self._sessions.values()):
            if self.session_lease is not None and \
                    now - session.last_activity >= self.session_lease:
                session.expire()
                expired += 1
                continue
            reaped_cursors, reaped_statements = session.reap_idle(now)
            cursors += reaped_cursors
            statements += reaped_statements
        return {"sessions_expired": expired, "cursors_reaped": cursors,
                "statements_reaped": statements}

    def reset_accounting(self) -> None:
        """Zero this manager's accounting: network stats, the
        per-session counters (of open and closed sessions), and the
        concurrency peak — so benchmark phases start from zero.
        (``Engine.reset_accounting`` calls this for attached managers.)"""
        self.stats.reset()
        self.metrics.reset()
        with self._slots:
            self._peak = len(self._sessions)
            self._retired_counters = dict.fromkeys(self._retired_counters, {})
            self._retired = MetricsRegistry()
            for session in self._sessions.values():
                session.counters.reset()

    def metric_registries(self) -> list[MetricsRegistry]:
        """This manager's registry, the closed sessions' folded one and
        every open session's — the inputs ``metrics_report()`` merges
        into the one server-wide view."""
        with self._slots:
            return [self.metrics, self._retired] + [
                session.counters for session in self._sessions.values()]

    # -- inspection ----------------------------------------------------------

    @property
    def active_sessions(self) -> int:
        return len(self._sessions)

    def io_report(self) -> dict[str, Any]:
        """The database's report plus network and per-session counters."""
        report = dict(self.db.io_report())
        snapshot = self.stats.snapshot()
        report["net_messages"] = snapshot["messages"]
        report["net_bytes"] = snapshot["bytes_sent"]
        report["net_comm_time_ms"] = snapshot["comm_time_ms"]
        with self._slots:
            report["serve_sessions_peak"] = self._peak
            counters = dict(self._retired_counters)
            sessions = list(self._sessions.values())
        counters.update((s.name, s.counters.snapshot()) for s in sessions)
        for label, values in counters.items():
            for counter, value in values.items():
                report[f"session:{label}:{counter}"] = value
        return report

    def __repr__(self) -> str:
        return (f"SessionManager({self.active_sessions}/"
                f"{self.max_sessions} active, admission={self.admission})")


# ---------------------------------------------------------------------------
# checkin helpers: temporary-surrogate remapping
# ---------------------------------------------------------------------------

def _is_temp(value: Any, creations) -> bool:
    return isinstance(value, Surrogate) and \
        any(temp == value for temp, _v in creations)


def _mentions_temp(value: Any, creations) -> bool:
    if _is_temp(value, creations):
        return True
    if isinstance(value, list):
        return any(_mentions_temp(item, creations) for item in value)
    return False


def _remap(values: dict[str, Any],
           mapping: dict[Surrogate, Surrogate]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, value in values.items():
        if isinstance(value, Surrogate):
            out[key] = mapping.get(value, value)
        elif isinstance(value, list):
            out[key] = [mapping.get(v, v) if isinstance(v, Surrogate) else v
                        for v in value]
        else:
            out[key] = value
    return out
