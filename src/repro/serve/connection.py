"""The client side of the serving layer: :func:`connect` and
:class:`Connection`.

Request messages are built here (and in the asyncio twin,
:mod:`repro.serve.aio`) and nowhere else.  :func:`connect` takes
*anything serveable* (nothing, a :class:`~repro.db.Prima`, a cluster,
a manager, a daemon, a ``host:port`` address) and returns a
:class:`Connection` whose API is **identical regardless of transport**,
because every method is one typed request of :mod:`repro.serve.protocol`
pushed through a transport — an object with ``request``,
``poll_notifications`` and ``close``:

* **in process** — :class:`LocalTransport` hands the message straight to
  :meth:`repro.serve.Session.handle`;
* **over a socket** — :class:`SocketTransport` frames the same message
  onto a blocking socket against the asyncio daemon
  (:mod:`repro.serve.daemon`), and re-raises server errors under their
  original :mod:`repro.errors` classes.

Both transports are billed through the same codec
(:func:`repro.serve.protocol.wire_size`), so ``io_report`` counters are
transport-invariant — the parity the daemon test suite asserts.

Usage::

    import repro

    with repro.connect() as conn:                 # owns a fresh Prima
        conn.execute("CREATE ATOM_TYPE part (part_id: IDENTIFIER, "
                     "n: INTEGER)")
        conn.execute("INSERT part (n = 1)")
        for molecule in conn.query("SELECT ALL FROM part"):
            ...

    with repro.connect(db) as conn:               # serve an existing db
        ...

    with repro.connect("prima://127.0.0.1:5432") as conn:   # a daemon
        ...
"""

from __future__ import annotations

import select
import socket as _socket
import threading
import time
from collections import deque
from typing import Any, Callable

from repro.data.result import ResultSet
from repro.db import Prima
from repro.engine import Engine
from repro.errors import SessionError, SessionStateError
from repro.mad.molecule import Molecule
from repro.mad.types import Surrogate
from repro.serve import protocol
from repro.serve.cursor import RemoteCursor
from repro.serve.session import Session, SessionManager
from repro.shard import ShardedCluster

#: "Use the manager's default fetch size" — callers that want to defer
#: the batching decision to the server's knob pass this instead of an
#: explicit size/None.  It is the wire value itself, so it needs no
#: translation on the way out.
DEFAULT_FETCH_SIZE = protocol.DEFAULT_FETCH_SIZE_WIRE


def _result_set(transport, reply: protocol.Response,
                on_arrival: Callable[[Molecule], None] | None = None,
                ) -> ResultSet:
    """The client-side result of one statement: a lazy set streaming
    over a remote cursor (SELECT) or the DML outcome."""
    if isinstance(reply, protocol.OpenReply):
        cursor = RemoteCursor(transport, reply, on_arrival=on_arrival)
        return ResultSet(source=cursor, plan_text=cursor.plan_text)
    return ResultSet(molecules=reply.molecules, affected=reply.affected,
                     inserted=reply.inserted)


class LocalTransport:
    """In-process transport: requests go straight to
    :meth:`Session.handle`; exceptions propagate natively (no
    :class:`~repro.serve.protocol.WireError` wrapping — there is no
    wire)."""

    __slots__ = ("session",)

    def __init__(self, session: Session) -> None:
        self.session = session

    def request(self, message: protocol.Request) -> protocol.Response:
        return self.session.handle(message)

    def poll_notifications(self, timeout: float = 0.0,
                           ) -> list[protocol.Notify]:
        """Drain the session's notification queue, waiting up to
        ``timeout`` seconds for the first frame."""
        deadline = time.monotonic() + max(timeout, 0.0)
        while True:
            out = self.session.pop_notifications()
            if out or time.monotonic() >= deadline:
                return out
            time.sleep(0.002)

    def close(self) -> None:
        """Nothing to release: the session owns the resources."""


class SocketTransport:
    """Blocking-socket transport against the asyncio daemon.

    Requests are serialised by a lock (the protocol is strictly
    request/response per session, as the engine mutex serialises
    messages server-side), but the byte stream is no longer purely
    request/response: the server may interleave unsolicited
    :class:`~repro.serve.protocol.Notify` frames (live queries) at any
    frame boundary.  Every request is therefore stamped with a
    **correlation id** which the daemon echoes onto the matching reply;
    :meth:`request` skims correlation-free Notify frames into a local
    queue until the correlated reply arrives — a push can never be
    mistaken for a reply, no matter how the frames interleave.  A
    :class:`WireError` response is re-raised under its original
    exception class, so admission rejects, truncation errors and
    friends keep their types across the wire.
    """

    def __init__(self, sock: _socket.socket) -> None:
        self._sock = sock
        self._lock = threading.Lock()
        self._closed = False
        self._next_correlation = 0
        #: Unsolicited Notify frames skimmed off the stream, in arrival
        #: order; drained by :meth:`poll_notifications`.
        self._notifications: deque[protocol.Notify] = deque()

    def request(self, message: protocol.Request) -> protocol.Response:
        with self._lock:
            if self._closed:
                raise SessionError("connection transport is closed")
            self._next_correlation += 1
            correlation = self._next_correlation
            protocol.set_correlation(message, correlation)
            protocol.send_message(self._sock, message)
            reply = protocol.recv_message(self._sock)
            while reply is not None and protocol.is_push(reply):
                self._notifications.append(reply)
                reply = protocol.recv_message(self._sock)
        return protocol.check_reply(correlation, reply)

    def poll_notifications(self, timeout: float = 0.0,
                           ) -> list[protocol.Notify]:
        """Drain skimmed Notify frames, then read further pushes off
        the socket for up to ``timeout`` seconds (0: only what is
        already buffered).  Returns the frames in arrival order."""
        out: list[protocol.Notify] = []
        deadline = time.monotonic() + max(timeout, 0.0)
        with self._lock:
            while self._notifications:
                out.append(self._notifications.popleft())
            if self._closed:
                return out
            while True:
                # Once something is in hand, only sweep up frames that
                # are already readable — never wait out the full budget.
                wait = 0.0 if out else max(deadline - time.monotonic(), 0.0)
                ready, _, _ = select.select([self._sock], [], [], wait)
                if not ready:
                    if out or time.monotonic() >= deadline:
                        return out
                    continue
                # The frame has started arriving; the daemon writes
                # frames contiguously, so a blocking read completes it.
                reply = protocol.recv_message(self._sock)
                if reply is None:
                    return out          # EOF — close() will report it
                out.append(protocol.expect_push(reply))

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._sock.shutdown(_socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()


class Connection:
    """One client connection to a PRIMA server — any transport.

    Obtained from :func:`connect` (or :meth:`PrimaDaemon.connect
    <repro.serve.daemon.PrimaDaemon.connect>`); every method is one
    protocol exchange:

    * :meth:`cursor` / :meth:`query` — OPEN a streaming cursor / a lazy
      :class:`ResultSet` over it;
    * :meth:`prepare` — PREPARE a server-side statement handle;
    * :meth:`execute` — one-shot statement (the server routes SELECT to
      a cursor, DML to a subtransaction);
    * :meth:`explain` — the server-rendered processing plan;
    * :meth:`checkout` / :meth:`checkin` — the coupling protocol: a
      checkout stream filling an object buffer via ``on_arrival``, and
      the one-message-pair application of buffered modifications;
    * :meth:`ping` — keepalive, refreshing the session lease.

    ``close(abort=True)`` rolls the session's transaction back instead
    of committing it; the context manager does this automatically when
    the body raises.
    """

    def __init__(self, transport, name: str,
                 default_fetch_size: int | str | None = None, *,
                 session: Session | None = None,
                 manager: SessionManager | None = None,
                 owned_db: Any | None = None, shards: int = 1) -> None:
        self._transport = transport
        #: The server-assigned session label.
        self.name = name
        #: The server's default fetch-size knob (int, None, or "auto").
        self.default_fetch_size = default_fetch_size
        #: Shard count of the served database (1: a single engine) —
        #: from the Welcome handshake, so socket clients know too.
        self.shards = shards
        #: The underlying :class:`Session` — in-process transports only
        #: (None over a socket; the session lives in the daemon).
        self.session = session
        #: The serving :class:`SessionManager` — in-process only.
        self.manager = manager
        self._owned_db = owned_db
        self._closed = False

    # -- queries -------------------------------------------------------------

    def cursor(self, mql: str, fetch_size: Any = DEFAULT_FETCH_SIZE,
               on_arrival: Callable[[Molecule], None] | None = None,
               args: tuple = (),
               params: dict[str, Any] | None = None) -> RemoteCursor:
        """OPEN a remote streaming cursor over ``mql``.

        ``fetch_size=None`` ships the whole set in the open response; an
        integer streams batches of that size with one-batch prefetch;
        ``"auto"`` lets the server tune the batch size from its network
        model (the resolved size is :attr:`RemoteCursor.fetch_size`).
        """
        self._require_open()
        reply = self._transport.request(protocol.Open(
            mql, fetch_size, args, params))
        return RemoteCursor(self._transport, reply, on_arrival=on_arrival)

    def query(self, mql: str, fetch_size: Any = DEFAULT_FETCH_SIZE,
              on_arrival: Callable[[Molecule], None] | None = None,
              args: tuple = (),
              params: dict[str, Any] | None = None) -> ResultSet:
        """A lazy :class:`ResultSet` streaming over a remote cursor."""
        cursor = self.cursor(mql, fetch_size=fetch_size,
                             on_arrival=on_arrival, args=args, params=params)
        return ResultSet(source=cursor, plan_text=cursor.plan_text)

    def prepare(self, mql: str) -> RemotePreparedStatement:
        """PREPARE ``mql`` server-side; the text ships exactly once."""
        self._require_open()
        reply = self._transport.request(protocol.Prepare(mql))
        return RemotePreparedStatement(self._transport, reply)

    def execute(self, mql: str, *args: Any, **params: Any) -> ResultSet:
        """Execute one statement; the server routes SELECT to a
        default-sized cursor, DML to a subtransaction."""
        self._require_open()
        return _result_set(self._transport, self._transport.request(
            protocol.Execute(mql, args, params or None)))

    def explain(self, mql: str, *args: Any, **params: Any) -> str:
        """The server-side processing plan of ``mql``."""
        self._require_open()
        return self._transport.request(
            protocol.Explain(mql, args, params or None)).text

    # -- observability -------------------------------------------------------

    def server_stats(self, reset: bool = False) -> dict[str, Any]:
        """The server's observability export, over any transport.

        One STATS message pair: ``{"metrics": metrics_report(),
        "slowlog": [...]}`` — counters, gauges and histograms in the
        same schema whether this connection is in-process or a socket
        (the parity the observability tests assert).  ``reset=True``
        zeroes the server-side metrics and slow log after the read.
        """
        self._require_open()
        reply = self._transport.request(protocol.Stats(reset))
        return {"metrics": reply.metrics, "slowlog": reply.slowlog}

    def trace(self, mql: str, *args: Any, **params: Any) -> dict[str, Any]:
        """TRACE: run ``mql`` server-side under a forced trace.

        Returns ``{"text": rendered span tree, "tree": Span.to_dict()}``
        — per-shard child spans included when the server is a cluster.
        No cursor opens; the rows are drained server-side."""
        self._require_open()
        reply = self._transport.request(
            protocol.Trace(mql, args, params or None))
        return {"text": reply.text, "tree": reply.tree}

    # -- the coupling protocol -----------------------------------------------

    def checkout(self, mql: str, fetch_size: Any = DEFAULT_FETCH_SIZE,
                 on_arrival: Callable[[Molecule], None] | None = None,
                 args: tuple = (),
                 params: dict[str, Any] | None = None) -> RemoteCursor:
        """The checkout stream of the workstation coupling: a cursor
        whose molecules populate a local object buffer as they arrive
        (``on_arrival`` runs per molecule, before the caller pulls it).
        ``fetch_size=None`` is the paper's set-oriented one-message-pair
        checkout."""
        return self.cursor(mql, fetch_size=fetch_size,
                           on_arrival=on_arrival, args=args, params=params)

    def checkin(self, modifications: dict[Surrogate, dict[str, Any]],
                deletions: list[Surrogate] | None = None,
                creations: list[tuple[Surrogate, dict[str, Any]]] | None
                = None) -> dict[Surrogate, Surrogate]:
        """Apply an object buffer in one message pair; returns the
        temporary → real surrogate mapping of applied creations."""
        self._require_open()
        reply = self._transport.request(protocol.Checkin(
            modifications, deletions or [], creations or []))
        return reply.mapping

    # -- live queries --------------------------------------------------------

    def subscribe(self, mql: str, args: tuple = (),
                  params: dict[str, Any] | None = None,
                  deliver: str = "notify") -> "LiveSubscription":
        """SUBSCRIBE a SELECT for server push.

        The server extracts the query's dependency set from its plan;
        any later commit touching one of those types (or a DDL catalog
        bump) pushes a NOTIFY frame — poll :meth:`notifications` for
        them.  ``deliver="requery"`` additionally re-runs the statement
        against a fresh snapshot on every fire and ships the new result
        in the frame."""
        self._require_open()
        reply = self._transport.request(
            protocol.Subscribe(mql, args, params, deliver))
        return LiveSubscription(self, reply)

    def unsubscribe(self, subscription_id: int) -> None:
        """UNSUBSCRIBE one live query (idempotent)."""
        self._require_open()
        self._transport.request(protocol.Unsubscribe(subscription_id))

    def notifications(self, timeout: float = 0.0,
                      ) -> list[protocol.Notify]:
        """Drain pending NOTIFY frames (waiting up to ``timeout``
        seconds for the first one), in arrival order.

        Over a socket this skims the daemon's pushes off the byte
        stream; in process it drains the session's notification queue —
        identical frame contents either way (the parity the live-query
        tests assert)."""
        self._require_open()
        return self._transport.poll_notifications(timeout)

    # -- connection management -----------------------------------------------

    def ping(self) -> str:
        """Keepalive: refresh the session lease; returns the label."""
        self._require_open()
        return self._transport.request(protocol.Ping()).session

    def close(self, abort: bool = False) -> None:
        """GOODBYE: end the session (``abort=True`` rolls it back),
        close the transport, and tear down anything this connection
        owns (a Prima created by ``connect()`` with no target)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._transport.request(protocol.Goodbye(abort=abort))
        except (SessionError, OSError):
            pass   # server already gone / session already closed
        self._transport.close()
        if self._owned_db is not None:
            self._owned_db.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise SessionError(f"connection {self.name!r} is closed")

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        self.close(abort=exc_type is not None)

    def __repr__(self) -> str:
        transport = type(self._transport).__name__
        state = "closed" if self._closed else "open"
        return f"Connection({self.name!r}, {state}, {transport})"


class RemotePreparedStatement:
    """The client half of a server-side prepared statement.

    Created from the :class:`~repro.serve.protocol.PrepareReply` of a
    PREPARE exchange — the statement text shipped once; this handle
    re-executes it with fresh bindings over EXECUTE_PREPARED messages
    that carry only the statement id and the parameter values.  SELECT
    handles stream their result through the ordinary remote-cursor
    machinery (first batch in the response, double-buffered prefetch,
    the full client cursor contract); DML handles execute under the
    session's subtransaction lock discipline.  Like the cursor, the
    handle is transport-agnostic: it speaks protocol dataclasses through
    whatever transport created it.
    """

    def __init__(self, transport, reply: protocol.PrepareReply) -> None:
        self._transport = transport
        self.statement_id = reply.statement_id
        self.text = reply.text
        self.kind = reply.kind
        self.param_count = reply.param_count
        self.param_names = reply.param_names
        self._closed = False

    def _require_open(self) -> None:
        if self._closed:
            raise SessionStateError(
                f"prepared statement #{self.statement_id} is deallocated"
            )

    def open_cursor(self, *args: Any,
                    fetch_size: Any = DEFAULT_FETCH_SIZE,
                    on_arrival: Callable[[Molecule], None] | None = None,
                    **params: Any) -> RemoteCursor:
        """EXECUTE_PREPARED: a streaming cursor over one execution."""
        self._require_open()
        if self.kind != "select":
            raise SessionStateError(
                "remote cursors serve SELECT statements only "
                "(use execute() for DML)"
            )
        reply = self._transport.request(protocol.ExecutePrepared(
            self.statement_id, args, params or None, fetch_size))
        return RemoteCursor(self._transport, reply, on_arrival=on_arrival)

    def execute(self, *args: Any, fetch_size: Any = DEFAULT_FETCH_SIZE,
                on_arrival: Callable[[Molecule], None] | None = None,
                **params: Any) -> ResultSet:
        """Re-execute with fresh bindings (no text, no re-plan).

        SELECTs return the usual lazy :class:`ResultSet` over a remote
        cursor; DML returns its outcome set.
        """
        self._require_open()
        if self.kind != "select":
            fetch_size = None
        return _result_set(self._transport, self._transport.request(
            protocol.ExecutePrepared(self.statement_id, args,
                                     params or None, fetch_size)),
            on_arrival)

    def close(self) -> None:
        """DEALLOCATE the server-side handle (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._transport.request(protocol.Deallocate(self.statement_id))

    def __enter__(self) -> "RemotePreparedStatement":
        return self

    def __exit__(self, _exc_type, _exc, _tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "deallocated" if self._closed else "prepared"
        return (f"RemotePreparedStatement(#{self.statement_id}, {state}, "
                f"{self.text!r})")


class LiveSubscription:
    """The client half of one live query: its handle, the dependency
    set the server extracted, and a convenience :meth:`close`."""

    __slots__ = ("_connection", "subscription_id", "types",
                 "catalog_version", "_closed")

    def __init__(self, connection: Connection,
                 reply: protocol.SubscribeReply) -> None:
        self._connection = connection
        self.subscription_id = reply.subscription_id
        #: The dependency set (sorted atom-type names) — commits to any
        #: of these fire this subscription.
        self.types = tuple(reply.types)
        self.catalog_version = reply.catalog_version
        self._closed = False

    def close(self) -> None:
        """UNSUBSCRIBE (idempotent — double close is fine)."""
        if self._closed:
            return
        self._closed = True
        if not self._connection.closed:
            self._connection.unsubscribe(self.subscription_id)

    def __enter__(self) -> "LiveSubscription":
        return self

    def __exit__(self, _exc_type, _exc, _tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"LiveSubscription(#{self.subscription_id}, "
                f"types={list(self.types)})")


def _parse_address(target: str) -> tuple[str, int]:
    """``"prima://host:port"`` (or bare ``"host:port"``) → (host, port)."""
    address = target
    if address.startswith("prima://"):
        address = address[len("prima://"):]
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"cannot parse server address {target!r} "
            f"(expected 'prima://host:port')"
        )
    return host or "127.0.0.1", int(port)


def _socket_connection(host: str, port: int, name: str | None,
                       timeout: float | None) -> Connection:
    sock = _socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)   # exchanges block; timeout governed connect only
    transport = SocketTransport(sock)
    try:
        welcome = protocol.expect(
            transport.request(protocol.Hello(client=name)), protocol.Welcome)
    except BaseException:
        transport.close()
        raise
    return Connection(transport, welcome.session,
                      welcome.default_fetch_size,
                      shards=welcome.shards)


def _session_connection(session: Session, *,
                        manager: SessionManager,
                        owned_db: Any | None = None) -> Connection:
    return Connection(LocalTransport(session), session.name,
                      manager.default_fetch_size, session=session,
                      manager=manager, owned_db=owned_db,
                      shards=manager.db.shard_count)


def connect(target: Any = None, *, name: str | None = None,
            timeout: float | None = None, **options: Any) -> Connection:
    """Connect to a PRIMA server — the one entry point of the client API.

    ``target`` selects the transport:

    * ``None`` — create a **fresh in-memory Prima** and serve it; the
      connection owns the instance and closes it on ``close()``.  With
      ``shards=N`` (N > 1) a fresh
      :class:`~repro.shard.ShardedCluster` is created instead — the
      same client API, the cluster coordinator underneath.
    * a :class:`~repro.db.Prima` **or** a
      :class:`~repro.shard.ShardedCluster` — serve an existing
      instance in process.  With no ``options``, an already-attached
      :class:`SessionManager` is reused (so several ``connect(db)``
      calls share one admission domain); otherwise a new manager is
      created with ``options`` as its knobs (``max_sessions``,
      ``admission``, ``default_fetch_size``, ``idle_timeout``,
      ``session_lease``, ... — see :class:`SessionManager`).
    * a :class:`SessionManager` — open one more session on it (its
      knobs are fixed: ``options`` raise :class:`ValueError`).
    * a :class:`~repro.serve.daemon.PrimaDaemon` — a socket connection
      to a locally running daemon (no ``options`` either: the knobs
      belong to the daemon's manager).
    * ``"prima://host:port"`` (or ``(host, port)``) — a socket
      connection to a remote daemon; ``timeout`` bounds connection
      establishment, and admission queueing blocks in the HELLO
      exchange.  The daemon may serve a cluster — the protocol is
      identical (``Welcome.shards`` reports the count).

    ``name`` labels the session (``io_report`` keys, lock diagnostics).
    """
    if target is None:
        shards = options.pop("shards", 1)
        if shards and shards > 1:
            db: Any = ShardedCluster(shards=shards)
        else:
            db = Prima()
        manager = SessionManager(db, **options)
        return _session_connection(manager.open(name=name, timeout=timeout),
                                   manager=manager, owned_db=db)
    if isinstance(target, Engine):
        if not options and target.session_managers:
            manager = target.session_managers[-1]
        else:
            manager = SessionManager(target, **options)
        return _session_connection(manager.open(name=name, timeout=timeout),
                                   manager=manager)
    address = getattr(target, "address", None)   # PrimaDaemon duck type
    if options and (isinstance(target, SessionManager)
                    or address is not None):
        raise ValueError(
            "manager knobs cannot be changed on an existing "
            f"{type(target).__name__}: {sorted(options)}"
        )
    if isinstance(target, SessionManager):
        return _session_connection(target.open(name=name, timeout=timeout),
                                   manager=target)
    if isinstance(target, tuple) and len(target) == 2:
        host, port = target
        return _socket_connection(host, int(port), name, timeout)
    if isinstance(target, str):
        host, port = _parse_address(target)
        return _socket_connection(host, port, name, timeout)
    if address is not None:
        host, port = address
        return _socket_connection(host, port, name, timeout)
    raise TypeError(
        f"cannot connect to {type(target).__name__!r} — expected None, "
        f"Prima, SessionManager, PrimaDaemon, 'prima://host:port', or "
        f"(host, port)"
    )
