"""The asyncio daemon: many concurrent clients, one event-loop thread.

A thread per client burns one OS thread per session; this daemon
multiplexes every connection onto a single event loop instead, so the
server's thread count stays **O(1)** no matter how many sessions are
open (the property ``test_many_async_clients_one_daemon_thread`` in
``tests/test_daemon.py`` gates on).  Per connection:

* a **reader coroutine** decodes length-prefixed frames into the typed
  requests of :mod:`repro.serve.protocol` and dispatches them inline to
  :meth:`repro.serve.Session.handle` — the same transport-agnostic entry
  the in-process transport calls, so billing and semantics are identical
  by construction;
* a **writer coroutine** drains a *bounded* ``asyncio.Queue`` of
  responses onto the socket.  The bound is the backpressure point: a
  client that stops reading fills its TCP window, the writer blocks in
  ``drain()``, the queue fills, and the reader stops accepting requests
  for that session — one slow client never grows server memory.

**Admission.**  The first frame must be HELLO.  The daemon drives the
manager's one admission path (:meth:`SessionManager.admit`) and
*awaits* between its steps — with ``admission='queue'`` a full server
parks the coroutine instead of blocking a thread, honouring
``queue_timeout``; with ``'reject'`` the client gets
:class:`~repro.errors.SessionLimitError` as a
:class:`~repro.serve.protocol.WireError` frame.

**Failure handling.**  A server-side :class:`~repro.errors.PrimaError`
becomes a WireError frame (the client re-raises it by class); an abrupt
EOF — client crashed mid-fetch — **aborts** the session, which closes
its cursors (truncating pending pipelines, running close-hooks, and
releasing pinned snapshots) and returns the admission slot.

**Hygiene.**  A periodic task calls :meth:`SessionManager.reap`, so
the idle timeout of cursors and statement handles and the session
lease are enforced without any client cooperation.

The daemon serialises molecules with pickle; like any pickle endpoint it
must only listen on trusted interfaces (default: loopback).
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import threading
import time
from typing import TYPE_CHECKING

from repro.errors import ProtocolError, SessionError, SessionLimitError
from repro.serve import protocol
from repro.serve.aio import read_message, write_message
from repro.serve.connection import Connection, connect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.session import Session, SessionManager

#: Sentinel closing a connection's send queue.
_CLOSE = object()

#: Listen backlog of the daemon's socket.
_BACKLOG = 128
#: Bound of each connection's response queue — the backpressure point.
_SEND_QUEUE = 8
#: Longest sleep (seconds) between two steps of a queued admission.
_ADMISSION_POLL = 0.005


class PrimaDaemon:
    """Serve a :class:`SessionManager` over a socket, asynchronously.

    One background thread runs the event loop; everything else — every
    client, the reaper, the acceptor — is a coroutine on it.  The
    listening socket is bound synchronously in ``__init__`` (so
    :attr:`address` is known before :meth:`start`, and the loop never
    needs resolver helper threads).

    ``reap_interval`` is the hygiene sweep period; by default a quarter
    of the manager's shorter of ``idle_timeout`` and ``session_lease``
    (no sweep when neither is set).
    """

    def __init__(self, manager: "SessionManager", host: str = "127.0.0.1",
                 port: int = 0, *, reap_interval: float | None = None,
                 ) -> None:
        self.manager = manager
        timeouts = [t for t in (manager.idle_timeout, manager.session_lease)
                    if t is not None]
        if reap_interval is None and timeouts:
            reap_interval = max(min(timeouts) / 4, 0.01)
        self.reap_interval = reap_interval
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(_BACKLOG)
        self._sock.setblocking(False)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        #: Live connection tasks (cancelled on stop).
        self._connections: set[asyncio.Task] = set()
        #: Served-connection count (diagnostics).
        self.connections_served = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — valid immediately after
        construction."""
        host, port = self._sock.getsockname()[:2]
        return host, port

    def start(self) -> "PrimaDaemon":
        """Launch the event-loop thread and begin accepting."""
        if self._thread is not None:
            raise SessionError("daemon already started")
        if self._started.is_set():
            raise SessionError(
                "daemon cannot be restarted (its socket is closed); "
                "construct a new PrimaDaemon"
            )
        self._thread = threading.Thread(target=self._run,
                                        name="prima-daemon", daemon=True)
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup races
            self._startup_error = exc
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(self._serve_connection,
                                            sock=self._sock)
        reaper = (asyncio.ensure_future(self._reap_loop())
                  if self.reap_interval is not None else None)
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            if reaper is not None:
                reaper.cancel()
            for task in list(self._connections):
                task.cancel()
            if self._connections:
                await asyncio.gather(*self._connections,
                                     return_exceptions=True)

    def stop(self) -> None:
        """Stop accepting, cancel live connections (their sessions are
        aborted, releasing cursors and slots), and join the loop
        thread."""
        if self._thread is None or self._loop is None:
            return
        loop, stop = self._loop, self._stop
        try:
            loop.call_soon_threadsafe(stop.set)
        except RuntimeError:
            pass   # loop already ended (startup failure)
        self._thread.join()
        self._thread = None

    def connect(self, name: str | None = None,
                timeout: float | None = None) -> Connection:
        """A blocking-socket :class:`Connection` to this daemon."""
        return connect(self.address, name=name, timeout=timeout)

    def __enter__(self) -> "PrimaDaemon":
        return self.start()

    def __exit__(self, _exc_type, _exc, _tb) -> None:
        self.stop()

    def __repr__(self) -> str:
        host, port = self.address
        state = "running" if self._thread is not None else "stopped"
        return f"PrimaDaemon({host}:{port}, {state})"

    # -- the per-connection protocol machine ---------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        self.connections_served += 1
        session: "Session | None" = None
        queue: asyncio.Queue = asyncio.Queue(maxsize=_SEND_QUEUE)
        sender = asyncio.ensure_future(self._send_loop(queue, writer))
        try:
            session = await self._handshake(reader, queue)
            if session is not None:
                session.set_notify_sink(self._notify_sink(queue))
                await self._request_loop(session, reader, queue)
        except (ProtocolError, ConnectionError, asyncio.CancelledError):
            pass   # torn-down client; the finally block reclaims
        finally:
            # Whatever ended the conversation — GOODBYE (session already
            # closed), abrupt EOF, a protocol violation, daemon stop —
            # an open session is *aborted*: cursors close (pending
            # pipelines truncate, snapshots unpin) and the admission
            # slot returns.  The cleanup must tolerate re-delivered
            # cancellation (daemon stop cancels this very task), so the
            # task ends *finished*, not *cancelled* — a cancelled stream
            # task trips asyncio's connection_made error logger.
            if session is not None:
                # Stop push delivery into this dead queue first, then
                # abort (which also reclaims the subscription slots).
                session.set_notify_sink(None)
                if not session.closed:
                    session.abort()
            try:
                queue.put_nowait(_CLOSE)
            except asyncio.QueueFull:
                sender.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await sender
            writer.close()
            with contextlib.suppress(asyncio.CancelledError, OSError,
                                     ConnectionError):
                await writer.wait_closed()
            self._connections.discard(task)

    async def _handshake(self, reader: asyncio.StreamReader,
                         queue: asyncio.Queue) -> "Session | None":
        """First frame must be HELLO; admit (possibly queueing
        cooperatively) and answer with the Welcome."""
        first = await read_message(reader)
        if first is None:
            return None
        if not isinstance(first, protocol.Hello):
            await queue.put(protocol.echo_correlation(
                first, protocol.wire_error(ProtocolError(
                    f"expected Hello, got {type(first).__name__}"))))
            return None
        try:
            session = await self._admit(first.client)
        except SessionLimitError as exc:
            await queue.put(protocol.echo_correlation(
                first, protocol.wire_error(exc)))
            return None
        await queue.put(protocol.echo_correlation(first, protocol.Welcome(
            session.name, self.manager.default_fetch_size,
            shards=self.manager.db.shard_count)))
        return session

    async def _admit(self, client: str | None) -> "Session":
        """The manager's admission steps, awaited between — the loop
        keeps serving while a queued HELLO waits for a slot."""
        admission = self.manager.admit(client)
        while True:
            try:
                wait = next(admission)
            except StopIteration as admitted:
                return admitted.value
            await asyncio.sleep(_ADMISSION_POLL if wait is None
                                else min(wait, _ADMISSION_POLL))

    async def _request_loop(self, session: "Session",
                            reader: asyncio.StreamReader,
                            queue: asyncio.Queue) -> None:
        """Decode → dispatch → enqueue, until GOODBYE or EOF.

        Dispatch runs inline on the loop thread: the engine work of one
        message is CPU-bound under the GIL anyway, so handing it to a
        thread pool would re-grow the thread count this daemon exists to
        flatten.  Concurrency happens *between* messages of different
        connections, which is exactly the granularity the engine mutex
        serialises anyway."""
        while True:
            request = await read_message(reader)
            if request is None:
                # Abrupt EOF (no GOODBYE): the finally block aborts.
                return
            try:
                response = session.handle(request)
            except Exception as exc:  # noqa: BLE001 - shipped to client
                response = protocol.wire_error(exc)
            await queue.put(protocol.echo_correlation(request, response))
            if isinstance(request, protocol.Goodbye) and session.closed:
                return

    async def _send_loop(self, queue: asyncio.Queue,
                         writer: asyncio.StreamWriter) -> None:
        """Drain the bounded response queue onto the socket.

        After a send failure (client gone) the loop keeps *discarding*
        until the close sentinel: the reader coroutine must never block
        on a full queue whose consumer died — it has to reach its own
        EOF and reclaim the session."""
        failed = False
        metrics = self.manager.metrics
        while True:
            message = await queue.get()
            # Depth *after* taking this message: 0 means the writer is
            # keeping up, near ``_SEND_QUEUE`` means backpressure.
            metrics.observe("send_queue_depth", queue.qsize())
            if message is _CLOSE:
                return
            if failed:
                continue
            try:
                await write_message(writer, message)
            except (ConnectionError, OSError):
                failed = True

    # -- server push ---------------------------------------------------------

    def _notify_sink(self, queue: asyncio.Queue):
        """A thread-safe push sink for one connection's session.

        The notifier runs on engine threads; the send queue belongs to
        the event loop.  The handoff is ``call_soon_threadsafe`` into a
        non-blocking put — a full queue (client not reading) **drops**
        the NOTIFY rather than ever blocking a committing thread, and
        the drop is counted.  Returns True optimistically: the enqueue
        outcome is only known on the loop thread."""
        loop = self._loop

        def sink(message: protocol.Notify) -> bool:
            if loop is None or loop.is_closed():
                return False
            try:
                loop.call_soon_threadsafe(self._push_notify, queue,
                                          message)
            except RuntimeError:    # loop shut down mid-handoff
                return False
            return True

        return sink

    def _push_notify(self, queue: asyncio.Queue,
                     message: protocol.Notify) -> None:
        try:
            queue.put_nowait(message)
        except asyncio.QueueFull:
            self.manager.db.access.counters.bump(
                "serve_notifications_dropped")

    # -- hygiene -------------------------------------------------------------

    async def _reap_loop(self) -> None:
        """Periodic :meth:`SessionManager.reap` sweep.

        The sweep doubles as the event loop's health probe: the
        difference between the intended and the actual sleep is the
        loop's scheduling lag — inline dispatch hogging the loop shows
        up here as ``event_loop_lag_ms``."""
        while True:
            before = time.perf_counter()
            await asyncio.sleep(self.reap_interval)
            lag_ms = (time.perf_counter() - before
                      - self.reap_interval) * 1000.0
            self.manager.metrics.observe("event_loop_lag_ms",
                                         max(lag_ms, 0.0))
            self.manager.reap()


def serve_daemon(manager: "SessionManager", host: str = "127.0.0.1",
                 port: int = 0, **options) -> PrimaDaemon:
    """Construct and start a :class:`PrimaDaemon` in one call."""
    return PrimaDaemon(manager, host, port, **options).start()
