"""Asyncio framing and the async client of the serving protocol.

The daemon (:mod:`repro.serve.daemon`) and the async client below speak
the exact same typed messages and length-prefixed frames as the blocking
:class:`~repro.serve.connection.SocketTransport` — the codec lives in
:mod:`repro.serve.protocol`; this module only adapts it to coroutines.

:class:`AsyncClient` is what lets one thread hold *many* concurrent
client conversations: every client is a coroutine awaiting its reply
frames, so a 64-client workload against the daemon is two event loops
(one client-side, one daemon-side) rather than 64 threads.  Open clients
with :func:`open_client`; addresses should be numeric (``127.0.0.1``) —
asyncio resolves numeric hosts inline, keeping the no-helper-threads
property measurable.
"""

from __future__ import annotations

import asyncio

from repro.errors import ProtocolError, SessionError
from repro.serve import protocol

__all__ = ["AsyncClient", "open_client", "read_message", "write_message"]


async def read_message(
        reader: asyncio.StreamReader) -> protocol.Request | \
        protocol.Response | None:
    """Read one framed message (None at a clean EOF on a frame
    boundary; mid-frame EOF raises :class:`ProtocolError`)."""
    try:
        header = await reader.readexactly(4)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-frame") from exc
    try:
        payload = await reader.readexactly(protocol.frame_length(header))
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return protocol.decode(payload)


async def write_message(writer: asyncio.StreamWriter,
                        message: protocol.Request | protocol.Response
                        ) -> None:
    """Write one framed message and drain (the backpressure point)."""
    writer.write(protocol.pack_frame(protocol.encode(message)))
    await writer.drain()


class AsyncClient:
    """One asynchronous client session against the daemon.

    Strictly request/response (like the blocking transport), so requests
    of one client are serialised by an ``asyncio.Lock`` — concurrency
    comes from many clients interleaving on the loop, not from
    pipelining within one.  Server errors re-raise under their original
    :mod:`repro.errors` classes.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()
        self._closed = False
        self._next_correlation = 0
        #: The server-assigned session label (set by :meth:`hello`).
        self.session: str | None = None
        #: The server's default fetch-size knob (from the Welcome).
        self.default_fetch_size: int | str | None = None
        #: Unsolicited NOTIFY frames (live queries) skimmed off the
        #: stream; consumed by :meth:`next_notification` /
        #: :meth:`notifications`.
        self._notifications: asyncio.Queue = asyncio.Queue()
        #: Optional push callback: ``on_notify(frame)`` runs (on the
        #: event loop) for every skimmed NOTIFY, *in addition to* the
        #: queue.
        self.on_notify = None

    def _stash_push(self, frame: protocol.Notify) -> None:
        self._notifications.put_nowait(frame)
        if self.on_notify is not None:
            self.on_notify(frame)

    async def request(self, message: protocol.Request) -> protocol.Response:
        """One exchange: send the request, await its reply.

        The stream may interleave unsolicited NOTIFY frames (live
        queries); they are skimmed into :attr:`_notifications` by
        correlation id — the reply is the frame echoing this request's
        id, wherever it lands in the interleaving."""
        async with self._lock:
            if self._closed:
                raise SessionError("async client transport is closed")
            self._next_correlation += 1
            correlation = self._next_correlation
            protocol.set_correlation(message, correlation)
            await write_message(self._writer, message)
            reply = await read_message(self._reader)
            while reply is not None and protocol.is_push(reply):
                self._stash_push(reply)
                reply = await read_message(self._reader)
        return protocol.check_reply(correlation, reply)

    async def hello(self, client: str | None = None) -> protocol.Welcome:
        """Open the session (admission control applies; a queued HELLO
        resolves when a slot frees)."""
        welcome = protocol.expect(
            await self.request(protocol.Hello(client=client)),
            protocol.Welcome)
        self.session = welcome.session
        self.default_fetch_size = welcome.default_fetch_size
        return welcome

    # -- live queries --------------------------------------------------------

    async def subscribe(self, mql: str, args: tuple = (),
                        params: dict | None = None,
                        deliver: str = "notify",
                        ) -> protocol.SubscribeReply:
        """SUBSCRIBE a SELECT for server push; consume the frames with
        :meth:`next_notification` / ``async for`` :meth:`notifications`
        (or set :attr:`on_notify`)."""
        return protocol.expect(
            await self.request(protocol.Subscribe(mql, args, params, deliver)),
            protocol.SubscribeReply)

    async def unsubscribe(self, subscription_id: int) -> None:
        """UNSUBSCRIBE one live query (idempotent)."""
        await self.request(protocol.Unsubscribe(subscription_id))

    async def next_notification(self, timeout: float | None = None,
                                ) -> protocol.Notify:
        """Await the next NOTIFY frame — skimmed during an earlier
        request, or read directly off the idle stream.

        Raises :class:`asyncio.TimeoutError` when ``timeout`` (seconds)
        elapses first."""

        async def _next() -> protocol.Notify:
            while True:
                # Anything already skimmed wins; otherwise read the
                # stream (the request lock keeps this from racing an
                # in-flight exchange).
                try:
                    return self._notifications.get_nowait()
                except asyncio.QueueEmpty:
                    pass
                async with self._lock:
                    try:
                        return self._notifications.get_nowait()
                    except asyncio.QueueEmpty:
                        pass
                    if self._closed:
                        raise SessionError(
                            "async client transport is closed")
                    frame = await read_message(self._reader)
                if frame is None:
                    raise ProtocolError(
                        "server closed the connection while awaiting "
                        "notifications")
                protocol.expect_push(frame)
                if self.on_notify is not None:
                    self.on_notify(frame)
                return frame

        if timeout is None:
            return await _next()
        return await asyncio.wait_for(_next(), timeout)

    async def notifications(self):
        """An async iterator over incoming NOTIFY frames::

            async for frame in client.notifications():
                ...
        """
        while True:
            yield await self.next_notification()

    async def goodbye(self, abort: bool = False) -> None:
        """End the session cleanly (``abort=True`` rolls it back)."""
        await self.request(protocol.Goodbye(abort=abort))

    async def close(self) -> None:
        """Drop the transport (without GOODBYE: the server aborts the
        session on the EOF — the abrupt-disconnect path)."""
        if self._closed:
            return
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (OSError, ConnectionError):
            pass

    async def __aenter__(self) -> "AsyncClient":
        return self

    async def __aexit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is None and not self._closed:
            try:
                await self.goodbye()
            except (SessionError, ProtocolError, OSError):
                pass
        await self.close()


async def open_client(host: str, port: int,
                      client: str | None = None) -> AsyncClient:
    """Connect to a daemon and complete the HELLO exchange."""
    reader, writer = await asyncio.open_connection(host, port)
    async_client = AsyncClient(reader, writer)
    try:
        await async_client.hello(client)
    except BaseException:
        await async_client.close()
        raise
    return async_client
