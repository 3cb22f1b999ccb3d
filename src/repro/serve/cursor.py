"""Remote streaming cursors over the serving wire protocol.

A served SELECT is not shipped as one monolithic molecule set; it is an
**OPEN / FETCH(n) / CLOSE** conversation in the typed messages of
:mod:`repro.serve.protocol`.  The server side (:class:`ServerCursor`)
keeps the lazy :class:`~repro.data.result.ResultSet` pipeline open and
delivers it in ``fetch_size`` batches.  A set whose first batch
exhausts it — every set under ``fetch_size=None`` — is the OPEN
exchange alone: the server ends its cursor inside the reply, and the
client neither FETCHes nor CLOSEs.  The client side
(:class:`RemoteCursor`) honours the operator cursor protocol
(``next()``/``close()``/``rewind()``), so a plain ResultSet wraps it and
the whole client-side cursor contract — lazy iteration, fetch caching,
close-while-pending truncation — holds unchanged across the wire.

The client half is **transport-agnostic**: it holds nothing but a
transport exposing ``request(message) -> reply`` and speaks protocol
dataclasses through it.  In process that transport calls
:meth:`repro.serve.Session.handle` directly; against the daemon it
frames the same messages onto a socket — the cursor cannot tell the
difference (and is billed identically, because accounting lives in the
protocol codec).

**Double buffering.**  With a bounded ``fetch_size`` the client cursor
keeps at most two batches in flight: the batch the caller is consuming
and one *prefetched* batch requested as soon as consumption of the
current batch begins.  At most one batch (``fetch_size`` molecules) is
therefore constructed ahead of the batch being consumed, and the cursor
never holds more than ``2 * fetch_size`` undelivered molecules
(``max_in_flight`` records the high-water mark) — so the execution
pipeline's early-termination machinery (LIMIT, TopK bound pushdown)
keeps paying off end-to-end: a client that stops consuming stops the
server's molecule construction at most one batch later.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SessionStateError
from repro.mad.molecule import Molecule
from repro.serve import protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.data.result import ResultSet
    from repro.serve.session import Session

__all__ = ["RemoteCursor", "ServerCursor"]


class ServerCursor:
    """The server-resident half of one remote cursor.

    Owns the lazy ResultSet over the compiled pipeline and serves FETCH
    batches from it.  A close-hook on the pipeline root records the
    actual release (``serve_pipelines_released``), so tests and the
    serving benchmark can verify that a client CLOSE — truncating or
    not — or the exhaustion of a one-batch answer really tore the
    operator tree down.  A cursor that outlives its open reply has its
    id and idle time in the session's cursor table.
    """

    def __init__(self, session: "Session", result: "ResultSet") -> None:
        self.session = session
        self.result = result
        result.on_close(self._on_pipeline_close)

    def _on_pipeline_close(self, _operator) -> None:
        self.session._count("pipelines_released")  # noqa: SLF001

    def fetch(self, count: int | None) -> tuple[list[Molecule], bool]:
        """Deliver the next batch — at most ``count`` molecules, or the
        whole rest of the set when ``count`` is None — and whether the
        set is exhausted with it."""
        if count is not None:
            batch = self.result.fetch_many(count)
            return batch, self.result.exhausted or len(batch) < count
        batch = []
        while True:
            chunk = self.result.fetch_many(256)
            batch.extend(chunk)
            if len(chunk) < 256:
                return batch, True

    def reopen(self) -> None:
        """Restart the server pipeline at the first molecule.

        Raises :class:`~repro.errors.CursorStateError` when the cursor
        was closed while molecules were pending — the truncation half of
        the ResultSet contract, surfaced across the wire.
        """
        self.result.reopen()

    def close(self) -> None:
        """Release the pipeline (close-while-pending marks truncation)."""
        self.result.close()


class RemoteCursor:
    """The client half: a streaming cursor speaking protocol messages.

    Honours the operator cursor protocol, so ``ResultSet(source=cursor)``
    turns it into an ordinary lazy result set.  ``on_arrival`` (if given)
    runs for every molecule *as its batch arrives* — before the caller
    pulls it — which is how a streaming checkout populates the
    workstation's object buffer incrementally.

    Constructed from the :class:`~repro.serve.protocol.OpenReply` of an
    OPEN or EXECUTE_PREPARED exchange; ``fetch_size`` is the *resolved*
    batch size the server answered with (its default knob, or the
    auto-tuned value of an ``"auto"`` open).  An exhausted reply holds
    the whole answer and leaves no server cursor behind: the cursor
    keeps that batch, and ``close()``/``rewind()`` cost no message.
    """

    def __init__(self, transport, reply: protocol.OpenReply,
                 on_arrival: Callable[[Molecule], None] | None = None) -> None:
        self._transport = transport
        self.cursor_id = reply.cursor_id
        self._fetch_size = reply.fetch_size
        self._on_arrival = on_arrival
        self._buffer: list[Molecule] = []
        self._pos = 0
        self._prefetched: list[Molecule] | None = None
        self._server_exhausted = reply.exhausted
        #: The whole answer, when it shipped in the open reply (the
        #: server then holds no cursor); None for a multi-batch cursor.
        self._held = reply.batch if reply.exhausted else None
        self._closed = False
        self._close_hooks: list[Callable[[Any], None]] = []
        self.plan_text = reply.plan_text
        #: Shard index the pipeline was routed to (None: single engine,
        #: or a scatter-gather across all shards).
        self.shard = reply.shard
        #: Molecules delivered to the caller so far.
        self.rows_delivered = 0
        #: High-water mark of undelivered molecules held client-side —
        #: bounded by 2 * fetch_size (double buffering).
        self.max_in_flight = 0
        self._arrive(reply.batch)
        self._buffer = reply.batch
        self._note_in_flight()

    @property
    def fetch_size(self) -> int | None:
        """The resolved batch size this cursor fetches with (None:
        whole set shipped at open)."""
        return self._fetch_size

    # -- bookkeeping ---------------------------------------------------------

    def _arrive(self, batch: list[Molecule]) -> None:
        if self._on_arrival is not None:
            for molecule in batch:
                self._on_arrival(molecule)

    def _in_flight(self) -> int:
        held = len(self._buffer) - self._pos
        if self._prefetched is not None:
            held += len(self._prefetched)
        return held

    def _note_in_flight(self) -> None:
        held = self._in_flight()
        if held > self.max_in_flight:
            self.max_in_flight = held

    def _fetch_batch(self) -> list[Molecule]:
        assert self._fetch_size is not None
        reply = self._transport.request(
            protocol.Fetch(self.cursor_id, self._fetch_size))
        self._server_exhausted = reply.exhausted
        self._arrive(reply.batch)
        return reply.batch

    # -- the operator cursor protocol ---------------------------------------

    def next(self) -> Molecule | None:
        """Deliver the next molecule (None at end or after close)."""
        if self._closed:
            return None
        if self._pos >= len(self._buffer):
            if self._prefetched is not None:
                # Swap in the standing prefetched batch.
                self._buffer, self._prefetched = self._prefetched, None
                self._pos = 0
            elif not self._server_exhausted and self._fetch_size is not None:
                self._buffer = self._fetch_batch()
                self._pos = 0
            else:
                return None
            if not self._buffer:
                return None
        molecule = self._buffer[self._pos]
        self._pos += 1
        self.rows_delivered += 1
        # One-batch prefetch: while the caller works through this batch,
        # the next one is already requested (double buffering) — never
        # more than one batch constructed ahead of the one in use.
        if self._prefetched is None and self._fetch_size is not None \
                and not self._server_exhausted:
            self._prefetched = self._fetch_batch()
            self._note_in_flight()
        return molecule

    def close(self) -> None:
        """End the cursor: send CLOSE, so the server releases its
        pipeline for good — or nothing, when the answer shipped whole in
        the open reply and the server already released it."""
        if self._closed:
            return
        self._closed = True
        self._buffer = []
        self._prefetched = None
        self._pos = 0
        if self._held is None:
            self._transport.request(protocol.CloseCursor(self.cursor_id))
        hooks, self._close_hooks = self._close_hooks, []
        for hook in hooks:
            hook(self)

    def rewind(self) -> None:
        """Restart the stream at the first molecule: send REOPEN, or
        replay the held answer locally when it shipped whole in the open
        reply.  Either way ``on_arrival`` runs again for the first batch.

        A REOPEN re-reads the cursor's pinned snapshot (pipeline
        breakers replay their cached run), so the local replay is the
        same answer.  Server-side truncation (the cursor was closed
        while molecules were pending) surfaces as
        :class:`~repro.errors.CursorStateError`.
        """
        if self._closed:
            raise SessionStateError(
                f"remote cursor #{self.cursor_id} is closed"
            )
        if self._held is not None:
            batch = self._held
        else:
            reply = self._transport.request(
                protocol.Reopen(self.cursor_id, self._fetch_size))
            self._server_exhausted = reply.exhausted
            batch = reply.batch
        self._arrive(batch)
        self._buffer = batch
        self._prefetched = None
        self._pos = 0
        self._note_in_flight()

    def explain(self) -> str:
        """The server pipeline's plan text, shipped with the OPEN response.

        EXPLAIN is a first-class protocol citizen: the plan text rides
        the wire once at open time, so inspecting it here costs no extra
        round trip (ad-hoc explanation without a cursor goes through
        :meth:`repro.serve.Connection.explain` instead).
        """
        return self.plan_text

    def has_pending(self) -> bool | None:
        """Whether undelivered molecules remain — answered *without* a
        wire round trip when possible.

        ``ResultSet.close()`` consults this instead of probing with
        ``next()``: molecules standing in the client buffers, or a
        server known not to be exhausted, decide truncation for free —
        no FETCH (and no prefetch cascade) just to learn what the
        double-buffering state already proves.  A one-batch answer is
        decided by its held batch alone.  ``None`` means unknown
        (the caller falls back to the one-molecule probe), which cannot
        occur in practice: a non-exhausted server always has a standing
        batch client-side, and a short batch flips the exhausted flag.
        """
        if self._closed:
            return False
        if self._in_flight() > 0:
            return True
        if self._server_exhausted:
            return False
        return None   # pragma: no cover - unreachable, see docstring

    def add_close_hook(self, hook: Callable[[Any], None]) -> None:
        """Operator-protocol parity: run ``hook`` once on ``close()``."""
        self._close_hooks.append(hook)

    def __iter__(self):
        while True:
            molecule = self.next()
            if molecule is None:
                return
            yield molecule

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "exhausted" if self._server_exhausted and not self._in_flight()
            else "streaming")
        return (f"RemoteCursor(#{self.cursor_id}, {state}, "
                f"{self.rows_delivered} delivered)")
