"""The serving wire protocol: typed messages and one codec.

Every exchange between a client and a PRIMA server — OPEN / FETCH(n) /
REOPEN / CLOSE, PREPARE / EXECUTE_PREPARED / DEALLOCATE, EXECUTE,
EXPLAIN, CHECKIN, and the connection-management HELLO / PING / GOODBYE —
is one *request dataclass* in, one *response dataclass* out.  The
protocol used to live implicitly inside ``Session._*_message`` methods
(argument lists in, tuples out, billing inlined at every call site);
lifting it into explicit message types makes the session core
transport-agnostic: the in-process transport hands the very same objects
to :meth:`repro.serve.Session.handle` that the asyncio daemon decodes
off a socket.

Two independent byte notions live here:

* :func:`wire_size` — the **modelled** size of a message under the
  coupling network's cost model (:class:`~repro.obs.network.NetworkModel`).
  This is what ``io_report``'s ``net_messages`` / ``net_bytes`` /
  ``net_comm_time_ms`` bill, and because the model sits in the codec it
  bills **identically on every transport** — an in-process OPEN and a
  daemon-socket OPEN account the same bytes.  A molecule batch bills
  the record encoding of every atom *occurrence* (shared subobjects
  count each time they ship) plus a header, but
  :func:`~repro.access.encoding.molecules_size` computes it per
  *distinct* atom and never encodes anything.
* :func:`encode` / :func:`decode` + the length-prefixed framing
  (:func:`pack_frame`, the sync :func:`send_message` /
  :func:`recv_message` and the async helpers in
  :mod:`repro.serve.aio`) — the **physical** representation on a real
  socket.  Messages are pickled, framed by a 4-byte big-endian length.
  The daemon binds to loopback by default; like any pickle endpoint it
  must not be exposed to untrusted peers.

Errors cross the wire as :class:`WireError` carrying the exception class
name from :mod:`repro.errors`; :func:`raise_wire_error` re-raises the
matching class client-side, so ``CursorStateError`` (truncation),
``SessionLimitError`` (admission) and friends keep their types across a
socket exactly as they do in process.
"""

from __future__ import annotations

import pickle
import socket
import struct
from dataclasses import dataclass, field
from typing import Any, NoReturn

from repro.access.encoding import encoded_size, molecules_size
from repro.mad.molecule import Molecule
from repro.mad.types import Surrogate

import repro.errors as _errors
from repro.errors import ProtocolError, SessionError

# ---------------------------------------------------------------------------
# Modelled message sizes (bytes) — the cost-model constants of the
# cursor protocol (benchmark A9's message/byte accounting).
# ---------------------------------------------------------------------------

#: FETCH(n): cursor id + count + framing.
FETCH_REQUEST_BYTES = 24
#: Small control requests (REOPEN, CLOSE, DEALLOCATE, HELLO, PING, ...).
CONTROL_REQUEST_BYTES = 16
#: Bare acknowledgement responses.
ACK_BYTES = 8
#: Header of one response batch.
BATCH_HEADER_BYTES = 8
#: One server-side statement handle (id + parameter signature).
STATEMENT_HANDLE_BYTES = 16

#: ``fetch_size`` wire values beyond an integer: ``"default"`` defers to
#: the server's knob, ``"auto"`` asks the server to tune the batch size
#: from its network model (see :mod:`repro.serve.tuning`), ``None``
#: ships the whole set in the open response.
AUTO_FETCH_SIZE = "auto"
DEFAULT_FETCH_SIZE_WIRE = "default"

#: Hard ceiling on one physical frame (a runaway/corrupt length prefix
#: must not allocate unboundedly).
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LENGTH = struct.Struct(">I")


def bindings_bytes(args: tuple, params: dict[str, Any] | None) -> int:
    """Modelled wire size of one execution's parameter values."""
    payload = {f"p{i}": value for i, value in enumerate(args)}
    if params:
        payload.update(params)
    return encoded_size(payload) if payload else 0


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------

@dataclass
class Request:
    """Base class of client → server messages."""


@dataclass
class Response:
    """Base class of server → client messages."""


# -- connection management ---------------------------------------------------

@dataclass
class Hello(Request):
    """Open a session (admission control applies).  The daemon requires
    this as the first frame of a connection; the in-process transport
    opens its session directly on the manager instead."""
    client: str | None = None


@dataclass
class Welcome(Response):
    """HELLO succeeded: the session label and the server's default
    fetch-size knob (``None`` whole-set, int, or ``"auto"``)."""
    session: str = ""
    default_fetch_size: int | str | None = None
    #: Shard count of the serving database (1: a single engine; >1: a
    #: sharded cluster behind the same protocol).
    shards: int = 1


@dataclass
class Ping(Request):
    """Keepalive: refreshes the session lease without doing work."""


@dataclass
class Pong(Response):
    session: str = ""


@dataclass
class Goodbye(Request):
    """Close the session (``abort=True`` rolls its transaction back)."""
    abort: bool = False


@dataclass
class Ack(Response):
    """Bare acknowledgement."""


# -- the cursor protocol -----------------------------------------------------

@dataclass
class Open(Request):
    """OPEN: compile a SELECT, deliver the first batch in the reply."""
    mql: str = ""
    fetch_size: int | str | None = DEFAULT_FETCH_SIZE_WIRE
    args: tuple = ()
    params: dict[str, Any] | None = None


@dataclass
class OpenReply(Response):
    """The open cursor: id, first batch, and the *resolved* fetch size
    (the server's default, or the auto-tuned value) the client should
    use for subsequent FETCH messages.

    An ``exhausted`` reply carries the whole answer and ``cursor_id ==
    0``: the server ended the cursor before replying, so no server
    cursor remains to FETCH, REOPEN or CLOSE."""
    cursor_id: int = 0
    batch: list[Molecule] = field(default_factory=list)
    exhausted: bool = True
    plan_text: str = ""
    fetch_size: int | None = None
    #: Shard the query routed to (``None``: single engine, or a
    #: cluster scatter-gather across all shards).
    shard: int | None = None


@dataclass
class Fetch(Request):
    """FETCH(n): the next batch of an open cursor."""
    cursor_id: int = 0
    count: int = 1


@dataclass
class Batch(Response):
    batch: list[Molecule] = field(default_factory=list)
    exhausted: bool = True


@dataclass
class Reopen(Request):
    """REOPEN: restart the stream (truncation raises, as locally)."""
    cursor_id: int = 0
    fetch_size: int | None = None


@dataclass
class CloseCursor(Request):
    """CLOSE: release the server pipeline for good."""
    cursor_id: int = 0


# -- prepared statements -----------------------------------------------------

@dataclass
class Prepare(Request):
    """PREPARE: ship the text once; the reply is a statement handle."""
    mql: str = ""


@dataclass
class PrepareReply(Response):
    statement_id: int = 0
    kind: str = "select"
    text: str = ""
    param_count: int = 0
    param_names: tuple = ()


@dataclass
class ExecutePrepared(Request):
    """EXECUTE_PREPARED: handle + bindings only — the text never
    reships.  SELECT handles answer with :class:`OpenReply`, DML handles
    with :class:`Executed`."""
    statement_id: int = 0
    args: tuple = ()
    params: dict[str, Any] | None = None
    fetch_size: int | str | None = DEFAULT_FETCH_SIZE_WIRE


@dataclass
class Deallocate(Request):
    """DEALLOCATE: drop a server-side statement handle."""
    statement_id: int = 0


# -- one-shot statements -----------------------------------------------------

@dataclass
class Execute(Request):
    """EXECUTE: one statement, text in the request.  SELECTs answer with
    :class:`OpenReply` (the server routes), DML with :class:`Executed`."""
    mql: str = ""
    args: tuple = ()
    params: dict[str, Any] | None = None


@dataclass
class Executed(Response):
    """DML outcome: the materialised result surface of the statement."""
    molecules: list[Molecule] = field(default_factory=list)
    affected: int = 0
    inserted: Surrogate | None = None


@dataclass
class Explain(Request):
    """EXPLAIN: request carries text (+ optional bindings), reply the
    rendered plan.  No cursor opens."""
    mql: str = ""
    args: tuple = ()
    params: dict[str, Any] | None = None


@dataclass
class ExplainReply(Response):
    text: str = ""


# -- observability -----------------------------------------------------------

@dataclass
class Stats(Request):
    """STATS: pull the server's metrics registry and slow-query log.
    ``reset=True`` zeroes the server-side accounting after the read
    (a sampling client's read-and-rearm)."""
    reset: bool = False


@dataclass
class StatsReply(Response):
    """The server's observability export: the merged
    ``metrics_report()`` (counters + gauges + histograms — the same
    schema on every transport) and the slow-log entries."""
    metrics: dict[str, Any] = field(default_factory=dict)
    slowlog: list[dict[str, Any]] = field(default_factory=list)


@dataclass
class Trace(Request):
    """TRACE: run a SELECT to exhaustion under a forced trace; the
    reply carries the rendered span tree.  No cursor opens."""
    mql: str = ""
    args: tuple = ()
    params: dict[str, Any] | None = None


@dataclass
class TraceReply(Response):
    """The query's span tree: rendered text plus the JSON-able dict
    (``Span.to_dict()`` — durations in ms)."""
    text: str = ""
    tree: dict[str, Any] = field(default_factory=dict)


# -- checkout/checkin (the coupling protocol) --------------------------------

@dataclass
class Checkin(Request):
    """Apply a workstation's object buffer in one message pair."""
    modifications: dict[Surrogate, dict[str, Any]] = field(
        default_factory=dict)
    deletions: list[Surrogate] = field(default_factory=list)
    creations: list[tuple[Surrogate, dict[str, Any]]] = field(
        default_factory=list)


@dataclass
class CheckinReply(Response):
    """The temporary → real surrogate mapping of applied creations."""
    mapping: dict[Surrogate, Surrogate] = field(default_factory=dict)


# -- live queries (server push) ----------------------------------------------

@dataclass
class Subscribe(Request):
    """Register a prepared SELECT for server-pushed invalidation.

    ``deliver`` picks the payload: ``"notify"`` pushes a bare epoch
    delta (the client decides whether to re-fetch); ``"requery"``
    re-runs the statement against a fresh snapshot on every fire and
    ships the new result version in the NOTIFY frame.
    """
    mql: str = ""
    args: tuple = ()
    params: dict[str, Any] | None = None
    deliver: str = "notify"


@dataclass
class SubscribeReply(Response):
    """The registered subscription: its handle, the dependency set the
    server extracted from the plan, and the catalog version stamped at
    registration."""
    subscription_id: int = 0
    types: tuple = ()
    catalog_version: int = 0


@dataclass
class Unsubscribe(Request):
    """Drop a subscription (idempotent — unknown ids Ack too)."""
    subscription_id: int = 0


@dataclass
class Notify(Response):
    """An **unsolicited** server → client push: the commit at ``epoch``
    touched ``types`` intersecting the subscription's dependency set.
    ``molecules`` carries the re-evaluated result for
    ``deliver="requery"`` subscriptions (``None`` for bare notifies);
    ``coalesced`` counts additional commits merged into this frame.
    Never carries a correlation id — see :func:`correlation_of`.
    """
    subscription_id: int = 0
    epoch: int = 0
    types: tuple = ()
    catalog_changed: bool = False
    coalesced: int = 0
    molecules: list[Molecule] | None = None


# -- errors ------------------------------------------------------------------

@dataclass
class WireError(Response):
    """A server-side exception, shipped by class name + message."""
    kind: str = "SessionError"
    message: str = ""


# ---------------------------------------------------------------------------
# Correlation ids — pairing replies with requests on a pushy socket
# ---------------------------------------------------------------------------
#
# Once the server may emit unsolicited Notify frames, "the next frame
# after my request" is no longer "my reply".  Clients stamp each request
# with a correlation id, the daemon echoes it onto the matching reply,
# and Notify frames carry none — so a transport can skim pushes out of
# the byte stream without ever mistaking one for a reply.  The id rides
# as a plain instance attribute (never a dataclass field): constructors
# keep their positional signatures, old peers ignore it, and pickle
# carries it via ``__dict__`` when present.

def set_correlation(message: Request | Response, correlation_id: int) -> None:
    """Stamp ``message`` with a correlation id (in-place)."""
    message.correlation_id = correlation_id  # type: ignore[attr-defined]


def correlation_of(message: Request | Response) -> int | None:
    """The message's correlation id, or ``None`` (unsolicited push /
    pre-correlation peer)."""
    return getattr(message, "correlation_id", None)


def echo_correlation(request: Request, response: Response) -> Response:
    """Stamp ``response`` with ``request``'s correlation id (if any), so
    the client can pick it out of a stream that also carries pushes."""
    correlation = correlation_of(request)
    if correlation is not None:
        set_correlation(response, correlation)
    return response


def is_push(message: Response) -> bool:
    """Whether ``message`` is an unsolicited push (a Notify without a
    correlation id) rather than a reply."""
    return isinstance(message, Notify) and correlation_of(message) is None


def expect_push(message: Response) -> Notify:
    """A frame read outside any exchange: it must be a push."""
    if not is_push(message):
        raise ProtocolError(
            f"unsolicited {type(message).__name__} frame outside any "
            f"request exchange"
        )
    return message


def expect(reply: Response, kind: type) -> Response:
    """``reply``, which must be a ``kind`` message."""
    if not isinstance(reply, kind):
        raise ProtocolError(
            f"expected {kind.__name__}, got {type(reply).__name__}")
    return reply


def check_reply(correlation: int, reply: Response | None) -> Response:
    """The frame that ended one exchange, checked: EOF and an
    out-of-order correlation raise :class:`ProtocolError`, a
    :class:`WireError` is re-raised under its original class."""
    if reply is None:
        raise ProtocolError("server closed the connection mid-exchange")
    echoed = correlation_of(reply)
    if echoed is not None and echoed != correlation:
        raise ProtocolError(
            f"out-of-order reply: sent correlation #{correlation}, "
            f"received #{echoed}"
        )
    if isinstance(reply, WireError):
        raise_wire_error(reply)
    return reply


# ---------------------------------------------------------------------------
# Modelled accounting — one place, every transport
# ---------------------------------------------------------------------------

def wire_size(message: Request | Response) -> int:
    """The modelled byte size of one message under the network cost
    model.  Billing every transport through this single function is what
    makes ``net_bytes`` / ``net_comm_time_ms`` transport-invariant."""
    if isinstance(message, Open):
        return (len(message.mql.encode("utf-8"))
                + bindings_bytes(message.args, message.params))
    if isinstance(message, (OpenReply, Batch)):
        return BATCH_HEADER_BYTES + molecules_size(message.batch)
    if isinstance(message, Fetch):
        return FETCH_REQUEST_BYTES
    if isinstance(message, (Prepare,)):
        return len(message.mql.encode("utf-8"))
    if isinstance(message, PrepareReply):
        return STATEMENT_HANDLE_BYTES
    if isinstance(message, ExecutePrepared):
        return (CONTROL_REQUEST_BYTES
                + bindings_bytes(message.args, message.params))
    if isinstance(message, (Execute, Explain, Trace)):
        return (len(message.mql.encode("utf-8"))
                + bindings_bytes(message.args, message.params))
    if isinstance(message, ExplainReply):
        return len(message.text.encode("utf-8"))
    if isinstance(message, TraceReply):
        return len(message.text.encode("utf-8")) \
            + encoded_size(message.tree)
    if isinstance(message, StatsReply):
        return (encoded_size(message.metrics)
                + sum(encoded_size(entry) for entry in message.slowlog))
    if isinstance(message, Checkin):
        payload = sum(encoded_size(values)
                      for values in message.modifications.values())
        payload += sum(encoded_size(values)
                       for _temp, values in message.creations)
        payload += 16 * len(message.deletions)
        return payload
    if isinstance(message, CheckinReply):
        return 8 + 24 * len(message.mapping)
    if isinstance(message, Subscribe):
        return (len(message.mql.encode("utf-8"))
                + bindings_bytes(message.args, message.params))
    if isinstance(message, SubscribeReply):
        return STATEMENT_HANDLE_BYTES
    if isinstance(message, Notify):
        if message.molecules is not None:
            return BATCH_HEADER_BYTES + molecules_size(message.molecules)
        return CONTROL_REQUEST_BYTES
    if isinstance(message, (Executed, Ack, Pong, Welcome)):
        return ACK_BYTES
    if isinstance(message, WireError):
        return len(message.message.encode("utf-8"))
    # Reopen, CloseCursor, Deallocate, Hello, Ping, Goodbye — small
    # fixed-size control messages.
    return CONTROL_REQUEST_BYTES


# ---------------------------------------------------------------------------
# Physical representation — pickle + length-prefixed frames
# ---------------------------------------------------------------------------

def encode(message: Request | Response) -> bytes:
    """Serialise one message for a real socket."""
    return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)


def decode(payload: bytes) -> Request | Response:
    """Deserialise one message; malformed frames raise
    :class:`~repro.errors.ProtocolError`."""
    try:
        message = pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - normalised below
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, (Request, Response)):
        raise ProtocolError(
            f"frame decoded to {type(message).__name__}, not a protocol "
            f"message"
        )
    return message


def pack_frame(payload: bytes) -> bytes:
    """Prefix one encoded message with its 4-byte big-endian length."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(payload)) + payload


def frame_length(header: bytes) -> int:
    """Decode a length prefix, guarding against runaway sizes."""
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte "
            f"limit"
        )
    return length


def send_message(sock: socket.socket, message: Request | Response) -> None:
    """Write one framed message to a blocking socket."""
    sock.sendall(pack_frame(encode(message)))


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Request | Response | None:
    """Read one framed message from a blocking socket (None at EOF)."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    payload = _recv_exact(sock, frame_length(header))
    if payload is None:
        raise ProtocolError("connection closed mid-frame")
    return decode(payload)


# ---------------------------------------------------------------------------
# Error transport
# ---------------------------------------------------------------------------

def wire_error(exc: BaseException) -> WireError:
    """Wrap a server-side exception for shipping."""
    return WireError(kind=type(exc).__name__, message=str(exc))


def raise_wire_error(error: WireError) -> NoReturn:
    """Re-raise a shipped server error under its original class.

    The class is looked up by name in :mod:`repro.errors`; an unknown
    (non-PRIMA) class degrades to :class:`~repro.errors.SessionError`
    with the original name preserved in the message.
    """
    cls = getattr(_errors, error.kind, None)
    if isinstance(cls, type) and issubclass(cls, _errors.PrimaError):
        raise cls(error.message)
    raise SessionError(f"{error.kind}: {error.message}")
