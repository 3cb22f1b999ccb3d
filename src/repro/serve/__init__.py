"""The serving layer: a daemonised multi-session server with one
explicit wire protocol and one client API.

Grows the paper's workstation–server coupling into a serving subsystem:

* :mod:`repro.serve.protocol` — the typed request/response messages of
  every client exchange (OPEN / FETCH(n) / CLOSE, PREPARE /
  EXECUTE_PREPARED, EXECUTE, EXPLAIN, CHECKIN, HELLO / PING / GOODBYE)
  plus the one codec that frames them and bills them against the
  network cost model — identically on every transport;
* :class:`SessionManager` / :class:`Session` — the server side: many
  concurrent sessions (own transaction/lock scope, counters, admission
  control, idle/lease resource hygiene) multiplexed onto one
  :class:`~repro.db.Prima` or cluster; :meth:`Session.handle` answers
  one request and is the only way into a session;
* :class:`RemoteCursor` — lazy result-set pipelines streamed in
  fetch-size batches with double-buffered prefetch (and optional
  network-model-tuned batch sizes, :mod:`repro.serve.tuning`);
* :class:`~repro.serve.daemon.PrimaDaemon` — the asyncio event-loop
  transport: many clients over a socket from a single thread, bounded
  send queues for backpressure;
* :func:`connect` / :class:`Connection` — the client side, and the
  only one: identical over the in-process and daemon-socket transports.
"""

from repro.serve import protocol
from repro.serve.connection import (
    DEFAULT_FETCH_SIZE,
    Connection,
    RemotePreparedStatement,
    connect,
)
from repro.serve.cursor import RemoteCursor, ServerCursor
from repro.serve.daemon import PrimaDaemon, serve_daemon
from repro.serve.session import Session, SessionManager

__all__ = [
    "Connection",
    "DEFAULT_FETCH_SIZE",
    "PrimaDaemon",
    "RemoteCursor",
    "RemotePreparedStatement",
    "ServerCursor",
    "Session",
    "SessionManager",
    "connect",
    "protocol",
    "serve_daemon",
]
