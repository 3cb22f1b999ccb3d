"""Cost model of the workstation-host connection.

The original system coupled engineering workstations to a database server
over a LAN; the claim under test (benchmark A9) is that the *set-oriented*
MAD interface is a major prerequisite to reduce communication overhead.
The substitution is a message/byte cost model: every request
or response is one message paying a fixed latency plus size/bandwidth.
Absolute parameters resemble a 1987 10-Mbit LAN with heavy per-message
software overhead; only the ratios matter.

Both classes are **thread-safe**: :class:`NetworkModel` is a frozen
(immutable) dataclass, and :class:`NetworkStats` guards its accumulation
with a lock — the serving layer (:mod:`repro.serve`) accounts messages
from many concurrent session threads against one stats object.

The model is accounting, like the rest of :mod:`repro.obs`: it sits
below every layer that bills against it — the serving sessions, the
shard service channels and the workstation coupling.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass(frozen=True)
class NetworkModel:
    """Service-time parameters (milliseconds / bytes-per-ms).

    Frozen, hence safely shared by any number of session threads.
    """

    #: Fixed software+protocol overhead per message.
    per_message_ms: float = 5.0
    #: Usable bandwidth (10 Mbit/s ≈ 1250 bytes/ms at protocol efficiency 1).
    bytes_per_ms: float = 1250.0

    def transfer_ms(self, nbytes: int) -> float:
        return self.per_message_ms + nbytes / self.bytes_per_ms


class NetworkStats:
    """Accumulated communication accounting of one coupling endpoint.

    ``account()`` is atomic under a lock: a bare ``+=`` on the shared
    counters would be a read-modify-write that loses updates when several
    serving sessions bill messages concurrently.
    """

    __slots__ = ("messages", "bytes_sent", "comm_time_ms", "_lock")

    def __init__(self) -> None:
        self.messages = 0
        self.bytes_sent = 0
        self.comm_time_ms = 0.0
        self._lock = threading.Lock()

    def account(self, model: NetworkModel, nbytes: int) -> None:
        with self._lock:
            self.messages += 1
            self.bytes_sent += nbytes
            self.comm_time_ms += model.transfer_ms(nbytes)

    def snapshot(self) -> dict[str, float | int]:
        with self._lock:
            return {
                "messages": self.messages,
                "bytes_sent": self.bytes_sent,
                "comm_time_ms": round(self.comm_time_ms, 3),
            }

    def reset(self) -> None:
        """Zero the accounting (the endpoint stays usable)."""
        with self._lock:
            self.messages = 0
            self.bytes_sent = 0
            self.comm_time_ms = 0.0
