"""The slow-query log: a bounded ring of the N slowest queries.

Latency histograms say the p99 moved; the slow log says *which* queries
moved it.  Each entry keeps the statement text, the duration, and —
when the query was sampled by the tracer — its span tree, so a remote
``Connection.server_stats()`` can show exactly where a pathological
query spent its time without re-running it.

The log is a min-heap of the N slowest entries seen since the last
:meth:`clear`: a new query displaces the current fastest entry only if
it was slower, so memory stays bounded at ``capacity`` regardless of
query volume.
"""

from __future__ import annotations

import heapq
import threading
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.trace import Span


class SlowLog:
    """Bounded ring of the slowest queries (with their span trees)."""

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self._heap: list[tuple[float, int, dict[str, Any]]] = []
        self._seq = 0
        self._lock = threading.Lock()

    def record(self, text: str, duration: float,
               span: "Span | None" = None, **attrs: Any) -> bool:
        """Offer one finished query; returns True when it was kept.

        ``duration`` is seconds; the entry stores milliseconds.  The
        fast path of a saturated log is one lock + one comparison.
        """
        with self._lock:
            if len(self._heap) >= self.capacity and \
                    duration <= self._heap[0][0]:
                return False
            entry = {
                "mql": text,
                "duration_ms": round(duration * 1000.0, 3),
            }
            if attrs:
                entry.update(attrs)
            if span is not None:
                entry["trace"] = span.to_dict()
            self._seq += 1
            item = (duration, self._seq, entry)
            if len(self._heap) >= self.capacity:
                heapq.heapreplace(self._heap, item)
            else:
                heapq.heappush(self._heap, item)
            return True

    def entries(self) -> list[dict[str, Any]]:
        """The kept entries, slowest first (JSON-able dicts)."""
        with self._lock:
            ranked = sorted(self._heap,
                            key=lambda item: (-item[0], item[1]))
            return [dict(entry) for _duration, _seq, entry in ranked]

    #: ``snapshot()`` mirrors the Counters/registry export verb.
    snapshot = entries

    def clear(self) -> None:
        with self._lock:
            self._heap.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def __repr__(self) -> str:
        with self._lock:
            slowest = max((d for d, _s, _e in self._heap), default=0.0)
        return (f"SlowLog({len(self)}/{self.capacity} entries, "
                f"slowest {slowest * 1000.0:.3f} ms)")
