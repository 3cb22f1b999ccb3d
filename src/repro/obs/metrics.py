"""Metrics: counters + gauges + fixed-bucket histograms, mergeable.

The paper argues in *counts* (block transfers, page fixes, messages);
:class:`~repro.util.stats.Counters` carries those.  What counts cannot
express is a distribution — the query-latency spread under 64 daemon
clients, the fetch-batch sizes the auto-tuner actually chose, how long
admission queued sessions.  :class:`MetricsRegistry` extends the
counter bag with

* **gauges** — last-written point-in-time values (buffer hit ratio,
  parallel speedup of the last run), and
* **histograms** — fixed-bucket distributions with Prometheus-style
  upper-edge buckets (``value <= bound`` lands in the bucket; one
  implicit overflow bucket past the last bound).

Registries :meth:`merge` associatively, so per-session and per-shard
registries aggregate into one cluster view.  Like every counter, they
are runtime state: a checkpoint does not hold them, and a loaded engine
starts them empty.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable

from repro.util.stats import Counters

#: Wall-time buckets in milliseconds (sub-ms queries up to multi-second).
LATENCY_BUCKETS_MS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
                      100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0)

#: Row/batch-size buckets (powers of two up to 4096-row batches).
SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                512.0, 1024.0, 2048.0, 4096.0)

#: Small-cardinality depth buckets (queue depths, worker counts).
DEPTH_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Ratio buckets in tenths (hit ratios, efficiency fractions).
RATIO_BUCKETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

#: Default bucket edges of the well-known histogram names, so every
#: producer of e.g. ``query_latency_ms`` agrees on the schema and a
#: cluster merge never faces mismatched bounds.
DEFAULT_BUCKETS: dict[str, tuple[float, ...]] = {
    "query_latency_ms": LATENCY_BUCKETS_MS,
    "request_latency_ms": LATENCY_BUCKETS_MS,
    "admission_wait_ms": LATENCY_BUCKETS_MS,
    "event_loop_lag_ms": LATENCY_BUCKETS_MS,
    "notify_latency_ms": LATENCY_BUCKETS_MS,
    "fetch_batch_rows": SIZE_BUCKETS,
    "send_queue_depth": DEPTH_BUCKETS,
    "parallel_units": DEPTH_BUCKETS,
    "buffer_hit_ratio": RATIO_BUCKETS,
}


class Histogram:
    """One fixed-bucket histogram (upper-edge inclusive buckets).

    ``bounds`` are the ascending bucket upper edges; an observation
    lands in the first bucket whose bound is ``>= value``, or in the
    implicit overflow bucket past the last bound.  Not internally
    locked — the owning :class:`MetricsRegistry` serialises access.
    """

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds: Iterable[float]) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError(
                f"bucket bounds must be strictly ascending, got "
                f"{self.bounds}"
            )
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total

    def copy(self) -> "Histogram":
        clone = Histogram(self.bounds)
        clone.counts = list(self.counts)
        clone.count = self.count
        clone.total = self.total
        return clone

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile: the upper edge of the bucket the
        rank falls in (the last finite bound for the overflow bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank and c:
                return self.bounds[min(i, len(self.bounds) - 1)]
        return self.bounds[-1]

    def snapshot(self) -> dict[str, Any]:
        """JSON-able schema: bounds, per-bucket counts, count/sum."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": round(self.total, 6),
        }

    def __repr__(self) -> str:
        return (f"Histogram({len(self.bounds)} buckets, n={self.count}, "
                f"mean={self.mean:.3f})")


class MetricsRegistry(Counters):
    """A counter bag plus gauges and fixed-bucket histograms.

    The counter surface (``bump``/``get``/``snapshot``/``diff``) is
    inherited unchanged, so a ``MetricsRegistry`` drops in anywhere a
    ``Counters`` is expected (the serving sessions do exactly that).
    """

    __slots__ = ("_gauges", "_histograms")

    def __init__(self) -> None:
        super().__init__()
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- gauges ---------------------------------------------------------------

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def gauge_value(self, name: str, default: float = 0.0) -> float:
        with self._lock:
            return self._gauges.get(name, default)

    def gauges(self) -> dict[str, float]:
        with self._lock:
            return dict(sorted(self._gauges.items()))

    # -- histograms -----------------------------------------------------------

    def observe(self, name: str, value: float,
                bounds: Iterable[float] | None = None) -> None:
        """Record ``value`` into histogram ``name``.

        The histogram is created on first observation — with ``bounds``
        if given, else the well-known :data:`DEFAULT_BUCKETS` schema for
        the name, else :data:`LATENCY_BUCKETS_MS`.
        """
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = Histogram(bounds if bounds is not None
                                 else DEFAULT_BUCKETS.get(
                                     name, LATENCY_BUCKETS_MS))
                self._histograms[name] = hist
            hist.observe(value)

    def histogram(self, name: str) -> Histogram | None:
        with self._lock:
            return self._histograms.get(name)

    def histograms(self) -> dict[str, dict[str, Any]]:
        """JSON-able snapshots of every histogram, sorted by name."""
        with self._lock:
            return {name: self._histograms[name].snapshot()
                    for name in sorted(self._histograms)}

    # -- aggregation ----------------------------------------------------------

    def merge(self, *others: "MetricsRegistry") -> "MetricsRegistry":
        """A **new** registry combining this one with ``others``.

        Counters and histogram buckets sum; gauges take the last writer
        in argument order.  Building a fresh registry (rather than
        mutating) is what makes the operation associative —
        ``a.merge(b).merge(c)`` equals ``a.merge(b.merge(c))`` — so
        per-shard and per-session registries fold into one cluster view
        in any grouping.
        """
        merged = MetricsRegistry()
        for source in (self, *others):
            with source._lock:
                values = dict(source._values)
                gauges = dict(getattr(source, "_gauges", {}))
                hists = {name: hist.copy() for name, hist in
                         getattr(source, "_histograms", {}).items()}
            for name, value in values.items():
                merged._values[name] += value
            merged._gauges.update(gauges)
            for name, hist in hists.items():
                mine = merged._histograms.get(name)
                if mine is None:
                    merged._histograms[name] = hist
                else:
                    mine.merge(hist)
        return merged

    # -- lifecycle ------------------------------------------------------------

    def reset(self) -> None:
        """Zero counters and histograms and drop every gauge."""
        with self._lock:
            self._values.clear()
            self._gauges.clear()
            self._histograms.clear()

    def report(self) -> dict[str, Any]:
        """The full JSON-able export: counters, gauges, histograms."""
        return {
            "counters": self.snapshot(),
            "gauges": self.gauges(),
            "histograms": self.histograms(),
        }

    def __repr__(self) -> str:
        with self._lock:
            return (f"MetricsRegistry({len(self._values)} counter(s), "
                    f"{len(self._gauges)} gauge(s), "
                    f"{len(self._histograms)} histogram(s))")
