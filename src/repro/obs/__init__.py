"""Observability: tracing, metrics, and the slow-query log.

One query now crosses planner → snapshot → operators → shard
coordinator → session → wire; this package is the cross-cutting layer
that can still say where its time went:

* :mod:`repro.obs.trace` — a :class:`Tracer` producing a span tree per
  query (off-by-default sampling; the disabled path is near-free);
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` extending the
  counter bag with gauges and fixed-bucket histograms, mergeable across
  sessions and shards;
* :mod:`repro.obs.slowlog` — a bounded ring of the N slowest queries
  with their span trees;
* :mod:`repro.obs.network` — the coupling network's message/byte cost
  model and its thread-safe accumulator.

Every engine-shaped object (``Prima.data``, a cluster's coordinator)
owns one :class:`Observability` bundle, which watches the pipelines its
statements open (on a cluster one ``shard:<i>`` span per shard sits
under the ``Gather``); the serving layer adds
per-session registries on top and ``metrics_report()`` /
``Connection.server_stats()`` merge them into one view.
"""

from __future__ import annotations

import time
from typing import Any

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    DEPTH_BUCKETS,
    LATENCY_BUCKETS_MS,
    RATIO_BUCKETS,
    SIZE_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from repro.obs.slowlog import SlowLog
from repro.obs.trace import Span, Tracer, span_from_operator

__all__ = [
    "DEFAULT_BUCKETS",
    "DEPTH_BUCKETS",
    "LATENCY_BUCKETS_MS",
    "SIZE_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "RATIO_BUCKETS",
    "SlowLog",
    "Span",
    "Tracer",
    "span_from_operator",
]


class Observability:
    """One engine's observability bundle: tracer + metrics + slow log."""

    def __init__(self, sample: float = 0.0,
                 slowlog_capacity: int = 16) -> None:
        self.tracer = Tracer(sample)
        self.metrics = MetricsRegistry()
        self.slowlog = SlowLog(slowlog_capacity)

    def enable_tracing(self, sample: float = 1.0) -> None:
        """Turn span collection on (``sample=1.0``: every query)."""
        self.tracer.enable(sample)

    def observe_query(self, text: str, duration: float,
                      span: "Span | None" = None) -> None:
        """Account one finished query: latency histogram + slow log."""
        self.metrics.observe("query_latency_ms", duration * 1000.0)
        self.slowlog.record(text, duration, span)

    def watch(self, text: str, pipeline: Any) -> None:
        """Arm per-query accounting on a compiled pipeline.

        When the cursor is closed, the elapsed wall-time lands in the
        ``query_latency_ms`` histogram and the slow log; when the tracer
        sampled this query, the slow-log entry additionally carries the
        span tree with one span per operator (rebuilt from the
        operators' own measurements, so nothing extra runs per row).
        """
        span = self.tracer.start("query", mql=text)
        started = time.perf_counter()

        def _finish(operator: Any) -> None:
            duration = time.perf_counter() - started
            if span is not None:
                span.duration = duration
                span_from_operator(operator, parent=span)
            self.observe_query(text, duration, span)

        pipeline.add_close_hook(_finish)

    def reset(self) -> None:
        """Zero metrics and drop the slow log (tracing state is kept)."""
        self.metrics.reset()
        self.slowlog.clear()

    def __repr__(self) -> str:
        state = (f"sample={self.tracer.sample}" if self.tracer.enabled
                 else "tracing off")
        return f"Observability({state}, {self.metrics!r})"
