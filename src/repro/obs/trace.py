"""Query tracing: a span tree per query.

The flat ``Counters`` bag says *how much* work a query did; after the
serving, parallel, and sharding layers it can no longer say *where* the
time went — one SELECT now crosses planner → snapshot → operators →
shard coordinator → session → wire.  A :class:`Span` records one timed
step of that path (name, parent, attrs, duration); a query's spans form
a tree whose leaf layer is the operator pipeline itself, so the span
tree is the per-operator time accounting (the ``time_total`` /
``self_time`` measurements the operators already take, rooted under
the query).

Tracing is **off by default** and sampled: :meth:`Tracer.start` returns
``None`` unless the query is sampled, and the disabled path is one
attribute test — near-free, which
``tests/test_obs.py::TestTracer::test_disabled_returns_none`` pins.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterator


class Span:
    """One timed step of a query: name, parent, attrs, duration.

    A span is *open* from construction until :meth:`finish` stamps its
    duration; operator spans built after the fact
    (:func:`span_from_operator`) carry the operator's measured
    ``time_total`` directly.  Durations are seconds (rendered as ms).
    """

    __slots__ = ("name", "attrs", "parent", "children", "started",
                 "duration")

    def __init__(self, name: str, parent: "Span | None" = None,
                 attrs: dict[str, Any] | None = None) -> None:
        self.name = name
        self.parent = parent
        self.attrs: dict[str, Any] = attrs or {}
        self.children: list[Span] = []
        self.started = time.perf_counter()
        self.duration: float | None = None
        if parent is not None:
            parent.children.append(self)

    # -- building -------------------------------------------------------------

    def child(self, name: str, **attrs: Any) -> "Span":
        """Open a child span under this one."""
        return Span(name, parent=self, attrs=attrs)

    def finish(self) -> float:
        """Stamp the duration (idempotent); returns it in seconds."""
        if self.duration is None:
            self.duration = time.perf_counter() - self.started
        return self.duration

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, _exc_type, _exc, _tb) -> None:
        self.finish()

    # -- reading --------------------------------------------------------------

    @property
    def self_time(self) -> float:
        """This span's duration minus its children's (floored at 0)."""
        total = self.duration if self.duration is not None else 0.0
        nested = sum(c.duration or 0.0 for c in self.children)
        return max(total - nested, 0.0)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able nesting of the whole subtree (durations in ms)."""
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "duration_ms": round((self.duration or 0.0) * 1000.0, 3),
            "self_ms": round(self.self_time * 1000.0, 3),
            "children": [child.to_dict() for child in self.children],
        }

    def render(self, indent: int = 0) -> list[str]:
        """The subtree as indented text lines (the EXPLAIN ANALYZE
        rendering: rows first, then self/total wall-time in ms)."""
        parts = []
        rows = self.attrs.get("rows")
        if rows is not None:
            parts.append(f"rows={rows}")
        parts.append(f"self {self.self_time * 1000.0:.3f} ms")
        parts.append(f"total {(self.duration or 0.0) * 1000.0:.3f} ms")
        detail = self.attrs.get("detail")
        label = f"{self.name}({detail})" if detail else self.name
        lines = [" " * indent + f"{label} [{', '.join(parts)}]"]
        for child in self.children:
            lines.extend(child.render(indent + 2))
        return lines

    def __repr__(self) -> str:
        ms = (self.duration or 0.0) * 1000.0
        return (f"Span({self.name!r}, {ms:.3f} ms, "
                f"{len(self.children)} child(ren))")


def span_from_operator(operator: Any, parent: Span | None = None) -> Span:
    """The span tree of a (drained) operator pipeline.

    Operators already time themselves (``time_total`` per ``next()``
    call, children's share subtracted for ``self_time``); this re-roots
    those measurements as spans under ``parent`` — the zero-overhead way
    to get per-operator spans, because nothing extra runs on the row
    path.
    """
    span = Span(getattr(operator, "name", type(operator).__name__),
                parent=parent)
    span.started = 0.0
    span.duration = max(getattr(operator, "time_total", 0.0), 0.0)
    span.attrs["rows"] = getattr(operator, "rows_out", 0)
    detail = None
    describe = getattr(operator, "detail", None)
    if callable(describe):
        detail = describe()
    if detail:
        span.attrs["detail"] = detail
    extra = getattr(operator, "span_attrs", None)
    if extra is not None:
        span.attrs.update(extra())
    for child in getattr(operator, "children", ()):
        span_from_operator(child, parent=span)
    return span


class Tracer:
    """Span-tree producer with off-by-default, deterministic sampling.

    ``sample=0.0`` (the default) disables tracing — :meth:`start` is a
    single attribute test returning ``None``.  ``sample=1.0`` traces
    every query; a fractional rate traces every ``round(1/sample)``-th
    start (counter-based, not random: deterministic under test and
    evenly spread under load).
    """

    __slots__ = ("sample", "_seq", "_lock")

    def __init__(self, sample: float = 0.0) -> None:
        self.sample = float(sample)
        self._seq = 0
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.sample > 0.0

    def enable(self, sample: float = 1.0) -> None:
        """Turn tracing on at ``sample`` (default: every query)."""
        if not 0.0 < sample <= 1.0:
            raise ValueError(f"sample must be in (0, 1], got {sample!r}")
        self.sample = float(sample)

    def start(self, name: str, **attrs: Any) -> Span | None:
        """A new root span, or ``None`` when this start is not sampled.

        The disabled path must stay near-free: one float test, no
        allocation, no lock.
        """
        if not self.sample:
            return None
        if self.sample >= 1.0:
            return Span(name, attrs=attrs)
        period = max(int(round(1.0 / self.sample)), 1)
        with self._lock:
            self._seq += 1
            hit = self._seq % period == 0
        return Span(name, attrs=attrs) if hit else None
