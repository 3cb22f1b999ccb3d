"""Instrumentation counters used across all PRIMA layers.

The original prototype argued mostly in terms of *counts* — block
transfers, page fixes, atoms touched, messages sent.  Every layer of the
reproduction therefore carries a :class:`Counters` object so benchmarks can
report the same quantities the paper reasons about.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Iterator


class Counters:
    """A named bag of monotonically increasing counters.

    Counters are event and byte counts.  A lock makes ``bump()`` safe
    under the threads that share one bag — the daemon's event loop, the
    live-query notifier's flush thread, and in-process connections (a
    bare ``+=`` on a shared Counter is a read-modify-write that can lose
    updates between bytecodes).
    """

    __slots__ = ("_values", "_lock")

    def __init__(self) -> None:
        self._values: Counter[str] = Counter()
        self._lock = threading.Lock()

    def bump(self, name: str, amount: float = 1) -> None:
        """Increase counter ``name`` by ``amount`` (default 1)."""
        with self._lock:
            self._values[name] += amount

    def bump_each(self, *names: str) -> None:
        """Increase each named counter by one, under one lock
        acquisition (a buffer hit bumps ``fixes`` and ``hits``)."""
        with self._lock:
            values = self._values
            for name in names:
                values[name] += 1

    def get(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never bumped)."""
        with self._lock:
            return self._values.get(name, 0)

    def reset(self) -> None:
        """Zero every counter."""
        with self._lock:
            self._values.clear()

    def snapshot(self) -> dict[str, float]:
        """A plain-dict copy of all counters, sorted by name."""
        with self._lock:
            return {name: self._values[name]
                    for name in sorted(self._values)}

    def diff(self, earlier: dict[str, float]) -> dict[str, float]:
        """Counters gained since ``earlier`` (a prior :meth:`snapshot`)."""
        with self._lock:
            current = dict(self._values)
        result: dict[str, float] = {}
        for name, value in current.items():
            delta = value - earlier.get(name, 0)
            if delta:
                result[name] = delta
        return dict(sorted(result.items()))

    def __iter__(self) -> Iterator[tuple[str, float]]:
        # Reads take the lock too: a concurrent bump() mutates the dict
        # mid-iteration otherwise (notifier thread, daemon sessions).
        with self._lock:
            items = sorted(self._values.items())
        return iter(items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self)
        return f"Counters({inner})"


class Instrumented:
    """Mixin giving a component a :attr:`counters` bag.

    Components may share one bag (pass it in) or own a private one.
    """

    def __init__(self, counters: Counters | None = None) -> None:
        self.counters = counters if counters is not None else Counters()
