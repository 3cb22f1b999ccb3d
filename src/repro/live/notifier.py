"""Delivery: budgets, coalescing, optional re-evaluation, push.

The :class:`Notifier` sits between the invalidation hot path (which
runs on the **committing** thread, inside the engine mutex) and the
client-facing sinks (the daemon's bounded asyncio send queues, or a
session's in-process notification deque).  Its contract:

* A bare ``deliver="notify"`` fire that is *due* (outside the
  min-re-notify interval) ships synchronously from the commit — one
  frame build plus one queue handoff, no locks beyond the notifier's
  own, so commit-to-frame latency is a few microseconds.
* Everything else — throttled fires (coalesced into one pending delta
  per subscription) and every ``deliver="requery"`` fire (re-runs the
  statement, which belongs after the commit, not inside it) — is
  parked and flushed by a background thread, or synchronously via
  :meth:`pump`.
* Delivery observes ``notify_latency_ms`` (commit publish → sink
  handoff) on the owning session's registry, opens a ``notify`` span
  when tracing is on, and bills the frame through the session so the
  modelled network accounting stays transport-invariant.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.live.registry import Subscription

#: Background flush poll (seconds of *real* time).  Due-ness itself is
#: computed on the manager clock, so injected fake clocks drive the
#: throttle windows deterministically; this is just how often the
#: thread re-checks.
_FLUSH_POLL = 0.01


class Notifier:
    """Budget-aware push delivery for live subscriptions."""

    def __init__(self, clock: Callable[[], float],
                 notify_interval: float = 0.0,
                 requery: Callable[[Subscription], list] | None = None,
                 counters: Any = None, obs: Any = None) -> None:
        self._clock = clock
        #: Minimum seconds between NOTIFY frames per subscription
        #: (manager-clock units).  ``0``: every fire ships at once.
        self.notify_interval = notify_interval
        #: ``requery(sub) -> molecules`` — runs the statement against a
        #: fresh snapshot; supplied by the hub (takes the engine mutex
        #: and reads the data system).  Invoked only from flush contexts,
        #: never from the committing thread.
        self._requery = requery
        self.counters = counters
        self.obs = obs
        self._cond = threading.Condition()
        self._pending: set[Subscription] = set()
        self._thread: threading.Thread | None = None
        self._closed = False

    # -- the commit-side entry point ------------------------------------------

    def fire(self, sub: Subscription, epoch: int,
             touched: frozenset[str], catalog_changed: bool) -> None:
        """Queue one invalidation hit.  Committing-thread safe: takes
        only the notifier lock; a due bare notify is delivered inline
        (no engine mutex needed), everything else is parked for the
        flush thread."""
        deliver_now = None
        with self._cond:
            if self._closed:
                return
            now = self._clock()
            stamp = time.perf_counter()
            if sub.pending_epoch is not None:
                # Coalesce onto the already-pending delta.
                sub.pending_epoch = max(sub.pending_epoch, epoch)
                sub.pending_types.update(touched)
                sub.pending_catalog = sub.pending_catalog or catalog_changed
                sub.pending_coalesced += 1
                if self.counters is not None:
                    self.counters.bump("notifications_coalesced")
                return
            due = (sub.last_sent is None
                   or now - sub.last_sent >= self.notify_interval)
            if due and sub.deliver == "notify":
                sub.last_sent = now
                deliver_now = (epoch, frozenset(touched), catalog_changed,
                               0, stamp)
            else:
                sub.pending_epoch = epoch
                sub.pending_types = set(touched)
                sub.pending_catalog = catalog_changed
                sub.pending_coalesced = 0
                sub.pending_since = stamp
                self._pending.add(sub)
                if not due and self.counters is not None:
                    self.counters.bump("notifications_throttled")
                self._ensure_thread_locked()
                self._cond.notify_all()
        if deliver_now is not None:
            self._deliver(sub, *deliver_now)

    def forget(self, sub: Subscription) -> None:
        """Drop any pending delta (the subscription is going away)."""
        with self._cond:
            self._pending.discard(sub)
            sub.pending_epoch = None

    # -- flushing -------------------------------------------------------------

    def pump(self) -> int:
        """Synchronously deliver every *due* pending delta; returns the
        number delivered.  For deterministic tests and in-process
        polling; a requery re-enters the engine mutex if the caller
        already holds it."""
        return self._flush_due()

    def _flush_due(self) -> int:
        taken: list[tuple[Subscription, tuple]] = []
        with self._cond:
            now = self._clock()
            for sub in list(self._pending):
                due = (sub.last_sent is None
                       or now - sub.last_sent >= self.notify_interval)
                if not due:
                    continue
                self._pending.discard(sub)
                delta = (sub.pending_epoch, frozenset(sub.pending_types),
                         sub.pending_catalog, sub.pending_coalesced,
                         sub.pending_since)
                sub.pending_epoch = None
                sub.pending_types = set()
                sub.pending_catalog = False
                sub.pending_coalesced = 0
                sub.pending_since = None
                sub.last_sent = now
                taken.append((sub, delta))
        for sub, delta in taken:
            self._deliver(sub, *delta)
        return len(taken)

    def _ensure_thread_locked(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._flush_loop, name="prima-notifier", daemon=True)
            self._thread.start()

    def _flush_loop(self) -> None:
        while True:
            with self._cond:
                if self._closed:
                    return
                if not self._pending:
                    self._cond.wait(timeout=1.0)
                    continue
            self._flush_due()
            with self._cond:
                if self._closed:
                    return
                if self._pending:
                    self._cond.wait(timeout=_FLUSH_POLL)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._pending.clear()
            self._cond.notify_all()
        thread = self._thread
        if thread is not None and thread.is_alive() and \
                thread is not threading.current_thread():
            thread.join(timeout=1.0)

    # -- delivery -------------------------------------------------------------

    def _deliver(self, sub: Subscription, epoch: int | None,
                 touched: frozenset[str], catalog_changed: bool,
                 coalesced: int, stamp: float | None) -> None:
        session = sub.session
        if session.closed:
            return
        span = None
        if self.obs is not None:
            span = self.obs.tracer.start(
                "notify", subscription=sub.subscription_id,
                session=session.name, deliver=sub.deliver)
        molecules = None
        if sub.deliver == "requery" and self._requery is not None:
            try:
                molecules = self._requery(sub)
            except Exception:
                # The statement raced a DDL drop or the session died —
                # deliver the bare invalidation rather than nothing.
                molecules = None
            if self.counters is not None:
                self.counters.bump("subscription_requeries")
        delivered = session.deliver_notification(
            subscription_id=sub.subscription_id,
            epoch=epoch or 0,
            types=tuple(sorted(touched)),
            catalog_changed=catalog_changed,
            coalesced=coalesced,
            molecules=molecules,
        )
        if span is not None:
            span.attrs["delivered"] = delivered
            span.finish()
        if delivered:
            sub.notifies_sent += 1
            if stamp is not None:
                session.counters.observe(
                    "notify_latency_ms",
                    (time.perf_counter() - stamp) * 1000.0)
