"""The live-query hub: one per :class:`~repro.serve.session.SessionManager`.

Wires the three halves of the subsystem together and owns their
lifecycle:

* :class:`~repro.live.registry.SubscriptionRegistry` — handles and
  per-session ownership, dependency sets from plans;
* :class:`~repro.live.invalidation.InvalidationIndex` — one listener
  per engine version store (a sharded cluster registers on *every*
  shard: any shard's commit can fire a cluster subscription), catalog
  bump detection via ``data.catalog_version``;
* :class:`~repro.live.notifier.Notifier` — budgets, coalescing,
  requery, sink delivery.

Listeners attach lazily on the first subscription, so a manager that
never subscribes pays nothing at commit time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import SessionStateError, SubscriptionLimitError
from repro.live.invalidation import InvalidationIndex
from repro.live.notifier import Notifier
from repro.live.registry import Subscription, SubscriptionRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine import Engine
    from repro.serve.session import Session, SessionManager


def _version_stores(db: "Engine") -> list[Any]:
    """Every epoch clock feeding this hub — one per shard engine for a
    cluster, the single engine's otherwise."""
    return [engine.access.atoms.versions for engine in db.engines]


class LiveQueryHub:
    """Registration, invalidation fan-in, and delivery for one manager."""

    def __init__(self, manager: "SessionManager") -> None:
        self._manager = manager
        self._db = manager.db
        self.registry = SubscriptionRegistry()
        self.index = InvalidationIndex(counters=self._db.access.counters)
        self.index.stamp(self._db.data.catalog_version)
        self.notifier = Notifier(
            clock=manager._now,
            notify_interval=manager.notify_interval,
            requery=self._requery,
            counters=self._db.access.counters,
            obs=self._db.data.obs,
        )
        self._attached = False
        self._closed = False

    # -- registration ---------------------------------------------------------

    def subscribe(self, session: "Session", prepared: Any, args: tuple,
                  params: dict[str, Any], deliver: str) -> Subscription:
        if deliver not in ("notify", "requery"):
            raise SessionStateError(
                f"unknown delivery mode {deliver!r} "
                f"(expected 'notify' or 'requery')")
        budget = self._manager.max_subscriptions
        if self.registry.session_count(session) >= budget:
            raise SubscriptionLimitError(
                f"session {session.name!r} is at its subscription "
                f"budget ({budget})")
        sub = self.registry.register(
            session, prepared, args, params, deliver,
            catalog_version=self._db.data.catalog_version)
        self.index.add(sub)
        self._attach()
        self._gauge()
        return sub

    def unsubscribe(self, subscription_id: int,
                    session: "Session | None" = None) -> bool:
        """Drop one subscription; idempotent.  With ``session`` given,
        only that session's own subscriptions match (a client cannot
        cancel another session's)."""
        sub = self.registry.get(subscription_id)
        if sub is None or (session is not None
                           and sub.session is not session):
            return False
        self.registry.unregister(subscription_id)
        self.index.remove(sub)
        self.notifier.forget(sub)
        self._gauge()
        return True

    def release_session(self, session: "Session") -> int:
        """Drop every subscription a session holds (close / abort /
        lease reap / abrupt EOF); returns how many died."""
        dropped = self.registry.unregister_session(session)
        for sub in dropped:
            self.index.remove(sub)
            self.notifier.forget(sub)
        if dropped:
            self._gauge()
        return len(dropped)

    @property
    def active(self) -> int:
        return len(self.registry)

    # -- the commit-side listener --------------------------------------------

    def _on_publish(self, epoch: int, touched: frozenset[str]) -> None:
        # Runs on the committing thread, inside the engine mutex: set
        # lookups + queue handoffs only.
        if self._closed or self.index.empty:
            return
        fired, catalog_changed = self.index.invalidate(
            epoch, touched, self._db.data.catalog_version)
        for sub in fired:
            self.notifier.fire(sub, epoch, touched, catalog_changed)

    def _attach(self) -> None:
        if self._attached:
            return
        for store in _version_stores(self._db):
            store.add_listener(self._on_publish)
        self._attached = True

    # -- delivery helpers -----------------------------------------------------

    def _requery(self, sub: Subscription) -> list:
        """Re-run the subscription's statement against a fresh snapshot
        (flush-thread or pump context — takes the engine mutex)."""
        with self._db.mutex:
            result = sub.prepared.open(sub.args, sub.params)
            try:
                return list(result)
            finally:
                result.close()

    def pump(self) -> int:
        """Deliver every due coalesced/throttled delta now (tests and
        in-process polling)."""
        if self._closed:
            return 0
        return self.notifier.pump()

    def _gauge(self) -> None:
        self._manager.metrics.gauge("subscriptions_active",
                                    float(len(self.registry)))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._attached:
            for store in _version_stores(self._db):
                store.remove_listener(self._on_publish)
            self._attached = False
        self.notifier.close()
