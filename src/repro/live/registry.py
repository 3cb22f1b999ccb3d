"""Subscription bookkeeping: dependency sets extracted from plans.

A live query is a prepared SELECT plus a **dependency set** — the atom
types whose commits can change its result: the root molecule type and
every type referenced anywhere in the plan's structure tree, stamped
with the catalog version in force at registration.  The registry owns
the ``subscription_id`` namespace and the per-session index
(subscriptions die with their session); the set itself is the
statement handle's ``PreparedStatement.dependency_types()`` (a cluster
handle unions its per-shard plans), and the inverted type →
subscriptions index lives in
:class:`~repro.live.invalidation.InvalidationIndex`.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.data.prepared import PreparedStatement
    from repro.serve.session import Session


class Subscription:
    """One registered live query.

    Mutable delivery state (``pending_*``, ``last_sent``) belongs to the
    :class:`~repro.live.notifier.Notifier` and is only touched under its
    lock; everything else is immutable after registration.
    """

    __slots__ = (
        "subscription_id", "session", "prepared", "args", "params",
        "deliver", "types", "catalog_version",
        "last_sent", "pending_epoch", "pending_types",
        "pending_catalog", "pending_coalesced", "pending_since",
        "notifies_sent",
    )

    def __init__(self, subscription_id: int, session: "Session",
                 prepared: "PreparedStatement", args: tuple,
                 params: dict[str, Any], deliver: str, types: frozenset[str],
                 catalog_version: int) -> None:
        self.subscription_id = subscription_id
        self.session = session
        self.prepared = prepared
        self.args = args
        self.params = params
        self.deliver = deliver
        self.types = types
        self.catalog_version = catalog_version
        #: Manager-clock timestamp of the last delivered NOTIFY
        #: (``None``: nothing sent yet, the next fire goes out at once).
        self.last_sent: float | None = None
        #: The coalesced not-yet-delivered delta (``None`` epoch: no
        #: pending fire).
        self.pending_epoch: int | None = None
        self.pending_types: set[str] = set()
        self.pending_catalog = False
        self.pending_coalesced = 0
        self.pending_since: float | None = None
        self.notifies_sent = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Subscription #{self.subscription_id} "
                f"types={sorted(self.types)} deliver={self.deliver!r}>")


class SubscriptionRegistry:
    """Id allocation + per-session ownership of live subscriptions."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._next_id = 1
        self._subscriptions: dict[int, Subscription] = {}
        self._by_session: dict[int, set[int]] = {}

    def register(self, session: "Session",
                 prepared: "PreparedStatement", args: tuple,
                 params: dict[str, Any], deliver: str,
                 catalog_version: int) -> Subscription:
        types = prepared.dependency_types()
        with self._mutex:
            sub = Subscription(self._next_id, session, prepared, args,
                               params, deliver, types, catalog_version)
            self._next_id += 1
            self._subscriptions[sub.subscription_id] = sub
            self._by_session.setdefault(id(session), set()) \
                .add(sub.subscription_id)
        return sub

    def unregister(self, subscription_id: int) -> Subscription | None:
        """Drop one subscription; returns it, or ``None`` if unknown
        (unsubscribe is idempotent)."""
        with self._mutex:
            sub = self._subscriptions.pop(subscription_id, None)
            if sub is not None:
                owned = self._by_session.get(id(sub.session))
                if owned is not None:
                    owned.discard(subscription_id)
                    if not owned:
                        del self._by_session[id(sub.session)]
            return sub

    def unregister_session(self, session: "Session") -> list[Subscription]:
        """Drop every subscription a session holds (close / abort /
        lease reap / abrupt EOF all funnel here)."""
        with self._mutex:
            ids = self._by_session.pop(id(session), set())
            return [self._subscriptions.pop(sid)
                    for sid in ids if sid in self._subscriptions]

    def get(self, subscription_id: int) -> Subscription | None:
        with self._mutex:
            return self._subscriptions.get(subscription_id)

    def session_count(self, session: "Session") -> int:
        with self._mutex:
            return len(self._by_session.get(id(session), ()))

    def __len__(self) -> int:
        with self._mutex:
            return len(self._subscriptions)

    def snapshot(self) -> list[Subscription]:
        with self._mutex:
            return list(self._subscriptions.values())
