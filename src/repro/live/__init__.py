"""Live queries: server-pushed subscriptions over epoch-delta invalidation.

Everything below the serving layer is pull — a workstation only learns
that a checkin changed its working set by re-running its query.  This
package inverts that: a client registers a prepared SELECT
(``SUBSCRIBE``), the server extracts the query's **dependency set**
from its plan, and every commit boundary publishes a **typed epoch
delta** (the epoch plus the atom types it touched).  Only
subscriptions whose dependency set intersects the delta fire — an
unrelated commit costs one inverted-index lookup, never a
re-evaluation — and fires are pushed as unsolicited ``NOTIFY`` frames
through the daemon's existing bounded send queues, throttled and
coalesced per subscription so one hot type cannot monopolise the event
loop.

Layout::

    registry.py      SubscriptionRegistry — ids, per-session ownership,
                     the dependency set each statement handle reports
    invalidation.py  InvalidationIndex — type -> subscriptions inverted
                     index + catalog-version bump detection
    notifier.py      Notifier — budgets, min re-notify interval,
                     coalescing, deliver="requery", sink push
    hub.py           LiveQueryHub — one per SessionManager; wires the
                     three to every engine's version store
"""

from repro.live.hub import LiveQueryHub
from repro.live.invalidation import InvalidationIndex
from repro.live.notifier import Notifier
from repro.live.registry import Subscription, SubscriptionRegistry

__all__ = [
    "InvalidationIndex",
    "LiveQueryHub",
    "Notifier",
    "Subscription",
    "SubscriptionRegistry",
]
