"""The inverted dependency index: typed epoch delta → fired subscriptions.

Every commit boundary publishes ``(epoch, touched_types)`` (see
:meth:`repro.access.snapshots.AtomVersionStore.publish`).  The index
keeps ``type → {subscription}`` so deciding which subscriptions fire is
one set lookup per touched type — a commit to a type outside every
dependency set costs exactly that lookup and bumps
``invalidations_skipped``; it never re-evaluates anything.

DDL rides the same hook: the data system publishes after every
statement, and the index compares the catalog version against its last
stamp — a moved catalog fires *all* subscriptions (any plan may now be
stale) with ``catalog_changed`` set.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.live.registry import Subscription


class InvalidationIndex:
    """``type → subscriptions`` with catalog-version change detection."""

    def __init__(self, counters: Any = None) -> None:
        self._mutex = threading.Lock()
        self._by_type: dict[str, set[Subscription]] = {}
        self._catalog_stamp: int | None = None
        #: Counter sink (``bump(name)``) — the engine's access counters,
        #: so hits/skips surface in ``io_report()`` next to everything
        #: else.  ``None``: count nothing (detached index).
        self.counters = counters

    def stamp(self, catalog_version: int) -> None:
        """Record the current catalog version as the baseline — called
        at hub construction so the very first commit already notices a
        DDL that ran between subscribe and publish."""
        with self._mutex:
            self._catalog_stamp = catalog_version

    # -- membership -----------------------------------------------------------

    def add(self, sub: Subscription) -> None:
        with self._mutex:
            for type_name in sub.types:
                self._by_type.setdefault(type_name, set()).add(sub)

    def remove(self, sub: Subscription) -> None:
        with self._mutex:
            for type_name in sub.types:
                members = self._by_type.get(type_name)
                if members is not None:
                    members.discard(sub)
                    if not members:
                        del self._by_type[type_name]

    def __len__(self) -> int:
        with self._mutex:
            return sum(len(m) for m in self._by_type.values())

    @property
    def empty(self) -> bool:
        with self._mutex:
            return not self._by_type

    # -- the hot path ---------------------------------------------------------

    def invalidate(self, epoch: int, touched: frozenset[str],
                   catalog_version: int,
                   ) -> tuple[list[Subscription], bool]:
        """Resolve one typed epoch delta.

        Returns ``(fired, catalog_changed)``.  Runs on the committing
        thread (inside the engine mutex): set lookups and counter bumps
        only, nothing that could block.
        """
        with self._mutex:
            if self._catalog_stamp is None:
                self._catalog_stamp = catalog_version
                catalog_changed = False
            else:
                catalog_changed = catalog_version != self._catalog_stamp
                self._catalog_stamp = catalog_version
            if catalog_changed:
                fired: set[Subscription] = set()
                for members in self._by_type.values():
                    fired.update(members)
            else:
                fired = set()
                for type_name in touched:
                    members = self._by_type.get(type_name)
                    if members:
                        fired.update(members)
        counters = self.counters
        if counters is not None:
            if fired:
                counters.bump("invalidations_fired")
            else:
                counters.bump("invalidations_skipped")
        return sorted(fired, key=lambda s: s.subscription_id), \
            catalog_changed
