"""Replacement policies for the database buffer.

Existing replacement algorithms (LRU, etc. [EH82]) are tailored to a single
page size.  PRIMA's buffer holds pages of five different sizes at once, so
the well-known LRU algorithm was altered appropriately (paper, section
3.3): when room is needed for an incoming page, the policy yields unpinned
victims in LRU order until the *byte* deficit is covered — possibly several
small pages for one large page, or one large page for a small one.

All policies implement the same narrow interface so the buffer manager and
the benchmarks can swap them freely:

* :meth:`on_admit` — a page entered the buffer,
* :meth:`on_access` — a resident page was fixed again,
* :meth:`on_evict` — the buffer removed a page (policy bookkeeping),
* :meth:`victim` — the next page to evict, or None.

:meth:`victim` is one probe: it walks the policy's order from the
eviction end and stops at the first page ``evictable`` accepts, so a miss
costs O(1) Python work however many frames the buffer holds (pinned pages
are rare and sit near the recently-used end).  The buffer evicts the page
before it asks again, so repeated probes yield the same order as one walk
over all unpinned pages.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Protocol

from repro.storage.page import PageId


class ReplacementPolicy(Protocol):
    """Interface all buffer replacement policies implement."""

    name: str

    def on_admit(self, page_id: PageId) -> None: ...

    def on_access(self, page_id: PageId) -> None: ...

    def on_evict(self, page_id: PageId) -> None: ...

    def victim(self, evictable: Callable[[PageId], bool]) -> PageId | None: ...


class ModifiedLRU:
    """The paper's size-aware LRU for one buffer with mixed page sizes.

    Recency order is global across all page sizes; the buffer manager keeps
    asking for victims until enough *bytes* are free, which is exactly the
    modification needed over classic frame-count LRU.
    """

    name = "modified-lru"

    def __init__(self) -> None:
        self._order: OrderedDict[PageId, None] = OrderedDict()
        # A re-reference moves the page to the recently-used end in one
        # C call: the buffer reports only resident pages, and every
        # resident page is in the order.
        self.on_access: Callable[[PageId], None] = self._order.move_to_end

    def on_admit(self, page_id: PageId) -> None:
        self._order[page_id] = None

    def on_evict(self, page_id: PageId) -> None:
        self._order.pop(page_id, None)

    def victim(self, evictable: Callable[[PageId], bool]) -> PageId | None:
        for page_id in self._order:
            if evictable(page_id):
                return page_id
        return None


class FIFO(ModifiedLRU):
    """First-in-first-out baseline: eviction order is admission order."""

    name = "fifo"

    def __init__(self) -> None:
        super().__init__()
        self.on_access = self._ignore

    @staticmethod
    def _ignore(page_id: PageId) -> None:
        """FIFO ignores re-references."""


class Clock:
    """Second-chance (CLOCK) baseline with one reference bit per page."""

    name = "clock"

    def __init__(self) -> None:
        self._ring: OrderedDict[PageId, bool] = OrderedDict()

    def on_admit(self, page_id: PageId) -> None:
        self._ring[page_id] = True

    def on_access(self, page_id: PageId) -> None:
        if page_id in self._ring:
            self._ring[page_id] = True

    def on_evict(self, page_id: PageId) -> None:
        self._ring.pop(page_id, None)

    def victim(self, evictable: Callable[[PageId], bool]) -> PageId | None:
        # Sweep the ring clearing reference bits until a clear evictable
        # page is found; if every bit was set, the second sweep takes the
        # first evictable page.
        for page_id, referenced in self._ring.items():
            if not evictable(page_id):
                continue
            if referenced:
                self._ring[page_id] = False
                continue
            return page_id
        for page_id in self._ring:
            if evictable(page_id):
                return page_id
        return None


def make_policy(name: str) -> ReplacementPolicy:
    """Instantiate a policy by its registry name."""
    policies: dict[str, type] = {
        ModifiedLRU.name: ModifiedLRU,
        FIFO.name: FIFO,
        Clock.name: Clock,
        "lru": ModifiedLRU,
    }
    try:
        return policies[name]()
    except KeyError:
        known = ", ".join(sorted(policies))
        raise ValueError(f"unknown replacement policy {name!r}; known: {known}")

