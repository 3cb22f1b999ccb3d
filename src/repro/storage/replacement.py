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
* :meth:`victims` — produce an eviction order over the evictable pages.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Protocol

from repro.storage.page import PageId


class ReplacementPolicy(Protocol):
    """Interface all buffer replacement policies implement."""

    name: str

    def on_admit(self, page_id: PageId) -> None: ...

    def on_access(self, page_id: PageId) -> None: ...

    def on_evict(self, page_id: PageId) -> None: ...

    def victims(self, evictable: set[PageId]) -> Iterator[PageId]: ...


class ModifiedLRU:
    """The paper's size-aware LRU for one buffer with mixed page sizes.

    Recency order is global across all page sizes; the buffer manager keeps
    asking for victims until enough *bytes* are free, which is exactly the
    modification needed over classic frame-count LRU.
    """

    name = "modified-lru"

    def __init__(self) -> None:
        self._order: OrderedDict[PageId, None] = OrderedDict()

    def on_admit(self, page_id: PageId) -> None:
        self._order[page_id] = None

    def on_access(self, page_id: PageId) -> None:
        if page_id in self._order:
            self._order.move_to_end(page_id)

    def on_evict(self, page_id: PageId) -> None:
        self._order.pop(page_id, None)

    def victims(self, evictable: set[PageId]) -> Iterator[PageId]:
        for page_id in list(self._order):
            if page_id in evictable:
                yield page_id


class FIFO:
    """First-in-first-out baseline: eviction order is admission order."""

    name = "fifo"

    def __init__(self) -> None:
        self._order: OrderedDict[PageId, None] = OrderedDict()

    def on_admit(self, page_id: PageId) -> None:
        self._order[page_id] = None

    def on_access(self, page_id: PageId) -> None:
        # FIFO ignores re-references.
        return

    def on_evict(self, page_id: PageId) -> None:
        self._order.pop(page_id, None)

    def victims(self, evictable: set[PageId]) -> Iterator[PageId]:
        for page_id in list(self._order):
            if page_id in evictable:
                yield page_id


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

    def victims(self, evictable: set[PageId]) -> Iterator[PageId]:
        # Sweep the ring clearing reference bits until a clear page in the
        # evictable set is found; repeat for as many victims as requested.
        spared: set[PageId] = set()
        while True:
            chosen: PageId | None = None
            for page_id, referenced in list(self._ring.items()):
                if page_id not in evictable or page_id in spared:
                    continue
                if referenced:
                    self._ring[page_id] = False
                    continue
                chosen = page_id
                break
            if chosen is None:
                # Second sweep: everything had its bit set.
                for page_id in list(self._ring):
                    if page_id in evictable and page_id not in spared:
                        chosen = page_id
                        break
            if chosen is None:
                return
            spared.add(chosen)
            yield chosen


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

