"""Deferred update of redundant storage structures (paper, 3.2).

Storage redundancy may introduce substantial overhead when an atom is
modified (and necessarily all its allocated physical records).  To limit
the amount of *immediate* overhead, during an update operation only one
physical record — the base copy — is modified, whereas all others are
modified later: the affected placements are marked stale and a refresh task
is queued here.

Propagation runs when :meth:`propagate` is called (benchmarks call it at a
controlled point; the facade calls it at commit) or lazily when a stale
copy is about to be read.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable

from repro.access.structure import StorageStructure
from repro.mad.types import Surrogate
from repro.util.stats import Counters


class DeferredUpdateManager:
    """Queue of pending refreshes of redundant records."""

    def __init__(self, read_base: Callable[[Surrogate], dict[str, Any]],
                 counters: Counters | None = None) -> None:
        #: Reads the authoritative (base) state of an atom.
        self._read_base = read_base
        self.counters = counters if counters is not None else Counters()
        #: (structure id, surrogate) -> structure, insertion-ordered so the
        #: propagation order is deterministic.
        self._pending: OrderedDict[tuple[str, Surrogate], StorageStructure]
        self._pending = OrderedDict()

    # -- queueing ---------------------------------------------------------------

    def defer(self, structure: StorageStructure, surrogate: Surrogate) -> None:
        """Queue a refresh of ``surrogate``'s copy in ``structure``."""
        key = (structure.structure_id, surrogate)
        self._pending.pop(key, None)   # re-queue at the tail
        self._pending[key] = structure
        self.counters.bump("deferred_queued")

    def cancel(self, structure_id: str, surrogate: Surrogate) -> None:
        """Drop a pending refresh (the atom was deleted)."""
        self._pending.pop((structure_id, surrogate), None)

    def cancel_all(self, structure_id: str) -> None:
        """Drop every pending refresh of one structure (it was dropped)."""
        for key in [k for k in self._pending if k[0] == structure_id]:
            del self._pending[key]

    # -- inspection --------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # -- propagation ---------------------------------------------------------------

    def propagate(self, limit: int | None = None) -> int:
        """Refresh up to ``limit`` pending copies (all when None).

        Returns the number of refreshes performed.
        """
        done = 0
        while self._pending and (limit is None or done < limit):
            key = next(iter(self._pending))
            structure = self._pending.pop(key)
            _structure_id, surrogate = key
            values = self._read_base(surrogate)
            structure.refresh(surrogate, values)
            self.counters.bump("deferred_propagated")
            done += 1
        return done

    def propagate_one(self, structure: StorageStructure,
                      surrogate: Surrogate) -> bool:
        """Refresh one specific pending copy (lazy, read-triggered path).

        Returns True when a refresh was performed.
        """
        key = (structure.structure_id, surrogate)
        if key not in self._pending:
            return False
        del self._pending[key]
        values = self._read_base(surrogate)
        structure.refresh(surrogate, values)
        self.counters.bump("deferred_propagated_lazy")
        return True
