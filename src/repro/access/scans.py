"""Scans: navigational access with NEXT/PRIOR (paper, 3.2).

Effective processing of data system operations critically depends on
powerful navigational capabilities: a *scan* controls a dynamically defined
set of atoms, holds a current position in the set, and successively
delivers single atoms (NEXT/PRIOR).  Five scan types exist:

===========================  =====================================================
atom-type scan               all atoms of one type, system-defined order
sort scan                    all atoms of one type in a user-defined sort order,
                             with start/stop conditions (uses a redundant sort
                             order when available, else sorts explicitly)
access-path scan             entries of an access path, start/stop conditions and
                             direction per key
atom-cluster-type scan       all characteristic atoms of an atom-cluster type
                             (search arguments decidable in a single pass through
                             one cluster — the single-scan property [DPS86])
atom-cluster scan            all atoms of one type within a single atom cluster
===========================  =====================================================

Every scan may carry a *simple search argument*: a conjunction of
attribute-operator-value terms decidable on each atom in isolation.

Position maintenance: a scan snapshots the membership order when opened;
atoms deleted after opening are skipped at delivery time, so NEXT/PRIOR
remain well-defined under concurrent modification of the set.

Scans opened with ``lazy=True`` derive their positions *incrementally*
instead of materialising the snapshot at open time: the underlying
structure (B*-tree walk, sort-order list, access-path range) is advanced
only as far as delivery demands, so a bounded consumer (LIMIT, TopK's
tightening heap bound) leaves the rest of the walk untouched.  Positions
already derived stay snapshotted — NEXT/PRIOR over the consumed prefix
behave exactly like the eager scan.  The execution pipeline opens its
root scans lazily; direct (interactive) scans default to eager, which
keeps the full snapshot-at-open contract under concurrent deletes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.access.access_path import AccessPath
from repro.access.btree import make_key
from repro.access.cluster import AtomCluster
from repro.access.multidim import KeyCondition
from repro.access.sort_order import SortOrder
from repro.errors import AccessError, ScanStateError
from repro.mad.types import Surrogate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.access.atoms import AtomManager

#: Comparison operators usable in simple search arguments.
_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a is not None and b is not None and make_key(a) < make_key(b),
    "<=": lambda a, b: a is not None and b is not None and make_key(a) <= make_key(b),
    ">": lambda a, b: a is not None and b is not None and make_key(b) < make_key(a),
    ">=": lambda a, b: a is not None and b is not None and make_key(b) <= make_key(a),
    "contains": lambda a, b: isinstance(a, list) and b in a,
    "empty": lambda a, b: not a,
    "not_empty": lambda a, b: bool(a),
}


def _merge_entries(live: Iterator[tuple[tuple, Surrogate]],
                   extra: list[tuple[Any, tuple, Surrogate]],
                   reverse: bool) -> Iterator[tuple[tuple, Surrogate]]:
    """Merge a live index walk with displaced snapshot entries.

    Both inputs are sorted by (key, surrogate) — key descending when
    ``reverse``, the surrogate tie-break ascending either way (the tie
    semantics every ordered backing agrees on).  ``extra`` items are
    ``(encoded key, raw key values, surrogate)``.
    """
    extra_iter = iter(extra)
    pending = next(extra_iter, None)

    def before(a_key: Any, a_sur: Surrogate,
               b_key: Any, b_sur: Surrogate) -> bool:
        if a_key != b_key:
            return a_key > b_key if reverse else a_key < b_key
        return a_sur < b_sur

    for key_values, surrogate in live:
        key = make_key(key_values)
        while pending is not None and \
                before(pending[0], pending[2], key, surrogate):
            yield pending[1], pending[2]
            pending = next(extra_iter, None)
        yield key_values, surrogate
    while pending is not None:
        yield pending[1], pending[2]
        pending = next(extra_iter, None)


class SearchArgument:
    """A conjunction of (attribute, operator, value) terms."""

    def __init__(self, *terms: tuple[str, str, Any]) -> None:
        for _attr, op, _value in terms:
            if op not in _OPS:
                raise AccessError(
                    f"unknown operator {op!r}; known: {sorted(_OPS)}"
                )
        self.terms = terms

    def matches(self, values: dict[str, Any]) -> bool:
        return all(
            _OPS[op](values.get(attr), value)
            for attr, op, value in self.terms
        )

    def __repr__(self) -> str:
        inner = " AND ".join(f"{a} {op} {v!r}" for a, op, v in self.terms)
        return f"SearchArgument({inner})"


class Scan:
    """Common NEXT/PRIOR machinery over a snapshot of positions.

    Every scan counts the rows it delivers (``rows_delivered`` plus the
    shared counters ``scan_rows_delivered`` and ``scan_rows:<Type>``) —
    the per-operator row/cost accounting the execution pipeline and the
    benchmarks report on.
    """

    def __init__(self, counters: Any = None, lazy: bool = False) -> None:
        self._positions: list[Any] | None = None
        self._stream: Iterator[Any] | None = None   # pending tail (lazy)
        self._cursor = -1          # index of the element delivered last
        self._closed = False
        self._lazy = lazy
        self._counters = counters
        #: Rows this scan has delivered over its lifetime.
        self.rows_delivered = 0

    def _count_delivery(self) -> None:
        self.rows_delivered += 1
        if self._counters is not None:
            self._counters.bump_each("scan_rows_delivered",
                                     f"scan_rows:{type(self).__name__}")

    # Subclasses provide the ordered snapshot and the delivery logic. ----------

    def _snapshot(self) -> list[Any]:
        raise NotImplementedError

    def _snapshot_iter(self) -> Iterator[Any]:
        """The ordered positions as a stream (default: the eager list)."""
        return iter(self._snapshot())

    def _deliver(self, position: Any) -> tuple[Surrogate, dict[str, Any]] | None:
        """Fetch the atom at ``position``; None when it vanished or fails
        the search argument."""
        raise NotImplementedError

    # -- the scan protocol ----------------------------------------------------------

    def _ensure_open(self) -> list[Any]:
        if self._closed:
            raise ScanStateError("scan is closed")
        if self._positions is None:
            if self._lazy:
                self._positions = []
                self._stream = self._snapshot_iter()
            else:
                self._positions = list(self._snapshot_iter())
            if self._counters is not None:
                self._counters.bump("scans_opened")
        return self._positions

    def _fill_to(self, index: int) -> bool:
        """Grow the position list to cover ``index`` (lazy scans pull from
        the pending stream); False when the set ends first."""
        assert self._positions is not None
        while len(self._positions) <= index:
            if self._stream is None:
                return False
            try:
                self._positions.append(next(self._stream))
            except StopIteration:
                self._stream = None
                return False
        return True

    def next(self) -> tuple[Surrogate, dict[str, Any]] | None:
        """Advance to and return the next qualifying atom (None at end)."""
        positions = self._ensure_open()
        cursor = self._cursor
        while self._fill_to(cursor + 1):
            cursor += 1
            result = self._deliver(positions[cursor])
            if result is not None:
                self._cursor = cursor
                self._count_delivery()
                return result
        self._cursor = len(positions)
        return None

    def prior(self) -> tuple[Surrogate, dict[str, Any]] | None:
        """Step back to and return the previous qualifying atom."""
        positions = self._ensure_open()
        cursor = min(self._cursor, len(positions))
        while cursor - 1 >= 0:
            cursor -= 1
            result = self._deliver(positions[cursor])
            if result is not None:
                self._cursor = cursor
                self._count_delivery()
                return result
        self._cursor = -1
        return None

    def rewind(self) -> None:
        """Reset the position before the first element (keeps the snapshot)."""
        self._ensure_open()
        self._cursor = -1

    def close(self) -> None:
        self._closed = True
        if self._stream is not None:
            generator_close = getattr(self._stream, "close", None)
            if generator_close is not None:
                generator_close()
            self._stream = None
        self._positions = None

    def __iter__(self) -> Iterator[tuple[Surrogate, dict[str, Any]]]:
        while True:
            item = self.next()
            if item is None:
                return
            yield item


class AtomTypeScan(Scan):
    """All atoms of one type in system-defined (physical) order.

    Corresponds to the relation scan of the RSS [As76].  ``attrs`` selects
    attributes ("only selected attributes"); the search argument restricts
    the result set.
    """

    def __init__(self, manager: "AtomManager", type_name: str,
                 search: SearchArgument | None = None,
                 attrs: list[str] | None = None) -> None:
        super().__init__(counters=manager.counters)
        self._manager = manager
        self._type_name = type_name
        self._search = search
        self._attrs = attrs
        manager.schema.atom_type(type_name)   # validate early

    def _snapshot(self) -> list[Surrogate]:
        return [s for s, _values in self._manager.atoms_of_type(self._type_name)]

    def _deliver(self, position: Surrogate):
        values = self._manager.get_or_none(position)
        if values is None:
            return None
        if self._search is not None and not self._search.matches(values):
            return None
        if self._attrs is not None:
            values = self._manager.get(position, attrs=self._attrs)
        return position, values


class SortScan(Scan):
    """All atoms of one type in a user-defined sort order.

    Uses a redundant :class:`SortOrder` when one matches the criterion;
    otherwise the sort is performed explicitly into a temporary order
    (which is exactly what the paper allows — the scan works either way).
    Start and stop conditions bound the delivered key range; the
    direction is first-class (``reverse=True`` walks the order
    descending, with the surrogate tie-break kept ascending on every
    backing — sort order, access path, and explicit sort agree on ties).

    Besides the static start/stop conditions the scan accepts a
    **dynamic** stop key (:meth:`set_stop_bound`): a consumer that learns
    mid-scan how far the walk can possibly matter (TopK's tightening heap
    threshold) feeds the bound in, and the walk terminates as soon as the
    current key passes it in scan direction.  Combined with ``lazy=True``
    the underlying B*-tree/sort-order walk itself stops — not just the
    delivery.
    """

    def __init__(self, manager: "AtomManager", type_name: str,
                 sort_attrs: list[str],
                 search: SearchArgument | None = None,
                 start: Any = None, stop: Any = None,
                 include_start: bool = True, include_stop: bool = True,
                 reverse: bool = False, lazy: bool = False) -> None:
        super().__init__(counters=manager.counters, lazy=lazy)
        self._manager = manager
        self._type_name = type_name
        self._sort_attrs = tuple(sort_attrs)
        self._search = search
        self._start = start
        self._stop = stop
        self._include_start = include_start
        self._include_stop = include_stop
        self._reverse = reverse
        #: Dynamic stop key over a prefix of ``sort_attrs`` (raw values).
        self._stop_bound: tuple | None = None
        self._support: SortOrder | None = None
        for structure in manager.structures_for(type_name, "sort_order"):
            assert isinstance(structure, SortOrder)
            if structure.sort_attrs == self._sort_attrs:
                self._support = structure
                break
        self.used_sort_order = self._support is not None
        # "It may engage an access path if available" (paper, 3.2): a
        # B*-tree over the sort attributes delivers the value order free.
        self._path_support: AccessPath | None = None
        if self._support is None:
            for structure in manager.structures_for(type_name,
                                                    "access_path"):
                assert isinstance(structure, AccessPath)
                if structure.attrs == self._sort_attrs and \
                        structure.method == "btree":
                    self._path_support = structure
                    break
        self.used_access_path = self._path_support is not None

    def set_stop_bound(self, values: tuple) -> None:
        """Install (or tighten) the dynamic stop key.

        ``values`` are raw attribute values for a leading prefix of the
        sort attributes.  The walk stops at the first entry whose key
        prefix lies strictly *beyond* the bound in scan direction —
        entries tying the bound on the prefix still flow, because a
        consumer bounding on a prefix cannot reject ties.
        """
        bound = tuple(values)
        if len(bound) > len(self._sort_attrs):
            raise AccessError(
                f"stop bound {bound!r} is longer than the sort criterion "
                f"{self._sort_attrs!r}"
            )
        self._stop_bound = bound

    def _beyond_stop_bound(self, key_values: tuple) -> bool:
        bound = self._stop_bound
        if bound is None:
            return False
        probe = make_key(tuple(key_values[:len(bound)]))
        limit = make_key(bound)
        return probe < limit if self._reverse else limit < probe

    def _snapshot_iter(self) -> Iterator[Surrogate]:
        index_backed = True
        if self._support is not None:
            entries: Iterator[tuple[tuple, Surrogate]] = \
                self._support.iterate_entries(
                    start=self._start, stop=self._stop,
                    include_start=self._include_start,
                    include_stop=self._include_stop, reverse=self._reverse,
                )
        elif self._path_support is not None:
            condition = KeyCondition(
                start=self._start, stop=self._stop,
                include_start=self._include_start,
                include_stop=self._include_stop,
                descending=self._reverse,
            )
            conditions = [condition] + \
                [KeyCondition()] * (len(self._sort_attrs) - 1)
            entries = self._path_support.scan(conditions)
        else:
            # The explicit sort reads through the manager itself, so a
            # snapshot manager already delivers epoch-correct entries.
            entries = self._explicit_entries()
            index_backed = False
        if index_backed and getattr(self._manager, "is_snapshot", False):
            entries = self._overlay_entries(entries)
        for key_values, surrogate in entries:
            if self._counters is not None:
                self._counters.bump("sort_scan_entries_walked")
            if self._beyond_stop_bound(key_values):
                return
            yield surrogate

    def _overlay_entries(self, entries: Iterator[tuple[tuple, Surrogate]]
                         ) -> Iterator[tuple[tuple, Surrogate]]:
        """Snapshot mode over a *live* index walk: atoms displaced since
        the epoch (modified, deleted, or created) are skipped where the
        live structure has them and merged back in — with their epoch
        key values, at the position those values sort to."""
        overlay = self._manager.overlay(self._type_name)
        if not overlay:
            yield from entries
            return
        displaced = set(overlay)
        extra: list[tuple[Any, tuple, Surrogate]] = []
        for surrogate, values in overlay.items():
            if values is None:
                continue   # invisible at the epoch
            raw = tuple(values.get(a) for a in self._sort_attrs)
            key = make_key(raw)
            if self._start is not None:
                lo = make_key(self._start)
                if key < lo or (key == lo and not self._include_start):
                    continue
            if self._stop is not None:
                hi = make_key(self._stop)
                if hi < key or (key == hi and not self._include_stop):
                    continue
            extra.append((key, raw, surrogate))
        extra.sort(key=lambda e: (e[0], e[2]))
        if self._reverse:
            extra.sort(key=lambda e: e[0], reverse=True)
        live = ((k, s) for k, s in entries if s not in displaced)
        yield from _merge_entries(live, extra, self._reverse)

    def _explicit_entries(self) -> Iterator[tuple[tuple, Surrogate]]:
        """Explicit sort into a temporary order (no supporting structure).

        The sort is by (key, surrogate) ascending; a descending scan
        stably re-sorts on the key alone, which keeps the surrogate
        tie-break ascending — the same tie semantics as the index-backed
        paths and the stable explicit Sort operator.
        """
        entries: list[tuple[Any, tuple, Surrogate]] = []
        for surrogate, values in self._manager.atoms_of_type(self._type_name):
            raw = tuple(values.get(a) for a in self._sort_attrs)
            key = make_key(raw)
            if self._start is not None:
                lo = make_key(self._start)
                if key < lo or (key == lo and not self._include_start):
                    continue
            if self._stop is not None:
                hi = make_key(self._stop)
                if hi < key or (key == hi and not self._include_stop):
                    continue
            entries.append((key, raw, surrogate))
        entries.sort(key=lambda e: (e[0], e[2]))
        if self._reverse:
            entries.sort(key=lambda e: e[0], reverse=True)
        for _key, raw, surrogate in entries:
            yield raw, surrogate

    def _deliver(self, position: Surrogate):
        values: dict[str, Any] | None = None
        # The sort order's record copies track the *live* state; under a
        # snapshot only the manager (the epoch view) may serve values.
        if self._support is not None and \
                not getattr(self._manager, "is_snapshot", False):
            if not self._manager.exists(position):
                return None
            values = self._support.read(position)
            if values is not None:
                self._manager.counters.bump("reads_from_sort_order")
        if values is None:
            values = self._manager.get_or_none(position)
            if values is None:
                return None
        if self._search is not None and not self._search.matches(values):
            return None
        return position, values


class AccessPathScan(Scan):
    """Scan over an access path with per-key conditions and directions.

    Key-sequential access comes for free from the path's value order; with
    n keys the caller chooses start/stop conditions and direction for every
    key individually.

    Like the sort scan, the access-path scan accepts a **dynamic** stop
    key (:meth:`set_stop_bound`) on top of its static
    :class:`KeyCondition` bounds: a B*-tree walk already bounded by the
    predicate's range terminates even earlier once a consumer (TopK's
    tightening heap threshold) learns how far the order can possibly
    matter — the static condition and the dynamic bound combine, and
    whichever cuts first stops the walk.
    """

    def __init__(self, manager: "AtomManager", path: AccessPath,
                 conditions: list[KeyCondition] | None = None,
                 search: SearchArgument | None = None,
                 lazy: bool = False) -> None:
        super().__init__(counters=manager.counters, lazy=lazy)
        self._manager = manager
        self._path = path
        self._conditions = conditions
        self._search = search
        self._reverse = bool(conditions and conditions[0].descending)
        #: Dynamic stop key over a prefix of the path attributes.
        self._stop_bound: tuple | None = None

    def set_stop_bound(self, values: tuple) -> None:
        """Install (or tighten) the dynamic stop key (raw values for a
        leading prefix of the path attributes; ties still flow)."""
        bound = tuple(values)
        if len(bound) > len(self._path.attrs):
            raise AccessError(
                f"stop bound {bound!r} is longer than the path attributes "
                f"{self._path.attrs!r}"
            )
        self._stop_bound = bound

    def _beyond_stop_bound(self, key_values: tuple) -> bool:
        bound = self._stop_bound
        if bound is None:
            return False
        probe = make_key(tuple(key_values[:len(bound)]))
        limit = make_key(bound)
        return probe < limit if self._reverse else limit < probe

    def _snapshot_iter(self) -> Iterator[Surrogate]:
        entries: Iterator[tuple[tuple, Surrogate]] = \
            self._path.scan(self._conditions)
        if getattr(self._manager, "is_snapshot", False):
            entries = self._overlay_entries(entries)
        for key_values, surrogate in entries:
            if self._counters is not None:
                self._counters.bump("access_path_entries_walked")
            if self._beyond_stop_bound(key_values):
                return
            yield surrogate

    def _overlay_entries(self, entries: Iterator[tuple[tuple, Surrogate]]
                         ) -> Iterator[tuple[tuple, Surrogate]]:
        """Snapshot mode: skip displaced atoms in the live walk, merge
        their epoch keys back in (see :meth:`SortScan._overlay_entries`)."""
        overlay = self._manager.overlay(self._path.atom_type)
        if not overlay:
            yield from entries
            return
        displaced = set(overlay)
        conditions = list(self._conditions) if self._conditions else \
            [KeyCondition() for _ in self._path.attrs]
        extra: list[tuple[Any, tuple, Surrogate]] = []
        for surrogate, values in overlay.items():
            if values is None:
                continue   # invisible at the epoch
            raw = self._path.key_of(values)
            if not AccessPath._qualifies_rest(raw, conditions):
                continue
            extra.append((make_key(raw), raw, surrogate))
        extra.sort(key=lambda e: (e[0], e[2]))
        if self._reverse:
            extra.sort(key=lambda e: e[0], reverse=True)
        live = ((k, s) for k, s in entries if s not in displaced)
        yield from _merge_entries(live, extra, self._reverse)

    def _deliver(self, position: Surrogate):
        values = self._manager.get_or_none(position)
        if values is None:
            return None
        if self._search is not None and not self._search.matches(values):
            return None
        return position, values


class ClusterSearchArgument:
    """A search argument decidable in one pass through a single cluster.

    Quantifies a simple term over the member atoms with a given label:
    ``exists`` (default) or ``all`` (single-scan property [DPS86]).
    """

    def __init__(self, label: str, term: SearchArgument,
                 quantifier: str = "exists") -> None:
        if quantifier not in ("exists", "all"):
            raise AccessError("quantifier must be 'exists' or 'all'")
        self.label = label
        self.term = term
        self.quantifier = quantifier

    def matches(self, members: dict[str, list[dict[str, Any]]]) -> bool:
        atoms = members.get(self.label, [])
        if self.quantifier == "exists":
            return any(self.term.matches(atom) for atom in atoms)
        return all(self.term.matches(atom) for atom in atoms)


class AtomClusterTypeScan(Scan):
    """All characteristic atoms of an atom-cluster type.

    Delivers (root surrogate, characteristic atom) pairs; the optional
    cluster search argument is evaluated in one pass through each cluster.
    """

    def __init__(self, manager: "AtomManager", cluster: AtomCluster,
                 search: ClusterSearchArgument | None = None) -> None:
        super().__init__(counters=manager.counters)
        self._manager = manager
        self._cluster = cluster
        self._search = search

    def _snapshot(self) -> list[Surrogate]:
        return self._cluster.roots()

    def _deliver(self, position: Surrogate):
        if not self._manager.exists(position):
            return None
        if self._search is not None:
            members = self._cluster.read_cluster(position)
            if not self._search.matches(members):
                return None
        return position, self._cluster.characteristic(position)


class AtomClusterScan(Scan):
    """All atoms of one type within one single atom cluster."""

    def __init__(self, manager: "AtomManager", cluster: AtomCluster,
                 root: Surrogate, member_type: str,
                 search: SearchArgument | None = None) -> None:
        super().__init__(counters=manager.counters)
        self._manager = manager
        self._cluster = cluster
        self._root = root
        self._member_type = member_type
        self._search = search

    def _snapshot(self) -> list[Surrogate]:
        return [
            member for member in
            self._cluster.members_of(self._root)
            if member.atom_type == self._member_type
        ]

    def _deliver(self, position: Surrogate):
        if not self._manager.exists(position):
            return None
        values = self._cluster.read_member(self._root, position)
        if self._search is not None and not self._search.matches(values):
            return None
        return position, values
