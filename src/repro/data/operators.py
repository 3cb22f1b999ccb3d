"""Physical operators: the Volcano-style execution pipeline.

The paper's molecule management hands molecules to the application **one
at a time** across the MAD interface (paper, 3.1).  This module makes the
whole execution path honour that contract: a SELECT compiles into a tree
of demand-driven iterator operators (open/next/close, [Graefe's Volcano]),
so the first molecule is delivered before the root scan is exhausted and a
``LIMIT k`` stops construction after k molecules.

Operator inventory (bottom to top of a pipeline):

===================  =======================================================
RootScan             produces root surrogates: key lookup, access-path scan,
                     sort scan (forward or reverse), or atom-type scan with
                     a search argument; ordered scans stream their B*-tree
                     walk lazily and accept a dynamic stop key (``bound()``)
RootPartition        replays an already-derived list of RootScan roots
                     (the parallel subsystem's decomposed units)
MoleculeConstruct    root surrogate -> molecule, by association traversal
                     or from a materialised atom cluster
ResidualFilter       evaluates the residual qualification per molecule
Sort                 explicit final sort — a pipeline breaker, skipped when
                     the root access already delivers the order; caches its
                     sorted run so a rewound pipeline does not re-sort
TopK                 ORDER BY + LIMIT k (+ OFFSET m) fused into one bounded
                     heap of k+m entries; when the input stream is already
                     ordered on a prefix of the sort attributes (a prefix-
                     matching sort scan, in either direction) the heap bound
                     cuts the scan short — and is pushed into the root
                     scan's walk as a dynamically tightening stop key
Offset / Limit       skip the first m molecules / stop after n molecules
Project              applies (qualified) projections to delivered molecules
Route                one shard's pipeline, run against that shard's pinned
                     snapshot on a cluster; counts delivered rows and bytes
Gather               merges the Route children of a scatter: windowed (ORDER
                     BY + LIMIT: shards drain in order while the global
                     boundary is pushed into the later shards' root scans)
                     or a lazy k-way merge; projects at delivery
===================  =======================================================

Every operator counts the rows it emits (``rows_out`` and the access
counters ``operator_rows:<Name>``) and the cumulative wall-time of its
``next()`` calls (``time_total``).  The observability layer
(:mod:`repro.obs`) reports those times per query: a drained pipeline
converts into a span tree (:meth:`Operator.span`) whose self-times
``explain(analyze=True)``, the TRACE wire message, and the slow log
all render.
"""

from __future__ import annotations

import heapq
import time
from functools import total_ordering
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.access.access_path import AccessPath
from repro.access.btree import make_key
from repro.access.cluster import AtomCluster
from repro.access.encoding import molecules_size
from repro.access.scans import AccessPathScan, AtomTypeScan, SearchArgument, SortScan
from repro.mad.molecule import Molecule, StructureNode
from repro.mad.types import Surrogate
from repro.mql.ast import Expr, Projection
from repro.obs.trace import span_from_operator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.data.executor import DataSystem
    from repro.data.plan import QueryPlan, RootAccess


class Operator:
    """One node of the physical operator tree (demand-driven iterator).

    The protocol is Volcano's: ``open()`` prepares the operator, ``next()``
    returns the next row or None at end, ``close()`` releases resources
    down the tree.  Iteration (``for row in op``) drives the same path.
    """

    name = "Operator"

    def __init__(self, *children: "Operator") -> None:
        self.children: tuple[Operator, ...] = children
        #: Rows this operator has emitted so far.
        self.rows_out = 0
        #: Cumulative wall-time spent inside ``next()`` (children included).
        self.time_total = 0.0
        self._iterator: Iterator[Any] | None = None
        self._closed = False
        self._counters = None
        self._close_hooks: list[Callable[["Operator"], None]] = []
        self._rows_key = f"operator_rows:{self.name}"

    def bind_counters(self, counters) -> None:
        """Attach the access-system counters down the whole tree."""
        self._counters = counters
        for child in self.children:
            child.bind_counters(counters)

    # -- the Volcano protocol -------------------------------------------------

    def open(self) -> None:
        if self._iterator is None and not self._closed:
            self._iterator = self._produce()

    def next(self) -> Any | None:
        """Deliver the next row (None at end of the stream or after
        ``close()`` — a closed operator never reopens).

        Every call is timed with :func:`time.perf_counter` into
        ``time_total`` (children included; :attr:`self_time` subtracts
        them).
        """
        if self._closed:
            return None
        started = time.perf_counter()
        if self._iterator is None:
            self.open()
        assert self._iterator is not None
        try:
            row = next(self._iterator)
        except StopIteration:
            row = None
        self.time_total += time.perf_counter() - started
        if row is None:
            return None
        self.rows_out += 1
        if self._counters is not None:
            self._counters.bump(self._rows_key)
        return row

    @property
    def self_time(self) -> float:
        """Wall-time spent in this operator alone."""
        return self.time_total - sum(c.time_total for c in self.children)

    def span(self, parent=None):
        """This (drained) subtree as an observability span tree.

        Re-roots the measurements ``next()`` already took (rows and
        wall-time per operator) under ``parent`` — nothing extra runs
        on the row path.  See :func:`repro.obs.trace.span_from_operator`.
        """
        return span_from_operator(self, parent)

    def add_close_hook(self, hook: Callable[["Operator"], None]) -> None:
        """Register a cursor-release hook, run once when this operator is
        explicitly closed.

        The serving layer (:mod:`repro.serve`) uses this to observe when a
        remote client's CLOSE (or a server-side cursor teardown) actually
        releases the pipeline — e.g. to account released pipelines and to
        drop per-cursor bookkeeping.  Hooks fire on the first ``close()``
        only (close is idempotent) and receive the operator.
        """
        self._close_hooks.append(hook)

    def close(self) -> None:
        """Release the tree's resources; the operator stays closed."""
        first_close = not self._closed
        self._closed = True
        if self._iterator is not None:
            generator_close = getattr(self._iterator, "close", None)
            if generator_close is not None:
                generator_close()   # run pending finally blocks now
            self._iterator = None
        for child in self.children:
            child.close()
        if first_close:
            hooks, self._close_hooks = self._close_hooks, []
            for hook in hooks:
                hook(self)

    def has_pending(self) -> bool | None:
        """Whether rows remain undelivered, when that is known without
        running anything; None when only a pull can tell.  A result set
        asks this on close to decide truncation."""
        return None

    def rewind(self) -> None:
        """Re-open the operator at the start of its stream.

        A closed operator stays closed; row/time accounting keeps
        accumulating across rewinds.  Pipeline breakers (Sort, TopK)
        override this to replay their cached run without re-pulling —
        and without re-sorting — their children.
        """
        if self._closed:
            return
        if self._iterator is not None:
            generator_close = getattr(self._iterator, "close", None)
            if generator_close is not None:
                generator_close()
            self._iterator = None
        for child in self.children:
            child.rewind()

    def __iter__(self) -> Iterator[Any]:
        while True:
            row = self.next()
            if row is None:
                return
            yield row

    # -- what the subclasses provide ------------------------------------------

    def _produce(self) -> Iterator[Any]:
        raise NotImplementedError

    def detail(self) -> str:
        """Short parenthesised description for explain output."""
        return ""

    # -- explain ---------------------------------------------------------------

    def describe(self) -> str:
        inner = self.detail()
        return f"{self.name} ({inner})" if inner else self.name

    def render_tree(self, indent: int = 0, analyze: bool = False) -> list[str]:
        """The operator subtree, one line per operator, children indented.

        With ``analyze=True`` every line carries the measured row count and
        self time of the operator (``explain(analyze=True)`` output).
        """
        line = " " * indent + self.describe()
        if analyze:
            line += (f"  [rows={self.rows_out}, "
                     f"self {max(self.self_time, 0.0) * 1000.0:.3f} ms]")
        lines = [line]
        for child in self.children:
            lines.extend(child.render_tree(indent + 2, analyze=analyze))
        return lines


class RootScan(Operator):
    """Produce the root surrogates of a molecule-type scan.

    Wraps the four root-access kinds of query preparation: exact KEYS_ARE
    lookup, access-path scan, sort scan (forward or reverse), and
    atom-type scan with a pushed-down search argument.  Delivery is lazy
    down to the storage structure — sort and access-path scans stream
    their B*-tree walk incrementally, so downstream operators that stop
    pulling (LIMIT) leave the rest of the *walk* untouched, not just the
    atom fetches.

    ``bound()`` is the dynamic search-argument hook: a consumer that
    learns mid-query how far the ordered walk can possibly matter (TopK's
    tightening heap threshold) feeds the key prefix in, and the
    underlying sort scan stops as soon as the walk passes it.
    """

    name = "RootScan"

    def __init__(self, data: "DataSystem", root_access: "RootAccess",
                 snapshot: Any = None) -> None:
        super().__init__()
        self._data = data
        self.root_access = root_access
        #: Snapshot view serving this pipeline's reads (None: live).
        self._snapshot = snapshot
        self._scan: Any = None
        self._stop_bound: tuple | None = None
        #: How many times a consumer pushed a (tighter) bound down.
        self.bounds_received = 0

    def bound(self, values: tuple) -> None:
        """Install/tighten a dynamic stop key on the underlying ordered
        scan (a no-op for unordered root accesses)."""
        self._stop_bound = tuple(values)
        self.bounds_received += 1
        if self._scan is not None and hasattr(self._scan, "set_stop_bound"):
            self._scan.set_stop_bound(self._stop_bound)

    def _produce(self) -> Iterator[Surrogate]:
        atoms = self._snapshot if self._snapshot is not None \
            else self._data.access.atoms
        # Under a snapshot the walk is materialised at open: a lazy
        # B*-tree walk suspended between fetch batches would race with
        # writers committing structure rebalances mid-cursor (a cursor
        # holds the engine mutex only per FETCH message).
        lazy = self._snapshot is None
        access = self.root_access
        if access.kind == "key_lookup":
            surrogate = atoms.find_by_key(access.atom_type,
                                          access.detail["key"])
            if surrogate is not None:
                yield surrogate
            return
        if access.kind == "access_path":
            path = atoms.structure(access.detail["path"])
            assert isinstance(path, AccessPath)
            scan: Any = AccessPathScan(atoms, path,
                                       access.detail["conditions"],
                                       lazy=lazy)
            if self._stop_bound is not None:
                scan.set_stop_bound(self._stop_bound)
        elif access.kind == "sort_scan":
            scan = SortScan(atoms, access.atom_type,
                            list(access.detail["attrs"]),
                            reverse=bool(access.detail.get("reverse")),
                            lazy=lazy)
            if self._stop_bound is not None:
                scan.set_stop_bound(self._stop_bound)
        else:
            search_terms = access.detail.get("search") or []
            search = SearchArgument(*search_terms) if search_terms else None
            scan = AtomTypeScan(atoms, access.atom_type, search=search)
        self._scan = scan
        try:
            for surrogate, _values in scan:
                yield surrogate
        finally:
            self._scan = None
            scan.close()

    def rewind(self) -> None:
        """Restart the stream; a stale dynamic bound is dropped (the next
        consumer run re-derives its own)."""
        self._stop_bound = None
        super().rewind()

    def detail(self) -> str:
        return self.root_access.explain()


class RootPartition(Operator):
    """Replay an already-derived list of root surrogates.

    The parallel subsystem derives the RootScan output up front (one
    decomposed unit per root) and constructs the units' molecules from
    this source operator.
    """

    name = "RootPartition"

    def __init__(self, roots: list[Surrogate]) -> None:
        super().__init__()
        self._roots = list(roots)

    def _produce(self) -> Iterator[Surrogate]:
        yield from self._roots

    def detail(self) -> str:
        return f"{len(self._roots)} root(s)"


class MoleculeConstruct(Operator):
    """Assemble one molecule per root surrogate.

    Construction follows the processing plan: association traversal over
    the base records, or a single page-sequence transfer from a matching
    atom cluster.
    """

    name = "MoleculeConstruct"

    def __init__(self, child: Operator, data: "DataSystem",
                 structure: StructureNode,
                 cluster_name: str | None = None,
                 snapshot: Any = None) -> None:
        super().__init__(child)
        self._data = data
        self._structure = structure
        self._cluster_name = cluster_name
        self._snapshot = snapshot

    def _cluster(self) -> AtomCluster | None:
        # An atom cluster's record copies track the live state; under a
        # snapshot, construction falls back to association traversal
        # through the epoch view.
        if self._cluster_name is None or self._snapshot is not None:
            return None
        cluster = self._data.access.atoms.structure(self._cluster_name)
        assert isinstance(cluster, AtomCluster)
        return cluster

    def _produce(self) -> Iterator[Molecule]:
        cluster = self._cluster()
        for root in self.children[0]:
            yield self._data.construct_molecule(self._structure, root,
                                                cluster,
                                                atoms=self._snapshot)

    def detail(self) -> str:
        if self._cluster_name is not None:
            return f"from atom cluster {self._cluster_name}"
        return "association traversal"


class ResidualFilter(Operator):
    """Evaluate the residual qualification on each constructed molecule."""

    name = "ResidualFilter"

    def __init__(self, child: Operator, data: "DataSystem",
                 where: Expr) -> None:
        super().__init__(child)
        self._data = data
        self._where = where

    def _produce(self) -> Iterator[Molecule]:
        for molecule in self.children[0]:
            if self._data.evaluator.matches(self._where, molecule):
                yield molecule

    def detail(self) -> str:
        return "residual qualification per molecule"


class Breaker(Operator):
    """A pipeline breaker: its emitted run is computed once and cached
    (``_run``), so ``rewind()`` replays it instead of re-pulling its
    children; only a breaker that has not run yet rewinds them.

    A *windowed* breaker (ORDER BY + LIMIT) that has not run yet counts
    its window as pending: closing it unread decides truncation without
    running the whole input, at the price of calling an unread empty
    window truncated.  A full Sort leaves the decision to a pull."""

    _run: list | None = None
    windowed = False

    def has_pending(self) -> bool | None:
        if self.windowed and self._iterator is None and self._run is None:
            return True
        return None

    def rewind(self) -> None:
        if self._closed:
            return
        if self._iterator is not None:
            self._iterator.close()
            self._iterator = None
        if self._run is None:
            for child in self.children:
                child.rewind()


class Sort(Breaker):
    """Explicit final sort over root attributes — a pipeline breaker.

    Materialises the child stream, then emits in the requested order.
    Query preparation skips this operator when the root access (a sort
    scan) already delivers the order, and replaces it (together with the
    Offset/Limit window) by :class:`TopK` when a LIMIT bounds the result.

    The sorted run is cached after the first exhaustion: re-opening the
    pipeline (``rewind()``, e.g. through ``ResultSet.reopen()``) replays
    the cached run instead of re-pulling the children and re-sorting.
    """

    name = "Sort"

    def __init__(self, child: Operator,
                 order_by: list[tuple[str, bool]]) -> None:
        super().__init__(child)
        self._order_by = order_by

    def _produce(self) -> Iterator[Molecule]:
        if self._run is None:
            molecules = list(self.children[0])
            sort_stable(molecules, self._order_by,
                        lambda molecule, attr: molecule.atom.get(attr))
            self._run = molecules
            if self._counters is not None:
                self._counters.bump("operator_sort_runs")
        yield from self._run

    def detail(self) -> str:
        rendered = ", ".join(f"{attr} {'DESC' if desc else 'ASC'}"
                             for attr, desc in self._order_by)
        return f"{rendered} — pipeline breaker"


@total_ordering
class _Descending:
    """Inverts the order of one key part (a DESC attribute in ORDER BY)."""

    __slots__ = ("key",)

    def __init__(self, key: Any) -> None:
        self.key = key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Descending) and self.key == other.key

    def __lt__(self, other: "_Descending") -> bool:
        return other.key < self.key


class _HeapEntry:
    """One retained row of a bounded top-k heap.

    ``rank`` is the full ordering: per-attribute keys (inverted for DESC
    attributes) followed by the arrival sequence number, so ties keep the
    earlier row — exactly the stable full sort's outcome.  ``__lt__`` is
    inverted because :mod:`heapq` builds min-heaps and the heap must keep
    its *worst* retained entry at the root for cheap replacement.
    """

    __slots__ = ("rank", "row")

    def __init__(self, rank: tuple, row: Any) -> None:
        self.rank = rank
        self.row = row

    def __lt__(self, other: "_HeapEntry") -> bool:
        return other.rank < self.rank


def order_rank(item: Any, order_by: list[tuple[str, bool]],
               value_of: Callable[[Any, str], Any]) -> tuple:
    """The comparable ordering key of one item under ``order_by``."""
    parts: list[Any] = []
    for attr, descending in order_by:
        key = make_key(value_of(item, attr))
        parts.append(_Descending(key) if descending else key)
    return tuple(parts)


def merge_ordered(streams: "list[Operator]",
                  order_by: list[tuple[str, bool]],
                  value_of: Callable[[Any, str], Any]
                  ) -> Iterator[tuple[Any, int]]:
    """Lazily k-way merge already-ordered item streams.

    Every stream must already deliver in the ``order_by`` order.  Yields
    ``(item, stream_index)`` in global order; ties resolve to the lower
    stream index (then arrival order within the stream), so the merge is
    deterministic.  Consuming lazily pulls at most one item ahead per
    stream.
    """
    heap: list[tuple[tuple, int, int, Any]] = []
    serial = 0
    for index, stream in enumerate(streams):
        item = stream.next()
        if item is not None:
            heap.append((order_rank(item, order_by, value_of), index,
                         serial, item))
            serial += 1
    heapq.heapify(heap)
    while heap:
        _rank, index, _serial, item = heapq.heappop(heap)
        yield item, index
        refill = streams[index].next()
        if refill is not None:
            heapq.heappush(heap, (order_rank(refill, order_by, value_of),
                                  index, serial, refill))
            serial += 1


class TopK(Breaker):
    """ORDER BY + OFFSET m + LIMIT k fused into one bounded-heap operator.

    Where Sort materialises the whole child stream, TopK retains at most
    ``k + m`` molecules in a :mod:`heapq` heap whose root is the worst
    retained entry; every further molecule either replaces that root or is
    dropped on arrival.  Ties resolve to the earlier molecule, so the
    emitted window equals the stable full sort's.

    When the child stream is already ordered on the first
    ``ordered_prefix`` sort attributes (a prefix-matching sort scan as
    root access), the heap bound becomes a search argument in two ways:

    * **delivery-time early exit** — once the heap is full and an
      arriving molecule's prefix key exceeds the worst retained one, no
      later molecule can enter the heap and the child —
      ``MoleculeConstruct`` included — is cut short;
    * **dynamic bound pushdown** — whenever the heap fills or its worst
      retained entry improves, the worst entry's prefix key is fed into
      ``bound_target.bound()`` (the root scan), which installs it as a
      dynamically tightening stop key on the B*-tree/sort-order walk
      itself: the walk stops *before* the first beyond-bound root is
      even constructed.

    Like Sort, the emitted run is cached for ``rewind()``.
    """

    name = "TopK"
    windowed = True

    def __init__(self, child: Operator, order_by: list[tuple[str, bool]],
                 limit: int, offset: int = 0,
                 ordered_prefix: int = 0,
                 bound_target: Operator | None = None) -> None:
        super().__init__(child)
        self._order_by = order_by
        self._limit = limit
        self._offset = offset
        self._ordered_prefix = ordered_prefix
        self._bound_target = bound_target if ordered_prefix else None
        self._pushed_bound: tuple | None = None
        #: High-water mark of the heap — never exceeds limit + offset.
        self.max_heap_size = 0
        #: True when the ordered-prefix bound stopped the child early.
        self.cut_short = False
        #: How many times the tightening heap bound was pushed down.
        self.bounds_pushed = 0

    def _rank(self, molecule: Molecule, seq: int) -> tuple:
        return order_rank(molecule, self._order_by,
                          lambda m, attr: m.atom.get(attr)) + (seq,)

    def _produce(self) -> Iterator[Molecule]:
        if self._run is None:
            self._run = self._select_top()
            if self._counters is not None:
                self._counters.bump("operator_topk_runs")
        yield from self._run

    def _push_bound(self, heap: list[_HeapEntry]) -> None:
        """Feed the worst retained entry's ordered-prefix key into the
        root scan as its (tightening) dynamic stop key."""
        if self._bound_target is None:
            return
        worst = heap[0].row
        values = tuple(worst.atom.get(attr)
                       for attr, _desc in
                       self._order_by[:self._ordered_prefix])
        if values == self._pushed_bound:
            return   # a replacement within the same prefix group
        self._pushed_bound = values
        self._bound_target.bound(values)
        self.bounds_pushed += 1
        if self._counters is not None:
            self._counters.bump("topk_bounds_pushed")

    def _select_top(self) -> list[Molecule]:
        bound = self._limit + self._offset
        if self._limit <= 0 or bound <= 0:
            return []
        heap: list[_HeapEntry] = []
        child = self.children[0]
        prefix = self._ordered_prefix
        first_attr, first_desc = self._order_by[0]
        seq = 0
        while True:
            molecule = child.next()
            if molecule is None:
                break
            seq += 1
            if len(heap) < bound:
                heapq.heappush(
                    heap, _HeapEntry(self._rank(molecule, seq), molecule))
                if len(heap) > self.max_heap_size:
                    self.max_heap_size = len(heap)
                if len(heap) == bound:
                    self._push_bound(heap)
                continue
            # Fast reject on the first sort attribute alone: a molecule
            # strictly worse than the heap root there can never enter
            # (lexicographic order), so skip building the full rank.
            first = make_key(molecule.atom.get(first_attr))
            if first_desc:
                first = _Descending(first)
            worst_first = heap[0].rank[0]
            if worst_first < first:
                if prefix:
                    # Sargable early exit: the stream is ordered on the
                    # first attribute(s), so no later molecule can beat
                    # the worst retained entry — stop constructing.
                    self.cut_short = True
                    break
                continue
            entry = _HeapEntry(self._rank(molecule, seq), molecule)
            if entry.rank < heap[0].rank:
                heapq.heapreplace(heap, entry)
                self._push_bound(heap)
        ordered = sorted(heap, key=lambda e: e.rank)
        return [e.row for e in ordered[self._offset:]]

    def detail(self) -> str:
        rendered = ", ".join(f"{attr} {'DESC' if desc else 'ASC'}"
                             for attr, desc in self._order_by)
        suffix = ""
        if self._ordered_prefix:
            suffix = f"; input ordered on first {self._ordered_prefix}"
            if self._bound_target is not None:
                suffix += " — dynamic scan bound"
        return (f"k={self._limit}, offset={self._offset}; {rendered} — "
                f"bounded heap{suffix}")


class Offset(Operator):
    """Skip the first ``m`` molecules of the stream."""

    name = "Offset"

    def __init__(self, child: Operator, offset: int) -> None:
        super().__init__(child)
        self._offset = offset

    def _produce(self) -> Iterator[Molecule]:
        skipped = 0
        for molecule in self.children[0]:
            if skipped < self._offset:
                skipped += 1
                continue
            yield molecule

    def detail(self) -> str:
        return str(self._offset)


class Limit(Operator):
    """Stop pulling from the pipeline after ``n`` molecules.

    Early termination is the point of the streaming refactor: with no
    pipeline breaker below, at most n molecules are ever constructed.
    """

    name = "Limit"

    def __init__(self, child: Operator, limit: int) -> None:
        super().__init__(child)
        self._limit = limit

    def _produce(self) -> Iterator[Molecule]:
        if self._limit <= 0:
            return
        delivered = 0
        for molecule in self.children[0]:
            yield molecule
            delivered += 1
            if delivered >= self._limit:
                return

    def detail(self) -> str:
        return str(self._limit)


class Project(Operator):
    """Apply the (qualified) projection to each delivered molecule."""

    name = "Project"

    def __init__(self, child: Operator, data: "DataSystem",
                 projection: Projection, structure: StructureNode) -> None:
        super().__init__(child)
        self._data = data
        self._projection = projection
        self._structure = structure

    def _produce(self) -> Iterator[Molecule]:
        for molecule in self.children[0]:
            self._data.apply_projection(molecule, self._projection,
                                        self._structure)
            yield molecule

    def has_pending(self) -> bool | None:
        # One row out per row in, none held between pulls.
        return self.children[0].has_pending()

    def detail(self) -> str:
        if self._projection.select_all:
            return "ALL"
        return f"{len(self._projection.items)} item(s)"


class Route(Operator):
    """One shard's compiled pipeline, as a child of the cluster's plan.

    The pipeline reads that shard's engine (and, opened pinned, its
    snapshot, released when the pipeline closes).  Route counts the
    molecules it delivers (``rows_out``) and their encoded bytes
    (``bytes_out``); its span is named ``shard:<i>``.  The coordinator
    bills the shard's service channel from a close hook.
    """

    name = "Route"

    def __init__(self, shard: int, pipeline: Operator,
                 data: "DataSystem") -> None:
        super().__init__(pipeline)
        #: The shard this route reads (a routed result set reports it).
        self.shard = shard
        self.name = f"shard:{shard}"
        #: The shard's data system (a Gather projects through it).
        self.data = data
        self.bytes_out = 0

    def _produce(self) -> Iterator[Molecule]:
        pipeline = self.children[0]
        while (molecule := pipeline.next()) is not None:
            self.bytes_out += molecules_size((molecule,))
            yield molecule

    def has_pending(self) -> bool | None:
        return self.children[0].has_pending()

    def push_bound(self, values: tuple) -> None:
        """Install a global stop bound on this shard's root scan (a
        no-op for unordered accesses)."""
        operator: Operator = self
        while operator.children:
            operator = operator.children[0]
        if isinstance(operator, RootScan):
            operator.bound(values)

    def span_attrs(self) -> dict[str, Any]:
        return {"shard": self.shard, "bytes": self.bytes_out}


class Gather(Breaker):
    """Merge the :class:`Route` children of a scatter plan.

    ``plan`` is the global (bound) plan; each route runs its shard's
    slice of it (:meth:`~repro.data.plan.QueryPlan.shard_slice`).  Two
    modes:

    * **windowed** — ORDER BY + LIMIT.  Shards drain in shard order into
      one candidate list (each shard's own TopK caps it at
      ``limit + offset``); once the candidates cover the window, the
      current global boundary's order-prefix key is pushed into the
      root scan of every shard not yet drained (``shard_bounds_pushed``
      on ``counters``).  The selected window is cached for rewinds.
    * **stream** — everything else: a lazy k-way merge over the ordered
      shard streams under the global OFFSET/LIMIT.  Without ORDER BY
      every rank is equal, so the merge concatenates in shard order.

    Ties go to the lower shard.  Under ORDER BY the shards run
    projection-free (the merge ranks on root values a projection may
    prune) and the projection is applied here, at delivery; a rewound
    merge ranks a delivered molecule by the values it had before.
    """

    name = "Gather"

    def __init__(self, routes: list[Route], plan: "QueryPlan",
                 counters: Any) -> None:
        super().__init__(*routes)
        self._plan = plan
        self._counters = counters
        self.windowed = bool(plan.order_by) and plan.limit is not None
        #: ORDER BY values of the molecules projected so far, by id.
        self._ranked: dict[int, dict[str, Any]] = {}

    def _produce(self) -> Iterator[Molecule]:
        plan = self._plan
        if self.windowed:
            if self._run is None:
                self._run = self._window()
            yield from self._run
            return
        if plan.limit is not None and plan.limit <= 0:
            return
        skipped = emitted = 0
        for molecule, index in merge_ordered(list(self.children),
                                             plan.order_by, self._value):
            if skipped < plan.offset:
                skipped += 1
                continue
            yield self._project(molecule, index)
            emitted += 1
            if plan.limit is not None and emitted >= plan.limit:
                return

    def _window(self) -> list[Molecule]:
        plan = self._plan
        window = plan.limit + plan.offset
        # A fully order-served access reports no explicit prefix — the
        # whole ORDER BY is the served (and boundable) prefix then.
        served = plan.order_prefix_served or (
            len(plan.order_by) if plan.order_served_by_access else 0)
        prefix_attrs = [attr for attr, _desc in plan.order_by[:served]]
        entries: list[tuple[tuple, int, int, Molecule]] = []
        for index, route in enumerate(self.children):
            if prefix_attrs and 0 < window <= len(entries):
                boundary = sorted(entries)[window - 1][3]
                route.push_bound(tuple(boundary.atom.get(attr)
                                       for attr in prefix_attrs))
                self._counters.bump("shard_bounds_pushed")
            for molecule in route:
                entries.append((order_rank(molecule, plan.order_by,
                                           self._value),
                                index, len(entries), molecule))
        entries.sort()
        return [self._project(molecule, index) for _rank, index, _serial,
                molecule in entries[plan.offset:window]]

    def _value(self, molecule: Molecule, attr: str) -> Any:
        """An ORDER BY value, as the molecule had it before projection."""
        return self._ranked.get(id(molecule), molecule.atom).get(attr)

    def _project(self, molecule: Molecule, index: int) -> Molecule:
        plan = self._plan
        if plan.order_by and not plan.projection.select_all \
                and id(molecule) not in self._ranked:
            self._ranked[id(molecule)] = {
                attr: molecule.atom.get(attr) for attr, _ in plan.order_by}
            self.children[index].data.apply_projection(
                molecule, plan.projection, plan.structure)
        return molecule


def sort_stable(items: list, order_by: list[tuple[str, bool]],
                value_of) -> None:
    """Explicit final sort, in place: stable sorts composed right-to-left
    give multi-attribute order with a per-attribute direction.

    ``value_of(item, attr)`` extracts the sort value — the Sort operator
    reads molecule atoms, the parallel path reads the pre-projection
    values its units captured.
    """
    for attr, descending in reversed(order_by):
        items.sort(key=lambda item: make_key(value_of(item, attr)),
                   reverse=descending)


def top_k_stable(items: Iterator[Any], order_by: list[tuple[str, bool]],
                 value_of, limit: int, offset: int = 0) -> list:
    """Bounded-heap selection over an iterable: the first ``limit`` items
    after ``offset`` of the stable full sort, retaining at most
    ``limit + offset`` items at any moment.

    The list-shaped twin of the :class:`TopK` operator — the parallel
    subsystem's merge stage uses it over its units' order values.
    """
    bound = limit + offset
    if limit <= 0 or bound <= 0:
        return []
    heap: list[_HeapEntry] = []
    for seq, item in enumerate(items):
        entry = _HeapEntry(order_rank(item, order_by, value_of) + (seq,),
                           item)
        if len(heap) < bound:
            heapq.heappush(heap, entry)
        elif entry.rank < heap[0].rank:
            heapq.heapreplace(heap, entry)
    ordered = sorted(heap, key=lambda e: e.rank)
    return [e.row for e in ordered[offset:]]


def build_pipeline(data: "DataSystem", plan: "QueryPlan",
                   use_topk: bool = True,
                   push_bound: bool = True,
                   snapshot: Any = None) -> Operator:
    """Compile a processing plan into its physical operator tree.

    The canonical shape, bottom to top::

        RootScan -> MoleculeConstruct -> [ResidualFilter]
                 -> [Sort | TopK] -> [Offset] -> [Limit] -> Project

    An explicit sort with a LIMIT fuses into one :class:`TopK` operator
    (which swallows the Offset/Limit window); ``use_topk=False`` keeps the
    Sort/Offset/Limit stack — the full-sort baseline benchmarks compare
    against.  When the root access serves an ORDER BY prefix, TopK is
    additionally wired back to the root scan so its tightening heap bound
    stops the ordered walk itself (``push_bound=False`` disconnects that
    feedback — the pushdown baseline).

    ``snapshot`` (a :class:`~repro.access.snapshots.SnapshotView`) pins
    every read of the pipeline — root derivation and molecule
    construction — to one atom-version epoch; the pipeline then needs
    no read locks at all.
    """
    root = RootScan(data, plan.root_access, snapshot=snapshot)
    operator: Operator = MoleculeConstruct(root, data, plan.structure,
                                           plan.cluster_name,
                                           snapshot=snapshot)
    if plan.residual_where is not None:
        operator = ResidualFilter(operator, data, plan.residual_where)
    windowed = False
    if plan.order_by and not plan.order_served_by_access:
        if use_topk and plan.limit is not None:
            bound_target = root if push_bound else None
            operator = TopK(operator, plan.order_by, plan.limit,
                            plan.offset,
                            ordered_prefix=plan.order_prefix_served,
                            bound_target=bound_target)
            windowed = True
        else:
            operator = Sort(operator, plan.order_by)
    if not windowed:
        if plan.offset:
            operator = Offset(operator, plan.offset)
        if plan.limit is not None:
            operator = Limit(operator, plan.limit)
    operator = Project(operator, data, plan.projection, plan.structure)
    operator.bind_counters(data.access.counters)
    return operator
