"""The cluster coordinator: one MQL surface over N shard engines.

The :class:`Coordinator` is the ``data`` member of a
:class:`~repro.shard.cluster.ShardedCluster` — what the
:class:`~repro.engine.Engine` facade and the serving layer call where a
single engine has its :class:`~repro.data.executor.DataSystem`
(``prepare`` / ``execute`` / ``catalog_version`` /
``publish_data_version``); its statement handle, :class:`ClusterPrepared`,
is a :class:`~repro.data.prepared.PreparedStatement` whose ``open``
routes.  Behind those calls it routes:

* **routed** — a SELECT whose root access is an exact KEYS_ARE lookup
  with concrete (bound) key values executes on exactly the shard that
  owns the key (the :class:`~repro.shard.router.ShardRouter` placed the
  atom there at insert time);
* **scatter** — every other SELECT fans out to all shards and gathers
  through a cross-shard ordered merge.  Each shard compiles its own
  pipeline against its own pinned snapshot with the window widened to
  ``limit + offset`` (its private TopK bounded heap — no shard ever
  constructs more than ``k + m`` molecules), and for prefix-served
  orders the coordinator pushes the tightening *global* stop bound back
  down into the shards still in flight, so later shards stop their
  scans even earlier than their local heaps would;
* **DML/DDL** — DDL and LDL fan out to every shard (the per-shard
  catalogs stay in lockstep, which is what makes one representative
  plan valid cluster-wide); INSERT routes to the key's owner; DELETE /
  MODIFY scatter and sum their effects.

Plan invalidation composes per shard with the coordinator: each shard's
prepared statement replans itself when *its* catalog version moves, and
the coordinator re-derives the routing annotation whenever the summed
cluster version moves (``cluster_plans_invalidated``).
"""

from __future__ import annotations

import pickle
import threading
import time
from dataclasses import replace
from typing import TYPE_CHECKING, Any

from repro.data.operators import RootScan, order_rank
from repro.data.plan import QueryPlan
from repro.data.prepared import PlanCache, PreparedStatement
from repro.data.result import ResultSet
from repro.errors import PrimaError
from repro.mql.ast import (
    CreateAtomType,
    DefineMoleculeType,
    DeleteStatement,
    DropAtomType,
    DropMoleculeType,
    InsertStatement,
    Literal,
    ModifyStatement,
    Parameter,
    Projection,
    SelectStatement,
    Statement,
)
from repro.obs import Observability
from repro.obs.trace import Span, span_from_operator
from repro.parallel.decompose import merge_ordered

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.shard.cluster import ShardedCluster

_DDL_STATEMENTS = (CreateAtomType, DropAtomType, DefineMoleculeType,
                   DropMoleculeType)


def _molecule_bytes(molecule: Any) -> int:
    """Modelled wire size of one gathered molecule (pickled, like the
    serving protocol frames its batches)."""
    return len(pickle.dumps(molecule, protocol=pickle.HIGHEST_PROTOCOL))


def _mol_value(molecule: Any, attr: str) -> Any:
    """ORDER BY values read off the *unprojected* root atom — the same
    accessor the serial Sort/TopK operators rank with."""
    return molecule.atom.get(attr)


def _shard_span(pipe: "_ShardPipe", parent: Span) -> Span:
    """One shard's child span: the shard pipeline's measured wall-time,
    gathered rows/bytes, and the operator spans underneath."""
    span = Span(f"shard:{pipe.index}", parent=parent)
    span.started = 0.0
    span.duration = max(pipe.pipeline.time_total, 0.0)
    span.attrs["shard"] = pipe.index
    span.attrs["rows"] = pipe.delivered
    span.attrs["bytes"] = pipe.bytes_out
    span_from_operator(pipe.pipeline, parent=span)
    return span


class _ShardPipe:
    """One shard's compiled pipeline plus its pinned snapshot.

    Honours the operator pull protocol (``next``/``close``/``rewind``),
    so a routed result set streams straight off it.  Closing releases
    the shard's snapshot pin and bills the delivered bytes against the
    shard's modelled service channel (one message + payload — the
    deterministic quantity the scaling bench gates on).
    """

    def __init__(self, cluster: "ShardedCluster", index: int, data: Any,
                 plan: QueryPlan, snapshot: Any) -> None:
        self.cluster = cluster
        self.index = index
        self.data = data
        self.snapshot = snapshot
        self.pipeline = plan.compile(data, snapshot=snapshot)
        self.delivered = 0
        self.bytes_out = 0
        self.closed = False
        self._hooks: list = []

    def next(self) -> Any:
        molecule = self.pipeline.next()
        if molecule is not None:
            self.delivered += 1
            self.bytes_out += _molecule_bytes(molecule)
        return molecule

    def push_bound(self, values: tuple) -> None:
        """Install the coordinator's global stop bound on this shard's
        root scan (a no-op for unordered accesses)."""
        operator = self.pipeline
        while getattr(operator, "children", None):
            operator = operator.children[0]
        if isinstance(operator, RootScan):
            operator.bound(values)

    def rewind(self) -> None:
        self.pipeline.rewind()

    def add_close_hook(self, hook) -> None:
        self._hooks.append(hook)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            self.pipeline.close()
        finally:
            self.snapshot.release()
            self.cluster.bill_shard(self.index, self.bytes_out)
            for hook in self._hooks:
                hook(self)


class _ScatterGather:
    """Cross-shard gather source: ordered k-way merge over shard pipes.

    Two gather modes, chosen from the (bound) global plan:

    * ``windowed`` — ORDER BY + LIMIT.  Shards drain in shard order
      into a bounded candidate set (each shard's own TopK already caps
      it at ``k + offset``); once the candidate set covers the window,
      the current global boundary's order-prefix key is pushed down
      into every *remaining* shard's root scan before it drains
      (``shard_bounds_pushed``) — the cross-shard twin of TopK's
      tightening heap bound.
    * ``stream`` — everything else: a lazy k-way merge over the
      per-shard ordered streams, at most one molecule ahead per shard,
      under the global OFFSET/LIMIT window.  Without ORDER BY every
      rank is equal, so the tie rule below makes the merge a
      concatenation in shard order.

    Ties across shards resolve to the lower shard index (then arrival
    order), so gathers are deterministic for any shard count.
    """

    def __init__(self, coordinator: "Coordinator", plan: QueryPlan,
                 pipes: list[_ShardPipe]) -> None:
        self._coordinator = coordinator
        self._plan = plan
        self._pipes = pipes
        self._hooks: list = []
        self._closed = False
        self._started = False
        self._exhausted = False
        self._projected: set[int] = set()
        self._windowed = bool(plan.order_by) and plan.limit is not None
        self._selected: list[tuple[Any, int]] | None = None
        self._position = 0
        self._merge = None
        self._skipped = 0
        self._emitted = 0

    # -- gather ---------------------------------------------------------------

    def next(self) -> Any:
        self._started = True
        if self._closed:
            return None
        if self._windowed:
            molecule = self._next_windowed()
        else:
            molecule = self._next_stream()
        if molecule is None:
            self._exhausted = True
        return molecule

    def _next_windowed(self) -> Any:
        if self._selected is None:
            self._prime()
        if self._position >= len(self._selected):
            return None
        molecule, _shard = self._selected[self._position]
        self._position += 1
        return molecule

    def _prime(self) -> None:
        """Drain every shard's bounded result, tightening the global
        stop bound between shards; select the global window."""
        plan = self._plan
        window = plan.limit + plan.offset
        # A fully order-served access reports no explicit prefix — the
        # whole ORDER BY is the served (and boundable) prefix then.
        served = plan.order_prefix_served or (
            len(plan.order_by) if plan.order_served_by_access else 0)
        prefix_attrs = [attr for attr, _desc in plan.order_by[:served]]
        entry_key = lambda e: (e[0], e[1], e[2])  # noqa: E731
        entries: list[tuple[tuple, int, int, Any, tuple]] = []
        serial = 0
        for index, pipe in enumerate(self._pipes):
            if prefix_attrs and len(entries) >= window:
                boundary = sorted(entries, key=entry_key)[window - 1]
                pipe.push_bound(boundary[4])
                self._coordinator.access.counters.bump("shard_bounds_pushed")
            while True:
                molecule = pipe.next()
                if molecule is None:
                    break
                rank = order_rank(molecule, plan.order_by, _mol_value)
                prefix = tuple(molecule.atom.get(attr)
                               for attr in prefix_attrs)
                entries.append((rank, index, serial, molecule, prefix))
                serial += 1
        entries.sort(key=entry_key)
        chosen = entries[plan.offset:plan.offset + plan.limit]
        selected: list[tuple[Any, int]] = []
        for _rank, index, _serial, molecule, _prefix in chosen:
            self._project(molecule, index)
            selected.append((molecule, index))
        self._selected = selected

    def _next_stream(self) -> Any:
        plan = self._plan
        if plan.limit is not None and self._emitted >= plan.limit:
            return None
        if self._merge is None:
            self._merge = merge_ordered(self._pipes, plan.order_by,
                                        _mol_value)
        for molecule, index in self._merge:
            if self._skipped < plan.offset:
                self._skipped += 1
                continue
            self._emitted += 1
            self._project(molecule, index)
            return molecule
        return None

    def _project(self, molecule: Any, index: int) -> None:
        """Apply the query's projection at delivery (under ORDER BY shard
        pipelines run projection-free so ranked values reach the merge)."""
        plan = self._plan
        if not plan.order_by or plan.projection.select_all \
                or id(molecule) in self._projected:
            return
        self._projected.add(id(molecule))
        self._pipes[index].data.apply_projection(molecule, plan.projection,
                                                 plan.structure)

    # -- cursor contract ------------------------------------------------------

    def has_pending(self) -> bool:
        return self._started and not self._exhausted

    def rewind(self) -> None:
        if self._closed:
            return
        self._exhausted = False
        if self._windowed and self._selected is not None:
            self._position = 0
            return
        for pipe in self._pipes:
            pipe.rewind()
        self._merge = None
        self._skipped = 0
        self._emitted = 0

    def add_close_hook(self, hook) -> None:
        self._hooks.append(hook)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for pipe in self._pipes:
            pipe.close()
        for hook in self._hooks:
            hook(self)


class ClusterPrepared(PreparedStatement):
    """One prepared statement, planned on every shard.

    A :class:`~repro.data.prepared.PreparedStatement` over N per-shard
    statements (each riding its shard's plan cache, each replanning
    itself when *its* catalog version moves), whose plan, parameters
    and literal bindings are shard 0's.  It overrides only what routing
    changes: the annotated ``plan`` / ``bind`` (re-derived whenever the
    summed cluster catalog version moves), the union
    ``dependency_types``, the routed or scatter-gather ``open`` (also
    how ``execute`` reads) and the per-shard ``trace``.
    """

    def __init__(self, coordinator: "Coordinator", text: str) -> None:
        self._stmts = [engine.data.prepare(text)
                       for engine in coordinator.cluster.engines]
        base = self._stmts[0]
        super().__init__(coordinator, base.text, base.statement,
                         template=base, lifted=base._lifted)
        self._version = coordinator.catalog_version

    def dependency_types(self) -> frozenset[str]:
        """The union of every shard plan's dependency set.  Shard
        catalogs move in lockstep (DDL fans out), so the per-shard sets
        normally agree — the union is the safe cluster-wide answer, and
        it is what lets *any* shard's commit fire the subscription."""
        types: set[str] = set()
        for stmt in self._stmts:
            types.update(stmt.dependency_types())
        return frozenset(types)

    def _refresh(self) -> None:
        current = self._data.catalog_version
        if current != self._version:
            self._version = current
            self._data.access.counters.bump("cluster_plans_invalidated")

    def plan(self) -> QueryPlan:
        self._refresh()
        return self._data.annotate(self._stmts[0].plan())

    def bind(self, args: tuple = (),
             params: dict[str, Any] | None = None) -> QueryPlan:
        self._refresh()
        bound = self._stmts[0].bind(args, params or {})
        return self._data.annotate(bound,
                                   shard=self._data.routed_target(bound))

    def _bound_plans(self, args: tuple,
                     params: dict[str, Any] | None) -> list[QueryPlan]:
        self._refresh()
        return [stmt.bind(args, params or {}) for stmt in self._stmts]

    def open(self, args: tuple = (),
             params: dict[str, Any] | None = None) -> ResultSet:
        """Bind and execute a SELECT: routed or scatter-gather.

        The returned lazy :class:`ResultSet` holds one pinned snapshot
        *per touched shard*, all released when it closes.
        """
        coordinator = self._data
        with coordinator.mutex:
            plans = self._bound_plans(args, params)
            return coordinator._open(
                plans, coordinator.routed_target(plans[0]), self.text)

    #: A cluster has snapshot cursors only: ``execute`` reads via open.
    _cursor = open

    def trace(self, args: tuple = (),
              params: dict[str, Any] | None = None) -> Span:
        """Run the SELECT to exhaustion under a forced trace.

        Unlike the sampled close-hook path this always builds the span
        tree: the root span is live wall-time, each touched shard
        contributes one child span carrying its pipeline's operator
        spans (their summed self-times bound by the root duration).
        """
        if self.kind != "select":
            raise PrimaError("TRACE supports SELECT statements only")
        coordinator = self._data
        with coordinator.mutex:
            plans = self._bound_plans(args, params)
            target = coordinator.routed_target(plans[0])
            span = Span("query", attrs={
                "mql": self.text,
                "mode": "scatter" if target is None else "routed",
                "shards": len(plans) if target is None else 1,
            })
            source = coordinator._gather(plans, target, self.text, span)
            rows = 0
            try:
                while source.next() is not None:
                    rows += 1
                span.attrs["rows"] = rows
            finally:
                source.close()
            return span


class Coordinator:
    """The routing query executor (``data``) of a :class:`ShardedCluster`."""

    def __init__(self, cluster: "ShardedCluster") -> None:
        self.cluster = cluster
        #: The cluster's access facade (``DataSystem.access``'s twin).
        self.access = cluster.access
        self._prepared = PlanCache(128)
        self.obs = Observability()
        #: The cluster's engine mutex, which every shard engine shares.
        self.mutex = threading.RLock()
        for engine in cluster.engines:
            engine.data.mutex = self.mutex

    # -- the DataSystem surface the serving layer speaks ---------------------

    @property
    def validator(self):
        return self.cluster.engines[0].data.validator

    @property
    def catalog_version(self) -> int:
        """Summed per-shard versions: any shard's DDL moves the total."""
        return sum(engine.data.catalog_version
                   for engine in self.cluster.engines)

    def publish_data_version(self) -> int:
        """Advance every shard's atom-version epoch (a commit boundary
        observed cluster-wide)."""
        return max(engine.data.publish_data_version()
                   for engine in self.cluster.engines)

    def prepare(self, mql: str, use_cache: bool = True) -> ClusterPrepared:
        """Plan ``mql`` on every shard; cache the cluster handle.

        The per-shard statements ride their shards' plan caches (and
        literal templates); this map only deduplicates the cluster
        handle so repeated text returns one handle identity.
        """
        key = PlanCache.normalize(mql)
        if use_cache:
            hit = self._prepared.get(key)
            if hit is not None:
                self.access.counters.bump("cluster_prepared_hits")
                return hit
        prepared = ClusterPrepared(self, mql)
        if use_cache:
            self._prepared.put(key, prepared)
        return prepared

    # -- SELECT execution -----------------------------------------------------

    def annotate(self, plan: QueryPlan,
                 shard: int | None = None) -> QueryPlan:
        """Stamp the shard-routing annotation onto a (possibly bound)
        plan — the planner's shard-awareness lives here."""
        cluster = self.cluster
        if plan.root_access.kind == "key_lookup":
            root_type = cluster.schema.atom_type(plan.root_access.atom_type)
            routing: dict[str, Any] = {
                "mode": "routed",
                "shards": cluster.shard_count,
                "key_attr": ", ".join(root_type.keys),
            }
            if shard is not None:
                routing["shard"] = shard
        else:
            routing = {"mode": "scatter", "shards": cluster.shard_count}
        return replace(plan, routing=routing)

    def routed_target(self, plan: QueryPlan) -> int | None:
        """The single shard a bound key-lookup plan routes to (``None``:
        scatter — any other access kind, or a still-unbound key)."""
        if plan.root_access.kind != "key_lookup":
            return None
        if not self.cluster.router.routable(plan.root_access.atom_type):
            return None   # mixed placement: old atoms may sit anywhere
        key = plan.root_access.detail.get("key")
        if key is None or any(isinstance(part, Parameter) for part in key):
            return None
        return self.cluster.router.shard_of_key(plan.root_access.atom_type,
                                                key)

    def _select_statement(self, statement: SelectStatement) -> ResultSet:
        """Execute an already-parsed SELECT AST (the script path)."""
        plans = []
        for engine in self.cluster.engines:
            engine.data._ensure_symmetry()
            plans.append(engine.data.plan_select(statement))
        return self._open(plans, self.routed_target(plans[0]))

    def _open(self, plans: list[QueryPlan], target: int | None,
              text: str = "") -> ResultSet:
        annotated = self.annotate(plans[target or 0], shard=target)
        result = ResultSet(source=self._gather(plans, target, text),
                           plan_text=annotated.explain(), mutex=self.mutex)
        result.shard = target
        return result

    def _gather(self, plans: list[QueryPlan], target: int | None,
                text: str, span: Span | None = None) -> Any:
        """Open the one routed pipe or the scatter-gather over all of
        them — the only place shard pipes are opened for a SELECT.
        ``span`` forces a trace (see :meth:`_watch` and
        :meth:`ClusterPrepared.trace`)."""
        if target is not None:
            pipes = [self._open_pipe(
                target, replace(plans[target], routing=None))]
            source: Any = pipes[0]
            self.access.counters.bump("routed_queries")
        else:
            pipes = []
            try:
                for index, plan in enumerate(plans):
                    pipes.append(
                        self._open_pipe(index, self._shard_plan(plan)))
            except BaseException:
                for pipe in pipes:
                    pipe.close()
                raise
            source = _ScatterGather(self, plans[0], pipes)
            self.access.counters.bump("scatter_queries")
        self._watch(text, source, pipes, span)
        return source

    def _watch(self, text: str, source: Any, pipes: list[_ShardPipe],
               span: Span | None = None) -> None:
        """Arm per-query accounting on a gather source: when the result
        set closes, the coordinator's latency histogram and slow log see
        the query — with a span tree (root + one child per shard) when
        the tracer sampled it, or always when the caller forces one by
        passing its own live ``span``."""
        obs = self.obs
        if span is None:
            span = obs.tracer.start("query", mql=text,
                                    shards=len(pipes))
        started = span.started if span is not None else time.perf_counter()

        def _finish(_source: Any) -> None:
            duration = time.perf_counter() - started
            if span is not None:
                span.duration = duration
                for pipe in pipes:
                    _shard_span(pipe, span)
            obs.observe_query(text, duration, span)

        source.add_close_hook(_finish)

    def _shard_plan(self, plan: QueryPlan) -> QueryPlan:
        """One shard's slice of a scatter plan.

        The window widens to ``limit + offset`` with the offset zeroed —
        any shard may hold the entire global window, and the skip is a
        global decision.  Under ORDER BY the shard pipelines also run
        projection-free (the gather ranks on root-attribute values the
        projection may prune; the coordinator projects at delivery).
        """
        changes: dict[str, Any] = {"routing": None, "offset": 0}
        changes["limit"] = plan.limit + plan.offset \
            if plan.limit is not None else None
        if plan.order_by and not plan.projection.select_all:
            changes["projection"] = Projection(select_all=True)
        return replace(plan, **changes)

    def _open_pipe(self, index: int, plan: QueryPlan) -> _ShardPipe:
        cluster = self.cluster
        engine = cluster.engines[index]
        snapshot = engine.data.open_snapshot()
        try:
            pipe = _ShardPipe(cluster, index, engine.data, plan, snapshot)
        except BaseException:
            snapshot.release()
            raise
        engine.access.counters.bump("cluster_queries")
        return pipe

    # -- statement execution (DML/DDL dispatch) ------------------------------

    def execute(self, statement: Statement) -> ResultSet:
        """Execute one parsed statement across the cluster.

        DDL fans out to every shard (catalogs move in lockstep); INSERT
        routes to the key owner's shard; DELETE/MODIFY scatter and sum
        their affected counts; SELECT takes the routed/scatter path.
        """
        if isinstance(statement, SelectStatement):
            return self._select_statement(statement)
        if isinstance(statement, _DDL_STATEMENTS):
            for engine in self.cluster.engines:
                result = engine.data.execute(statement)
            self.access.counters.bump("ddl_fanouts")
            return result
        if isinstance(statement, InsertStatement):
            return self._execute_insert(statement)
        if isinstance(statement, (DeleteStatement, ModifyStatement)):
            affected = 0
            for engine in self.cluster.engines:
                affected += engine.data.execute(statement).affected
            self.access.counters.bump("dml_fanouts")
            return ResultSet(affected=affected)
        raise PrimaError(
            f"cluster coordinator cannot execute "
            f"{type(statement).__name__}"
        )

    def _execute_insert(self, statement: InsertStatement) -> ResultSet:
        values = {attr: expr.value
                  for attr, expr in statement.assignments
                  if isinstance(expr, Literal)}
        shard = self.cluster.place_insert(statement.type_name, values)
        return self.cluster.engines[shard].data.execute(statement)
