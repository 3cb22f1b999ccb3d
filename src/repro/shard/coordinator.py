"""The cluster coordinator: one MQL surface over N shard engines.

The :class:`Coordinator` is the ``data`` member of a
:class:`~repro.shard.cluster.ShardedCluster` — what the
:class:`~repro.engine.Engine` facade, the statement handle and the
serving layer call where a single engine has its
:class:`~repro.data.executor.DataSystem`.  Its ``prepare`` returns a
plain :class:`~repro.data.prepared.PreparedStatement`: the cluster is a
plan shape, not a second executor.

* **plan** — SELECTs plan once, on shard 0 (DDL fans out, so the shard
  catalogs move in lockstep and one plan is valid cluster-wide), and
  carry a routing annotation: ``routed`` when the root access is an
  exact KEYS_ARE lookup on a routable type, ``scatter`` otherwise;
* **bind** — :meth:`Coordinator.settle` re-checks shard 0's access
  decision against the bound values and, once the key is concrete,
  names the one shard that owns it;
* **lower** — :meth:`Coordinator.lower` turns a bound plan into a
  :class:`~repro.data.operators.Route` over the owning shard's
  pipeline, or a :class:`~repro.data.operators.Gather` over one Route
  per shard, each running the plan's widened
  :meth:`~repro.data.plan.QueryPlan.shard_slice` (no shard constructs
  more than ``limit + offset`` molecules, and the gather pushes the
  global stop bound into the shards still to drain);
* **DML/DDL** — DDL fans out to every shard; INSERT routes to the key's
  owner; DELETE / MODIFY scatter and sum their effects.

A statement handle replans when the summed cluster catalog version
moves (``plans_invalidated``), so any shard's DDL invalidates it.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable

from repro.data.operators import Gather, Operator, Route
from repro.data.plan import QueryPlan
from repro.data.prepared import PlanCache, prepare_statement, reveto_plan
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
    SelectStatement,
    Statement,
)
from repro.obs import Observability

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.shard.cluster import ShardedCluster

_DDL_STATEMENTS = (CreateAtomType, DropAtomType, DefineMoleculeType,
                   DropMoleculeType)


class Coordinator:
    """The routing query executor (``data``) of a :class:`ShardedCluster`."""

    def __init__(self, cluster: "ShardedCluster") -> None:
        self.cluster = cluster
        #: The cluster's access facade (``DataSystem.access``'s twin).
        self.access = cluster.access
        self.plan_cache = PlanCache()
        self.obs = Observability()
        #: The cluster's engine mutex, which every shard engine shares.
        self.mutex = threading.RLock()
        for engine in cluster.engines:
            engine.data.mutex = self.mutex

    #: Parse, validate and plan one statement through the cluster's plan
    #: cache (:func:`~repro.data.prepared.prepare_statement`).
    prepare = prepare_statement

    # -- the DataSystem surface the statement handle and serving speak --------

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

    # -- SELECT: plan, bind, lower -------------------------------------------

    def plan_select(self, statement: SelectStatement) -> QueryPlan:
        """Shard 0's plan (it plans for the whole cluster), stamped with
        the routing annotation."""
        plan = self.cluster.engines[0].data.plan_select(statement)
        return replace(plan, routing=self._routing(plan))

    def settle(self, plan: QueryPlan,
               resolve: Callable[[Parameter], Any]) -> QueryPlan:
        """Settle a bound plan: shard 0's access re-check, then the
        routing annotation again — a now-concrete key names its shard."""
        plan = reveto_plan(self.cluster.engines[0].data, plan, resolve)
        return replace(plan, routing=self._routing(plan))

    def _routing(self, plan: QueryPlan) -> dict[str, Any]:
        """The shard-routing annotation of a (possibly bound) plan."""
        router = self.cluster.router
        access = plan.root_access
        if access.kind != "key_lookup" or \
                not router.routable(access.atom_type):
            # Mixed placement: old atoms of the type may sit anywhere.
            return {"mode": "scatter", "shards": router.shards}
        keys = self.cluster.engines[0].schema.atom_type(access.atom_type).keys
        routing: dict[str, Any] = {"mode": "routed", "shards": router.shards,
                                   "key_attr": ", ".join(keys)}
        key = access.detail["key"]
        if not any(isinstance(part, Parameter) for part in key):
            routing["shard"] = router.shard_of_key(access.atom_type, key)
        return routing

    def lower(self, plan: QueryPlan, pinned: bool = False) -> Operator:
        """A bound plan as one :class:`Route` (routed) or a
        :class:`Gather` over one Route per shard (scatter)."""
        target = plan.routing.get("shard")
        if target is not None:
            self.access.counters.bump("routed_queries")
            return self._route(target, plan, pinned)
        self.access.counters.bump("scatter_queries")
        shard_plan = plan.shard_slice()
        routes: list[Route] = []
        try:
            for index in range(self.cluster.shard_count):
                routes.append(self._route(index, shard_plan, pinned))
        except BaseException:
            for route in routes:
                route.close()
            raise
        return Gather(routes, plan, self.access.counters)

    def _route(self, index: int, plan: QueryPlan, pinned: bool) -> Route:
        """One shard's pipeline; closing it bills the shard's service
        channel with the bytes it delivered."""
        engine = self.cluster.engines[index]
        route = Route(index, engine.data.lower(plan, pinned), engine.data)
        engine.access.counters.bump("cluster_queries")
        route.add_close_hook(
            lambda done: self.cluster.bill_shard(index, done.bytes_out))
        return route

    # -- statement execution (the script path and DML/DDL dispatch) ----------

    def execute(self, statement: Statement) -> ResultSet:
        """Execute one parsed statement across the cluster.

        A SELECT plans and lowers like a prepared one; DDL fans out to
        every shard (catalogs move in lockstep); INSERT routes to the
        key owner's shard; DELETE/MODIFY scatter and sum their affected
        counts.
        """
        if isinstance(statement, SelectStatement):
            plan = self.plan_select(statement)
            return ResultSet(source=self.lower(plan), plan=plan,
                             mutex=self.mutex)
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
