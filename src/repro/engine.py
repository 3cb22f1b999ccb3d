"""The engine facade: the MAD interface, written once.

Section 4 of the paper offers one kernel in several configurations —
PRIMA alone as a 'complete' DBMS, or several PRIMAs behind a
coordinator — and the user-visible interface is the *same* in each.
:class:`Engine` is that interface: :class:`~repro.db.Prima` (one
engine) and :class:`~repro.shard.ShardedCluster` (N partitioned
engines) subclass it, and serve, live, obs and ``repro.connect``
depend on this type, never on which subclass they hold.

A subclass supplies

* ``data`` — the query executor (``prepare`` / ``execute`` /
  ``publish_data_version`` / ``obs``): a ``DataSystem`` or a shard
  ``Coordinator``, whose ``prepare`` returns the one statement handle,
  a :class:`~repro.data.prepared.PreparedStatement` (``execute`` /
  ``open`` / ``bind`` / ``explain`` / ``trace``).  The handle plans,
  settles and lowers through ``data`` (``plan_select`` / ``settle`` /
  ``lower``): on a cluster the plan is shard 0's with a routing
  annotation, and it lowers into a ``Route`` to one shard or a
  ``Gather`` over all of them;
* ``access`` — direct atom access (``insert`` / ``get`` / ``modify`` /
  ``delete``) and the ``counters`` bag;
* ``schema`` and ``catalog``; ``shard_count`` and ``engines`` (``1``
  and ``[self]`` on ``Prima``);
* ``commit()``, and two hooks for the counters kept *below*
  ``access``: ``_layer_report()`` (the base dict of
  :meth:`Engine.io_report`) and ``_reset_layers()`` (zero them);

and gets every method below plus ``session_managers``, the serving
managers opened over it, and ``mutex``.  What really differs stays on
the subclass: ``execute_ldl``, ``analyze``, ``verify_integrity`` on
``Prima``; placement and channels on the cluster.  Checkpointing
(:mod:`repro.persistence`: the :meth:`~Engine.dump_ddl` and
:meth:`~Engine.dump_ldl` texts plus the atoms) and semantic parallelism
(:mod:`repro.parallel`) are functions over a ``Prima``, a layer above.

``mutex`` is the one reentrant lock of an engine tree (a cluster shares
its own with its shards); nothing below it latches, so every entry into
the engine takes it — these methods, LDL, ANALYZE, persistence, commit,
prepared statements, each lazy-result pull and each serving message.

Invariant: facade methods live **only** here — neither subclass
redefines one (``tests/test_engine_surface.py``), so a fix or a new
report key lands in every configuration at once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, TypeVar

from repro.data.result import ResultSet
from repro.ldl.parser import structure_to_ldl
from repro.mad.ddl import dump_schema
from repro.mad.types import Surrogate
from repro.mql.parser import parse_script

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve import SessionManager

_E = TypeVar("_E", bound="Engine")


class Engine:
    """The facade shared by every engine configuration."""

    def __init__(self) -> None:
        #: Serving managers over this instance (:meth:`attach_sessions`):
        #: their network accounting is summed into :meth:`io_report`,
        #: their per-session counters reset with :meth:`reset_accounting`.
        self.session_managers: list["SessionManager"] = []

    @property
    def mutex(self):
        """The engine mutex (see the module docstring)."""
        return self.data.mutex

    # -- MQL ----------------------------------------------------------------------

    def prepare(self, mql: str):
        """Parse, validate, and plan one statement **once**.

        The returned :class:`~repro.data.prepared.PreparedStatement`
        (on a cluster too: planned once, bound once, lowered into the
        shards at open) re-executes with fresh placeholder bindings and
        zero per-call frontend work::

            stmt = db.prepare("SELECT ALL FROM city WHERE name = ?")
            stmt.execute("Kaiserslautern")
            stmt.execute("Brighton")          # no parse, no plan

        ``?`` placeholders bind positionally (``execute(v1, v2)``),
        ``:name`` placeholders by keyword (``execute(name=v)``).  DDL or
        LDL changes between executions transparently re-plan (the
        catalog-version stamp), never run stale.
        """
        with self.mutex:
            return self.data.prepare(mql)

    def execute(self, mql: str, *args: Any, use_cache: bool = True,
                **params: Any) -> ResultSet:
        """Execute one MQL statement, optionally binding parameters.

        Statement text is prepared through the shared plan cache —
        repeated (whitespace-normalized) SELECT text skips parse+plan
        entirely (``plan_cache_hits``); ``use_cache=False`` forces a
        fresh parse+plan (the re-parse baseline of the benchmarks).
        Positional ``?`` placeholders bind from ``*args``, named
        ``:name`` placeholders from ``**params``.

        SELECTs return a **lazy** :class:`ResultSet`: a cursor over the
        compiled operator pipeline that constructs molecules as they
        are pulled (``for m in result``); ``len()``/indexing/
        ``fetch_next()`` materialise on demand and ``close()`` cancels
        the remaining work deterministically (the paper's
        one-molecule-at-a-time MAD interface contract).  On a cluster,
        routed single-key SELECTs touch exactly one shard, other
        SELECTs scatter-gather, DDL fans out and INSERT routes by key.
        """
        with self.mutex:
            return self.data.prepare(mql, use_cache=use_cache) \
                .execute(*args, **params)

    #: The read-path alias of :meth:`execute` (one implementation):
    #: ``query`` reads best in application code.
    query = execute

    def execute_script(self, mql: str) -> list[ResultSet]:
        """Parse and execute a ';'-separated MQL script.

        Each SELECT is drained before the next statement runs, so a later
        DML statement cannot mutate atoms under an open cursor.
        """
        results = []
        statements = parse_script(mql)
        self.access.counters.bump("statements_parsed", len(statements))
        with self.mutex:
            for statement in statements:
                result = self.data.execute(statement)
                result.materialize()
                results.append(result)
        return results

    def explain(self, mql: str, *args: Any, analyze: bool = False,
                **params: Any) -> str:
        """The processing plan of a SELECT (through the plan cache; on
        a cluster including its shard-routing line).

        With ``analyze=False`` (the default) the plan is rendered without
        executing anything — a parameterized statement renders its
        *template* with ``?n`` / ``:name`` markers unless bindings are
        given.  With ``analyze=True`` the compiled pipeline is executed
        to exhaustion and the rendered operator tree carries each
        operator's measured row count and self wall-time (the same
        quantities :meth:`trace` returns as spans); a parameterized
        statement then requires its bindings.
        """
        with self.mutex:
            return self.data.prepare(mql).explain(analyze=analyze,
                                                  args=args, params=params)

    def trace(self, mql: str, *args: Any, **params: Any):
        """Run a SELECT to exhaustion under a forced trace.

        Returns the root :class:`~repro.obs.trace.Span` of the query:
        its duration is the wall-time of the whole drain, its children
        are the operator spans (rows + self/total time per operator) —
        on a cluster, one child span per touched shard above them.
        The programmatic twin of ``explain(analyze=True)`` — and the
        engine half of the TRACE wire message.
        """
        with self.mutex:
            return self.data.prepare(mql).trace(args, params)

    # -- programmatic atom access (the access-system interface) ----------------------

    def insert_atom(self, type_name: str,
                    values: dict[str, Any] | None = None) -> Surrogate:
        """Insert one atom directly (bypassing MQL).

        Direct mutations publish a new atom-version epoch, like DML —
        snapshots pinned before the call keep their state."""
        with self.mutex:
            surrogate = self.access.insert(type_name, values)
            self.data.publish_data_version()
        return surrogate

    def get_atom(self, surrogate: Surrogate,
                 attrs: list[str] | None = None) -> dict[str, Any]:
        """Read one atom directly."""
        with self.mutex:
            return self.access.get(surrogate, attrs)

    def modify_atom(self, surrogate: Surrogate,
                    values: dict[str, Any]) -> None:
        """Modify one atom directly (publishes an atom-version epoch)."""
        with self.mutex:
            self.access.modify(surrogate, values)
            self.data.publish_data_version()

    def delete_atom(self, surrogate: Surrogate) -> None:
        """Delete one atom directly (publishes an atom-version epoch)."""
        with self.mutex:
            self.access.delete(surrogate)
            self.data.publish_data_version()

    # -- serving (clients come in through :func:`repro.connect`) -------------------------

    def attach_sessions(self, manager: "SessionManager") -> None:
        """Register a :class:`~repro.serve.SessionManager` opened over
        this instance, so its communication counters appear in
        :meth:`io_report`, :meth:`reset_accounting` also zeroes its
        per-session counters and :meth:`close` tears its sessions down."""
        if manager not in self.session_managers:
            self.session_managers.append(manager)

    # -- introspection ----------------------------------------------------------------

    def dump_ddl(self) -> str:
        """Regenerate the MQL DDL of the current catalog (round-trips
        through the parser; see :mod:`repro.mad.ddl`)."""
        return dump_schema(self.schema, self.catalog)

    def dump_ldl(self) -> str:
        """Regenerate the LDL of the installed tuning structures, in
        creation order (every engine of a cluster holds the same ones);
        ``execute_ldl`` of the text re-creates them."""
        return ";\n".join(
            structure_to_ldl(structure)
            for structure in self.engines[0].access.atoms.structures())

    # -- maintenance ---------------------------------------------------------------------

    def close(self) -> None:
        """Shut the instance down: close attached serving sessions,
        flush via :meth:`commit`, and detach the serving managers.

        Idempotent.  ``with Prima() as db:`` calls this on exit."""
        for manager in self.session_managers:
            manager.close_all()
        self.commit()
        self.session_managers.clear()

    def __enter__(self: _E) -> _E:
        return self

    def __exit__(self, _exc_type, _exc, _tb) -> None:
        self.close()

    # -- accounting ------------------------------------------------------------------------

    def io_report(self) -> dict[str, Any]:
        """Disk/buffer/access counters for benchmark reporting (on a
        cluster: per-shard reports summed, plus the coordinator's
        routing counters and the service channels).

        When serving managers are attached (:meth:`attach_sessions`),
        their communication accounting is summed in as ``net_messages``,
        ``net_bytes`` and ``net_comm_time_ms`` — the coupling-network
        counters alongside the operator/scan counters.
        """
        report = self._layer_report()
        report.update(self.access.counters.snapshot())
        if self.session_managers:
            messages = nbytes = 0
            comm_ms = 0.0
            for manager in self.session_managers:
                snapshot = manager.stats.snapshot()
                messages += snapshot["messages"]
                nbytes += snapshot["bytes_sent"]
                comm_ms += snapshot["comm_time_ms"]
            report["net_messages"] = messages
            report["net_bytes"] = nbytes
            report["net_comm_time_ms"] = round(comm_ms, 3)
        return report

    @property
    def obs(self):
        """This engine's :class:`~repro.obs.Observability` bundle
        (tracer + metrics registry + slow log; the coordinator's on a
        cluster)."""
        return self.data.obs

    def metrics_report(self) -> dict[str, Any]:
        """The JSON-able metrics export: counters, gauges, histograms.

        ``counters`` is :meth:`io_report` (the paper's count
        quantities); ``gauges``/``histograms`` merge this engine's
        registry with every shard engine's and the per-session
        registries of every attached serving manager — one view over
        engine, shards, sessions, and daemon (counters/buckets sum,
        gauges last-writer-wins; histogram schemas agree by
        construction, :data:`repro.obs.metrics.DEFAULT_BUCKETS`).
        The buffer hit ratio is sampled into its gauge (and its
        histogram) at report time.
        """
        registries = [self.data.obs.metrics]
        registries.extend(engine.data.obs.metrics
                          for engine in self.engines if engine is not self)
        for manager in self.session_managers:
            registries.extend(manager.metric_registries())
        counters = self.io_report()
        fixes = counters.get("fixes", 0)
        if fixes:
            ratio = round(counters.get("hits", 0) / fixes, 4)
            self.data.obs.metrics.gauge("buffer_hit_ratio", ratio)
            self.data.obs.metrics.observe("buffer_hit_ratio", ratio)
        merged = registries[0].merge(*registries[1:])
        return {
            "counters": counters,
            "gauges": merged.gauges(),
            "histograms": merged.histograms(),
        }

    def reset_accounting(self) -> None:
        """Zero all counters (data is untouched).

        Besides the storage/access/network counters this also resets the
        per-session counters of every attached
        :class:`~repro.serve.SessionManager`, so benchmark phases over a
        serving setup start from zero."""
        self._reset_layers()
        self.access.counters.reset()
        self.data.obs.reset()
        for manager in self.session_managers:
            manager.reset_accounting()
