"""The PRIMA facade: one object wiring all kernel layers together.

The conceptually simplest system structure uses PRIMA without additional
components as a 'complete' DBMS: the services at the MAD interface are
directly made available to its users (paper, section 4).  :class:`Prima`
is that configuration — storage system, access system, and data system
stacked per Fig. 3.1, plus the LDL entry point for the administrator.

Quickstart — the prepared query surface::

    >>> with Prima() as db:
    ...     _ = db.execute("CREATE ATOM_TYPE city (city_id: IDENTIFIER, "
    ...                    "name: CHAR_VAR, pop: INTEGER) KEYS_ARE (name)")
    ...     _ = db.execute("INSERT city (name = ?, pop = ?)",
    ...                    "Kaiserslautern", 99000)
    ...     stmt = db.prepare("SELECT ALL FROM city WHERE name = ?")
    ...     len(stmt.execute("Kaiserslautern"))
    1

``prepare(mql)`` parses, validates, and plans **once**; every
``stmt.execute(*args, **params)`` binds the ``?`` positional / ``:name``
named placeholder values at pipeline-open time and runs the pre-built
plan — zero per-call frontend cost, while a prepared ``WHERE key = ?``
keeps the exact KEYS_ARE/B*-tree access path (and a prepared ``ORDER BY
... LIMIT ?`` still fuses into TopK with dynamic bound pushdown) the
literal form gets.  Even *unprepared* repeated text is cheap: a shared,
catalog-versioned plan cache sits under ``query()``/``execute()``, the
serving sessions, and ``parallel_select``, so re-sent statement text
skips parse+plan (``plan_cache_hits`` in :meth:`Prima.io_report`).  DDL
and LDL tuning-structure changes bump the catalog version, and every
cached/prepared plan transparently re-validates instead of running
stale.

``query()`` is the read-path alias of :meth:`Prima.execute` (and
``stream`` is the same cursor-flavoured entry point): SELECTs always
return a **lazy** :class:`~repro.data.result.ResultSet` cursor over the
compiled operator pipeline — molecules are constructed as they are
pulled, and ``close()`` cancels remaining work.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.access.integrity import Violation, verify_database
from repro.access.system import AccessSystem
from repro.data.executor import DataSystem
from repro.data.prepared import PreparedStatement
from repro.data.result import ResultSet
from repro.data.validation import MoleculeTypeCatalog
from repro.errors import PrimaError
from repro.ldl.executor import LdlExecutor
from repro.mad.schema import Schema
from repro.mad.types import Surrogate
from repro.mql.parser import parse_script
from repro.storage.disk import DiskGeometry
from repro.storage.system import StorageSystem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve import SessionManager


class Prima:
    """A complete single-user PRIMA instance."""

    def __init__(self, buffer_capacity: int = 256 * 8192,
                 policy: str = "modified-lru",
                 partitioned_buffer: bool = False,
                 geometry: DiskGeometry | None = None) -> None:
        self.storage = StorageSystem(
            buffer_capacity=buffer_capacity, policy=policy,
            partitioned=partitioned_buffer, geometry=geometry,
        )
        self.schema = Schema()
        self.access = AccessSystem(self.storage, self.schema)
        self.catalog = MoleculeTypeCatalog()
        self.data = DataSystem(self.access, self.catalog)
        self.ldl = LdlExecutor(self.access, self.data.validator)
        #: Network accounting of attached serving endpoints (see
        #: :meth:`attach_network`); summed into :meth:`io_report`.
        self._network_stats: list[Any] = []
        #: Serving managers over this instance (:meth:`attach_sessions`);
        #: their per-session counters reset with :meth:`reset_accounting`.
        self._session_managers: list["SessionManager"] = []

    # -- MQL ----------------------------------------------------------------------

    def prepare(self, mql: str) -> PreparedStatement:
        """Parse, validate, and plan one statement **once**.

        The returned :class:`~repro.data.prepared.PreparedStatement`
        re-executes with fresh placeholder bindings and zero per-call
        frontend work::

            stmt = db.prepare("SELECT ALL FROM city WHERE name = ?")
            stmt.execute("Kaiserslautern")
            stmt.execute("Brighton")          # no parse, no plan

        ``?`` placeholders bind positionally (``execute(v1, v2)``),
        ``:name`` placeholders by keyword (``execute(name=v)``).  DDL or
        LDL changes between executions transparently re-plan (the
        catalog-version stamp), never run stale.
        """
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
        one-molecule-at-a-time MAD interface contract).
        """
        return self.data.execute_text(mql, args, params,
                                      use_cache=use_cache)

    #: Read-path aliases of :meth:`execute` (one implementation — the
    #: historic ``query``/``stream`` split was duplication): ``query``
    #: reads best in application code, ``stream`` where the cursor
    #: nature matters.
    query = execute
    stream = execute

    def execute_script(self, mql: str) -> list[ResultSet]:
        """Parse and execute a ';'-separated MQL script.

        Each SELECT is drained before the next statement runs, so a later
        DML statement cannot mutate atoms under an open cursor.
        """
        results = []
        statements = parse_script(mql)
        self.access.counters.bump("statements_parsed", len(statements))
        for statement in statements:
            result = self.data.execute(statement)
            result.materialize()
            results.append(result)
        return results

    def explain(self, mql: str, *args: Any, analyze: bool = False,
                **params: Any) -> str:
        """The processing plan of a SELECT (through the plan cache).

        With ``analyze=False`` (the default) the plan is rendered without
        executing anything — a parameterized statement renders its
        *template* with ``?n`` / ``:name`` markers unless bindings are
        given.  With ``analyze=True`` the compiled pipeline is executed
        to exhaustion and the rendered operator tree carries each
        operator's measured row count and self wall-time (the same
        quantities the ``operator_rows:*`` / ``operator_time:*`` counters
        accumulate in :meth:`io_report`); a parameterized statement then
        requires its bindings.
        """
        prepared = self.data.prepare(mql)
        if prepared.kind != "select":
            raise PrimaError("EXPLAIN supports SELECT statements only")
        return prepared.explain(analyze=analyze, args=args, params=params)

    def trace(self, mql: str, *args: Any, **params: Any):
        """Run a SELECT to exhaustion under a forced trace.

        Returns the root :class:`~repro.obs.trace.Span` of the query:
        its duration is the wall-time of the whole drain, its children
        are the operator spans (rows + self/total time per operator).
        The programmatic twin of ``explain(analyze=True)`` — and the
        engine half of the TRACE wire message.
        """
        prepared = self.data.prepare(mql)
        if prepared.kind != "select":
            raise PrimaError("TRACE supports SELECT statements only")
        return prepared.trace(args, params)

    # -- LDL ------------------------------------------------------------------------

    def execute_ldl(self, ldl: str) -> list[str]:
        """Execute a ';'-separated LDL script (tuning structures)."""
        self.data._ensure_symmetry()  # noqa: SLF001
        return self.ldl.execute_script(ldl)

    # -- programmatic atom access (the access-system interface) ----------------------

    def insert_atom(self, type_name: str,
                    values: dict[str, Any] | None = None) -> Surrogate:
        """Insert one atom directly (bypassing MQL).

        Direct mutations publish a new atom-version epoch, like DML —
        snapshots pinned before the call keep their state."""
        surrogate = self.access.insert(type_name, values)
        self.data.publish_data_version()
        return surrogate

    def get_atom(self, surrogate: Surrogate,
                 attrs: list[str] | None = None) -> dict[str, Any]:
        """Read one atom directly."""
        return self.access.get(surrogate, attrs)

    def modify_atom(self, surrogate: Surrogate,
                    values: dict[str, Any]) -> None:
        """Modify one atom directly (publishes an atom-version epoch)."""
        self.access.modify(surrogate, values)
        self.data.publish_data_version()

    def delete_atom(self, surrogate: Surrogate) -> None:
        """Delete one atom directly (publishes an atom-version epoch)."""
        self.access.delete(surrogate)
        self.data.publish_data_version()

    def parallel_select(self, mql: str, processors: int = 4,
                        partitions: int | None = None,
                        max_workers: int | None = None,
                        mode: str = "threads", args: tuple = (),
                        params: dict[str, Any] | None = None):
        """Run one SELECT with semantic parallelism (see
        :func:`repro.parallel.parallel_select`).

        ``mode='threads'`` overlaps construction latency under the GIL;
        ``mode='processes'`` runs a ``fork``-based worker pool — each
        child constructs molecules against its inherited copy-on-write
        image of the engine (a natural snapshot), for real CPU
        parallelism on multi-core hosts.
        """
        from repro.parallel import parallel_select
        return parallel_select(self, mql, processors=processors,
                               partitions=partitions,
                               max_workers=max_workers, mode=mode,
                               args=args, params=params)

    # -- serving (clients come in through :func:`repro.connect`) -------------------------

    def attach_network(self, stats) -> None:
        """Register a serving endpoint's :class:`NetworkStats` so its
        communication counters appear in :meth:`io_report`."""
        if stats not in self._network_stats:
            self._network_stats.append(stats)

    def attach_sessions(self, manager: "SessionManager") -> None:
        """Register a :class:`~repro.serve.SessionManager` opened over
        this instance, so :meth:`reset_accounting` also zeroes its
        per-session counters and :meth:`close` tears its sessions down."""
        if manager not in self._session_managers:
            self._session_managers.append(manager)

    # -- optimizer meta-data -----------------------------------------------------------

    def analyze(self, type_name: str | None = None) -> int:
        """Collect optimizer statistics (cardinalities, value ranges,
        association fan-outs); returns the atoms examined.  See
        :mod:`repro.data.statistics`."""
        return self.data.statistics.analyze(type_name)

    # -- introspection ----------------------------------------------------------------

    def dump_ddl(self) -> str:
        """Regenerate the MQL DDL of the current catalog (round-trips
        through the parser; see :mod:`repro.mad.ddl`)."""
        from repro.mad.ddl import dump_schema
        return dump_schema(self.schema, self.catalog)

    # -- persistence -------------------------------------------------------------------

    def save(self, path) -> int:
        """Checkpoint this instance to a file (see repro.persistence)."""
        from repro.persistence import save
        return save(self, path)

    @staticmethod
    def load(path) -> "Prima":
        """Restore a checkpointed instance (see repro.persistence)."""
        from repro.persistence import load
        return load(path)

    # -- maintenance ---------------------------------------------------------------------

    def commit(self) -> None:
        """Propagate deferred updates and flush dirty pages."""
        self.access.propagate_deferred()
        self.storage.flush()

    def close(self) -> None:
        """Shut the instance down: close attached serving sessions,
        flush via :meth:`commit`, and detach network/serving stats.

        Idempotent.  ``with Prima() as db:`` calls this on exit."""
        for manager in self._session_managers:
            manager.close_all()
        self.commit()
        self._session_managers.clear()
        self._network_stats.clear()

    def __enter__(self) -> "Prima":
        return self

    def __exit__(self, _exc_type, _exc, _tb) -> None:
        self.close()

    def verify_integrity(self) -> list[Violation]:
        """Run the database-wide structural-integrity verification."""
        return verify_database(self.access.atoms)

    def io_report(self) -> dict[str, Any]:
        """Disk/buffer/access counters for benchmark reporting.

        When serving endpoints are attached (:meth:`attach_network`),
        their communication accounting is summed in as ``net_messages``,
        ``net_bytes`` and ``net_comm_time_ms`` — the coupling-network
        counters alongside the operator/scan counters.
        """
        report = dict(self.storage.io_report())
        report.update(self.access.counters.snapshot())
        if self._network_stats:
            messages = nbytes = 0
            comm_ms = 0.0
            for stats in self._network_stats:
                snapshot = stats.snapshot()
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
        (tracer + metrics registry + slow log)."""
        return self.data.obs

    def metrics_report(self) -> dict[str, Any]:
        """The JSON-able metrics export: counters, gauges, histograms.

        ``counters`` is :meth:`io_report` (the paper's count
        quantities); ``gauges``/``histograms`` merge this engine's
        registry with the per-session registries of every attached
        serving manager — one view over engine, sessions, and daemon.
        The buffer hit ratio is sampled into its gauge (and its
        histogram) at report time.
        """
        registries = [self.data.obs.metrics]
        for manager in self._session_managers:
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
        self.storage.reset_accounting()
        self.access.counters.reset()
        self.data.obs.reset()
        for stats in self._network_stats:
            stats.reset()
        for manager in self._session_managers:
            manager.reset_accounting()
