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

from typing import Any

from repro.access.integrity import Violation, verify_database
from repro.access.system import AccessSystem
from repro.data.executor import DataSystem
from repro.engine import Engine
from repro.ldl.executor import LdlExecutor
from repro.mad.molecule import MoleculeTypeCatalog
from repro.mad.schema import Schema
from repro.storage.disk import DiskGeometry
from repro.storage.system import StorageSystem


class Prima(Engine):
    """A complete single-user PRIMA instance."""

    #: One engine holds all the data (see :class:`~repro.engine.Engine`).
    shard_count = 1

    def __init__(self, buffer_capacity: int = 256 * 8192,
                 policy: str = "modified-lru",
                 partitioned_buffer: bool = False,
                 geometry: DiskGeometry | None = None) -> None:
        super().__init__()
        self.storage = StorageSystem(
            buffer_capacity=buffer_capacity, policy=policy,
            partitioned=partitioned_buffer, geometry=geometry,
        )
        self.schema = Schema()
        self.access = AccessSystem(self.storage, self.schema)
        self.catalog = MoleculeTypeCatalog()
        self.data = DataSystem(self.access, self.catalog)
        self.ldl = LdlExecutor(self.access, self.data.validator)

    @property
    def engines(self) -> list["Prima"]:
        return [self]

    # -- LDL ------------------------------------------------------------------------

    def execute_ldl(self, ldl: str) -> list[str]:
        """Execute a ';'-separated LDL script (tuning structures)."""
        with self.mutex:
            self.data._ensure_symmetry()  # noqa: SLF001
            return self.ldl.execute_script(ldl)

    # -- optimizer meta-data -----------------------------------------------------------

    def analyze(self, type_name: str | None = None) -> int:
        """Collect optimizer statistics (cardinalities, value ranges,
        association fan-outs); returns the atoms examined.  See
        :mod:`repro.data.statistics`."""
        with self.mutex:
            return self.data.statistics.analyze(type_name)

    # -- maintenance ---------------------------------------------------------------------

    def commit(self) -> None:
        """Propagate deferred updates and flush dirty pages."""
        with self.mutex:
            self.access.propagate_deferred()
            self.storage.flush()

    def verify_integrity(self) -> list[Violation]:
        """Run the database-wide structural-integrity verification."""
        return verify_database(self.access.atoms)

    def _layer_report(self) -> dict[str, Any]:
        return dict(self.storage.io_report())

    def _reset_layers(self) -> None:
        self.storage.reset_accounting()
