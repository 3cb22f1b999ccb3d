"""PRIMA reproduction: a DBMS kernel implementing the Molecule-Atom Data
model (Härder, Meyer-Wegener, Mitschang, Sikeler — VLDB 1987).

Quickstart::

    import repro

    with repro.connect() as conn:
        conn.execute("CREATE ATOM_TYPE city (city_id: IDENTIFIER, "
                     "name: CHAR_VAR) KEYS_ARE (name)")
        conn.execute("INSERT city (name = 'Brighton')")
        for molecule in conn.query("SELECT ALL FROM city"):
            print(molecule.atom)

:func:`connect` is the one client entry point: the same
:class:`~repro.serve.Connection` API serves an in-process instance
(``connect()``, ``connect(db)``), an existing session manager, or an
asyncio daemon over a socket (``connect("prima://host:port")``).  The
embedded :class:`Prima` façade remains available for direct,
sessionless engine access.

Package map (one subpackage per layer of Fig. 3.1):

* :mod:`repro.storage`  — segments, five page sizes, buffer, page sequences
* :mod:`repro.access`   — atoms, back-references, tuning structures, scans
* :mod:`repro.mad`      — the Molecule-Atom Data model objects
* :mod:`repro.mql`      — the Molecule Query Language front end
  (SELECT ... ORDER BY ... LIMIT n [OFFSET m], DDL, DML)
* :mod:`repro.data`     — validation, planning, and the streaming
  execution pipeline: plans compile into the Volcano-style operator tree
  of :mod:`repro.data.operators` (RootScan → MoleculeConstruct →
  ResidualFilter → Sort → Offset/Limit → Project); ``select()`` returns
  a lazy :class:`ResultSet` cursor over that pipeline
* :mod:`repro.ldl`      — the load definition language
* :mod:`repro.txn`      — nested transactions
* :mod:`repro.parallel` — semantic parallelism on a simulated multiprocessor
* :mod:`repro.shard`    — sharded scale-out: a partitioned engine cluster
  with routed and scatter-gather query execution
* :mod:`repro.coupling` — workstation-host checkout/checkin
* :mod:`repro.workloads`— BREP / VLSI / GIS generators
* :mod:`repro.baselines`— hierarchical and network stores (Fig. 2.1)

Every import points down one order, bottom to top — errors, util,
storage, mad, access, mql, obs, data, txn, ldl, engine, db, persistence,
parallel, shard, live, serve, workloads, al, baselines, coupling, this
package — and sits at module top; ``tests/test_layering.py`` checks it.
"""

from repro.data.prepared import PreparedStatement
from repro.data.result import ResultSet
from repro.db import Prima
from repro.errors import PrimaError
from repro.mad.molecule import Molecule
from repro.mad.types import Surrogate
from repro.serve.connection import Connection, connect
from repro.shard import ShardedCluster, ShardRouter

__version__ = "1.0.0"

__all__ = [
    "Connection",
    "Molecule",
    "PreparedStatement",
    "Prima",
    "PrimaError",
    "ResultSet",
    "ShardRouter",
    "ShardedCluster",
    "Surrogate",
    "__version__",
    "connect",
]
