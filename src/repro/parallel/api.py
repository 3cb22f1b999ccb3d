"""Convenience entry point: run one MQL SELECT with semantic parallelism.

``parallel_select(db, query, processors)`` decomposes the query into DUs,
partitions the root-scan stream round-robin (one molecule-construction
worker per partition, riding the physical operator layer), executes the
units (measuring per-DU cost), and reports the simulated multi-processor
schedule.

``query`` is either MQL text — prepared through the shared plan cache,
so repeated text skips parse+plan — or an already-prepared
:class:`~repro.data.prepared.PreparedStatement`; ``args``/``params``
bind ``?`` / ``:name`` placeholders for the execution either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.data.prepared import PreparedStatement
from repro.data.result import ResultSet
from repro.db import Prima
from repro.errors import DecompositionError
from repro.parallel.decompose import SemanticDecomposer
from repro.parallel.scheduler import ScheduleReport, simulate


@dataclass
class ParallelQueryResult:
    """Molecules plus the simulated schedule."""

    result: ResultSet
    report: ScheduleReport
    #: OS process ids that constructed molecules — a singleton set for
    #: threaded runs, one pid per forked child for ``mode="processes"``.
    worker_pids: frozenset[int] = frozenset()

    def __repr__(self) -> str:
        return f"ParallelQueryResult({len(self.result)} molecules, " \
               f"{self.report.explain()})"


def parallel_select(db: Prima, query: "str | PreparedStatement",
                    processors: int = 4,
                    partitions: int | None = None,
                    max_workers: int | None = None,
                    engine_lock=None, mode: str = "threads",
                    args: tuple = (),
                    params: dict[str, Any] | None = None
                    ) -> ParallelQueryResult:
    """Execute a molecule query with semantic parallelism on a simulated
    ``processors``-way PRIMA.

    ``query`` is MQL text (prepared through the shared plan cache) or a
    :class:`~repro.data.prepared.PreparedStatement` — a prepared query
    re-executed here performs zero parse/plan work, exactly like the
    serial ``stmt.execute()`` path; ``args``/``params`` bind its
    placeholders.  ``partitions`` controls how the root stream is carved
    across the construction workers; it defaults to one partition per
    processor.  Each worker runs on its own thread, feeding the merge
    stage through a bounded queue; ``max_workers`` caps the number of
    threads (``max_workers=1`` forces the serial loop).
    ``mode="processes"`` forks the workers into child processes instead —
    each child constructs against a copy-on-write image of the engine
    taken at fork time (true CPU parallelism, no GIL); it falls back to
    threads where the ``fork`` start method is unavailable.  The
    molecule order is deterministic in every mode.  ``engine_lock`` lets
    an embedding subsystem (the serving layer) substitute the reader
    side of its engine read/write lock for the per-run one.
    """
    if not isinstance(db, Prima):
        raise DecompositionError(
            "parallel_select targets one engine; a sharded cluster "
            "already scatter-gathers across its shards — execute "
            "through the coordinator instead"
        )
    decomposer = SemanticDecomposer(db.data)
    if isinstance(query, PreparedStatement):
        if query.kind != "select":
            raise DecompositionError(
                "semantic decomposition operates on SELECT statements"
            )
        plan, units = decomposer.decompose_plan(
            query.bind(args, params or {}))
    else:
        plan, units = decomposer.decompose_select(query, args=args,
                                                  params=params)
    result = decomposer.run_all(
        plan, units,
        partitions=max(1, partitions if partitions is not None
                       else processors),
        max_workers=max_workers,
        engine_lock=engine_lock,
        mode=mode,
    )
    report = simulate(units, processors)
    metrics = db.data.obs.metrics
    metrics.gauge("parallel_speedup", round(report.speedup, 4))
    metrics.observe("parallel_units", len(units))
    return ParallelQueryResult(result=result, report=report,
                               worker_pids=frozenset(decomposer.worker_pids))
