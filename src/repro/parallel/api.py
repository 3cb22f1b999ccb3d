"""Convenience entry point: run one MQL SELECT with semantic parallelism.

``parallel_select(db, query, processors)`` decomposes the query into DUs,
executes the units one after another on the caller's thread (measuring
per-DU cost), and reports the simulated ``processors``-way schedule of
those measured costs.

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

    def __repr__(self) -> str:
        return f"ParallelQueryResult({len(self.result)} molecules, " \
               f"{self.report.explain()})"


def parallel_select(db: Prima, query: "str | PreparedStatement",
                    processors: int = 4, args: tuple = (),
                    params: dict[str, Any] | None = None
                    ) -> ParallelQueryResult:
    """Execute a molecule query with semantic parallelism on a simulated
    ``processors``-way PRIMA.

    ``query`` is MQL text (prepared through the shared plan cache) or a
    :class:`~repro.data.prepared.PreparedStatement` — a prepared query
    re-executed here performs zero parse/plan work, exactly like the
    serial ``stmt.execute()`` path; ``args``/``params`` bind its
    placeholders.  The DUs run serially on the calling thread, under
    the engine mutex for the whole call.
    """
    if not isinstance(db, Prima):
        raise DecompositionError(
            "parallel_select targets one engine; a sharded cluster "
            "already scatter-gathers across its shards — execute "
            "through the coordinator instead"
        )
    decomposer = SemanticDecomposer(db.data)
    with db.mutex:
        stmt = db.data.prepare(query) if isinstance(query, str) else query
        if stmt.kind != "select":
            raise DecompositionError(
                "semantic decomposition operates on SELECT statements"
            )
        plan, units = decomposer.decompose_plan(
            stmt.bind(args, params or {}))
        result = decomposer.run_all(plan, units)
    report = simulate(units, processors)
    metrics = db.data.obs.metrics
    metrics.gauge("parallel_speedup", round(report.speedup, 4))
    metrics.observe("parallel_units", len(units))
    return ParallelQueryResult(result=result, report=report)
