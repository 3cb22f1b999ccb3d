"""Result sets: what the data system hands back across the MAD interface.

A result set is a **cursor** over the physical operator pipeline: the
paper's molecule management hands molecules to the application one at a
time, and iteration over a :class:`ResultSet` pulls molecules on demand
from the compiled operator tree — the first molecule arrives before the
root scan is exhausted, and abandoning the iteration cancels the rest of
the work.

Cursor contract:

* ``for molecule in result`` streams lazily; consumed molecules are
  cached, so iterating twice is safe and yields the same sequence.
* ``len(result)``, negative/slice indexing, ``to_dicts()`` and
  ``atom_count()`` materialise the remainder on demand.
* ``result[i]`` with ``i >= 0`` materialises only the first ``i + 1``
  molecules.
* ``fetch_next()`` is the explicit one-molecule-at-a-time interface
  (returns None at end); it works on eager sets (DML outcomes,
  parallel results) too.  ``close()`` abandons the pipeline early.
* ``reopen()`` restarts the cursor from the beginning: the pipeline is
  rewound and re-executed against the current database state — except
  that pipeline breakers (Sort, TopK) replay their cached run, so a
  re-opened ORDER BY result does not re-construct or re-sort.  A set
  whose pipeline was explicitly ``close()``-d **before it was fully
  fetched** is truncated for good: ``reopen()`` and the whole-set
  accessors (``len()``, ``to_dicts()``, ``materialize()``, slicing)
  raise :class:`~repro.errors.CursorStateError` instead of presenting
  the partial fetch cache as the complete result; the streaming
  interface keeps serving the cached prefix.  Closing after the last
  molecule was fetched — even without pulling the terminal None — is
  not a truncation (``close()`` asks the pipeline, or probes it once),
  and ``reopen()`` stays legal over the complete cache.
* Molecules are delivered against the root scan's opening snapshot:
  atoms deleted while the cursor is open are skipped at delivery time
  (the scan position-maintenance contract, paper 3.2).  Callers that
  mutate mid-result should drain the cursor first (DML statements and
  ``execute_script`` do so automatically).

The ``source`` of a lazy set is anything honouring the operator cursor
protocol — ``next()``/``close()``/``rewind()``/``has_pending()``.
Besides the physical operator pipeline that is, notably, a
:class:`repro.serve.RemoteCursor`: the serving layer wraps a remote
streaming cursor in a ResultSet, so the client-side cursor contract
above (including close-while-pending truncation, which then propagates
to the server's pipeline) holds unchanged across the coupling network.

An engine-built set takes the engine ``mutex`` per pull, ``close()`` and
``reopen()``, never for the cursor's lifetime; client-side sets over a
remote cursor take no lock.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, nullcontext
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import CursorStateError
from repro.mad.molecule import Molecule
from repro.mad.types import Surrogate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.data.operators import Operator
    from repro.data.plan import QueryPlan


class ResultSet:
    """An ordered set of molecules (or DML outcome), delivered lazily."""

    def __init__(self, molecules: list[Molecule] | None = None,
                 plan_text: str = "", affected: int = 0,
                 inserted: Surrogate | None = None,
                 source: "Operator | None" = None,
                 mutex: AbstractContextManager = nullcontext(),
                 plan: "QueryPlan | None" = None) -> None:
        #: Molecules pulled from the pipeline (or given eagerly) so far.
        self._fetched: list[Molecule] = \
            list(molecules) if molecules is not None else []
        #: The operator pipeline still to be drained (None: materialised).
        self._source = source
        #: The pipeline kept across exhaustion so ``reopen()`` can rewind
        #: it (dropped by an explicit ``close()``).
        self._pipeline = source
        #: Position of the explicit fetch_next() cursor in ``_fetched``.
        self._fetch_pos = 0
        #: True when close() abandoned the pipeline before it was fully
        #: fetched — the cache is a truncated prefix, not the set.
        self._truncated = False
        self._plan_text = plan_text
        #: The processing plan, rendered into ``plan_text`` on first read.
        self._plan = plan
        #: Atoms touched by a DML statement.
        self.affected = affected
        #: Surrogate produced by an INSERT.
        self.inserted = inserted
        #: The one shard a routed cluster read runs on (``None``: one
        #: engine, or a scatter over all shards).
        self.shard = getattr(source, "shard", None)
        self._mutex = mutex

    @property
    def plan_text(self) -> str:
        """The rendered processing plan (EXPLAIN text)."""
        if self._plan is not None:
            self._plan_text, self._plan = self._plan.explain(), None
        return self._plan_text

    # -- the cursor ---------------------------------------------------------

    def _pull(self) -> Molecule | None:
        """Draw one molecule from the pipeline into the cache (does not
        move the ``fetch_next()`` cursor)."""
        with self._mutex:
            if self._source is None:
                return None
            molecule = self._source.next()
            if molecule is None:
                # Natural exhaustion: the cursor is done, but the pipeline
                # is kept (un-closed) so ``reopen()`` can rewind it.
                self._source = None
                return None
            self._fetched.append(molecule)
            return molecule

    def fetch_next(self) -> Molecule | None:
        """Deliver the next molecule of the set (None at end).

        Advances through already-fetched (or eagerly-given) molecules
        first, then pulls from the pipeline.  Iteration, indexing and
        ``materialize()`` do not move this cursor.
        """
        if self._fetch_pos >= len(self._fetched):
            self._pull()
        if self._fetch_pos < len(self._fetched):
            molecule = self._fetched[self._fetch_pos]
            self._fetch_pos += 1
            return molecule
        return None

    def fetch_many(self, count: int) -> list[Molecule]:
        """Deliver up to ``count`` molecules through the explicit cursor.

        The batch-shaped twin of :meth:`fetch_next` — the serving layer's
        FETCH(n) message is one call.  A batch shorter than ``count``
        means the set is exhausted; an empty batch at the end is legal.
        """
        batch: list[Molecule] = []
        for _ in range(count):
            molecule = self.fetch_next()
            if molecule is None:
                break
            batch.append(molecule)
        return batch

    def on_close(self, hook) -> None:
        """Register a cursor-release hook on the underlying pipeline.

        The hook runs once, when the pipeline is explicitly closed (an
        eager set has no pipeline — the hook is dropped).  See
        :meth:`repro.data.operators.Operator.add_close_hook`.
        """
        if self._pipeline is not None:
            self._pipeline.add_close_hook(hook)

    def close(self) -> None:
        """Abandon the pipeline; already-fetched molecules stay available
        through the cursor interface (``fetch_next()``, iteration).

        Unlike natural exhaustion, an explicit close releases the operator
        tree for good.  Closing while molecules were still pending marks
        the set **truncated**: the fetch cache is a prefix of the result,
        and ``reopen()`` / the whole-set accessors (``len()``,
        ``to_dicts()``, ...) will refuse to present it as the complete
        set.  Whether molecules were pending is asked of the source
        first (``has_pending()``): a remote cursor answers from its
        buffers, an unread windowed breaker (ORDER BY + LIMIT) without
        running its input.  Where the source cannot tell, one bounded
        probe decides — a cursor that consumed every molecule but never
        pulled the terminal None is complete, not truncated (the probed
        molecule, if any, joins the cache)."""
        with self._mutex:
            if self._source is not None:
                pending = self._source.has_pending()
                if pending is None:
                    probe = self._source.next()
                    if probe is not None:
                        self._fetched.append(probe)
                        self._truncated = True
                elif pending:
                    self._truncated = True
            if self._pipeline is not None:
                self._pipeline.close()
                self._pipeline = None
            self._source = None

    @property
    def truncated(self) -> bool:
        """True when an explicit ``close()`` abandoned unfetched
        molecules — the cache holds a prefix, not the set."""
        return self._truncated

    def reopen(self) -> None:
        """Restart the cursor at the first molecule of the set.

        Lazy sets rewind and re-execute the pipeline (dropping the fetch
        cache); pipeline breakers replay their cached run, so an ORDER BY
        result re-opens without re-constructing or re-sorting.  Eager
        sets — and sets closed only *after* they were fully fetched —
        just reset the ``fetch_next()`` cursor over the complete cache.

        Raises :class:`~repro.errors.CursorStateError` on a set that was
        explicitly closed while partially fetched: its cache is a
        truncated prefix and must not masquerade as the result.
        """
        if self._truncated:
            raise CursorStateError(
                "cannot reopen a result set that was closed before it "
                "was fully fetched — the cursor cache holds only "
                f"{len(self._fetched)} molecule(s) of a longer result"
            )
        with self._mutex:
            if self._pipeline is not None:
                self._pipeline.rewind()
                self._source = self._pipeline
                self._fetched.clear()
        self._fetch_pos = 0

    @property
    def exhausted(self) -> bool:
        """True once the pipeline is fully drained (or was never lazy)."""
        return self._source is None

    def materialize(self) -> list[Molecule]:
        """Drain the pipeline; returns the complete molecule list.

        Does not advance the ``fetch_next()`` cursor — materialising is
        transparent to the explicit one-molecule-at-a-time interface.

        Raises :class:`~repro.errors.CursorStateError` on a truncated
        set (explicitly closed while molecules were pending): the cache
        is a prefix and cannot be completed.  The streaming interface
        (``fetch_next()``, iteration) still serves that prefix.
        """
        if self._truncated:
            raise CursorStateError(
                "cannot materialize a result set that was closed before "
                "it was fully fetched — only the "
                f"{len(self._fetched)}-molecule prefix is available "
                "(via fetch_next()/iteration)"
            )
        while self._pull() is not None:
            pass
        return self._fetched

    @property
    def molecules(self) -> list[Molecule]:
        """The complete molecule list (materialises the remainder)."""
        return self.materialize()

    # -- sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.materialize())

    def __iter__(self) -> Iterator[Molecule]:
        index = 0
        while True:
            if index < len(self._fetched):
                yield self._fetched[index]
                index += 1
            elif self._pull() is None:
                return

    def __getitem__(self, index: int | slice) -> Molecule | list[Molecule]:
        if isinstance(index, slice):
            return self.materialize()[index]
        if index >= 0:
            while len(self._fetched) <= index and self._pull() is not None:
                pass
            return self._fetched[index]
        return self.materialize()[index]

    def to_dicts(self) -> list[dict[str, Any]]:
        """Plain-data rendering of every molecule."""
        return [m.to_dict() for m in self.materialize()]

    def atom_count(self) -> int:
        """Distinct atoms across all molecules in the set."""
        seen: set[Surrogate] = set()

        def visit(molecule: Molecule) -> None:
            seen.add(molecule.surrogate)
            for comps in molecule.components.values():
                for comp in comps:
                    visit(comp)

        for molecule in self.materialize():
            visit(molecule)
        return len(seen)

    def __repr__(self) -> str:
        if self.inserted is not None:
            return f"ResultSet(inserted={self.inserted})"
        if self.affected:
            return f"ResultSet(affected={self.affected})"
        if self._source is not None:
            return f"ResultSet(streaming, {len(self._fetched)} fetched)"
        return f"ResultSet({len(self._fetched)} molecules)"
