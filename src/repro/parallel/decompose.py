"""Semantic decomposition of single user operations (paper, section 4).

Engineering applications with their 'sizable' operations on complex objects
incorporate substantial portions of inherent parallelism.  PRIMA defines
*semantic decomposition*: units of work (DUs) decomposed from a single user
operation allow for inherent semantic parallelism when they do not conflict
with each other at the level of decomposition.

For a molecule query, the natural decomposition is **one DU per candidate
molecule**: deriving the root atoms is a (cheap) sequential prologue; the
expensive part — constructing each molecule, evaluating its qualification,
projecting it — is independent per molecule as long as the units' read/
write sets do not overlap in a conflicting way.  Molecules may share atoms
(non-disjoint complex objects), which is harmless for retrieval (read/read)
but serialises DML units.

Each DU records its read and write sets and its *measured cost* (atom
reads performed), which the scheduler uses as service time.

The decomposer rides on the physical operator layer: the root atoms come
from a :class:`~repro.data.operators.RootScan` operator, and one
``MoleculeConstruct`` operator over a
:class:`~repro.data.operators.RootPartition` replay of those roots builds
the DUs' molecules.

**Execution model.**  ``run_all`` runs the DUs one after another on the
caller's thread, in DU order, measuring each unit's cost and read set as
it goes.  The multiprocessor PRIMA of section 4 is not executed but
simulated: :mod:`repro.parallel.scheduler` list-schedules the measured
per-unit costs onto P processors.  (Real worker pools — threads under
one engine lock, or forked processes — never beat this serial loop in
wall-clock on one shared engine, so there are none.)  The entry point,
:func:`repro.parallel.parallel_select`, runs the loop under the engine
mutex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.data.executor import DataSystem
from repro.data.operators import (
    MoleculeConstruct,
    RootPartition,
    RootScan,
    sort_stable,
    top_k_stable,
)
from repro.data.plan import QueryPlan
from repro.data.result import ResultSet
from repro.errors import DecompositionError
from repro.mad.molecule import Molecule
from repro.mad.types import Surrogate
from repro.mql.ast import (
    And,
    Comparison,
    EmptyLiteral,
    Expr,
    Literal,
    ModifyStatement,
    Not,
    Or,
    Parameter,
    Path,
    Projection,
    RefLookup,
    SelectStatement,
)


# ---------------------------------------------------------------------------
# Shaping above the decomposed units
# ---------------------------------------------------------------------------
#
# The units' items carry their ORDER BY values captured *before*
# projection; the shaping stage orders and windows them exactly like
# the serial pipeline's Sort/TopK + OFFSET/LIMIT stack would.

def shape_window(items: list, plan: QueryPlan,
                 value_of: Callable[[Any, str], Any]) -> list:
    """Result shaping above a gathered stream — the declarative twin of
    the pipeline's ``[Sort|TopK] → [Offset] → [Limit]`` stack.

    ``items`` is the full gathered candidate set (already in a
    deterministic base order); ``value_of(item, attr)`` reads the ORDER
    BY attribute values captured before projection.  Returns the shaped
    selection, result order, same item objects.
    """
    if plan.uses_topk:
        return top_k_stable(items, plan.order_by, value_of,
                            plan.limit, plan.offset)
    if plan.order_by and not plan.order_served_by_access:
        items = list(items)
        sort_stable(items, plan.order_by, value_of)
    if plan.offset:
        items = items[plan.offset:]
    if plan.limit is not None:
        items = items[:plan.limit]
    return items


def residual_is_root_only(residual: "Expr | None", root_label: str,
                          root_attrs: "set[str]") -> bool:
    """True when a residual qualification reads only root-atom values.

    Such a residual can be evaluated on the root atom alone — before any
    molecule is constructed — which lets the sequential prologue keep
    its window/bound shaping under residual qualification (each
    disqualified root is simply skipped instead of disabling shaping).
    Quantified conditions and component-label paths need the constructed
    molecule and return False.
    """
    if residual is None:
        return True
    if isinstance(residual, (Literal, EmptyLiteral, Parameter, RefLookup)):
        return True
    if isinstance(residual, Path):
        if residual.level is not None:
            return False
        if len(residual.parts) == 1:
            return residual.parts[0] in root_attrs
        return len(residual.parts) == 2 and residual.parts[0] == root_label
    if isinstance(residual, Comparison):
        return residual_is_root_only(residual.left, root_label, root_attrs) \
            and residual_is_root_only(residual.right, root_label, root_attrs)
    if isinstance(residual, (And, Or)):
        return all(residual_is_root_only(part, root_label, root_attrs)
                   for part in residual.parts)
    if isinstance(residual, Not):
        return residual_is_root_only(residual.inner, root_label, root_attrs)
    return False


@dataclass
class UnitOfWork:
    """One decomposed unit (DU): construct and qualify one molecule."""

    index: int
    root: Surrogate
    #: Pre-projection values of the plan's ORDER BY attributes (the final
    #: sort runs after the units, when projection may have pruned them).
    order_values: dict[str, Any] = field(default_factory=dict)
    #: Atoms this DU reads (filled during execution).
    read_set: set[Surrogate] = field(default_factory=set)
    #: Atoms this DU writes (empty for retrieval).
    write_set: set[Surrogate] = field(default_factory=set)
    #: Service time in cost units (atom reads), measured during execution.
    cost: float = 0.0
    #: The DU's result (a molecule, or None when disqualified).
    result: Molecule | None = None

    def conflicts_with(self, other: "UnitOfWork") -> bool:
        """True when the two units conflict at decomposition level
        (write/write or read/write intersection)."""
        if self.write_set & other.write_set:
            return True
        if self.write_set & other.read_set:
            return True
        if self.read_set & other.write_set:
            return True
        return False

    def note_reads(self, molecule: Molecule) -> None:
        """Add every atom the molecule references to the read set."""
        for _label, atom in molecule.atoms():
            for value in atom.values():
                if isinstance(value, Surrogate):
                    self.read_set.add(value)


class SemanticDecomposer:
    """Decomposes a molecule query into per-molecule units of work."""

    def __init__(self, data: DataSystem) -> None:
        self._data = data

    def decompose_select(self, mql: str, args: tuple = (),
                         params: dict | None = None
                         ) -> tuple[QueryPlan, list[UnitOfWork]]:
        """Prepare (through the shared plan cache) + bind a SELECT and
        create one (unexecuted) DU per root.

        Repeated statement text skips parse+plan like every other entry
        point; ``args``/``params`` bind ``?`` / ``:name`` placeholders.
        """
        prepared = self._data.prepare(mql)
        if prepared.kind != "select":
            raise DecompositionError(
                "semantic decomposition operates on SELECT statements"
            )
        return self.decompose_plan(prepared.bind(args, params or {}))

    def decompose_plan(self, plan: QueryPlan
                       ) -> tuple[QueryPlan, list[UnitOfWork]]:
        """One (unexecuted) DU per root of an already-bound plan.

        The roots are drawn from the same ``RootScan`` operator the
        serial pipeline uses — the sequential prologue of the paper's
        decomposition.  The prologue applies the same direction + bound
        shaping as the serial pipeline: with a LIMIT, a scan whose order
        is the result order (no ORDER BY, or one fully served by the
        possibly reverse root scan) derives only the ``limit + offset``
        leading roots, and a prefix-served ORDER BY pushes the window
        anchor's prefix key into the scan as the dynamic stop bound — no
        DU is ever created for a root that cannot reach the result
        window.
        """
        roots = self._derive_roots(plan)
        units = [UnitOfWork(index=i, root=root)
                 for i, root in enumerate(roots)]
        return plan, units

    def _derive_roots(self, plan: QueryPlan) -> list[Surrogate]:
        """The sequential prologue: root surrogates, window-shaped.

        Shaping requires that no residual qualification can disqualify a
        unit *after* the window was carved (a disqualified unit would
        shrink the delivered window below LIMIT, and a bound anchored on
        a disqualified molecule could prune true result members).  A
        residual that reads only root-atom values is the exception: it
        is evaluated right here on each root, disqualified roots are
        skipped before they count toward the window, and the anchor is
        always a true result candidate — so prefix-served DESC windows
        keep their shaping instead of bailing to the full derive + Sort.
        """
        if plan.limit == 0:
            return []   # an empty window: no root can reach the result
        scan = RootScan(self._data, plan.root_access)
        window = plan.limit + plan.offset if plan.limit is not None else None
        root_filter = None
        if plan.residual_where is not None and window is not None:
            root_type = self._data.schema.atom_type(plan.structure.atom_type)
            if residual_is_root_only(plan.residual_where,
                                     plan.structure.label,
                                     set(root_type.attributes)):
                evaluator = self._data.evaluator
                residual = plan.residual_where

                def root_filter(atom: dict) -> bool:
                    return evaluator.matches(
                        residual, Molecule(plan.structure, atom))
            else:
                window = None
        in_result_order = plan.order_served_by_access or not plan.order_by
        if window is None or not (in_result_order
                                  or plan.order_prefix_served):
            return list(scan)
        roots: list[Surrogate] = []
        prefix_attrs = [attr for attr, _desc in
                        plan.order_by[:plan.order_prefix_served]]
        for root in scan:
            anchor = None
            if root_filter is not None:
                anchor = self._data.access.atoms.get(root)
                if not root_filter(anchor):
                    continue   # never reaches the window — no DU for it
            roots.append(root)
            if in_result_order:
                if len(roots) >= window:
                    break   # the scan order IS the result order
            elif len(roots) == window:
                # The k-th retained candidate anchors the prefix bound:
                # any later root with a strictly greater (in scan
                # direction) prefix key is beaten by all k candidates
                # already derived, so the walk can stop there.
                if anchor is None:
                    anchor = self._data.access.atoms.get(root)
                scan.bound(tuple(anchor.get(attr)
                                 for attr in prefix_attrs))
        return roots

    def run_all(self, plan: QueryPlan,
                units: list[UnitOfWork]) -> ResultSet:
        """Execute every DU, one after another in DU order, and shape the
        molecule set.

        One ``MoleculeConstruct`` operator replays the units' roots.
        Pulling a unit's molecule through it measures the unit's cost —
        the number of atom reads it performed, a deterministic,
        hardware-independent service time for the scheduler — and its
        read set; then the residual qualification and the projection run,
        exactly as the serial pipeline does above the root scan.
        """
        data = self._data
        counters = data.access.counters
        construct = MoleculeConstruct(
            RootPartition([unit.root for unit in units]), data,
            plan.structure, plan.cluster_name)
        construct.bind_counters(counters)
        for unit in units:
            before = counters.get("atoms_read")
            molecule = construct.next()
            assert molecule is not None  # one molecule per root
            unit.note_reads(molecule)
            if plan.residual_where is None or \
                    data.evaluator.matches(plan.residual_where, molecule):
                unit.order_values = {attr: molecule.atom.get(attr)
                                     for attr, _desc in plan.order_by}
                data.apply_projection(molecule, plan.projection,
                                      plan.structure)
                unit.result = molecule
            unit.cost = max(counters.get("atoms_read") - before, 1)
        qualified = [u for u in units if u.result is not None]
        # Result shaping mirrors the serial pipeline above the units:
        # bounded-heap top-k under ORDER BY + LIMIT, otherwise the
        # explicit final sort followed by the OFFSET/LIMIT window.
        value_of = lambda unit, attr: unit.order_values.get(attr)  # noqa: E731
        selected = shape_window(qualified, plan, value_of)
        return ResultSet([u.result for u in selected], plan=plan)

    # -- DML decomposition ----------------------------------------------------------

    def decompose_modify(self, mql: str, args: tuple = (),
                         params: dict | None = None
                         ) -> tuple[Any, list[UnitOfWork]]:
        """Decompose a MODIFY statement into one DU per qualifying
        molecule.

        Each DU's write set contains the atoms (with the target label) it
        will modify; because molecules may overlap (n:m associations,
        shared components), write sets of different DUs can intersect —
        those units conflict at decomposition level and the scheduler
        serialises them, preserving single-user semantics.
        ``args``/``params`` bind placeholders in the assignments and the
        qualification.
        """
        prepared = self._data.prepare(mql)
        statement = prepared.bound_statement(args, params or {})
        if not isinstance(statement, ModifyStatement):
            raise DecompositionError(
                "decompose_modify operates on MODIFY statements"
            )
        self._data._ensure_symmetry()  # noqa: SLF001
        query = SelectStatement(Projection(select_all=True),
                                statement.from_clause, statement.where)
        plan = self._data.plan_select(query)
        node = plan.structure.find(statement.label)
        if node is None:
            raise DecompositionError(
                f"MODIFY names unknown label {statement.label!r}"
            )
        roots = list(RootScan(self._data, plan.root_access))
        units = [UnitOfWork(index=i, root=root)
                 for i, root in enumerate(roots)]
        return (statement, plan), units

    def execute_modify_unit(self, context, unit: UnitOfWork) -> None:
        """Run one MODIFY DU: qualify, locate target atoms, apply."""
        statement, plan = context
        data = self._data
        counters = data.access.counters
        before = counters.get("atoms_read")
        molecule = data.construct_molecule(plan.structure, unit.root, None)
        unit.note_reads(molecule)
        qualified = plan.residual_where is None or \
            data.evaluator.matches(plan.residual_where, molecule)
        if qualified:
            node = plan.structure.find(statement.label)
            assert node is not None
            id_attr = data.schema.atom_type(node.atom_type).identifier_attr
            changes = {
                attr: data._resolve_value(value)  # noqa: SLF001
                for attr, value in statement.assignments
            }
            targets: list[Surrogate] = []
            for label, atom in molecule.atoms():
                if label == statement.label:
                    surrogate = atom[id_attr]
                    if surrogate not in unit.write_set:
                        unit.write_set.add(surrogate)
                        targets.append(surrogate)
            for surrogate in targets:
                data.access.modify(surrogate, dict(changes))
        unit.cost = max(counters.get("atoms_read") - before, 1)
