"""The data system: translating MQL statements into access-system calls.

The main task of the data system is to perform the complex mapping of the
molecule-oriented interface onto the atom-oriented interface of the access
system (paper, 3.1).  The stages follow the paper's modular data system:

1. **query validation and modification** — syntax/semantics checks,
   resolution of predefined molecule types, hierarchical resolution
   (:mod:`repro.data.validation`);
2. **query simplification** — qualification normal form
   (:mod:`repro.data.simplification`);
3. **query preparation** — the processing plan: root access selection,
   cluster matching, recursion strategy (:mod:`repro.data.plan`);
4. **molecule management** — the molecule-type scan, compiled into the
   Volcano-style operator pipeline of :mod:`repro.data.operators`: a
   ``RootScan`` derives root atoms, ``MoleculeConstruct`` assembles
   molecules by association traversal or from an atom cluster, and the
   residual qualification, ordering, windowing (LIMIT/OFFSET) and
   (qualified) projections are applied by the operators above it.

``select()`` returns a **lazy** :class:`~repro.data.result.ResultSet`: a
cursor over the pipeline that delivers the first molecule before the root
scan is exhausted (the paper's one-molecule-at-a-time MAD interface).
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Any

from repro.access.access_path import AccessPath
from repro.access.btree import make_key
from repro.access.cluster import AtomCluster
from repro.access.multidim import KeyCondition
from repro.access.sort_order import SortOrder
from repro.access.system import AccessSystem
from repro.data.operators import Operator
from repro.data.plan import QueryPlan, RootAccess, _render_bounds
from repro.data.predicates import PredicateEvaluator
from repro.data.prepared import (
    PlanCache,
    iter_parameters,
    prepare_statement,
    reveto_plan,
)
from repro.data.result import ResultSet
from repro.data.simplification import sargable_root_terms, simplify
from repro.data.statistics import StatisticsCatalog
from repro.data.validation import Validator
from repro.errors import AtomNotFoundError, ExecutionError, ValidationError
from repro.mad.molecule import (
    Molecule,
    MoleculeType,
    MoleculeTypeCatalog,
    StructureNode,
)
from repro.mad.types import Surrogate
from repro.mql.ast import (
    CreateAtomType,
    DefineMoleculeType,
    DeleteStatement,
    DropAtomType,
    DropMoleculeType,
    EmptyLiteral,
    Expr,
    InsertStatement,
    Literal,
    ModifyStatement,
    Parameter,
    Projection,
    RefLookup,
    SelectStatement,
    Statement,
)
from repro.mad.schema import AtomType
from repro.obs import Observability


class DataSystem:
    """Executes validated MQL statements against the access system."""

    def __init__(self, access: AccessSystem,
                 catalog: MoleculeTypeCatalog | None = None) -> None:
        self.access = access
        self.schema = access.schema
        self.catalog = catalog if catalog is not None else MoleculeTypeCatalog()
        self.validator = Validator(self.schema, self.catalog)
        self.evaluator = PredicateEvaluator(resolve_ref=self._resolve_ref)
        #: Meta-data statistics for the optimizer (collected by ANALYZE).
        self.statistics = StatisticsCatalog(access)
        #: Predicates above this estimated selectivity scan instead of
        #: using an access path (the A5 crossover).
        self.scan_threshold = 0.30
        #: Set after DDL; queries verify symmetry once before running.
        self._symmetry_checked = False
        #: Shared, catalog-versioned LRU of prepared statements — sits
        #: under every query entry point (facade, serving sessions,
        #: parallel_select), so repeated statement text skips parse+plan.
        self.plan_cache = PlanCache()
        #: This engine's observability bundle: the query tracer
        #: (off-by-default sampling), the metrics registry (latency
        #: histograms and gauges on top of the counter bag), and the
        #: slow-query log.  ``Prima.metrics_report()`` exports it.
        self.obs = Observability()
        #: ``Engine.mutex`` (a cluster rebinds it to the coordinator's).
        self.mutex = threading.RLock()

    @property
    def catalog_version(self) -> int:
        """Monotonic stamp of everything a cached plan depends on:
        schema DDL, the molecule-type catalog, and the LDL
        tuning-structure inventory.  Prepared statements record it and
        transparently re-plan when it moves."""
        return (self.schema.version + self.catalog.version
                + self.access.atoms.structures_version)

    # ---------------------------------------------------- prepared statements --

    #: Parse, validate and plan one statement through the plan cache
    #: (:func:`~repro.data.prepared.prepare_statement`).
    prepare = prepare_statement

    # ----------------------------------------- binding and lowering plans --

    #: Settle a freshly bound plan's deferred access decisions
    #: (:func:`~repro.data.prepared.reveto_plan`).
    settle = reveto_plan

    def lower(self, plan: QueryPlan, pinned: bool = False) -> Operator:
        """A bound plan's operator pipeline.

        ``pinned`` reads every atom at one snapshot of the current
        atom-version epoch, released when the pipeline closes (the
        serving read path): the reader needs **no** type-level S lock —
        it sees the committed state as of its open, no matter what
        writers do concurrently.  Unpinned the pipeline reads the live
        atom manager.
        """
        if not pinned:
            return plan.compile(self)
        snapshot = self.access.atoms.open_snapshot()
        try:
            pipeline = plan.compile(self, snapshot=snapshot)
        except BaseException:
            snapshot.release()
            raise
        pipeline.add_close_hook(lambda _op: snapshot.release())
        return pipeline

    def publish_data_version(self) -> int:
        """Advance the atom-version epoch (a commit boundary).

        Mirrors :attr:`catalog_version` for *data*: every committed
        batch of writes — a checkin, a DML statement, DDL — publishes,
        so snapshots opened afterwards see the new state while pinned
        readers keep theirs.
        """
        return self.access.atoms.publish_epoch()

    # ------------------------------------------------------------ dispatch --

    def execute(self, statement: Statement) -> ResultSet:
        """Execute one parsed MQL statement.

        Every completed non-SELECT statement publishes a new
        atom-version epoch — the commit boundary of the snapshot clock
        (readers pinned before it keep their state; snapshots opened
        after it see the writes).
        """
        if isinstance(statement, SelectStatement):
            return self.select(statement)
        result = self._execute_mutation(statement)
        self.publish_data_version()
        return result

    def _execute_mutation(self, statement: Statement) -> ResultSet:
        if isinstance(statement, CreateAtomType):
            return self._create_atom_type(statement)
        if isinstance(statement, DropAtomType):
            return self._drop_atom_type(statement)
        if isinstance(statement, DefineMoleculeType):
            return self._define_molecule_type(statement)
        if isinstance(statement, DropMoleculeType):
            self.catalog.drop(statement.name)
            return ResultSet(affected=0)
        self._ensure_symmetry()
        if isinstance(statement, InsertStatement):
            return self._insert(statement)
        if isinstance(statement, DeleteStatement):
            return self._delete(statement)
        if isinstance(statement, ModifyStatement):
            return self._modify(statement)
        raise ExecutionError(f"unsupported statement {type(statement).__name__}")

    def _ensure_symmetry(self) -> None:
        if not self._symmetry_checked:
            self.schema.check_symmetry()
            self._symmetry_checked = True

    # ------------------------------------------------------------------ DDL --

    def _create_atom_type(self, statement: CreateAtomType) -> ResultSet:
        atom_type = AtomType(statement.name, statement.attributes,
                             keys=statement.keys)
        self.schema.create_atom_type(atom_type)
        self.access.atoms.register_atom_type(statement.name)
        self._symmetry_checked = False
        return ResultSet(affected=0)

    def _drop_atom_type(self, statement: DropAtomType) -> ResultSet:
        if self.access.atoms.count(statement.name):
            raise ExecutionError(
                f"atom type {statement.name!r} still has atoms"
            )
        self.schema.drop_atom_type(statement.name)
        self.access.atoms.unregister_atom_type(statement.name)
        return ResultSet(affected=0)

    def _define_molecule_type(self,
                              statement: DefineMoleculeType) -> ResultSet:
        self._ensure_symmetry()
        structure = self.validator.resolve_structure(statement.structure)
        self.catalog.define(MoleculeType(statement.name, structure))
        return ResultSet(affected=0)

    # ------------------------------------------------------------- queries --

    def plan_select(self, statement: SelectStatement) -> QueryPlan:
        """Validation + simplification + preparation, without execution."""
        self._ensure_symmetry()
        structure = self.validator.resolve_structure(statement.from_clause)
        self.validator.check_select(statement, structure)
        where = simplify(statement.where)
        order_by = self._validate_order_by(statement, structure)
        root_access = self._choose_root_access(structure, where)
        order_served = False
        order_prefix = 0
        if order_by and root_access.kind == "atom_type_scan" and \
                not root_access.detail.get("search"):
            # An ordering structure matching the leading uniform-direction
            # ORDER BY prefix makes the (possibly reverse) sort scan the
            # root access: a full match delivers the requested order for
            # free; a partial match still orders the stream on the leading
            # attributes, which lets TopK cut the scan short — and push
            # its tightening heap bound into the walk itself.
            sort_access, served = self._ordering_sort_scan(structure,
                                                           order_by)
            if sort_access is not None:
                root_access = sort_access
                if served == len(order_by):
                    order_served = True
                else:
                    order_prefix = served
        elif order_by and root_access.kind == "access_path":
            # A sargable B*-tree access path already walks its attribute
            # list in value order — when those attributes prefix-match
            # the leading uniform-direction ORDER BY run, the (possibly
            # reverse) bounded walk serves that prefix for free, and
            # TopK's tightening heap bound combines with the static
            # range as a dynamic stop key inside the walk.
            served = self._arm_access_path_order(root_access, order_by)
            if served == len(order_by):
                order_served = True
            else:
                order_prefix = served
        cluster = self._matching_cluster(structure)
        # Parameterized windows are validated at bind time instead.
        if isinstance(statement.limit, int) and statement.limit < 0:
            raise ValidationError("LIMIT must be non-negative")
        if isinstance(statement.offset, int) and statement.offset < 0:
            raise ValidationError("OFFSET must be non-negative")
        return QueryPlan(
            structure=structure,
            root_access=root_access,
            cluster_name=cluster.name if cluster is not None else None,
            residual_where=where,
            projection=statement.projection,
            order_by=order_by,
            order_served_by_access=order_served,
            order_prefix_served=order_prefix,
            limit=statement.limit,
            offset=statement.offset,
            parameters=tuple(iter_parameters(statement)),
        )

    def _validate_order_by(self, statement: SelectStatement,
                           structure: StructureNode) -> list[tuple[str, bool]]:
        out: list[tuple[str, bool]] = []
        root_type = self.schema.atom_type(structure.atom_type)
        for item in statement.order_by:
            parts = item.path.parts
            if len(parts) == 2 and parts[0] == structure.label:
                attr = parts[1]
            elif len(parts) == 1:
                attr = parts[0]
            elif len(parts) == 2:
                # A two-part path whose qualifier is not the root label:
                # the label is wrong, not the shape — say so.
                raise ValidationError(
                    f"ORDER BY path {'.'.join(parts)!r} must be qualified "
                    f"by the root label {structure.label!r}, not "
                    f"{parts[0]!r} (only root attributes can order the "
                    f"result)"
                )
            else:
                raise ValidationError(
                    f"ORDER BY supports root attributes only, got "
                    f"{'.'.join(parts)!r}"
                )
            if attr not in root_type.attributes:
                raise ValidationError(
                    f"atom type {root_type.name!r} has no attribute "
                    f"{attr!r} (ORDER BY)"
                )
            out.append((attr, item.descending))
        return out

    def _ordering_sort_scan(self, structure: StructureNode,
                            order_by: list[tuple[str, bool]]
                            ) -> tuple[RootAccess | None, int]:
        """The sort scan serving the longest ORDER BY prefix, if any.

        Returns ``(access, served)`` where ``served`` counts the leading
        ORDER BY attributes the scan delivers in order.  An ordering
        structure — a sort order, or a B*-tree access path over the sort
        attributes — delivers its attribute list ascending when scanned
        forward and descending when scanned in **reverse**, so the
        servable prefix is the longest leading run of ORDER BY attributes
        sharing one direction: ``ORDER BY a DESC, b DESC`` matches a
        structure on ``(a, b)`` walked backwards, ``ORDER BY a DESC, b``
        still serves its first attribute (``served == 1``), which arms
        TopK's early exit and dynamic scan bound.  ``served ==
        len(order_by)`` means the requested order comes for free.

        Tie semantics of a served order: molecules equal on *all* of the
        structure's attributes arrive in insertion (ascending surrogate)
        order in either scan direction; when a longer structure serves a
        shorter ORDER BY, ties beyond the requested attributes follow
        the structure's remaining attributes in scan direction — a valid
        instance of the requested order, exactly as in the ascending
        case.
        """
        direction = order_by[0][1]
        wanted: list[str] = []
        for attr, descending in order_by:
            if descending != direction:
                break
            wanted.append(attr)

        def prefix_len(have: tuple[str, ...]) -> int:
            matched = 0
            for have_attr, want_attr in zip(have, wanted):
                if have_attr != want_attr:
                    break
                matched += 1
            return matched

        best_name: str | None = None
        best_attrs: tuple[str, ...] = ()
        best_len = 0
        for candidate in self.access.atoms.structures_for(
                structure.atom_type, "sort_order"):
            assert isinstance(candidate, SortOrder)
            matched = prefix_len(candidate.sort_attrs)
            if matched > best_len:
                best_name = candidate.name
                best_attrs = candidate.sort_attrs
                best_len = matched
        # "It may engage an access path if available" (paper, 3.2): a
        # B*-tree over the attributes delivers the value order too.  A
        # path serving a strictly longer prefix beats a sort order (more
        # of the ORDER BY comes for free); at equal length the sort
        # order wins — its record copies save the atom fetches.
        for candidate in self.access.atoms.structures_for(
                structure.atom_type, "access_path"):
            assert isinstance(candidate, AccessPath)
            if candidate.method != "btree":
                continue
            matched = prefix_len(candidate.attrs)
            if matched > best_len:
                best_name = candidate.name
                best_attrs = candidate.attrs
                best_len = matched
        if best_name is None:
            return None, 0
        return RootAccess("sort_scan", structure.atom_type, {
            "order": best_name,
            "attrs": best_attrs,
            "reverse": direction,
        }), best_len

    def _arm_access_path_order(self, root_access: RootAccess,
                               order_by: list[tuple[str, bool]]) -> int:
        """Leading ORDER BY attributes a chosen access path serves.

        Only B*-tree paths have a linear order.  A descending run
        re-stamps every key condition with ``descending=True`` so the
        bounded walk runs in reverse; ties within equal keys stay in
        ascending-surrogate order in either direction (see
        :meth:`~repro.access.access_path.AccessPath.scan`), matching the
        stable-sort contract of the explicit Sort operator.
        """
        path = self.access.atoms.structure(root_access.detail["path"])
        assert isinstance(path, AccessPath)
        if path.method != "btree":
            return 0
        direction = order_by[0][1]
        wanted: list[str] = []
        for attr, descending in order_by:
            if descending != direction:
                break
            wanted.append(attr)
        served = 0
        for have, want in zip(path.attrs, wanted):
            if have != want:
                break
            served += 1
        if not served:
            return 0
        if direction:
            root_access.detail["conditions"] = [
                replace(cond, descending=True)
                for cond in root_access.detail["conditions"]
            ]
        root_access.detail["reverse"] = direction
        return served

    def select(self, statement: SelectStatement) -> ResultSet:
        """Compile the plan into the operator pipeline; return a cursor.

        The result set is lazy: molecules are constructed as the caller
        pulls them, so a ``LIMIT k`` (or an abandoned iteration) leaves
        the rest of the root atom set untouched.
        """
        plan = self.plan_select(statement)
        return ResultSet(source=self.lower(plan), plan=plan,
                         mutex=self.mutex)

    # -- root access ----------------------------------------------------------------

    def _choose_root_access(self, structure: StructureNode,
                            where: Expr | None) -> RootAccess:
        root_type = self.schema.atom_type(structure.atom_type)
        terms = sargable_root_terms(where, structure.label,
                                    set(root_type.attributes))
        # 1. Exact KEYS_ARE lookup.
        eq_terms = {attr: value for attr, op, value in terms if op == "="}
        if root_type.keys and set(root_type.keys) <= set(eq_terms):
            key = tuple(eq_terms[attr] for attr in root_type.keys)
            return RootAccess("key_lookup", root_type.name, {"key": key})
        # 2. Access path whose first attribute carries a condition — unless
        #    the meta-data statistics say the predicate is so unselective
        #    that the atom-type scan wins (the A5 crossover).
        for path in self.access.atoms.structures_for(root_type.name,
                                                     "access_path"):
            assert isinstance(path, AccessPath)
            bounds = _range_for(terms, path.attrs[0])
            if bounds is not None:
                attr_terms = [(a, op, v) for a, op, v in terms
                              if a == path.attrs[0]]
                if any(isinstance(v, Parameter) for _a, _op, v in attr_terms):
                    # A placeholder's value is unknown at plan time: the
                    # statistics cannot veto the path, so a prepared
                    # range keeps the same sargable access the typical
                    # literal form gets.
                    estimate = None
                else:
                    estimate = self.statistics.selectivity(root_type.name,
                                                           attr_terms)
                if estimate is not None and estimate > self.scan_threshold:
                    continue   # statistics veto: scan instead
                conditions = [bounds] + [KeyCondition()] * (len(path.attrs) - 1)
                detail = {
                    "path": path.name,
                    "attr": path.attrs[0],
                    "conditions": conditions,
                    "range": _render_bounds(path.attrs[0], bounds),
                    "selectivity": estimate,
                }
                if estimate is None:
                    # The crossover could not be decided here (a
                    # placeholder hides the value, or statistics are
                    # missing): stash the deferred terms and the scan
                    # fallback so bind time can re-veto against the
                    # concrete literals (repro.data.prepared.reveto_plan).
                    detail["reveto"] = list(attr_terms)
                    detail["fallback_search"] = [
                        (attr, op, value) for attr, op, value in terms
                        if op in ("=", "!=", "<", "<=", ">", ">=")
                    ]
                return RootAccess("access_path", root_type.name, detail)
        # 3. Atom-type scan; push simple terms down as a search argument.
        search_terms = [(attr, op, value) for attr, op, value in terms
                        if op in ("=", "!=", "<", "<=", ">", ">=")]
        return RootAccess("atom_type_scan", root_type.name,
                          {"search": search_terms})

    # -- molecule construction ----------------------------------------------------------

    def _matching_cluster(self,
                          structure: StructureNode) -> AtomCluster | None:
        """An atom cluster whose structure equals the query structure."""
        for candidate in self.access.atoms.structures_for(
                structure.atom_type, "cluster"):
            assert isinstance(candidate, AtomCluster)
            if _signature(candidate.structure) == _signature(structure):
                return candidate
        return None

    def construct_molecule(self, structure: StructureNode, root: Surrogate,
                           cluster: AtomCluster | None = None,
                           atoms: Any = None) -> Molecule:
        """Assemble one molecule, preferring the materialised cluster.

        ``atoms`` substitutes a pinned :class:`~repro.access.snapshots
        .SnapshotView` (or any AtomManager-shaped reader) for the live
        atom manager — the whole traversal then reads one epoch.
        """
        if atoms is None:
            atoms = self.access.atoms
        fetched: dict[Surrogate, dict[str, Any]] | None = None
        if cluster is not None and cluster.has_root(root):
            fetched = {}
            label_types = {node.label: node.atom_type
                           for node in cluster.structure.walk()}
            for label, cluster_atoms in cluster.read_cluster(root).items():
                id_attr = self.schema.atom_type(label_types[label]) \
                    .identifier_attr
                for atom in cluster_atoms:
                    fetched[atom[id_attr]] = atom
            self.access.counters.bump("molecules_from_cluster")
            atom = fetched.get(root)
        else:
            self.access.counters.bump("molecules_from_traversal")
            atom = None
        if atom is None:
            atom = atoms.get_or_none(root)
            if atom is None:
                raise AtomNotFoundError(
                    f"no atom with logical address {root}")
        return self._build(structure, root, atom, fetched, frozenset(),
                           atoms)

    @staticmethod
    def _fetch(surrogate: Surrogate,
               fetched: dict[Surrogate, dict[str, Any]],
               atoms: Any) -> dict[str, Any] | None:
        """A component atom of a clustered molecule: the cluster's copy
        when it holds one and the atom exists, else one read (None: no
        such atom)."""
        if surrogate in fetched:
            return fetched[surrogate] if atoms.exists(surrogate) else None
        return atoms.get_or_none(surrogate)

    # Construction reads each component atom once, through the reader's
    # ``get_or_none`` (existence test and read in one), and hands it to
    # the recursive call.  The targets of an edge come from its
    # association, resolved when the structure was validated:
    # ``source_many`` edges hold a list of references, the others one.

    def _build(self, node: StructureNode, surrogate: Surrogate,
               atom: dict[str, Any],
               fetched: dict[Surrogate, dict[str, Any]] | None,
               ancestors: frozenset[Surrogate], atoms: Any) -> Molecule:
        molecule = Molecule(node, atom)
        for child in node.children:
            via = child.via
            assert via is not None
            value = atom.get(via.source_attr)
            if value is None:
                continue
            parts = molecule.components[child.label]
            for target in (value if via.source_many else (value,)):
                target_atom = atoms.get_or_none(target) if fetched is None \
                    else self._fetch(target, fetched, atoms)
                if target_atom is None:
                    continue
                if child.recursive:
                    parts.append(self._build_recursive(
                        child, target, target_atom, fetched,
                        ancestors | {surrogate}, atoms))
                elif child.children:
                    parts.append(self._build(child, target, target_atom,
                                             fetched, ancestors, atoms))
                else:   # a leaf: nothing below it to read
                    parts.append(Molecule(child, target_atom))
        return molecule

    def _build_recursive(self, node: StructureNode, surrogate: Surrogate,
                         atom: dict[str, Any],
                         fetched: dict[Surrogate, dict[str, Any]] | None,
                         ancestors: frozenset[Surrogate],
                         atoms: Any) -> Molecule:
        """Level-wise recursion: expand the incoming association until the
        frontier is exhausted; ancestor atoms stop cycles."""
        molecule = Molecule(node, atom)
        via = node.via
        assert via is not None
        value = atom.get(via.source_attr)
        if value is not None:
            parts = molecule.components[node.label]
            for target in (value if via.source_many else (value,)):
                if target in ancestors or target == surrogate:
                    continue   # cycle protection
                target_atom = atoms.get_or_none(target) if fetched is None \
                    else self._fetch(target, fetched, atoms)
                if target_atom is None:
                    continue
                parts.append(self._build_recursive(
                    node, target, target_atom, fetched,
                    ancestors | {surrogate}, atoms))
        # Non-recursive children below the recursion node apply per level.
        for child in node.children:
            child_via = child.via
            assert child_via is not None
            value = atom.get(child_via.source_attr)
            if value is None:
                continue
            parts = molecule.components[child.label]
            for target in (value if child_via.source_many else (value,)):
                target_atom = atoms.get_or_none(target) if fetched is None \
                    else self._fetch(target, fetched, atoms)
                if target_atom is not None:
                    parts.append(self._build(child, target, target_atom,
                                             fetched, ancestors, atoms))
        return molecule

    # -- projection -------------------------------------------------------------------------

    def apply_projection(self, molecule: Molecule, projection: Projection,
                         structure: StructureNode) -> None:
        """Apply a (qualified) projection to one molecule, in place."""
        if projection.select_all:
            return
        keep: dict[str, Any] = {}
        for item in projection.items:
            if item.subquery is not None:
                keep[item.label] = ("qualified", item.subquery)
                continue
            assert item.path is not None
            label, attr = self.validator.resolve_path(
                item.path, structure, allow_label_only=True
            )
            if attr is None:
                keep[label] = "all"
            else:
                entry = keep.get(label)
                if isinstance(entry, set):
                    entry.add(attr)
                elif entry is None:
                    keep[label] = {attr}
                # 'all' swallows attribute items

        # Effective rule per label: explicit items win; a subtree without
        # any explicit rule under an 'all' node inherits 'all'; nodes on
        # the path to a kept node stay as structural glue (identifier
        # only); everything else is pruned.
        effective: dict[str, Any] = {}
        glue: set[str] = set()

        def subtree_has_rule(node: StructureNode) -> bool:
            return node.label in keep or \
                any(subtree_has_rule(child) for child in node.children)

        def assign(node: StructureNode, under_all: bool) -> bool:
            rule = keep.get(node.label)
            if rule is None and under_all and not subtree_has_rule(node):
                rule = "all"
            effective[node.label] = rule
            kept_below = False
            next_under_all = rule == "all"
            for child in node.children:
                if assign(child, next_under_all):
                    kept_below = True
            if rule is None and (kept_below or node.label in keep):
                glue.add(node.label)
            return kept_below or rule is not None

        assign(structure, under_all=False)
        self._project_molecule(molecule, effective, glue)

    def _project_molecule(self, molecule: Molecule, effective: dict[str, Any],
                          glue: set[str]) -> None:
        label = molecule.node.label
        identifier = self.schema.atom_type(molecule.node.atom_type) \
            .identifier_attr
        rule = effective.get(label)
        if rule == "all":
            pass
        elif isinstance(rule, set):
            molecule.atom = {identifier: molecule.atom.get(identifier),
                             **{a: molecule.atom.get(a) for a in sorted(rule)}}
        elif isinstance(rule, tuple) and rule[0] == "qualified":
            subquery: SelectStatement = rule[1]
            if not subquery.projection.select_all:
                attrs = [item.path.parts[-1]
                         for item in subquery.projection.items
                         if item.path is not None]
                molecule.atom = {
                    identifier: molecule.atom.get(identifier),
                    **{a: molecule.atom.get(a) for a in attrs},
                }
        else:
            # structural glue only: identifier
            molecule.atom = {identifier: molecule.atom.get(identifier)}
        for child_label, comps in list(molecule.components.items()):
            child_rule = effective.get(child_label)
            if child_rule is None and child_label not in glue:
                del molecule.components[child_label]
                continue
            if isinstance(child_rule, tuple) and child_rule[0] == "qualified":
                subquery = child_rule[1]
                if subquery.where is not None:
                    comps = [
                        comp for comp in comps
                        if self.evaluator.matches(subquery.where, comp)
                    ]
                    molecule.components[child_label] = comps
            for comp in comps:
                self._project_molecule(comp, effective, glue)

    # ------------------------------------------------------------------- DML --

    def _resolve_ref(self, type_name: str, key: tuple) -> Surrogate | None:
        return self.access.atoms.find_by_key(type_name, key)

    def _resolve_value(self, expr: Expr | list[Expr]) -> Any:
        if isinstance(expr, list):
            return [self._resolve_value(item) for item in expr]
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, EmptyLiteral):
            return []
        if isinstance(expr, RefLookup):
            surrogate = self._resolve_ref(expr.type_name, expr.key)
            if surrogate is None:
                raise ExecutionError(
                    f"REF {expr.type_name}({', '.join(map(repr, expr.key))}) "
                    f"matches no atom"
                )
            return surrogate
        raise ExecutionError(f"unsupported value expression {expr!r}")

    def _insert(self, statement: InsertStatement) -> ResultSet:
        values = {
            attr: self._resolve_value(value)
            for attr, value in statement.assignments
        }
        atom_type = self.schema.atom_type(statement.type_name)
        # EMPTY on a single reference means NULL.
        for attr, value in list(values.items()):
            if value == [] and not hasattr(atom_type.attr(attr), "element"):
                values[attr] = None
        surrogate = self.access.insert(statement.type_name, values)
        return ResultSet(inserted=surrogate, affected=1)

    def _qualifying_molecules(self, from_clause, where) -> tuple[ResultSet, StructureNode]:
        query = SelectStatement(Projection(select_all=True), from_clause,
                                where)
        plan = self.plan_select(query)
        result = self.select(query)
        # DML mutates atoms while walking the result: drain the pipeline
        # before any update so qualification sees the pre-statement state.
        result.materialize()
        return result, plan.structure

    def _delete(self, statement: DeleteStatement) -> ResultSet:
        result, structure = self._qualifying_molecules(
            statement.from_clause, statement.where
        )
        if statement.labels:
            known = set(structure.labels())
            unknown = set(statement.labels) - known
            if unknown:
                raise ValidationError(
                    f"DELETE names unknown labels {sorted(unknown)}"
                )
        id_attrs = {
            node.label: self.schema.atom_type(node.atom_type).identifier_attr
            for node in structure.walk()
        }
        victims: list[Surrogate] = []
        seen: set[Surrogate] = set()
        for molecule in result:
            for label, atom in molecule.atoms():
                if statement.labels and label not in statement.labels:
                    continue
                surrogate = atom[id_attrs[label]]
                if surrogate not in seen:
                    seen.add(surrogate)
                    victims.append(surrogate)
        for surrogate in victims:
            if self.access.atoms.exists(surrogate):
                self.access.delete(surrogate)
        return ResultSet(affected=len(victims))

    def _modify(self, statement: ModifyStatement) -> ResultSet:
        result, structure = self._qualifying_molecules(
            statement.from_clause, statement.where
        )
        if structure.find(statement.label) is None:
            raise ValidationError(
                f"MODIFY names unknown label {statement.label!r}"
            )
        changes = {
            attr: self._resolve_value(value)
            for attr, value in statement.assignments
        }
        node = structure.find(statement.label)
        assert node is not None
        id_attr = self.schema.atom_type(node.atom_type).identifier_attr
        touched: set[Surrogate] = set()
        for molecule in result:
            for label, atom in molecule.atoms():
                if label != statement.label:
                    continue
                surrogate = atom[id_attr]
                if surrogate in touched:
                    continue
                touched.add(surrogate)
                self.access.modify(surrogate, dict(changes))
        return ResultSet(affected=len(touched))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _signature(node: StructureNode) -> tuple:
    via = node.via.source_attr if node.via is not None else None
    return (
        node.atom_type,
        via,
        node.recursive,
        tuple(sorted(_signature(child) for child in node.children)),
    )


def _range_for(terms: list[tuple[str, str, Any]],
               attr: str) -> KeyCondition | None:
    """Combine the sargable terms on ``attr`` into one key condition.

    Multiple bounds on the same side combine to the *tightest* one
    (max of starts, min of stops); at equal values the exclusive bound
    wins over the inclusive one.  A prepared-statement placeholder may
    stand in for a value: its magnitude is unknown at plan time, so it
    never displaces an already-chosen bound (and is never displaced) —
    the resulting range is a conservative superset, which is correct
    because the full qualification is re-evaluated as the residual
    filter.
    """
    def comparable(a: Any, b: Any) -> bool:
        return not (isinstance(a, Parameter) or isinstance(b, Parameter))

    start = stop = None
    include_start = include_stop = True
    found = False
    for term_attr, op, value in terms:
        if term_attr != attr:
            continue
        if op == "=":
            return KeyCondition(start=value, stop=value)
        if op in (">", ">="):
            inclusive = op == ">="
            if start is None or (comparable(value, start) and (
                    make_key(value) > make_key(start) or
                    (make_key(value) == make_key(start) and not inclusive))):
                start, include_start = value, inclusive
            found = True
        elif op in ("<", "<="):
            inclusive = op == "<="
            if stop is None or (comparable(value, stop) and (
                    make_key(value) < make_key(stop) or
                    (make_key(value) == make_key(stop) and not inclusive))):
                stop, include_stop = value, inclusive
            found = True
    if not found:
        return None
    return KeyCondition(start=start, stop=stop,
                        include_start=include_start,
                        include_stop=include_stop)
