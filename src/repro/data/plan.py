"""Processing plans (paper, 3.1: "query preparation creates a finer
grained processing plan").

A plan records the decisions of the molecule-type-specific optimization:
how the root atoms are accessed (key lookup, access-path scan, sort scan,
or atom-type scan with a pushed-down search argument), whether an atom
cluster materialises the molecule structure, which qualification remains
to be evaluated per molecule, and the result-shaping clauses (ORDER BY,
LIMIT/OFFSET).  ``compile()`` lowers the plan into the physical operator
tree of :mod:`repro.data.operators`; ``explain()`` renders the plan —
including that operator tree — for tests, examples, and benchmark reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.access.multidim import KeyCondition
from repro.data.operators import Operator, build_pipeline
from repro.errors import ExecutionError
from repro.mad.molecule import StructureNode
from repro.mql.ast import Expr, Parameter, Projection

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.data.executor import DataSystem


@dataclass
class RootAccess:
    """How the root atom set is produced."""

    kind: str                     # 'key_lookup' | 'access_path' | 'sort_scan' | 'atom_type_scan'
    atom_type: str
    #: key lookup: the KEYS_ARE value; access path: path name + conditions.
    detail: dict[str, Any] = field(default_factory=dict)

    def explain(self) -> str:
        if self.kind == "key_lookup":
            return (f"KEY LOOKUP {self.atom_type} "
                    f"(key = {self.detail.get('key')!r})")
        if self.kind == "access_path":
            return (f"ACCESS PATH SCAN {self.detail.get('path')} ON "
                    f"{self.atom_type} ({self.detail.get('range')})")
        if self.kind == "sort_scan":
            direction = " DESC" if self.detail.get("reverse") else ""
            return (f"SORT SCAN {self.detail.get('order')} ON "
                    f"{self.atom_type} "
                    f"({', '.join(self.detail.get('attrs', ()))}){direction}")
        terms = self.detail.get("search")
        suffix = f" (search: {terms})" if terms else ""
        return f"ATOM TYPE SCAN {self.atom_type}{suffix}"


@dataclass
class QueryPlan:
    """The full processing plan of one SELECT."""

    structure: StructureNode
    root_access: RootAccess
    cluster_name: str | None          # atom cluster materialising the structure
    residual_where: Expr | None       # evaluated per constructed molecule
    projection: Projection
    recursion_strategy: str = "level-wise"
    #: (root attribute, descending) pairs of the ORDER BY clause.
    order_by: list[tuple[str, bool]] = field(default_factory=list)
    #: True when the root access already delivers the requested order
    #: (possibly by walking a sort order / access path in reverse).
    order_served_by_access: bool = False
    #: Number of leading ORDER BY attributes the root access delivers in
    #: order (a prefix-matching sort scan in either direction) — lets
    #: TopK cut the scan short and feed its tightening heap bound into
    #: the walk as a dynamic stop key.
    order_prefix_served: int = 0
    #: LIMIT n — stop after n molecules (None: unbounded).  A
    #: :class:`~repro.mql.ast.Parameter` defers the bound to bind time.
    limit: "int | Parameter | None" = None
    #: OFFSET m — skip the first m molecules.
    offset: "int | Parameter" = 0
    #: Placeholders of the statement this plan was prepared from.  A
    #: non-empty tuple marks a *template*: values must be substituted by
    #: :func:`repro.data.prepared.bind_plan` before compilation.
    parameters: tuple = ()
    #: Shard-routing annotation, stamped by a cluster coordinator
    #: (None on single-engine plans).  A dict shaped ``{"mode":
    #: "routed"|"scatter", "shards": n, "key_attr": attr, "shard": i}``:
    #: ``routed`` plans hit exactly the shard owning their root key
    #: (``shard`` once the key is concrete), ``scatter`` plans run their
    #: :meth:`shard_slice` on every shard under one ``Gather``.
    routing: dict[str, Any] | None = None

    @property
    def uses_topk(self) -> bool:
        """True when Sort + window fuse into the TopK operator."""
        return bool(self.order_by) and not self.order_served_by_access \
            and self.limit is not None

    def compile(self, data: "DataSystem",
                use_topk: bool = True,
                push_bound: bool = True,
                snapshot: "Any | None" = None) -> "Operator":
        """Lower this plan into its physical operator tree.

        ``use_topk=False`` compiles the Sort/Offset/Limit stack even when
        TopK applies — the full-sort baseline for benchmarks.
        ``push_bound=False`` keeps TopK but disconnects its dynamic heap
        bound from the root scan (the delivery-time early exit remains) —
        the bound-pushdown baseline.  ``snapshot`` pins every read of the
        pipeline to one atom-version epoch (the lock-free serving read
        path).

        A plan *template* (prepared statement with placeholders) cannot
        compile — bind it first (:func:`repro.data.prepared.bind_plan`).
        """
        if self.parameters:
            markers = ", ".join(sorted({p.render()
                                        for p in self.parameters}))
            raise ExecutionError(
                f"plan has unbound parameter(s) {markers} — execute "
                f"through a prepared statement with bindings"
            )
        return build_pipeline(data, self, use_topk=use_topk,
                              push_bound=push_bound, snapshot=snapshot)

    def shard_slice(self) -> "QueryPlan":
        """One shard's part of a scatter plan.

        The window widens to ``limit + offset`` with the offset zeroed —
        any shard may hold the entire global window, and the skip is a
        global decision.  Under ORDER BY the shard pipelines also run
        projection-free (the gather ranks on root-attribute values the
        projection may prune and projects at delivery).
        """
        projection = self.projection
        if self.order_by and not projection.select_all:
            projection = Projection(select_all=True)
        return replace(self, routing=None, offset=0, projection=projection,
                       limit=None if self.limit is None
                       else self.limit + self.offset)

    def operator_descriptions(self) -> list[tuple[str, str]]:
        """(name, detail) pairs of the pipeline, top operator first.

        This is the declarative twin of :func:`repro.data.operators
        .build_pipeline`: the same canonical shape, renderable without a
        data system at hand.  A cluster plan starts with its ``Route``
        (routed) or ``Gather`` over one ``Route`` per shard (scatter),
        above the pipeline each shard runs.
        """
        routing = self.routing
        if routing is not None and routing["mode"] == "scatter":
            merge = "ordered k-way merge" if self.order_by \
                else "concatenation in shard order"
            if self.order_by and self.limit is not None:
                merge = (f"window limit {self.limit}, offset {self.offset}"
                         f" — shards drain in order")
                if self.order_prefix_served or self.order_served_by_access:
                    merge += ", global bound pushed into the later ones"
            elif self.limit is not None or self.offset:
                merge += f", limit {self.limit}, offset {self.offset}"
            if self.order_by and not self.projection.select_all:
                merge += (f"; project {len(self.projection.items)} "
                          f"item(s) at delivery")
            return [("Gather", merge),
                    ("Route", f"each of {routing['shards']} shard(s)")] \
                + self.shard_slice().operator_descriptions()
        operators: list[tuple[str, str]] = []
        if routing is not None:
            operators.append(("Route", f"shard {routing['shard']}"
                              if "shard" in routing
                              else "the shard owning the key"))
        if self.projection.select_all:
            operators.append(("Project", "ALL"))
        else:
            operators.append(
                ("Project", f"{len(self.projection.items)} item(s)")
            )
        rendered = ", ".join(
            f"{attr} {'DESC' if desc else 'ASC'}"
            for attr, desc in self.order_by
        )
        if self.uses_topk:
            suffix = (f"; input ordered on first {self.order_prefix_served}"
                      f" — dynamic scan bound"
                      if self.order_prefix_served else "")
            operators.append((
                "TopK",
                f"k={self.limit}, offset={self.offset}; {rendered} — "
                f"bounded heap{suffix}",
            ))
        else:
            if self.limit is not None:
                operators.append(("Limit", str(self.limit)))
            if self.offset:
                operators.append(("Offset", str(self.offset)))
            if self.order_by and not self.order_served_by_access:
                operators.append(("Sort", f"{rendered} — pipeline breaker"))
        if self.residual_where is not None:
            operators.append(
                ("ResidualFilter", "residual qualification per molecule")
            )
        if self.cluster_name is not None:
            operators.append(
                ("MoleculeConstruct", f"from atom cluster {self.cluster_name}")
            )
        else:
            operators.append(("MoleculeConstruct", "association traversal"))
        operators.append(("RootScan", self.root_access.explain()))
        return operators

    def explain(self) -> str:
        lines = [f"MOLECULE TYPE SCAN {self.structure!r}"]
        if self.routing is not None:
            mode = self.routing.get("mode", "scatter")
            shards = self.routing.get("shards")
            if mode == "routed":
                detail = (f"routed to 1 of {shards} shard(s) by "
                          f"{self.routing.get('key_attr')}")
            else:
                detail = (f"scatter to {shards} shard(s), "
                          f"ordered k-way merge gather")
            lines.append(f"  routing: {detail}")
        lines.append(f"  root: {self.root_access.explain()}")
        if self.cluster_name is not None:
            lines.append(
                f"  construction: ATOM CLUSTER {self.cluster_name} "
                f"(one page-sequence transfer per molecule)"
            )
        else:
            lines.append("  construction: association traversal (base records)")
        if any(node.recursive for node in self.structure.walk()):
            lines.append(f"  recursion: {self.recursion_strategy}")
        if self.residual_where is not None:
            lines.append("  select: residual qualification per molecule")
        if self.order_by:
            rendered = ", ".join(
                f"{attr} {'DESC' if desc else 'ASC'}"
                for attr, desc in self.order_by
            )
            if self.order_served_by_access:
                how = "from the sort order (free"
                if self.root_access.detail.get("reverse"):
                    how += ", reverse scan"
                how += ")"
            elif self.uses_topk:
                how = "top-k bounded heap"
                if self.order_prefix_served:
                    direction = "reverse " \
                        if self.root_access.detail.get("reverse") else ""
                    how += (f" (order_prefix_served="
                            f"{self.order_prefix_served}, dynamic bound "
                            f"into the {direction}scan)")
            else:
                how = "explicit final sort"
            lines.append(f"  order: {rendered} — {how}")
        if self.limit is not None or self.offset:
            parts = []
            if self.limit is not None:
                parts.append(f"limit {self.limit}")
            if self.offset:
                parts.append(f"offset {self.offset}")
            if self.uses_topk:
                parts.append("fused into TopK")
            lines.append(f"  window: {', '.join(parts)}")
        if self.projection.select_all:
            lines.append("  project: ALL")
        else:
            lines.append(f"  project: {len(self.projection.items)} item(s)")
        lines.append("  pipeline:")
        for depth, (name, detail) in enumerate(self.operator_descriptions()):
            indent = "    " + "  " * depth
            lines.append(f"{indent}{name} ({detail})" if detail
                         else f"{indent}{name}")
        return "\n".join(lines)


def _render_bounds(attr: str, condition: KeyCondition) -> str:
    parts = []
    if condition.start is not None:
        op = ">=" if condition.include_start else ">"
        parts.append(f"{attr} {op} {condition.start!r}")
    if condition.stop is not None:
        op = "<=" if condition.include_stop else "<"
        parts.append(f"{attr} {op} {condition.stop!r}")
    return " AND ".join(parts) or attr
