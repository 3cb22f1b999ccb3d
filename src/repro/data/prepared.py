"""Prepared statements, late parameter binding, and the shared plan cache.

PRIMA's engineering workloads are dominated by *repetitive* molecule
queries — a CAD or VLSI tool checks the same molecule shape out over and
over with different key values.  This module makes the per-call frontend
cost of that regime go to ~zero:

* :class:`PreparedStatement` — the product of parsing, validating, and
  planning one MQL statement **once**.  ``execute(*args, **params)``
  binds the placeholder values at pipeline-open time and runs the
  pre-built plan; no lexing, parsing, validation or planning happens on
  the hot path.  Binding is pure substitution over a shared, immutable
  template (:func:`bind_plan`), so one statement object is safely
  re-executed from many serving sessions concurrently.
* :class:`PlanCache` — an LRU of prepared statements keyed on the
  normalized statement text.  It sits under *every* query entry point
  (``Prima.query``/``execute``, serving sessions, ``parallel_select``),
  so even plain repeated-text calls skip parse+plan.
* **Catalog versioning** — every prepared plan records the data
  system's ``catalog_version`` (schema DDL + molecule-type catalog +
  LDL tuning-structure stamps).  A version mismatch at execute time
  transparently re-validates and re-plans the stored AST (counted as
  ``plans_invalidated``), so DDL or a new/dropped tuning structure
  between executions can never run a stale plan — and a *newly created*
  access path is picked up by already-prepared statements.

Sargability survives preparation: the planner treats a placeholder like
a literal when deriving the root access (``repro.data.simplification
.sargable_root_terms``), so a prepared ``WHERE k = ?`` takes the same
KEYS_ARE lookup / B*-tree access path the literal form does — the
concrete key value is substituted into the derived
:class:`~repro.access.multidim.KeyCondition` at bind time, and TopK
bound pushdown applies to the bound pipeline unchanged.

Callers that do not prepare still benefit: :func:`extract_template`
lifts the literals of a plain-text SELECT into internal named
parameters, so the data system can key its cache on the statement
*shape* — every literal variant of one checkout query shares a single
cached template.  A variant is itself a :class:`PreparedStatement` that
carries its lifted values and defers its plan to the template.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.access.multidim import KeyCondition
from repro.data.plan import QueryPlan, RootAccess, _render_bounds
from repro.data.predicates import bind_expr
from repro.data.result import ResultSet
from repro.errors import ExecutionError, PrimaError
from repro.obs.trace import Span, span_from_operator
from repro.mql.lexer import tokenize
from repro.mql.parser import parse
from repro.mql.ast import (
    DeleteStatement,
    Expr,
    InsertStatement,
    ModifyStatement,
    Parameter,
    Projection,
    ProjectionItem,
    SelectStatement,
    Statement,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.data.executor import DataSystem


# ---------------------------------------------------------------------------
# Parameter discovery: the signature of a statement
# ---------------------------------------------------------------------------

def _expr_parameters(expr: Expr | None) -> Iterator[Parameter]:
    """Every placeholder inside one expression, in traversal order.

    Rides :func:`~repro.data.predicates.bind_expr` with a recording
    resolver, so discovery and substitution share one tree walk — a new
    parameter-bearing node type added to ``bind_expr`` is automatically
    discovered here too (the throwaway bound tree only costs at prepare
    time, never on the execute hot path).
    """
    if expr is None:
        return
    found: list[Parameter] = []

    def record(parameter: Parameter) -> None:
        found.append(parameter)

    bind_expr(expr, record)
    yield from found


def _value_parameters(value: Expr | list[Expr]) -> Iterator[Parameter]:
    if isinstance(value, list):
        for item in value:
            yield from _value_parameters(item)
    else:
        yield from _expr_parameters(value)


def _select_parameters(statement: SelectStatement) -> Iterator[Parameter]:
    for item in statement.projection.items:
        if item.subquery is not None:
            yield from _select_parameters(item.subquery)
    yield from _expr_parameters(statement.where)
    if isinstance(statement.limit, Parameter):
        yield statement.limit
    if isinstance(statement.offset, Parameter):
        yield statement.offset


def iter_parameters(statement: Statement) -> Iterator[Parameter]:
    """Every placeholder of one parsed statement (duplicates included)."""
    if isinstance(statement, SelectStatement):
        yield from _select_parameters(statement)
    elif isinstance(statement, InsertStatement):
        for _attr, value in statement.assignments:
            yield from _value_parameters(value)
    elif isinstance(statement, DeleteStatement):
        yield from _expr_parameters(statement.where)
    elif isinstance(statement, ModifyStatement):
        for _attr, value in statement.assignments:
            yield from _value_parameters(value)
        yield from _expr_parameters(statement.where)


# ---------------------------------------------------------------------------
# Bindings: resolving placeholders to caller-supplied values
# ---------------------------------------------------------------------------

class Bindings:
    """One execution's parameter values: positional args + named params."""

    __slots__ = ("_args", "_named")

    def __init__(self, args: tuple, named: dict[str, Any]) -> None:
        self._args = tuple(args)
        self._named = dict(named)

    def resolve(self, parameter: Parameter) -> Any:
        if parameter.name is not None:
            try:
                return self._named[parameter.name]
            except KeyError:
                raise ExecutionError(
                    f"no value bound for parameter :{parameter.name}"
                ) from None
        index = parameter.index or 0
        if index >= len(self._args):
            raise ExecutionError(
                f"no value bound for positional parameter ?{index + 1}"
            )
        return self._args[index]


# ---------------------------------------------------------------------------
# Binding a plan template: pure substitution, never mutates the template
# ---------------------------------------------------------------------------

def _bind_window(value: Any, resolve: Callable[[Parameter], Any],
                 clause: str) -> Any:
    if not isinstance(value, Parameter):
        return value
    bound = resolve(value)
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
        raise ExecutionError(
            f"{clause} parameter {value.render()} must bind to a "
            f"non-negative integer, got {bound!r}"
        )
    return bound


def _bind_condition(condition: KeyCondition,
                    resolve: Callable[[Parameter], Any]) -> KeyCondition:
    start, stop = condition.start, condition.stop
    if not isinstance(start, Parameter) and not isinstance(stop, Parameter):
        return condition
    if isinstance(start, Parameter):
        start = resolve(start)
    if isinstance(stop, Parameter):
        stop = resolve(stop)
    return KeyCondition(start=start, stop=stop,
                        include_start=condition.include_start,
                        include_stop=condition.include_stop,
                        descending=condition.descending)


def _bind_root_access(access: RootAccess,
                      resolve: Callable[[Parameter], Any]) -> RootAccess:
    detail = dict(access.detail)
    changed = False
    key = detail.get("key")
    if key is not None and any(isinstance(v, Parameter) for v in key):
        detail["key"] = tuple(resolve(v) if isinstance(v, Parameter) else v
                              for v in key)
        changed = True
    conditions = detail.get("conditions")
    if conditions is not None:
        bound = [_bind_condition(cond, resolve) for cond in conditions]
        if any(new is not old for new, old in zip(bound, conditions)):
            detail["conditions"] = bound
            attr = detail.get("attr")
            if attr is not None:
                detail["range"] = _render_bounds(attr, bound[0])
            changed = True
    search = detail.get("search")
    if search and any(isinstance(v, Parameter) for _a, _o, v in search):
        detail["search"] = [
            (a, op, resolve(v) if isinstance(v, Parameter) else v)
            for a, op, v in search
        ]
        changed = True
    if not changed:
        return access
    return RootAccess(access.kind, access.atom_type, detail)


def _bind_projection(projection: Projection,
                     resolve: Callable[[Parameter], Any]) -> Projection:
    if projection.select_all:
        return projection
    changed = False
    items: list[ProjectionItem] = []
    for item in projection.items:
        if item.subquery is not None:
            sub = item.subquery
            where = bind_expr(sub.where, resolve)
            limit = _bind_window(sub.limit, resolve, "LIMIT")
            offset = _bind_window(sub.offset, resolve, "OFFSET")
            if where is not sub.where or limit is not sub.limit \
                    or offset is not sub.offset:
                subquery = replace(sub, where=where, limit=limit,
                                   offset=offset)
                item = ProjectionItem(label=item.label, subquery=subquery)
                changed = True
        items.append(item)
    if not changed:
        return projection
    return Projection(select_all=False, items=items)


def bind_plan(plan: QueryPlan, bindings: Bindings) -> QueryPlan:
    """A concrete, executable plan: the template with values substituted.

    Substitution covers everything execution touches — the residual
    qualification (down into :mod:`repro.data.predicates` evaluation),
    the root access's derived key ranges / KEYS_ARE key / search
    argument (so a bound value keeps the sargable access path), the
    qualified-projection subqueries, and the LIMIT/OFFSET window (a
    bound LIMIT still fuses into TopK with dynamic bound pushdown).
    Parameter-free templates are returned as-is — plans are read-only
    during compilation, so sharing is safe.
    """
    if not plan.parameters:
        return plan
    resolve = bindings.resolve
    limit = _bind_window(plan.limit, resolve, "LIMIT")
    offset = _bind_window(plan.offset, resolve, "OFFSET")
    return replace(
        plan,
        root_access=_bind_root_access(plan.root_access, resolve),
        residual_where=bind_expr(plan.residual_where, resolve),
        projection=_bind_projection(plan.projection, resolve),
        limit=limit,
        offset=offset,
        parameters=(),
    )


def reveto_plan(data: "DataSystem", plan: QueryPlan,
                resolve: Callable[[Parameter], Any]) -> QueryPlan:
    """Re-check the scan-vs-path crossover against bound values.

    A template's access path was chosen *blind* when its range carried a
    placeholder — the statistics could not veto the path at plan time
    (the planner stashed the deferred terms as ``reveto`` in the access
    detail).  Here, at bind time, the concrete literal is known: if the
    estimated selectivity now crosses the A5 threshold, the bound plan
    is demoted to the atom-type scan the literal form would have gotten
    — with the sargable terms pushed down as its search argument, and
    any access-path-served ordering surrendered (the residual
    qualification is untouched, so results are identical either way).
    Counted as ``plans_revetoed``.
    """
    access = plan.root_access
    if access.kind != "access_path":
        return plan
    terms = access.detail.get("reveto")
    if not terms:
        return plan
    bound_terms = [
        (attr, op, resolve(value) if isinstance(value, Parameter) else value)
        for attr, op, value in terms
    ]
    estimate = data.statistics.selectivity(access.atom_type, bound_terms)
    if estimate is None or estimate <= data.scan_threshold:
        return plan
    data.access.counters.bump("plans_revetoed")
    search = [
        (attr, op, resolve(value) if isinstance(value, Parameter) else value)
        for attr, op, value in access.detail.get("fallback_search", ())
    ]
    demoted = RootAccess("atom_type_scan", access.atom_type,
                         {"search": search, "selectivity": estimate})
    return replace(plan, root_access=demoted,
                   order_served_by_access=False, order_prefix_served=0)


def bind_statement(statement: Statement,
                   resolve: Callable[[Parameter], Any]) -> Statement:
    """A DML statement with its placeholder values substituted (DDL and
    parameter-free statements pass through unchanged)."""
    def bind_value(value: Expr | list[Expr]) -> Expr | list[Expr]:
        if isinstance(value, list):
            return [bind_value(item) for item in value]
        return bind_expr(value, resolve)

    if isinstance(statement, InsertStatement):
        assignments = [(attr, bind_value(value))
                       for attr, value in statement.assignments]
        return InsertStatement(statement.type_name, assignments)
    if isinstance(statement, DeleteStatement):
        return DeleteStatement(statement.labels, statement.from_clause,
                               bind_expr(statement.where, resolve))
    if isinstance(statement, ModifyStatement):
        assignments = [(attr, bind_value(value))
                       for attr, value in statement.assignments]
        return ModifyStatement(statement.label, assignments,
                               statement.from_clause,
                               bind_expr(statement.where, resolve))
    return statement


# ---------------------------------------------------------------------------
# Prepared statements
# ---------------------------------------------------------------------------

class PreparedStatement:
    """One MQL statement, parsed / validated / planned exactly once.

    SELECTs carry a catalog-versioned plan template; ``execute()`` binds
    parameters into a fresh plan copy and compiles the operator
    pipeline — re-executions perform **zero** parse/plan work until DDL
    or an LDL tuning-structure change bumps the catalog version, which
    transparently re-plans (``plans_invalidated``).  DML/DDL statements
    skip the plan template (their execution re-qualifies against current
    state by design) but still skip re-parsing.

    Thread-safety: planning and execution run under the engine mutex,
    and binding never mutates the shared template — one statement object
    may be executed from many threads and serving sessions.
    """

    def __init__(self, data: "DataSystem", text: str,
                 statement: Statement, *,
                 template: "PreparedStatement | None" = None,
                 lifted: tuple = ()) -> None:
        self._data = data
        self.text = text
        self.statement = statement
        self.kind = "select" if isinstance(statement, SelectStatement) \
            else "statement"
        #: The handle that owns this one's plan (``None``: plans itself).
        self._template = template
        #: Literal values bound as the reserved ``:__tN`` names on every
        #: call (a literal variant of the template's shape).
        self._lifted = tuple(lifted)
        if template is not None:
            self.param_count = template.param_count
            self.param_names = tuple(
                name for name in template.param_names
                if not (lifted and name.startswith(TEMPLATE_PARAM_PREFIX)))
            return
        positional: set[int] = set()
        names: list[str] = []
        for parameter in iter_parameters(statement):
            if parameter.name is not None:
                if parameter.name not in names:
                    names.append(parameter.name)
            else:
                positional.add(parameter.index or 0)
        #: Number of positional ``?`` slots (the highest index + 1).
        self.param_count = max(positional) + 1 if positional else 0
        #: Named ``:name`` slots, in first-appearance order (a literal
        #: variant hides the reserved ``:__tN`` names it binds itself).
        self.param_names = tuple(names)
        #: (plan template, catalog version) — swapped as one tuple.
        self._state: tuple[QueryPlan | None, int] = (None, -1)
        if self.kind == "select":
            self._replan()

    # -- the plan template ----------------------------------------------------

    def _replan(self) -> None:
        """(Re)build the plan template; caller holds the engine mutex."""
        data = self._data
        version = data.catalog_version
        plan = data.plan_select(self.statement)
        data.access.counters.bump("statements_planned")
        self._state = (plan, version)

    def plan(self) -> QueryPlan:
        """The current (unbound) plan template.

        Re-validates and re-plans when the catalog version moved since
        the template was built — a dropped atom type raises here instead
        of executing stale, and a newly created tuning structure is
        picked up.  A literal variant defers to its template, so every
        variant of one shape shares one plan and one replan.
        """
        if self._template is not None:
            return self._template.plan()
        if self.kind != "select":
            raise ExecutionError(
                f"{type(self.statement).__name__} has no query plan"
            )
        plan, version = self._state
        if version != self._data.catalog_version:
            self._data.access.counters.bump("plans_invalidated")
            self._replan()
            plan, _version = self._state
        assert plan is not None
        return plan

    def dependency_types(self) -> frozenset[str]:
        """The atom types whose commits can change this SELECT's result:
        the root molecule type plus every type the plan's structure tree
        references (the live-query dependency set)."""
        plan = self.plan()
        types = set(plan.structure.atom_types())
        types.add(plan.root_access.atom_type)
        return frozenset(types)

    # -- binding and execution ------------------------------------------------

    def _bindings(self, args: tuple, named: dict[str, Any]) -> Bindings:
        if self._lifted:
            for name in named:
                if name.startswith(TEMPLATE_PARAM_PREFIX):
                    raise ExecutionError(
                        f"parameter name {name!r} is reserved for "
                        f"internally bound literals"
                    )
        if len(args) != self.param_count:
            raise ExecutionError(
                f"statement takes {self.param_count} positional "
                f"parameter(s), got {len(args)}"
            )
        unknown = set(named) - set(self.param_names)
        if unknown:
            raise ExecutionError(
                f"unknown named parameter(s) {sorted(unknown)}; statement "
                f"declares {sorted(self.param_names)}"
            )
        missing = set(self.param_names) - set(named)
        if missing:
            raise ExecutionError(
                f"no value bound for parameter(s) "
                f"{', '.join(':' + name for name in sorted(missing))}"
            )
        if self._lifted:
            named = dict(named)
            for index, value in enumerate(self._lifted):
                named[template_param_name(index)] = value
        return Bindings(args, named)

    def bind(self, args: tuple = (),
             params: dict[str, Any] | None = None) -> QueryPlan:
        """The concrete plan of one execution (SELECT only).

        Binding also settles the decisions the template had to defer
        (``data.settle``): an access path chosen blind past a
        placeholder is re-checked against the now-concrete values
        (:func:`reveto_plan`), and on a cluster a concrete key picks its
        shard.
        """
        bindings = self._bindings(args, params or {})
        plan = bind_plan(self.plan(), bindings)
        return self._data.settle(plan, bindings.resolve)

    def bound_statement(self, args: tuple = (),
                        params: dict[str, Any] | None = None) -> Statement:
        """The statement AST with placeholder values substituted."""
        bindings = self._bindings(args, params or {})
        return bind_statement(self.statement, bindings.resolve)

    def execute(self, *args: Any, **params: Any) -> ResultSet:
        """Bind the parameters and run the statement.

        SELECTs return the usual lazy cursor over a freshly compiled
        pipeline; DML binds the AST and executes it.  Counted as
        ``prepared_executions``.
        """
        data = self._data
        data.access.counters.bump("prepared_executions")
        with data.mutex:
            if self.kind != "select":
                return data.execute(self.bound_statement(args, params))
            return self._cursor(args, params)

    def _cursor(self, args: tuple, params: dict[str, Any],
                pinned: bool = False) -> ResultSet:
        """A lazy cursor over the bound plan, lowered by the data system
        (``data.lower``: the compiled pipeline, or on a cluster its
        ``Route``/``Gather``).  Unpinned it reads the live atom manager
        (the embedded read path of :meth:`execute`)."""
        data = self._data
        plan = self.bind(args, params)
        pipeline = data.lower(plan, pinned)
        data.obs.watch(self.text, pipeline)
        return ResultSet(source=pipeline, plan=plan, mutex=data.mutex)

    def open(self, args: tuple = (),
             params: dict[str, Any] | None = None) -> ResultSet:
        """Bind and execute a SELECT over a pinned snapshot.

        The lock-free serving read path as one call: bind the plan, pin
        a snapshot at the current atom-version epoch (on a cluster, one
        per touched shard), compile the pipeline against it, and hand
        back a lazy :class:`ResultSet` that releases the snapshot when
        its cursor closes.  Serving sessions and live-query requeries
        open every cursor here.
        """
        with self._data.mutex:
            return self._cursor(args, params or {}, pinned=True)

    def trace(self, args: tuple = (),
              params: dict[str, Any] | None = None) -> Span:
        """Execute to exhaustion under a forced trace (SELECT only).

        Unlike the sampled tracing of the regular execution path, this
        always produces the span tree — the programmatic twin of
        ``explain(analyze=True)``, and what the TRACE wire message runs
        server-side.  The root span's duration is the wall-time of the
        whole drain and it carries the row count (and a cluster plan's
        routing annotation); its children are the operator spans,
        rebuilt from the operators' own ``time_total`` / ``rows_out``
        measurements — on a cluster one ``shard:<i>`` span per touched
        shard, under a ``Gather`` on a scatter.
        """
        if self.kind != "select":
            raise PrimaError("TRACE supports SELECT statements only")
        data = self._data
        with data.mutex:
            plan = self.bind(args, params or {})
            span = Span("query", attrs={"mql": self.text,
                                        **(plan.routing or {})})
            pipeline = data.lower(plan)
            try:
                while pipeline.next() is not None:
                    pass
            finally:
                pipeline.close()
            span.finish()
            span.attrs["rows"] = pipeline.rows_out
            span_from_operator(pipeline, parent=span)
            data.obs.observe_query(self.text, span.duration, span)
            return span

    def explain(self, analyze: bool = False, args: tuple = (),
                params: dict[str, Any] | None = None) -> str:
        """The processing plan (SELECT only).

        Without bindings the *template* is rendered — placeholders show
        as ``?n`` / ``:name`` markers; a literal variant renders its
        bound plan.  With bindings (or under ``analyze=True``, which
        must execute the pipeline) the bound plan is rendered;
        ``analyze=True`` additionally renders the query's **span tree**
        (see :meth:`trace`): the root span's measured wall-time with one
        child span per operator carrying rows and self/total time.
        """
        if self.kind != "select":
            raise PrimaError("EXPLAIN supports SELECT statements only")
        params = params or {}
        with self._data.mutex:
            if args or params or self._lifted or (
                    analyze and (self.param_count or self.param_names)):
                plan = self.bind(args, params)
            else:
                plan = self.plan()
            if not analyze:
                return plan.explain()
            span = self.trace(args, params)
        lines = [plan.explain(), "  analyzed:"]
        lines.extend("    " + line for line in span.render())
        return "\n".join(lines)

    def __repr__(self) -> str:
        slots = []
        if self.param_count:
            slots.append(f"{self.param_count} positional")
        if self.param_names:
            slots.append(", ".join(":" + n for n in self.param_names))
        inner = f" [{'; '.join(slots)}]" if slots else ""
        return f"{type(self).__name__}({self.kind}{inner}, {self.text!r})"


# ---------------------------------------------------------------------------
# Auto-parameterization: literal variants of one statement shape
# ---------------------------------------------------------------------------

#: Operators whose right-hand literal is a *value* (liftable).
_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")


def _literal_at(tokens: list, i: int) -> tuple[Any, int] | None:
    """The literal value starting at token ``i`` and its token width."""
    token = tokens[i]
    if token.kind == "STRING":
        return token.value, 1
    if token.kind == "INT":
        return int(token.value), 1
    if token.kind == "FLOAT":
        return float(token.value), 1
    if token.is_op("-") and tokens[i + 1].kind in ("INT", "FLOAT"):
        nxt = tokens[i + 1]
        value = int(nxt.value) if nxt.kind == "INT" else float(nxt.value)
        return -value, 2
    return None


def _render_token(token: Any) -> str | None:
    """One token back as source text (``None``: not renderable)."""
    if token.kind == "STRING":
        if "'" not in token.value:
            return f"'{token.value}'"
        if '"' not in token.value:
            return f'"{token.value}"'
        return None   # needs both quote kinds — leave this text alone
    return token.value


#: Prefix of the internal named placeholders carrying lifted literals.
#: Named (not positional) so a template coexists with the statement's
#: own explicit ``?`` placeholders without renumbering them.
TEMPLATE_PARAM_PREFIX = "__t"

#: First keywords of templatable statements: SELECT plus the DML verbs
#: (literal variants of an INSERT/DELETE/MODIFY shape share one parsed
#: statement the same way repeated SELECT shapes share one plan).
_TEMPLATE_KINDS = ("SELECT", "INSERT", "DELETE", "MODIFY")


def template_param_name(index: int) -> str:
    """Name of the ``index``-th internal lifted-literal placeholder."""
    return f"{TEMPLATE_PARAM_PREFIX}{index}"


def extract_template(text: str) -> tuple[str, tuple] | None:
    """Lift a statement's value literals into internal parameters.

    Every literal in a *value position* — right of a comparison
    operator (which covers WHERE terms *and* INSERT/MODIFY assignment
    scalars), or an integer after LIMIT/OFFSET — becomes an internal
    named placeholder ``:__tN``; the result is ``(template_text,
    lifted_values)``.  Explicit ``?`` / ``:name`` placeholders already
    in the text pass through untouched, so a half-parameterized
    statement still shares one template for its remaining literals.
    Returns ``None`` when the first keyword is not SELECT / INSERT /
    DELETE / MODIFY, when the text already uses the reserved ``__t``
    name prefix, or when no literal is liftable; the caller then
    proceeds on the ordinary literal path.  The rebuilt template is
    token-equivalent MQL (whitespace-joined), so it parses to the same
    statement shape regardless of the original formatting.
    """
    try:
        tokens = tokenize(text)
    except PrimaError:
        return None   # the regular path reports the lexer error
    if not tokens or not tokens[0].is_keyword(*_TEMPLATE_KINDS):
        return None
    rendered: list[str] = []
    values: list[Any] = []
    i = 0
    while tokens[i].kind != "EOF":
        token = tokens[i]
        if token.kind == "IDENT" \
                and token.value.startswith(TEMPLATE_PARAM_PREFIX):
            return None   # reserved prefix already taken by the text
        lifted = None
        if token.is_op(*_COMPARISONS):
            lifted = _literal_at(tokens, i + 1)
        elif token.is_keyword("LIMIT", "OFFSET") \
                and tokens[i + 1].kind == "INT":
            lifted = int(tokens[i + 1].value), 1
        if lifted is not None:
            value, width = lifted
            rendered.append(token.value)
            rendered.append(":" + template_param_name(len(values)))
            values.append(value)
            i += 1 + width
            continue
        piece = _render_token(token)
        if piece is None:
            return None
        rendered.append(piece)
        i += 1
    if not values:
        return None
    return " ".join(rendered), tuple(values)


def template_matches(template: "PreparedStatement",
                     values: tuple) -> bool:
    """Whether a shared template fits these lifted literals: it must
    declare exactly the internal ``__tN`` names the values fill (its
    explicit placeholders — the text's own ``?`` / ``:name`` — remain
    open for the caller)."""
    internal = {name for name in template.param_names
                if name.startswith(TEMPLATE_PARAM_PREFIX)}
    return internal == {template_param_name(i)
                        for i in range(len(values))}


# ---------------------------------------------------------------------------
# The shared plan cache
# ---------------------------------------------------------------------------

class PlanCache:
    """LRU cache of prepared statements, keyed on normalized text.

    The cache holds :class:`PreparedStatement` objects, which carry
    their own catalog version — staleness is handled by the statement
    (transparent replan), not by eviction, so a cached entry stays
    valid across DDL.  Thread-safe; ``capacity=0`` disables caching.
    """

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[str, PreparedStatement]" = OrderedDict()
        self._lock = threading.Lock()
        #: Entries displaced by the LRU bound so far.
        self.evictions = 0
        #: Template keys seen exactly once — a second sighting promotes
        #: the shared template (see DataSystem auto-parameterization).
        self._template_candidates: set[str] = set()

    #: MQL string literals ('...' or "..."), matched so normalization
    #: never touches whitespace *inside* them.
    _STRING_LITERAL = re.compile(r"('[^']*'|\"[^\"]*\")")

    @classmethod
    def normalize(cls, text: str) -> str:
        """The cache key of one statement text.

        Whitespace outside string literals is collapsed (so formatting
        variants of one statement share a key); literals are kept
        verbatim — ``name = 'a  b'`` and ``name = 'a b'`` are different
        statements and must never share a cached plan.
        """
        parts = cls._STRING_LITERAL.split(text)
        return "".join(
            part if index % 2 else " ".join(part.split())
            for index, part in enumerate(parts)
        )

    def get(self, key: str) -> PreparedStatement | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: str, prepared: PreparedStatement) -> None:
        if self.capacity <= 0:
            return
        with self._lock:
            self._entries[key] = prepared
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def note_template(self, key: str) -> bool:
        """Record a template-key sighting; ``True`` when seen before.

        One-off literal statements never pay the template-parse cost:
        only the *second* distinct literal variant of a shape (its
        template key noted here before) promotes the shared template.
        The candidate set is bounded — overflowing resets it, which only
        delays a promotion by one sighting.
        """
        with self._lock:
            if key in self._template_candidates:
                return True
            if len(self._template_candidates) >= 4 * max(self.capacity, 32):
                self._template_candidates.clear()
            self._template_candidates.add(key)
            return False

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._template_candidates.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PlanCache({len(self)}/{self.capacity} entries, "
                f"{self.evictions} evictions)")


# ---------------------------------------------------------------------------
# Preparing through the cache
# ---------------------------------------------------------------------------

def prepare_statement(data: "DataSystem", mql: str,
                      use_cache: bool = True) -> PreparedStatement:
    """Parse, validate, and plan one statement — through the cache.

    ``data`` is whatever a statement handle plans and lowers through: a
    :class:`~repro.data.executor.DataSystem`, or a cluster's coordinator
    (both expose this function as their ``prepare``).  Repeated
    (whitespace-normalized) SELECT text returns the cached
    :class:`PreparedStatement` without touching the parser
    (``plan_cache_hits``); a miss parses and plans once
    (``statements_parsed`` / ``plan_cache_misses``) and caches the
    result.  DML/DDL statements are prepared but never cached — their
    execution must re-qualify against current state anyway.

    *Literal variants* of one statement shape (``... WHERE n = 1`` /
    ``... WHERE n = 2``) are recognised on the second distinct variant
    and promoted to a single shared plan template with the literals as
    bound parameters (``plan_cache_template_hits``) — the repetitive
    checkout workload stops filling the cache with per-value plans.
    """
    key = PlanCache.normalize(mql)
    caching = use_cache and data.plan_cache.capacity > 0
    if caching:
        hit = data.plan_cache.get(key)
        if hit is not None:
            data.access.counters.bump("plan_cache_hits")
            return hit
        variant = _prepare_via_template(data, mql)
        if variant is not None:
            return variant
    statement = parse(mql)
    data.access.counters.bump("statements_parsed")
    prepared = PreparedStatement(data, mql, statement)
    if caching and prepared.kind == "select":
        data.access.counters.bump("plan_cache_misses")
        data.plan_cache.put(key, prepared)
    return prepared


def _prepare_via_template(data: "DataSystem",
                          mql: str) -> PreparedStatement | None:
    """Share one cached plan across literal variants of a statement.

    The statement's literals are lifted into internal named parameters
    (:func:`extract_template`); the resulting *template key* identifies
    the statement shape.  The first sighting of a shape only notes the
    key (a one-off literal query plans normally — nothing changes for
    it); the second distinct variant parses and caches the shared
    template; every later variant binds its literals into that template
    without parsing (``plan_cache_template_hits``): it is a handle over
    the template's statement that carries the lifted values and shares
    the template's plan.  Returns ``None`` whenever the literal path
    should proceed as usual.
    """
    extracted = extract_template(mql)
    if extracted is None:
        return None
    template_text, values = extracted
    tkey = PlanCache.normalize(template_text)
    template = data.plan_cache.get(tkey)
    if template is None:
        if not data.plan_cache.note_template(tkey):
            return None   # first sighting of this shape
        statement = parse(template_text)
        data.access.counters.bump("statements_parsed")
        template = PreparedStatement(data, template_text, statement)
        if not template_matches(template, values):
            return None
        data.access.counters.bump("plan_cache_misses")
        data.plan_cache.put(tkey, template)
    else:
        if not template_matches(template, values):
            return None
        data.access.counters.bump("plan_cache_template_hits")
    return PreparedStatement(data, mql, template.statement,
                             template=template, lifted=values)
