"""Qualification evaluation over molecules (the WHERE machinery).

Semantics, following the paper's examples:

* A bare attribute path (``brep_no``) reads the root atom.
* A labelled path (``edge.length``) ranges over the component atoms with
  that label; without an explicit quantifier a comparison over such a path
  holds when **some** component satisfies it (existential reading).
* ``EXISTS_AT_LEAST (n) label: cond`` / ``EXISTS_EXACTLY`` / ``FOR_ALL`` /
  ``EXISTS`` quantify explicitly over the components with the label
  (Table 2.1d).
* ``attr = EMPTY`` holds for an empty repeating group or a NULL reference
  (Table 2.1c: ``WHERE sub = EMPTY``).
* Recursion levels: ``label (n).attr`` addresses the atoms exactly ``n``
  recursion steps below the root (``piece_list (0).solid_no`` is the seed
  qualification of Table 2.1b).
* RECORD fields are addressed by continued dotted paths
  (``point.placement.x_coord``).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.access.btree import make_key
from repro.errors import ExecutionError
from repro.mad.molecule import Molecule
from repro.mql.ast import (
    And,
    Comparison,
    EmptyLiteral,
    Expr,
    Literal,
    Not,
    Or,
    Parameter,
    Path,
    Quantified,
    RefLookup,
)


class PredicateEvaluator:
    """Evaluates qualification expressions against one molecule."""

    def __init__(self, resolve_ref=None) -> None:
        #: Callback (type_name, key) -> Surrogate for REF lookups.
        self._resolve_ref = resolve_ref

    # -- public API -----------------------------------------------------------------

    def matches(self, expr: Expr, molecule: Molecule) -> bool:
        return self._eval(expr, molecule)

    # -- expression walk --------------------------------------------------------------

    def _eval(self, expr: Expr, molecule: Molecule) -> bool:
        if isinstance(expr, And):
            return all(self._eval(part, molecule) for part in expr.parts)
        if isinstance(expr, Or):
            return any(self._eval(part, molecule) for part in expr.parts)
        if isinstance(expr, Not):
            return not self._eval(expr.inner, molecule)
        if isinstance(expr, Quantified):
            return self._eval_quantified(expr, molecule)
        if isinstance(expr, Comparison):
            return self._eval_comparison(expr, molecule)
        raise ExecutionError(f"cannot evaluate {expr!r} as a condition")

    def _eval_quantified(self, expr: Quantified, molecule: Molecule) -> bool:
        components = list(_components_with_label(molecule, expr.label))
        hits = sum(
            1 for comp in components if self._eval(expr.condition, comp)
        )
        if expr.quantifier == "exists":
            return hits >= 1
        if expr.quantifier == "at_least":
            assert expr.count is not None
            return hits >= expr.count
        if expr.quantifier == "exactly":
            assert expr.count is not None
            return hits == expr.count
        if expr.quantifier == "all":
            return hits == len(components)
        raise ExecutionError(f"unknown quantifier {expr.quantifier!r}")

    def _eval_comparison(self, expr: Comparison, molecule: Molecule) -> bool:
        left_values = self._operand_values(expr.left, molecule)
        right_values = self._operand_values(expr.right, molecule)
        # EMPTY comparisons: emptiness of the single addressed value.
        if isinstance(expr.right, EmptyLiteral):
            return all(_check_empty(expr.op, v) for v in left_values) \
                if left_values else expr.op == "="
        if isinstance(expr.left, EmptyLiteral):
            return all(_check_empty(expr.op, v) for v in right_values) \
                if right_values else expr.op == "="
        # Existential reading over multi-valued paths.
        for left in left_values:
            for right in right_values:
                if _compare(expr.op, left, right):
                    return True
        return False

    def _operand_values(self, operand: Expr, molecule: Molecule) -> list[Any]:
        if isinstance(operand, Literal):
            return [operand.value]
        if isinstance(operand, EmptyLiteral):
            return [operand]
        if isinstance(operand, RefLookup):
            if self._resolve_ref is None:
                raise ExecutionError("REF lookups are not available here")
            surrogate = self._resolve_ref(operand.type_name, operand.key)
            if surrogate is None:
                raise ExecutionError(
                    f"REF {operand.type_name}({operand.key}) matches no atom"
                )
            return [surrogate]
        if isinstance(operand, Path):
            return list(path_values(operand, molecule))
        if isinstance(operand, Parameter):
            raise ExecutionError(
                f"placeholder {operand.render()} is unbound at evaluation "
                f"time — execute through a prepared statement with bindings "
                f"(see repro.data.prepared)"
            )
        raise ExecutionError(f"cannot evaluate operand {operand!r}")


# ---------------------------------------------------------------------------
# Parameter binding: substituting placeholders in qualification expressions
# ---------------------------------------------------------------------------

def bind_expr(expr: Expr | None,
              resolve: Callable[[Parameter], Any]) -> Expr | None:
    """Substitute every :class:`~repro.mql.ast.Parameter` in ``expr``.

    Returns a new expression tree with each placeholder replaced by
    ``Literal(resolve(parameter))``; subtrees without parameters are
    shared, not copied, so binding a mostly-literal qualification is
    cheap and never mutates the (possibly cached, shared) template.
    REF lookup keys are bound too.  ``None`` passes through.
    """
    if expr is None:
        return None
    if isinstance(expr, Parameter):
        return Literal(resolve(expr))
    if isinstance(expr, Comparison):
        left = bind_expr(expr.left, resolve)
        right = bind_expr(expr.right, resolve)
        if left is expr.left and right is expr.right:
            return expr
        return Comparison(expr.op, left, right)
    if isinstance(expr, And):
        parts = [bind_expr(part, resolve) for part in expr.parts]
        if all(new is old for new, old in zip(parts, expr.parts)):
            return expr
        return And(parts)
    if isinstance(expr, Or):
        parts = [bind_expr(part, resolve) for part in expr.parts]
        if all(new is old for new, old in zip(parts, expr.parts)):
            return expr
        return Or(parts)
    if isinstance(expr, Not):
        inner = bind_expr(expr.inner, resolve)
        return expr if inner is expr.inner else Not(inner)
    if isinstance(expr, Quantified):
        condition = bind_expr(expr.condition, resolve)
        if condition is expr.condition:
            return expr
        return Quantified(expr.quantifier, expr.count, expr.label, condition)
    if isinstance(expr, RefLookup):
        if not any(isinstance(part, Parameter) for part in expr.key):
            return expr
        key = tuple(resolve(part) if isinstance(part, Parameter) else part
                    for part in expr.key)
        return RefLookup(expr.type_name, key)
    return expr


# ---------------------------------------------------------------------------
# Path resolution over molecules
# ---------------------------------------------------------------------------

def _components_with_label(molecule: Molecule,
                           label: str) -> Iterator[Molecule]:
    """All component molecules (at any depth) carrying ``label``."""
    if molecule.node.label == label:
        yield molecule
    for comps in molecule.components.values():
        for comp in comps:
            yield from _components_with_label(comp, label)


def _atoms_at_level(molecule: Molecule, level: int) -> Iterator[Molecule]:
    """Molecules exactly ``level`` recursion/nesting steps below the root."""
    if level == 0:
        yield molecule
        return
    for comps in molecule.components.values():
        for comp in comps:
            yield from _atoms_at_level(comp, level - 1)


def path_values(path: Path, molecule: Molecule) -> Iterator[Any]:
    """All values the path denotes within the molecule."""
    first = path.parts[0]
    if path.level is not None:
        if first != molecule.node.label:
            # level-indexed paths address the (recursive) root label
            matches = list(_components_with_label(molecule, first))
        else:
            matches = [molecule]
        targets: list[Molecule] = []
        for match in matches:
            targets.extend(_atoms_at_level(match, path.level))
        attr_parts = path.parts[1:]
        for target in targets:
            yield from _dig(target.atom, attr_parts)
        return
    if first == molecule.node.label:
        yield from _dig(molecule.atom, path.parts[1:])
        return
    component_matches = list(_components_with_label(molecule, first))
    if component_matches:
        for comp in component_matches:
            yield from _dig(comp.atom, path.parts[1:])
        return
    # Bare attribute of the root atom.
    yield from _dig(molecule.atom, path.parts)


def _dig(atom: dict[str, Any], parts: tuple[str, ...]) -> Iterator[Any]:
    """Follow attribute / record-field parts inside one atom dict."""
    if not parts:
        yield atom
        return
    current: Any = atom
    for part in parts:
        if isinstance(current, dict) and part in current:
            current = current[part]
        else:
            return
    yield current


# ---------------------------------------------------------------------------
# Scalar comparison
# ---------------------------------------------------------------------------

def _compare(op: str, left: Any, right: Any) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if left is None or right is None:
        return False
    try:
        lk, rk = make_key(left), make_key(right)
    except Exception:
        return False
    if op == "<":
        return lk < rk
    if op == "<=":
        return lk <= rk
    if op == ">":
        return rk < lk
    if op == ">=":
        return rk <= lk
    raise ExecutionError(f"unknown comparison operator {op!r}")


def _check_empty(op: str, value: Any) -> bool:
    is_empty = value is None or value == [] or value == ()
    if op == "=":
        return is_empty
    if op == "!=":
        return not is_empty
    raise ExecutionError("EMPTY supports only = and != comparisons")
