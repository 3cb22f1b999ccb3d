"""Query simplification (paper, 3.1).

The query simplification step transforms the qualification into a normal
form the planner can exploit: NOTs are pushed inward (De Morgan), nested
ANDs/ORs are flattened, constant subexpressions are folded, and the
top-level conjuncts are exposed so the planner can pick off sargable root
predicates ("qualifications pushed down for efficiency reasons").
"""

from __future__ import annotations

from typing import Any

from repro.mql.ast import (
    And,
    Comparison,
    Expr,
    Literal,
    Not,
    Or,
    Parameter,
    Path,
    Quantified,
)

_NEGATED_OP = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def simplify(expr: Expr | None) -> Expr | None:
    """Normalise a qualification expression (None passes through)."""
    if expr is None:
        return None
    return _flatten(_push_not(expr, negate=False))


def _push_not(expr: Expr, negate: bool) -> Expr:
    if isinstance(expr, Not):
        return _push_not(expr.inner, not negate)
    if isinstance(expr, And):
        parts = [_push_not(p, negate) for p in expr.parts]
        return Or(parts) if negate else And(parts)
    if isinstance(expr, Or):
        parts = [_push_not(p, negate) for p in expr.parts]
        return And(parts) if negate else Or(parts)
    if isinstance(expr, Comparison) and negate:
        return Comparison(_NEGATED_OP[expr.op], expr.left, expr.right)
    if isinstance(expr, Quantified):
        inner = _push_not(expr.condition, negate=False)
        fixed = Quantified(expr.quantifier, expr.count, expr.label, inner)
        return Not(fixed) if negate else fixed
    return Not(expr) if negate else expr


def _flatten(expr: Expr) -> Expr:
    if isinstance(expr, And):
        parts: list[Expr] = []
        for part in expr.parts:
            flat = _flatten(part)
            if isinstance(flat, And):
                parts.extend(flat.parts)
            elif isinstance(flat, Literal) and flat.value is True:
                continue
            else:
                parts.append(flat)
        if not parts:
            return Literal(True)
        return parts[0] if len(parts) == 1 else And(parts)
    if isinstance(expr, Or):
        parts = []
        for part in expr.parts:
            flat = _flatten(part)
            if isinstance(flat, Or):
                parts.extend(flat.parts)
            elif isinstance(flat, Literal) and flat.value is False:
                continue
            else:
                parts.append(flat)
        if not parts:
            return Literal(False)
        return parts[0] if len(parts) == 1 else Or(parts)
    if isinstance(expr, Comparison):
        return _fold_constant(expr)
    if isinstance(expr, Quantified):
        return Quantified(expr.quantifier, expr.count, expr.label,
                          _flatten(expr.condition))
    return expr


def _fold_constant(expr: Comparison) -> Expr:
    """Fold literal-vs-literal comparisons to TRUE/FALSE."""
    if isinstance(expr.left, Literal) and isinstance(expr.right, Literal):
        left, right = expr.left.value, expr.right.value
        try:
            result = {
                "=": left == right,
                "!=": left != right,
                "<": left < right,
                "<=": left <= right,
                ">": left > right,
                ">=": left >= right,
            }[expr.op]
        except TypeError:
            return expr
        return Literal(bool(result))
    return expr


def conjuncts(expr: Expr | None) -> list[Expr]:
    """Top-level AND conjuncts of a (simplified) qualification."""
    if expr is None:
        return []
    if isinstance(expr, And):
        return list(expr.parts)
    return [expr]


def sargable_root_terms(expr: Expr | None, root_label: str,
                        root_attrs: set[str]) -> list[tuple[str, str, Any]]:
    """(attr, op, value) conjuncts over root attributes.

    These are the predicates the planner can push into the root access
    (key lookup, access-path scan, or search argument of an atom-type
    scan); level-0 seed qualifications count as root predicates.  The
    value of a term is a literal **or** a prepared-statement
    :class:`~repro.mql.ast.Parameter` — a placeholder compares like a
    literal for sargability, so ``WHERE k = ?`` keeps the same access
    path the literal form gets, and binding substitutes the concrete
    value into the derived key range at execute time.
    """
    out: list[tuple[str, str, Any]] = []
    for part in conjuncts(expr):
        if not isinstance(part, Comparison):
            continue
        left, right, op = part.left, part.right, part.op
        if isinstance(right, Path) and isinstance(left, (Literal, Parameter)):
            left, right = right, left
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                  "=": "=", "!=": "!="}[op]
        if not isinstance(left, Path) or \
                not isinstance(right, (Literal, Parameter)):
            continue
        if isinstance(right, Parameter):
            right = Literal(right)   # the parameter itself is the value
        if isinstance(right.value, bool) or right.value is None:
            continue
        parts = left.parts
        if left.level not in (None, 0):
            continue
        if len(parts) == 1 and parts[0] in root_attrs:
            out.append((parts[0], op, right.value))
        elif len(parts) == 2 and parts[0] == root_label and \
                parts[1] in root_attrs:
            out.append((parts[1], op, right.value))
    return out
