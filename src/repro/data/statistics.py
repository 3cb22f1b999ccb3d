"""Meta-data statistics for the molecule-type-specific optimization.

Query preparation exploits "information from the meta-data" and the
molecule-type-specific optimization "has to be aware of access methods,
sort orders, partitions of atom types, and physical clusters" (paper,
3.1).  This module supplies the quantitative half of that awareness:

* per atom type — cardinality;
* per scalar attribute — min / max / distinct-estimate, collected by a
  single pass over the base containers;
* per association — average fan-out (how many components one parent
  contributes), which prices molecule construction.

Statistics are collected on demand (``ANALYZE``-style) and consumed by the
planner's selectivity estimator: a range predicate whose estimated
selectivity exceeds the scan threshold is answered by the atom-type scan
even when an access path exists — the crossover benchmark A5 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.access.btree import make_key
from repro.access.system import AccessSystem
from repro.mad.types import reference_values


#: How many most-common values ANALYZE retains per attribute.  Only
#: values observed more than once qualify — a uniform column keeps no
#: MCV list and equality stays at the classic 1/distinct.
MCV_KEEP = 8


@dataclass
class AttributeStatistics:
    """Value distribution summary of one scalar attribute."""

    count: int = 0
    nulls: int = 0
    minimum: Any = None
    maximum: Any = None
    distinct: int = 0
    #: Most-common values: ``repr(value) -> occurrence count`` for the
    #: top :data:`MCV_KEEP` values with count >= 2.  Makes equality
    #: selectivity *value-aware*: a probe on a dominant value estimates
    #: its true fraction instead of the uniform 1/distinct, so the
    #: bind-time re-veto can demote an access path that equality would
    #: have kept under the uniform assumption.
    most_common: dict[str, int] = field(default_factory=dict)

    def _equality(self, value: Any) -> float:
        if not self.most_common:
            return 1.0 / max(self.distinct, 1)
        hit = self.most_common.get(repr(value))
        if hit is not None:
            return hit / max(self.count, 1)
        # Residual mass spread uniformly over the non-MCV values.
        mcv_mass = sum(self.most_common.values())
        rest_rows = max(self.count - self.nulls - mcv_mass, 0)
        rest_distinct = max(self.distinct - len(self.most_common), 1)
        return max(rest_rows / max(self.count, 1) / rest_distinct,
                   1e-9)

    def selectivity(self, op: str, value: Any) -> float:
        """Estimated fraction of atoms satisfying ``attr op value``.

        Equality consults the most-common-value list first (value-aware
        estimate) and falls back to 1/distinct; ranges interpolate
        linearly between the observed minimum and maximum for numeric
        attributes and fall back to 1/3 otherwise (the classic System R
        default).
        """
        if self.count == 0:
            return 0.0
        if op == "=":
            return self._equality(value)
        if op == "!=":
            return 1.0 - self._equality(value)
        if not isinstance(value, (int, float)) or \
                not isinstance(self.minimum, (int, float)) or \
                not isinstance(self.maximum, (int, float)) or \
                self.maximum == self.minimum:
            return 1.0 / 3.0
        span = self.maximum - self.minimum
        position = (value - self.minimum) / span
        position = min(max(position, 0.0), 1.0)
        if op in ("<", "<="):
            return position
        if op in (">", ">="):
            return 1.0 - position
        return 1.0 / 3.0


@dataclass
class TypeStatistics:
    """Statistics of one atom type."""

    cardinality: int = 0
    attributes: dict[str, AttributeStatistics] = field(default_factory=dict)
    #: reference attribute -> average number of targets per atom.
    fanout: dict[str, float] = field(default_factory=dict)


class StatisticsCatalog:
    """Collects and serves meta-data statistics (ANALYZE on demand)."""

    def __init__(self, access: AccessSystem) -> None:
        self._access = access
        self._types: dict[str, TypeStatistics] = {}

    # -- collection ----------------------------------------------------------------

    def analyze(self, type_name: str | None = None) -> int:
        """Collect statistics for one atom type (or every type); returns
        the number of atoms examined."""
        names = ([type_name] if type_name is not None
                 else self._access.schema.atom_type_names())
        examined = 0
        for name in names:
            examined += self._analyze_one(name)
        return examined

    def _analyze_one(self, type_name: str) -> int:
        atom_type = self._access.schema.atom_type(type_name)
        stats = TypeStatistics()
        #: Per attribute: repr(value) -> occurrence count (capped at
        #: 10k tracked values — distinct stays an *estimate* beyond).
        counts: dict[str, dict[str, int]] = {
            a: {} for a in atom_type.data_attrs()
        }
        ref_totals: dict[str, int] = {
            a: 0 for a in atom_type.reference_attrs()
        }
        for _s, values in self._access.atoms.atoms_of_type(type_name):
            stats.cardinality += 1
            for attr in counts:
                column = stats.attributes.setdefault(
                    attr, AttributeStatistics())
                value = values.get(attr)
                column.count += 1
                if value is None:
                    column.nulls += 1
                    continue
                try:
                    key = make_key(value)
                except Exception:
                    continue   # RECORD/ARRAY values carry no order stats
                if column.minimum is None or key < make_key(column.minimum):
                    column.minimum = value
                if column.maximum is None or make_key(column.maximum) < key:
                    column.maximum = value
                seen = counts[attr]
                marker = repr(value)
                if marker in seen:
                    seen[marker] += 1
                elif len(seen) < 10_000:
                    seen[marker] = 1
            for attr in ref_totals:
                ref_totals[attr] += len(reference_values(
                    atom_type.attr(attr), values.get(attr)))
        for attr, seen in counts.items():
            if attr in stats.attributes:
                column = stats.attributes[attr]
                column.distinct = len(seen)
                # Keep the top MCV_KEEP genuinely repeated values — a
                # uniform column keeps none (equality stays 1/distinct).
                repeated = sorted(
                    ((marker, n) for marker, n in seen.items() if n >= 2),
                    key=lambda item: (-item[1], item[0]))
                column.most_common = dict(repeated[:MCV_KEEP])
        if stats.cardinality:
            stats.fanout = {
                attr: total / stats.cardinality
                for attr, total in ref_totals.items()
            }
        self._types[type_name] = stats
        return stats.cardinality

    # -- queries the planner asks --------------------------------------------------------

    def type_statistics(self, type_name: str) -> TypeStatistics | None:
        return self._types.get(type_name)

    def cardinality(self, type_name: str) -> int | None:
        stats = self._types.get(type_name)
        return stats.cardinality if stats is not None else None

    def selectivity(self, type_name: str,
                    terms: list[tuple[str, str, Any]]) -> float | None:
        """Combined selectivity of conjunctive sargable terms (independence
        assumption); None without statistics."""
        stats = self._types.get(type_name)
        if stats is None:
            return None
        result = 1.0
        for attr, op, value in terms:
            column = stats.attributes.get(attr)
            if column is None:
                continue
            result *= column.selectivity(op, value)
        return result
