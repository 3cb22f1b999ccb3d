"""The data system of PRIMA (paper, section 3.1)."""

from repro.data.executor import DataSystem
from repro.data.operators import (
    Limit,
    MoleculeConstruct,
    Offset,
    Operator,
    Project,
    ResidualFilter,
    RootPartition,
    RootScan,
    Sort,
    build_pipeline,
)
from repro.data.plan import QueryPlan, RootAccess
from repro.data.predicates import PredicateEvaluator, path_values
from repro.data.result import ResultSet
from repro.data.simplification import conjuncts, sargable_root_terms, simplify
from repro.data.validation import Validator
from repro.mad.molecule import MoleculeTypeCatalog

__all__ = [
    "DataSystem",
    "Limit",
    "MoleculeConstruct",
    "MoleculeTypeCatalog",
    "Offset",
    "Operator",
    "PredicateEvaluator",
    "Project",
    "QueryPlan",
    "ResidualFilter",
    "ResultSet",
    "RootAccess",
    "RootPartition",
    "RootScan",
    "Sort",
    "Validator",
    "build_pipeline",
    "conjuncts",
    "path_values",
    "sargable_root_terms",
    "simplify",
]
