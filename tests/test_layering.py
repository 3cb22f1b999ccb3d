"""Layering guard: every ``repro`` import sits at module top and points
down one declared order — the storage, access and data systems stacked
per paper Fig. 3.1, the application layer on top.  An upward edge, or an
import tucked into a function to dodge a cycle, must not grow back
unnoticed."""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: Bottom to top.  An entry is a subpackage or a top-level module of
#: ``repro``; ``__init__`` is the ``repro`` package itself.
ORDER = (
    "errors", "util", "storage", "mad", "access", "mql", "obs", "data",
    "txn", "ldl", "engine", "db", "persistence", "parallel", "shard",
    "live", "serve", "workloads", "al", "baselines", "coupling",
    "__init__",
)
RANK = {name: rank for rank, name in enumerate(ORDER)}


def layer_of(path: Path) -> str:
    """The layer a source file belongs to."""
    return path.relative_to(SRC).parts[0].removesuffix(".py")


def target_layer(module: str) -> str:
    """The layer a dotted ``repro`` module name points into."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "__init__"


def repro_imports(path: Path) -> list[tuple[ast.stmt, str, bool]]:
    """``(node, module, at_top)`` for every runtime ``repro`` import of
    one file; ``if TYPE_CHECKING:`` blocks at module top are skipped."""
    tree = ast.parse(path.read_text())
    top = set(map(id, tree.body))
    typing_only = {id(node) for stmt in tree.body
                   if isinstance(stmt, ast.If)
                   and ast.unparse(stmt.test).endswith("TYPE_CHECKING")
                   for node in ast.walk(stmt)}
    found = []
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
            if node.module == "repro":   # ``from repro import db``
                modules = [f"repro.{alias.name}" for alias in node.names]
        else:
            continue
        found.extend((node, module, id(node) in top) for module in modules
                     if module.split(".")[0] == "repro")
    return found


def sources() -> list[Path]:
    return sorted(SRC.rglob("*.py"))


def test_every_package_and_module_has_a_declared_rank():
    assert {layer_of(path) for path in sources()} == set(ORDER)


def test_every_repro_import_points_down():
    upward = []
    for path in sources():
        importer = layer_of(path)
        for node, module, _top in repro_imports(path):
            target = target_layer(module)
            if RANK.get(target, RANK["__init__"]) > RANK[importer]:
                upward.append(f"{path.relative_to(SRC)}:{node.lineno} "
                              f"{importer} -> {target}")
    assert not upward


def test_no_repro_import_below_module_top():
    local = [f"{path.relative_to(SRC)}:{node.lineno} {module}"
             for path in sources()
             for node, module, top in repro_imports(path) if not top]
    assert not local
