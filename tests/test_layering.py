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


def module_imports(tree: ast.Module) -> list[tuple[ast.stmt, str]]:
    """``(node, bound name)`` for every import statement directly in
    the module body — ``if TYPE_CHECKING:`` blocks are not scanned, and
    ``from __future__`` is excluded."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            found.extend((node, (alias.asname or alias.name).split(".")[0])
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            found.extend((node, alias.asname or alias.name)
                         for alias in node.names)
    return found


def exported(tree: ast.Module) -> set[str]:
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def referenced(tree: ast.Module) -> set[str]:
    """Every name a module reads, string annotations included."""
    nodes = list(ast.walk(tree))
    for node in list(nodes):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        else:
            continue
        if annotation is None:
            continue
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value,
                                                             str):
                nodes.extend(ast.walk(ast.parse(part.value, mode="eval")))
    return {node.id for node in nodes if isinstance(node, ast.Name)}


def test_every_module_import_is_used():
    """A module-level import is read somewhere in its module; package
    ``__init__`` re-exports and ``__all__`` names count as read."""
    unused = []
    for path in sources():
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = referenced(tree) | exported(tree)
        unused.extend(f"{path.relative_to(SRC)}:{node.lineno} {name}"
                      for node, name in module_imports(tree)
                      if name not in used)
    assert not unused


#: The modules that may import ``pickle``: only the daemon's wire codec.
#: ROADMAP item 8 (a typed wire: ``pickle`` leaves the socket) empties
#: this set.
PICKLE_IMPORTERS = {"serve/protocol.py"}


def test_only_the_wire_codec_imports_pickle():
    """Loading a pickle runs whatever code it names, so no other module
    may import it — checkpoints hold data, not pickled objects.  Imports
    inside functions count too."""
    importers = set()
    for path in sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] in ("pickle", "_pickle")
                   for module in modules):
                importers.add(path.relative_to(SRC).as_posix())
    assert importers == PICKLE_IMPORTERS
