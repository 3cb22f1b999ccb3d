"""Surface guard: semantic parallelism is a model run by one serial loop
— a worker fabric, its knobs, or a serve → parallel edge must not grow
back unnoticed."""

import ast
import inspect
from pathlib import Path

import pytest

import repro
from repro.parallel import SemanticDecomposer, parallel_select
from repro.serve import SessionManager

SRC = Path(repro.__file__).resolve().parent

WORKER_KNOBS = {"mode", "max_workers", "partitions", "engine_lock",
                "parallel_mode", "parallel_workers"}


def imported_modules(path: Path) -> set[str]:
    """Every module a file imports, function-local imports included."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module \
                and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}"
                         for alias in node.names)
    return names


@pytest.mark.parametrize(
    "entry",
    [parallel_select, SemanticDecomposer.run_all, SessionManager.__init__],
    ids=lambda entry: entry.__qualname__)
def test_no_worker_knob_in_the_signature(entry):
    assert not WORKER_KNOBS & set(inspect.signature(entry).parameters)


def test_parallel_imports_no_concurrency_module():
    for path in sorted((SRC / "parallel").rglob("*.py")):
        tops = {name.split(".")[0] for name in imported_modules(path)}
        assert not tops & {"multiprocessing", "threading", "queue",
                           "concurrent"}, path.name


def test_serve_does_not_import_parallel():
    for path in sorted((SRC / "serve").rglob("*.py")):
        assert not any(name == "repro.parallel"
                       or name.startswith("repro.parallel.")
                       for name in imported_modules(path)), path.name
