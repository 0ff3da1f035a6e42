"""Source hygiene of the library modules, checked with the standard library
only: every name a module imports is read somewhere in that module
(`__init__.py` is exempt, since it imports only to re-export), every
module-level private function, class or constant is referenced by some
library module, and every public one, and every public method, by some
library or benchmark module. Also, the CI workflow (read with PyYAML)
installs the package, runs the tier-1 command and checks the benchmark
against its reference."""

import ast
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hypertraffic"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))
BENCH_MODULES = sorted((ROOT / "bench").glob("*.py"))


def unused_imports(source):
    """(line, name) of every imported name the source never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_are_found():
    source = "import os.path\nimport numpy as np\nfrom a import b, c as d\nd(np)\n"
    assert unused_imports(source) == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_modules_import_nothing_unused(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def module_level_definitions(source):
    """(line, name) of every module-level function, class or assigned name,
    and of every method as `Class.method`."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, n.id) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [(item.lineno, f"{node.name}.{item.name}") for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return found


def private_definitions(source):
    """(line, name) of every module-level function, class or assigned name
    that starts with one underscore."""
    return [(line, name) for line, name in module_level_definitions(source)
            if "." not in name and name.startswith("_") and not name.startswith("__")]


def public_definitions(source):
    """(line, name) of every module-level function, class or assigned name,
    and every method (as `Class.method`), whose own name has no leading
    underscore."""
    return [(line, name) for line, name in module_level_definitions(source)
            if not name.rpartition(".")[2].startswith("_")]


def referenced_names(source):
    """Every name the source reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_private_definitions_and_references_are_found():
    source = ("_A = 1\n_b, c = 2, 3\n__all__ = []\nclass _C:\n    pass\n"
              "def _f():\n    return _A\nfrom m import _g\nm._h\n")
    assert private_definitions(source) == [(1, "_A"), (2, "_b"), (4, "_C"), (6, "_f")]
    assert {"_A", "_g", "_h"} <= referenced_names(source)
    assert not {"_b", "_C", "_f"} & referenced_names(source)


def test_every_private_module_level_name_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in ALL_MODULES}
    referenced = set().union(*(referenced_names(s) for s in sources.values()))
    unreferenced = [(module, line, name) for module, source in sources.items()
                    for line, name in private_definitions(source) if name not in referenced]
    assert unreferenced == []


def test_public_definitions_are_found():
    source = ("A = 1\n_b, c = 2, 3\n__all__ = []\nclass C:\n    def m(self):\n        pass\n"
              "    def _n(self):\n        pass\n    def __init__(self):\n        pass\n"
              "def f():\n    return A\n")
    assert public_definitions(source) == [(1, "A"), (2, "c"), (4, "C"), (5, "C.m"), (11, "f")]
    assert private_definitions(source) == [(2, "_b")]


def test_every_public_name_and_method_is_referenced():
    """A public module-level name or method that no library or benchmark
    module reads (a re-export in `__init__.py` counts) is reached by tests
    alone, so it is dead code."""
    referenced = set().union(*(referenced_names(p.read_text(encoding="utf-8"))
                               for p in ALL_MODULES + BENCH_MODULES))
    unreferenced = [(path.name, line, name) for path in ALL_MODULES
                    for line, name in public_definitions(path.read_text(encoding="utf-8"))
                    if name.rpartition(".")[2] not in referenced]
    assert unreferenced == []


def test_ci_workflow_installs_the_package_and_runs_the_tier1_command():
    """The workflow installs the package, runs the tier-1 tests, and then the
    benchmark on its reference seed, which exits non-zero when any op misses
    `bench/reference.json`."""
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    steps = job["steps"]
    assert [s["with"]["python-version"] for s in steps if "setup-python" in s.get("uses", "")] == ["3.11"]
    runs = [(s["run"], s.get("env", {})) for s in steps if "run" in s]
    assert [command for command, _ in runs] == [
        "pip install -e '.[test]'",
        "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q "
        "--continue-on-collection-errors",
        "OPENBLAS_NUM_THREADS=1 python3 bench/run.py --workload all --seed 0 --seconds 5 "
        "--trace 0",
    ]
    assert runs[1][1] == {"OPENBLAS_NUM_THREADS": "1"}
