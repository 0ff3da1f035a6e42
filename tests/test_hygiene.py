"""Source hygiene of the library modules, checked with the standard library
only: every name a module imports is read somewhere in that module
(`__init__.py` is exempt, since it imports only to re-export), and every
module-level private function, class or constant is referenced by some
library module. Also, the CI workflow (read with PyYAML) installs the
package and runs the tier-1 command."""

import ast
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hypertraffic"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


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


def private_definitions(source):
    """(line, name) of every module-level function, class or assigned name
    that starts with one underscore."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


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


def test_ci_workflow_installs_the_package_and_runs_the_tier1_command():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    steps = job["steps"]
    assert [s["with"]["python-version"] for s in steps if "setup-python" in s.get("uses", "")] == ["3.11"]
    runs = [(s["run"], s.get("env", {})) for s in steps if "run" in s]
    assert runs[0][0] == "pip install -e '.[test]'"
    command, env = runs[-1]
    assert command == ("PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} "
                       "python -m pytest -q --continue-on-collection-errors")
    assert env == {"OPENBLAS_NUM_THREADS": "1"}
