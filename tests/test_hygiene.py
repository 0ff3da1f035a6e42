"""Source hygiene of the library modules, checked with the standard library
only: every name a module imports is read somewhere in that module
(`__init__.py` is exempt, since it imports only to re-export), every
module-level private function, class or constant is referenced by some
library module, every public one is read by some library or benchmark module
other than through a re-export in `__init__.py`, and every public method is
read as an attribute by some library or benchmark module. No module-level function takes a parameter its body never reads,
and every dataclass field is read as an attribute by some library,
benchmark or test module.
Also, the CI workflow (read with PyYAML) installs the package, runs the
tier-1 command and the installed console script, and checks the benchmark
against its reference. And a fresh interpreter that imports the package and
solves a forward game loads neither scipy.optimize nor PyYAML."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hypertraffic"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))
BENCH_MODULES = sorted((ROOT / "bench").glob("*.py"))
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))


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


def attribute_reads(source):
    """Every name the source reads as an attribute (`x.name`)."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_attribute_reads_are_found():
    source = "state = 1\nx.controls()\ny.violation = 2\nz.ref.state\n"
    assert attribute_reads(source) == {"controls", "ref", "state"}


def module_reads(source):
    """(bare, qualified): every name the source reads bare or imports by
    name, and each attribute it reads off a bare or dotted name as (that
    name's last part, attribute), so `qp.solve` and `hypertraffic.qp.solve`
    both give ("qp", "solve")."""
    bare, qualified = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
        elif isinstance(node, ast.alias):
            bare.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = getattr(node.value, "id", getattr(node.value, "attr", None))
            qualified.add((owner, node.attr))
    return bare, qualified


def test_module_reads_are_found():
    source = ("from .qp import solve\nimport hypertraffic\nws.best_response(x)\n"
              "qp.gram_blocks\nhypertraffic.game.make_game\nf(a)[0].shape\n")
    bare, qualified = module_reads(source)
    assert bare == {"solve", "hypertraffic", "ws", "x", "qp", "f", "a"}
    assert qualified == {("ws", "best_response"), ("qp", "gram_blocks"),
                         ("hypertraffic", "game"), ("game", "make_game"), (None, "shape")}


def tracer_functions():
    """The (span, module, attribute path) entries of `bench/tracer.py`'s
    FUNCTIONS, read without importing the tracer."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "FUNCTIONS" for t in node.targets)]
    return ast.literal_eval(value)


# Public functions that only the benchmark's tracer names, as strings: it
# wraps them, but no workload reaches them. They can leave the library once
# the tracer stops naming them.
TRACER_ONLY = {("dynamics.py", "linearize_discrete"), ("dynamics.py", "rollout")}


def test_every_public_name_and_method_is_referenced():
    """A public module-level name that no library or benchmark module reads,
    or a public method that none reads as an attribute, is reached by tests
    alone, so it is dead code. A re-export in `__init__.py` is not a read, and
    a module-level name read as an attribute counts only when the attribute
    is read off its own module's name (`qp.solve`), not off any other object
    (`reduced.solve` reads a method). A local variable that shares a method's
    name does not count as a read of it. The names in TRACER_ONLY are the
    exceptions: each is still named in the tracer and still read nowhere."""
    sources = [p.read_text(encoding="utf-8") for p in MODULES + BENCH_MODULES]
    bare, qualified = (set().union(*reads) for reads in zip(*map(module_reads, sources)))
    attributes = set().union(*map(attribute_reads, sources))

    def is_read(module, name):
        if "." in name:
            return name.rpartition(".")[2] in attributes
        return name in bare or (module, name) in qualified

    unreferenced = {(path.name, name) for path in ALL_MODULES
                    for _, name in public_definitions(path.read_text(encoding="utf-8"))
                    if not is_read(path.stem, name)}
    assert unreferenced == TRACER_ONLY
    traced = {(module, path) for _, module, path in tracer_functions()}
    assert {(f"hypertraffic.{Path(module).stem}", name) for module, name in TRACER_ONLY} <= traced


def unread_parameters(source):
    """(line, `function.parameter`) of every parameter of a module-level
    function that its body never reads. Methods are exempt: observer hooks
    share one signature whether or not a hook uses every argument."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.lineno, f"{node.name}.{p}") for p in params if p not in read]
    return found


def test_unread_parameters_are_found():
    source = ("def f(a, b=None, *args, c, **kw):\n    return a + c\n"
              "def g(x):\n    return lambda: x\n"
              "class C:\n    def m(self, unused):\n        pass\n")
    assert unread_parameters(source) == [(1, "f.b"), (1, "f.args"), (1, "f.kw")]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_module_level_functions_read_every_parameter(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def dataclass_fields(source):
    """(line, `Class.field`) of every annotated field of a module-level class
    decorated with `dataclass`, bare or called, plain or `dataclasses.`."""
    def is_dataclass(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return "dataclass" in (getattr(target, "id", None), getattr(target, "attr", None))

    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list)):
            found += [(item.lineno, f"{node.name}.{item.target.id}") for item in node.body
                      if isinstance(item, ast.AnnAssign)]
    return found


def test_dataclass_fields_are_found():
    source = ("@dataclass(frozen=True)\nclass A:\n    x: int\n    y: float = 0.0\n"
              "    def m(self):\n        return self.x\n"
              "@dataclass\nclass B:\n    z: str\n@functools.total_ordering\nclass C:\n"
              "    w: int\n@dataclasses.dataclass\nclass D:\n    v: int\n")
    assert dataclass_fields(source) == [(3, "A.x"), (4, "A.y"), (9, "B.z"), (15, "D.v")]


def test_every_dataclass_field_is_read():
    """A field that no library, benchmark or test module reads as an attribute
    is a result nothing looks at."""
    sources = [p.read_text(encoding="utf-8") for p in ALL_MODULES + BENCH_MODULES + TEST_MODULES]
    attributes = set().union(*map(attribute_reads, sources))
    unread = [(path.name, line, name) for path in ALL_MODULES
              for line, name in dataclass_fields(path.read_text(encoding="utf-8"))
              if name.rpartition(".")[2] not in attributes]
    assert unread == []


def test_ci_workflow_installs_the_package_and_runs_the_tier1_command():
    """The workflow pins one BLAS thread for the whole job, installs the
    package, runs the tier-1 tests, runs five
    short studies through the installed `hypertraffic` console script (the
    success rate in both modes, so random guesses and the interpreted
    estimate each plan the fleet; the online one re-plans every stage, so it
    solves cached coefficients for new right-hand sides; the offline one runs
    the inverse fit, and the noise sweep runs it on noisy observations), one
    `solve` of the default forward game, the command whose start-up the
    deferred imports shorten, the same
    `solve` with `--trace`, the one command that writes a session trace, and
    the stage timing and the gap sweep, so that every subcommand runs once,
    a `solve` of the README's example scenario file and one of a scenario
    file with a stopped vehicle, whose equality rows are rank deficient; then
    the benchmark on its reference seed, which exits non-zero when any op
    misses `bench/reference.json`, then the H=121 forward game on a second
    seed, which has no reference but where every op must pass the converged,
    gap and violation gate (the active set's candidate pricing takes its
    longest paths on H=121 games), then the staged online loop on that seed,
    whose workspaces hit the memos beside the static cache across stages on
    inputs the reference does not pin, and last three traced benchmark runs
    (random cognition; the H=121 forward game, whose reduced Hessians are the
    largest; and the staged online loop, whose traced and untraced halves
    meet the static cache in different states, so their results agree only
    because a cache hit is bitwise a fresh build), which exit non-zero when
    any op's traced and untraced results differ bitwise."""
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    steps = job["steps"]
    assert [s["with"]["python-version"] for s in steps if "setup-python" in s.get("uses", "")] == ["3.11"]
    runs = [(s["run"], s.get("env", {})) for s in steps if "run" in s]
    assert [command for command, _ in runs] == [
        "pip install -e '.[test]'",
        "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q "
        "--continue-on-collection-errors",
        "hypertraffic success-rate --mode random_cognition --reps 3 --seed 0",
        "hypertraffic success-rate --mode with_interpretation --reps 2 --seed 0",
        "hypertraffic run-online --reps 2 --seed 0",
        "hypertraffic interpret-offline --reps 1 --seed 0",
        "hypertraffic sweep-noise --reps 2 --stds 0.05,0.2 --seed 0 --out /tmp/sweep.csv",
        "hypertraffic solve --out /tmp/solve.csv",
        "hypertraffic solve --trace /tmp/solve.jsonl --out /tmp/solve_traced.csv",
        "hypertraffic timing --reps 1 --seed 0 --out /tmp/timing.csv",
        "hypertraffic gap-sweep",
        "hypertraffic solve --config examples/scenario.yaml --out /tmp/config_solve.csv",
        "hypertraffic solve --config examples/stopped_vehicle.yaml --out /tmp/stopped.csv",
        "OPENBLAS_NUM_THREADS=1 python3 bench/run.py --workload all --seed 0 --seconds 5 "
        "--trace 0",
        "OPENBLAS_NUM_THREADS=1 python3 bench/run.py --workload forward-h121 --seed 17 "
        "--seconds 5 --trace 0",
        "OPENBLAS_NUM_THREADS=1 python3 bench/run.py --workload online-staged --seed 17 "
        "--seconds 5 --trace 0",
        "OPENBLAS_NUM_THREADS=1 python3 bench/run.py --workload random-cognition --seed 0 "
        "--seconds 5 --trace 1",
        "OPENBLAS_NUM_THREADS=1 python3 bench/run.py --workload forward-h121 --seed 0 "
        "--seconds 5 --trace 1",
        "OPENBLAS_NUM_THREADS=1 python3 bench/run.py --workload online-staged --seed 0 "
        "--seconds 5 --trace 1",
    ]
    # No output may depend on the runner's core count.
    assert job["env"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                          "MKL_NUM_THREADS": "1"}
    assert [env for _, env in runs] == [{}] * len(runs)


def test_property_tests_draw_the_same_examples_on_every_run():
    """`conftest.py` loads a profile that derives every example from its test
    and keeps no example database, so tier-1, CI and local runs agree."""
    from hypothesis import settings

    assert settings.default.derandomize and settings.default.database is None


DEFERRED_IMPORTS = """
import sys

import numpy as np

import hypertraffic
from hypertraffic import inverse, scenario
from hypertraffic.game import make_game, solve_games


def loaded():
    return "scipy.optimize" in sys.modules, "yaml" in sys.modules


scen = scenario.default_offline_scenario()
solve_games(make_game(scen, {v.vid: v.weights_true for v in scen.vehicles}))
after_solve = loaded()
scenario.load_config(
    "vehicles:\\n"
    "  - {id: 0, is_hv: true, style: comfort_oriented, behavior: {kind: straight},"
    " initial: {x: 0.0, y: 2.0, v: 10.0}}\\n"
)
after_config = loaded()
args = (np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]]), np.array([1.0, -2.0, 0.5]))
kwargs = dict(bounds=([0.0, -1.0], [2.0, 1.0]), method="bvls", tol=1e-14)
x = inverse.lsq_linear(*args, **kwargs).x
after_fit = loaded()
from scipy.optimize import lsq_linear

print(after_solve, after_config, after_fit, x.tobytes() == lsq_linear(*args, **kwargs).x.tobytes())
"""


def test_the_package_imports_scipy_optimize_and_pyyaml_on_first_use():
    """`import hypertraffic` and a forward game load neither scipy.optimize
    (about 0.2 s of import) nor PyYAML; the first config read loads PyYAML,
    and the first `inverse.lsq_linear` call loads scipy.optimize and returns
    scipy's result bitwise. Run in a fresh interpreter, since this process
    has imported both already."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC.parent), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", DEFERRED_IMPORTS], capture_output=True,
                          text=True, timeout=120, env=env, check=True)
    assert proc.stdout.strip() == "(False, False) (False, True) (True, True) True"
