"""Every module-level import in the package and its tests is used in its
module, every public name has a user outside the unit tests, every package
name the benchmark's tracer wraps exists, the model modules apply their
range rule through `specfun.require` only, `synthesis.metrics_grid` alone
picks the default theta grid or refuses a coarse one, no module writes a
phasor as cos(x) -/+ 1j * sin(x) where np.exp forms it,
`synthesis._amplitude_db` alone takes a log10 for dB,
`synthesis.PatternCut.__post_init__` alone takes |values| of a cut, no
function builds a tuple from a generator, a dataclass's fields are computed
once, and a cold `import tiltbeam.cli` loads nothing past numpy but the
package and a few small stdlib modules.

The two tuple rules keep memory flat in a long-lived process. CPython
allocates a tuple built from a generator with 10 slots and shrinks it to
its length. Freed, it goes on the free list of that length (up to 2000 a
size), and the next one is allocated with 10 slots again, so a tuple built
on every call grows the process until the list fills. `dataclasses.fields`
and `astuple` build such tuples on every call.

No linter ships with the test environment, so these checks parse the
sources with `ast`. `__init__.py` is exempt from the unused-import check:
its imports are the public API. So is `test_acceptance.py`, which is kept
byte-identical with the acceptance criteria.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tiltbeam"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(p for p in Path(__file__).parent.glob("*.py") if p.name != "test_acceptance.py")
PERFBENCH = PACKAGE.parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
# The sources whose use of a public name counts: the package, the benchmark
# and the acceptance criteria, not the unit tests.
EXPORT_USERS = MODULES + sorted(PERFBENCH.glob("*.py")) + [Path(__file__).parent / "test_acceptance.py"]

# Public names that no user reads, each with the reason it stays.
EXPORTS_WITHOUT_A_USER = {
    "serialize_config": "the inverse of parse_config, which the config round-trip tests check",
}

# Listed by the tracer but gone from the package: the J0 calibration became
# a literal, and the tracer skips the missing name.
STALE_TRACER_TARGETS = {("tiltbeam.radiators", "_ground_current_amplitude")}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = "import math\nimport numpy as np\nfrom os import path, sep\nprint(np.pi, sep)\n"
    assert unused_imports(source) == ["math (line 1)", "path (line 3)"]


def unused_exports(init_source: str, user_sources: list) -> list:
    # names the package's __init__ imports that no user reads as a name or an attribute
    exported = [alias.asname or alias.name for node in ast.parse(init_source).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    used = set()
    for source in user_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return sorted(name for name in exported if name not in used)


def test_every_export_has_a_user():
    users = [path.read_text(encoding="utf-8") for path in EXPORT_USERS]
    unused = unused_exports((PACKAGE / "__init__.py").read_text(encoding="utf-8"), users)
    assert set(unused) - set(EXPORTS_WITHOUT_A_USER) == set()


def test_detects_an_unused_export():
    init = "from .a import f, g, h\nfrom .b import K as L, M\n"
    users = ["f(1)\nh = 2\ndef M(): pass\n", "import m\nprint(m.g, L)\n"]
    assert unused_exports(init, users) == ["M", "h"]


def tracer_targets() -> set:
    # (module, attribute) of each entry of the tracer's _TARGETS literal
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    value = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["_TARGETS"])
    return {(module, attribute) for module, attribute, *_ in ast.literal_eval(value)}


def test_benchmark_tracer_targets_exist():
    # The tracer skips a name the package lacks and reports its metrics as 0,
    # so a rename here would silently zero, say, the specfun.bessel_j1 metrics.
    targets = tracer_targets()
    assert targets
    missing = {(m, a) for m, a in targets if not hasattr(importlib.import_module(m), a)}
    assert missing - STALE_TRACER_TARGETS == set()


# A hand-written copy of specfun.require's rule ends in ": <name> must be <bound>",
# or goes on past the bound with a condition: "... when count_Nx > 1".
HAND_WRITTEN_BOUND = re.compile(r": (\w+|\{\}) must be (> 0|>= 0|>= 1)( when .*)?$")


def hand_written_bound_checks(source: str) -> list:
    # raise ValueError(...) whose message literal (an f-string's fields read as {}) copies the rule
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "ValueError"):
            continue
        for arg in node.exc.args:
            if isinstance(arg, ast.JoinedStr):
                text = "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in arg.values)
            elif isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                text = arg.value
            else:
                continue
            if HAND_WRITTEN_BOUND.search(text):
                found.append(f"{text} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_range_checks_go_through_require(path):
    assert hand_written_bound_checks(path.read_text(encoding="utf-8")) == []


def test_detects_a_hand_written_bound_check():
    source = (
        "if not f > 0:\n    raise ValueError('skin_depth: f must be > 0')\n"
        "for n in 'ab':\n    raise ValueError(f'LossBudget: {n} must be >= 0')\n"
        "raise ValueError('ArrayLayout: spacing_dx must be > 0 when count_Nx > 1')\n"
        "raise ValueError(f'{owner}: {name} must be {bound}')\n"
        "raise TypeError('eps: x must be >= 1')\n"
    )
    assert hand_written_bound_checks(source) == [
        "ArrayLayout: spacing_dx must be > 0 when count_Nx > 1 (line 5)",  # ast.walk reaches top-level nodes first
        "skin_depth: f must be > 0 (line 2)",
        "LossBudget: {} must be >= 0 (line 4)",
    ]


def grid_rule_sites(source: str) -> list:
    # each default_theta_grid() call and each raise of the coarse-grid message, with its enclosing function
    sites = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if called == "default_theta_grid":
                sites.append(f"{owner} (line {node.lineno})")
        elif isinstance(node, ast.Raise) and "grid spacing must be" in ast.unparse(node):
            sites.append(f"{owner} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sites


def test_metrics_grid_alone_picks_or_checks_a_study_grid():
    sites = [f"{path.name}: {site}" for path in MODULES
             for site in grid_rule_sites(path.read_text(encoding="utf-8"))]
    assert [site for site in sites if not site.startswith("synthesis.py: metrics_grid ")] == []


def test_detects_a_grid_rule_outside_its_owner():
    source = (
        "def metrics_grid(g=None):\n    raise ValueError('pattern_metrics: grid spacing must be <= 0.5 degrees')\n"
        "def study(g=None):\n    grid = default_theta_grid() if g is None else g\n"
        "GRID = synthesis.default_theta_grid()\n"
        "def check(step):\n    raise ValueError(f'pattern_metrics: grid spacing must be <= {step} degrees')\n"
    )
    assert grid_rule_sites(source) == ["metrics_grid (line 2)", "study (line 4)", "<module> (line 5)", "check (line 7)"]


def _called_or_constant(node):
    # the name a call calls, or a constant's value
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    return node.value if isinstance(node, ast.Constant) else None


def hand_written_phasors(source: str) -> list:
    # cos(x) - 1j * sin(x) or cos(x) + 1j * sin(x), either factor first
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
                and _called_or_constant(node.left) == "cos"
                and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Mult)
                and {_called_or_constant(node.right.left), _called_or_constant(node.right.right)} == {1j, "sin"}):
            found.append(f"{ast.unparse(node)} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_phasors_are_formed_by_exp(path):
    assert hand_written_phasors(path.read_text(encoding="utf-8")) == []


def test_detects_a_hand_written_phasor():
    source = (
        "a = np.cos(u * ct) - 1j * np.sin(u * ct)\n"
        "b = math.cos(v) + math.sin(v) * 1j\n"
        "c = np.exp(-1j * v)\n"
        "d = np.cos(v) - 2 * np.sin(v)\n"
        "e = np.sin(v) - 1j * np.cos(v)\n"
    )
    assert hand_written_phasors(source) == [
        "np.cos(u * ct) - 1j * np.sin(u * ct) (line 1)",
        "math.cos(v) + math.sin(v) * 1j (line 2)",
    ]


def log10_sites(source: str) -> list:
    # each log10, imported, called or read, with its enclosing function
    sites = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if "log10" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
            sites.append(f"{owner} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sites


def test_amplitude_db_alone_converts_to_db():
    # pattern.csv, the SVG trace, the sidelobe level and the scan loss each
    # pass their floor to the one rule
    sites = [f"{path.name}: {site}" for path in MODULES
             for site in log10_sites(path.read_text(encoding="utf-8"))]
    assert sites and [site for site in sites if not site.startswith("synthesis.py: _amplitude_db ")] == []


def test_detects_a_db_conversion_outside_its_owner():
    source = (
        "def _amplitude_db(ratio, floor=-math.inf):\n    return max(20.0 * math.log10(ratio), floor)\n"
        "def _mag_db(m):\n    return max(20.0 * np.log10(m), -400.0)\n"
        "from math import log10\n"
        "LEVEL = 20.0 * log10(0.5)\n"
        "NEPER_TO_DB = 20.0 / math.log(10.0)\n"
    )
    assert log10_sites(source) == ["_amplitude_db (line 2)", "_mag_db (line 4)", "<module> (line 5)", "<module> (line 6)"]


def _values_attribute(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "values"


def _names_iterating_values(target, iterable) -> set:
    # loop or comprehension targets bound to the items of X.values, directly or through zip
    if _values_attribute(iterable) and isinstance(target, ast.Name):
        return {target.id}
    if _called_or_constant(iterable) != "zip" or not isinstance(target, ast.Tuple):
        return set()
    return {name.id for arg, name in zip(iterable.args, target.elts)
            if _values_attribute(arg) and isinstance(name, ast.Name)}


def cut_magnitude_sites(source: str) -> list:
    # abs or np.abs of X.values or of an item looped from it, and map(abs, X.values),
    # with the enclosing class and function path
    sites = []

    def visit(node, owner, items):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name if owner == "<module>" else f"{owner}.{node.name}"
        if isinstance(node, (ast.For, ast.AsyncFor)):
            items = items | _names_iterating_values(node.target, node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for gen in node.generators:
                items = items | _names_iterating_values(gen.target, gen.iter)
        if isinstance(node, ast.Call) and node.args:
            called, arg = _called_or_constant(node), node.args[0]
            if called == "abs":
                taken = _values_attribute(arg) or getattr(arg, "id", None) in items
            else:
                taken = called == "map" and getattr(arg, "id", None) == "abs" and _values_attribute(node.args[-1])
            if taken:
                sites.append(f"{owner} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, owner, items)

    visit(ast.parse(source), "<module>", frozenset())
    return sites


def test_cut_magnitudes_are_taken_once():
    # the metrics, the SVG trace and pattern.csv read PatternCut.magnitudes
    sites = [f"{path.name}: {site}" for path in MODULES
             for site in cut_magnitude_sites(path.read_text(encoding="utf-8"))]
    assert sites and [site for site in sites if not site.startswith("synthesis.py: PatternCut.__post_init__ ")] == []


def test_detects_a_magnitude_taken_outside_its_owner():
    source = (
        "class PatternCut:\n    def __post_init__(self):\n        mags = np.abs(self.values)\n"
        "def render(cut):\n    return np.abs(cut.values) / abs(cut.values).max()\n"
        "def build(cut):\n    peak = max(map(abs, cut.values))\n"
        "    return [abs(v) / peak for d, v in zip(grid, cut.values)]\n"
        "def walk(cut):\n    for v in cut.values:\n        yield abs(v)\n"
        "def fine(cut, values, d):\n"
        "    return np.abs(values), abs(cut.tilt), [abs(g) for g, v in zip(grid, cut.values)], map(abs, d.values())\n"
    )
    assert cut_magnitude_sites(source) == [
        "PatternCut.__post_init__ (line 3)",
        "render (line 5)",
        "render (line 5)",
        "build (line 7)",
        "build (line 8)",
        "walk (line 11)",
    ]


def generator_tuples(source: str) -> list:
    # tuple(<generator expression>) inside a function or lambda, where it runs per call
    found = []

    def visit(node, in_function):
        in_function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        if (in_function and isinstance(node, ast.Call) and getattr(node.func, "id", None) == "tuple"
                and len(node.args) == 1 and isinstance(node.args[0], ast.GeneratorExp)):
            found.append(f"{ast.unparse(node)} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(ast.parse(source), False)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_tuple_is_built_from_a_generator_per_call(path):
    assert generator_tuples(path.read_text(encoding="utf-8")) == []


def test_detects_a_tuple_built_from_a_generator():
    source = (
        "NAMES = tuple(m.value for m in Model)\n"
        "def f(xs):\n    return tuple(float(x) for x in xs), tuple([x for x in xs]), tuple(xs)\n"
        "g = lambda: tuple(i / 10 for i in range(3))\n"
        "class C:\n    ORDER = tuple(c for c in 'ab')\n"
        "    def m(self):\n        return sorted(x for x in self), [tuple(y for y in x) for x in self]\n"
    )
    assert generator_tuples(source) == [
        "tuple((float(x) for x in xs)) (line 3)",
        "tuple((i / 10 for i in range(3))) (line 4)",
        "tuple((y for y in x)) (line 8)",
    ]


def per_call_schema_walks(source: str) -> list:
    # each astuple, imported or read, and each read of dataclasses.fields but
    # the one that a module-level cache(...) wraps
    tree = ast.parse(source)
    once = {id(node.value.args[0]) for node in tree.body
            if isinstance(node, ast.Assign) and _called_or_constant(node.value) == "cache"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            name = node.name if node.name == "astuple" else None  # importing fields is not a walk
        elif isinstance(node, ast.Name):
            name = node.id
        else:
            name = node.attr if isinstance(node, ast.Attribute) else None
        if name == "astuple" or (name == "fields" and id(node) not in once):
            found.append(f"{ast.unparse(node)} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_dataclass_fields_are_computed_once(path):
    assert per_call_schema_walks(path.read_text(encoding="utf-8")) == []


def test_detects_a_schema_walk_per_call():
    source = (
        "from dataclasses import astuple, fields\n"
        "_fields = functools.cache(dataclasses.fields)\n"
        "_cached = cache(fields)\n"
        "def names(cls):\n    return [f.name for f in fields(cls)]\n"
        "def values(g):\n    return dataclasses.astuple(g), cache(fields)(g)\n"
    )
    assert sorted(per_call_schema_walks(source)) == [
        "astuple (line 1)",
        "dataclasses.astuple (line 7)",
        "fields (line 5)",
        "fields (line 7)",
    ]


# What a cold `import tiltbeam.cli` may load once numpy is in: the package's
# own modules, json's, and these. numpy.polynomial (which the tabulated
# Gauss-Kronrod rule avoids) or scipy.special (decided against at run time)
# would each add their import time to every CLI run.
COLD_CLI_IMPORTS = {"__future__", "copy", "dataclasses", "fcntl", "json", "_json"}
NEW_MODULES = "import sys, numpy\nbefore = set(sys.modules)\nimport tiltbeam.cli\nprint(*sorted(set(sys.modules) - before))"


def unexpected_cold_imports(new_modules: list) -> list:
    return [name for name in new_modules
            if name not in COLD_CLI_IMPORTS and name.split(".")[0] not in ("tiltbeam", "json")]


def test_cold_cli_import_loads_only_the_package_and_small_stdlib_modules():
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", NEW_MODULES], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    new_modules = run.stdout.split()
    assert "tiltbeam.cli" in new_modules
    assert unexpected_cold_imports(new_modules) == []


def test_detects_a_heavy_module_on_the_cold_cli_path():
    new_modules = ["__future__", "json.decoder", "numpy.polynomial", "scipy.special", "tiltbeam.cli", "jsonschema"]
    assert unexpected_cold_imports(new_modules) == ["numpy.polynomial", "scipy.special", "jsonschema"]
