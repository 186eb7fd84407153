"""Every module-level import in the package and its tests is used in its
module, every public name has a user outside the unit tests, the package's
version is the one `pyproject.toml` declares, every package name the
benchmark's tracer wraps exists, each one-owner rule of `RULES`
holds in every package module, a cold `import tiltbeam.cli` loads
nothing past numpy but the package and a few small stdlib modules, and
the test policy is set once: `pyproject.toml` turns every warning into an
error and the root `conftest.py` derandomizes every Hypothesis property,
with no test setting either for itself. The one warning ignored is the one
Hypothesis's patch writer raises, so a failing property still reports.

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
import warnings
from collections import namedtuple
from pathlib import Path

import pytest
from hypothesis import settings

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


def test_version_is_the_one_in_pyproject():
    # Python 3.10 has no tomllib, so the [project] table's version line is read by pattern
    text = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    declared = re.search(r'^version = "([^"]*)"$', project, re.M).group(1)
    assert declared == importlib.import_module("tiltbeam").__version__


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


# The one-owner rules. One walk gives each node of a module its qualified
# owner and the context a rule reads past its node: whether it runs per call
# (inside a def or lambda), the names a loop or comprehension binds to the
# items of some X.values, and the ids of the nodes a module-level cache(...)
# wraps.
Context = namedtuple("Context", "owner in_function items cached")


def owned_nodes(tree):
    # (node, context) for every node of a parsed module, in one pre-order walk;
    # an owner reads Class.method, outer.inner, f.<lambda> or <module>
    cached = frozenset(id(node.value.args[0]) for node in tree.body
                       if isinstance(node, ast.Assign) and _called(node.value) == "cache")

    def visit(node, ctx):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            ctx = ctx._replace(owner=name if ctx.owner == "<module>" else f"{ctx.owner}.{name}",
                               in_function=ctx.in_function or not isinstance(node, ast.ClassDef))
        for loop in [node] if isinstance(node, (ast.For, ast.AsyncFor)) else getattr(node, "generators", []):
            ctx = ctx._replace(items=ctx.items | _bound_to_values(loop.target, loop.iter))
        yield node, ctx
        for child in ast.iter_child_nodes(node):
            yield from visit(child, ctx)

    return visit(tree, Context("<module>", False, frozenset(), cached))


def _bound_to_values(target, iterable) -> set:
    # loop targets bound to the items of X.values, directly or through zip
    if _values(iterable) and isinstance(target, ast.Name):
        return {target.id}
    if _called(iterable) != "zip" or not isinstance(target, ast.Tuple):
        return set()
    return {name.id for arg, name in zip(iterable.args, target.elts) if _values(arg) and isinstance(name, ast.Name)}


def _called(node):
    # the name a call calls
    return _name(node.func) if isinstance(node, ast.Call) else None


def _name(node):
    # the name a Name, an attribute, an import or a def reads or binds
    return getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)


def _values(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "values"


def _text(node) -> str:
    # a string literal, with an f-string's fields read as {}
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else ""


def _number(node):
    # the value of a signed int or float literal, else None
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return None
    return value if isinstance(value, (int, float)) and not isinstance(value, bool) else None


def _default(call):
    # the default a _checked(check, default) call passes, by position or keyword
    return next(iter(call.args[1:2] + [k.value for k in call.keywords if k.arg == "default"]), None)


def _right_angle(node) -> bool:
    # pi/2 written as 0.5 * pi, pi * 0.5 or pi / 2, of either sign
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    if not isinstance(node, ast.BinOp):
        return False
    left, right = (_name(side) if _number(side) is None else abs(_number(side)) for side in (node.left, node.right))
    return (isinstance(node.op, ast.Mult) and {left, right} == {"pi", 0.5}
            or isinstance(node.op, ast.Div) and (left, right) == ("pi", 2))


# A hand-written copy of specfun.require's rule reads ": <name> must be <bound>", with
# words before the bound or not ("must be finite and > 0", "an integer >= 1"), and
# anything after it ("... when count_Nx > 1"); "positive" spells "> 0".
HAND_WRITTEN_BOUND = re.compile(r": (\w+|\{\}) must be ([\w ]+ )?(> 0|>= 0|>= 1|positive)\b")

# Each rule: what it matches, given a node and its context; the owners,
# qualified as module.owner, that may match it; and why it has one owner.
Rule = namedtuple("Rule", "match allowed reason")
RULES = {
    "range": Rule(
        lambda node, ctx: isinstance(node, ast.Raise) and _called(node.exc) == "ValueError"
        and any(HAND_WRITTEN_BOUND.search(_text(arg)) for arg in node.exc.args),
        {"synthesis.ExcitationWeights.__post_init__", "synthesis.ratio_sweep", "radiators.FrequencyContext.__post_init__"},
        "specfun.require is the one range rule; a ValueError that spells its message out is a copy. Three spell one "
        "out: the study layer imports nothing from specfun, so ExcitationWeights and ratio_sweep keep their own "
        "checks, and FrequencyContext's second check is on the derived wavelength c / f, whose message "
        "tests/golden.json pins"),
    "grid": Rule(
        lambda node, ctx: _called(node) == "default_theta_grid"
        or isinstance(node, ast.Raise) and "grid spacing must be" in ast.unparse(node),
        {"synthesis.metrics_grid"}, "metrics_grid alone picks a study's default theta grid or refuses a coarse one"),
    "phasor": Rule(
        lambda node, ctx: isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
        and _called(node.left) == "cos" and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Mult)
        and {_called(f) or getattr(f, "value", None) for f in (node.right.left, node.right.right)} == {1j, "sin"},
        set(), "np.exp forms a phasor; cos(x) -/+ 1j * sin(x), either factor first, is a second form"),
    "log10": Rule(
        lambda node, ctx: _name(node) == "log10",
        {"synthesis._amplitude_db"}, "_amplitude_db is the one dB rule; pattern.csv, the SVG, the SLL and the scan loss "
        "pass it their floors"),
    "cut-magnitudes": Rule(
        lambda node, ctx: isinstance(node, ast.Call) and bool(node.args) and (
            _called(node) == "abs" and (_values(node.args[0]) or getattr(node.args[0], "id", None) in ctx.items)
            or _called(node) == "map" and getattr(node.args[0], "id", None) == "abs" and _values(node.args[-1])),
        {"synthesis.PatternCut.__post_init__"}, "PatternCut takes |values| once; the metrics, the SVG trace and "
        "pattern.csv read its magnitudes"),
    "generator-tuple": Rule(
        lambda node, ctx: ctx.in_function and _called(node) == "tuple"
        and len(node.args) == 1 and isinstance(node.args[0], ast.GeneratorExp),
        set(), "a tuple built from a generator on every call fills a tuple free list"),
    "schema-walk": Rule(  # importing fields is not a walk
        lambda node, ctx: _name(node) == "astuple"
        or _name(node) == "fields" and not isinstance(node, ast.alias) and id(node) not in ctx.cached,
        set(), "a dataclass's fields are computed once, by a module-level cache(fields); astuple walks them per call"),
    "grid-limits": Rule(  # the constant's module-level line binds it, which is no use of it
        lambda node, ctx: _name(node) in ("MAX_GRID_POINTS", "nextafter")
        and not (isinstance(getattr(node, "ctx", None), ast.Store) and ctx.owner == "<module>"),
        {"specfun.stepped_grid"}, "stepped_grid alone caps a grid's points and checks its step against the float "
        "spacing at stop; the config prefixes its message with the section"),
    "grid-rules": Rule(
        lambda node, ctx: isinstance(node, ast.Raise) and _called(node.exc) == "ConfigError"
        and any(rule in _text(arg) for arg in node.exc.args for rule in ("must be >= start_", "angles must lie within")),
        {"config.FrequencyGridConfig.__post_init__", "config.ThetaGridConfig.__post_init__"},
        "each grid section owns its cross-field rules, so a RunConfig built in Python and a parsed one are refused "
        "alike"),
    "reference-design": Rule(
        lambda node, ctx: _called(node) == "_checked" and _number(_default(node)) is not None,
        {"config.WeightsConfig", "config.FrequencyGridConfig"},
        "the geometry and strip sections read the reference design from SlotSpec(), MonopoleSpec(), ArrayLayout() "
        "and MicrostripSpec(); only the weights and the frequency grid have defaults that no model type owns"),
    "half-space-edge": Rule(
        lambda node, ctx: isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
        and any(_right_angle(angle) and _number(slack) is not None
                for angle, slack in ((node.left, node.right), (node.right, node.left))),
        {"radiators.<module>"}, "radiators.HALF_SPACE_EDGE is the one edge of the upper half-space, pi/2 rad plus "
        "its slack; monopole_pattern and PatternCut read it"),
}


def owner_sites(name: str, module: str, source: str) -> list:
    # (owner, line, whether that owner may match) of each node the rule matches
    rule = RULES[name]
    return [(ctx.owner, node.lineno, f"{module}.{ctx.owner}" in rule.allowed)
            for node, ctx in owned_nodes(ast.parse(source)) if rule.match(node, ctx)]


@pytest.mark.parametrize("name, path", [pytest.param(name, path, id=f"{name}-{path.name}")
                                        for name in RULES for path in MODULES])
def test_each_rule_keeps_to_its_owners(name, path):
    sites = owner_sites(name, path.stem, path.read_text(encoding="utf-8"))
    assert [(owner, line) for owner, line, allowed in sites if not allowed] == [], RULES[name].reason
    # each owner here still matches its rule, so the rule has not gone blind
    owners = {owner for owner in RULES[name].allowed if owner.startswith(f"{path.stem}.")}
    assert {f"{path.stem}.{owner}" for owner, _, allowed in sites if allowed} == owners


# One nested def and one method that share an owner's name, beside the owners themselves
NAMESAKES = (
    "def pattern_metrics(cut):\n    def _amplitude_db(ratio):\n        return 20.0 * np.log10(ratio)\n"
    "class Study:\n    def metrics_grid(self):\n        return default_theta_grid()\n"
    "def _amplitude_db(ratio):\n    return 20.0 * math.log10(ratio)\n"
    "def metrics_grid(theta_grid=None):\n    return default_theta_grid() if theta_grid is None else theta_grid\n"
)
# (rule, module, offending source, its (owner, line) sites outside the rule's owners)
SNIPPETS = [
    ("range", "snippet", (
        "if not f > 0:\n    raise ValueError('skin_depth: f must be > 0')\n"
        "for n in 'ab':\n    raise ValueError(f'LossBudget: {n} must be >= 0')\n"
        "raise ValueError('ArrayLayout: spacing_dx must be > 0 when count_Nx > 1')\n"
        "raise ValueError(f'{owner}: {name} must be {bound}')\n"
        "raise TypeError('eps: x must be >= 1')\n"
    ), [("<module>", 2), ("<module>", 4), ("<module>", 5)]),
    ("range", "synthesis", (
        "def ratio_sweep(ratios):\n    raise ValueError('ratio_sweep: ratios must be finite and positive')\n"
        "def check(name):\n    raise ValueError(f'ArrayLayout: {name} must be an integer >= 1')\n"
        "raise ValueError('FrequencyContext: frequency_f must be finite and > 0, with a finite wavelength c / f')\n"
        "raise ValueError('SlotSpec: length_L must be positive')\n"
        "raise ValueError('ArrayLayout: count_Nx must be an integer')\n"
        "raise ValueError('grid must have at most 5 points')\n"
        "raise ValueError('ratio_sweep: ratios must be finite and positive numbers > 0.5')\n"
    ), [("check", 4), ("<module>", 5), ("<module>", 6), ("<module>", 9)]),
    ("grid", "snippet", (
        "def metrics_grid(g=None):\n    raise ValueError('pattern_metrics: grid spacing must be <= 0.5 degrees')\n"
        "def study(g=None):\n    grid = default_theta_grid() if g is None else g\n"
        "GRID = synthesis.default_theta_grid()\n"
        "def check(step):\n    raise ValueError(f'pattern_metrics: grid spacing must be <= {step} degrees')\n"
    ), [("metrics_grid", 2), ("study", 4), ("<module>", 5), ("check", 7)]),
    ("grid", "synthesis", NAMESAKES, [("Study.metrics_grid", 6)]),
    ("phasor", "snippet", (
        "a = np.cos(u * ct) - 1j * np.sin(u * ct)\n"
        "b = math.cos(v) + math.sin(v) * 1j\n"
        "c = np.exp(-1j * v)\n"
        "d = np.cos(v) - 2 * np.sin(v)\n"
        "e = np.sin(v) - 1j * np.cos(v)\n"
    ), [("<module>", 1), ("<module>", 2)]),
    ("log10", "snippet", (
        "def _amplitude_db(ratio, floor=-math.inf):\n    return max(20.0 * math.log10(ratio), floor)\n"
        "def _mag_db(m):\n    return max(20.0 * np.log10(m), -400.0)\n"
        "from math import log10\n"
        "LEVEL = 20.0 * log10(0.5)\n"
        "NEPER_TO_DB = 20.0 / math.log(10.0)\n"
    ), [("_amplitude_db", 2), ("_mag_db", 4), ("<module>", 5), ("<module>", 6)]),
    ("log10", "synthesis", NAMESAKES, [("pattern_metrics._amplitude_db", 3)]),
    ("cut-magnitudes", "snippet", (
        "class PatternCut:\n    def __post_init__(self):\n        mags = np.abs(self.values)\n"
        "def render(cut):\n    return np.abs(cut.values) / abs(cut.values).max()\n"
        "def build(cut):\n    peak = max(map(abs, cut.values))\n"
        "    return [abs(v) / peak for d, v in zip(grid, cut.values)]\n"
        "def walk(cut):\n    for v in cut.values:\n        yield abs(v)\n"
        "def fine(cut, values, d):\n"
        "    return np.abs(values), abs(cut.tilt), [abs(g) for g, v in zip(grid, cut.values)], map(abs, d.values())\n"
    ), [("PatternCut.__post_init__", 3), ("render", 5), ("render", 5), ("build", 7), ("build", 8), ("walk", 11)]),
    ("generator-tuple", "snippet", (
        "NAMES = tuple(m.value for m in Model)\n"
        "def f(xs):\n    return tuple(float(x) for x in xs), tuple([x for x in xs]), tuple(xs)\n"
        "g = lambda: tuple(i / 10 for i in range(3))\n"
        "class C:\n    ORDER = tuple(c for c in 'ab')\n"
        "    def m(self):\n        return sorted(x for x in self), [tuple(y for y in x) for x in self]\n"
    ), [("f", 3), ("<lambda>", 4), ("C.m", 8)]),
    ("schema-walk", "snippet", (
        "from dataclasses import astuple, fields\n"
        "_fields = functools.cache(dataclasses.fields)\n"
        "_cached = cache(fields)\n"
        "def names(cls):\n    return [f.name for f in fields(cls)]\n"
        "def values(g):\n    return dataclasses.astuple(g), cache(fields)(g)\n"
    ), [("<module>", 1), ("names", 5), ("values", 7), ("values", 7)]),
    ("grid-limits", "specfun", (
        "MAX_GRID_POINTS = 100_000\n"
        "def stepped_grid(start, stop, step):\n"
        "    if (stop - start) / step + 1 > MAX_GRID_POINTS:\n"
        "        raise ValueError(f'grid must have at most {MAX_GRID_POINTS} points')\n"
        "    return np.nextafter(stop, math.inf)\n"
        "def parse_config(grids):\n    for start, stop, step in grids:\n"
        "        if step < math.nextafter(abs(stop), math.inf) - abs(stop):\n"
        "            raise ConfigError(f'at most {MAX_GRID_POINTS} points')\n"
        "from math import nextafter\n"
        "class Grid:\n    def stepped_grid(self):\n        MAX_GRID_POINTS = 5\n"
        "SPACING = np.spacing(1.0)\n"
    ), [("parse_config", 8), ("parse_config", 9), ("<module>", 10), ("Grid.stepped_grid", 13)]),
    ("grid-rules", "config", (
        "class ThetaGridConfig:\n    def __post_init__(self):\n"
        "        raise ConfigError('theta_grid.stop_deg: must be >= start_deg')\n"
        "def parse_config(freq, theta):\n"
        "    if freq.stop_ghz < freq.start_ghz:\n"
        "        raise ConfigError('frequency_grid.stop_ghz: must be >= start_ghz')\n"
        "    raise ConfigError(f'{path}: angles must lie within [-90, 90] degrees')\n"
        "class FrequencyGridConfig:\n    def check(self):\n"
        "        raise ConfigError('frequency_grid.stop_ghz: must be >= start_ghz')\n"
        "raise ValueError('theta_grid.stop_deg: must be >= start_deg')\n"
        "raise ConfigError('frequency_grid.step_ghz: must be > 0')\n"
    ), [("parse_config", 6), ("parse_config", 7), ("FrequencyGridConfig.check", 10)]),
    ("reference-design", "config", (
        "class SlotConfig:\n    length_mm: float = _checked('> 0', 4.8)\n"
        "    amplitude_e0: float = _checked('> 0', SlotSpec().amplitude_E0)\n"
        "class ArrayConfig:\n    count_nx: int = _checked('>= 1', default=1)\n"
        "    spacing_dx_mm: float = _checked('> 0', -1.2)\n"
        "class WeightsConfig:\n    s1: float = _checked('>= 0', 1.0)\n"
        "    ratios: tuple = _checked('> 0', default_factory=list)\n"
        "class StripConfig:\n    substrate: str = _checked('str', 'FR4')\n"
        "    width_mm: float = _checked('> 0')\n"
    ), [("SlotConfig", 2), ("ArrayConfig", 5), ("ArrayConfig", 6)]),
    ("half-space-edge", "radiators", (
        "HALF_SPACE_EDGE = 0.5 * math.pi + 1e-9\n"
        "def monopole_pattern(theta):\n    return theta <= 0.5 * math.pi + 1e-12\n"
        "class PatternCut:\n    def check(self, g):\n"
        "        return g[0] < -0.5 * math.pi - 1e-9 or g[-1] > np.pi / 2 + 1e-9\n"
        "def fine(theta, slack):\n"
        "    return 0.5 * math.pi - theta, math.pi / 2 + slack, 2 * math.pi + 1e-9, theta + HALF_SPACE_EDGE\n"
        "def flipped():\n    return 1e-9 + math.pi * 0.5, -(math.pi / 2.0) - 1e-12\n"
    ), [("monopole_pattern", 3), ("PatternCut.check", 6), ("PatternCut.check", 6), ("flipped", 10), ("flipped", 10)]),
    ("half-space-edge", "synthesis", "EDGE = 0.5 * math.pi + 1e-9\n", [("<module>", 1)]),
]


@pytest.mark.parametrize("name, module, source, sites", SNIPPETS, ids=[f"{row[0]}-{row[1]}" for row in SNIPPETS])
def test_detects_a_rule_outside_its_owners(name, module, source, sites):
    assert [(owner, line) for owner, line, allowed in owner_sites(name, module, source) if not allowed] == sites


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
    env = {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error"}
    run = subprocess.run([sys.executable, "-c", NEW_MODULES], env=env, capture_output=True, text=True, check=True)
    new_modules = run.stdout.split()
    assert "tiltbeam.cli" in new_modules
    assert unexpected_cold_imports(new_modules) == []


def test_detects_a_heavy_module_on_the_cold_cli_path():
    new_modules = ["__future__", "json.decoder", "numpy.polynomial", "scipy.special", "tiltbeam.cli", "jsonschema"]
    assert unexpected_cold_imports(new_modules) == ["numpy.polynomial", "scipy.special", "jsonschema"]


def local_policy_sites(source: str) -> list:
    # lines where a test sets its own warning filter, Hypothesis deadline or derandomize
    return sorted({node.lineno for node in ast.walk(ast.parse(source)) if (
        isinstance(node, ast.Attribute) and node.attr == "filterwarnings" and _name(node.value) == "mark"
        or _called(node) == "settings" and bool({k.arg for k in node.keywords} & {"deadline", "derandomize"})
        or _called(node) in ("simplefilter", "filterwarnings")
        and "error" in [_text(arg) for arg in node.args + [k.value for k in node.keywords]])})


def test_tests_leave_the_policy_to_one_place():
    sites = [f"{path.name}:{line}" for path in TESTS for line in local_policy_sites(path.read_text(encoding="utf-8"))]
    assert sites == []


def test_detects_a_local_policy():
    # each decorator written as the call it is
    source = (
        'pytestmark = pytest.mark.filterwarnings("error")\n'
        "check = settings(max_examples=5, deadline=None)(check)\n"
        "check = settings(derandomize=True)(check)\n"
        "check = settings(max_examples=5)(check)\n"
        'warnings.simplefilter("error")\n'
        'warnings.filterwarnings(action="error", category=RuntimeWarning)\n'
        'warnings.simplefilter("ignore")\n'
        'settings.register_profile("p", deadline=None)\n'
        'ignored = pytest.mark.filterwarnings("ignore")(check)\n'
    )
    assert local_policy_sites(source) == [1, 2, 3, 5, 6, 9]


def test_the_policy_is_in_force():
    assert settings.default.derandomize is True and settings.default.deadline is None
    with pytest.raises(RuntimeWarning):
        warnings.warn("probe", RuntimeWarning)


# A property that fails on n = 5, and a test after it that passes only under the root profile
FAILING_PROPERTY = (
    "from hypothesis import given, settings, strategies as st\n"
    "@given(st.integers())\ndef test_fails(n):\n    assert n < 5\n"
    "def test_passes():\n    assert settings.default.derandomize\n"
)


def test_a_failing_property_reports_its_example_and_the_session_goes_on(tmp_path):
    # Runs under pyproject.toml's warning policy and the root conftest.py's profile. On a
    # failure Hypothesis writes the example as a patch under the working directory, here tmp_path.
    root = PACKAGE.parents[1]
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root), os.environ.get("PYTHONPATH")]))}
    command = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(root / "pyproject.toml"),
               "--rootdir", str(tmp_path), "-p", "conftest", "test_probe.py"]
    run = subprocess.run([sys.executable, *command], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example: test_fails(\n" in run.stdout and "n=5," in run.stdout
    assert run.stdout.splitlines()[-1].startswith("1 failed, 1 passed in ")
