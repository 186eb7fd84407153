"""Edge values and valid configs: the one source the Hypothesis properties draw from.

`configs` reads each section's fields, their JSON kinds and their checks from
the config dataclasses, so a new field with a check is drawn with no test
edit. A field with no check is tied to another field by a rule written here.
"""

import math
import sys
from dataclasses import fields, is_dataclass
from functools import cache

from hypothesis import assume
from hypothesis import strategies as st

from tiltbeam.circuitmodel import SUBSTRATE_PRESETS
from tiltbeam.config import _GEOMETRY, RunConfig, SubstrateConfig, parse_config, serialize_config
from tiltbeam.radiators import CurrentModel
from tiltbeam.specfun import _BOUNDS, MAX_GRID_POINTS

LARGEST = sys.float_info.max
SECTIONS = {f.name: type(f.default) for f in fields(RunConfig) if is_dataclass(f.default)}


def _edge(bound: str) -> float:
    return float(bound.split()[-1])


# Each require bound with the float either side of it (toward itself, nextafter gives the bound); then, each
# with either sign: zero, the smallest subnormal and normal floats, 1e-300, a step far past the point cap, a
# quarter degree, pi/2 rad, 90 degrees and a quarter degree either side, 1e300, the float spacing near the
# largest float, the step that spans it in MAX_GRID_POINTS points, its half, the float below it, and itself.
# Keyed by repr, which keeps 0.0 and -0.0 apart.
EDGES = tuple({repr(v): v for v in [
    *(math.nextafter(_edge(bound), toward) for bound in _BOUNDS for toward in (-math.inf, _edge(bound), math.inf)),
    *(sign * v for sign in (1, -1) for v in (
        0.0, 5e-324, sys.float_info.min, 1e-300, 1e-9, 0.25, 0.5 * math.pi, 89.75, 90.0, 90.25, 1e300,
        math.ulp(LARGEST), LARGEST / (MAX_GRID_POINTS - 1), 0.5 * LARGEST, math.nextafter(LARGEST, 0.0), LARGEST)),
]}.values())
NONFINITE = (math.inf, -math.inf, math.nan)  # for the properties of a refusal


@cache
def edge_floats(bound=None):
    """An edge value; given a require bound, one that bound accepts."""
    return st.sampled_from([v for v in EDGES if bound is None or _BOUNDS[bound](v)])


@cache
def floats(bound=None):
    """A finite float, an edge value or any other; given a require bound, one that bound accepts."""
    above = {} if bound is None else {"min_value": _edge(bound), "exclude_min": not bound.startswith(">=")}
    return st.one_of(edge_floats(bound), st.floats(allow_nan=False, allow_infinity=False, **above))


@cache
def _checked(f):
    # by the field's check: a current model, a non-empty string, an integer a float can hold, or a float,
    # and a length in mm stays > 0 in metres
    check = f.metadata["check"]
    if check == "current_model":
        return st.sampled_from([model.value for model in CurrentModel])
    if check == "non-empty":
        return st.text(min_size=1)
    if f.type == "int":
        return st.integers(math.floor(_edge(check)), int(LARGEST)).filter(_BOUNDS[check])
    return floats(check).filter(lambda v: v * 1e-3 > 0) if f.name.endswith("_mm") else floats(check)


def _drawn(draw, cls, every=False) -> dict:
    # each field of cls with a check, present or (unless every) not
    return {f.name: draw(_checked(f)) for f in fields(cls) if "check" in f.metadata and (every or draw(st.booleans()))}


@st.composite
def configs(draw) -> dict:
    """A JSON config that parse_config accepts, each section and field present or not."""
    data = {**_drawn(draw, RunConfig), **{name: _drawn(draw, cls) for name, cls in SECTIONS.items()}}
    presets = sorted(SUBSTRATE_PRESETS)
    names = draw(st.lists(st.one_of(st.sampled_from(presets), st.text()), unique=True, max_size=3))
    substrates = {name: _drawn(draw, SubstrateConfig, every=True) for name in names}
    # the strip's substrate is a preset or an entry
    if draw(st.booleans()):
        data["strip"]["substrate"] = draw(st.sampled_from(presets + names))
    # the weights are not both zero, and the ratios are positive
    weights = SECTIONS["weights"](**data["weights"])
    assume(weights.s1 != 0 or weights.s2 != 0)
    if draw(st.booleans()):
        data["weights"]["ratios"] = draw(st.lists(floats("> 0"), min_size=1, max_size=12))
    # -90 <= start <= stop <= 90 degrees
    theta, frequency = data["theta_grid"], data["frequency_grid"]
    if draw(st.booleans()):
        theta["start_deg"] = draw(st.floats(-90.0, 90.0))
    if draw(st.booleans()):
        theta["stop_deg"] = draw(st.floats(theta.get("start_deg", -90.0), 90.0))
    # start <= stop < the largest float, above which the float spacing is inf
    assume(frequency.get("start_ghz", 0.0) < LARGEST)
    if draw(st.booleans()):
        start = SECTIONS["frequency_grid"](**frequency).start_ghz
        frequency["stop_ghz"] = min(start + draw(floats(">= 0")), math.nextafter(LARGEST, 0.0))
    # a step at least the float spacing at stop, over at most MAX_GRID_POINTS points (n - 2 steps round to
    # at most n - 1 points)
    for name, grid in (("frequency_grid", frequency), ("theta_grid", theta)):
        start, stop, step = (getattr(SECTIONS[name](**grid), f.name) for f in fields(SECTIONS[name]))
        least = max(math.ulp(stop), (stop - start) / draw(st.integers(1, MAX_GRID_POINTS - 2)))
        if step < least:
            grid[fields(SECTIONS[name])[-1].name] = least
    # an absent section keeps every rule by its defaults; the substrates go along, as the strip may name one
    geometry = {name: data.pop(name) for name in _GEOMETRY}
    data["geometry"] = {name: section for name, section in geometry.items() if draw(st.booleans())}
    return {**{key: value for key, value in data.items() if draw(st.booleans())}, "substrates": substrates}


def scaled(data: dict, k: int) -> dict:
    """The full form of a config at 2**k times its electrical size.

    Every length in mm is multiplied by 2**k, and every frequency in GHz by 2**-k. The stop is explicit in
    the full form: the default stop, the band centre, is an absolute frequency and would not scale.
    """
    def scale(key: str, value):
        if isinstance(value, dict):
            return {name: scale(name, entry) for name, entry in value.items()}
        if key.endswith("_mm"):
            return math.ldexp(value, k)
        return math.ldexp(value, -k) if key.endswith("_ghz") else value
    return scale("", serialize_config(parse_config(data)))
