"""The shared drawers draw what they promise: every bound of the range rule
with the float either side of it, each listed edge of the float scale, and
configs in which every field with a check appears. That each drawn config
parses and survives the JSON round trip is `test_config.py`'s
`test_serialize_then_parse_is_identity`, which draws from `configs`."""

import math
import sys
from dataclasses import fields

import pytest
from hypothesis import Phase, find, settings
from hypothesis.errors import NoSuchExample

from tiltbeam.config import RunConfig, SubstrateConfig
from tiltbeam.specfun import _BOUNDS

from strategies import SECTIONS, configs, edge_floats

LARGEST = sys.float_info.max
# the listed edges: each sign of zero, the smallest subnormal, 1e-300, 1e300, the float spacing near the
# largest float, the float below the largest, and the largest
LISTED = [s * v for v in (0.0, 5e-324, 1e-300, 1e300, math.ulp(LARGEST), math.nextafter(LARGEST, 0.0), LARGEST)
          for s in (1, -1)]


def _signed(value):
    return value, math.copysign(1.0, value)


def _draws_all(strategy, wanted: set):
    # each draw is a set of keys; find stops, unshrunk, at the first draw after which every wanted key is seen
    seen = set()

    def seen_all(keys):
        seen.update(keys)
        return wanted <= seen

    try:
        find(strategy, seen_all, settings=settings(max_examples=2000, phases=[Phase.generate]))
    except NoSuchExample:
        pytest.fail(f"never drawn: {sorted(wanted - seen)}")


def _edges(strategy, values):
    _draws_all(strategy.map(lambda v: {_signed(v)}), {_signed(v) for v in values})


def _near(bound):
    edge = float(bound.split()[-1])
    return [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]


def test_every_bound_with_its_neighbours_and_each_listed_edge_is_drawn():
    _edges(edge_floats(), [v for bound in _BOUNDS for v in _near(bound)] + LISTED)


@pytest.mark.parametrize("bound", list(_BOUNDS))
def test_a_bound_draws_every_edge_it_accepts_and_no_other(bound):
    _edges(edge_floats(bound), [v for v in _near(bound) + LISTED if _BOUNDS[bound](v)])
    with pytest.raises(NoSuchExample):
        find(edge_floats(bound), lambda v: not _BOUNDS[bound](v), settings=settings(max_examples=500))


def _paths(data, path=""):
    # the JSON path of each value a config sets, with each substrate entry's under substrates.<name>
    for key, value in data.items():
        key = "<name>" if path == "substrates." else key
        yield from _paths(value, f"{path}{key}.") if isinstance(value, dict) else [path + key]


def test_every_field_with_a_check_is_drawn():
    wanted = {cls._path + f.name for cls in (RunConfig, SubstrateConfig, *SECTIONS.values())
              for f in fields(cls) if "check" in f.metadata}
    _draws_all(configs().map(lambda data: set(_paths(data))), wanted)
