"""Run configuration: JSON ingestion, validation, and materialization.

Config files carry external units (millimeters, gigahertz, degrees) and
those values are stored verbatim so a load, serialize, load cycle is the
identity. Conversion to SI happens only in the materializer methods that
build the model-layer spec objects.

The section dataclasses are the schema: parsing, defaults, unknown-key
rejection and serialization all walk their fields.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, astuple, dataclass, field, fields, is_dataclass, replace

import numpy as np

from .arrayfactor import ArrayLayout
from .circuitmodel import SUBSTRATE_PRESETS, MicrostripSpec, SubstrateSpec
from .radiators import CurrentModel, MonopoleSpec, SlotSpec
from .specfun import _BOUNDS
from .synthesis import AntennaGeometry, ExcitationWeights, stepped_grid


class ConfigError(ValueError):
    """Raised for config parse or validation failures."""


_CURRENT_MODELS = tuple(model.value for model in CurrentModel)

# Most points a theta or frequency grid may expand to.
MAX_GRID_POINTS = 100_000

# The per-field rules, by name. A field's annotation (text, by the __future__
# import) names its JSON type, its metadata may name one check (a bound of
# specfun.require, or the current model), and a field with no default is
# required. Finiteness is checked last: a value failing both reports its check.
_RULES = {
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "must be a number"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "must be an integer"),
    "str": (lambda v: isinstance(v, str), "must be a string"),
    **{bound: (test, f"must be {bound}") for bound, test in _BOUNDS.items()},
    "current_model": (lambda v: v in _CURRENT_MODELS, f"must be one of {_CURRENT_MODELS}"),
    # also rejects integers too large for a float
    "finite": (lambda v: abs(v) <= sys.float_info.max, "must be finite"),
}


def _checked(check, default=MISSING, **kwargs):
    return field(default=default, metadata={"check": check}, **kwargs)


@dataclass(frozen=True)
class SlotConfig:
    length_mm: float = _checked("> 0", 4.8)
    amplitude_e0: float = _checked("> 0", 1.0)


@dataclass(frozen=True)
class MonopoleConfig:
    height_mm: float = _checked("> 0", 1.2)
    ground_radius_mm: float = _checked("> 0", 5.0)
    current_model: str = _checked("current_model", "sinusoidal")


@dataclass(frozen=True)
class ArrayConfig:
    count_nx: int = _checked(">= 1", 1)
    count_ny: int = _checked(">= 1", 2)
    spacing_dx_mm: float = _checked("> 0", 1.2)
    spacing_dy_mm: float = _checked("> 0", 1.2)


@dataclass(frozen=True)
class StripConfig:
    width_mm: float = _checked("> 0", 0.24)
    length_mm: float = _checked("> 0", 1.98)
    substrate: str = "FR4"
    # dielectric height under the strip (the thin top layer of the stack),
    # independent of the named substrate's slab thickness
    substrate_thickness_mm: float = _checked("> 0", 0.1)
    conductivity_s_per_m: float = _checked("> 0", 5.8e7)
    roughness_um: float = _checked(">= 0", 0.0)


@dataclass(frozen=True)
class SubstrateConfig:
    eps_r: float = _checked(">= 1")
    tan_delta: float = _checked(">= 0")
    thickness_mm: float = _checked("> 0")


@dataclass(frozen=True)
class FrequencyGridConfig:
    start_ghz: float = _checked("> 0", 32.4)
    stop_ghz: float = 32.4  # when absent: max(32.4, start_ghz)
    step_ghz: float = _checked("> 0", 1.0)


@dataclass(frozen=True)
class ThetaGridConfig:
    start_deg: float = -90.0
    stop_deg: float = 90.0
    step_deg: float = _checked("> 0", 0.25)


@dataclass(frozen=True)
class WeightsConfig:
    s1: float = _checked(">= 0", 1.0)
    s2: float = _checked(">= 0", 0.3)
    # a non-empty array whose every entry passes the check
    ratios: tuple = _checked("> 0", default_factory=lambda: tuple(i / 10 for i in range(1, 11)))


# RunConfig sections that sit under "geometry" in the JSON form
_GEOMETRY = ("slot", "monopole", "array", "strip")


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration in external units."""

    slot: SlotConfig = SlotConfig()
    monopole: MonopoleConfig = MonopoleConfig()
    array: ArrayConfig = ArrayConfig()
    strip: StripConfig = StripConfig()
    substrates: dict = field(default_factory=dict)  # name -> SubstrateConfig
    frequency_grid: FrequencyGridConfig = FrequencyGridConfig()
    theta_grid: ThetaGridConfig = ThetaGridConfig()
    weights: WeightsConfig = WeightsConfig()
    output_dir: str = "out"

    # materializers: external units in, SI spec objects out

    def slot_spec(self) -> SlotSpec:
        return SlotSpec(self.slot.length_mm * 1e-3, self.slot.amplitude_e0)

    def monopole_spec(self) -> MonopoleSpec:
        m = self.monopole
        return MonopoleSpec(m.height_mm * 1e-3, m.ground_radius_mm * 1e-3, CurrentModel(m.current_model))

    def array_layout(self) -> ArrayLayout:
        a = self.array
        return ArrayLayout(a.count_nx, a.count_ny, a.spacing_dx_mm * 1e-3, a.spacing_dy_mm * 1e-3)

    def geometry(self) -> AntennaGeometry:
        return AntennaGeometry(self.slot_spec(), self.monopole_spec(), self.array_layout())

    def substrate_table(self) -> dict:
        table = dict(SUBSTRATE_PRESETS)
        for name, sc in self.substrates.items():
            table[name] = SubstrateSpec(name, sc.eps_r, sc.tan_delta, sc.thickness_mm * 1e-3)
        return table

    def strip_spec(self) -> MicrostripSpec:
        s = self.strip
        material = self.substrate_table().get(s.substrate)
        if material is None:
            raise ConfigError(f"geometry.strip.substrate: unknown substrate '{s.substrate}'")
        layer = replace(material, thickness_h=s.substrate_thickness_mm * 1e-3)
        return MicrostripSpec(
            s.width_mm * 1e-3, s.length_mm * 1e-3, layer, s.conductivity_s_per_m, s.roughness_um * 1e-6
        )

    def excitation_weights(self) -> ExcitationWeights:
        return ExcitationWeights(self.weights.s1, self.weights.s2)

    def frequencies_hz(self) -> list:
        return [float(v) * 1e9 for v in stepped_grid(*astuple(self.frequency_grid))]

    def theta_grid_deg(self) -> np.ndarray:
        return stepped_grid(*astuple(self.theta_grid))

    def theta_grid_rad(self) -> np.ndarray:
        return np.radians(self.theta_grid_deg())


def _object(value, path: str, known=None) -> dict:
    # The mapping at path ("" for the top level); its keys must be in known, if given.
    if not isinstance(value, dict):
        raise ConfigError(f"{path or 'config'}: must be an object")
    for key in value:
        if known is not None and key not in known:
            raise ConfigError(f"unknown key: {path}.{key}" if path else f"unknown key: {key}")
    return value


def _scalar(kind: str, check, value, where: str):
    for rule in (kind, check, "finite" if kind in ("float", "int") else None):
        if rule and not _RULES[rule][0](value):
            raise ConfigError(f"{where}: {_RULES[rule][1]}")
    return float(value) if kind == "float" else value


def _section(cls, data, path: str):
    d = _object(data, path, [f.name for f in fields(cls)])
    for f in fields(cls):
        if f.name not in d and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}.{f.name}: required")
    values = {}
    for f in (f for f in fields(cls) if f.name in d):
        where, check, raw = f"{path}.{f.name}", f.metadata.get("check"), d[f.name]
        if f.type != "tuple":
            values[f.name] = _scalar(f.type, check, raw, where)
        elif not isinstance(raw, list) or not raw:
            raise ConfigError(f"{where}: must be a non-empty array of numbers")
        else:
            values[f.name] = tuple(_scalar("float", check, v, f"{where}[{i}]") for i, v in enumerate(raw))
    return cls(**values)


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed JSON object and fill defaults for absent fields."""
    top = _object(data, "", ["geometry"] + [f.name for f in fields(RunConfig) if f.name not in _GEOMETRY])
    geometry = _object(top.get("geometry", {}), "geometry", _GEOMETRY)
    values = {}
    for f in fields(RunConfig):
        src, path = (geometry, f"geometry.{f.name}") if f.name in _GEOMETRY else (top, f.name)
        if f.name not in src or f.name == "output_dir":  # output_dir reports after the sections
            continue
        if f.name == "substrates":
            entries = _object(src[f.name], path).items()
            values[f.name] = {k: _section(SubstrateConfig, v, f"{path}.{k}") for k, v in entries}
        else:
            values[f.name] = _section(type(f.default), src[f.name], path)
    cfg = RunConfig(**values)

    # checks that span fields, in the order they report
    freq, theta = cfg.frequency_grid, cfg.theta_grid
    if "stop_ghz" not in top.get("frequency_grid", {}):
        freq = replace(freq, stop_ghz=max(freq.stop_ghz, freq.start_ghz))
    if freq.stop_ghz < freq.start_ghz:
        raise ConfigError("frequency_grid.stop_ghz: must be >= start_ghz")
    if theta.stop_deg < theta.start_deg:
        raise ConfigError("theta_grid.stop_deg: must be >= start_deg")
    if theta.start_deg < -90.0 or theta.stop_deg > 90.0:
        raise ConfigError("theta_grid: angles must lie within [-90, 90] degrees")
    if cfg.weights.s1 == 0 and cfg.weights.s2 == 0:
        raise ConfigError("weights: s1 and s2 must not both be zero")
    out_dir = _scalar("str", None, top.get("output_dir", "out"), "output_dir")
    if not out_dir:
        raise ConfigError("output_dir: must be a non-empty string")
    for path, (start, stop, step) in (("frequency_grid", astuple(freq)), ("theta_grid", astuple(theta))):
        if (stop - start) / step + 1 > MAX_GRID_POINTS:  # before np.arange allocates them
            raise ConfigError(f"{path}: grid must have at most {MAX_GRID_POINTS} points")
        # stepped_grid would repeat values; the spacing above the largest float is inf
        if step < math.nextafter(abs(stop), math.inf) - abs(stop):
            raise ConfigError(f"{path}: step must be at least the float spacing at stop")
    cfg = replace(cfg, frequency_grid=freq, output_dir=out_dir)
    try:  # the substrate must resolve, and each length stay > 0 in metres (1e-322 mm is 0.0 m)
        cfg.strip_spec()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(path) -> RunConfig:
    """Read and validate a JSON config file."""
    try:  # read() decodes the whole file in one call, so exc.start is a file offset
        with open(path, "r", encoding="utf-8") as fh:
            data = json.loads(fh.read())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config parse error: not UTF-8 text (byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError("config parse error: nesting too deep") from exc
    return parse_config(data)


def _plain(value):
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {name: _plain(entry) for name, entry in sorted(value.items())}
    return list(value) if isinstance(value, tuple) else value


def serialize_config(cfg: RunConfig) -> dict:
    """Full-form JSON object for a config; inverse of parse_config."""
    flat = _plain(cfg)
    return {"geometry": {name: flat.pop(name) for name in _GEOMETRY}, **flat}
