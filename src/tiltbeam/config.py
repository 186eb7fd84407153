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
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cache

import numpy as np

from .arrayfactor import ArrayLayout
from .circuitmodel import SUBSTRATE_PRESETS, MicrostripSpec, SubstrateSpec
from .radiators import NORMALIZATION_STEP_DEG, CurrentModel, MonopoleSpec, SlotSpec
from .specfun import _BOUNDS, stepped_grid
from .synthesis import BAND_CENTER_HZ, AntennaGeometry, ExcitationWeights


class ConfigError(ValueError):
    """Raised for config parse or validation failures."""


_CURRENT_MODELS = tuple(model.value for model in CurrentModel)

# Each section's fields, once: each fields() call builds a tuple that CPython's free lists keep
_fields = cache(fields)

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


def _scalar(kind: str, check, value, where: str):
    for rule in (kind, check, "finite" if kind in ("float", "int") else None):
        if rule and not _RULES[rule][0](value):
            raise ConfigError(f"{where}: {_RULES[rule][1]}")
    return float(value) if kind == "float" else value


# The geometry and strip defaults: the model types' reference design, in external units
@dataclass(frozen=True)
class SlotConfig:
    length_mm: float = _checked("> 0", SlotSpec().length_L / 1e-3)
    amplitude_e0: float = _checked("> 0", SlotSpec().amplitude_E0)


@dataclass(frozen=True)
class MonopoleConfig:
    height_mm: float = _checked("> 0", MonopoleSpec().height_H / 1e-3)
    ground_radius_mm: float = _checked("> 0", MonopoleSpec().ground_radius_a / 1e-3)
    current_model: str = _checked("current_model", MonopoleSpec().current_model.value)


@dataclass(frozen=True)
class ArrayConfig:
    count_nx: int = _checked(">= 1", ArrayLayout().count_Nx)
    count_ny: int = _checked(">= 1", ArrayLayout().count_Ny)
    spacing_dx_mm: float = _checked("> 0", ArrayLayout().spacing_dx / 1e-3)
    spacing_dy_mm: float = _checked("> 0", ArrayLayout().spacing_dy / 1e-3)


@dataclass(frozen=True)
class StripConfig:
    width_mm: float = _checked("> 0", MicrostripSpec().width_w / 1e-3)
    length_mm: float = _checked("> 0", MicrostripSpec().length_l / 1e-3)
    substrate: str = MicrostripSpec().substrate.name
    # dielectric height under the strip (the thin top layer of the stack),
    # independent of the named substrate's slab thickness
    substrate_thickness_mm: float = _checked("> 0", MicrostripSpec().substrate.thickness_h / 1e-3)
    conductivity_s_per_m: float = _checked("> 0", MicrostripSpec().copper_conductivity)
    roughness_um: float = _checked(">= 0", MicrostripSpec().roughness_rq / 1e-6)


@dataclass(frozen=True)
class SubstrateConfig:
    eps_r: float = _checked(">= 1")
    tan_delta: float = _checked(">= 0")
    thickness_mm: float = _checked("> 0")


@dataclass(frozen=True)
class FrequencyGridConfig:
    start_ghz: float = _checked("> 0", BAND_CENTER_HZ / 1e9)
    stop_ghz: float = None  # when absent: max(band centre, start_ghz)
    step_ghz: float = _checked("> 0", 1.0)

    def __post_init__(self):
        if self.stop_ghz is None:
            object.__setattr__(self, "stop_ghz", max(BAND_CENTER_HZ / 1e9, self.start_ghz))
        if self.stop_ghz < self.start_ghz:
            raise ConfigError("frequency_grid.stop_ghz: must be >= start_ghz")


@dataclass(frozen=True)
class ThetaGridConfig:
    start_deg: float = -90.0
    stop_deg: float = 90.0
    step_deg: float = _checked("> 0", NORMALIZATION_STEP_DEG)

    def __post_init__(self):
        if self.stop_deg < self.start_deg:
            raise ConfigError("theta_grid.stop_deg: must be >= start_deg")
        if self.start_deg < -90.0 or self.stop_deg > 90.0:
            raise ConfigError("theta_grid: angles must lie within [-90, 90] degrees")


@dataclass(frozen=True)
class WeightsConfig:
    s1: float = _checked(">= 0", 1.0)
    s2: float = _checked(">= 0", 0.3)
    ratios: tuple = field(default_factory=lambda: [i / 10 for i in range(1, 11)])

    def __post_init__(self):  # a JSON array arrives as a list, and is stored as a tuple of floats
        if not isinstance(self.ratios, (list, tuple)) or not self.ratios:
            raise ConfigError("weights.ratios: must be a non-empty array of numbers")
        ratios = [_scalar("float", "> 0", v, f"weights.ratios[{i}]") for i, v in enumerate(self.ratios)]
        object.__setattr__(self, "ratios", tuple(ratios))


# RunConfig sections that sit under "geometry" in the JSON form
_GEOMETRY = ("slot", "monopole", "array", "strip")


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration in external units, refused at construction as parse_config refuses it."""

    slot: SlotConfig = SlotConfig()
    monopole: MonopoleConfig = MonopoleConfig()
    array: ArrayConfig = ArrayConfig()
    strip: StripConfig = StripConfig()
    substrates: dict = field(default_factory=dict)  # name -> SubstrateConfig
    frequency_grid: FrequencyGridConfig = FrequencyGridConfig()
    theta_grid: ThetaGridConfig = ThetaGridConfig()
    weights: WeightsConfig = WeightsConfig()
    output_dir: str = "out"

    def __post_init__(self):
        if self.output_dir == "":  # Path("") is the working directory
            raise ConfigError("output_dir: must be a non-empty string")
        self.frequencies_hz()  # each grid must build, and its reader names the section in a refusal
        self.theta_grid_deg()
        try:  # each model object must build, so a length must stay > 0 in metres (1e-322 mm is 0.0 m)
            self.geometry()
            self.strip_spec()
            self.excitation_weights()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

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

    def strip_spec(self) -> MicrostripSpec:
        s = self.strip
        table = dict(SUBSTRATE_PRESETS)  # every custom entry is built, the unused ones too
        for name, sc in self.substrates.items():
            table[name] = SubstrateSpec(name, sc.eps_r, sc.tan_delta, sc.thickness_mm * 1e-3)
        material = table.get(s.substrate)
        if material is None:
            raise ConfigError(f"geometry.strip.substrate: unknown substrate '{s.substrate}'")
        layer = replace(material, thickness_h=s.substrate_thickness_mm * 1e-3)
        return MicrostripSpec(
            s.width_mm * 1e-3, s.length_mm * 1e-3, layer, s.conductivity_s_per_m, s.roughness_um * 1e-6
        )

    def excitation_weights(self) -> ExcitationWeights:
        return ExcitationWeights(self.weights.s1, self.weights.s2)

    def frequencies_hz(self) -> list:
        g = self.frequency_grid
        return [float(v) * 1e9 for v in _stepped("frequency_grid", g.start_ghz, g.stop_ghz, g.step_ghz)]

    def theta_grid_deg(self) -> np.ndarray:
        g = self.theta_grid
        return _stepped("theta_grid", g.start_deg, g.stop_deg, g.step_deg)

    def theta_grid_rad(self) -> np.ndarray:
        return np.radians(self.theta_grid_deg())


def _stepped(path: str, start: float, stop: float, step: float) -> np.ndarray:
    try:  # the builder's refusal gains the section path, as every config message has one
        return stepped_grid(start, stop, step)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _object(value, path: str, known=None) -> dict:
    # The mapping at path ("" for the top level); its keys must be in known, if given.
    if not isinstance(value, dict):
        raise ConfigError(f"{path or 'config'}: must be an object")
    for key in value:
        if known is not None and key not in known:
            raise ConfigError(f"unknown key: {path}.{key}" if path else f"unknown key: {key}")
    return value


def _section(cls, data, path: str):
    d = _object(data, path, [f.name for f in _fields(cls)])
    for f in _fields(cls):
        if f.name not in d and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}.{f.name}: required")
    values = {}
    for f in (f for f in _fields(cls) if f.name in d):  # a field of no JSON scalar kind is its section's to check
        raw, where = d[f.name], f"{path}.{f.name}"
        values[f.name] = _scalar(f.type, f.metadata.get("check"), raw, where) if f.type in _RULES else raw
    return cls(**values)


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed JSON object and fill defaults for absent fields."""
    top = _object(data, "", ["geometry"] + [f.name for f in _fields(RunConfig) if f.name not in _GEOMETRY])
    geometry = _object(top.get("geometry", {}), "geometry", _GEOMETRY)
    values = {}
    for f in _fields(RunConfig):
        src, path = (geometry, f"geometry.{f.name}") if f.name in _GEOMETRY else (top, f.name)
        if f.name not in src:
            continue
        if f.name == "substrates":
            entries = _object(src[f.name], path).items()
            values[f.name] = {k: _section(SubstrateConfig, v, f"{path}.{k}") for k, v in entries}
        elif is_dataclass(f.default):
            values[f.name] = _section(type(f.default), src[f.name], path)
        else:
            values[f.name] = _scalar(f.type, f.metadata.get("check"), src[f.name], path)
    return RunConfig(**values)


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
        return {f.name: _plain(getattr(value, f.name)) for f in _fields(type(value))}
    if isinstance(value, dict):
        return {name: _plain(entry) for name, entry in sorted(value.items())}
    return list(value) if isinstance(value, tuple) else value


def serialize_config(cfg: RunConfig) -> dict:
    """Full-form JSON object for a config; inverse of parse_config."""
    flat = _plain(cfg)
    return {"geometry": {name: flat.pop(name) for name in _GEOMETRY}, **flat}
