"""Microstrip resonance and the transmission-line loss budget.

Quasi-static closed forms only: Schneider's effective permittivity,
Hammerstad's impedance, skin-effect conductor loss with an arctangent
roughness correction, and the standard quasi-TEM dielectric attenuation.
Radiation and leakage terms are carried as explicit zeros so the budget
identity stays visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .radiators import SPEED_OF_LIGHT
from .specfun import require

MU0 = 4.0e-7 * math.pi
NEPER_TO_DB = 20.0 / math.log(10.0)

_BUDGET_NOTE = "radiation and leakage neglected (electrically short open line on a thin grounded substrate)"


@dataclass(frozen=True)
class SubstrateSpec:
    """Dielectric material: permittivity, loss tangent, thickness.

    Material constants are treated as frequency independent even though
    vendors quote them at a single frequency.
    """

    name: str
    eps_r: float
    tan_delta: float
    thickness_h: float

    def __post_init__(self):
        require("SubstrateSpec", eps_r=(self.eps_r, ">= 1"), tan_delta=(self.tan_delta, ">= 0"),
                thickness_h=(self.thickness_h, "> 0"))


SUBSTRATE_PRESETS: dict = {
    "FR4": SubstrateSpec("FR4", 4.4, 0.02, 1.2e-3),
    "TU768": SubstrateSpec("TU768", 4.3, 0.023, 0.1e-3),
    "RO4003": SubstrateSpec("RO4003", 3.55, 0.0027, 1.2e-3),
    "RO5880": SubstrateSpec("RO5880", 2.2, 0.0009, 1.2e-3),
    "F4B": SubstrateSpec("F4B", 2.65, 0.001, 1.2e-3),
}


@dataclass(frozen=True)
class MicrostripSpec:
    """Open-ended feed line: trace geometry over a substrate.

    The default substrate is the FR4 material on a 0.1 mm layer: the feed
    rides the thin top layer of the stack, not the full board thickness
    the presets carry for slab-transmission comparisons.
    """

    width_w: float = 0.24e-3
    length_l: float = 1.98e-3
    substrate: SubstrateSpec = field(default_factory=lambda: replace(SUBSTRATE_PRESETS["FR4"], thickness_h=0.1e-3))
    copper_conductivity: float = 5.8e7
    roughness_rq: float = 0.0

    def __post_init__(self):
        require("MicrostripSpec", width_w=(self.width_w, "> 0"), length_l=(self.length_l, "> 0"),
                copper_conductivity=(self.copper_conductivity, "> 0"), roughness_rq=(self.roughness_rq, ">= 0"))


@dataclass(frozen=True)
class LossBudget:
    """Loss terms in dB over one line length, plus their exact sum."""

    alpha_c: float
    alpha_d: float
    alpha_r = 0.0
    alpha_l = 0.0
    note = _BUDGET_NOTE

    def __post_init__(self):
        require("LossBudget", alpha_c=(self.alpha_c, ">= 0"), alpha_d=(self.alpha_d, ">= 0"))

    @property
    def total(self) -> float:
        return self.alpha_c + self.alpha_d + self.alpha_r + self.alpha_l


def effective_permittivity(strip: MicrostripSpec) -> float:
    """Quasi-static effective permittivity of the microstrip mode.

    Schneider's closed form: (er+1)/2 + (er-1)/2 * (1 + 10h/w)^(-1/2).
    Lies in [1, er] and grows with w/h as more field crowds into the
    substrate; a sum that rounds past er reads er. Equals 1 exactly for
    an air substrate.
    """
    er = strip.substrate.eps_r
    ratio = strip.substrate.thickness_h / strip.width_w
    return min(0.5 * (er + 1.0) + 0.5 * (er - 1.0) / math.sqrt(1.0 + 10.0 * ratio), er)


def characteristic_impedance(strip: MicrostripSpec) -> float:
    """Hammerstad's impedance closed form, wide and narrow branches."""
    eps_eff = effective_permittivity(strip)
    u = strip.width_w / strip.substrate.thickness_h
    require("characteristic_impedance", width_to_height=(u, "> 0"))
    if u <= 1.0:
        return 60.0 / math.sqrt(eps_eff) * math.log(8.0 / u + 0.25 * u)
    return 120.0 * math.pi / (math.sqrt(eps_eff) * (u + 1.393 + 0.667 * math.log(u + 1.444)))


def skin_depth(f: float, conductivity: float) -> float:
    """Current penetration depth in a conductor, meters."""
    product = math.pi * f * MU0 * conductivity  # underflows to 0 for a small enough f * sigma
    require("skin_depth", f=(f, "> 0"), conductivity=(conductivity, "> 0"),
            pi_f_mu0_conductivity=(product, "> 0"))
    return 1.0 / math.sqrt(product)


def roughness_factor(roughness_rq: float, depth: float) -> float:
    """Conductor-loss multiplier for surface roughness, in [1, 2].

    Arctangent saturation in (Rq / skin depth)^2: smooth copper gives
    exactly 1, and a surface much rougher than the skin depth doubles the
    loss as the current path folds over the profile (exactly 2 once the
    arctangent rounds to pi / 2).
    """
    require("roughness_factor", roughness_rq=(roughness_rq, ">= 0"), depth=(depth, "> 0"))
    q = roughness_rq / depth
    return 1.0 + (2.0 / math.pi) * math.atan(1.4 * q * q)


def half_wave_resonance(length_l: float, eps: float) -> float:
    """First open-open resonance of a line: c / (2 l sqrt(eps)), hertz."""
    require("half_wave_resonance", length_l=(length_l, "> 0"), eps=(eps, ">= 1"))
    return SPEED_OF_LIGHT / (2.0 * length_l * math.sqrt(eps))


def dielectric_attenuation(sub: SubstrateSpec, eps_eff: float, f: float) -> float:
    """Quasi-TEM dielectric attenuation of a microstrip, dB per meter.

    k0 * er * (eps_eff - 1) * tan_delta / (2 sqrt(eps_eff) (er - 1)) in
    nepers per meter, converted to dB. Linear in f and in tan_delta. An
    air substrate (er = 1) has nothing to dissipate and returns 0.
    """
    require("dielectric_attenuation", f=(f, "> 0"), eps_eff=(eps_eff, ">= 1"))
    if sub.tan_delta == 0.0 or sub.eps_r == 1.0:
        return 0.0
    k0 = 2.0 * math.pi * f / SPEED_OF_LIGHT
    filling = (eps_eff - 1.0) / (sub.eps_r - 1.0)
    alpha_np = k0 * sub.eps_r * filling * sub.tan_delta / (2.0 * math.sqrt(eps_eff))
    return NEPER_TO_DB * alpha_np


def conductor_attenuation(strip: MicrostripSpec, f: float) -> float:
    """Skin-effect conductor attenuation with roughness correction, dB/m.

    Surface resistance spread over the trace width against the line
    impedance, times the roughness multiplier.
    """
    z0 = characteristic_impedance(strip)  # z0 * w underflows for a tiny strip on a huge eps_r
    require("conductor_attenuation", f=(f, "> 0"), z0_width_w=(z0 * strip.width_w, "> 0"))
    rs = math.sqrt(math.pi * f * MU0 / strip.copper_conductivity)
    alpha_np = rs / (z0 * strip.width_w)
    k = roughness_factor(strip.roughness_rq, skin_depth(f, strip.copper_conductivity))
    return NEPER_TO_DB * alpha_np * k


def plane_wave_attenuation(sub: SubstrateSpec, f: float, path_length: float) -> float:
    """Plane-wave dielectric loss through a slab, total dB over the path.

    Low-loss form pi f sqrt(er) tan_delta / c in nepers per meter. Used to
    rank substrates at equal thickness, not to model the microstrip mode.
    """
    require("plane_wave_attenuation", f=(f, "> 0"), path_length=(path_length, "> 0"))
    alpha_np = math.pi * f * math.sqrt(sub.eps_r) * sub.tan_delta / SPEED_OF_LIGHT
    return NEPER_TO_DB * alpha_np * path_length


def loss_budget(strip: MicrostripSpec, f: float) -> LossBudget:
    """Loss terms over the line length at frequency f, in dB.

    Conductor and dielectric terms are computed; radiation and leakage are
    zero with the justification carried in the note field. The total is
    the literal sum of the four terms.
    """
    require("loss_budget", f=(f, "> 0"))
    a_c = conductor_attenuation(strip, f) * strip.length_l
    a_d = dielectric_attenuation(strip.substrate, effective_permittivity(strip), f) * strip.length_l
    return LossBudget(a_c, a_d)
