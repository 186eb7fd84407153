"""The range rule on the model's numbers, site by site.

Each site is a value-type field or function argument, or a value derived
from the arguments (stepped_grid's stop_minus_start), that must be > 0,
>= 0 or >= 1. A value below its bound, NaN and -inf each raise
"<owner>: <name> must be <bound>", naming the owner and the field, and
+inf raises "<owner>: <name> must be finite".
"""

import math

import pytest

from tiltbeam import (
    SUBSTRATE_PRESETS,
    ArrayLayout,
    FrequencyContext,
    LossBudget,
    MicrostripSpec,
    MonopoleSpec,
    SlotSpec,
    SteeringCommand,
    SubstrateSpec,
    array_factor,
    conductor_attenuation,
    dielectric_attenuation,
    half_wave_resonance,
    loss_budget,
    monopole_pattern,
    plane_wave_attenuation,
    roughness_factor,
    skin_depth,
    steered_array_factor,
)
from tiltbeam.specfun import stepped_grid

FR4 = SUBSTRATE_PRESETS["FR4"]
STRIP = MicrostripSpec()
LINE = ArrayLayout(1, 4, 1e-3, 1e-3)
F = 30e9

# (owner, name, bound, call with the value in that place)
SITES = [
    ("SlotSpec", "length_L", "> 0", lambda v: SlotSpec(length_L=v)),
    ("SlotSpec", "amplitude_E0", "> 0", lambda v: SlotSpec(amplitude_E0=v)),
    ("MonopoleSpec", "height_H", "> 0", lambda v: MonopoleSpec(height_H=v)),
    ("MonopoleSpec", "ground_radius_a", "> 0", lambda v: MonopoleSpec(ground_radius_a=v)),
    ("FrequencyContext", "frequency_f", "> 0", lambda v: FrequencyContext(v)),
    ("SubstrateSpec", "eps_r", ">= 1", lambda v: SubstrateSpec("X", v, 0.02, 1e-4)),
    ("SubstrateSpec", "tan_delta", ">= 0", lambda v: SubstrateSpec("X", 4.4, v, 1e-4)),
    ("SubstrateSpec", "thickness_h", "> 0", lambda v: SubstrateSpec("X", 4.4, 0.02, v)),
    ("MicrostripSpec", "width_w", "> 0", lambda v: MicrostripSpec(width_w=v)),
    ("MicrostripSpec", "length_l", "> 0", lambda v: MicrostripSpec(length_l=v)),
    ("MicrostripSpec", "copper_conductivity", "> 0", lambda v: MicrostripSpec(copper_conductivity=v)),
    ("MicrostripSpec", "roughness_rq", ">= 0", lambda v: MicrostripSpec(roughness_rq=v)),
    ("LossBudget", "alpha_c", ">= 0", lambda v: LossBudget(v, 0.1)),
    ("LossBudget", "alpha_d", ">= 0", lambda v: LossBudget(0.1, v)),
    ("skin_depth", "f", "> 0", lambda v: skin_depth(v, 5.8e7)),
    ("skin_depth", "conductivity", "> 0", lambda v: skin_depth(F, v)),
    ("roughness_factor", "roughness_rq", ">= 0", lambda v: roughness_factor(v, 1e-6)),
    ("roughness_factor", "depth", "> 0", lambda v: roughness_factor(1e-6, v)),
    ("half_wave_resonance", "length_l", "> 0", lambda v: half_wave_resonance(v, 4.4)),
    ("half_wave_resonance", "eps", ">= 1", lambda v: half_wave_resonance(2e-3, v)),
    ("dielectric_attenuation", "f", "> 0", lambda v: dielectric_attenuation(FR4, 3.3, v)),
    ("dielectric_attenuation", "eps_eff", ">= 1", lambda v: dielectric_attenuation(FR4, v, F)),
    ("conductor_attenuation", "f", "> 0", lambda v: conductor_attenuation(STRIP, v)),
    ("plane_wave_attenuation", "f", "> 0", lambda v: plane_wave_attenuation(FR4, v, 1e-3)),
    ("plane_wave_attenuation", "path_length", "> 0", lambda v: plane_wave_attenuation(FR4, F, v)),
    ("loss_budget", "f", "> 0", lambda v: loss_budget(STRIP, v)),
    ("ArrayLayout", "count_Nx", ">= 1", lambda v: ArrayLayout(count_Nx=v)),
    ("ArrayLayout", "count_Ny", ">= 1", lambda v: ArrayLayout(count_Ny=v)),
    ("ArrayLayout", "spacing_dx", "> 0", lambda v: ArrayLayout(4, 4, v, 1e-3)),
    ("ArrayLayout", "spacing_dy", "> 0", lambda v: ArrayLayout(4, 4, 1e-3, v)),
    ("array_factor", "lam", "> 0", lambda v: array_factor(LINE, 0.1, 0.2, v)),
    ("steered_array_factor", "lam", "> 0", lambda v: steered_array_factor(LINE, SteeringCommand(), 0.1, v)),
    ("stepped_grid", "step", "> 0", lambda v: stepped_grid(0.0, 1.0, v)),
    ("stepped_grid", "stop_minus_start", ">= 0", lambda v: stepped_grid(0.0, v, 0.1)),
]

BELOW = {"> 0": 0.0, ">= 0": -1.0, ">= 1": 0.5}


def site_id(site):
    return f"{site[0]}.{site[1]}"


def test_sites_are_distinct():
    assert len({site_id(s) for s in SITES}) == len(SITES) == 34


@pytest.mark.parametrize("value", ["below", math.nan, -math.inf], ids=["below", "nan", "minus-inf"])
@pytest.mark.parametrize("site", SITES, ids=site_id)
def test_out_of_range_value_names_owner_field_and_bound(site, value):
    owner, name, bound, call = site
    with pytest.raises(ValueError) as exc:
        call(BELOW[bound] if value == "below" else value)
    assert str(exc.value) == f"{owner}: {name} must be {bound}"


@pytest.mark.parametrize("site", SITES, ids=site_id)
def test_plus_inf_is_refused(site):
    owner, name, _, call = site
    with pytest.raises(ValueError) as exc:
        call(math.inf)
    assert str(exc.value) == f"{owner}: {name} must be finite"


def test_bound_is_checked_before_finiteness():
    # a refused value keeps its bound message when another value is +inf
    with pytest.raises(ValueError, match="^MicrostripSpec: roughness_rq must be >= 0$"):
        MicrostripSpec(width_w=math.inf, roughness_rq=-1.0)
    with pytest.raises(ValueError, match="^half_wave_resonance: eps must be >= 1$"):
        half_wave_resonance(math.inf, 0.5)


# Let through, each +inf fails later under another name (as in the comment) or gives a wrong number.
LATE_FAILURES = {
    # integrate_complex: bounds must be finite
    "post-height": (lambda: monopole_pattern(0.3, MonopoleSpec(height_H=math.inf), FrequencyContext(32.4e9)),
                    "MonopoleSpec: height_H must be finite"),
    # a bare ZeroDivisionError
    "substrate-eps-loss": (lambda: loss_budget(MicrostripSpec(substrate=SubstrateSpec("X", math.inf, 0.02, 1e-4)), F),
                           "SubstrateSpec: eps_r must be finite"),
    # 0.0 Hz
    "substrate-eps-resonance": (lambda: half_wave_resonance(2e-3, SubstrateSpec("X", math.inf, 0.02, 1e-4).eps_r),
                                "SubstrateSpec: eps_r must be finite"),
    # LossBudget: alpha_c must be >= 0
    "strip-width": (lambda: loss_budget(MicrostripSpec(width_w=math.inf), F), "MicrostripSpec: width_w must be finite"),
    # roughness_factor: depth must be > 0
    "strip-conductivity": (lambda: loss_budget(MicrostripSpec(copper_conductivity=math.inf), F),
                           "MicrostripSpec: copper_conductivity must be finite"),
    # LossBudget(inf, inf)
    "strip-length": (lambda: loss_budget(MicrostripSpec(length_l=math.inf), F), "MicrostripSpec: length_l must be finite"),
    # 0.0 m
    "skin-depth": (lambda: skin_depth(math.inf, 5.8e7), "skin_depth: f must be finite"),
}


@pytest.mark.parametrize("case", LATE_FAILURES.values(), ids=LATE_FAILURES.keys())
def test_plus_inf_fails_at_its_owner(case):
    call, message = case
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


# A derived phase that overflows to inf would turn sin or exp into nan.
PHASE_OVERFLOWS = {
    "array-factor": (lambda: array_factor(ArrayLayout(2, 1, 1e300, 1.0), 0.5, 0.0, 1e-10),
                     "array_factor: phase must be finite"),
    "steered-array-factor": (lambda: steered_array_factor(ArrayLayout(1, 4, 1.0, 1e300), SteeringCommand(0.3), 0.5,
                                                          1e-10),
                             "steered_array_factor: phase must be finite"),
}


@pytest.mark.parametrize("case", PHASE_OVERFLOWS.values(), ids=PHASE_OVERFLOWS.keys())
def test_overflowing_phase_is_refused_at_its_owner(case):
    call, message = case
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
