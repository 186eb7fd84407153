"""Quasi-static line formulas: effective permittivity, impedance, the
half-wave resonance, and the loss terms."""

import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiltbeam import (
    LossBudget,
    MicrostripSpec,
    SUBSTRATE_PRESETS,
    SubstrateSpec,
    characteristic_impedance,
    conductor_attenuation,
    dielectric_attenuation,
    effective_permittivity,
    half_wave_resonance,
    loss_budget,
    plane_wave_attenuation,
    roughness_factor,
    skin_depth,
)

from strategies import edge_floats


def thin_layer(preset_name):
    # the feed rides a 0.1 mm top layer regardless of the preset slab
    p = SUBSTRATE_PRESETS[preset_name]
    return SubstrateSpec(p.name, p.eps_r, p.tan_delta, 0.1e-3)


class TestPresets:
    def test_expected_materials(self):
        assert set(SUBSTRATE_PRESETS) == {"FR4", "TU768", "RO4003", "RO5880", "F4B"}

    def test_glass_epoxy_values(self):
        fr4 = SUBSTRATE_PRESETS["FR4"]
        assert (fr4.eps_r, fr4.tan_delta, fr4.thickness_h) == (4.4, 0.02, 1.2e-3)
        tu = SUBSTRATE_PRESETS["TU768"]
        assert (tu.eps_r, tu.tan_delta, tu.thickness_h) == (4.3, 0.023, 0.1e-3)

    def test_low_loss_values(self):
        ro = SUBSTRATE_PRESETS["RO4003"]
        assert (ro.eps_r, ro.tan_delta) == (3.55, 0.0027)
        assert SUBSTRATE_PRESETS["RO5880"].eps_r == 2.2
        assert SUBSTRATE_PRESETS["F4B"].eps_r == 2.65

    def test_feed_layer_is_the_fr4_preset_at_0_1_mm(self):
        assert MicrostripSpec().substrate == replace(SUBSTRATE_PRESETS["FR4"], thickness_h=0.1e-3)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match=r"^SubstrateSpec: eps_r must be >= 1$"):
            SubstrateSpec("x", 0.9, 0.0, 1e-3)
        with pytest.raises(ValueError, match=r"^SubstrateSpec: tan_delta must be >= 0$"):
            SubstrateSpec("x", 2.0, -0.1, 1e-3)
        with pytest.raises(ValueError, match=r"^SubstrateSpec: thickness_h must be > 0$"):
            SubstrateSpec("x", 2.0, 0.0, 0.0)

    @pytest.mark.parametrize("eps_r, tan_delta, message", [
        (math.nan, 0.01, "eps_r must be >= 1"),
        (2.0, math.nan, "tan_delta must be >= 0"),
    ])
    def test_spec_rejects_nan(self, eps_r, tan_delta, message):
        with pytest.raises(ValueError, match=f"^SubstrateSpec: {message}$"):
            SubstrateSpec("x", eps_r, tan_delta, 1e-3)


class TestEffectivePermittivity:
    def test_air_line(self):
        strip = MicrostripSpec(substrate=SubstrateSpec("air", 1.0, 0.0, 1e-3))
        assert effective_permittivity(strip) == 1.0

    def test_default_feed_line(self):
        assert effective_permittivity(MicrostripSpec()) == pytest.approx(
            3.447900286608902, rel=1e-12
        )

    def test_wide_line_approaches_bulk(self):
        # w = 100 h leaves the mode almost fully inside the dielectric
        strip = MicrostripSpec(width_w=100.0 * 0.1e-3)
        eps = effective_permittivity(strip)
        assert 0.98 * 4.4 < eps < 4.4

    def test_bounds_and_monotonicity(self):
        widths = [0.05e-3, 0.1e-3, 0.24e-3, 1.0e-3, 5.0e-3]
        values = [effective_permittivity(MicrostripSpec(width_w=w)) for w in widths]
        assert all(values[i] < values[i + 1] for i in range(len(values) - 1))
        assert all(1.0 < v < 4.4 for v in values)


class TestCharacteristicImpedance:
    def test_default_feed_line(self):
        assert characteristic_impedance(MicrostripSpec()) == pytest.approx(
            43.278959501911004, rel=1e-12
        )

    def test_narrow_branch_against_closed_form(self):
        strip = MicrostripSpec(width_w=0.05e-3)
        u = 0.05 / 0.1
        eps = effective_permittivity(strip)
        expected = 60.0 / math.sqrt(eps) * math.log(8.0 / u + 0.25 * u)
        assert characteristic_impedance(strip) == pytest.approx(expected, rel=1e-12)

    def test_branches_meet_near_unit_aspect(self):
        lo = characteristic_impedance(MicrostripSpec(width_w=0.1e-3 * (1 - 1e-9)))
        hi = characteristic_impedance(MicrostripSpec(width_w=0.1e-3 * (1 + 1e-9)))
        assert abs(lo - hi) / hi < 0.01

    def test_narrower_line_has_higher_impedance(self):
        z = [characteristic_impedance(MicrostripSpec(width_w=w))
             for w in (0.05e-3, 0.1e-3, 0.24e-3, 1.0e-3)]
        assert all(z[i] > z[i + 1] for i in range(len(z) - 1))

    @pytest.mark.parametrize("width, thickness, message", [
        (0.24e-3, 1e-314, "width_to_height must be finite"),  # once 0 ohms
        (1e-320, 1e10, "width_to_height must be > 0"),  # once a ZeroDivisionError
    ], ids=["overflow", "underflow"])
    def test_refuses_a_width_to_height_ratio_out_of_range(self, width, thickness, message):
        strip = MicrostripSpec(width_w=width, substrate=SubstrateSpec("X", 4.4, 0.02, thickness))
        with pytest.raises(ValueError, match=f"^characteristic_impedance: {message}$"):
            characteristic_impedance(strip)


class TestHalfWaveResonance:
    def test_airline_identity(self):
        # quarter-meter air line: c / (2 * 0.125 m) = 1.2 GHz with no rounding
        assert half_wave_resonance(0.125, 1.0) == 1.2e9

    def test_feed_length_on_glass_epoxy(self):
        f = half_wave_resonance(1.98e-3, 4.4)
        assert f == pytest.approx(36.116007168393644e9, rel=1e-12)
        assert abs(f / 1e9 - 36.12) < 0.01

    def test_feed_length_on_effective_permittivity(self):
        f = half_wave_resonance(1.98e-3, effective_permittivity(MicrostripSpec()))
        assert f == pytest.approx(40.79892499073314e9, rel=1e-12)
        assert abs(f - 42.0e9) < 0.1 * 42.0e9

    def test_doubling_length_halves_frequency_exactly(self):
        for l, eps in ((1.98e-3, 4.4), (0.7e-3, 2.2), (5.0e-3, 3.55)):
            assert half_wave_resonance(2.0 * l, eps) == 0.5 * half_wave_resonance(l, eps)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^half_wave_resonance: length_l must be > 0$"):
            half_wave_resonance(0.0, 4.4)
        with pytest.raises(ValueError, match=r"^half_wave_resonance: eps must be >= 1$"):
            half_wave_resonance(1e-3, 0.5)

    @pytest.mark.parametrize("length, eps, message", [
        (1e-3, math.nan, "eps must be >= 1"),
        (math.nan, 4.4, "length_l must be > 0"),
    ])
    def test_rejects_nan(self, length, eps, message):
        with pytest.raises(ValueError, match=f"^half_wave_resonance: {message}$"):
            half_wave_resonance(length, eps)


class TestSkinDepthAndRoughness:
    def test_copper_at_40ghz(self):
        assert skin_depth(40.0e9, 5.8e7) == pytest.approx(3.3042746550402816e-07, rel=1e-12)

    def test_depth_shrinks_with_frequency(self):
        d = [skin_depth(f, 5.8e7) for f in (1e9, 10e9, 40e9, 100e9)]
        assert all(d[i] > d[i + 1] for i in range(len(d) - 1))

    def test_smooth_surface_has_unit_factor(self):
        assert roughness_factor(0.0, 1e-7) == 1.0

    def test_known_profile_values(self):
        depth = skin_depth(40.0e9, 5.8e7)
        assert roughness_factor(1.0e-6, depth) == pytest.approx(1.950451990328034, rel=1e-12)
        assert roughness_factor(10.0e-6, depth) == pytest.approx(1.9995035171198474, rel=1e-12)

    def test_factor_saturates_below_two(self):
        depth = skin_depth(40.0e9, 5.8e7)
        rqs = [1e-8, 1e-7, 1e-6, 1e-5, 1e-3]
        ks = [roughness_factor(rq, depth) for rq in rqs]
        assert all(ks[i] < ks[i + 1] for i in range(len(ks) - 1))
        assert all(1.0 <= k < 2.0 for k in ks)

    def test_refuses_a_product_that_underflows(self):
        # pi f mu0 sigma rounds to 0.0, which once divided by zero
        with pytest.raises(ValueError, match="^skin_depth: pi_f_mu0_conductivity must be > 0$"):
            skin_depth(5e-315, 9.26e-5)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^skin_depth: f must be > 0$"):
            skin_depth(0.0, 5.8e7)
        with pytest.raises(ValueError, match=r"^skin_depth: conductivity must be > 0$"):
            skin_depth(1e9, -1.0)
        with pytest.raises(ValueError, match=r"^roughness_factor: roughness_rq must be >= 0$"):
            roughness_factor(-1e-6, 1e-7)
        with pytest.raises(ValueError, match=r"^roughness_factor: depth must be > 0$"):
            roughness_factor(1e-6, 0.0)

    @pytest.mark.parametrize("rq, depth, message", [
        (math.nan, 1e-6, "roughness_rq must be >= 0"),
        (1e-6, math.nan, "depth must be > 0"),
    ])
    def test_roughness_rejects_nan(self, rq, depth, message):
        with pytest.raises(ValueError, match=f"^roughness_factor: {message}$"):
            roughness_factor(rq, depth)


class TestDielectricAttenuation:
    def test_lossless_material(self):
        sub = SubstrateSpec("x", 4.4, 0.0, 1e-3)
        assert dielectric_attenuation(sub, 3.4, 30e9) == 0.0

    def test_air_has_nothing_to_dissipate(self):
        sub = SubstrateSpec("air", 1.0, 0.05, 1e-3)
        assert dielectric_attenuation(sub, 1.0, 30e9) == 0.0

    def test_feed_layer_value(self):
        strip = MicrostripSpec()
        val = dielectric_attenuation(strip.substrate, effective_permittivity(strip), 30e9)
        assert val == pytest.approx(93.10742356555568, rel=1e-12)

    def test_linear_in_frequency_exactly(self):
        strip = MicrostripSpec()
        eps = effective_permittivity(strip)
        a1 = dielectric_attenuation(strip.substrate, eps, 20e9)
        a2 = dielectric_attenuation(strip.substrate, eps, 40e9)
        assert a2 == 2.0 * a1

    def test_lossier_material_attenuates_more(self):
        eps = 3.0
        a_fr4 = dielectric_attenuation(thin_layer("FR4"), eps, 30e9)
        a_ro = dielectric_attenuation(thin_layer("RO4003"), eps, 30e9)
        assert a_fr4 > a_ro

    def test_validation(self):
        sub = SUBSTRATE_PRESETS["FR4"]
        with pytest.raises(ValueError, match=r"^dielectric_attenuation: f must be > 0$"):
            dielectric_attenuation(sub, 3.4, 0.0)
        with pytest.raises(ValueError, match=r"^dielectric_attenuation: eps_eff must be >= 1$"):
            dielectric_attenuation(sub, 0.9, 30e9)

    @pytest.mark.parametrize("eps_eff, f, message", [
        (math.nan, 30e9, "eps_eff must be >= 1"),
        (3.4, math.nan, "f must be > 0"),
    ])
    def test_rejects_nan(self, eps_eff, f, message):
        with pytest.raises(ValueError, match=f"^dielectric_attenuation: {message}$"):
            dielectric_attenuation(SUBSTRATE_PRESETS["FR4"], eps_eff, f)


class TestConductorAttenuation:
    def test_feed_line_value(self):
        assert conductor_attenuation(MicrostripSpec(), 30e9) == pytest.approx(
            37.78789962895912, rel=1e-12
        )

    def test_quadrupled_conductivity_halves_loss_exactly(self):
        a1 = conductor_attenuation(MicrostripSpec(), 30e9)
        a2 = conductor_attenuation(MicrostripSpec(copper_conductivity=4.0 * 5.8e7), 30e9)
        assert a2 == 0.5 * a1

    def test_grows_with_frequency(self):
        a = [conductor_attenuation(MicrostripSpec(), f) for f in (10e9, 20e9, 40e9)]
        assert a[0] < a[1] < a[2]

    def test_roughness_raises_loss(self):
        smooth = conductor_attenuation(MicrostripSpec(), 40e9)
        rough = conductor_attenuation(MicrostripSpec(roughness_rq=1.0e-6), 40e9)
        assert 1.0 < rough / smooth < 2.0

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^conductor_attenuation: f must be > 0$"):
            conductor_attenuation(MicrostripSpec(), -1.0)

    def test_refuses_an_impedance_width_product_that_underflows(self):
        # w/h is 1, but z0 ~ 1.6e-148 ohm times w = 1e-303 m rounds to 0.0, which once divided by zero
        strip = MicrostripSpec(width_w=1e-303, substrate=SubstrateSpec("X", 1e300, 0.02, 1e-303))
        with pytest.raises(ValueError, match="^conductor_attenuation: z0_width_w must be > 0$"):
            conductor_attenuation(strip, 30e9)


class TestPlaneWaveAttenuation:
    def test_lossy_glass_epoxy_slab(self):
        lossy = SubstrateSpec("FR4", 4.4, 0.1, 1.2e-3)
        assert plane_wave_attenuation(lossy, 50e9, 1.2e-3) == pytest.approx(
            1.1447759937147621, rel=1e-12
        )

    def test_low_loss_slab(self):
        ro = SUBSTRATE_PRESETS["RO4003"]
        assert plane_wave_attenuation(ro, 50e9, 1.2e-3) == pytest.approx(
            0.02776336584966123, rel=1e-12
        )

    def test_material_gap_at_equal_thickness(self):
        lossy = SubstrateSpec("FR4", 4.4, 0.1, 1.2e-3)
        gap = plane_wave_attenuation(lossy, 50e9, 1.2e-3) - plane_wave_attenuation(
            SUBSTRATE_PRESETS["RO4003"], 50e9, 1.2e-3
        )
        assert gap == pytest.approx(1.117012627865101, rel=1e-9)
        assert gap <= 1.5

    def test_lossless_is_zero(self):
        sub = SubstrateSpec("x", 2.2, 0.0, 1e-3)
        assert plane_wave_attenuation(sub, 50e9, 1e-2) == 0.0

    def test_validation(self):
        sub = SUBSTRATE_PRESETS["FR4"]
        with pytest.raises(ValueError, match=r"^plane_wave_attenuation: f must be > 0$"):
            plane_wave_attenuation(sub, 0.0, 1e-3)
        with pytest.raises(ValueError, match=r"^plane_wave_attenuation: path_length must be > 0$"):
            plane_wave_attenuation(sub, 50e9, 0.0)


class TestLossBudget:
    def test_feed_line_at_30ghz(self):
        b = loss_budget(MicrostripSpec(), 30e9)
        assert b.alpha_c == pytest.approx(0.07482004126533905, rel=1e-12)
        assert b.alpha_d == pytest.approx(0.18435269865980028, rel=1e-12)
        assert b.total == pytest.approx(0.25917273992513934, rel=1e-12)

    def test_unmodeled_terms_are_explicit_zeros(self):
        b = loss_budget(MicrostripSpec(), 30e9)
        assert b.alpha_r == 0.0
        assert b.alpha_l == 0.0
        assert b.note
        assert "," not in b.note  # must survive a single CSV cell

    def test_total_is_the_literal_sum(self):
        b = loss_budget(MicrostripSpec(), 30e9)
        assert b.total == b.alpha_c + b.alpha_d + b.alpha_r + b.alpha_l

    def test_dielectric_dominates_on_glass_epoxy(self):
        b = loss_budget(MicrostripSpec(), 30e9)
        assert b.alpha_d > b.alpha_c

    def test_grows_with_frequency(self):
        totals = [loss_budget(MicrostripSpec(), f).total for f in (10e9, 30e9, 45e9)]
        assert totals[0] < totals[1] < totals[2]

    def test_short_line_loses_almost_nothing(self):
        b = loss_budget(MicrostripSpec(length_l=1e-6), 30e9)
        assert b.total < 1e-3

    def test_budget_validation(self):
        with pytest.raises(ValueError, match=r"^LossBudget: alpha_c must be >= 0$"):
            LossBudget(-0.1, 0.0)
        with pytest.raises(ValueError, match=r"^LossBudget: alpha_d must be >= 0$"):
            LossBudget(0.0, -0.1)
        with pytest.raises(ValueError, match=r"^loss_budget: f must be > 0$"):
            loss_budget(MicrostripSpec(), 0.0)

    @pytest.mark.parametrize("alpha_c, alpha_d, message", [
        (math.nan, 0.0, "alpha_c must be >= 0"),
        (0.0, math.nan, "alpha_d must be >= 0"),
    ])
    def test_budget_rejects_nan(self, alpha_c, alpha_d, message):
        with pytest.raises(ValueError, match=f"^LossBudget: {message}$"):
            LossBudget(alpha_c, alpha_d)

    def test_strip_validation(self):
        with pytest.raises(ValueError, match=r"^MicrostripSpec: width_w must be > 0$"):
            MicrostripSpec(width_w=0.0)
        with pytest.raises(ValueError, match=r"^MicrostripSpec: length_l must be > 0$"):
            MicrostripSpec(length_l=-1.0)
        with pytest.raises(ValueError, match=r"^MicrostripSpec: copper_conductivity must be > 0$"):
            MicrostripSpec(copper_conductivity=0.0)
        with pytest.raises(ValueError, match=r"^MicrostripSpec: roughness_rq must be >= 0$"):
            MicrostripSpec(roughness_rq=-1e-6)

    @pytest.mark.parametrize("field", ["width_w", "length_l", "copper_conductivity", "roughness_rq"])
    def test_strip_rejects_nan(self, field):
        bound = ">= 0" if field == "roughness_rq" else "> 0"
        with pytest.raises(ValueError, match=f"^MicrostripSpec: {field} must be {bound}$"):
            MicrostripSpec(**{field: math.nan})

    def test_substrate_replacement_flows_through(self):
        base = loss_budget(MicrostripSpec(), 30e9)
        low = loss_budget(MicrostripSpec(substrate=thin_layer("RO4003")), 30e9)
        assert low.alpha_d < base.alpha_d
        assert low.total < base.total


# The specs keep to their own bounds, which test_spec_validation and its neighbours check, so every function runs.
_STRIPS = st.builds(
    MicrostripSpec, edge_floats("> 0"), edge_floats("> 0"),
    st.builds(SubstrateSpec, st.just("X"), edge_floats(">= 1"), edge_floats(">= 0"), edge_floats("> 0")),
    edge_floats("> 0"), edge_floats(">= 0"),
)
_FUNCTIONS = (effective_permittivity, characteristic_impedance, skin_depth, roughness_factor, half_wave_resonance,
              dielectric_attenuation, conductor_attenuation, plane_wave_attenuation, loss_budget)
_OWNERS = ("SubstrateSpec: ", "MicrostripSpec: ", "LossBudget: ") + tuple(f"{f.__name__}: " for f in _FUNCTIONS)


@settings(max_examples=500)
@given(strip=_STRIPS, f=edge_floats(), positive=edge_floats(), rq=edge_floats(), eps=edge_floats())
# Schneider's sum rounds one ulp past eps_r on a near-air substrate under a wide strip
@example(strip=MicrostripSpec(1.0, 1e-3, SubstrateSpec("X", 1.0000001, 0.0, 1e-20)), f=1.0, positive=1.0,
         rq=0.0, eps=1.0)
# atan saturates to pi / 2 in floats, so a profile far rougher than the skin depth doubles the loss exactly
@example(strip=MicrostripSpec(), f=1.0, positive=1e-300, rq=4.4, eps=1.0)
def test_line_formulas_stay_in_range_or_raise_their_owners_error(strip, f, positive, rq, eps):
    # positive stands for each other length or material value: conductivity, depth, length and path
    args = {
        effective_permittivity: (strip,),
        characteristic_impedance: (strip,),
        skin_depth: (f, positive),
        roughness_factor: (rq, positive),
        half_wave_resonance: (positive, eps),
        dielectric_attenuation: (strip.substrate, eps, f),
        conductor_attenuation: (strip, f),
        plane_wave_attenuation: (strip.substrate, f, positive),
        loss_budget: (strip, f),
    }
    results = {}
    for function, function_args in args.items():
        try:
            results[function] = function(*function_args)
        except ValueError as exc:
            assert str(exc).startswith(_OWNERS), (function.__name__, str(exc))
    assert 1.0 <= results[effective_permittivity] <= strip.substrate.eps_r
    assert 1.0 <= results.get(roughness_factor, 1.0) <= 2.0
