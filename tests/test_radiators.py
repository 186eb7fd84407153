"""Slot pattern and the grounded-post far field.

The post field implementation integrates with composite 21-point
Gauss-Kronrod, refined until each value's Kronrod and embedded Gauss sums
agree, and its own J1; the conftest oracle uses one 64-point Gauss-Legendre
panel and scipy. Agreement between the two is the main correctness argument
here.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tiltbeam.radiators as radiators
import tiltbeam.scanstudy as scanstudy
import tiltbeam.specfun as specfun
import tiltbeam.synthesis as synthesis
from tiltbeam import (
    CurrentModel,
    FrequencyContext,
    MonopoleSpec,
    SlotSpec,
    monopole_pattern,
    slot_pattern,
)
from tiltbeam.specfun import ConvergenceError, integrate_complex

NORM_GRID = np.radians(np.arange(0.0, 90.0 + 0.125, 0.25))


def cal_monopole(ctx):
    # quarter-wave post over a two-wavelength ground disc
    lam = ctx.wavelength_lambda0
    return MonopoleSpec(height_H=0.25 * lam, ground_radius_a=2.0 * lam)


class TestSlotPattern:
    def test_null_at_broadside_of_raw_convention(self):
        assert slot_pattern(0.0) == 0.0

    def test_peak_at_endfire_of_raw_convention(self):
        assert slot_pattern(0.5 * math.pi) == pytest.approx(1.0, abs=1e-15)

    def test_half_power_style_value(self):
        # sin((pi/2) sin(30 deg)) = sin(pi/4)
        assert slot_pattern(math.radians(30.0)) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-15)

    def test_odd_parity(self):
        for t in (0.2, 0.7, 1.3):
            assert slot_pattern(-t) == -slot_pattern(t)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match=r"^slot_pattern: theta must be finite$"):
            slot_pattern(math.nan)


class TestFrequencyContext:
    def test_from_frequency_consistency(self):
        ctx = FrequencyContext.from_frequency(32.4e9)
        assert ctx.wavenumber_k * ctx.wavelength_lambda0 == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert ctx.wavelength_lambda0 == pytest.approx(3.0e8 / 32.4e9, rel=1e-15)

    def test_rejects_non_positive_frequency(self):
        with pytest.raises(ValueError, match=r"^FrequencyContext: frequency_f must be > 0$"):
            FrequencyContext.from_frequency(0.0)

    @pytest.mark.parametrize("f, message", [
        (-1.0, "frequency_f must be > 0"),
        (1e-311, "frequency_f must be finite and > 0, with a finite wavelength c / f"),
    ], ids=["negative", "wavelength-overflows"])
    def test_rejects_a_negative_frequency_or_an_infinite_wavelength(self, f, message):
        # 0, NaN and +-inf are rows of tests/test_range_rule.py
        for make in (FrequencyContext, FrequencyContext.from_frequency):
            with pytest.raises(ValueError) as exc:
                make(f)
            assert str(exc.value) == f"FrequencyContext: {message}"

    @settings(max_examples=200)
    @given(f=st.floats(min_value=1e9, max_value=1e12))
    def test_wavelength_and_wavenumber_follow_the_frequency(self, f):
        ctx = FrequencyContext(f)
        assert ctx.wavelength_lambda0 == 3.0e8 / f
        assert ctx.wavenumber_k == 2.0 * math.pi / (3.0e8 / f)
        assert FrequencyContext.from_frequency(f) == ctx


class TestSpecValidation:
    def test_slot_spec(self):
        with pytest.raises(ValueError, match=r"^SlotSpec: length_L must be > 0$"):
            SlotSpec(length_L=0.0)
        with pytest.raises(ValueError, match=r"^SlotSpec: amplitude_E0 must be > 0$"):
            SlotSpec(amplitude_E0=-1.0)

    def test_monopole_spec(self):
        with pytest.raises(ValueError, match=r"^MonopoleSpec: height_H must be > 0$"):
            MonopoleSpec(height_H=0.0)
        with pytest.raises(ValueError, match=r"^MonopoleSpec: ground_radius_a must be > 0$"):
            MonopoleSpec(ground_radius_a=-1.0)
        with pytest.raises(ValueError, match=r"^MonopoleSpec: current_model must be a CurrentModel$"):
            MonopoleSpec(current_model="sinusoidal")


class TestMonopolePattern:
    def test_exact_null_at_zenith(self, ctx324):
        assert monopole_pattern(0.0, MonopoleSpec(), ctx324) == 0j

    def test_grid_peak_is_exactly_one(self, ctx324):
        mono = MonopoleSpec()
        mags = [abs(monopole_pattern(float(t), mono, ctx324)) for t in NORM_GRID]
        assert max(mags) == 1.0

    def test_default_geometry_peak_location(self, ctx324):
        mono = MonopoleSpec()
        mags = [abs(monopole_pattern(float(t), mono, ctx324)) for t in NORM_GRID]
        peak_deg = 0.25 * int(np.argmax(mags))
        assert peak_deg == 38.5

    def test_calibration_geometry_peak_in_outer_quadrant(self, ctx324):
        mono = cal_monopole(ctx324)
        mags = [abs(monopole_pattern(float(t), mono, ctx324)) for t in NORM_GRID]
        peak_deg = 0.25 * int(np.argmax(mags))
        assert peak_deg == 65.0

    def test_calibration_constant_sign_and_value(self):
        j0 = radiators._GROUND_CURRENT_J0
        assert j0 < 0.0
        assert j0 == pytest.approx(-0.18068129438884775, rel=1e-9)

    def test_calibration_constant_is_rederived(self, gl_oracle, monkeypatch):
        """The J0 literal is the peak ratio of the two terms on the reference geometry."""
        # Both terms integrated to a tenth of the default tolerances.
        monkeypatch.setattr(specfun, "_ABS_TOL", 1e-11)
        monkeypatch.setattr(specfun, "_REL_TOL", 1e-10)
        monkeypatch.setattr(specfun, "_MAX_PANELS", 8000)
        grid = radiators._NORM_GRID_RAD
        post = np.abs(radiators._post_term(grid, 0.5 * math.pi, CurrentModel.SINUSOIDAL)).max()
        ground = np.abs(radiators._ground_term(grid, 4.0 * math.pi)).max()
        assert radiators._GROUND_CURRENT_J0 == pytest.approx(-post / ground, rel=1e-12)
        assert radiators._GROUND_CURRENT_J0 == pytest.approx(gl_oracle.j0, rel=1e-9)

    def test_frozen_value_calibration_geometry(self, ctx324):
        val = monopole_pattern(math.radians(30.0), cal_monopole(ctx324), ctx324)
        assert val == pytest.approx(0.4434255497396905 + 0.04883897232350212j, rel=1e-6)

    def test_frozen_value_default_geometry(self, ctx324):
        val = monopole_pattern(math.radians(45.0), MonopoleSpec(), ctx324)
        assert val == pytest.approx(0.9767886723135779 + 0.05518298563314093j, rel=1e-6)

    def test_matches_gauss_legendre_oracle(self, ctx324, gl_oracle):
        mono = MonopoleSpec()
        kh = ctx324.wavenumber_k * mono.height_H
        ka = ctx324.wavenumber_k * mono.ground_radius_a
        for theta in np.linspace(math.radians(2.0), math.radians(88.0), 19):
            mine = monopole_pattern(float(theta), mono, ctx324)
            ref = gl_oracle.pattern(float(theta), kh, ka)
            assert abs(mine - ref) / abs(ref) < 1e-6

    def test_no_interior_null_over_height_range(self, ctx324):
        # the finite ground edge puts ripple shoulders on the lobe, but the
        # dips must never reach an actual null for posts up to lambda/2
        lam = ctx324.wavelength_lambda0
        for h_frac in (0.25, 0.375, 0.5):
            mono = MonopoleSpec(height_H=h_frac * lam, ground_radius_a=2.0 * lam)
            mags = np.array([abs(monopole_pattern(float(t), mono, ctx324)) for t in NORM_GRID])
            dips = [
                mags[i]
                for i in range(1, len(mags) - 1)
                if mags[i] < mags[i - 1] and mags[i] < mags[i + 1]
            ]
            assert dips and all(d > 0.05 * mags.max() for d in dips)

    def test_triangular_current_changes_field(self, ctx324):
        lam = ctx324.wavelength_lambda0
        sin_spec = MonopoleSpec(height_H=0.25 * lam, ground_radius_a=2.0 * lam)
        tri_spec = MonopoleSpec(
            height_H=0.25 * lam, ground_radius_a=2.0 * lam,
            current_model=CurrentModel.TRIANGULAR,
        )
        t = math.radians(40.0)
        assert monopole_pattern(t, sin_spec, ctx324) != monopole_pattern(t, tri_spec, ctx324)

    def test_angle_domain(self, ctx324):
        with pytest.raises(ValueError, match=r"^monopole_pattern: theta must lie in \[0, pi/2\]$"):
            monopole_pattern(-0.01, MonopoleSpec(), ctx324)
        with pytest.raises(ValueError, match=r"^monopole_pattern: theta must lie in \[0, pi/2\]$"):
            monopole_pattern(0.5 * math.pi + 0.01, MonopoleSpec(), ctx324)

    def test_ground_disc_must_exceed_truncation_radius(self, ctx324):
        lam = ctx324.wavelength_lambda0
        mono = MonopoleSpec(height_H=0.25 * lam, ground_radius_a=0.04 * lam)
        with pytest.raises(ValueError, match="ground radius"):
            monopole_pattern(math.radians(30.0), mono, ctx324)

    def test_ground_radius_at_the_truncation_radius_is_refused(self):
        # ka = v0 exactly would leave an empty ground integral, not an error
        v0 = 2.0 * math.pi * radiators.GROUND_INNER_RADIUS_WAVELENGTHS
        with pytest.raises(ValueError, match="ground radius"):
            radiators._ground_term(np.radians([30.0]), v0)

    def test_common_prefactor_cancels(self, ctx324, monkeypatch):
        """Scaling both field integrals together must not move the output."""
        mono = MonopoleSpec()
        angles = [math.radians(d) for d in (10.0, 38.5, 60.0, 61.3)]
        field = radiators._field
        baseline = [monopole_pattern(t, mono, ctx324) for t in angles]
        monkeypatch.setattr(radiators, "_field", lambda *args: 2.0 * field(*args))
        radiators._peak_reference.cache_clear()
        try:
            doubled = [monopole_pattern(t, mono, ctx324) for t in angles]
        finally:
            monkeypatch.setattr(radiators, "_field", field)
            radiators._peak_reference.cache_clear()
        for b, d in zip(baseline, doubled):
            assert d == pytest.approx(b, rel=1e-12)


# Two geometries for the array/scalar property: the default post and a
# triangular-current post over a smaller disc.
_PROPERTY_MONOS = (
    MonopoleSpec(),
    MonopoleSpec(height_H=1.0e-3, ground_radius_a=1.5e-3, current_model=CurrentModel.TRIANGULAR),
)


@st.composite
def _angle_grids(draw):
    # 1-12 angles in [0, pi/2], the endpoints and samples of the 0.25 degree
    # normalization grid likely, duplicates forced on demand, laid out 1-d or 2-d.
    angle = st.one_of(
        st.sampled_from([0.0, 0.5 * math.pi]), st.sampled_from(NORM_GRID.tolist()), st.floats(0.0, 0.5 * math.pi)
    )
    values = draw(st.lists(angle, min_size=1, max_size=6))
    if draw(st.booleans()):
        values = values + values[::-1]
    n = len(values)
    shapes = [(n,), (1, n), (n, 1)] + ([(2, n // 2)] if n % 2 == 0 else [])
    return np.array(values).reshape(draw(st.sampled_from(shapes)))


class TestMonopoleValues:
    """monopole_pattern over arrays of angles."""

    def test_each_value_equals_the_scalar_call(self, ctx324):
        lam = ctx324.wavelength_lambda0
        theta = np.radians([0.0, 7.3, 38.5, 38.5, 65.0, 90.0])
        for mono in (MonopoleSpec(), MonopoleSpec(height_H=0.3 * lam, ground_radius_a=1.7 * lam,
                                                  current_model=CurrentModel.TRIANGULAR)):
            values = monopole_pattern(theta, mono, ctx324)
            assert values.tolist() == [monopole_pattern(float(t), mono, ctx324) for t in theta]

    @settings(max_examples=25)
    @given(theta=_angle_grids(), mono=st.sampled_from(_PROPERTY_MONOS))
    def test_array_equals_scalar_calls_property(self, theta, mono):
        ctx = FrequencyContext.from_frequency(32.4e9)
        values = monopole_pattern(theta, mono, ctx)
        assert values.shape == theta.shape
        scalars = [monopole_pattern(t, mono, ctx) for t in theta.ravel().tolist()]
        assert all(type(v) is complex for v in scalars)
        assert values.ravel().tolist() == scalars

    def test_keeps_the_grid_shape_and_is_read_only(self, ctx324):
        theta = np.radians([[10.0, 20.0], [30.0, 40.0]])
        values = monopole_pattern(theta, MonopoleSpec(), ctx324)
        assert values.shape == (2, 2)
        with pytest.raises(ValueError):
            values[0, 0] = 0.0

    def test_angle_domain(self, ctx324):
        for bad in ([0.1, -0.01], [0.5 * math.pi + 0.01], [math.nan]):
            with pytest.raises(ValueError, match="theta must lie"):
                monopole_pattern(np.array(bad), MonopoleSpec(), ctx324)

    def test_exhausted_budget_names_term_and_angle(self, ctx324, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_PANELS", 16)
        radiators._peak_reference.cache_clear()  # the geometry may be cached at full accuracy
        mono = MonopoleSpec(ground_radius_a=0.3)
        with pytest.raises(ConvergenceError) as info:
            monopole_pattern(NORM_GRID, mono, ctx324)
        op = info.value.operation
        assert op.startswith("ground term (ka = 203.575) at theta = ") and op.endswith(" deg")
        deg = float(op.split(" at theta = ")[1].split()[0])
        assert deg in np.degrees(NORM_GRID).round(6)

    @pytest.mark.parametrize("model", list(CurrentModel), ids=lambda m: m.value)
    def test_grid_read_equals_the_angle_integrated_alone(self, ctx324, model, monkeypatch):
        mono = MonopoleSpec(current_model=model)
        kh, ka = ctx324.wavenumber_k * mono.height_H, ctx324.wavenumber_k * mono.ground_radius_a
        ref, _ = radiators._peak_reference(kh, ka, model)
        picks = NORM_GRID[[0, 1, 154, 262, 359, 360]]
        alone = [radiators._divide(radiators._field(np.array([t]), kh, ka, model), ref) for t in picks]
        monkeypatch.setattr(radiators, "integrate_complex", None)  # reads only from here on
        for theta, expected in zip(picks, alone):
            read = monopole_pattern(float(theta), mono, ctx324)
            assert np.array([read]).tobytes() == expected.tobytes()

    def test_lone_off_grid_angle_takes_its_panels_in_blocks(self, ctx324):
        # One angle on the 300 mm disc needs 66 panels; called one panel at a
        # time, it would make 66 kernel calls for the same values.
        mono, theta = MonopoleSpec(ground_radius_a=0.3), math.radians(30.1)
        monopole_pattern(0.0, mono, ctx324)  # sets the geometry up
        specfun.WORK.clear()
        lone = monopole_pattern(theta, mono, ctx324)
        assert specfun.WORK["kernel_calls"] <= 3
        assert specfun.WORK["kernel_values"] == 1386
        batch = np.radians(0.1 + 0.249 * np.arange(361))  # off the grid, so integrated together
        batch[120] = theta
        assert np.array([lone]).tobytes() == monopole_pattern(batch, mono, ctx324)[120:121].tobytes()

    def test_cached_geometry_reads_the_default_grid_without_integrating(self, ctx324, monkeypatch):
        mono = MonopoleSpec(height_H=1.1e-3)
        grid = np.abs(synthesis.default_theta_grid())
        first = monopole_pattern(grid, mono, ctx324)
        calls = []
        monkeypatch.setattr(radiators, "integrate_complex", lambda *a: calls.append(a) or integrate_complex(*a))
        assert np.array_equal(monopole_pattern(grid, mono, ctx324), first)
        assert calls == []

    def test_synthesis_reads_the_field_through_monopole_pattern(self):
        # The benchmark's tracer wraps monopole_pattern at every module that
        # binds it and reads _peak_reference's cache counters; synthesis
        # reaching the field any other way would hide its cache reuse.
        assert synthesis.monopole_pattern is radiators.monopole_pattern
        assert hasattr(radiators._peak_reference, "cache_info")

    @pytest.mark.parametrize("module", [synthesis, scanstudy], ids=lambda m: m.__name__)
    def test_study_layer_does_not_import_specfun(self, module):
        # The study layer reaches the field only through monopole_pattern and
        # does no numerics of its own: from specfun, synthesis takes only the
        # range rule for its weights and ratios, and scanstudy takes nothing.
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        taken = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                taken.update(alias.name for alias in node.names if "specfun" in alias.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                from_specfun = "specfun" in (node.module or "").split(".")
                taken.update(alias.name for alias in node.names if from_specfun or alias.name == "specfun")
        assert taken == ({"require"} if module is synthesis else set())

