"""Superposition of the slot and post-array terms, pattern metrics, the
excitation-ratio sweep, and beam stability across frequency.

Frozen reference numbers come from an external pipeline built on scipy
quadrature and a 0.05 degree metrics grid; tolerances reflect the 0.25
degree grid used here, not model disagreement.
"""

import dataclasses
import gc
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiltbeam import (
    AntennaGeometry,
    ArrayLayout,
    CurrentModel,
    ExcitationWeights,
    FrequencyContext,
    MonopoleSpec,
    PatternCut,
    PatternMetrics,
    SlotSpec,
    beam_stability,
    default_scan_study,
    default_theta_grid,
    monopole_pattern,
    pattern_metrics,
    ratio_sweep,
    synthesize_pattern,
)
from tiltbeam import cli, svgplot, synthesis
from tiltbeam.specfun import _BOUNDS, stepped_grid
from tiltbeam.synthesis import _amplitude_db, _monopole_term, _slot_term

from strategies import edge_floats, floats

HALF_POWER = 10.0 ** (-3.0 / 20.0)

# Step of the default metrics grid, in radians.
STEP = math.radians(0.25)

RATIO_LADDER = tuple(i / 10 for i in range(1, 11))

LARGEST = sys.float_info.max


def synth(weights, grid, ctx):
    geo = AntennaGeometry()
    return synthesize_pattern(weights, grid, geo.slot, geo.monopole, geo.layout, ctx)


class TestExcitationWeights:
    def test_rejects_negative_amplitudes(self):
        with pytest.raises(ValueError, match=r"^ExcitationWeights: s1_slot must be >= 0$"):
            ExcitationWeights(-1.0, 0.3)
        with pytest.raises(ValueError, match=r"^ExcitationWeights: s2_monopole must be >= 0$"):
            ExcitationWeights(1.0, -0.3)

    @pytest.mark.parametrize("s1, s2", [(math.nan, 1.0), (math.inf, 0.3), (1.0, math.inf)])
    def test_rejects_non_finite_amplitudes(self, s1, s2):
        # NaN fails the bound; +inf passes it and fails the finiteness pass
        name = "s2_monopole" if s1 == 1.0 else "s1_slot"
        with pytest.raises(ValueError) as exc:
            ExcitationWeights(s1, s2)
        assert str(exc.value) == f"ExcitationWeights: {name} must be {'>= 0' if math.isnan(s1) else 'finite'}"

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError, match=r"^ExcitationWeights: s1 and s2 must not both be zero$"):
            ExcitationWeights(0.0, 0.0)

    def test_single_source_allowed(self):
        assert ExcitationWeights(1.0, 0.0).s2_monopole == 0.0
        assert ExcitationWeights(0.0, 1.0).s1_slot == 0.0


class TestPatternCut:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match=r"^PatternCut: theta_grid must be a non-empty 1-d array$"):
            PatternCut(np.array([]), np.array([]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"^PatternCut: values and theta_grid must have the same length$"):
            PatternCut(np.array([0.0, 0.1, 0.2]), np.array([1.0 + 0j, 0j]))

    def test_rejects_non_increasing_grid(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PatternCut(np.array([0.2, 0.1, 0.3]), np.zeros(3, complex))

    def test_rejects_grid_outside_half_space(self):
        with pytest.raises(ValueError, match="within"):
            PatternCut(np.array([0.0, 2.0]), np.zeros(2, complex))

    @pytest.mark.parametrize("value", [0.0])
    def test_rejects_zero_or_nan_peak(self, value):
        # a NaN sample reads "finite", below, even when every sample is NaN
        with pytest.raises(ValueError, match="must not all be zero"):
            PatternCut(np.array([0.0, 0.1]), np.full(2, value, complex))

    @pytest.mark.parametrize("mags", [[1.0, math.inf, 1.0, 0.5, 1.0, 0.8], [1.0, math.inf, 0.5], [0.5, -math.inf],
                                      [math.nan, math.nan], [1.0, math.nan]],
                             ids=["inf-peak-with-sidelobes", "inf-peak", "minus-inf", "all-nan", "nan-beside-a-peak"])
    def test_rejects_infinite_values(self, mags):
        # against an infinite peak every other sample measures 0, so no
        # sidelobe level or width can be read from the cut; a NaN sample
        # has no magnitude to measure at all
        grid = np.linspace(0.0, 0.1, len(mags))
        with pytest.raises(ValueError, match="PatternCut: values must be finite"):
            PatternCut(grid, np.array(mags, complex))
        with pytest.raises(ValueError, match="PatternCut: values must be finite"):
            PatternCut(grid, np.array([complex(0.0, m) for m in mags]))

    def test_unnormalized_cut_allowed(self):
        cut = PatternCut(np.array([0.0, 0.1]), np.array([0.5 + 0j, 0.2 + 0j]))
        assert cut.values.dtype == complex


class TestDefaultGrid:
    def test_default_span_and_count(self):
        grid = default_theta_grid()
        assert grid.size == 721
        assert grid[0] == pytest.approx(math.radians(-90.0), abs=1e-15)
        assert grid[-1] == pytest.approx(math.radians(90.0), abs=1e-15)

    @pytest.mark.parametrize("value, step", [(32.4, 1e-9), (30.0, 1e-9), (-90.0, 2e-14), (0.0, 5e-324)])
    def test_one_point_grid_holds_start(self, value, step):
        # stop + 1e-9 * step rounds back to stop for these steps
        assert stepped_grid(value, value, step).tolist() == [value]

    def test_bound_stays_finite_below_the_largest_float(self):
        # stop + 1e-9 * step overflows; the bound is then the largest float
        assert stepped_grid(1.79e308, 1.7976931348623e308, 1e308).tolist() == [1.79e308]

    @pytest.mark.parametrize("start, stop, step, message", [
        (0.0, 1.0, 1e-20, "grid must have at most 100000 points"),
        (32.4, 32.4, 1e-15, "step must be at least the float spacing at stop"),
        # fails both; the count reports first
        (1e-300, 1e300, 1e-300, "grid must have at most 100000 points"),
    ], ids=["too-many-points", "below-the-float-spacing", "both"])
    def test_refuses_a_grid_before_making_it(self, start, stop, step, message):
        with pytest.raises(ValueError) as exc:
            stepped_grid(start, stop, step)
        assert str(exc.value) == message


class TestHalfSpaceEdge:
    """A cut and the post's pattern share one edge, pi/2 + 1e-9 rad."""

    def test_cut_and_post_share_the_edge(self, ctx324):
        inside, outside = 0.5 * math.pi + 5e-10, 0.5 * math.pi + 2e-9
        assert isinstance(monopole_pattern(inside, MonopoleSpec(), ctx324), complex)
        assert PatternCut(np.array([-inside, inside]), np.ones(2, complex)).theta_grid[-1] == inside
        with pytest.raises(ValueError) as exc:
            monopole_pattern(outside, MonopoleSpec(), ctx324)
        assert str(exc.value) == "monopole_pattern: theta must lie in [0, pi/2]"
        for grid in ([0.0, outside], [-outside, 0.0]):
            with pytest.raises(ValueError) as exc:
                PatternCut(np.array(grid), np.ones(2, complex))
            assert str(exc.value) == "PatternCut: theta_grid must lie within [-pi/2, pi/2]"

    @pytest.mark.parametrize("s2", [0.0, 0.3])
    def test_synthesis_accepts_the_grids_a_cut_accepts(self, ctx324, s2):
        grid = np.array([0.0, 0.5 * math.pi + 5e-10])
        cut = synth(ExcitationWeights(1.0, s2), grid, ctx324)
        assert cut.theta_grid.tolist() == grid.tolist()


class TestDegenerateWeights:
    """With one weight zero the synthesis must collapse to the bare source."""

    def test_slot_only_reduces_to_aperture_form(self, ctx324):
        grid = default_theta_grid()
        cut = synth(ExcitationWeights(1.0, 0.0), grid, ctx324)
        expected = np.sin(0.5 * np.pi * np.cos(grid)).astype(complex)
        assert np.array_equal(cut.values, expected)

    def test_slot_only_metrics(self, ctx324):
        cut = synth(ExcitationWeights(1.0, 0.0), default_theta_grid(), ctx324)
        m = pattern_metrics(cut)
        assert m.tilt_deg == 0.0
        assert m.sll_dB == -math.inf
        # closed form: sin((pi/2) cos theta) crosses the -3 dB level where
        # cos theta = asin(level) / (pi/2)
        expected_bw = 2.0 * math.degrees(math.acos(math.asin(HALF_POWER) / (0.5 * math.pi)))
        assert m.beamwidth3dB_deg == pytest.approx(expected_bw, abs=0.01)
        assert not math.isnan(m.beamwidth3dB_deg)

    def test_monopole_only_is_odd_extension(self, ctx324):
        grid = default_theta_grid()
        cut = synth(ExcitationWeights(0.0, 1.0), grid, ctx324)
        n = grid.size
        mid = n // 2
        assert cut.values[mid] == 0j
        assert np.array_equal(cut.values[:mid][::-1], -cut.values[mid + 1:])

    def test_monopole_only_matches_element_field(self, ctx324):
        grid = default_theta_grid()
        cut = synth(ExcitationWeights(0.0, 1.0), grid, ctx324)
        mono = MonopoleSpec()
        raw = np.array(
            [math.copysign(1.0, t) * monopole_pattern(abs(float(t)), mono, ctx324) if t != 0.0 else 0j
             for t in grid]
        )
        expected = raw / np.abs(raw).max()
        assert np.allclose(cut.values, expected, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("s1, s2", [(0.0, 5e-324), (5e-324, 0.0), (5e-324, 5e-324)])
    def test_subnormal_weights_work_like_unit_ones(self, ctx324, s1, s2):
        # the weights are divided by the larger before the sum, so the field
        # neither underflows nor divides by a subnormal peak
        grid = default_theta_grid()
        unit = synth(ExcitationWeights(s1 / max(s1, s2), s2 / max(s1, s2)), grid, ctx324)
        assert np.array_equal(synth(ExcitationWeights(s1, s2), grid, ctx324).values, unit.values)


_HALF_ANGLES = st.lists(
    st.one_of(st.sampled_from([0.0, 0.5 * math.pi]), st.floats(0.0, 0.5 * math.pi)), min_size=1, max_size=12
)


class TestTermSymmetry:
    """The tilt rests on an even slot term and an odd post-array term."""

    @settings(max_examples=40)
    @given(
        theta=_HALF_ANGLES,
        mono=st.sampled_from([
            MonopoleSpec(),
            MonopoleSpec(height_H=1.0e-3, ground_radius_a=1.5e-3, current_model=CurrentModel.TRIANGULAR),
        ]),
        layout=st.sampled_from([ArrayLayout(), ArrayLayout(4, 1, 2.5e-3, 0.0), ArrayLayout(2, 3)]),
        f_hz=st.sampled_from([20.0e9, 32.4e9, 44.78e9]),
    )
    def test_monopole_term_is_exactly_odd(self, theta, mono, layout, f_hz):
        grid = np.array(theta)
        ctx = FrequencyContext.from_frequency(f_hz)
        assert np.array_equal(_monopole_term(-grid, mono, layout, ctx), -_monopole_term(grid, mono, layout, ctx))

    @settings(max_examples=200)
    @given(theta=_HALF_ANGLES)
    def test_slot_term_is_exactly_even(self, theta):
        grid = np.array(theta)
        assert np.array_equal(_slot_term(-grid), _slot_term(grid))


_WEIGHT = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))


class TestSuperposition:
    @settings(max_examples=25)
    @given(s1=_WEIGHT, s2=_WEIGHT, exponent=st.integers(-60, 60))
    def test_common_scale_invariance_is_exact(self, ctx324, s1, s2, exponent):
        # A power-of-two scale is exact in every product, sum and the
        # normalizing division, so any difference is a real dependence.
        if s1 == 0.0 and s2 == 0.0:
            s2 = 1.0
        scale = 2.0 ** exponent
        grid = default_theta_grid()
        a = synth(ExcitationWeights(s1, s2), grid, ctx324)
        b = synth(ExcitationWeights(scale * s1, scale * s2), grid, ctx324)
        assert np.array_equal(a.values, b.values)

    def test_largest_weight_over_a_subnormal_peak_works_like_unit_ones(self, ctx324):
        # the post term is 0 at broadside, so the field there is slot / LARGEST,
        # a subnormal peak whose reciprocal overflows
        grid = np.array([0.0])
        assert synth(ExcitationWeights(1.0, LARGEST), grid, ctx324).values.tolist() == [1.0 + 0j]
        assert synth(ExcitationWeights(1.0, 1.0), grid, ctx324).values.tolist() == [1.0 + 0j]

    def test_matches_manual_superposition(self, ctx324):
        grid = default_theta_grid()
        cut = synth(ExcitationWeights(1.0, 0.45), grid, ctx324)
        mono = MonopoleSpec()
        slot_t = np.sin(0.5 * np.pi * np.cos(grid))
        mono_t = np.array(
            [math.copysign(1.0, t) * monopole_pattern(abs(float(t)), mono, ctx324) if t != 0.0 else 0j
             for t in grid]
        )
        expected = slot_t + 0.45 * mono_t
        expected = expected / np.abs(expected).max()
        assert np.allclose(cut.values, expected, rtol=1e-12, atol=1e-15)

    def test_rejects_empty_grid(self, ctx324):
        geo = AntennaGeometry()
        with pytest.raises(ValueError, match=r"^synthesize_pattern: theta_grid must be non-empty$"):
            synthesize_pattern(
                ExcitationWeights(1.0, 0.3), np.array([]),
                geo.slot, geo.monopole, geo.layout, ctx324,
            )

    def test_rejects_a_field_zero_on_every_sample(self, ctx324):
        # the post term alone is odd in theta, so it is exactly 0 at broadside
        with pytest.raises(ValueError, match=r"^synthesize_pattern: field is zero everywhere on the grid$"):
            synth(ExcitationWeights(0.0, 1.0), np.array([0.0]), ctx324)

    def test_default_weights_tilt_the_beam(self, ctx324):
        cut = synth(ExcitationWeights(1.0, 0.3), default_theta_grid(), ctx324)
        m = pattern_metrics(cut)
        assert m.tilt_deg == pytest.approx(30.853384074892816, abs=0.05)
        assert m.sll_dB == pytest.approx(-22.843280995682935, abs=0.05)
        assert m.beamwidth3dB_deg == pytest.approx(70.54569123804436, abs=0.1)
        assert m.peak_linear == pytest.approx(1.0, abs=1e-9)
        assert not math.isnan(m.beamwidth3dB_deg)

    def test_tilt_survives_grid_refinement(self, ctx324):
        tilts = []
        for step in (0.25, 0.1, 0.05):
            grid = np.radians(np.arange(0.0, 60.0 + 0.5 * step, step))
            cut = synth(ExcitationWeights(1.0, 0.3), grid, ctx324)
            tilts.append(pattern_metrics(cut).tilt_deg)
        assert max(tilts) - min(tilts) < 0.05


class TestAmplitudeDb:
    # The one dB rule: pattern.csv floors at -400 dB, the SVG trace at -40 dB,
    # and the sidelobe level and the scan loss not at all.
    def test_an_exact_null_gives_the_floor(self):
        assert (cli._DB_FLOOR, svgplot._FLOOR_DB) == (-400.0, -40.0)
        for floor in (-400.0, -40.0, -math.inf):
            assert _amplitude_db(0.0, floor) == floor
        assert _amplitude_db(0.0) == -math.inf

    def test_a_level_below_the_floor_is_clamped(self):
        assert _amplitude_db(1e-30, -400.0) == -400.0  # clamped, not -600
        assert _amplitude_db(1e-3, -40.0) == -40.0
        assert _amplitude_db(1e-30) == pytest.approx(-600.0)
        assert _amplitude_db(5e-324) == pytest.approx(-6466.1, abs=0.1)

    def test_unit_ratio_is_0_db_and_a_decade_is_20(self):
        for floor in (-400.0, -40.0, -math.inf):
            assert _amplitude_db(1.0, floor) == 0.0
        assert _amplitude_db(10.0) == 20.0
        assert _amplitude_db(0.1, -40.0) == -20.0


class TestPatternMetricsFixtures:
    """Synthetic cuts with closed-form answers."""

    @staticmethod
    def gauss(grid_deg, center, width):
        return np.exp(-(((grid_deg - center) / width) ** 2))

    def test_single_gaussian_lobe(self):
        grid = default_theta_grid()
        deg = np.degrees(grid)
        vals = self.gauss(deg, 20.0, 10.0).astype(complex)
        m = pattern_metrics(PatternCut(grid, vals))
        assert m.tilt_deg == pytest.approx(20.0, abs=1e-9)
        assert m.sll_dB == -math.inf
        expected_bw = 20.0 * math.sqrt(0.15 * math.log(10.0))
        assert m.beamwidth3dB_deg == pytest.approx(expected_bw, abs=0.01)

    def test_two_lobes_report_sidelobe_level(self):
        grid = default_theta_grid()
        deg = np.degrees(grid)
        vals = self.gauss(deg, -10.0, 5.0) + 10.0 ** -0.5 * self.gauss(deg, 40.0, 5.0)
        m = pattern_metrics(PatternCut(grid, vals.astype(complex)))
        assert m.tilt_deg == pytest.approx(-10.0, abs=1e-6)
        assert m.sll_dB == pytest.approx(-10.0, abs=1e-9)

    def test_truncated_flank_flags_one_sided(self):
        grid = default_theta_grid()
        deg = np.degrees(grid)
        vals = self.gauss(deg, 85.0, 10.0).astype(complex)
        m = pattern_metrics(PatternCut(grid, vals))
        assert math.isnan(m.beamwidth3dB_deg)
        assert m.tilt_deg == pytest.approx(85.0, abs=1e-9)

    def test_power_of_two_scale_near_the_largest_float(self):
        # 2 * peak overflows for the large cut; its parabola step must still run
        grid = default_theta_grid()
        deg = np.degrees(grid)
        shape = self.gauss(deg, -10.1, 5.0) + 10.0 ** -0.5 * self.gauss(deg, 40.0, 5.0)
        large = pattern_metrics(PatternCut(grid, LARGEST * shape))
        small = pattern_metrics(PatternCut(grid, 2.0 ** -1000 * (LARGEST * shape)))
        assert repr((large.tilt_deg, large.sll_dB, large.beamwidth3dB_deg)) == repr(
            (small.tilt_deg, small.sll_dB, small.beamwidth3dB_deg))
        assert small.peak_linear == 2.0 ** -1000 * large.peak_linear
        assert small.tilt_deg == pytest.approx(-10.1, abs=1e-3)

    def test_single_point_cut(self):
        m = pattern_metrics(PatternCut(np.array([0.3]), np.array([1.0 + 0j])))
        assert m.tilt_deg == pytest.approx(math.degrees(0.3), rel=1e-12)
        assert m.sll_dB == -math.inf
        assert math.isnan(m.beamwidth3dB_deg)

    def test_rejects_coarse_grid(self):
        grid = np.radians(np.arange(-90.0, 91.0, 1.0))
        vals = np.cos(grid).astype(complex)
        with pytest.raises(ValueError, match="spacing"):
            pattern_metrics(PatternCut(grid, vals))

    @settings(max_examples=100)
    @given(theta0=st.floats(-40.0, 40.0), n=st.floats(1.0, 60.0))
    def test_cosine_power_lobe(self, theta0, n):
        grid = default_theta_grid()
        vals = np.abs(np.cos(grid - math.radians(theta0))) ** n
        m = pattern_metrics(PatternCut(grid, (vals / vals.max()).astype(complex)))
        # cos^n u = 1 - (n/2) u^2 + (n^2/8 - n/12) u^4: the quartic term moves
        # the three-point parabola's vertex by at most 0.2 (n/4) STEP^3.
        assert m.tilt_deg == pytest.approx(theta0, abs=math.degrees(0.05 * n * STEP ** 3))
        # The -3 dB level is 10^(-3/20) of the sampled peak (2^(-1/2), the
        # half-power level, would be 0.14 deg wider at n = 1). Linear
        # interpolation misplaces each crossing by at most STEP^2/8 times
        # |f''/f'| there, which stays below 2 sqrt(n) for cos^n.
        half_width = math.acos((HALF_POWER * vals.max()) ** (1.0 / n))
        assert m.beamwidth3dB_deg == pytest.approx(
            math.degrees(2.0 * half_width), abs=math.degrees(STEP ** 2 / 2.0 * math.sqrt(n))
        )

    @settings(max_examples=100)
    @given(
        main=st.floats(-30.0, 0.0), side=st.floats(45.0, 60.0), level=st.floats(0.01, 0.9),
        n=st.floats(60.0, 100.0),
    )
    def test_two_cosine_power_lobes(self, main, side, level, n):
        grid = default_theta_grid()
        vals = np.abs(np.cos(grid - math.radians(main))) ** n + level * np.abs(np.cos(grid - math.radians(side))) ** n
        m = pattern_metrics(PatternCut(grid, (vals / vals.max()).astype(complex)))
        # Each lobe's sampled peak lies within cos^n(STEP/2) of its true
        # peak; at 45 deg apart each lobe adds < 0.71^60 ~ 1e-9 to the other.
        tol = -20.0 * n * math.log10(math.cos(0.5 * STEP)) + 1e-6
        assert m.sll_dB == pytest.approx(20.0 * math.log10(level), abs=tol)


def _refined_argmax(grid_deg, mags):
    i = int(np.argmax(mags))
    if 0 < i < mags.size - 1:
        den = mags[i - 1] - 2.0 * mags[i] + mags[i + 1]
        if den != 0.0:
            shift = 0.5 * (mags[i - 1] - mags[i + 1]) / den
            shift = min(0.5, max(-0.5, shift))
            return float(grid_deg[i] + shift * 0.5 * (grid_deg[i + 1] - grid_deg[i - 1]))
    return float(grid_deg[i])


def _crossing(grid_deg, mags, i_peak, level, side):
    j = i_peak
    while 0 <= j + side < mags.size:
        k = j + side
        if mags[k] < level:
            f = (mags[j] - level) / (mags[j] - mags[k])
            return float(grid_deg[j] + f * (grid_deg[k] - grid_deg[j]))
        j = k
    return None


def reference_metrics(cut):
    """pattern_metrics as a walk over the samples: (tilt, sll, width, peak, one_sided)."""
    grid_deg = np.degrees(cut.theta_grid)
    mags = np.abs(cut.values)
    n = mags.size
    if n == 1:
        return float(grid_deg[0]), -math.inf, math.nan, float(mags[0]), True
    i_peak = int(np.argmax(mags))
    peak = float(mags[i_peak])
    tilt = _refined_argmax(grid_deg, mags)
    left = i_peak
    while left > 0 and mags[left - 1] <= mags[left]:
        left -= 1
    right = i_peak
    while right < n - 1 and mags[right + 1] <= mags[right]:
        right += 1
    second = 0.0  # the strongest sample outside the main lobe that no neighbour exceeds
    for j in [*range(left), *range(right + 1, n)]:
        if (j == 0 or mags[j - 1] <= mags[j]) and (j == n - 1 or mags[j + 1] <= mags[j]):
            second = max(second, float(mags[j]))
    sll = -math.inf if second / peak == 0.0 else 20.0 * math.log10(second / peak)
    level = HALF_POWER * peak
    lo_cross = _crossing(grid_deg, mags, i_peak, level, -1)
    hi_cross = _crossing(grid_deg, mags, i_peak, level, +1)
    if lo_cross is None or hi_cross is None:
        return tilt, sll, math.nan, peak, True
    return tilt, sll, hi_cross - lo_cross, peak, False


# Exact levels make plateaus, ties and samples right at the -3 dB level.
_MAGNITUDE = st.one_of(st.sampled_from([0.0, 0.25, 0.5, HALF_POWER, 1.0]), st.floats(0.0, 1.0))
_SAMPLE = st.builds(complex, _MAGNITUDE, st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))


@st.composite
def _cuts(draw):
    values = draw(st.lists(_SAMPLE, min_size=1, max_size=80).filter(any))
    boundary_peak = draw(st.sampled_from([None, 0, -1]))
    if boundary_peak is not None:
        values[boundary_peak] = 2.0
    step = draw(st.sampled_from([0.1, 0.25, 0.5]))
    start = draw(st.floats(-90.0, 90.0 - step * (len(values) - 1)))
    return PatternCut(np.radians(start + step * np.arange(len(values))), np.array(values))


_EXAMPLE_CUTS = (
    PatternCut(np.radians([0.0, 0.25, 0.5]), np.array([HALF_POWER, 1.0, 0.0])),
    PatternCut(np.radians([0.0, 0.25, 0.5, 0.75]), np.array([0.5, 1.0, 1.0, 0.5])),
    PatternCut(np.radians([0.3]), np.array([2.0j])),
    PatternCut(np.radians([0.0, 0.1, 0.2]), np.array([5e-324, 0.0, 2.0])),  # 5e-324 / 2 is 0.0
)


def _with_example_cuts(test):
    for cut in _EXAMPLE_CUTS:
        test = example(cut=cut)(test)
    return test


def trace_points(svg: str) -> list:
    # the trace's polyline points, or a one-sample cut's circle
    circle = re.search(r'<circle cx="([-\d.]+)" cy="([-\d.]+)"', svg)
    if circle:
        return [(float(circle[1]), float(circle[2]))]
    points = re.search(r'<polyline points="([^"]*)"', svg)[1]
    return [tuple(map(float, point.split(","))) for point in points.split()]


class TestPatternMetricsReference:
    @settings(max_examples=500)
    @given(cut=_cuts())
    @_with_example_cuts
    def test_equals_the_sample_walk(self, cut):
        m = pattern_metrics(cut)
        ref = reference_metrics(cut)
        assert repr((m.tilt_deg, m.sll_dB, m.beamwidth3dB_deg, m.peak_linear)) == repr(ref[:4])
        assert math.isnan(m.beamwidth3dB_deg) == ref[4]

    @settings(max_examples=60)
    @given(cut=_cuts())
    @_with_example_cuts
    def test_magnitudes_are_read_only_and_their_db_is_peak_relative(self, cut):
        # the one |values| every reader shares, and the dB rule that
        # pattern.csv (floor -400 dB) and the SVG trace (-40 dB) read
        assert cut.magnitudes.tobytes() == np.abs(cut.values).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            cut.magnitudes[0] = 1.0
        for floor in (-400.0, -40.0):
            db = cut.relative_db(floor)
            assert len(db) == cut.values.size
            assert repr(db[int(np.argmax(cut.magnitudes))]) == "0.0"
            assert all(floor <= d <= 0.0 for d in db)
            assert all(d == floor for d, m in zip(db, cut.magnitudes) if m == 0.0)

    @settings(max_examples=60)
    @given(cut=_cuts())
    @_with_example_cuts
    def test_svg_trace_stays_on_the_upper_half_disc(self, cut):
        # coordinates are written to three decimals, which can carry a point
        # on the 0 dB ring half a unit past it in x and in y
        reach = svgplot._RADIUS + math.hypot(5e-4, 5e-4) + 1e-9
        points = trace_points(svgplot.render_polar_svg(cut, pattern_metrics(cut)))
        assert len(points) == cut.values.size
        for x, y in points:
            assert math.hypot(x - svgplot._CX, y - svgplot._CY) <= reach
            assert y <= svgplot._CY

    def test_stores_four_fields(self):
        names = [f.name for f in dataclasses.fields(PatternMetrics)]
        assert names == ["tilt_deg", "sll_dB", "beamwidth3dB_deg", "peak_linear"]
        m = PatternMetrics(0.0, -math.inf, math.nan, 1.0)
        assert math.isnan(m.beamwidth3dB_deg)
        with pytest.raises(AttributeError):
            m.beamwidth3dB_deg = 10.0


class TestRatioSweep:
    def test_ladder_monotonicity_and_best(self, ctx324, default_geometry):
        result = ratio_sweep(RATIO_LADDER, default_geometry, ctx324)
        tilts = [r.tilt_deg for r in result.rows]
        slls = [r.sll_dB for r in result.rows]
        assert result.ratios == RATIO_LADDER
        assert all(tilts[i] < tilts[i + 1] for i in range(len(tilts) - 1))
        assert all(slls[i] < slls[i + 1] for i in range(len(slls) - 1))
        assert result.best_ratio == 0.1
        assert tilts[0] == pytest.approx(25.645, abs=0.05)
        assert tilts[-1] == pytest.approx(35.014, abs=0.05)
        assert max(tilts) - min(tilts) < 10.0

    @settings(max_examples=50)
    @given(ratios=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=8))
    def test_ties_go_to_the_smallest_ratio(self, ctx324, default_geometry, ratios):
        # On 0..10 deg every ratio's cut rises to its right edge, so no ratio
        # has a sidelobe and all tie at -inf.
        grid = np.radians(np.arange(0.0, 10.0 + 0.125, 0.25))
        result = ratio_sweep(ratios, default_geometry, ctx324, grid)
        assert all(row.sll_dB == -math.inf for row in result.rows)
        assert result.best_ratio == min(ratios)

    def test_largest_ratio_refines_its_tilt(self, ctx324, default_geometry):
        # the slot term is lost beside either post term, so the two cuts differ by a factor of 2
        top, half = ratio_sweep([LARGEST, LARGEST / 2], default_geometry, ctx324).rows
        assert (top.tilt_deg, top.sll_dB, top.beamwidth3dB_deg) == (half.tilt_deg, half.sll_dB,
                                                                    half.beamwidth3dB_deg)
        assert top.tilt_deg % 0.25 != 0.0  # not a bare grid sample

    def test_tiny_ratio_approaches_slot_limit(self, ctx324, default_geometry):
        row = ratio_sweep([1e-12], default_geometry, ctx324).rows[0]
        assert abs(row.tilt_deg) < 1e-3
        assert row.sll_dB < -100.0

    def test_validation(self, ctx324, default_geometry):
        with pytest.raises(ValueError, match=r"^ratio_sweep: ratios must be non-empty$"):
            ratio_sweep([], default_geometry, ctx324)
        with pytest.raises(ValueError, match=r"^ratio_sweep: ratios\[1\] must be > 0$"):
            ratio_sweep([0.5, 0.0], default_geometry, ctx324)
        with pytest.raises(ValueError, match=r"^ratio_sweep: ratios\[0\] must be > 0$"):
            ratio_sweep([-0.1], default_geometry, ctx324)

    @pytest.mark.parametrize("ratio", [math.inf, math.nan])
    def test_rejects_non_finite_ratio(self, ctx324, default_geometry, ratio):
        bound = "finite" if ratio == math.inf else "> 0"
        with pytest.raises(ValueError) as exc:
            ratio_sweep([0.5, ratio], default_geometry, ctx324)
        assert str(exc.value) == f"ratio_sweep: ratios[1] must be {bound}"

    def test_repeated_sweeps_keep_no_memory_per_call(self, ctx324, default_geometry):
        # Per-call tuples built from generators fill CPython's per-size tuple
        # free lists (see test_config's parse test); a full collection empties
        # them, so one runs before the warm-up and none after it.
        ratio_sweep([0.3], default_geometry, ctx324)  # the field cache
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                ratio_sweep([0.2, 0.5, 1.0], default_geometry, ctx324)
            before = sys.getallocatedblocks()
            for _ in range(300):
                ratio_sweep([0.2, 0.5, 1.0], default_geometry, ctx324)
            grown = sys.getallocatedblocks() - before
        finally:
            gc.enable()
        assert grown < 100


def _refusal(owner: str, bound: str, **values) -> str | None:
    # require's message for the first finite value outside its bound, or None
    return next((f"{owner}: {name} must be {bound}" for name, v in values.items() if not _BOUNDS[bound](v)), None)


@settings(max_examples=200)
@given(s1=edge_floats(), s2=edge_floats(), ratios=st.lists(floats(), min_size=1, max_size=4))
def test_studies_stay_in_range_or_raise_their_owners_error(ctx324, default_geometry, s1, s2, ratios):
    # any finite weights and ratios: a unit-peak cut and metrics in range, or the owner's ValueError
    refusal = _refusal("ExcitationWeights", ">= 0", s1_slot=s1, s2_monopole=s2)
    if refusal is None and s1 == s2 == 0.0:
        refusal = "ExcitationWeights: s1 and s2 must not both be zero"
    grid = default_theta_grid()
    try:
        cut = synth(ExcitationWeights(s1, s2), grid, ctx324)
        assert refusal is None and abs(cut.magnitudes.max() - 1.0) <= 1e-12
    except ValueError as exc:
        assert str(exc) == refusal
    refusal = _refusal("ratio_sweep", "> 0", **{f"ratios[{i}]": r for i, r in enumerate(ratios)})
    try:
        result = ratio_sweep(ratios, default_geometry, ctx324)
        assert refusal is None and result.best_ratio in result.ratios
        assert all(-90.0 <= row.tilt_deg <= 90.0 and row.sll_dB <= 0.0 for row in result.rows)
    except ValueError as exc:
        assert str(exc) == refusal


class TestBeamStability:
    WEIGHTS = ExcitationWeights(1.0, 0.3)

    def test_band_sample_tilts(self, ctx324, default_geometry):
        freqs = [26.0e9, 31.0e9, 36.0e9, 41.0e9]
        result = beam_stability(freqs, default_geometry, self.WEIGHTS)
        tilts = [r.tilt_deg for r in result.rows]
        assert tilts[0] == pytest.approx(31.972, abs=0.05)
        assert tilts[1] == pytest.approx(31.108, abs=0.05)
        assert tilts[2] == pytest.approx(30.215, abs=0.05)
        assert tilts[3] == pytest.approx(29.550, abs=0.05)
        assert result.reference_tilt_deg == pytest.approx(30.853, abs=0.05)
        assert result.max_tilt_deviation_deg == pytest.approx(1.303, abs=0.02)
        assert result.max_tilt_deviation_deg < 10.0

    def test_reference_frequency_row_has_zero_deviation(self, default_geometry):
        result = beam_stability([32.4e9], default_geometry, self.WEIGHTS)
        assert result.rows[0].tilt_deg == result.reference_tilt_deg
        assert result.max_tilt_deviation_deg == 0.0

    def test_duplicate_frequencies_share_metrics(self, default_geometry):
        result = beam_stability([26.0e9, 26.0e9], default_geometry, self.WEIGHTS)
        assert result.rows[0] == result.rows[1]

    def test_rows_preserve_input_order(self, default_geometry):
        result = beam_stability([41.0e9, 26.0e9], default_geometry, self.WEIGHTS)
        assert result.frequencies_hz == (41.0e9, 26.0e9)
        # the tilt falls with frequency, so the rows follow the input too
        assert result.rows[0].tilt_deg < result.rows[1].tilt_deg

    def test_band_edges_are_accepted(self, default_geometry):
        result = beam_stability([20.0e9, 45.0e9], default_geometry, self.WEIGHTS)
        assert result.frequencies_hz == (20.0e9, 45.0e9)

    def test_band_limits_enforced(self, default_geometry):
        with pytest.raises(ValueError, match=r"^beam_stability: frequency outside the 20 to 45 GHz band$"):
            beam_stability([19.0e9], default_geometry, self.WEIGHTS)
        with pytest.raises(ValueError, match=r"^beam_stability: frequency outside the 20 to 45 GHz band$"):
            beam_stability([46.0e9], default_geometry, self.WEIGHTS)
        with pytest.raises(ValueError, match=r"^beam_stability: freqs must be non-empty$"):
            beam_stability([], default_geometry, self.WEIGHTS)


def _scan(geometry, ctx, grid):
    # PatternCut compares by identity, so compare the scan cuts' bytes
    result = default_scan_study(geometry, ctx, grid)
    return result.reports, [cut.values.tobytes() for cut in result.cuts]


STUDIES = {
    "ratio-sweep": lambda geometry, ctx, grid: ratio_sweep([0.3, 1.0], geometry, ctx, grid),
    "stability": lambda geometry, ctx, grid: beam_stability(
        [26.0e9, 41.0e9], geometry, ExcitationWeights(1.0, 0.3), grid),
    "scan": _scan,
}


class TestStudyGrid:
    """Every study reads theta_grid=None as default_theta_grid() and refuses a
    grid too coarse for pattern_metrics before it evaluates any field."""

    @pytest.mark.parametrize("name", list(STUDIES))
    def test_none_is_the_default_grid(self, ctx324, default_geometry, name):
        study = STUDIES[name]
        assert study(default_geometry, ctx324, None) == study(default_geometry, ctx324, default_theta_grid())

    @pytest.mark.parametrize("name", ["ratio-sweep", "stability"])
    def test_coarse_grid_fails_before_field_evaluation(self, ctx324, default_geometry, monkeypatch, name):
        def no_field(*args):
            raise AssertionError("field evaluated")

        monkeypatch.setattr(synthesis, "monopole_pattern", no_field)
        monkeypatch.setattr(synthesis, "_slot_term", no_field)
        with pytest.raises(ValueError, match=r"^pattern_metrics: grid spacing must be <= 0\.5 degrees$"):
            STUDIES[name](default_geometry, ctx324, np.radians(np.arange(-90.0, 90.5, 1.0)))


class TestAntennaGeometry:
    def test_defaults(self):
        geo = AntennaGeometry()
        assert isinstance(geo.slot, SlotSpec)
        assert isinstance(geo.monopole, MonopoleSpec)
        assert isinstance(geo.layout, ArrayLayout)
        assert geo.layout.count_Ny == 2
