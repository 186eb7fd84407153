"""Bessel J1 and the composite Gauss-Kronrod integrator, each checked
against an independent route: scipy for J1, closed forms, brute-force
Riemann sums and scipy's quad_vec for the integrals, and numpy's
Gauss-Legendre rule and the exact moments of x^k for the Gauss-Kronrod
table."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import tiltbeam.radiators as radiators
import tiltbeam.specfun as specfun
from tiltbeam.radiators import NORMALIZATION_STEP_DEG, FrequencyContext, MonopoleSpec
from tiltbeam.specfun import (
    MAX_GRID_POINTS,
    ConvergenceError,
    _GK_NODES,
    _GK_WEIGHTS,
    bessel_j1,
    integrate_complex,
    stepped_grid,
)

from strategies import EDGES, LARGEST, NONFINITE, floats


class TestBesselJ1:
    def test_zero_argument(self):
        assert bessel_j1(0.0) == 0.0

    def test_known_values(self):
        assert bessel_j1(1.0) == pytest.approx(0.44005058574493355, rel=1e-13)
        assert bessel_j1(11.9) == pytest.approx(-0.22898324966192404, rel=1e-12)
        assert bessel_j1(12.1) == pytest.approx(-0.21574897337692486, rel=1e-12)
        assert bessel_j1(40.0) == pytest.approx(0.126038318037585, rel=1e-11)
        assert bessel_j1(200.0) == pytest.approx(-0.05430453818237835, rel=1e-11)

    def test_first_zero(self):
        assert abs(bessel_j1(3.8317059702075123)) < 1e-9

    def test_matches_scipy_over_working_range(self):
        # the ground integral feeds arguments up to ka ~ 4 pi times sin(theta)
        xs = np.linspace(0.0, 60.0, 1201)
        mine = np.array([bessel_j1(float(x)) for x in xs])
        ref = special.j1(xs)
        assert np.max(np.abs(mine - ref)) < 1e-11

    def test_branch_seam_is_continuous(self):
        below = bessel_j1(11.999999999)
        above = bessel_j1(12.000000001)
        assert abs(below - above) < 1e-8
        assert below == pytest.approx(special.j1(11.999999999), rel=1e-12)
        assert above == pytest.approx(special.j1(12.000000001), rel=1e-12)

    def test_odd_parity_is_exact(self):
        for x in (0.3, 1.7, 5.0, 11.99, 12.01, 33.3, 150.0):
            assert bessel_j1(-x) == -bessel_j1(x)

    def test_bounded_magnitude(self):
        xs = np.linspace(-80.0, 80.0, 3001)
        assert all(abs(bessel_j1(float(x))) <= 0.6 for x in xs)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match=r"^bessel_j1: argument must be finite$"):
            bessel_j1(math.nan)
        with pytest.raises(ValueError, match=r"^bessel_j1: argument must be finite$"):
            bessel_j1(math.inf)
        with pytest.raises(ValueError, match=r"^bessel_j1: argument must be finite$"):
            bessel_j1(np.array([1.0, math.nan]))

    def test_far_arguments_are_finite_and_warning_free(self):
        # x * x overflows past 1.3e154, and pi * x past 5.7e307
        xs = np.array([1e300, -1e300, np.finfo(float).max, -np.finfo(float).max])
        vals = bessel_j1(xs)
        assert np.all(np.isfinite(vals))
        assert vals[1] == -vals[0] and vals[3] == -vals[2]
        assert np.all(np.abs(vals) <= np.sqrt(2.0 / math.pi / np.abs(xs)))

    def test_far_branch_continues_the_expansion(self):
        # Hankel expansion sqrt(2/(pi x)) (P(1/x^2) cos w - Q(1/x^2)/x sin w), w = x - 3pi/4,
        # in the form that holds while x * x stays finite; past 1e154 1/x^2 is below
        # rounding against P's and Q's leading terms 1 and 3/8
        near = np.geomspace(np.nextafter(12.0, 13.0), 1e154, 20001)
        far = np.append(np.geomspace(np.nextafter(1e154, 2e154), 1e308, 20000), np.finfo(float).max)
        w_near, w_far = near - 0.75 * math.pi, far - 0.75 * math.pi
        y = 1.0 / (near * near)
        p, q = np.polyval(specfun._HANKEL_P, y), np.polyval(specfun._HANKEL_Q, y) / near
        ref_near = np.sqrt(2.0 / (math.pi * near)) * (p * np.cos(w_near) - q * np.sin(w_near))
        ref_far = np.sqrt(2.0 / math.pi / far) * (np.cos(w_far) - 0.375 / far * np.sin(w_far))
        for xs, ref in ((near, ref_near), (far, ref_far)):
            assert np.all(np.abs(bessel_j1(xs) - ref) <= 1e-15 * np.sqrt(2.0 / math.pi / xs))

    @settings(max_examples=500)
    @given(floats())
    @example(0.0)
    @example(-0.0)
    @example(12.0)
    @example(-12.0)
    @example(float(np.nextafter(12.0, 13.0)))
    @example(1e154)
    @example(1e300)
    @example(sys.float_info.max)
    @example(5e-324)
    @example(-1e-310)
    def test_odd_to_the_bit_and_bounded_for_every_finite_float(self, x):
        # the sign bit too, so J1(-0.0) is -0.0; J1 peaks at 0.58187 near x = 1.8412
        plus, minus = bessel_j1(x), bessel_j1(-x)
        assert minus == -plus and np.signbit(minus) == np.signbit(-plus)
        assert type(plus) is float and math.isfinite(plus) and abs(plus) <= 0.5819

    def test_scalar_gives_float_and_array_gives_array(self):
        assert type(bessel_j1(2.5)) is float
        xs = np.array([[0.5, -3.0], [12.5, 40.0]])
        vals = bessel_j1(xs)
        assert vals.shape == xs.shape
        assert [bessel_j1(float(x)) for x in xs.ravel()] == vals.ravel().tolist()


def _refuse(ax):
    raise AssertionError(f"J1 branch called on {ax.size} arguments that are not its own")


class TestBesselJ1Branches:
    # A call runs a branch only on the arguments it owns, and not at all
    # when it owns none; the values stay those of the unpatched function.
    @pytest.mark.parametrize("branch, xs", [
        ("_j1_asymptotic", np.append(np.linspace(-12.0, 12.0, 97), -0.0)),
        ("_j1_series", np.concatenate((np.linspace(-300.0, -12.5, 50), [np.nextafter(12.0, 13.0)],
                                       np.linspace(12.5, 300.0, 50)))),
        ("_j1_series", np.array([np.nextafter(1e154, 2e154), -1e300, np.finfo(float).max])),
    ], ids=["abs-x-up-to-12", "abs-x-above-12", "abs-x-above-1e154"])
    def test_only_the_branch_owning_the_arguments_runs(self, monkeypatch, branch, xs):
        batch, alone = bessel_j1(xs), [bessel_j1(float(x)) for x in xs]
        monkeypatch.setattr(specfun, branch, _refuse)
        assert bessel_j1(xs).tolist() == batch.tolist()
        assert [bessel_j1(float(x)) for x in xs] == alone
        assert [bessel_j1(np.array(x)) for x in xs] == alone

    def test_default_ground_term_runs_only_the_series(self, monkeypatch):
        ka = FrequencyContext(32.4e9).wavenumber_k * MonopoleSpec().ground_radius_a
        assert ka < 12.0  # so every J1 argument, v sin(theta) <= ka, is a series one
        theta = np.radians([0.0, 17.3, 45.0, 90.0])
        expected = radiators._ground_term(theta, ka)
        monkeypatch.setattr(specfun, "_j1_asymptotic", _refuse)
        assert radiators._ground_term(theta, ka).tolist() == expected.tolist()


def _grid_panel(ground_radius_a):
    # J1's arguments on the last panel of the ground integral's first level
    # over the 361-angle normalization grid, one row of 21 nodes per angle
    ka = FrequencyContext(32.4e9).wavenumber_k * ground_radius_a
    mids, halves = next(specfun._plan(2.0 * math.pi * radiators.GROUND_INNER_RADIUS_WAVELENGTHS, ka))
    theta = np.radians(np.arange(361) * NORMALIZATION_STEP_DEG)
    return np.sin(theta)[:, None] * (mids[-1] + halves[-1] * _GK_NODES)


class TestBesselJ1Memory:
    # One grid-panel call's traced peak. np.piecewise's masks and copies and
    # np.polyval's temporaries held 446 KiB on the default disc's one panel
    # (ka 3.39, every argument a series one) and 660 KiB on the 300 mm disc's
    # last (ka 204, mostly Hankel); each panel array is 59 KiB.
    @pytest.mark.parametrize("ground_radius_a, bound_kib", [(5.0e-3, 300), (0.3, 560)],
                             ids=["default-disc-all-series", "300-mm-disc-mostly-hankel"])
    def test_one_grid_panel_call_holds_few_panel_arrays(self, ground_radius_a, bound_kib):
        x = _grid_panel(ground_radius_a)
        bessel_j1(x)
        tracemalloc.start()
        try:
            bessel_j1(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_kib * 1024


class TestIntegrateComplex:
    def test_constant(self):
        val = integrate_complex(lambda x: np.ones_like(x) + 0j, 0.0, 1.0)
        assert type(val) is complex
        assert val == pytest.approx(1.0 + 0j, abs=1e-14)

    def test_sine_over_half_period(self):
        val = integrate_complex(np.sin, 0.0, math.pi)
        assert val == pytest.approx(2.0 + 0j, abs=1e-12)

    def test_oscillatory_closed_form(self):
        # integral of exp(j 10 x) over [0, 1] is (exp(10j) - 1) / 10j
        val = integrate_complex(lambda x: np.exp(10j * x), 0.0, 1.0)
        expected = -0.05440211108893698 + 0.18390715290764525j
        assert val == pytest.approx(expected, abs=1e-12)

    def test_linearity(self):
        f = lambda x: np.exp(2j * x)
        g = lambda x: x * x - 1j * x
        combined = integrate_complex(lambda x: 2.0 * f(x) + 3.0 * g(x), 0.0, 2.0)
        separate = 2.0 * integrate_complex(f, 0.0, 2.0) + 3.0 * integrate_complex(g, 0.0, 2.0)
        assert combined == pytest.approx(separate, abs=1e-11)

    def test_empty_interval_is_exact_zero(self):
        assert integrate_complex(lambda x: np.exp(1j * x), 0.7, 0.7) == 0j

    def test_empty_interval_keeps_the_leading_shape(self):
        k = np.array([[1.0, 10.0, 40.0], [-3.0, 0.5, 100.0]])
        val = integrate_complex(lambda x: np.exp(1j * np.multiply.outer(k, x)), 0.7, 0.7)
        assert isinstance(val, np.ndarray) and val.dtype == complex
        assert val.shape == k.shape and not val.any()
        lone = integrate_complex(lambda x: np.exp(1j * x), 0.7, 0.7)
        assert type(lone) is complex

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError, match=r"^integrate_complex: requires a <= b$"):
            integrate_complex(lambda x: np.ones_like(x) + 0j, 1.0, 0.0)

    def test_non_finite_bounds_rejected(self):
        with pytest.raises(ValueError, match=r"^integrate_complex: bounds must be finite$"):
            integrate_complex(lambda x: np.ones_like(x) + 0j, 0.0, math.inf)
        with pytest.raises(ValueError, match=r"^integrate_complex: bounds must be finite$"):
            integrate_complex(lambda x: np.ones_like(x) + 0j, math.nan, 1.0)

    def test_deterministic(self):
        f = lambda x: np.exp(-1j * x) * bessel_j1(x * 0.6)
        a = integrate_complex(f, 0.1 * math.pi, 4.0 * math.pi)
        b = integrate_complex(f, 0.1 * math.pi, 4.0 * math.pi)
        assert a == b

    def test_leading_axes_are_integrated_together(self):
        # integral of exp(j k x) over [0, 1] is (exp(j k) - 1) / (j k), per k
        k = np.array([[1.0, 10.0, 40.0], [-3.0, 0.5, 100.0]])
        val = integrate_complex(lambda x: np.exp(1j * np.multiply.outer(k, x)), 0.0, 1.0)
        assert val.shape == k.shape
        assert np.max(np.abs(val - (np.exp(1j * k) - 1.0) / (1j * k))) < 1e-12

    def test_an_empty_batch_gives_an_empty_array(self):
        # no values at all, so no block size can be read off the first panel
        val = integrate_complex(lambda x: np.exp(1j * np.multiply.outer(np.zeros(0), x)), 0.0, 30.0)
        assert isinstance(val, np.ndarray) and val.shape == (0,) and val.dtype == complex

    def test_batch_member_equals_lone_evaluation(self):
        # each value stops refining on its own, so a batch changes no bit,
        # though the fast oscillations here need more panels than the slow
        k = np.array([1.0, 300.0, 40.0, 2.5])
        kernel = lambda k: lambda x: np.exp(1j * np.multiply.outer(k, x)) * bessel_j1(x)
        batch = integrate_complex(kernel(k), 0.0, 3.0)
        alone = [integrate_complex(kernel(np.array([x])), 0.0, 3.0)[0] for x in k]
        assert batch.tolist() == alone

    def test_budget_exhaustion_reports_state(self, monkeypatch):
        monkeypatch.setattr(specfun, "_ABS_TOL", 1e-15)
        monkeypatch.setattr(specfun, "_REL_TOL", 1e-15)
        monkeypatch.setattr(specfun, "_MAX_PANELS", 4)
        with pytest.raises(ConvergenceError) as info:
            integrate_complex(lambda x: np.sin(1.0 / (x + 1e-3)), 0.0, 1.0)
        err = info.value
        assert err.operation == "integrate_complex"
        assert isinstance(err.estimate, complex)
        assert err.error_bound > 0.0
        assert err.index == ()
        assert "integrate_complex" in str(err)

    def test_budget_exhaustion_names_the_worst_value(self, monkeypatch):
        # only the fastest oscillation cannot converge on 8 panels
        k = np.array([1.0, 2.0, 300.0, 3.0])
        monkeypatch.setattr(specfun, "_MAX_PANELS", 8)
        with pytest.raises(ConvergenceError) as info:
            integrate_complex(lambda x: np.exp(1j * np.multiply.outer(k, x)), 0.0, 3.0)
        assert info.value.index == (2,)

    def test_a_width_beyond_the_panel_budget_in_pi_can_converge(self):
        # wider than _MAX_PANELS panels of width pi, yet e^{-jv} passes on the
        # 4000-panel level alone, so width alone is no ground to refuse
        width = 6000 * math.pi + 1.0
        assert width > specfun._MAX_PANELS * math.pi
        val = integrate_complex(lambda v: np.cos(v) - 1j * np.sin(v), 0.0, width)
        assert abs(val - 1j * (np.exp(-1j * width) - 1.0)) < 1e-9

    def test_a_level_doubled_to_exactly_the_budget_is_evaluated(self, monkeypatch):
        # e^{6jx} over [0, 11] fails on its first level, 4 panels, and passes on 8
        monkeypatch.setattr(specfun, "_MAX_PANELS", 8)
        specfun.WORK.clear()
        val = integrate_complex(lambda x: np.exp(6j * x), 0.0, 11.0)
        assert specfun.WORK["panels"] == 4 + 8
        assert abs(val - (np.exp(66j) - 1.0) / 6j) < 1e-11

    def test_a_value_within_the_relative_tolerance_passes_on_its_first_level(self):
        # on 4 panels |K - G| exceeds _ABS_TOL but not _REL_TOL * |K|
        f = lambda x: 1e4 * np.exp(3j * x)
        kronrod, gauss = specfun._composite(f, *next(specfun._plan(0.0, 11.0)))
        assert specfun._ABS_TOL < abs(kronrod - gauss) <= specfun._REL_TOL * abs(kronrod)
        specfun.WORK.clear()
        val = integrate_complex(f, 0.0, 11.0)
        assert specfun.WORK["panels"] == 4
        assert val == kronrod
        assert abs(val - 1e4 * (np.exp(33j) - 1.0) / 3j) < 1e-6

    def test_embedded_gauss_rule_matches_numpy(self):
        # numpy's leggauss weights are themselves up to 7 ulp off
        nodes, weights = np.polynomial.legendre.leggauss(10)
        gauss = _GK_WEIGHTS[1] != 0.0
        assert np.array_equal(_GK_NODES[gauss], nodes)
        assert np.max(np.abs(_GK_WEIGHTS[1][gauss] - weights)) < 1e-15

    @pytest.mark.parametrize("rule, degree", [(0, 31), (1, 19)], ids=["kronrod", "gauss"])
    def test_rule_integrates_polynomials_exactly(self, rule, degree):
        # the integral of x^k over [-1, 1] is 2 / (k + 1) for even k, 0 for odd
        for k in range(degree + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(np.sum(_GK_WEIGHTS[rule] * _GK_NODES ** k) - exact) < 1e-15, k
        assert abs(np.sum(_GK_WEIGHTS[rule] * _GK_NODES ** (degree + 1)) - 2.0 / (degree + 2)) > 1e-12

    def test_panel_budget_is_at_least_1000(self):
        assert specfun._MAX_PANELS >= 1000


class TestAgainstRiemannSums:
    """Brute-force midpoint sums over the two radiation kernels.

    These kernels are exactly what the field model integrates, so a match
    here validates the integrator on its real workload. scipy's J1 keeps
    the reference route independent.
    """

    def test_post_current_kernel(self):
        kh = 0.5 * math.pi
        ct = math.cos(math.radians(40.0))
        f = lambda u: np.sin(kh - u) * np.exp(-1j * u * ct)
        val = integrate_complex(f, 0.0, kh)

        n = 1_000_000
        u = (np.arange(n) + 0.5) * (kh / n)
        ref = np.sum(np.sin(kh - u) * np.exp(-1j * u * ct)) * (kh / n)
        assert abs(val - ref) / abs(ref) < 1e-6

    def test_ground_return_kernel(self):
        ka = 4.0 * math.pi
        v0 = 0.1 * math.pi
        st = math.sin(math.radians(40.0))
        f = lambda v: np.exp(-1j * v) * bessel_j1(v * st)
        val = integrate_complex(f, v0, ka)

        n = 1_000_000
        v = v0 + (np.arange(n) + 0.5) * ((ka - v0) / n)
        ref = np.sum(np.exp(-1j * v) * special.j1(v * st)) * ((ka - v0) / n)
        assert abs(val - ref) / abs(ref) < 1e-6

    def test_ground_return_kernel_on_a_300_mm_disc(self):
        # ka = k a for a = 300 mm at 32.4 GHz: some 65 oscillations, far
        # beyond a single 64-point panel, at two angles in one batch
        ka = 2.0 * math.pi * 32.4e9 / 3.0e8 * 0.3
        v0 = 0.1 * math.pi
        st = np.sin(np.radians([30.0, 70.0]))
        val = integrate_complex(lambda v: np.exp(-1j * v) * bessel_j1(np.multiply.outer(st, v)), v0, ka)

        n = 1_000_000
        v = v0 + (np.arange(n) + 0.5) * ((ka - v0) / n)
        for s, got in zip(st, val):
            ref = np.sum(np.exp(-1j * v) * special.j1(v * s)) * ((ka - v0) / n)
            assert abs(got - ref) / abs(ref) < 1e-6


class TestAgainstQuadVec:
    # scipy's adaptive quad_vec, to 1e-12, on e^{-j omega v} p(v) with a smooth
    # envelope p(v) = 1 / (1 + c (v - a)^2): a pole at least 1 off the real axis
    @settings(max_examples=30)
    @given(rows=st.lists(st.tuples(st.floats(-40.0, 40.0), st.floats(0.0, 1.0)), min_size=1, max_size=6),
           a=st.floats(-10.0, 10.0), width=st.floats(0.0, 40.0))
    def test_agrees_within_1e_9_of_the_batch_peak(self, rows, a, width):
        omega, c = np.array(rows).T
        kernel = lambda v: np.exp(-1j * omega[..., None] * v) / (1.0 + c[..., None] * (v - a) ** 2)
        val = integrate_complex(kernel, a, a + width)
        ref = integrate.quad_vec(lambda v: kernel(v)[..., 0], a, a + width, epsabs=1e-12, epsrel=1e-12)[0]
        assert np.max(np.abs(val - ref)) <= 1e-9 * np.max(np.abs(ref))


# Each of stepped_grid's refusals, word for word; the config puts its section in front.
_GRID_MESSAGES = {
    "stepped_grid: step must be > 0",
    "stepped_grid: step must be finite",
    "stepped_grid: stop_minus_start must be >= 0",
    "stepped_grid: stop_minus_start must be finite",
    f"grid must have at most {MAX_GRID_POINTS} points",
    "step must be at least the float spacing at stop",
}
# an edge value, finite or not, or any float, as a Python or a numpy float
_GRID_VALUES = st.builds(lambda value, kind: kind(value), st.one_of(st.sampled_from(EDGES + NONFINITE), st.floats()),
                         st.sampled_from([float, np.float64]))


class TestSteppedGrid:
    @settings(max_examples=500)
    @given(start=_GRID_VALUES, stop=_GRID_VALUES, step=_GRID_VALUES)
    @example(start=np.float64(1.8e308), stop=np.float64(-1.0), step=np.float64(1e-9))
    def test_builds_a_rising_grid_or_refuses_with_its_own_message(self, start, stop, step):
        # any warning fails the test, so no draw may pass one on from numpy
        try:
            grid = stepped_grid(start, stop, step)
        except ValueError as exc:
            assert str(exc) in _GRID_MESSAGES
            return
        assert 1 <= grid.size <= MAX_GRID_POINTS
        assert grid[0] == start and grid[-1] <= stop
        assert np.all(grid[1:] > grid[:-1])

    def test_numpy_scalar_bounds_are_counted_without_a_warning(self):
        # (1e300 - 0) / 1e-300 overflows; in numpy scalars that warned before the count refused the grid
        with pytest.raises(ValueError) as exc:
            stepped_grid(np.float64(0.0), np.float64(1e300), np.float64(1e-300))
        assert str(exc.value) == f"grid must have at most {MAX_GRID_POINTS} points"

    def test_a_span_near_the_largest_float_keeps_every_point(self):
        # bound - start overflows where np.arange counts the points; scaling by a power of two is exact
        start, stop, step = -0.5 * LARGEST, 0.5 * LARGEST, 0.25 * LARGEST
        grid = stepped_grid(start, stop, step)
        assert grid.size == 5 and grid[-1] == stop
        assert grid.tolist() == (16.0 * stepped_grid(start / 16.0, stop / 16.0, step / 16.0)).tolist()
