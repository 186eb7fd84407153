"""Bessel J1 and the composite Gauss-Legendre integrator, each checked
against an independent route: scipy for J1, closed forms and brute-force
Riemann sums for the integrals."""

import math

import numpy as np
import pytest
from scipy import special

import tiltbeam.radiators as radiators
import tiltbeam.specfun as specfun
from tiltbeam.radiators import FrequencyContext, MonopoleSpec
from tiltbeam.specfun import (
    ConvergenceError,
    _GL_NODES,
    _GL_WEIGHTS,
    bessel_j1,
    integrate_complex,
)


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
        with pytest.raises(ValueError):
            bessel_j1(math.nan)
        with pytest.raises(ValueError):
            bessel_j1(math.inf)
        with pytest.raises(ValueError):
            bessel_j1(np.array([1.0, math.nan]))

    @pytest.mark.filterwarnings("error")
    def test_far_arguments_are_finite_and_warning_free(self):
        # x * x overflows past 1.3e154, and pi * x past 5.7e307
        xs = np.array([1e300, -1e300, np.finfo(float).max, -np.finfo(float).max])
        vals = bessel_j1(xs)
        assert np.all(np.isfinite(vals))
        assert vals[1] == -vals[0] and vals[3] == -vals[2]
        assert np.all(np.abs(vals) <= np.sqrt(2.0 / math.pi / np.abs(xs)))

    def test_far_branch_continues_the_expansion(self):
        # from 1e10 up, the terms the far branch drops are below rounding
        xs = np.geomspace(1e10, 1e154, 200)
        gap = np.abs(specfun._j1_far(xs) - specfun._j1_asymptotic(xs))
        assert np.all(gap <= 1e-15 * np.sqrt(2.0 / (math.pi * xs)))

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
        ("_j1_asymptotic", np.array([np.nextafter(1e154, 2e154), -1e300, np.finfo(float).max])),
        ("_j1_far", np.array([-1e154, -300.0, 0.0, 12.0, 12.5, 1e154])),
    ], ids=["abs-x-up-to-12", "abs-x-above-12", "abs-x-above-1e154", "abs-x-up-to-1e154"])
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
        with pytest.raises(ValueError):
            integrate_complex(lambda x: np.ones_like(x) + 0j, 1.0, 0.0)

    def test_non_finite_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate_complex(lambda x: np.ones_like(x) + 0j, 0.0, math.inf)
        with pytest.raises(ValueError):
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

    def test_gauss_legendre_table_matches_numpy(self):
        nodes, weights = np.polynomial.legendre.leggauss(16)
        assert np.array_equal(_GL_NODES, nodes)
        assert np.array_equal(_GL_WEIGHTS, weights)

    def test_quadrature_spec_validation(self):
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
