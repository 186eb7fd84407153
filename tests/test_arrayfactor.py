"""Closed-form array factor and the explicit steered phasor sum."""

import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltbeam import ArrayLayout, SteeringCommand, array_factor, steered_array_factor

LAM = 3.0e8 / 32.4e9


class TestArrayFactor:
    def test_default_layout_in_tilt_plane_is_unity(self):
        # one column along x and phi = 0 kills both axis factors
        layout = ArrayLayout()
        for deg in np.arange(-90.0, 90.25, 0.25):
            assert array_factor(layout, math.radians(float(deg)), 0.0, LAM) == 1.0

    def test_broadside_is_unity_for_any_layout(self):
        layout = ArrayLayout(4, 3, 0.5 * LAM, 0.5 * LAM)
        assert array_factor(layout, 0.0, 0.0, LAM) == 1.0

    def test_two_element_null(self):
        # half-wave pair along y, looking along y: opposite phases cancel
        layout = ArrayLayout(1, 2, LAM, 0.5 * LAM)
        val = array_factor(layout, 0.5 * math.pi, 0.5 * math.pi, LAM)
        assert val < 1e-12

    @pytest.mark.parametrize("axis, n, m, sign", [("y", 2, 1, 1)] + [
        ("x", n, m, sign) for n, m in ((2, 1), (7, 3), (11, 3), (5, 5)) for sign in (1, -1)
    ])
    def test_removable_singularity_is_continuous(self, axis, n, m, sign):
        # m-wave spacing puts psi = m pi at endfire, where all phasors realign; the raw
        # quotient there reads 0.381, 0.121 and 0.160 for (n, m) = (7, 3), (11, 3), (5, 5)
        layout = ArrayLayout(1, n, LAM, m * LAM) if axis == "y" else ArrayLayout(n, 1, m * LAM, LAM)
        # the other axis has one element, so the same angle serves as theta and phi
        at_limit = array_factor(layout, sign * 0.5 * math.pi, sign * 0.5 * math.pi, LAM)
        near = array_factor(layout, sign * (0.5 * math.pi - 1e-3), sign * (0.5 * math.pi - 1e-3), LAM)
        assert at_limit == 1.0
        assert abs(near - at_limit) < 1e-6

    def test_bounded_to_unit_interval(self):
        layout = ArrayLayout(4, 4, 0.7 * LAM, 0.6 * LAM)
        for t in np.linspace(-0.5 * math.pi, 0.5 * math.pi, 181):
            for p in (0.0, 0.3, 1.0, 0.5 * math.pi):
                v = array_factor(layout, float(t), p, LAM)
                assert 0.0 <= v <= 1.0

    def test_even_in_theta(self):
        layout = ArrayLayout(4, 1, 0.5 * LAM, 0.5 * LAM)
        for t in (0.2, 0.5, 1.1):
            assert array_factor(layout, t, 0.0, LAM) == array_factor(layout, -t, 0.0, LAM)

    @pytest.mark.parametrize("spacing", [math.inf, math.nan, 1e308], ids=["inf", "nan", "1e308"])
    def test_lone_element_axis_ignores_its_spacing(self, spacing):
        # an axis with one element has an unchecked spacing, which once warned here
        theta = np.linspace(-1.5, 1.5, 7)
        expected = array_factor(ArrayLayout(1, 2, LAM, 0.5 * LAM), theta, 0.3, LAM)
        assert np.array_equal(array_factor(ArrayLayout(1, 2, spacing, 0.5 * LAM), theta, 0.3, LAM), expected)

    def test_phase_is_formed_from_spacing_over_wavelength(self):
        # d / lam = 1 with pi d overflowing on its own: psi = pi sin 0.5 all the same
        value = array_factor(ArrayLayout(2, 1, 1e308, 1.0), 0.5, 0.0, 1e308)
        assert value == pytest.approx(abs(math.cos(math.pi * math.sin(0.5))), rel=1e-12)

    def test_rejects_bad_wavelength(self):
        with pytest.raises(ValueError):
            array_factor(ArrayLayout(), 0.0, 0.0, 0.0)

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            ArrayLayout(count_Nx=0)
        with pytest.raises(ValueError):
            ArrayLayout(count_Ny=-2)
        with pytest.raises(ValueError):
            ArrayLayout(count_Nx=2, spacing_dx=0.0)
        for count in (math.inf, math.nan, 2.5):
            with pytest.raises(ValueError, match="count_Nx must be an integer >= 1"):
                ArrayLayout(count_Nx=count)
            with pytest.raises(ValueError, match="count_Ny must be an integer >= 1"):
                ArrayLayout(count_Ny=count)
        # spacing is irrelevant for a single element along that axis
        ArrayLayout(count_Nx=1, spacing_dx=0.0)


class TestSteeredArrayFactor:
    def test_single_element_is_unity(self):
        layout = ArrayLayout(1, 1, LAM, LAM)
        assert steered_array_factor(layout, SteeringCommand(0.4), 0.2, LAM) == 1 + 0j

    @pytest.mark.parametrize(
        "spacing, lam",
        [(math.inf, LAM), (math.nan, LAM), (1e308, LAM), (1.0, 5e-324)],
        ids=["inf", "nan", "1e308", "tiny-wavelength"],
    )
    def test_single_element_is_unity_whatever_its_spacing(self, spacing, lam):
        # a lone element's spacing goes unchecked; it once gave nan+nanj here,
        # and 2 pi / lam overflowing to inf once made its k d nan
        layout = ArrayLayout(1, 1, 1e-3, spacing)
        theta = np.linspace(-1.5, 1.5, 7)
        assert np.abs(steered_array_factor(layout, SteeringCommand(0.4), theta, lam)).tolist() == [1.0] * 7
        assert abs(steered_array_factor(layout, SteeringCommand(0.4), 0.2, lam)) == 1.0

    def test_phase_is_formed_from_spacing_over_wavelength(self):
        # d / lam = 1 with 2 pi / lam overflowing on its own: k d = 2 pi all the same
        value = steered_array_factor(ArrayLayout(1, 2, 1.0, 1e-310), SteeringCommand(0.0), 0.5, 1e-310)
        assert value == pytest.approx(0.5 * (1.0 + cmath.exp(2j * math.pi * math.sin(0.5))), rel=1e-12)

    def test_unit_magnitude_at_commanded_angle(self):
        layout = ArrayLayout(1, 4, LAM, 0.5 * LAM)
        for deg in (-45.0, -10.0, 0.0, 30.0, 45.0):
            cmd = SteeringCommand(math.radians(deg))
            assert abs(steered_array_factor(layout, cmd, cmd.steer_theta0, LAM)) == 1.0

    def test_unsteered_matches_closed_form(self):
        # phasor sum against |sin(N psi) / (N sin psi)| on the same axis
        n, d = 4, 0.5 * LAM
        line = ArrayLayout(1, n, LAM, d)
        closed = ArrayLayout(n, 1, d, LAM)
        cmd = SteeringCommand(0.0)
        for t in np.linspace(-1.5, 1.5, 601):
            mag = abs(steered_array_factor(line, cmd, float(t), LAM))
            ref = array_factor(closed, float(t), 0.0, LAM)
            assert mag == pytest.approx(ref, abs=1e-12)

    def test_four_element_null(self):
        # N=4 at half-wave pitch: first null of the unsteered factor at 30 deg
        layout = ArrayLayout(1, 4, LAM, 0.5 * LAM)
        val = steered_array_factor(layout, SteeringCommand(0.0), math.radians(30.0), LAM)
        assert abs(val) < 1e-12

    def test_mirror_symmetry_of_opposite_commands(self):
        layout = ArrayLayout(1, 4, LAM, 0.5 * LAM)
        plus = SteeringCommand(math.radians(45.0))
        minus = SteeringCommand(math.radians(-45.0))
        for t in np.linspace(0.0, 1.5, 301):
            a = abs(steered_array_factor(layout, plus, float(t), LAM))
            b = abs(steered_array_factor(layout, minus, -float(t), LAM))
            assert a == pytest.approx(b, abs=1e-13)

    def test_line_along_x_matches_line_along_y(self):
        theta = np.linspace(-1.5, 1.5, 61)
        cmd = SteeringCommand(math.radians(30.0))
        along_x = steered_array_factor(ArrayLayout(4, 1, 0.5 * LAM, 0.7 * LAM), cmd, theta, LAM)
        along_y = steered_array_factor(ArrayLayout(1, 4, 0.7 * LAM, 0.5 * LAM), cmd, theta, LAM)
        assert along_x.tobytes() == along_y.tobytes()

    def test_requires_line_layout(self):
        with pytest.raises(ValueError):
            steered_array_factor(ArrayLayout(2, 2, LAM, LAM), SteeringCommand(0.0), 0.1, LAM)

    def test_rejects_bad_wavelength(self):
        layout = ArrayLayout(1, 4, LAM, 0.5 * LAM)
        with pytest.raises(ValueError):
            steered_array_factor(layout, SteeringCommand(0.0), 0.1, -1.0)

    def test_command_domain(self):
        with pytest.raises(ValueError):
            SteeringCommand(0.5 * math.pi)
        with pytest.raises(ValueError):
            SteeringCommand(-2.0)


# Spacings and wavelengths: each bound of a positive float, then any finite positive value.
_POSITIVE = st.one_of(
    st.sampled_from([5e-324, sys.float_info.min, 1e-300, 1e300, sys.float_info.max]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
_ANGLE = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5 * math.pi, -0.5 * math.pi, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_COUNT = st.integers(1, 6)


def _value_or_error(function, *args):
    # the function's value, or its ValueError's message
    try:
        return function(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300)
@given(nx=_COUNT, ny=_COUNT, dx=_POSITIVE, dy=_POSITIVE, theta=_ANGLE, phi=_ANGLE, lam=_POSITIVE,
       theta0=st.floats(-0.5 * math.pi, 0.5 * math.pi, exclude_min=True, exclude_max=True), along_x=st.booleans())
def test_factors_stay_in_range_or_raise_their_owners_error(nx, ny, dx, dy, theta, phi, lam, theta0, along_x):
    # any finite input: a value in range or the owner's ValueError, and no warning
    value = _value_or_error(array_factor, ArrayLayout(nx, ny, dx, dy), theta, phi, lam)
    assert value.startswith("array_factor: ") if isinstance(value, str) else 0.0 <= value <= 1.0
    n = nx if along_x else ny
    line = ArrayLayout(n, 1, dx, dy) if along_x else ArrayLayout(1, n, dx, dy)
    value = _value_or_error(steered_array_factor, line, SteeringCommand(theta0), theta, lam)
    if n == 1:  # a lone element has no phase to refuse
        assert value == 1 + 0j
    else:
        assert value.startswith("steered_array_factor: ") if isinstance(value, str) else abs(value) <= 1.0 + 1e-12
