"""Element-level field models: slot aperture (magnetic source) and vertical
post over a finite circular ground (electric source).

The post's far field is the sum of two terms: the line integral over the
standing-wave current on the post, and a disc integral over the radial
return current on the ground face. Both are evaluated in dimensionless form
(u = k z, v = k rho), so one calibration constant serves every frequency.
The complex sum is normalized by its value at the peak of a fixed angular
grid. Dividing by the complex peak value, not just its magnitude, matters:
the superposition stage adds the slot term with real weights, and only a
phase-aligned post term can steer that sum off broadside.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import WORK, ConvergenceError, _scalar_or_array, bessel_j1, integrate_complex, require, stepped_grid

# Engineering value used across the model, chosen over the exact SI constant
# so closed-form frequency predictions land on their conventional values.
SPEED_OF_LIGHT = 3.0e8  # m/s

# Ground return current J(rho) = J0 exp(-j k rho) / rho, truncated at an
# inner radius of 0.05 wavelengths to dodge the 1/rho singularity.
GROUND_INNER_RADIUS_WAVELENGTHS = 0.05

# Calibration constant J0 of the ground return current: its magnitude makes
# the post and ground terms peak equally over the normalization grid on a
# quarter-wave post over a two-wavelength disc, each integrated to a tenth of
# the default tolerances (the tests re-derive it). It is negative: the return
# current flows inward, and that phase keeps the reference peak off broadside.
_GROUND_CURRENT_J0 = -0.180681294388854

# Fixed angular grid that locates the normalization peak; its field is cached.
NORMALIZATION_STEP_DEG = 0.25
_NORM_GRID_RAD = np.radians(stepped_grid(0.0, 90.0, NORMALIZATION_STEP_DEG))

# Largest |theta| a cut or the post's pattern accepts: pi/2 rad, plus a slack for a grid rounded past it.
HALF_SPACE_EDGE = 0.5 * math.pi + 1e-9


class CurrentModel(enum.Enum):
    """Longitudinal current profile on the vertical post."""

    SINUSOIDAL = "sinusoidal"
    TRIANGULAR = "triangular"


@dataclass(frozen=True)
class SlotSpec:
    """Slot geometry: aperture length and peak aperture field."""

    length_L: float = 4.8e-3  # m
    amplitude_E0: float = 1.0  # V/m

    def __post_init__(self):
        require("SlotSpec", length_L=(self.length_L, "> 0"), amplitude_E0=(self.amplitude_E0, "> 0"))


@dataclass(frozen=True)
class MonopoleSpec:
    """Vertical post geometry: height, ground disc radius, current profile."""

    height_H: float = 1.2e-3  # m
    ground_radius_a: float = 5.0e-3  # m
    current_model: CurrentModel = CurrentModel.SINUSOIDAL

    def __post_init__(self):
        require("MonopoleSpec", height_H=(self.height_H, "> 0"), ground_radius_a=(self.ground_radius_a, "> 0"))
        if not isinstance(self.current_model, CurrentModel):
            raise ValueError("MonopoleSpec: current_model must be a CurrentModel")


@dataclass(frozen=True)
class FrequencyContext:
    """Frequency, with the free-space wavelength and wavenumber it fixes."""

    frequency_f: float  # Hz

    def __post_init__(self):
        require("FrequencyContext", frequency_f=(self.frequency_f, "> 0"))
        if self.wavelength_lambda0 == math.inf:  # c / f overflows for f below about 1.7e-300 Hz
            raise ValueError("FrequencyContext: frequency_f must be finite and > 0, with a finite wavelength c / f")

    @property
    def wavelength_lambda0(self) -> float:  # m
        return SPEED_OF_LIGHT / self.frequency_f

    @property
    def wavenumber_k(self) -> float:  # rad/m
        return 2.0 * math.pi / self.wavelength_lambda0

    @classmethod
    def from_frequency(cls, frequency_hz: float) -> "FrequencyContext":
        return cls(frequency_hz)


def slot_pattern(theta: float) -> float:
    """Slot far-field cut in its raw convention: sin((pi/2) sin theta).

    This form peaks toward theta = pi/2; the synthesis stage remaps the
    argument so the slot lobe sits at broadside before superposing.
    """
    if not math.isfinite(theta):
        raise ValueError("slot_pattern: theta must be finite")
    return math.sin(0.5 * math.pi * math.sin(theta))


def _integrate(kernel, a: float, b: float, theta: np.ndarray, term: str) -> np.ndarray:
    # One integral for all angles; a failure names the term and its worst angle.
    try:
        return integrate_complex(kernel, a, b)
    except ConvergenceError as exc:
        where = f"{term} at theta = {math.degrees(theta[exc.index]):.6g} deg"
        raise ConvergenceError(where, exc.estimate, exc.error_bound) from exc


def _post_term(theta: np.ndarray, kh: float, model: CurrentModel) -> np.ndarray:
    # (j / 4pi) sin(theta) * integral_0^{kH} I(u) exp(-j u cos theta) du
    ct = np.cos(theta)[:, None]

    def kernel(u: np.ndarray) -> np.ndarray:
        current = np.sin(kh - u) if model is CurrentModel.SINUSOIDAL else 1.0 - u / kh
        return current * np.exp(-1j * (u * ct))

    val = _integrate(kernel, 0.0, kh, theta, f"post term (kh = {kh:.6g})")
    return (0.25j / math.pi) * np.sin(theta) * val


def _ground_term(theta: np.ndarray, ka: float) -> np.ndarray:
    # (cos(theta) / 2) * integral_{v0}^{ka} exp(-j v) J1(v sin theta) dv
    v0 = 2.0 * math.pi * GROUND_INNER_RADIUS_WAVELENGTHS
    if ka <= v0:
        raise ValueError(
            "monopole_pattern: ground radius must exceed the inner truncation radius "
            f"({GROUND_INNER_RADIUS_WAVELENGTHS} wavelengths)"
        )
    st = np.sin(theta)[:, None]

    def kernel(v: np.ndarray) -> np.ndarray:
        return np.exp(-1j * v) * bessel_j1(v * st)

    val = _integrate(kernel, v0, ka, theta, f"ground term (ka = {ka:.6g})")
    return 0.5 * np.cos(theta) * val


def _field(theta: np.ndarray, kh: float, ka: float, model: CurrentModel) -> np.ndarray:
    return _post_term(theta, kh, model) + _GROUND_CURRENT_J0 * _ground_term(theta, ka)


def _divide(values: np.ndarray, ref: complex) -> np.ndarray:
    # Divides in place, in real arithmetic, so that ref / ref is exactly 1 + 0j.
    scale = ref.real * ref.real + ref.imag * ref.imag
    values.real, values.imag = ((values.real * ref.real + values.imag * ref.imag) / scale,
                                (values.imag * ref.real - values.real * ref.imag) / scale)
    return values


# 64 entries of a 361-angle field, about 0.4 MB in all: room for any one
# study's geometries, while a sweep over fresh ones cannot grow the process.
@lru_cache(maxsize=64)
def _peak_reference(kh: float, ka: float, model: CurrentModel) -> tuple[complex, np.ndarray]:
    # The field at the normalization grid's magnitude argmax (first index wins
    # on exact ties), and the grid field divided by it, read-only.
    WORK["new_geometries"] += 1
    values = _field(_NORM_GRID_RAD, kh, ka, model)
    ref = complex(values[np.argmax(np.abs(values))])
    _divide(values, ref)
    values.flags.writeable = False
    return ref, values


def monopole_pattern(theta: float | np.ndarray, mono: MonopoleSpec, ctx: FrequencyContext) -> complex | np.ndarray:
    """Normalized far-field value of the grounded post at polar angle theta.

    Valid for theta in [0, HALF_SPACE_EDGE]; a ground plane is assumed, so
    only the upper half-space exists. The two field terms are summed and
    divided by the complex field value at the peak of the 0.25 degree
    normalization grid: the grid peak is exactly 1 + 0j and every other
    sample keeps its phase relative to the peak. The ground radius must
    exceed the inner truncation radius of 0.05 wavelengths at the context frequency.

    A scalar theta gives a complex; an array gives a read-only complex array
    of its shape, each value equal to the scalar call's. Angles on the grid
    are read from a per-geometry cache, and the others integrated once each.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all((theta >= 0.0) & (theta <= HALF_SPACE_EDGE)):
        raise ValueError("monopole_pattern: theta must lie in [0, pi/2]")
    geometry = (ctx.wavenumber_k * mono.height_H, ctx.wavenumber_k * mono.ground_radius_a, mono.current_model)
    ref, grid_values = _peak_reference(*geometry)
    flat = theta.ravel()
    index = np.rint(np.degrees(flat) / NORMALIZATION_STEP_DEG).astype(int)  # nearest sample
    off_grid = _NORM_GRID_RAD[index] != flat
    values = grid_values[index]
    if off_grid.any():
        angles, where = np.unique(flat[off_grid], return_inverse=True)
        values[off_grid] = _divide(_field(angles, *geometry), ref)[where]
    values = values.reshape(theta.shape)
    values.flags.writeable = False
    return _scalar_or_array(values)


def default_theta_grid() -> np.ndarray:
    """[-90, 90] degrees in radians, at the normalization step: monopole_pattern reads each |theta| from its cache."""
    return np.radians(stepped_grid(-90.0, 90.0, NORMALIZATION_STEP_DEG))
