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

from .specfun import DEFAULT_QUADRATURE, QuadratureSpec, bessel_j1, integrate_complex

# Engineering value used across the model, chosen over the exact SI constant
# so closed-form frequency predictions land on their conventional values.
SPEED_OF_LIGHT = 3.0e8  # m/s

# Ground return current J(rho) = J0 exp(-j k rho) / rho, truncated at an
# inner radius of 0.05 wavelengths to dodge the 1/rho singularity.
GROUND_INNER_RADIUS_WAVELENGTHS = 0.05

# Reference geometry that fixes the calibration of J0: a quarter-wave post
# over a two-wavelength ground disc.
_CAL_KH = 0.5 * math.pi
_CAL_KA = 4.0 * math.pi
_CAL_QUAD = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-10, max_subdivisions=8000)

# Fixed angular grid used to locate the normalization peak.
NORMALIZATION_STEP_DEG = 0.25
_NORM_GRID_RAD: tuple = tuple(
    np.radians(np.arange(0.0, 90.0 + 0.5 * NORMALIZATION_STEP_DEG, NORMALIZATION_STEP_DEG)).tolist()
)

# Common scale on both field terms. It cancels in the normalized output;
# tests flip it to confirm the cancellation.
_FIELD_PREFACTOR = 1.0


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
        if not self.length_L > 0:
            raise ValueError("SlotSpec: length_L must be > 0")
        if not self.amplitude_E0 > 0:
            raise ValueError("SlotSpec: amplitude_E0 must be > 0")


@dataclass(frozen=True)
class MonopoleSpec:
    """Vertical post geometry: height, ground disc radius, current profile."""

    height_H: float = 1.2e-3  # m
    ground_radius_a: float = 5.0e-3  # m
    current_model: CurrentModel = CurrentModel.SINUSOIDAL

    def __post_init__(self):
        if not self.height_H > 0:
            raise ValueError("MonopoleSpec: height_H must be > 0")
        if not self.ground_radius_a > 0:
            raise ValueError("MonopoleSpec: ground_radius_a must be > 0")
        if not isinstance(self.current_model, CurrentModel):
            raise ValueError("MonopoleSpec: current_model must be a CurrentModel")


@dataclass(frozen=True)
class FrequencyContext:
    """Frequency, wavenumber, and free-space wavelength, kept consistent."""

    frequency_f: float  # Hz
    wavenumber_k: float  # rad/m
    wavelength_lambda0: float  # m

    def __post_init__(self):
        if not self.frequency_f > 0:
            raise ValueError("FrequencyContext: frequency_f must be > 0")
        if abs(self.wavenumber_k * self.wavelength_lambda0 - 2.0 * math.pi) > 2.0 * math.pi * 1e-12:
            raise ValueError("FrequencyContext: k * lambda must equal 2*pi")

    @classmethod
    def from_frequency(cls, frequency_hz: float) -> "FrequencyContext":
        if not frequency_hz > 0:
            raise ValueError("FrequencyContext: frequency_hz must be > 0")
        lam = SPEED_OF_LIGHT / frequency_hz
        return cls(frequency_hz, 2.0 * math.pi / lam, lam)


def slot_aperture_field(y: float, slot: SlotSpec) -> float:
    """Aperture field E0 * cos(pi y / L) across the slot extent."""
    half = 0.5 * slot.length_L
    if not -half <= y <= half:
        raise ValueError("slot_aperture_field: y outside [-L/2, L/2]")
    return slot.amplitude_E0 * math.cos(math.pi * y / slot.length_L)


def slot_pattern(theta: float) -> float:
    """Slot far-field cut in its raw convention: sin((pi/2) sin theta).

    This form peaks toward theta = pi/2; the synthesis stage remaps the
    argument so the slot lobe sits at broadside before superposing.
    """
    if not math.isfinite(theta):
        raise ValueError("slot_pattern: theta must be finite")
    return math.sin(0.5 * math.pi * math.sin(theta))


def monopole_coupling_weight(position_y: float, slot: SlotSpec) -> float:
    """Normalized coupling amplitude |cos(pi y / L)| for a post at offset y.

    Posts are fed by proximity to the slot field, so a post near the slot
    center couples most strongly and one at the slot edge not at all.
    """
    half = 0.5 * slot.length_L
    if not -half <= position_y <= half:
        raise ValueError("monopole_coupling_weight: position outside slot extent")
    return abs(math.cos(math.pi * position_y / slot.length_L))


def _current(u: float, kh: float, model: CurrentModel) -> float:
    if model is CurrentModel.SINUSOIDAL:
        return math.sin(kh - u)
    return 1.0 - u / kh


def _post_term(theta: float, kh: float, model: CurrentModel, quad: QuadratureSpec) -> complex:
    # (j / 4pi) sin(theta) * integral_0^{kH} I(u) exp(-j u cos theta) du
    st = math.sin(theta)
    if st == 0.0:
        return 0j
    ct = math.cos(theta)

    def kernel(u: float) -> complex:
        return _current(u, kh, model) * complex(math.cos(u * ct), -math.sin(u * ct))

    val = integrate_complex(kernel, 0.0, kh, quad)
    return _FIELD_PREFACTOR * (0.25j / math.pi) * st * val


def _ground_term(theta: float, ka: float, quad: QuadratureSpec) -> complex:
    # (cos(theta) / 2) * integral_{v0}^{ka} exp(-j v) J1(v sin theta) dv
    v0 = 2.0 * math.pi * GROUND_INNER_RADIUS_WAVELENGTHS
    if ka <= v0:
        raise ValueError(
            "monopole_pattern: ground radius must exceed the inner truncation radius "
            f"({GROUND_INNER_RADIUS_WAVELENGTHS} wavelengths)"
        )
    st = math.sin(theta)

    def kernel(v: float) -> complex:
        return complex(math.cos(v), -math.sin(v)) * bessel_j1(v * st)

    val = integrate_complex(kernel, v0, ka, quad)
    return _FIELD_PREFACTOR * 0.5 * math.cos(theta) * val


@lru_cache(maxsize=None)
def _ground_current_amplitude() -> float:
    """Calibration constant J0 of the ground return current.

    The magnitude makes the post and ground terms reach equal peak magnitude
    on the reference geometry. The sign is negative: the return current on
    the ground face flows inward, opposite the outward coordinate, and that
    phase choice keeps the reference pattern peak in the outer quadrant
    instead of collapsing it toward broadside.
    """
    p_post = max(abs(_post_term(t, _CAL_KH, CurrentModel.SINUSOIDAL, _CAL_QUAD)) for t in _NORM_GRID_RAD)
    p_ground = max(abs(_ground_term(t, _CAL_KA, _CAL_QUAD)) for t in _NORM_GRID_RAD)
    return -p_post / p_ground


@lru_cache(maxsize=131072)
def _field_value(theta: float, kh: float, ka: float, model: CurrentModel, quad: QuadratureSpec) -> complex:
    return _post_term(theta, kh, model, quad) + _ground_current_amplitude() * _ground_term(theta, ka, quad)


@lru_cache(maxsize=4096)
def _peak_reference(kh: float, ka: float, model: CurrentModel, quad: QuadratureSpec) -> complex:
    # Complex field value at the magnitude argmax of the normalization grid.
    # First index wins on exact magnitude ties.
    values = [_field_value(t, kh, ka, model, quad) for t in _NORM_GRID_RAD]
    mags = [abs(v) for v in values]
    idx = max(range(len(mags)), key=lambda i: (mags[i], -i))
    return values[idx]


def monopole_pattern(
    theta: float,
    mono: MonopoleSpec,
    ctx: FrequencyContext,
    quad: QuadratureSpec = DEFAULT_QUADRATURE,
) -> complex:
    """Normalized far-field value of the grounded post at polar angle theta.

    Valid for theta in [0, pi/2]; a ground plane is assumed, so only the
    upper half-space exists. The two field terms are summed and divided by
    the complex field value at the peak of the 0.25 degree normalization
    grid: the grid peak is exactly 1 + 0j and every other sample keeps its
    phase relative to the peak. The ground radius must exceed the inner
    truncation radius of 0.05 wavelengths at the context frequency.
    """
    theta = float(theta)
    if not 0.0 <= theta <= 0.5 * math.pi + 1e-12:
        raise ValueError("monopole_pattern: theta must lie in [0, pi/2]")
    kh = ctx.wavenumber_k * mono.height_H
    ka = ctx.wavenumber_k * mono.ground_radius_a
    ref = _peak_reference(kh, ka, mono.current_model, quad)
    return _field_value(theta, kh, ka, mono.current_model, quad) / ref
