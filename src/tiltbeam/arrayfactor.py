"""Uniform array factors: the separable closed form and an explicit steered
phasor sum for line arrays."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import _scalar_or_array, require


@dataclass(frozen=True)
class ArrayLayout:
    """Element counts and spacings along the two board axes."""

    count_Nx: int = 1
    count_Ny: int = 2
    spacing_dx: float = 1.2e-3  # m
    spacing_dy: float = 1.2e-3  # m

    def __post_init__(self):
        require("ArrayLayout", count_Nx=(self.count_Nx, ">= 1"), count_Ny=(self.count_Ny, ">= 1"))
        for name, count in (("count_Nx", self.count_Nx), ("count_Ny", self.count_Ny)):
            if count % 1:
                raise ValueError(f"ArrayLayout: {name} must be an integer")
        # only an axis with more than one element has a spacing to check
        axes = (("spacing_dx", self.count_Nx, self.spacing_dx), ("spacing_dy", self.count_Ny, self.spacing_dy))
        require("ArrayLayout", **{name: (d, "> 0") for name, count, d in axes if count > 1})


@dataclass(frozen=True)
class SteeringCommand:
    """Commanded main-beam angle for a scanned line array."""

    steer_theta0: float = 0.0  # rad

    def __post_init__(self):
        if not abs(self.steer_theta0) < 0.5 * math.pi:
            raise ValueError("SteeringCommand: |steer_theta0| must be < pi/2")


def _factor(n: int, d: float, sin_angle: np.ndarray, lam: float) -> np.ndarray:
    # |sin(n psi) / (n sin psi)| with psi = pi (d / lam) sin(angle), and 1 at the removable
    # singularity (psi a multiple of pi: all element phasors align). A lone element has no spacing.
    if n == 1:
        return np.ones_like(sin_angle)
    half_kd = math.pi * (d / lam)
    require("array_factor", phase=(n * half_kd, ">= 0"))  # bounds n psi
    psi = half_kd * sin_angle
    aligned = np.abs(psi - math.pi * np.round(psi / math.pi)) < 1e-12
    return np.abs(np.divide(np.sin(n * psi), n * np.sin(psi), out=np.ones_like(psi), where=~aligned))


def array_factor(layout: ArrayLayout, theta, phi, lam: float):
    """Separable two-axis array factor, each axis normalized to peak 1.

    The x axis factor depends on sin(theta), the y axis factor on sin(phi),
    following the separable printed form. Result lies in [0, 1]. theta and
    phi may be numpy arrays, which broadcast; scalars give a float. A
    spacing so large against lam that the phase overflows is refused.
    """
    require("array_factor", lam=(lam, "> 0"))
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    fx = _factor(layout.count_Nx, layout.spacing_dx, np.sin(theta), lam)
    fy = _factor(layout.count_Ny, layout.spacing_dy, np.sin(phi), lam)
    return _scalar_or_array(np.minimum(fx * fy, 1.0))


def _line_axis(layout: ArrayLayout) -> tuple[int, float]:
    # A scanned array must be a single line of elements along one axis.
    if layout.count_Nx == 1:
        return layout.count_Ny, layout.spacing_dy
    if layout.count_Ny == 1:
        return layout.count_Nx, layout.spacing_dx
    raise ValueError("layout must be a 1xN line along one axis")


def steered_array_factor(layout: ArrayLayout, cmd: SteeringCommand, theta, lam: float):
    """Mean element phasor of a scanned 1xN line array.

    Returns (1/N) * sum_n exp(j n k d (sin theta - sin theta0)), an explicit
    sum rather than a shifted closed form, so grating lobes and scan squint
    emerge on their own. Magnitude is 1 at theta = theta0. theta may be a
    numpy array; the sum is then one (theta x element) outer product, and a
    scalar gives a complex. A phase that overflows is refused.
    """
    require("steered_array_factor", lam=(lam, "> 0"))
    n, d = _line_axis(layout)
    if n == 1:  # a lone element has no spacing (its unchecked value may be inf or NaN)
        return _scalar_or_array(np.ones(np.shape(theta), dtype=complex))
    kd = 2.0 * math.pi * (d / lam)
    # |delta| < 2 kd, so this bounds the last element's phase (n - 1) delta
    require("steered_array_factor", phase=(2.0 * (n - 1) * kd, ">= 0"))
    delta = kd * (np.sin(np.asarray(theta, dtype=float)) - math.sin(cmd.steer_theta0))
    phasors = np.exp(1j * np.multiply.outer(delta, np.arange(n)))
    return _scalar_or_array(phasors.sum(axis=-1) / n)
