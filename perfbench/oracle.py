"""Independent evaluation of the normalized post field, for spot-checks.

Composite Gauss-Legendre quadrature with scipy's J1, vectorized over the
normalization grid. It imports nothing from tiltbeam and shares no code with
it: only the model's definition (integrands, calibration geometry, inner
truncation radius, 0.25 degree normalization grid) is restated here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
_NORM_GRID = np.radians(np.arange(0.0, 90.0 + 0.125, 0.25))
_INNER_V0 = 0.1 * math.pi  # 0.05 wavelengths, in units of k rho
_CAL_KH = 0.5 * math.pi
_CAL_KA = 4.0 * math.pi


def _panel_nodes(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    # One 16-point panel per unit of the integration variable resolves the
    # exp(-j v) oscillation far below the 1e-6 check tolerance.
    panels = max(4, math.ceil(b - a))
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    w = (half[:, None] * _WEIGHTS[None, :]).ravel()
    return x, w


def _post_term(theta: np.ndarray, kh: float, model: str) -> np.ndarray:
    u, w = _panel_nodes(0.0, kh)
    current = np.sin(kh - u) if model == "sinusoidal" else 1.0 - u / kh
    phase = np.exp(-1j * np.outer(np.cos(theta), u))
    return (0.25j / math.pi) * np.sin(theta) * (phase * (current * w)).sum(axis=1)


def _ground_term(theta: np.ndarray, ka: float) -> np.ndarray:
    v, w = _panel_nodes(_INNER_V0, ka)
    j1 = special.j1(np.outer(np.sin(theta), v))
    return 0.5 * np.cos(theta) * (j1 * (np.exp(-1j * v) * w)).sum(axis=1)


class Oracle:
    """Calibrated once; normalizes each geometry over the 0.25 degree grid."""

    def __init__(self):
        p_post = np.abs(_post_term(_NORM_GRID, _CAL_KH, "sinusoidal")).max()
        p_ground = np.abs(_ground_term(_NORM_GRID, _CAL_KA)).max()
        self.j0 = -p_post / p_ground

    def _field(self, theta: np.ndarray, kh: float, ka: float, model: str) -> np.ndarray:
        return _post_term(theta, kh, model) + self.j0 * _ground_term(theta, ka)

    def pattern(self, thetas, kh: float, ka: float, model: str) -> np.ndarray:
        values = self._field(_NORM_GRID, kh, ka, model)
        ref = values[int(np.argmax(np.abs(values)))]  # first index wins ties
        return self._field(np.asarray(thetas, dtype=float), kh, ka, model) / ref
