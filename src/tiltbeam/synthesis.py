"""Superposition of the slot and post-array terms, pattern metrics, the
excitation-ratio study, and beam stability over frequency.

The slot radiates a broadside lobe (even in theta); the post array radiates
an odd-symmetric lobe with a null at broadside. Adding the two with real
weights pulls the combined peak to an intermediate tilt angle, and the ratio
of the weights trades sidelobe level against a nearly constant tilt.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .arrayfactor import ArrayLayout, array_factor
from .radiators import NORMALIZATION_STEP_DEG, FrequencyContext, MonopoleSpec, SlotSpec, monopole_pattern

BAND_CENTER_HZ = 32.4e9
BAND_MIN_HZ = 20.0e9
BAND_MAX_HZ = 45.0e9

# Field-amplitude level of the -3 dB beamwidth crossings.
_HALF_POWER_LEVEL = 10.0 ** (-3.0 / 20.0)


@dataclass(frozen=True)
class ExcitationWeights:
    """Real excitation amplitudes of the slot (s1) and post array (s2).

    Both sources are in phase, the assumption the tilt analysis rests on.
    """

    s1_slot: float
    s2_monopole: float

    def __post_init__(self):
        if not (0 <= self.s1_slot < math.inf and 0 <= self.s2_monopole < math.inf):
            raise ValueError("ExcitationWeights: amplitudes must be finite and >= 0")
        if self.s1_slot == 0 and self.s2_monopole == 0:
            raise ValueError("ExcitationWeights: s1 and s2 must not both be zero")


@dataclass(frozen=True, eq=False)
class PatternCut:
    """Sampled complex far-field over a polar-angle grid.

    theta_grid is strictly increasing, in radians, within [-pi/2, pi/2].
    values may have any finite scale, but not all zero: metrics and plots
    measure each cut against its own peak magnitude.
    """

    theta_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.theta_grid, dtype=float)
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "theta_grid", grid)
        object.__setattr__(self, "values", vals)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("PatternCut: theta_grid must be a non-empty 1-d array")
        if vals.shape != grid.shape:
            raise ValueError("PatternCut: values and theta_grid must have the same length")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("PatternCut: theta_grid must be strictly increasing")
        if grid[0] < -0.5 * math.pi - 1e-9 or grid[-1] > 0.5 * math.pi + 1e-9:
            raise ValueError("PatternCut: theta_grid must lie within [-pi/2, pi/2]")
        peak = np.abs(vals).max()
        if not peak > 0:  # also refuses a NaN peak
            raise ValueError("PatternCut: values must not all be zero")
        if not peak < math.inf:
            raise ValueError("PatternCut: values must be finite")


@dataclass(frozen=True)
class PatternMetrics:
    """Tilt, sidelobe level, -3 dB beamwidth, and peak of a pattern cut."""

    tilt_deg: float
    sll_dB: float
    beamwidth3dB_deg: float
    peak_linear: float


@dataclass(frozen=True)
class RatioSweepResult:
    """Metrics per excitation ratio, rows[i] for ratios[i], and the sidelobe-minimizing ratio."""

    ratios: tuple[float, ...]
    rows: tuple[PatternMetrics, ...]

    @property
    def best_ratio(self) -> float:
        return min((row.sll_dB, ratio) for ratio, row in zip(self.ratios, self.rows))[1]


@dataclass(frozen=True)
class StabilityResult:
    """Metrics per frequency, rows[i] for frequencies_hz[i], and the band-center tilt."""

    frequencies_hz: tuple[float, ...]
    rows: tuple[PatternMetrics, ...]
    reference_tilt_deg: float

    @property
    def max_tilt_deviation_deg(self) -> float:
        return max(abs(row.tilt_deg - self.reference_tilt_deg) for row in self.rows)


def stepped_grid(start: float, stop: float, step: float) -> np.ndarray:
    """start, start + step, ... through stop; a last point rounded past stop is stop.

    The bound lies past stop even when 1e-9 * step is below stop's float
    spacing, so for a step of at least that spacing the grid holds start.
    The bound is capped at the largest float, so a stop just below it
    still gives a grid.
    """
    bound = min(max(stop + 1e-9 * step, np.nextafter(stop, math.inf)), sys.float_info.max)
    return np.minimum(np.arange(start, bound, step), stop)


def default_theta_grid() -> np.ndarray:
    """Symmetric polar grid over [-90, 90] degrees, in radians.

    The step is the normalization grid's, so monopole_pattern reads every
    |theta| of the grid from its per-geometry cache.
    """
    return np.radians(stepped_grid(-90.0, 90.0, NORMALIZATION_STEP_DEG))


def _slot_term(theta_grid: np.ndarray) -> np.ndarray:
    # Broadside-remapped slot curve sin((pi/2) cos theta): even in theta,
    # peak exactly at theta = 0, locally quartic-flat there, which is why the
    # combined tilt barely moves as the weights change.
    return np.sin(0.5 * np.pi * np.cos(theta_grid))


def _monopole_term(
    theta_grid: np.ndarray,
    mono: MonopoleSpec,
    layout: ArrayLayout,
    ctx: FrequencyContext,
) -> np.ndarray:
    # Post-array term on the full grid: the normalized post value on |theta|
    # extended as an odd function (both of its field integrals are odd in
    # theta), times the in-plane array factor.
    post = monopole_pattern(np.abs(theta_grid), mono, ctx)
    return np.sign(theta_grid) * post * array_factor(layout, theta_grid, 0.0, ctx.wavelength_lambda0)


def synthesize_pattern(
    weights: ExcitationWeights,
    theta_grid: np.ndarray,
    slot: SlotSpec,
    mono: MonopoleSpec,
    layout: ArrayLayout,
    ctx: FrequencyContext,
) -> PatternCut:
    """Weighted superposition of the slot and post-array terms on a grid.

    Per sample the un-normalized field is s1 * slot_term + s2 * post_term,
    each weight divided by the larger first (so a subnormal one acts as 1);
    the returned cut is normalized to unit peak magnitude. Both sources are
    treated as sharing one phase center, so the weights add coherently.
    The slot term is the fixed half-wave form, so `slot` changes nothing.
    """
    grid = np.asarray(theta_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("synthesize_pattern: theta_grid must be non-empty")
    scale = max(weights.s1_slot, weights.s2_monopole)
    vals = weights.s1_slot / scale * _slot_term(grid)
    if weights.s2_monopole != 0.0:
        vals = vals + weights.s2_monopole / scale * _monopole_term(grid, mono, layout, ctx)
    peak = np.abs(vals).max()
    if peak == 0.0:
        raise ValueError("synthesize_pattern: field is zero everywhere on the grid")
    if peak < sys.float_info.min:  # 1 / peak would overflow; a power-of-two scale is exact
        vals = vals * 2.0 ** 600
        peak = np.abs(vals).max()
    return PatternCut(grid, vals / peak)


def require_metrics_spacing(theta_grid) -> None:
    """Raise pattern_metrics' coarse-grid error; studies call it before any field evaluation."""
    grid_deg = np.degrees(np.asarray(theta_grid, dtype=float))
    if grid_deg.size > 1 and np.max(np.diff(grid_deg)) > 0.5 + 1e-9:
        raise ValueError("pattern_metrics: grid spacing must be <= 0.5 degrees")


def pattern_metrics(cut: PatternCut) -> PatternMetrics:
    """Tilt, sidelobe level, and -3 dB beamwidth of a cut, relative to its own peak.

    Tilt refines the grid argmax (first index on ties) with a three-point
    parabola, except at a cut boundary. The main lobe spans the first local
    minima flanking the peak, plateaus included; the strongest local maximum
    outside that span sets the sidelobe level, with boundary samples counting
    as lobe candidates. With no secondary lobe, or one whose ratio to the
    peak underflows to 0, the sidelobe level is -inf. Each -3 dB crossing
    interpolates linearly between the nearest sample below the level and its
    neighbour toward the peak; a flank that never drops below it leaves the
    width nan, as in a single-sample cut. Scaling the cut by a power of two
    scales peak_linear alone.
    """
    grid_deg = np.degrees(cut.theta_grid)
    mags = np.abs(cut.values)
    n = mags.size
    require_metrics_spacing(cut.theta_grid)
    i = int(np.argmax(mags))
    peak = float(mags[i])

    tilt = float(grid_deg[i])
    if 0 < i < n - 1:
        # 2 * peak must not overflow; halving the three samples keeps the vertex
        prev, top, nxt = mags[i - 1:i + 2] * (0.5 if peak > 0.5 * sys.float_info.max else 1.0)
        den = prev - 2.0 * top + nxt
        if den != 0.0:
            shift = min(0.5, max(-0.5, 0.5 * (prev - nxt) / den))
            tilt = float(grid_deg[i] + shift * 0.5 * (grid_deg[i + 1] - grid_deg[i - 1]))

    # Main lobe: from just past the last fall before the peak to the first
    # rise after it, or to the cut boundary.
    falls = np.flatnonzero(mags[:-1] > mags[1:])
    rises = np.flatnonzero(mags[:-1] < mags[1:])
    before, after = np.searchsorted(falls, i), np.searchsorted(rises, i)
    left = falls[before - 1] + 1 if before else 0
    right = rises[after] if after < rises.size else n - 1

    # Local maxima outside the main lobe, boundary samples included.
    padded = np.concatenate(([-math.inf], mags, [-math.inf]))
    lobes = (mags >= padded[:-2]) & (mags >= padded[2:])
    lobes[left:right + 1] = False
    second = float(mags[lobes].max()) if lobes.any() else 0.0
    sll = -math.inf if second / peak == 0.0 else 20.0 * math.log10(second / peak)

    level = _HALF_POWER_LEVEL * peak
    below = np.flatnonzero(mags < level)
    split = np.searchsorted(below, i)
    if split == 0 or split == below.size:
        return PatternMetrics(tilt, sll, math.nan, peak)
    # k: the nearest sample below the level on each side; j: its neighbour
    # toward the peak.
    k = below[[split - 1, split]]
    j = k + [1, -1]
    t = (mags[j] - level) / (mags[j] - mags[k])
    lo, hi = grid_deg[j] + t * (grid_deg[k] - grid_deg[j])
    return PatternMetrics(tilt, sll, float(hi - lo), peak)


@dataclass(frozen=True)
class AntennaGeometry:
    """Element geometry bundle used by the sweep and scan studies."""

    slot: SlotSpec = SlotSpec()
    monopole: MonopoleSpec = MonopoleSpec()
    layout: ArrayLayout = ArrayLayout()


def ratio_sweep(
    ratios,
    geometry: AntennaGeometry,
    ctx: FrequencyContext,
    theta_grid: np.ndarray | None = None,
) -> RatioSweepResult:
    """Metrics as a function of the excitation ratio s2/s1 with s1 = 1.

    The slot and post-array terms are evaluated once on the grid and reused
    for every ratio. best_ratio is the sidelobe-minimizing entry; the
    smallest ratio wins ties, including ties at -inf.
    """
    ratios = tuple(float(r) for r in ratios)
    if not ratios:
        raise ValueError("ratio_sweep: ratios must be non-empty")
    if any(not 0 < r < math.inf for r in ratios):
        raise ValueError("ratio_sweep: ratios must be finite and positive")
    grid = default_theta_grid() if theta_grid is None else np.asarray(theta_grid, dtype=float)
    require_metrics_spacing(grid)
    slot_vals = _slot_term(grid)
    mono_vals = _monopole_term(grid, geometry.monopole, geometry.layout, ctx)
    rows = tuple(pattern_metrics(PatternCut(grid, slot_vals + r * mono_vals)) for r in ratios)
    return RatioSweepResult(ratios, rows)


def beam_stability(
    freqs,
    geometry: AntennaGeometry,
    weights: ExcitationWeights,
    theta_grid: np.ndarray | None = None,
) -> StabilityResult:
    """Pattern metrics across frequency at fixed excitation weights.

    Frequencies must lie within the 20 to 45 GHz band. Rows keep the input
    order. The summary is the largest absolute tilt deviation from the tilt
    at the 32.4 GHz band center, which is computed on the side when absent
    from the list.
    """
    freqs = tuple(float(f) for f in freqs)
    if not freqs:
        raise ValueError("beam_stability: freqs must be non-empty")
    for f in freqs:
        if not BAND_MIN_HZ <= f <= BAND_MAX_HZ:
            raise ValueError("beam_stability: frequency outside the 20 to 45 GHz band")
    grid = default_theta_grid() if theta_grid is None else np.asarray(theta_grid, dtype=float)
    require_metrics_spacing(grid)

    # Each distinct frequency, the band center included, is evaluated once.
    metrics = {
        f: pattern_metrics(synthesize_pattern(weights, grid, geometry.slot, geometry.monopole, geometry.layout,
                                              FrequencyContext.from_frequency(f)))
        for f in dict.fromkeys(freqs + (BAND_CENTER_HZ,))
    }
    return StabilityResult(freqs, tuple(metrics[f] for f in freqs), metrics[BAND_CENTER_HZ].tilt_deg)
