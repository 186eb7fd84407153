"""Phased line array of the slot element: steer the beam, then
report pointing error and scan loss per command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrayfactor import ArrayLayout, SteeringCommand, steered_array_factor
from .radiators import FrequencyContext
from .synthesis import AntennaGeometry, PatternCut, _amplitude_db, _slot_term, metrics_grid, pattern_metrics

SCAN_COMMANDS_DEG = (-45.0, 0.0, 45.0)
SCAN_ELEMENT_COUNT = 4


@dataclass(frozen=True)
class ScanReport:
    """Pointing and loss summary for one steering command.

    scan_loss_dB is the ideal boresight peak, 1, over this command's peak,
    in dB. It is positive when the element rolls off toward the commanded
    angle; an element whose own peak sits near the command can make it
    negative (scan gain), which is reported as-is.
    """

    commanded_deg: float
    achieved_deg: float
    scan_loss_dB: float
    sll_dB: float

    @property
    def pointing_error_deg(self) -> float:
        return abs(self.achieved_deg - self.commanded_deg)


@dataclass(frozen=True)
class ScanStudyResult:
    """One cut and one report per steering command, in SCAN_COMMANDS_DEG order."""

    cuts: tuple
    reports: tuple


def default_scan_study(
    geometry: AntennaGeometry,
    ctx: FrequencyContext,
    theta_grid: np.ndarray | None = None,
) -> ScanStudyResult:
    """Four-element line scan at half-wave pitch over SCAN_COMMANDS_DEG.

    The scan sweeps the plane orthogonal to the element's tilt plane, where
    the element presents its even broadside component, the fixed slot term;
    only that choice keeps the commanded angles inside the element's rolloff
    on both sides. The pitch is half the context wavelength; the result
    depends only on the frequency and the grid, so `geometry` changes nothing.

    Each cut is the element times the steered array-factor magnitude. The
    element is 1 at 0 degrees and the factor is 1 at its command, so the
    boresight beam peaks at 1, and each cut's sampled peak gives its scan
    loss against that: a cut peaking at 0.8 means 1.9 dB.
    """
    grid = metrics_grid(theta_grid)
    element = _slot_term(grid)
    lam = ctx.wavelength_lambda0
    scan_layout = ArrayLayout(1, SCAN_ELEMENT_COUNT, spacing_dy=0.5 * lam)
    cuts, reports = [], []
    for deg in SCAN_COMMANDS_DEG:
        factor = steered_array_factor(scan_layout, SteeringCommand(math.radians(deg)), grid, lam)
        cuts.append(PatternCut(grid, element * np.abs(factor)))
        m = pattern_metrics(cuts[-1])
        reports.append(ScanReport(deg, m.tilt_deg, _amplitude_db(1.0 / m.peak_linear), m.sll_dB))
    return ScanStudyResult(tuple(cuts), tuple(reports))
