"""Phased line array of the synthesized element: steer the beam, then
report pointing error and scan loss per command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrayfactor import ArrayLayout, SteeringCommand, steered_array_factor
from .radiators import FrequencyContext
from .synthesis import (
    AntennaGeometry,
    ExcitationWeights,
    PatternCut,
    default_theta_grid,
    pattern_metrics,
    synthesize_pattern,
)

SCAN_COMMANDS_DEG = (-45.0, 0.0, 45.0)
SCAN_ELEMENT_COUNT = 4


@dataclass(frozen=True)
class ScanReport:
    """Pointing and loss summary for one steering command.

    scan_loss_dB is the boresight-scan peak minus this command's peak, in
    dB. It is positive when the element rolls off toward the commanded
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
    cuts: tuple
    reports: tuple


def default_scan_study(
    geometry: AntennaGeometry,
    ctx: FrequencyContext,
    theta_grid: np.ndarray | None = None,
) -> ScanStudyResult:
    """Four-element line scan at half-wave pitch over SCAN_COMMANDS_DEG.

    The scan sweeps the plane orthogonal to the element's tilt plane, where
    the element presents its even broadside component; only that choice
    keeps the commanded angles inside the element's rolloff on both sides.
    The scan layout pitch is half the context wavelength.

    Each cut is the element times the steered array-factor magnitude,
    divided by the peak of the boresight cut, so the peak of each cut
    encodes its scan loss: a cut peaking at 0.8 means 1.9 dB.
    """
    grid = default_theta_grid() if theta_grid is None else np.asarray(theta_grid, dtype=float)
    element = synthesize_pattern(
        ExcitationWeights(1.0, 0.0), grid, geometry.slot, geometry.monopole, geometry.layout, ctx
    )
    lam = ctx.wavelength_lambda0
    scan_layout = ArrayLayout(1, SCAN_ELEMENT_COUNT, geometry.layout.spacing_dx, 0.5 * lam)
    commands = [SteeringCommand(math.radians(c)) for c in SCAN_COMMANDS_DEG]
    products = [element.values * np.abs(steered_array_factor(scan_layout, cmd, element.theta_grid, lam))
                for cmd in commands]
    bore = SCAN_COMMANDS_DEG.index(0.0)
    peak0 = float(np.abs(products[bore]).max())
    cuts = tuple(PatternCut(element.theta_grid, product / peak0) for product in products)
    metrics = [pattern_metrics(cut) for cut in cuts]
    reports = []
    for cmd, m in zip(commands, metrics):
        loss = 20.0 * math.log10(metrics[bore].peak_linear / m.peak_linear)
        reports.append(ScanReport(math.degrees(cmd.steer_theta0), m.tilt_deg, loss, m.sll_dB))
    return ScanStudyResult(cuts, tuple(reports))
