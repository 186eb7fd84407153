"""Phased line array of the synthesized element: steer the beam, then
report pointing error and scan loss per command.

Scanned cuts are renormalized to the boresight-scan peak, not their own,
so the peak of each cut directly encodes its scan loss.
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
    element: PatternCut
    cuts: tuple
    reports: tuple


def _scanned_product(element: PatternCut, layout: ArrayLayout, cmd: SteeringCommand, ctx: FrequencyContext) -> np.ndarray:
    return element.values * np.abs(steered_array_factor(layout, cmd, element.theta_grid, ctx.wavelength_lambda0))


def scan_pattern(
    element: PatternCut,
    layout: ArrayLayout,
    cmd: SteeringCommand,
    ctx: FrequencyContext,
) -> PatternCut:
    """Element pattern times the steered array-factor magnitude.

    The product is divided by the peak the same array reaches at boresight
    command, so a scanned cut peaking at 0.8 means 1.9 dB of scan loss; the
    result does not depend on the element's scale. A single-element layout
    returns the element cut unchanged.
    """
    if layout.count_Nx * layout.count_Ny == 1:
        return element
    peak0 = float(np.abs(_scanned_product(element, layout, SteeringCommand(0.0), ctx)).max())
    return PatternCut(element.theta_grid, _scanned_product(element, layout, cmd, ctx) / peak0)


def scan_report(cuts, commands) -> tuple:
    """One ScanReport per (cut, command) pair.

    Cuts are expected on the scan_pattern convention (shared boresight
    normalization), so scan loss compares each cut's peak_linear with the
    boresight cut's. The boresight command must be present; its row
    anchors scan loss at exactly 0.
    """
    cuts = list(cuts)
    commands = list(commands)
    if len(cuts) != len(commands):
        raise ValueError("scan_report: one cut per command required")
    if not cuts:
        raise ValueError("scan_report: empty study")
    bore_idx = next((i for i, cmd in enumerate(commands) if cmd.steer_theta0 == 0.0), None)
    if bore_idx is None:
        raise ValueError("scan_report: boresight command (0 degrees) missing")
    metrics = [pattern_metrics(cut) for cut in cuts]
    peak0 = metrics[bore_idx].peak_linear
    reports = []
    for m, cmd in zip(metrics, commands):
        loss = 20.0 * math.log10(peak0 / m.peak_linear)
        reports.append(ScanReport(math.degrees(cmd.steer_theta0), m.tilt_deg, loss, m.sll_dB))
    return tuple(reports)


def default_scan_study(
    geometry: AntennaGeometry,
    ctx: FrequencyContext,
    commands_deg=SCAN_COMMANDS_DEG,
    theta_grid: np.ndarray | None = None,
) -> ScanStudyResult:
    """Four-element line scan at half-wave pitch over the given commands.

    The scan sweeps the plane orthogonal to the element's tilt plane, where
    the element presents its even broadside component; only that choice
    keeps the commanded angles inside the element's rolloff on both sides.
    The scan layout pitch is half the context wavelength.
    """
    grid = default_theta_grid() if theta_grid is None else np.asarray(theta_grid, dtype=float)
    element = synthesize_pattern(
        ExcitationWeights(1.0, 0.0), grid, geometry.slot, geometry.monopole, geometry.layout, ctx
    )
    pitch = 0.5 * ctx.wavelength_lambda0
    scan_layout = ArrayLayout(1, SCAN_ELEMENT_COUNT, geometry.layout.spacing_dx, pitch)
    commands = [SteeringCommand(math.radians(float(c))) for c in commands_deg]
    cuts = tuple(scan_pattern(element, scan_layout, cmd, ctx) for cmd in commands)
    return ScanStudyResult(element, cuts, scan_report(cuts, commands))
