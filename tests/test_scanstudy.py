"""Scanned line array built on the broadside element component."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltbeam import (
    ExcitationWeights,
    PatternCut,
    ScanReport,
    default_scan_study,
    default_theta_grid,
    pattern_metrics,
    render_polar_svg,
    scanstudy,
    steered_array_factor,
    synthesize_pattern,
)

FROZEN_EDGE_ERROR_DEG = 3.62339468304242
FROZEN_EDGE_LOSS_DB = 0.7999397662745915


@pytest.fixture(scope="module")
def study(default_geometry, ctx324):
    return default_scan_study(default_geometry, ctx324)


@pytest.fixture(scope="module")
def element(default_geometry, ctx324):
    g = default_geometry
    return synthesize_pattern(ExcitationWeights(1.0, 0.0), default_theta_grid(), g.slot, g.monopole, g.layout, ctx324)


class TestDefaultStudy:
    def test_shape(self, study):
        assert [f.name for f in fields(study)] == ["cuts", "reports"]
        assert len(study.cuts) == 3
        assert len(study.reports) == 3
        assert [r.commanded_deg for r in study.reports] == [-45.0, 0.0, 45.0]

    def test_element_is_broadside(self, element):
        m = pattern_metrics(element)
        assert m.tilt_deg == 0.0

    def test_boresight_anchor(self, study):
        bore = study.reports[1]
        assert bore.scan_loss_dB == 0.0
        assert abs(bore.achieved_deg) < 1e-6
        assert bore.pointing_error_deg < 1e-6

    def test_boresight_cut_keeps_unit_peak(self, study):
        cut = study.cuts[1]
        assert float(np.abs(cut.values).max()) == 1.0

    def test_edge_command_pointing_error(self, study):
        for rep in (study.reports[0], study.reports[2]):
            assert rep.pointing_error_deg == pytest.approx(FROZEN_EDGE_ERROR_DEG, abs=1e-6)
            assert rep.pointing_error_deg <= 8.0

    def test_edge_command_scan_loss(self, study):
        for rep in (study.reports[0], study.reports[2]):
            assert rep.scan_loss_dB == pytest.approx(FROZEN_EDGE_LOSS_DB, abs=1e-6)
            assert rep.scan_loss_dB > 0.0

    def test_mirror_symmetry(self, study):
        left, right = study.reports[0], study.reports[2]
        assert left.scan_loss_dB == pytest.approx(right.scan_loss_dB, abs=1e-12)
        assert left.achieved_deg == pytest.approx(-right.achieved_deg, abs=1e-9)

    def test_one_array_factor_per_command(self, default_geometry, ctx324, monkeypatch):
        # each command's factor is computed once
        commands = []

        def counted(layout, cmd, theta, lam):
            commands.append(math.degrees(cmd.steer_theta0))
            return steered_array_factor(layout, cmd, theta, lam)

        monkeypatch.setattr(scanstudy, "steered_array_factor", counted)
        default_scan_study(default_geometry, ctx324)
        assert commands == [-45.0, 0.0, 45.0]

    def test_one_point_grid_measures_against_the_unit_boresight_peak(self, default_geometry, ctx324):
        # At 30 degrees the boresight factor is a rounding residue of 1 + j - 1 - j;
        # a loss taken against that residue once read about -300 dB at +-45.
        theta = math.radians(30.0)
        left, bore, right = default_scan_study(default_geometry, ctx324, np.array([theta])).reports
        assert left.scan_loss_dB > 0.0 and right.scan_loss_dB > 0.0
        assert bore.scan_loss_dB > 300.0
        # element sin((pi/2) cos theta) times |sin(N psi / 2) / (N sin(psi / 2))|, N = 4
        psi = math.pi * (math.sin(theta) - math.sin(math.radians(45.0)))
        peak = math.sin(0.5 * math.pi * math.cos(theta)) * abs(math.sin(2.0 * psi) / (4.0 * math.sin(0.5 * psi)))
        assert right.scan_loss_dB == pytest.approx(-20.0 * math.log10(peak), abs=1e-9)

    def test_coarse_grid_fails_before_the_element_is_synthesized(self, default_geometry, ctx324, monkeypatch):
        def no_element(*args):
            raise AssertionError("element synthesized")

        monkeypatch.setattr(scanstudy, "_slot_term", no_element)
        with pytest.raises(ValueError, match=r"^pattern_metrics: grid spacing must be <= 0\.5 degrees$"):
            default_scan_study(default_geometry, ctx324, np.radians(np.arange(-90.0, 90.5, 1.0)))

    def test_rejects_empty_grid(self, default_geometry, ctx324):
        with pytest.raises(ValueError, match=r"^PatternCut: theta_grid must be a non-empty 1-d array$"):
            default_scan_study(default_geometry, ctx324, np.array([]))


class TestScaleFreeCuts:
    """Metrics and plots measure a cut against its own peak."""

    @pytest.fixture(scope="class")
    def cuts(self, study, element, default_geometry, ctx324):
        g = default_geometry
        tilted = synthesize_pattern(
            ExcitationWeights(1.0, 0.3), default_theta_grid(), g.slot, g.monopole, g.layout, ctx324
        )
        return (tilted, element, study.cuts[0])  # the last peaks below 1

    @settings(max_examples=40, deadline=None)
    @given(exponent=st.integers(-60, 60))
    def test_power_of_two_scale_changes_only_the_peak(self, cuts, exponent):
        # 2^k is exact in every product and quotient, so each result must
        # match bit for bit, save peak_linear, which scales by 2^k.
        scale = 2.0 ** exponent
        for cut in cuts:
            scaled = PatternCut(cut.theta_grid, scale * cut.values)
            m, ms = pattern_metrics(cut), pattern_metrics(scaled)
            assert ms.peak_linear == scale * m.peak_linear
            # repr round-trips floats, nan included, so equal reprs mean equal bits
            assert repr(replace(ms, peak_linear=m.peak_linear)) == repr(m)
            assert render_polar_svg(scaled, ms) == render_polar_svg(cut, m)


class TestScanReport:
    def test_negative_loss_is_representable(self):
        # an element peaking off boresight can produce scan gain
        rep = ScanReport(30.0, 29.0, -0.3, -12.0)
        assert rep.scan_loss_dB == -0.3
        assert rep.pointing_error_deg == 1.0
