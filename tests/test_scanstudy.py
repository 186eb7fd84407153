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
        # the boresight peak reuses the boresight command's product
        commands = []

        def counted(layout, cmd, theta, lam):
            commands.append(math.degrees(cmd.steer_theta0))
            return steered_array_factor(layout, cmd, theta, lam)

        monkeypatch.setattr(scanstudy, "steered_array_factor", counted)
        default_scan_study(default_geometry, ctx324)
        assert commands == [-45.0, 0.0, 45.0]


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
