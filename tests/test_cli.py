"""End-to-end command-line behavior: artifacts, exit codes, determinism."""

import errno
import fcntl
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

import tiltbeam.cli as cli
from tiltbeam import radiators, scanstudy, specfun, synthesis
from tiltbeam.config import parse_config
from tiltbeam.specfun import ConvergenceError

SRC = str(Path(__file__).resolve().parents[1] / "src")


def write_config(tmp_path, data, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data), encoding="utf-8")
    return p


def run(args):
    return cli.main([str(a) for a in args])


SVG = "{http://www.w3.org/2000/svg}"
# The count of each element path in a polar plot: the background, 4 rings with their labels,
# 7 spokes with theirs, the trace, the dashed tilt marker and 3 annotation lines.
SVG_ELEMENTS = {"rect": 1, "path": 4, "text": 14, "line": 8, "line[@stroke-dasharray]": 1, "polyline": 1, "circle": 0}


def svg_element_counts(svg):
    root = ElementTree.fromstring(svg)
    assert root.tag == f"{SVG}svg"
    return {path: len(root.findall(SVG + path)) for path in SVG_ELEMENTS}


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# Accepted configs that once crashed with a traceback or warned before their error line.
SKIN_DEPTH_UNDERFLOW = {"geometry": {"strip": {"conductivity_s_per_m": 9.26e-05}},
                        "frequency_grid": {"start_ghz": 5e-324}}
WIDTH_TO_HEIGHT_OVERFLOW = {"geometry": {"strip": {"substrate_thickness_mm": 1e-311}}}
SUBNORMAL_WEIGHT = {"weights": {"s1": 0, "s2": 5e-324}}
IMPEDANCE_WIDTH_UNDERFLOW = {"substrates": {"X": {"eps_r": 1e300, "tan_delta": 0.02, "thickness_mm": 1}},
                             "geometry": {"strip": {"substrate": "X", "width_mm": 1e-300,
                                                    "substrate_thickness_mm": 1e-300}}}

# The post term alone on the broadside-only grid, where it is 0: commands that synthesize it refuse.
POST_ONLY_AT_BROADSIDE = {"weights": {"s1": 0, "s2": 1}, "theta_grid": {"start_deg": 0, "stop_deg": 0}}
LARGEST = sys.float_info.max
LARGEST_STOP = {"frequency_grid": {"stop_ghz": LARGEST, "step_ghz": LARGEST}}
LARGEST_RATIO = {"weights": {"ratios": [LARGEST, 0.5]}}
# With the post term 0 at broadside, the field there is the slot term over the largest weight: a subnormal.
LARGEST_WEIGHT_AT_BROADSIDE = {"theta_grid": {"start_deg": 0, "stop_deg": 0}, "weights": {"s2": LARGEST}}


class _CutShort:
    """A file whose write stores half its text, then raises `exc`."""

    def __init__(self, fh, exc):
        self.fh, self.exc = fh, exc

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise self.exc


@pytest.fixture()
def default_config(tmp_path):
    return write_config(tmp_path, {})


class TestPatternCommand:
    def test_writes_expected_table(self, tmp_path, default_config):
        out = tmp_path / "out"
        assert run(["pattern", "--config", default_config, "--out", out]) == 0
        header, rows = read_csv(out / "pattern.csv")
        assert header == ["theta_deg", "re", "im", "mag_db"]
        assert len(rows) == 721
        assert rows[0][0] == "-90"
        assert rows[-1][0] == "90"
        mags = [float(r[3]) for r in rows]
        # magnitude normalization leaves the peak within an ulp of 0 dB
        assert abs(max(mags)) < 1e-9
        tilt_at_peak = float(rows[mags.index(max(mags))][0])
        assert 25.0 < tilt_at_peak < 40.0

    def test_peak_row_reads_exactly_0_db(self, tmp_path, default_config):
        # in dB of the cut's own peak: the unit peak's |v| may be 1 +- 1 ulp
        out = tmp_path / "out"
        assert run(["pattern", "--config", default_config, "--out", out]) == 0
        _, rows = read_csv(out / "pattern.csv")
        mags = [float(r[3]) for r in rows]
        assert max(mags) == 0.0
        assert not [m for m in mags if m > 0.0]

    def test_no_lock_left_behind(self, tmp_path, default_config):
        out = tmp_path / "out"
        run(["pattern", "--config", default_config, "--out", out])
        assert not (out / ".tiltbeam.lock").exists()

    def test_byte_identical_reruns(self, tmp_path, default_config):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run(["pattern", "--config", default_config, "--out", out_a])
        run(["pattern", "--config", default_config, "--out", out_b])
        first = (out_a / "pattern.csv").read_bytes()
        assert first == (out_b / "pattern.csv").read_bytes()
        run(["pattern", "--config", default_config, "--out", out_a])
        assert (out_a / "pattern.csv").read_bytes() == first

    def test_unix_line_endings(self, tmp_path, default_config):
        out = tmp_path / "out"
        run(["pattern", "--config", default_config, "--out", out])
        assert b"\r" not in (out / "pattern.csv").read_bytes()

    def test_svg_artifact(self, tmp_path, default_config):
        out = tmp_path / "out"
        assert run(["pattern", "--config", default_config, "--out", out, "--svg"]) == 0
        svg = (out / "pattern.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg")
        assert 'stroke="#2040c0"' in svg  # tilt marker
        assert "tilt " in svg and "SLL " in svg
        assert svg_element_counts(svg) == SVG_ELEMENTS

    def test_single_point_grid_draws_marker(self, tmp_path):
        cfg = write_config(tmp_path, {
            "theta_grid": {"start_deg": 30.0, "stop_deg": 30.0, "step_deg": 0.25},
        })
        out = tmp_path / "out"
        assert run(["pattern", "--config", cfg, "--out", out, "--svg"]) == 0
        header, rows = read_csv(out / "pattern.csv")
        assert len(rows) == 1
        assert float(rows[0][3]) == 0.0
        svg = (out / "pattern.svg").read_text(encoding="utf-8")
        assert svg_element_counts(svg) == {**SVG_ELEMENTS, "polyline": 0, "circle": 1}
        assert "n/a" in svg  # no beamwidth from one sample

    def test_output_dir_from_config(self, tmp_path):
        target = tmp_path / "cfg_out"
        cfg = write_config(tmp_path, {"output_dir": str(target)})
        assert run(["pattern", "--config", cfg]) == 0
        assert (target / "pattern.csv").exists()

    def test_large_ground_disc(self, tmp_path):
        # ka ~ 203.6 at 32.4 GHz, once beyond the quadrature budget
        cfg = write_config(tmp_path, {"geometry": {"monopole": {"ground_radius_mm": 300.0}}})
        out = tmp_path / "out"
        assert run(["pattern", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(out / "pattern.csv")
        assert len(rows) == 721
        assert abs(max(float(r[3]) for r in rows)) < 1e-9


class TestResonanceCommand:
    def test_single_row_with_both_predictions(self, tmp_path, default_config):
        out = tmp_path / "out"
        assert run(["resonance", "--config", default_config, "--out", out]) == 0
        header, rows = read_csv(out / "resonance.csv")
        assert header == ["length_mm", "eps_r", "f_raw_ghz", "eps_eff", "f_eff_ghz"]
        assert len(rows) == 1
        row = [float(c) for c in rows[0]]
        assert row[0] == 1.98
        assert row[1] == 4.4
        assert row[2] == pytest.approx(36.116007168393644, rel=1e-8)
        assert row[3] == pytest.approx(3.447900286608902, rel=1e-8)
        assert row[4] == pytest.approx(40.79892499073314, rel=1e-8)


class TestRatioSweepCommand:
    def test_rows_and_best_summary(self, tmp_path, default_config):
        out = tmp_path / "out"
        assert run(["ratio-sweep", "--config", default_config, "--out", out]) == 0
        header, rows = read_csv(out / "ratio_sweep.csv")
        assert header == ["kind", "ratio", "tilt_deg", "sll_db"]
        assert len(rows) == 11
        assert [r[0] for r in rows[:10]] == ["row"] * 10
        assert rows[10][0] == "best"
        assert float(rows[10][1]) == 0.1
        tilts = [float(r[2]) for r in rows[:10]]
        assert all(tilts[i] < tilts[i + 1] for i in range(9))


class TestStabilityCommand:
    def test_rows_and_summary(self, tmp_path):
        cfg = write_config(tmp_path, {
            "frequency_grid": {"start_ghz": 26.0, "stop_ghz": 41.0, "step_ghz": 5.0},
        })
        out = tmp_path / "out"
        assert run(["stability", "--config", cfg, "--out", out]) == 0
        header, rows = read_csv(out / "stability.csv")
        assert header == ["kind", "f_ghz", "tilt_deg", "sll_db", "beamwidth3db_deg",
                          "tilt_deviation_deg"]
        assert len(rows) == 5
        assert [r[0] for r in rows] == ["row"] * 4 + ["summary"]
        assert [float(r[1]) for r in rows[:4]] == [26.0, 31.0, 36.0, 41.0]
        summary = rows[4]
        assert float(summary[1]) == 32.4
        assert summary[3] == "nan" and summary[4] == "nan"
        assert float(summary[5]) < 10.0
        for r in rows[:4]:
            assert float(r[5]) <= float(summary[5]) + 1e-6


class TestScanCommand:
    def test_report_table(self, tmp_path, default_config):
        out = tmp_path / "out"
        assert run(["scan", "--config", default_config, "--out", out]) == 0
        header, rows = read_csv(out / "scan.csv")
        assert header == ["commanded_deg", "achieved_deg", "pointing_error_deg",
                          "scan_loss_db", "sll_db"]
        assert [float(r[0]) for r in rows] == [-45.0, 0.0, 45.0]
        assert rows[1][3] == "0"
        assert float(rows[0][3]) > 0.0
        assert float(rows[2][3]) > 0.0
        assert float(rows[0][2]) <= 8.0
        assert float(rows[1][2]) <= 5.0

    def test_svg_per_command(self, tmp_path, default_config):
        out = tmp_path / "out"
        assert run(["scan", "--config", default_config, "--out", out, "--svg"]) == 0
        for name in ("scan_m45.svg", "scan_0.svg", "scan_45.svg"):
            assert svg_element_counts((out / name).read_text(encoding="utf-8")) == SVG_ELEMENTS, name


class TestLossCommand:
    def test_single_frequency_budget(self, tmp_path, default_config):
        out = tmp_path / "out"
        assert run(["loss", "--config", default_config, "--out", out]) == 0
        header, rows = read_csv(out / "loss.csv")
        assert header == ["f_ghz", "alpha_c_db", "alpha_d_db", "alpha_r_db",
                          "alpha_l_db", "total_db", "note"]
        assert len(rows) == 1
        row = rows[0]
        assert float(row[0]) == 32.4
        assert float(row[3]) == 0.0 and float(row[4]) == 0.0
        total = float(row[5])
        assert total == pytest.approx(
            float(row[1]) + float(row[2]) + float(row[3]) + float(row[4]), rel=1e-8
        )
        assert row[6]  # justification travels with the numbers

    def test_frequency_sweep_rows(self, tmp_path):
        cfg = write_config(tmp_path, {
            "frequency_grid": {"start_ghz": 20.0, "stop_ghz": 45.0, "step_ghz": 5.0},
        })
        out = tmp_path / "out"
        assert run(["loss", "--config", cfg, "--out", out]) == 0
        _, rows = read_csv(out / "loss.csv")
        assert len(rows) == 6
        totals = [float(r[5]) for r in rows]
        assert all(totals[i] < totals[i + 1] for i in range(len(totals) - 1))


class TestExitCodes:
    def test_unknown_command(self, default_config, capsys):
        assert run(["spin", "--config", default_config]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_missing_config_flag(self, capsys):
        assert run(["pattern"]) == 2
        assert "--config is required" in capsys.readouterr().err

    def test_no_arguments(self, capsys):
        assert cli.main([]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_unrecognized_flag(self, default_config, capsys):
        assert run(["pattern", "--config", default_config, "--fast"]) == 2
        assert "unrecognized argument" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--config", "a path"), ("--out", "a directory")])
    def test_value_option_at_the_end(self, capsys, flag, value):
        assert cli.main(["pattern", flag]) == 2
        assert capsys.readouterr().err == f"error: {flag} requires {value}\n{cli._USAGE}\n"

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["pattern", "--config", tmp_path / "absent.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"weights": }', encoding="utf-8")
        assert run(["pattern", "--config", p]) == 2
        assert "config parse error at line 1 column 13" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000], ids=["not-utf8", "deep"])
    def test_unparsable_config_bytes(self, tmp_path, capsys, data):
        p = tmp_path / "bad.json"
        p.write_bytes(data)
        assert run(["pattern", "--config", p, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err.startswith("error: config parse error")

    @pytest.mark.parametrize("command", cli.COMMANDS)
    @pytest.mark.parametrize("section, entry, message", [
        ("strip", {"length_mm": 1e-322}, "MicrostripSpec: length_l must be > 0"),
        ("slot", {"length_mm": 1e-322}, "SlotSpec: length_L must be > 0"),
        ("monopole", {"height_mm": 1e-322}, "MonopoleSpec: height_H must be > 0"),
        ("monopole", {"ground_radius_mm": 1e-322}, "MonopoleSpec: ground_radius_a must be > 0"),
        ("array", {"count_nx": 2, "spacing_dx_mm": 1e-322}, "ArrayLayout: spacing_dx must be > 0"),
        ("array", {"spacing_dy_mm": 1e-322}, "ArrayLayout: spacing_dy must be > 0"),
    ], ids=["strip-length", "slot-length", "post-height", "disc-radius", "spacing-dx", "spacing-dy"])
    def test_length_that_rounds_to_zero_metres(self, tmp_path, capsys, section, entry, message, command):
        cfg = write_config(tmp_path, {"geometry": {section: entry}})
        assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_nul_byte_in_output_dir(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, {"output_dir": "a\u0000b"})
        assert run([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err == "error: cannot prepare output directory 'a\\x00b': embedded null byte\n"
        assert "\x00" not in err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("command", cli.COMMANDS)
    @pytest.mark.parametrize("data", [SKIN_DEPTH_UNDERFLOW, WIDTH_TO_HEIGHT_OVERFLOW, SUBNORMAL_WEIGHT,
                                      IMPEDANCE_WIDTH_UNDERFLOW, POST_ONLY_AT_BROADSIDE, LARGEST_STOP,
                                      LARGEST_RATIO, LARGEST_WEIGHT_AT_BROADSIDE],
                             ids=["skin-depth-underflow", "width-to-height-overflow", "subnormal-weight",
                                  "impedance-width-underflow", "post-only-at-broadside", "largest-stop",
                                  "largest-ratio", "largest-weight-at-broadside"])
    def test_no_traceback_or_warning(self, tmp_path, capsys, data, command):
        cfg = write_config(tmp_path, data)
        status = run([command, "--config", cfg, "--out", tmp_path / "out"])
        err = capsys.readouterr().err
        assert (status, err) == (0, "") or (status == 2 and err.startswith("error: ") and err.count("\n") == 1)

    @pytest.mark.parametrize("data, message", [
        (SKIN_DEPTH_UNDERFLOW, "skin_depth: pi_f_mu0_conductivity must be > 0"),
        (WIDTH_TO_HEIGHT_OVERFLOW, "characteristic_impedance: width_to_height must be finite"),
        ({"geometry": {"strip": {"width_mm": 1e-317, "substrate_thickness_mm": 1e13}}},
         "characteristic_impedance: width_to_height must be > 0"),
        (IMPEDANCE_WIDTH_UNDERFLOW, "conductor_attenuation: z0_width_w must be > 0"),
    ], ids=["skin-depth-underflow", "width-to-height-overflow", "width-to-height-underflow",
            "impedance-width-underflow"])
    def test_loss_refuses_a_strip_term_out_of_range(self, tmp_path, capsys, data, message):
        cfg = write_config(tmp_path, data)
        assert run(["loss", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["pattern", "stability"])
    def test_subnormal_weight_works_like_a_unit_one(self, tmp_path, command):
        artifacts = []
        for name, s2 in (("subnormal", 5e-324), ("unit", 1.0)):
            cfg = write_config(tmp_path, {"weights": {"s1": 0, "s2": s2}}, name=f"{name}.json")
            assert run([command, "--config", cfg, "--out", tmp_path / name, "--svg"]) == 0
            artifacts.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
        assert artifacts[0] == artifacts[1]

    def test_bad_step_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"theta_grid": {"step_deg": 0}})
        assert run(["pattern", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: theta_grid.step_deg: must be > 0\n"

    @pytest.mark.parametrize("args", [["ratio-sweep"], ["stability"], ["pattern", "--svg"],
                                      ["scan"], ["scan", "--svg"]])
    def test_coarse_grid_fails_before_field_evaluation(self, tmp_path, capsys, monkeypatch, args):
        def no_field(*a, **k):
            raise AssertionError("field evaluated")

        monkeypatch.setattr(radiators, "monopole_pattern", no_field)
        monkeypatch.setattr(synthesis, "monopole_pattern", no_field)
        monkeypatch.setattr(synthesis, "_slot_term", no_field)
        monkeypatch.setattr(scanstudy, "_slot_term", no_field)  # the scan study's element is slot-only
        cfg = write_config(tmp_path, {"theta_grid": {"step_deg": 1.0}})
        out = tmp_path / "out"
        assert run(args + ["--config", cfg, "--out", out]) == 2
        assert "error: pattern_metrics: grid spacing must be <= 0.5 degrees" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, data", [
        ("pattern", {"theta_grid": {"start_deg": -89.9, "stop_deg": 90.0, "step_deg": 0.4}}),
        ("scan", {"theta_grid": {"start_deg": -89.9, "stop_deg": 90.0, "step_deg": 0.4}}),
        ("stability", {"frequency_grid": {"start_ghz": 44.3, "stop_ghz": 45.0, "step_ghz": 0.8}}),
        ("pattern", {"theta_grid": {"start_deg": -89.9999999998, "stop_deg": 90.0, "step_deg": 0.5}}),
        ("ratio-sweep", {"theta_grid": {"start_deg": -89.9999999998, "stop_deg": 90.0, "step_deg": 0.5}}),
        ("stability", {"theta_grid": {"start_deg": -89.9999999998, "stop_deg": 90.0, "step_deg": 0.5}}),
    ])
    def test_off_lattice_stop_runs(self, tmp_path, capsys, command, data):
        # Each grid once ran past stop: half a step, to 90.1 deg or 45.1 GHz,
        # or by rounding, to 90.0000000002 deg.
        cfg = write_config(tmp_path, data)
        assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", [c for c in cli.COMMANDS if c != "resonance"])
    def test_one_point_grids_ignore_a_fine_step(self, tmp_path, capsys, command):
        # start + 1e-9 * step rounds back to start, which once left both grids
        # empty; resonance reads neither grid
        artifacts = []
        for name, step in (("fine", 1e-9), ("coarse", 0.25)):
            cfg = write_config(tmp_path, {
                "frequency_grid": {"start_ghz": 32.4, "step_ghz": step},
                "theta_grid": {"start_deg": 30.0, "stop_deg": 30.0, "step_deg": step},
            }, name=f"{name}.json")
            assert run([command, "--config", cfg, "--out", tmp_path / name]) == 0
            artifacts.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
        assert capsys.readouterr().err == ""
        assert artifacts[0] == artifacts[1]

    @pytest.mark.parametrize("command", ["pattern", "stability"])
    def test_largest_weight_at_broadside_works_like_a_unit_one(self, tmp_path, capsys, command):
        artifacts = []
        for name, s2 in (("largest", LARGEST), ("unit", 1.0)):
            data = {**LARGEST_WEIGHT_AT_BROADSIDE, "weights": {"s2": s2}}
            cfg = write_config(tmp_path, data, name=f"{name}.json")
            assert run([command, "--config", cfg, "--out", tmp_path / name, "--svg"]) == 0
            artifacts.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
        assert capsys.readouterr().err == ""
        assert artifacts[0] == artifacts[1]

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_largest_float_stop_is_a_config_error(self, tmp_path, capsys, command):
        # the float spacing above the largest float is inf, so no finite step clears it
        cfg = write_config(tmp_path, LARGEST_STOP)
        assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == "error: frequency_grid: step must be at least the float spacing at stop\n"

    @pytest.mark.parametrize("command, artifact, rows", [
        ("pattern", "pattern.csv", [["30"]]),
        ("stability", "stability.csv", [["row", "32.4"], ["summary", "32.4"]]),
        ("loss", "loss.csv", [["32.4"]]),
    ])
    def test_fine_step_gives_one_row(self, tmp_path, command, artifact, rows):
        cfg = write_config(tmp_path, {
            "frequency_grid": {"start_ghz": 32.4, "step_ghz": 1e-9},
            "theta_grid": {"start_deg": 30.0, "stop_deg": 30.0, "step_deg": 1e-9},
        })
        assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 0
        _, written = read_csv(tmp_path / "out" / artifact)
        assert [row[:len(rows[0])] for row in written] == rows

    def test_frequency_whose_wavelength_overflows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"frequency_grid": {"start_ghz": 1e-311, "stop_ghz": 1e-311, "step_ghz": 1.0}})
        assert run(["pattern", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == (
            "error: FrequencyContext: frequency_f must be finite and > 0, with a finite wavelength c / f\n"
        )

    def test_oversized_grid_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"theta_grid": {"step_deg": 1e-12}})
        assert run(["pattern", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == "error: theta_grid: grid must have at most 100000 points\n"

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"geometry": {"slot": {"len_mm": 4.8}}})
        assert run(["pattern", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: unknown key: geometry.slot.len_mm\n"

    def test_locked_output_directory(self, tmp_path, default_config, capsys):
        out = tmp_path / "out"
        out.mkdir()
        # A second open file description of the directory conflicts even
        # inside this process.
        holder = os.open(out, os.O_RDONLY | os.O_DIRECTORY)
        try:
            fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert run(["pattern", "--config", default_config, "--out", out]) == 2
        finally:
            os.close(holder)
        assert "is locked by another run" in capsys.readouterr().err
        assert not (out / "pattern.csv").exists()
        assert list(out.iterdir()) == []

    def test_leftover_lock_file_is_ignored(self, tmp_path, default_config):
        out = tmp_path / "out"
        out.mkdir()
        (out / ".tiltbeam.lock").write_bytes(b"")  # as an older version left it
        assert run(["pattern", "--config", default_config, "--out", out]) == 0
        assert sorted(p.name for p in out.iterdir()) == [".tiltbeam.lock", "pattern.csv"]

    def test_killed_run_releases_its_directory(self, tmp_path, default_config, capsys):
        out = tmp_path / "out"
        holder = (
            "import sys, time\n"
            "import tiltbeam.cli as cli\n"
            "def hold(path, text):\n"
            "    print('holding', flush=True)\n"
            "    time.sleep(120)\n"
            "cli._write_text = hold\n"
            f"sys.exit(cli.main(['pattern', '--config', {str(default_config)!r}, '--out', {str(out)!r}]))\n"
        )
        with _spawn_python(["-c", holder], tmp_path) as child:
            try:
                assert child.stdout.readline() == "holding\n"
                assert run(["pattern", "--config", default_config, "--out", out]) == 2
                assert "is locked by another run" in capsys.readouterr().err
            finally:
                child.send_signal(signal.SIGKILL)
                child.wait(timeout=60)
        assert child.returncode == -signal.SIGKILL
        assert run(["pattern", "--config", default_config, "--out", out]) == 0
        assert [p.name for p in out.iterdir()] == ["pattern.csv"]

    def test_regular_file_out_is_not_reported_as_locked(self, tmp_path, default_config, capsys):
        out = tmp_path / "out"
        out.write_bytes(b"not a directory\n")
        assert run(["pattern", "--config", default_config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot prepare output directory '{out}': " in err
        assert "locked" not in err
        assert out.read_bytes() == b"not a directory\n"

    @pytest.mark.parametrize("name, quoted", [("f\nx", "'f\\nx'"), ("it's", '"it\'s"')], ids=["newline", "quote"])
    def test_output_path_is_quoted_on_one_line(self, tmp_path, default_config, capsys, monkeypatch, name, quoted):
        monkeypatch.chdir(tmp_path)
        Path(name).write_bytes(b"not a directory\n")
        assert run(["pattern", "--config", default_config, "--out", name]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot prepare output directory {quoted}: ") and err.count("\n") == 1

    def test_convergence_failure_maps_to_three(self, tmp_path, default_config, capsys, monkeypatch):
        def exploding_builder(cfg, svg):
            raise ConvergenceError("integrate_complex", 0.1 + 0.2j, 3.0e-4)

        monkeypatch.setitem(cli._BUILDERS, "pattern", exploding_builder)
        out = tmp_path / "out"
        assert run(["pattern", "--config", default_config, "--out", out]) == 3
        err = capsys.readouterr().err
        assert "integrate_complex" in err
        assert not (out / "pattern.csv").exists()
        assert not (out / ".tiltbeam.lock").exists()

    @pytest.mark.parametrize("command, data, status, message", [
        ("pattern", {"frequency_grid": {"start_ghz": 1e-311, "stop_ghz": 1e-311, "step_ghz": 1.0}}, 2,
         "FrequencyContext: frequency_f must be finite and > 0, with a finite wavelength c / f"),
        ("stability", {"frequency_grid": {"start_ghz": 50.0}}, 2,
         "beam_stability: frequency outside the 20 to 45 GHz band"),
        ("ratio-sweep", {"theta_grid": {"step_deg": 1.0}}, 2, "pattern_metrics: grid spacing must be <= 0.5 degrees"),
        ("scan", None, 3, "integrate_complex: subdivision budget exhausted; best estimate "
                          "1.000000e-01+2.000000e-01j, estimated error bound 3.000e-04"),
    ], ids=["wavelength-overflow", "out-of-band", "coarse-grid", "convergence"])
    def test_failed_run_creates_no_directory(self, tmp_path, capsys, monkeypatch, command, data, status, message):
        def exploding_builder(cfg, svg):  # scan's quadrature runs out of panels
            raise ConvergenceError("integrate_complex", 0.1 + 0.2j, 3.0e-4)

        monkeypatch.setitem(cli._BUILDERS, "scan", exploding_builder)
        cfg = write_config(tmp_path, data or {})
        assert run([command, "--config", cfg, "--out", tmp_path / "new" / "x" / "deep"]) == status
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "new").exists()

    def test_exhausted_quadrature_names_term_and_angle(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_PANELS", 16)
        radiators._peak_reference.cache_clear()  # the geometry may be cached at full accuracy
        cfg = write_config(tmp_path, {"geometry": {"monopole": {"ground_radius_mm": 300.0}}})
        assert run(["pattern", "--config", cfg, "--out", tmp_path / "out"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ground term (ka = 203.575) at theta = ")
        assert "subdivision budget exhausted; best estimate " in err
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_failed_run_writes_nothing(self, tmp_path, default_config, monkeypatch):
        def exploding_builder(cfg, svg):
            raise ValueError("boom")

        monkeypatch.setitem(cli._BUILDERS, "loss", exploding_builder)
        out = tmp_path / "out"
        assert run(["loss", "--config", default_config, "--out", out]) == 2
        assert list(out.glob("*.csv")) == []
        assert not (out / ".tiltbeam.lock").exists()

    def test_unwritable_artifact_exits_two_and_leaves_no_temp_file(self, tmp_path, default_config, capsys):
        out = tmp_path / "out"
        (out / "pattern.csv").mkdir(parents=True)
        assert run(["pattern", "--config", default_config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write artifacts to '{out}'" in err and "pattern.csv" in err
        assert list(out.glob("*.tmp")) == []
        assert not (out / ".tiltbeam.lock").exists()

    def test_failed_staging_keeps_the_previous_artifacts(self, tmp_path, default_config, capsys):
        out = tmp_path / "out"
        out.mkdir()
        stale = b"theta_deg,re,im,mag_db\nstale\n"
        (out / "pattern.csv").write_bytes(stale)
        (out / "pattern.svg.tmp").mkdir()
        assert run(["pattern", "--config", default_config, "--out", out, "--svg"]) == 2
        assert "pattern.svg.tmp" in capsys.readouterr().err
        assert (out / "pattern.csv").read_bytes() == stale
        assert not (out / "pattern.svg").exists()
        assert [p.name for p in out.glob("*.tmp")] == ["pattern.svg.tmp"]  # not this run's; left alone

    def test_write_cut_short_removes_its_temp_file(self, tmp_path, default_config, capsys, monkeypatch):
        def full_disk_open(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return _CutShort(fh, full) if Path(path).name == "pattern.svg.tmp" else fh

        monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
        out = tmp_path / "out"
        out.mkdir()
        stale = b"theta_deg,re,im,mag_db\nstale\n"
        (out / "pattern.csv").write_bytes(stale)
        assert run(["pattern", "--config", default_config, "--out", out, "--svg"]) == 2
        assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
        assert (out / "pattern.csv").read_bytes() == stale
        assert [p.name for p in out.iterdir()] == ["pattern.csv"]

    @pytest.mark.parametrize("exc_type", [OSError, KeyboardInterrupt], ids=["oserror", "interrupt"])
    @pytest.mark.parametrize("step", ["write", "rename"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_failure_or_interrupt_leaves_no_temp_file(self, tmp_path, default_config, monkeypatch, capsys,
                                                      k, step, exc_type):
        # scan --svg stages four artifacts; the k-th write or rename raises
        calls = []

        def kth(real, failing):
            def call(*args, **kwargs):
                calls.append(args[0])
                return (failing if len(calls) == k else real)(*args, **kwargs)
            return call

        def cut_short_open(*args, **kwargs):
            return _CutShort(open(*args, **kwargs), exc_type("injected"))

        def raising(*args):
            raise exc_type("injected")

        if step == "write":
            monkeypatch.setattr(cli, "open", kth(open, cut_short_open), raising=False)
        else:
            monkeypatch.setattr(os, "replace", kth(os.replace, raising))
        out = tmp_path / "out"
        out.mkdir()
        old = {name: f"old {name}\n".encode() for name in ("scan.csv", "scan_0.svg", "scan_45.svg", "scan_m45.svg")}
        for name, data in old.items():
            (out / name).write_bytes(data)
        args = ["scan", "--config", default_config, "--out", out, "--svg"]
        if exc_type is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                run(args)
        else:
            assert run(args) == 2
            assert capsys.readouterr().err.startswith(f"error: cannot write artifacts to '{out}': injected")
        assert len(calls) == k
        assert sorted(p.name for p in out.iterdir()) == sorted(old)
        replaced = {name for name in old if (out / name).read_bytes() != old[name]}
        assert replaced == (set() if step == "write" else set(sorted(old)[:k - 1]))

    def test_directory_target_is_refused_before_any_rename(self, tmp_path, default_config, capsys):
        out = tmp_path / "out"
        out.mkdir()
        old = {name: f"old {name}\n".encode() for name in ("scan.csv", "scan_0.svg", "scan_45.svg")}
        for name, data in old.items():
            (out / name).write_bytes(data)
        (out / "scan_m45.svg").mkdir()
        assert run(["scan", "--config", default_config, "--out", out, "--svg"]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write artifacts to '{out}'" in err and "scan_m45.svg" in err
        assert {name: (out / name).read_bytes() for name in old} == old
        assert (out / "scan_m45.svg").is_dir()
        assert list(out.glob("*.tmp")) == []
        assert not (out / ".tiltbeam.lock").exists()

    def test_symlink_to_a_directory_is_replaced(self, tmp_path, default_config):
        out = tmp_path / "out"
        out.mkdir()
        (tmp_path / "elsewhere").mkdir()
        (out / "pattern.csv").symlink_to(tmp_path / "elsewhere")
        assert run(["pattern", "--config", default_config, "--out", out]) == 0
        assert (out / "pattern.csv").is_file() and not (out / "pattern.csv").is_symlink()
        assert (tmp_path / "elsewhere").is_dir()

    def test_run_command_rejects_unknown_name(self, capsys):
        assert cli.run_command("nope", parse_config({})) == 2
        assert "unknown command" in capsys.readouterr().err


class TestFormatting:
    def test_nine_significant_digits(self):
        assert cli._fmt(36.116007168393644) == "36.1160072"
        assert cli._fmt(0.0) == "0"
        assert cli._fmt(-0.0) == "0"
        assert cli._fmt(1.0) == "1"
        assert cli._fmt(math.nan) == "nan"
        assert cli._fmt(-math.nan) == "nan"
        assert cli._fmt(math.inf) == "inf"
        assert cli._fmt(-math.inf) == "-inf"
        assert cli._fmt("note text") == "note text"


def _python_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONWARNINGS"] = "error"  # a CLI process that warns fails, as this one does
    return env


def _fresh_python(args, cwd, **env):
    return subprocess.run([sys.executable] + args, cwd=cwd, env={**_python_env(), **env}, capture_output=True,
                          text=True, timeout=300)


def _spawn_python(args, cwd):
    return subprocess.Popen([sys.executable] + args, cwd=cwd, env=_python_env(), stdout=subprocess.PIPE,
                            text=True)


class TestFreshProcesses:
    def test_artifacts_are_byte_identical_across_cold_processes(self, tmp_path):
        # criterion 11 reruns inside one process, on warm caches; here the
        # two attempts also differ in their str hash seed
        cfg = write_config(tmp_path, {
            "frequency_grid": {"start_ghz": 26.0, "stop_ghz": 41.0, "step_ghz": 5.0},
        })
        runs = []
        for attempt, seed in (("a", "1"), ("b", "2")):
            produced = {}
            for command in cli.COMMANDS:
                out = tmp_path / attempt / command
                proc = _fresh_python(["-m", "tiltbeam.cli", command, "--config", str(cfg),
                                      "--out", str(out), "--svg"], tmp_path, PYTHONHASHSEED=seed)
                assert proc.returncode == 0, (command, proc.stderr)
                produced.update({f"{command}/{p.name}": p.read_bytes() for p in sorted(out.iterdir())})
            runs.append(produced)
        assert runs[0].keys() == runs[1].keys()
        assert [name for name in runs[0] if runs[0][name] != runs[1][name]] == []

    def test_import_loads_no_reference_numerics_and_integrates_nothing(self, tmp_path):
        probe = (
            "import sys\n"
            "seen = set()\n"
            "sys.setprofile(lambda frame, event, arg: event == 'call' and seen.add(frame.f_code.co_name))\n"
            "import tiltbeam.cli\n"
            "sys.setprofile(None)\n"
            "print(sorted(m for m in sys.modules if m.startswith(('numpy.polynomial', 'scipy'))))\n"
            "print(sorted(seen & {'integrate_complex', '_composite', 'bessel_j1', '_field'}))\n"
        )
        proc = _fresh_python(["-c", probe], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "[]"]
