"""Config parsing: defaults, strict key checking, unit conversion, and the
JSON round trip."""

import gc
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiltbeam import radiators
from tiltbeam.circuitmodel import SUBSTRATE_PRESETS, MicrostripSpec
from tiltbeam.config import (
    ConfigError,
    FrequencyGridConfig,
    RunConfig,
    SlotConfig,
    ThetaGridConfig,
    WeightsConfig,
    load_config,
    parse_config,
    serialize_config,
)
from tiltbeam.specfun import MAX_GRID_POINTS
from tiltbeam.synthesis import BAND_CENTER_HZ, AntennaGeometry, default_theta_grid


class TestDefaults:
    def test_empty_object_gives_reference_design(self):
        cfg = parse_config({})
        assert cfg.slot.length_mm == 4.8
        assert cfg.slot.amplitude_e0 == 1.0
        assert cfg.monopole.height_mm == 1.2
        assert cfg.monopole.ground_radius_mm == 5.0
        assert cfg.monopole.current_model == "sinusoidal"
        assert (cfg.array.count_nx, cfg.array.count_ny) == (1, 2)
        assert cfg.array.spacing_dx_mm == 1.2
        assert cfg.strip.width_mm == 0.24
        assert cfg.strip.length_mm == 1.98
        assert cfg.strip.substrate == "FR4"
        assert cfg.strip.substrate_thickness_mm == 0.1
        assert cfg.frequency_grid.start_ghz == 32.4
        assert cfg.theta_grid.step_deg == 0.25
        assert (cfg.weights.s1, cfg.weights.s2) == (1.0, 0.3)
        assert cfg.weights.ratios == tuple(i / 10 for i in range(1, 11))
        assert cfg.output_dir == "out"

    def test_materialized_units_are_si(self):
        cfg = parse_config({})
        assert cfg.slot_spec().length_L == pytest.approx(4.8e-3, rel=1e-15)
        assert cfg.monopole_spec().height_H == pytest.approx(1.2e-3, rel=1e-15)
        assert cfg.array_layout().spacing_dy == pytest.approx(1.2e-3, rel=1e-15)
        strip = cfg.strip_spec()
        assert strip.width_w == pytest.approx(0.24e-3, rel=1e-15)
        assert strip.length_l == pytest.approx(1.98e-3, rel=1e-15)

    def test_default_strip_rides_the_thin_top_layer(self):
        strip = parse_config({}).strip_spec()
        assert strip.substrate.eps_r == 4.4
        assert strip.substrate.thickness_h == pytest.approx(0.1e-3, rel=1e-15)

    def test_default_frequency_list_is_single_point(self):
        freqs = parse_config({}).frequencies_hz()
        assert freqs == [32.4e9]

    def test_default_theta_grid(self):
        cfg = parse_config({})
        deg = cfg.theta_grid_deg()
        assert deg.size == 721
        assert deg[0] == -90.0
        assert deg[-1] == 90.0
        assert np.array_equal(cfg.theta_grid_rad(), np.radians(deg))

    def test_cli_defaults_are_the_api_defaults(self):
        # The geometry and strip sections read their defaults from the model's
        # specs, and the grids from the band centre and the normalization step:
        # `tiltbeam pattern` and the Python API describe one antenna.
        cfg = RunConfig()
        assert cfg.geometry() == AntennaGeometry()
        assert cfg.strip_spec() == MicrostripSpec()
        assert cfg.frequencies_hz() == [BAND_CENTER_HZ]
        assert np.array_equal(cfg.theta_grid_rad(), default_theta_grid())

    @pytest.mark.parametrize("grid", [default_theta_grid, lambda: RunConfig().theta_grid_rad()],
                             ids=["default_theta_grid", "RunConfig"])
    def test_default_angles_are_normalization_grid_samples(self, grid):
        # monopole_pattern reads an angle from the field cache only when it
        # equals a normalization grid sample bit for bit, so a default run
        # integrates no angle of its own.
        assert np.isin(np.abs(grid()), radiators._NORM_GRID_RAD).all()


class TestStrictness:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key: bogus"):
            parse_config({"bogus": {}})

    def test_unknown_nested_key_names_full_path(self):
        with pytest.raises(ConfigError, match="unknown key: geometry.slot.bogus"):
            parse_config({"geometry": {"slot": {"length_mm": 4.8, "bogus": 1}}})

    def test_zero_frequency_step(self):
        with pytest.raises(ConfigError, match="^frequency_grid.step_ghz: must be > 0$"):
            parse_config({"frequency_grid": {"start_ghz": 26.0, "stop_ghz": 41.0, "step_ghz": 0}})

    def test_zero_theta_step(self):
        with pytest.raises(ConfigError, match="^theta_grid.step_deg: must be > 0$"):
            parse_config({"theta_grid": {"step_deg": 0}})

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ConfigError, match="must be a number"):
            parse_config({"geometry": {"slot": {"length_mm": True}}})

    def test_counts_must_be_integers(self):
        with pytest.raises(ConfigError, match="must be an integer"):
            parse_config({"geometry": {"array": {"count_ny": 2.5}}})

    def test_theta_bounds(self):
        with pytest.raises(ConfigError, match=r"\[-90, 90\]"):
            parse_config({"theta_grid": {"start_deg": -100.0}})

    def test_stop_before_start(self):
        with pytest.raises(ConfigError, match="^frequency_grid.stop_ghz: must be >= start_ghz$"):
            parse_config({"frequency_grid": {"start_ghz": 40.0, "stop_ghz": 30.0}})

    def test_unknown_substrate_reference(self):
        with pytest.raises(ConfigError, match="unknown substrate 'NOPE'"):
            parse_config({"geometry": {"strip": {"substrate": "NOPE"}}})

    def test_bad_current_model(self):
        with pytest.raises(ConfigError, match="current_model"):
            parse_config({"geometry": {"monopole": {"current_model": "square"}}})

    def test_weights_cannot_both_vanish(self):
        with pytest.raises(ConfigError, match="^ExcitationWeights: s1 and s2 must not both be zero$"):
            parse_config({"weights": {"s1": 0, "s2": 0}})

    def test_ratios_must_be_positive_numbers(self):
        with pytest.raises(ConfigError, match=r"ratios\[1\]"):
            parse_config({"weights": {"ratios": [0.5, 0.0]}})
        with pytest.raises(ConfigError, match="non-empty"):
            parse_config({"weights": {"ratios": []}})

    def test_substrate_entries_require_all_fields(self):
        with pytest.raises(ConfigError, match="thickness_mm: required"):
            parse_config({"substrates": {"X": {"eps_r": 3.0, "tan_delta": 0.001}}})

    def test_non_object_section(self):
        with pytest.raises(ConfigError, match="must be an object"):
            parse_config({"geometry": 7})


class TestOverridesAndGrids:
    def test_substrate_override_flows_into_strip(self):
        cfg = parse_config({
            "substrates": {"CUSTOM": {"eps_r": 3.0, "tan_delta": 0.001, "thickness_mm": 0.8}},
            "geometry": {"strip": {"substrate": "CUSTOM", "substrate_thickness_mm": 0.2}},
        })
        strip = cfg.strip_spec()
        assert strip.substrate.eps_r == 3.0
        assert strip.substrate.tan_delta == 0.001
        # strip layer thickness wins over the material slab thickness
        assert strip.substrate.thickness_h == pytest.approx(0.2e-3, rel=1e-15)

    def test_preset_can_be_redefined(self):
        cfg = parse_config({
            "substrates": {"FR4": {"eps_r": 4.6, "tan_delta": 0.021, "thickness_mm": 1.0}},
        })
        assert cfg.strip_spec().substrate.eps_r == 4.6

    def test_frequency_sweep_expansion(self):
        cfg = parse_config({"frequency_grid": {"start_ghz": 26.0, "stop_ghz": 41.0, "step_ghz": 5.0}})
        assert cfg.frequencies_hz() == [26.0e9, 31.0e9, 36.0e9, 41.0e9]

    @pytest.mark.parametrize("data, expected", [
        ({"theta_grid": {"start_deg": -89.9, "stop_deg": 90.0, "step_deg": 0.4}}, (450, 89.7)),
        ({"frequency_grid": {"start_ghz": 44.3, "stop_ghz": 45.0, "step_ghz": 0.8}}, (1, 44.3)),
    ])
    def test_off_lattice_stop_drops_the_point_past_it(self, data, expected):
        cfg = parse_config(data)
        grid = cfg.theta_grid_deg() if "theta_grid" in data else np.array(cfg.frequencies_hz()) / 1e9
        assert (grid.size, float(grid[-1])) == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=200)
    @given(start=st.floats(-90.0, 90.0), span=st.floats(0.0, 180.0), step_exp=st.floats(-9.0, 1.0))
    @example(start=30.0, span=0.0, step_exp=-9.0)  # 30 + 1e-9 * step rounds back to 30
    def test_grids_end_at_or_before_stop(self, start, span, step_exp):
        step = 10.0 ** step_exp
        stop = min(start + min(span, step * (MAX_GRID_POINTS // 2)), 90.0)
        cfg = parse_config({
            "theta_grid": {"start_deg": start, "stop_deg": stop, "step_deg": step},
            "frequency_grid": {"start_ghz": start + 91.0, "stop_ghz": stop + 91.0, "step_ghz": step},
        })
        # Frequencies are compared in Hz: rounding v * 1e9 keeps v <= stop,
        # which dividing back by 1e9 need not.
        hz = (np.array(cfg.frequencies_hz()), (stop + 91.0) * 1e9, step * 1e9)
        for grid, end, spacing in ((cfg.theta_grid_deg(), stop, step), hz):
            # np.arange adds i * ((start + step) - start), whose rounding
            # drifts each point by up to one float spacing of the grid's values
            drift = grid.size * np.abs(np.spacing(grid)).max()
            assert end - spacing * (1.0 + 1e-6) - drift < grid[-1] <= end

    def test_single_point_theta_grid(self):
        cfg = parse_config({"theta_grid": {"start_deg": 30.0, "stop_deg": 30.0, "step_deg": 0.25}})
        deg = cfg.theta_grid_deg()
        assert deg.size == 1
        assert deg[0] == 30.0

    def test_excitation_weights_materialize(self):
        cfg = parse_config({"weights": {"s1": 1.0, "s2": 0.45}})
        w = cfg.excitation_weights()
        assert (w.s1_slot, w.s2_monopole) == (1.0, 0.45)


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self):
        original = parse_config({
            "geometry": {
                "monopole": {"height_mm": 1.5, "current_model": "triangular"},
                "strip": {"roughness_um": 2.0},
            },
            "substrates": {"CUSTOM": {"eps_r": 3.0, "tan_delta": 0.001, "thickness_mm": 0.8}},
            "frequency_grid": {"start_ghz": 26.0, "stop_ghz": 41.0, "step_ghz": 1.0},
            "weights": {"s1": 1.0, "s2": 0.5, "ratios": [0.2, 0.4]},
            "output_dir": "artifacts",
        })
        rebuilt = parse_config(serialize_config(original))
        assert rebuilt == original

    def test_serialized_form_survives_json(self):
        cfg = parse_config({})
        text = json.dumps(serialize_config(cfg))
        assert parse_config(json.loads(text)) == cfg


class TestLoadConfig:
    def test_reads_file(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text('{"weights": {"s2": 0.45}}', encoding="utf-8")
        assert load_config(p).weights.s2 == 0.45

    def test_parse_error_reports_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"weights": }', encoding="utf-8")
        with pytest.raises(ConfigError, match="config parse error at line 1 column 13"):
            load_config(p)

    @pytest.mark.parametrize("data, message", [
        (b"\xff\xfe{}", "config parse error: not UTF-8 text (byte 0)"),
        (b" " * 10000 + b"{\xe9}", "config parse error: not UTF-8 text (byte 10001)"),
        (b"[" * 100000 + b"]" * 100000, "config parse error: nesting too deep"),
    ], ids=["utf16-bom", "late-byte", "deep-nesting"])
    def test_unreadable_text_is_a_config_error(self, tmp_path, data, message):
        p = tmp_path / "bad.json"
        p.write_bytes(data)
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert str(exc.value) == message

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "absent.json")

    def test_non_object_document(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="must be an object"):
            load_config(p)


def test_run_config_is_immutable():
    cfg = parse_config({})
    assert isinstance(cfg, RunConfig)
    with pytest.raises(Exception):
        cfg.output_dir = "elsewhere"


def test_angle_conversion_consistency():
    cfg = parse_config({"theta_grid": {"start_deg": -45.0, "stop_deg": 45.0, "step_deg": 0.5}})
    rad = cfg.theta_grid_rad()
    assert rad[0] == pytest.approx(-math.pi / 4, rel=1e-15)
    assert rad[-1] == pytest.approx(math.pi / 4, rel=1e-15)


def _at(section, key, value):
    """Config whose only entry is one key of one section."""
    if section in ("slot", "monopole", "array", "strip"):
        return {"geometry": {section: {key: value}}}
    return {section: {key: value}}


def _substrate(**entry):
    base = {"eps_r": 3.0, "tan_delta": 0.001, "thickness_mm": 0.8}
    base.update(entry)
    return {"substrates": {"X": {k: v for k, v in base.items() if v is not None}}}


# One single-fault input per field and rule, with the exact message each
# must keep producing.
_FIELD_RULES = [
    ("slot", "length_mm", "> 0"),
    ("slot", "amplitude_e0", "> 0"),
    ("monopole", "height_mm", "> 0"),
    ("monopole", "ground_radius_mm", "> 0"),
    ("array", "spacing_dx_mm", "> 0"),
    ("array", "spacing_dy_mm", "> 0"),
    ("strip", "width_mm", "> 0"),
    ("strip", "length_mm", "> 0"),
    ("strip", "substrate_thickness_mm", "> 0"),
    ("strip", "conductivity_s_per_m", "> 0"),
    ("strip", "roughness_um", ">= 0"),
    ("frequency_grid", "start_ghz", "> 0"),
    ("frequency_grid", "stop_ghz", None),
    ("frequency_grid", "step_ghz", "> 0"),
    ("theta_grid", "start_deg", None),
    ("theta_grid", "stop_deg", None),
    ("theta_grid", "step_deg", "> 0"),
    ("weights", "s1", ">= 0"),
    ("weights", "s2", ">= 0"),
]
_BAD_VALUE = {"> 0": 0.0, ">= 0": -1.0}


def _message_cases():
    cases = []
    for section, key, rule in _FIELD_RULES:
        prefix = f"geometry.{section}" if section in ("slot", "monopole", "array", "strip") else section
        cases.append((_at(section, key, "1"), f"{prefix}.{key}: must be a number"))
        cases.append((_at(section, key, True), f"{prefix}.{key}: must be a number"))
        if rule:
            cases.append((_at(section, key, _BAD_VALUE[rule]), f"{prefix}.{key}: must be {rule}"))
    for key in ("count_nx", "count_ny"):
        cases.append((_at("array", key, 2.0), f"geometry.array.{key}: must be an integer"))
        cases.append((_at("array", key, 0), f"geometry.array.{key}: must be >= 1"))
    cases += [
        (_at("monopole", "current_model", 1), "geometry.monopole.current_model: must be a string"),
        (_at("monopole", "current_model", "square"),
         "geometry.monopole.current_model: must be one of ('sinusoidal', 'triangular')"),
        (_at("strip", "substrate", 4.4), "geometry.strip.substrate: must be a string"),
        (_at("strip", "substrate", "NOPE"), "geometry.strip.substrate: unknown substrate 'NOPE'"),
        (_substrate(eps_r=None), "substrates.X.eps_r: required"),
        (_substrate(tan_delta=None), "substrates.X.tan_delta: required"),
        (_substrate(thickness_mm=None), "substrates.X.thickness_mm: required"),
        (_substrate(eps_r="3"), "substrates.X.eps_r: must be a number"),
        (_substrate(eps_r=0.5), "substrates.X.eps_r: must be >= 1"),
        (_substrate(tan_delta="0"), "substrates.X.tan_delta: must be a number"),
        (_substrate(tan_delta=-0.1), "substrates.X.tan_delta: must be >= 0"),
        (_substrate(thickness_mm="1"), "substrates.X.thickness_mm: must be a number"),
        (_substrate(thickness_mm=0.0), "substrates.X.thickness_mm: must be > 0"),
        # > 0 in millimetres, but 0.0 in metres; X is refused though no strip uses it
        (_at("strip", "length_mm", 1e-322), "MicrostripSpec: length_l must be > 0"),
        (_at("strip", "width_mm", 1e-322), "MicrostripSpec: width_w must be > 0"),
        (_at("strip", "substrate_thickness_mm", 1e-322), "SubstrateSpec: thickness_h must be > 0"),
        (_substrate(thickness_mm=1e-322), "SubstrateSpec: thickness_h must be > 0"),
        (_at("slot", "length_mm", 1e-322), "SlotSpec: length_L must be > 0"),
        (_at("monopole", "height_mm", 1e-322), "MonopoleSpec: height_H must be > 0"),
        (_at("monopole", "ground_radius_mm", 1e-322), "MonopoleSpec: ground_radius_a must be > 0"),
        ({"geometry": {"array": {"count_nx": 2, "spacing_dx_mm": 1e-322}}}, "ArrayLayout: spacing_dx must be > 0"),
        (_at("array", "spacing_dy_mm", 1e-322), "ArrayLayout: spacing_dy must be > 0"),
        (_substrate(bogus=1), "unknown key: substrates.X.bogus"),
        ({"substrates": {"X": 3}}, "substrates.X: must be an object"),
        ({"substrates": []}, "substrates: must be an object"),
        ({"frequency_grid": {"start_ghz": 40.0, "stop_ghz": 30.0}},
         "frequency_grid.stop_ghz: must be >= start_ghz"),
        ({"theta_grid": {"start_deg": 10.0, "stop_deg": 0.0}}, "theta_grid.stop_deg: must be >= start_deg"),
        ({"theta_grid": {"start_deg": -100.0}}, "theta_grid: angles must lie within [-90, 90] degrees"),
        ({"theta_grid": {"stop_deg": 90.5}}, "theta_grid: angles must lie within [-90, 90] degrees"),
        ({"weights": {"s1": 0, "s2": 0}}, "ExcitationWeights: s1 and s2 must not both be zero"),
        (_at("weights", "ratios", []), "weights.ratios: must be a non-empty array of numbers"),
        (_at("weights", "ratios", 0.5), "weights.ratios: must be a non-empty array of numbers"),
        (_at("weights", "ratios", [0.5, "1"]), "weights.ratios[1]: must be a number"),
        (_at("weights", "ratios", [0.5, 0.0]), "weights.ratios[1]: must be > 0"),
        ({"output_dir": 7}, "output_dir: must be a string"),
        ({"output_dir": ""}, "output_dir: must be a non-empty string"),
        ([1, 2], "config: must be an object"),
        ({"bogus": {}}, "unknown key: bogus"),
        ({"geometry": 7}, "geometry: must be an object"),
        ({"geometry": {"bogus": {}}}, "unknown key: geometry.bogus"),
    ]
    for section in ("slot", "monopole", "array", "strip"):
        cases.append(({"geometry": {section: 1}}, f"geometry.{section}: must be an object"))
        cases.append((_at(section, "bogus", 1), f"unknown key: geometry.{section}.bogus"))
    for section in ("frequency_grid", "theta_grid", "weights"):
        cases.append(({section: "x"}, f"{section}: must be an object"))
        cases.append((_at(section, "bogus", 1), f"unknown key: {section}.bogus"))
    return cases


_MESSAGE_CASES = _message_cases()


@pytest.mark.parametrize("data, message", _MESSAGE_CASES, ids=[m for _, m in _MESSAGE_CASES])
def test_single_fault_message_is_exact(data, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert str(exc.value) == message


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("text, message", [
        ('{"geometry": {"monopole": {"ground_radius_mm": Infinity}}}',
         "geometry.monopole.ground_radius_mm: must be finite"),
        ('{"geometry": {"strip": {"length_mm": Infinity}}}', "geometry.strip.length_mm: must be finite"),
        ('{"frequency_grid": {"stop_ghz": Infinity}}', "frequency_grid.stop_ghz: must be finite"),
        ('{"theta_grid": {"start_deg": NaN}}', "theta_grid.start_deg: must be finite"),
        ('{"weights": {"ratios": [0.5, Infinity]}}', "weights.ratios[1]: must be finite"),
        ('{"substrates": {"X": {"eps_r": Infinity, "tan_delta": 0, "thickness_mm": 1}}}',
         "substrates.X.eps_r: must be finite"),
        ('{"geometry": {"slot": {"length_mm": 1' + "0" * 400 + '}}}', "geometry.slot.length_mm: must be finite"),
        ('{"geometry": {"array": {"count_nx": 1' + "0" * 400 + '}}}', "geometry.array.count_nx: must be finite"),
        ('{"geometry": {"array": {"count_ny": 1' + "0" * 400 + '}}}', "geometry.array.count_ny: must be finite"),
    ])
    def test_rejected_at_load(self, tmp_path, text, message):
        p = tmp_path / "run.json"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert str(exc.value) == message

    def test_own_check_reports_first(self):
        # -Infinity and NaN already fail "> 0", and keep that message
        for value in (-math.inf, math.nan):
            with pytest.raises(ConfigError) as exc:
                parse_config({"geometry": {"slot": {"length_mm": value}}})
            assert str(exc.value) == "geometry.slot.length_mm: must be > 0"


class TestGridCap:
    # Every input here is rejected by counting, before any grid exists.
    @pytest.mark.parametrize("data, message", [
        ({"theta_grid": {"step_deg": 1e-12}}, f"theta_grid: grid must have at most {MAX_GRID_POINTS} points"),
        ({"frequency_grid": {"start_ghz": 20.0, "stop_ghz": 45.0, "step_ghz": 1e-12}},
         f"frequency_grid: grid must have at most {MAX_GRID_POINTS} points"),
        ({"frequency_grid": {"start_ghz": 1.0, "stop_ghz": MAX_GRID_POINTS + 1.0, "step_ghz": 1.0}},
         f"frequency_grid: grid must have at most {MAX_GRID_POINTS} points"),
        ({"frequency_grid": {"start_ghz": 1e-300, "stop_ghz": 1e300, "step_ghz": 1e-300}},
         f"frequency_grid: grid must have at most {MAX_GRID_POINTS} points"),
    ])
    def test_oversized_grid_rejected(self, data, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(data)
        assert str(exc.value) == message

    @pytest.mark.parametrize("data", [
        {"frequency_grid": {"start_ghz": 32.4, "step_ghz": 1e-15}},
        {"theta_grid": {"start_deg": -90.0, "stop_deg": -90.0, "step_deg": 1e-300}},
        {"frequency_grid": {"stop_ghz": 1.7976931348623157e308, "step_ghz": 1.7976931348623157e308}},
    ], ids=["1e-15-ghz", "1e-300-deg", "largest-stop"])
    def test_step_below_the_float_spacing_rejected(self, data):
        # np.arange would repeat stop, or allocate some 1e286 points; above
        # the largest float the spacing is inf
        with pytest.raises(ConfigError) as exc:
            parse_config(data)
        assert str(exc.value) == f"{next(iter(data))}: step must be at least the float spacing at stop"

    @pytest.mark.parametrize("build, section", [
        (lambda: RunConfig(theta_grid=ThetaGridConfig(step_deg=1e-12)).theta_grid_deg(), "theta_grid"),
        (lambda: RunConfig(frequency_grid=FrequencyGridConfig(20.0, 45.0, 1e-12)).frequencies_hz(), "frequency_grid"),
    ], ids=["theta", "frequency"])
    def test_a_config_built_in_python_names_its_section(self, build, section):
        # RunConfig's own readers put the section on the builder's message, as parse_config reports it
        with pytest.raises(ConfigError) as exc:
            build()
        assert str(exc.value) == f"{section}: grid must have at most {MAX_GRID_POINTS} points"

    def test_cap_is_inclusive(self):
        cfg = parse_config({"frequency_grid": {"start_ghz": 1.0, "stop_ghz": float(MAX_GRID_POINTS), "step_ghz": 1.0}})
        assert len(cfg.frequencies_hz()) == MAX_GRID_POINTS


class TestBuiltInPython:
    # A RunConfig built in Python gets parse_config's defaults and refusals.
    def test_stop_default_follows_a_start_above_the_band_centre(self):
        assert RunConfig(frequency_grid=FrequencyGridConfig(start_ghz=40.0)).frequencies_hz() == [40e9]

    @pytest.mark.parametrize("build, message", [
        (lambda: FrequencyGridConfig(40.0, 30.0), "frequency_grid.stop_ghz: must be >= start_ghz"),
        (lambda: ThetaGridConfig(10.0, 0.0), "theta_grid.stop_deg: must be >= start_deg"),
        (lambda: ThetaGridConfig(-100.0), "theta_grid: angles must lie within [-90, 90] degrees"),
        (lambda: RunConfig(slot=SlotConfig(length_mm=1e-322)), "SlotSpec: length_L must be > 0"),
    ], ids=["frequency-stop-before-start", "theta-stop-before-start", "theta-below-90", "slot-zero-metres"])
    def test_refused_at_construction(self, build, message):
        with pytest.raises(ConfigError) as exc:
            build()
        assert str(exc.value) == message


class TestSectionOwnedRules:
    # WeightsConfig owns the ratios rule and RunConfig the non-empty output_dir,
    # so a value built in Python reads the parser's message.
    def test_an_empty_output_dir_is_refused(self):
        with pytest.raises(ConfigError) as exc:
            RunConfig(output_dir="")
        assert str(exc.value) == "output_dir: must be a non-empty string"

    @pytest.mark.parametrize("ratios, message", [
        ((), "weights.ratios: must be a non-empty array of numbers"),
        ((0.0,), "weights.ratios[0]: must be > 0"),
        ((math.inf,), "weights.ratios[0]: must be finite"),
        ((True,), "weights.ratios[0]: must be a number"),
        (("a",), "weights.ratios[0]: must be a number"),
    ], ids=["empty", "zero", "inf", "bool", "str"])
    def test_ratios_are_refused_as_parsed(self, ratios, message):
        with pytest.raises(ConfigError) as exc:
            WeightsConfig(ratios=ratios)
        assert str(exc.value) == message

    def test_ratios_from_a_list_equal_the_parsed_ones(self):
        assert WeightsConfig(ratios=[1, 2]) == parse_config({"weights": {"ratios": [1, 2]}}).weights


# Faults in two sections: the first section in schema order reports, with
# its own cross-field rule, before any later section's field check.
@pytest.mark.parametrize("weights", [{"s1": -1}, {"bogus": 1}], ids=["weights-range", "weights-key"])
def test_first_faulty_section_reports(weights):
    with pytest.raises(ConfigError) as exc:
        parse_config({"frequency_grid": {"start_ghz": 40, "stop_ghz": 30}, "weights": weights})
    assert str(exc.value) == "frequency_grid.stop_ghz: must be >= start_ghz"


_SECTION_KEYS = {
    "slot": ["length_mm", "amplitude_e0"],
    "monopole": ["height_mm", "ground_radius_mm", "current_model"],
    "array": ["count_nx", "count_ny", "spacing_dx_mm", "spacing_dy_mm"],
    "strip": ["width_mm", "length_mm", "substrate", "substrate_thickness_mm",
              "conductivity_s_per_m", "roughness_um"],
    "frequency_grid": ["start_ghz", "stop_ghz", "step_ghz"],
    "theta_grid": ["start_deg", "stop_deg", "step_deg"],
    "weights": ["s1", "s2", "ratios"],
}


def _maybe(draw, section: dict) -> dict:
    return {k: v for k, v in section.items() if draw(st.booleans())}


@st.composite
def valid_configs(draw):
    def num(lo, hi):
        return draw(st.floats(lo, hi, allow_nan=False, allow_infinity=False))

    names = draw(st.lists(st.sampled_from(["CUSTOM", "FR4", "alt", "Z9"]), unique=True, max_size=3))
    substrates = {n: {"eps_r": num(1.0, 12.0), "tan_delta": num(0.0, 0.1), "thickness_mm": num(1e-3, 5.0)}
                  for n in names}
    f_start, t_start = num(1.0, 60.0), num(-90.0, 90.0)
    s2 = num(0.0, 5.0)
    geometry = {
        "slot": _maybe(draw, {"length_mm": num(0.1, 20.0), "amplitude_e0": num(0.01, 10.0)}),
        "monopole": _maybe(draw, {"height_mm": num(0.1, 5.0), "ground_radius_mm": num(0.5, 20.0),
                                  "current_model": draw(st.sampled_from(["sinusoidal", "triangular"]))}),
        "array": _maybe(draw, {"count_nx": draw(st.integers(1, 8)), "count_ny": draw(st.integers(1, 8)),
                               "spacing_dx_mm": num(0.1, 10.0), "spacing_dy_mm": num(0.1, 10.0)}),
        "strip": _maybe(draw, {"width_mm": num(0.01, 5.0), "length_mm": num(0.1, 20.0),
                               "substrate": draw(st.sampled_from(sorted(SUBSTRATE_PRESETS) + names)),
                               "substrate_thickness_mm": num(0.01, 2.0),
                               "conductivity_s_per_m": num(1e5, 1e8), "roughness_um": num(0.0, 5.0)}),
    }
    frequency_grid = _maybe(draw, {"start_ghz": f_start, "step_ghz": num(0.01, 10.0)})
    if "start_ghz" in frequency_grid and draw(st.booleans()):
        frequency_grid["stop_ghz"] = f_start + num(0.0, 50.0)
    data = {
        "geometry": _maybe(draw, geometry),
        "frequency_grid": frequency_grid,
        "theta_grid": _maybe(draw, {"start_deg": t_start, "stop_deg": num(t_start, 90.0),
                                    "step_deg": num(0.01, 5.0)}),
        "weights": _maybe(draw, {"s1": num(0.0, 5.0) if s2 > 0 else num(0.01, 5.0), "s2": s2,
                                 "ratios": draw(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=12))}),
        "output_dir": draw(st.text(min_size=1, max_size=8)),
    }
    # the strip may name a custom substrate, so the table always goes along
    return {**_maybe(draw, data), "substrates": substrates}


class TestRoundTripProperties:
    @settings(max_examples=300)
    @given(valid_configs())
    def test_serialize_then_parse_is_identity(self, data):
        cfg = parse_config(data)
        assert parse_config(serialize_config(cfg)) == cfg
        assert parse_config(json.loads(json.dumps(serialize_config(cfg)))) == cfg

    @settings(max_examples=300)
    @given(valid_configs())
    def test_grid_sections_built_in_python_equal_the_parsed_ones(self, data):
        cfg = parse_config(data)
        assert FrequencyGridConfig(**data.get("frequency_grid", {})) == cfg.frequency_grid
        assert ThetaGridConfig(**data.get("theta_grid", {})) == cfg.theta_grid

    @settings(max_examples=300)
    @given(valid_configs())
    def test_weights_section_built_in_python_equals_the_parsed_one(self, data):
        assert WeightsConfig(**data.get("weights", {})) == parse_config(data).weights

    @settings(max_examples=100)
    @given(valid_configs())
    def test_serialized_key_order(self, data):
        out = json.loads(json.dumps(serialize_config(parse_config(data))))
        assert list(out) == ["geometry", "substrates", "frequency_grid", "theta_grid", "weights", "output_dir"]
        assert list(out["geometry"]) == ["slot", "monopole", "array", "strip"]
        for name, keys in _SECTION_KEYS.items():
            assert list(out["geometry"].get(name, out.get(name))) == keys
        assert list(out["substrates"]) == sorted(out["substrates"])
        for entry in out["substrates"].values():
            assert list(entry) == ["eps_r", "tan_delta", "thickness_mm"]


def test_readme_default_config_matches_serializer():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Config.*?```json\n(.*?)```", readme, re.S).group(1)
    documented = json.loads(block)
    assert json.dumps(documented) == json.dumps(serialize_config(parse_config({})))


# The shape of a warm_reuse benchmark op: strip, monopole, array, a frequency
# grid and weights with three ratios.
WARM_REUSE_CONFIG = {
    "geometry": {
        "strip": {"substrate": "RO4003", "width_mm": 0.3, "length_mm": 2.1, "roughness_um": 0.4},
        "monopole": {"height_mm": 1.0, "ground_radius_mm": 1.5, "current_model": "triangular"},
        "array": {"count_nx": 2, "count_ny": 1, "spacing_dx_mm": 1.5},
    },
    "frequency_grid": {"start_ghz": 38.0, "stop_ghz": 44.0, "step_ghz": 0.75},
    "weights": {"s1": 1.2, "s2": 0.4, "ratios": [0.2, 0.7, 1.3]},
}


def test_parsing_and_reading_the_grids_keeps_no_memory_per_call():
    # CPython keeps a freed tuple on its size's free list, up to 2000 a size,
    # and one built from a generator comes from the 10-slot list instead. So a
    # schema walk that builds such tuples on every parse grows a long-lived
    # process by a few blocks a round until the lists fill. A full collection
    # empties them: one runs before the warm-up, none after it.
    def one_round():
        cfg = parse_config(WARM_REUSE_CONFIG)
        cfg.frequencies_hz()
        cfg.theta_grid_deg()

    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            one_round()
        before = sys.getallocatedblocks()
        for _ in range(1000):
            one_round()
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown < 200
