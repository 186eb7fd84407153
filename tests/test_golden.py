"""Byte-identity and work gate: a fixed set of CLI runs against golden.json
and golden_work.json.

Each run calls `cli.main` in-process on its own config and output directory,
from a cleared field cache as a new process starts, and records its exit
status, its stderr (the run's directory replaced by "<run>") and the sha256
of every file left in the output directory in golden.json, and the counts of
`specfun.WORK` (integrate calls, panels, kernel calls and values, J1 values,
new geometries) in golden_work.json. Each test fails on any difference,
naming the run and what changed. A change that moves an artifact or the work
on purpose regenerates both tables with

    PYTHONPATH=src python tests/test_golden.py --write

which prints each entry it adds, changes or drops against the old tables;
the change states which artifacts or counts changed, and by how much, in
CHANGES.md. Each table records the numpy version and machine it was written
on, since floating-point results are compared only on the same toolchain.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import tiltbeam.cli as cli
from tiltbeam import radiators, specfun

TABLE = Path(__file__).with_name("golden.json")
WORK_TABLE = Path(__file__).with_name("golden_work.json")
COUNTERS = ("integrate_calls", "panels", "kernel_calls", "kernel_values", "j1_values", "new_geometries")

CONFIGS = {
    "default": {},
    "one-point-grid": {"theta_grid": {"start_deg": 30.0, "stop_deg": 30.0, "step_deg": 0.25}},
    "300mm-disc": {"geometry": {"monopole": {"ground_radius_mm": 300.0}}},
    "triangular": {"geometry": {"monopole": {"current_model": "triangular"}}},
    "slot-only": {"weights": {"s2": 0.0}},
    "off-lattice-stop": {"theta_grid": {"start_deg": -89.9999999998, "stop_deg": 90.0, "step_deg": 0.5}},
    "1e-311-ghz": {"frequency_grid": {"start_ghz": 1e-311, "stop_ghz": 1e-311, "step_ghz": 1.0}},
    "band": {"frequency_grid": {"start_ghz": 28.0, "stop_ghz": 38.0, "step_ghz": 1.0}},
    "300mm-off-lattice-point": {"geometry": {"monopole": {"ground_radius_mm": 300.0}},
                                "theta_grid": {"start_deg": 30.1, "stop_deg": 30.1, "step_deg": 0.25}},
}

# (config, argv after the config and output options). The default config
# runs every command with and without --svg; the others run the commands
# their change reaches, and --svg only where a command draws. The configs
# of _ONE_COMMAND_RUNS run that one command only: the multi-frequency
# study's work, and the work of one off-grid angle on the 300 mm disc.
_FIELD_RUNS = (("pattern",), ("pattern", "--svg"), ("ratio-sweep",), ("stability",), ("scan",), ("scan", "--svg"))
_ONE_COMMAND_RUNS = {"band": ("stability",), "300mm-off-lattice-point": ("pattern",)}
RUNS = (
    [("default", (command, *svg)) for command in cli.COMMANDS for svg in ((), ("--svg",))]
    + [(config, argv) for config in list(CONFIGS)[1:] if config not in _ONE_COMMAND_RUNS for argv in _FIELD_RUNS]
    + [("1e-311-ghz", ("loss",))]
    + list(_ONE_COMMAND_RUNS.items())
)


def toolchain() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def record(root: Path, runs=RUNS) -> tuple[dict, dict]:
    """Run each entry of runs under root; return {"<run>/<item>": value} for
    golden.json and {"<run>/<counter>": count} for golden_work.json."""
    table, work = {}, {}
    for i, (config, argv) in enumerate(runs):
        radiators._peak_reference.cache_clear()  # start cold, as a new process does
        specfun.WORK.clear()
        run_dir = root / f"run{i}"
        run_dir.mkdir()
        cfg = run_dir / "config.json"
        cfg.write_text(json.dumps(CONFIGS[config]), encoding="utf-8")
        out = run_dir / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]])
        name = f"{config}/{' '.join(argv)}"
        table[f"{name}/exit"] = code
        table[f"{name}/stderr"] = stderr.getvalue().replace(str(run_dir), "<run>")
        for path in sorted(out.iterdir()) if out.is_dir() else ():
            table[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        work.update({f"{name}/{counter}": specfun.WORK[counter] for counter in COUNTERS})
    return table, work


def load(path: Path) -> dict:
    # the runs of the table at path, which must be this toolchain's
    table = json.loads(path.read_text(encoding="utf-8"))
    written_on = {key: table[key] for key in toolchain()}
    assert written_on == toolchain(), f"{path.name} was written on {written_on}; this is {toolchain()}"
    return table["runs"]


def differences(want: dict, got: dict) -> list:
    return sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    return record(tmp_path_factory.mktemp("golden"))


def test_cli_runs_match_the_golden_table(recorded):
    changed = differences(load(TABLE), recorded[0])
    assert not changed, f"{len(changed)} entries differ from golden.json: {changed}"


def test_cli_runs_match_the_work_table(recorded):
    changed = differences(load(WORK_TABLE), recorded[1])
    assert not changed, f"{len(changed)} counts differ from golden_work.json: {changed}"


def test_doubling_one_levels_panels_fails_only_the_work_table(monkeypatch, tmp_path):
    # The first level of each integral gets twice its panels. Its estimates
    # differ from the first level's only far below the nine printed digits:
    # the artifacts hold to the byte, and only the work table sees the change.
    composite, started = specfun._composite, set()

    def first_level_doubled(f, a, b, panels):
        first = specfun.WORK["integrate_calls"] not in started
        started.add(specfun.WORK["integrate_calls"])
        return composite(f, a, b, 2 * panels if first else panels)

    monkeypatch.setattr(specfun, "_composite", first_level_doubled)
    table, work = record(tmp_path, [("default", ("pattern",))])
    golden, counts = load(TABLE), load(WORK_TABLE)
    assert differences({key: golden[key] for key in table}, table) == []
    assert differences({key: counts[key] for key in work}, work) == [
        f"default/pattern/{counter}" for counter in ("j1_values", "kernel_calls", "kernel_values", "panels")]


def rewrite(path: Path, runs: dict) -> None:
    # prints each entry added, changed or dropped against the old table
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"runs": {}}
    old_toolchain = {key: old.get(key) for key in toolchain()}
    if old_toolchain != toolchain():
        print(f"changed toolchain of {path.name}: {old_toolchain} -> {toolchain()}")
    for key in sorted(old["runs"].keys() | runs.keys()):
        if key not in runs:
            print(f"dropped {key}: {old['runs'][key]!r}")
        elif key not in old["runs"]:
            print(f"added {key}: {runs[key]!r}")
        elif old["runs"][key] != runs[key]:
            print(f"changed {key}: {old['runs'][key]!r} -> {runs[key]!r}")
    path.write_text(json.dumps({**toolchain(), "runs": runs}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(RUNS)} runs, {len(runs)} entries to {path}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as root:
        table, work = record(Path(root))
    rewrite(TABLE, table)
    rewrite(WORK_TABLE, work)
