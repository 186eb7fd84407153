"""Byte-identity gate: a fixed set of CLI runs against the table in golden.json.

Each run calls `cli.main` in-process on its own config and output directory
and records its exit status, its stderr (the run's directory replaced by
"<run>") and the sha256 of every file left in the output directory. The
test fails on any difference, naming the run and what changed. A change
that moves an artifact on purpose regenerates the table with

    PYTHONPATH=src python tests/test_golden.py --write

which prints each entry it adds, changes or drops against the old table;
the change states which artifacts changed, and by how much, in CHANGES.md. The
table records the numpy version and machine it was written on, since
floating-point digests are compared only on the same toolchain.
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

import tiltbeam.cli as cli
from tiltbeam import radiators

TABLE = Path(__file__).with_name("golden.json")

CONFIGS = {
    "default": {},
    "one-point-grid": {"theta_grid": {"start_deg": 30.0, "stop_deg": 30.0, "step_deg": 0.25}},
    "300mm-disc": {"geometry": {"monopole": {"ground_radius_mm": 300.0}}},
    "triangular": {"geometry": {"monopole": {"current_model": "triangular"}}},
    "slot-only": {"weights": {"s2": 0.0}},
    "off-lattice-stop": {"theta_grid": {"start_deg": -89.9999999998, "stop_deg": 90.0, "step_deg": 0.5}},
    "1e-311-ghz": {"frequency_grid": {"start_ghz": 1e-311, "stop_ghz": 1e-311, "step_ghz": 1.0}},
}

# (config, argv after the config and output options). The default config
# runs every command with and without --svg; the others run the commands
# their change reaches, and --svg only where a command draws.
_FIELD_RUNS = (("pattern",), ("pattern", "--svg"), ("ratio-sweep",), ("stability",), ("scan",), ("scan", "--svg"))
RUNS = (
    [("default", (command, *svg)) for command in cli.COMMANDS for svg in ((), ("--svg",))]
    + [(config, argv) for config in list(CONFIGS)[1:] for argv in _FIELD_RUNS]
    + [("1e-311-ghz", ("loss",))]
)


def toolchain() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def record(root: Path) -> dict:
    """Run every entry of RUNS under root; return {"<run>/<item>": value}."""
    radiators._peak_reference.cache_clear()  # start cold, as a new process does
    table = {}
    for i, (config, argv) in enumerate(RUNS):
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
    return table


def test_cli_runs_match_the_golden_table(tmp_path):
    golden = json.loads(TABLE.read_text(encoding="utf-8"))
    written_on = {key: golden[key] for key in toolchain()}
    assert written_on == toolchain(), f"golden.json was written on {written_on}; this is {toolchain()}"
    want, got = golden["runs"], record(tmp_path)
    changed = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    assert not changed, f"{len(changed)} entries differ from golden.json: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    old = json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else {"runs": {}}
    with tempfile.TemporaryDirectory() as root:
        runs = record(Path(root))
    old_toolchain = {key: old.get(key) for key in toolchain()}
    if old_toolchain != toolchain():
        print(f"changed toolchain: {old_toolchain} -> {toolchain()}")
    for key in sorted(old["runs"].keys() | runs.keys()):
        if key not in runs:
            print(f"dropped {key}: {old['runs'][key]!r}")
        elif key not in old["runs"]:
            print(f"added {key}: {runs[key]!r}")
        elif old["runs"][key] != runs[key]:
            print(f"changed {key}: {old['runs'][key]!r} -> {runs[key]!r}")
    TABLE.write_text(json.dumps({**toolchain(), "runs": runs}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(RUNS)} runs, {len(runs)} entries to {TABLE}")
