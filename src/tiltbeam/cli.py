"""Command-line entry point: config in, CSV and SVG artifacts out.

Every command computes its full result, then stages every file as a temp
file before renaming any into place: a run that fails to compute creates
no directory, and a failed write leaves the previous artifacts as they
were. A target that is a directory is refused before any artifact is
replaced. Any failure or interrupt removes the run's temp files, but an
interrupt between two renames can still leave a mix of old and new
artifacts. A flock on the output directory itself serializes the writes of
concurrent runs (POSIX only); no file holds it, and the kernel releases it
when the process exits or is killed. Identical inputs give identical bytes.
"""

from __future__ import annotations

import errno
import fcntl
import math
import os
import sys
from pathlib import Path

from .circuitmodel import effective_permittivity, half_wave_resonance, loss_budget
from .config import ConfigError, RunConfig, load_config
from .radiators import FrequencyContext
from .scanstudy import default_scan_study
from .specfun import ConvergenceError
from .svgplot import render_polar_svg
from .synthesis import (
    BAND_CENTER_HZ,
    beam_stability,
    metrics_grid,
    pattern_metrics,
    ratio_sweep,
    synthesize_pattern,
)

# CSV floor for log magnitudes of exact pattern nulls.
_DB_FLOOR = -400.0


class _UsageError(Exception):
    pass


def _fmt(value) -> str:
    """Nine-significant-digit cell formatting, stable across runs."""
    if isinstance(value, str):
        return value
    v = float(value)
    if v == 0.0:
        v = 0.0  # drop the sign of negative zero
    return f"{v:.9g}"


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _build_pattern(cfg: RunConfig, svg: bool) -> dict:
    ctx = FrequencyContext(cfg.frequencies_hz()[0])
    grid_deg = cfg.theta_grid_deg()
    theta = metrics_grid(cfg.theta_grid_rad()) if svg else cfg.theta_grid_rad()
    cut = synthesize_pattern(
        cfg.excitation_weights(), theta,
        cfg.slot_spec(), cfg.monopole_spec(), cfg.array_layout(), ctx,
    )
    rows = [(float(d), v.real, v.imag, db) for d, v, db in zip(grid_deg, cut.values, cut.relative_db(_DB_FLOOR))]
    artifacts = {"pattern.csv": _csv(("theta_deg", "re", "im", "mag_db"), rows)}
    if svg:
        artifacts["pattern.svg"] = render_polar_svg(cut, pattern_metrics(cut))
    return artifacts


def _build_ratio_sweep(cfg: RunConfig, svg: bool) -> dict:
    ctx = FrequencyContext(cfg.frequencies_hz()[0])
    result = ratio_sweep(cfg.weights.ratios, cfg.geometry(), ctx, cfg.theta_grid_rad())
    rows = [("row", ratio, m.tilt_deg, m.sll_dB) for ratio, m in zip(result.ratios, result.rows)]
    rows.append(("best", *rows[result.ratios.index(result.best_ratio)][1:]))
    return {"ratio_sweep.csv": _csv(("kind", "ratio", "tilt_deg", "sll_db"), rows)}


def _build_stability(cfg: RunConfig, svg: bool) -> dict:
    result = beam_stability(
        cfg.frequencies_hz(), cfg.geometry(), cfg.excitation_weights(), cfg.theta_grid_rad()
    )
    rows = [
        ("row", f / 1e9, m.tilt_deg, m.sll_dB, m.beamwidth3dB_deg, abs(m.tilt_deg - result.reference_tilt_deg))
        for f, m in zip(result.frequencies_hz, result.rows)
    ]
    rows.append(
        ("summary", BAND_CENTER_HZ / 1e9, result.reference_tilt_deg, math.nan, math.nan,
         result.max_tilt_deviation_deg)
    )
    header = ("kind", "f_ghz", "tilt_deg", "sll_db", "beamwidth3db_deg", "tilt_deviation_deg")
    return {"stability.csv": _csv(header, rows)}


def _scan_label(commanded_deg: float) -> str:
    return f"{commanded_deg:g}".replace("-", "m").replace(".", "_")


def _build_scan(cfg: RunConfig, svg: bool) -> dict:
    ctx = FrequencyContext(cfg.frequencies_hz()[0])
    study = default_scan_study(cfg.geometry(), ctx, theta_grid=cfg.theta_grid_rad())
    rows = [
        (r.commanded_deg, r.achieved_deg, r.pointing_error_deg, r.scan_loss_dB, r.sll_dB)
        for r in study.reports
    ]
    header = ("commanded_deg", "achieved_deg", "pointing_error_deg", "scan_loss_db", "sll_db")
    artifacts = {"scan.csv": _csv(header, rows)}
    if svg:
        for cut, report in zip(study.cuts, study.reports):
            name = f"scan_{_scan_label(report.commanded_deg)}.svg"
            artifacts[name] = render_polar_svg(cut, pattern_metrics(cut))
    return artifacts


def _build_resonance(cfg: RunConfig, svg: bool) -> dict:
    strip = cfg.strip_spec()
    eps_r = strip.substrate.eps_r
    eps_eff = effective_permittivity(strip)
    row = (
        cfg.strip.length_mm,
        eps_r,
        half_wave_resonance(strip.length_l, eps_r) / 1e9,
        eps_eff,
        half_wave_resonance(strip.length_l, eps_eff) / 1e9,
    )
    header = ("length_mm", "eps_r", "f_raw_ghz", "eps_eff", "f_eff_ghz")
    return {"resonance.csv": _csv(header, [row])}


def _build_loss(cfg: RunConfig, svg: bool) -> dict:
    strip = cfg.strip_spec()
    rows = []
    for f in cfg.frequencies_hz():
        b = loss_budget(strip, f)
        rows.append((f / 1e9, b.alpha_c, b.alpha_d, b.alpha_r, b.alpha_l, b.total, b.note))
    header = ("f_ghz", "alpha_c_db", "alpha_d_db", "alpha_r_db", "alpha_l_db", "total_db", "note")
    return {"loss.csv": _csv(header, rows)}


_BUILDERS = {
    "pattern": _build_pattern,
    "ratio-sweep": _build_ratio_sweep,
    "stability": _build_stability,
    "scan": _build_scan,
    "resonance": _build_resonance,
    "loss": _build_loss,
}

COMMANDS = tuple(_BUILDERS)

_USAGE = "usage: tiltbeam <command> --config <path> [--out <dir>] [--svg]\ncommands: " + ", ".join(COMMANDS)


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def run_command(name: str, cfg: RunConfig, out_dir=None, svg: bool = False) -> int:
    """Execute one command against a validated config. Returns exit status."""
    if name not in _BUILDERS:
        print(f"error: unknown command {name!r}\n{_USAGE}", file=sys.stderr)
        return 2
    try:
        artifacts = sorted(_BUILDERS[name](cfg, svg).items())
    except (ValueError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ConvergenceError) else 2
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        dir_fd = os.open(out, os.O_RDONLY | os.O_DIRECTORY)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        print(f"error: cannot prepare output directory {str(out)!r}: {exc}", file=sys.stderr)
        return 2
    staged = []
    try:
        fcntl.flock(dir_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        # Stage the whole set first, so a failed write leaves the old one
        # intact. A rename onto a directory would fail only after the earlier
        # renames had replaced their files, so such a target is refused here.
        for fname, text in artifacts:
            target = out / fname
            if target.is_dir() and not target.is_symlink():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
            staged.append(out / (fname + ".tmp"))
            _write_text(staged[-1], text)
        for tmp in staged:
            os.replace(tmp, tmp.with_suffix(""))
    except BlockingIOError:  # only the flock raises it here
        print(f"error: output directory {str(out)!r} is locked by another run", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write artifacts to {str(out)!r}: {exc}", file=sys.stderr)
        return 2
    finally:
        try:  # after any failure or interrupt, under the lock; a directory there is not this run's
            for tmp in staged:
                if not tmp.is_dir():
                    tmp.unlink(missing_ok=True)
        finally:
            os.close(dir_fd)
    return 0


_VALUE_OPTIONS = {"--config": "a path", "--out": "a directory"}


def _parse_argv(argv):
    if not argv:
        raise _UsageError("missing command")
    command, rest = argv[0], iter(argv[1:])
    values, svg = {}, False
    for arg in rest:
        if arg in _VALUE_OPTIONS:
            values[arg] = next(rest, None)
            if not values[arg]:  # absent or empty: Path("") is the working directory
                raise _UsageError(f"{arg} requires {_VALUE_OPTIONS[arg]}")
        elif arg == "--svg":
            svg = True
        else:
            raise _UsageError(f"unrecognized argument {arg!r}")
    if command not in COMMANDS:
        raise _UsageError(f"unknown command {command!r}")
    if "--config" not in values:
        raise _UsageError("--config is required")
    return command, values["--config"], values.get("--out"), svg


def main(argv=None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        command, config_path, out_dir, svg = _parse_argv(args)
    except _UsageError as exc:
        print(f"error: {exc}\n{_USAGE}", file=sys.stderr)
        return 2
    try:
        cfg = load_config(config_path)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_command(command, cfg, out_dir=out_dir, svg=svg)


if __name__ == "__main__":
    sys.exit(main())
