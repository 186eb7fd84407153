"""Output checks that run outside timing.

CLI artifacts are compared with the references committed under
`perfbench/reference/`, number by number:

* CSV cells agree to 1e-6 relative or 1e-9 absolute. The CLI prints nine
  significant digits, and a change of quadrature is expected to move the
  last of them.
* SVG numbers agree to one unit in the last printed decimal (coordinates
  carry three decimals, labels two) plus 1e-9; integers agree exactly.
* All text between numbers agrees exactly, and the file sets agree.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

_NUMBER = re.compile(
    r"(?<![A-Za-z_])(?:-?inf|nan)(?![A-Za-z_])|[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?"
)


def _split(text: str):
    return _NUMBER.split(text), _NUMBER.findall(text)


def _last_digit(token: str) -> float:
    mantissa = re.split("[eE]", token)[0]
    return 10.0 ** -len(mantissa.split(".")[1]) if "." in mantissa else 0.0


def _close(ref: str, got: str, csv: bool) -> bool:
    a, b = float(ref), float(got)
    if math.isnan(a) or math.isinf(a):
        return ref == got
    if csv:
        return abs(a - b) <= max(1e-6 * max(abs(a), abs(b)), 1e-9)
    return abs(a - b) <= _last_digit(ref) + 1e-9


def compare_text(ref: str, got: str, csv: bool) -> str | None:
    """None when `got` matches `ref`, else a description of the first mismatch."""
    ref_text, ref_nums = _split(ref)
    got_text, got_nums = _split(got)
    if ref_text != got_text:
        for i, (x, y) in enumerate(zip(ref_text, got_text)):
            if x != y:
                return f"text differs near number {i}: {x[:40]!r} != {y[:40]!r}"
        return "text differs in length"
    for i, (x, y) in enumerate(zip(ref_nums, got_nums)):
        if not _close(x, y, csv):
            return f"number {i} is {y}, reference {x}"
    return None


def compare_dir(ref_dir: Path, out_dir: Path) -> list[str]:
    """Mismatches between a reference artifact set and a run's output dir."""
    ref_files = sorted(p.name for p in ref_dir.iterdir())
    got_files = sorted(p.name for p in out_dir.iterdir() if not p.name.startswith("."))
    if ref_files != got_files:
        return [f"artifacts {got_files}, reference {ref_files}"]
    errors = []
    for name in ref_files:
        diff = compare_text(
            (ref_dir / name).read_text(encoding="utf-8"),
            (out_dir / name).read_text(encoding="utf-8"),
            name.endswith(".csv"),
        )
        if diff:
            errors.append(f"{name}: {diff}")
    return errors


def check_pattern_dir(out_dir: Path) -> list[str]:
    """Invariants of a `pattern --svg` result that has no committed reference."""
    errors = []
    names = sorted(p.name for p in out_dir.iterdir() if not p.name.startswith("."))
    if names != ["pattern.csv", "pattern.svg"]:
        return [f"artifacts {names}, expected pattern.csv and pattern.svg"]
    rows = (out_dir / "pattern.csv").read_text(encoding="utf-8").splitlines()[1:]
    mags = [float(r.split(",")[3]) for r in rows]
    if len(rows) != 721:
        errors.append(f"pattern.csv has {len(rows)} rows, expected 721")
    if mags and abs(max(mags)) > 1e-6:
        errors.append(f"pattern peak is {max(mags)} dB, expected 0")
    return errors


def check_spots(oracle, spots: list[dict], tol: float = 1e-6) -> list[str]:
    """Package post-field values against the independent oracle."""
    errors = []
    for spot in spots:
        want = oracle.pattern(spot["spot_theta"], spot["kh"], spot["ka"], spot["model"])
        for theta, (re_, im_), w in zip(spot["spot_theta"], spot["spot"], want):
            if abs(complex(re_, im_) - w) > tol:
                errors.append(
                    f"post field at kh={spot['kh']:.6g} ka={spot['ka']:.6g} theta={theta:.6g}: "
                    f"{complex(re_, im_)} vs oracle {w}"
                )
    return errors
