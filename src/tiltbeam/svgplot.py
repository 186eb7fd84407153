"""Self-contained polar SVG rendering of pattern cuts.

Upper-half-plane polar axes: angle from the vertical (board normal), dB
magnitude relative to the cut's own peak mapped radially with a -40 dB
floor at the origin. Output is a pure function of the inputs, byte for byte.
"""

from __future__ import annotations

import math

from .synthesis import PatternCut, PatternMetrics

_CX = 320.0
_CY = 360.0
_RADIUS = 300.0
_FLOOR_DB = -40.0
_WIDTH = 640
_HEIGHT = 420

_RING_DB = (-30.0, -20.0, -10.0, 0.0)
_SPOKE_DEG = (-90.0, -60.0, -30.0, 0.0, 30.0, 60.0, 90.0)


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def _radial_fraction(db: float) -> float:
    return (db - _FLOOR_DB) / (-_FLOOR_DB)


def _point(theta_rad: float, fraction: float) -> tuple:
    r = fraction * _RADIUS
    return _CX + r * math.sin(theta_rad), _CY - r * math.cos(theta_rad)


def _text(x: str, y: str, style: str, body: str) -> str:
    return f'<text x="{x}" y="{y}" font-family="monospace" {style}>{body}</text>'


def _radius_line(theta_rad: float, style: str) -> str:
    """A line from the origin to the outer ring at theta_rad."""
    x, y = _point(theta_rad, 1.0)
    return f'<line x1="{_fmt(_CX)}" y1="{_fmt(_CY)}" x2="{_fmt(x)}" y2="{_fmt(y)}" {style}/>'


def render_polar_svg(cut: PatternCut, annotations: PatternMetrics) -> str:
    """Render a cut, in dB of its own peak, with its tilt marker and SLL annotation."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]

    for db in _RING_DB:
        r = _radial_fraction(db) * _RADIUS
        parts.append(
            f'<path d="M {_fmt(_CX - r)} {_fmt(_CY)} A {_fmt(r)} {_fmt(r)} 0 0 1 {_fmt(_CX + r)} {_fmt(_CY)}" '
            f'fill="none" stroke="#cccccc" stroke-width="1"/>'
        )
        parts.append(_text(_fmt(_CX + 4.0), _fmt(_CY - r + 12.0), 'font-size="10" fill="#888888"', f"{db:.0f} dB"))

    for deg in _SPOKE_DEG:
        th = math.radians(deg)
        parts.append(_radius_line(th, 'stroke="#dddddd" stroke-width="1"'))
        lx, ly = _point(th, 1.05)
        style = 'font-size="11" fill="#444444" text-anchor="middle"'
        parts.append(_text(_fmt(lx), _fmt(ly), style, f"{deg:.0f}&#176;"))

    coords = [_point(float(t), _radial_fraction(db)) for t, db in zip(cut.theta_grid, cut.relative_db(_FLOOR_DB))]
    if len(coords) == 1:
        x, y = coords[0]
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="#c02020"/>')
    else:
        points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in coords)
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#c02020" stroke-width="1.5"/>'
        )

    tilt_style = 'stroke="#2040c0" stroke-width="1" stroke-dasharray="6 4"'
    parts.append(_radius_line(math.radians(annotations.tilt_deg), tilt_style))

    sll_text = "none" if annotations.sll_dB == -math.inf else f"{annotations.sll_dB:.2f} dB"
    bw_text = "n/a" if math.isnan(annotations.beamwidth3dB_deg) else f"{annotations.beamwidth3dB_deg:.2f}&#176;"
    for y, text in ((24, f"tilt {annotations.tilt_deg:.2f}&#176;"), (42, f"SLL {sll_text}"),
                    (60, f"beamwidth {bw_text}")):
        parts.append(_text("16", str(y), 'font-size="13" fill="#222222"', text))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
