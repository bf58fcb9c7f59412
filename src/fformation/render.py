"""Hand-rolled SVG rendering: scene figures and per-size bar charts.

Scenes draw each agent as a wedge pointing along its body heading,
each group as a convex-hull outline with a centroid marker. Output is
a standalone SVG string with no external references.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .characterization import SizeStats, group_center
from .core import Frame, GroupSet, ValidationError

_GROUP_COLORS = (
    "#1b6ca8",
    "#c05621",
    "#2f855a",
    "#805ad5",
    "#b83280",
    "#986801",
)
_LONER_COLOR = "#666666"


def _convex_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Monotone-chain convex hull; collinear inputs collapse to a segment."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out: list[tuple[float, float]] = []
        for p in seq:
            while len(out) >= 2:
                (ox, oy), (px, py) = out[-2], out[-1]
                if (px - ox) * (p[1] - oy) - (py - oy) * (p[0] - ox) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


class _WorldToSvg:
    """Maps world meters (y up) onto an SVG viewport (y down); a point it
    cannot place at finite coordinates raises ValidationError."""

    def __init__(self, frame: Frame, width: int, height: int, pad: float):
        self.frame_id = frame.frame_id
        xs = [a.x for a in frame.agents]
        ys = [a.y for a in frame.agents]
        if xs:
            x0, x1 = min(xs) - pad, max(xs) + pad
            y0, y1 = min(ys) - pad, max(ys) + pad
        else:
            x0, x1, y0, y1 = -1.0, 1.0, -1.0, 1.0
        span = max(x1 - x0, y1 - y0, 1e-9)
        if span == math.inf:
            raise self._too_wide()
        self.scale = min(width, height) / span
        self.x0 = (x0 + x1) / 2 - width / self.scale / 2
        self.y1 = (y0 + y1) / 2 + height / self.scale / 2

    def _too_wide(self) -> ValidationError:
        return ValidationError(f"frame {self.frame_id}: coordinates span too wide a range to draw")

    def pt(self, x: float, y: float) -> tuple[float, float]:
        sx, sy = (x - self.x0) * self.scale, (self.y1 - y) * self.scale
        if not (math.isfinite(sx) and math.isfinite(sy)):
            raise self._too_wide()
        return sx, sy


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_frame_svg(
    frame: Frame,
    groups: Optional[GroupSet] = None,
    width: int = 640,
    height: int = 640,
) -> str:
    """Render one frame; `groups` defaults to the frame's truth, if any."""
    if groups is None:
        groups = frame.truth if frame.truth is not None else GroupSet()
    world = _WorldToSvg(frame, width, height, pad=1.0)
    color_of: dict[int, str] = {}
    for gi, g in enumerate(groups.groups):
        for a in g:
            color_of[a] = _GROUP_COLORS[gi % len(_GROUP_COLORS)]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#fcfcf9"/>',
    ]
    # Axes through the world origin.
    ox, oy = world.pt(0.0, 0.0)
    parts.append(
        f'<g class="axes" stroke="#cccccc" stroke-width="1">'
        f'<line x1="0" y1="{_fmt(oy)}" x2="{width}" y2="{_fmt(oy)}"/>'
        f'<line x1="{_fmt(ox)}" y1="0" x2="{_fmt(ox)}" y2="{height}"/></g>'
    )

    pose_by_id = {a.agent_id: a for a in frame.agents}
    for gi, g in enumerate(groups.groups):
        color = _GROUP_COLORS[gi % len(_GROUP_COLORS)]
        members = [pose_by_id[a] for a in sorted(g) if a in pose_by_id]
        if len(members) < 2:
            continue
        hull = _convex_hull([(p.x, p.y) for p in members])
        coords = [world.pt(x, y) for x, y in hull]
        d = "M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in coords)
        if len(coords) > 2:
            d += " Z"
        parts.append(
            f'<path class="group-hull" d="{d}" fill="none" stroke="{color}" '
            f'stroke-width="2" stroke-dasharray="6 4" opacity="0.8"/>'
        )
        cx, cy = group_center(members)
        sx, sy = world.pt(cx, cy)
        parts.append(
            f'<circle class="group-center" cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="4" '
            f'fill="{color}" opacity="0.9"/>'
        )

    # Wedge geometry in meters: tip ahead of the agent, flared base behind.
    tip_len, base_len, flare = 0.35, 0.20, math.radians(140)
    for a in frame.agents:
        color = color_of.get(a.agent_id, _LONER_COLOR)
        th = a.body_theta
        corners = [
            (a.x + tip_len * math.cos(th), a.y + tip_len * math.sin(th)),
            (a.x + base_len * math.cos(th + flare), a.y + base_len * math.sin(th + flare)),
            (a.x + base_len * math.cos(th - flare), a.y + base_len * math.sin(th - flare)),
        ]
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (world.pt(x, y) for x, y in corners))
        parts.append(f'<polygon class="agent-wedge" points="{pts}" fill="{color}"/>')
        lx, ly = world.pt(a.x, a.y)
        parts.append(
            f'<text x="{_fmt(lx + 8)}" y="{_fmt(ly - 8)}" font-size="12" '
            f'font-family="sans-serif" fill="#333333">{a.agent_id}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_size_chart_svg(stats: Sequence[SizeStats], width: int = 640) -> str:
    """Bar charts of mean tightness and mean symmetry per group size."""
    panel_h, gap, margin = 220, 40, 50
    height = 2 * panel_h + gap + 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#fcfcf9"/>',
    ]

    def panel(top: float, title: str, values: list[float], unit: str) -> None:
        parts.append(
            f'<text x="{margin}" y="{top - 10}" font-size="14" font-family="sans-serif" '
            f'fill="#333333">{title}</text>'
        )
        vmax = max(values, default=0.0) or 1.0
        inner_w = width - 2 * margin
        slot = inner_w / max(len(stats), 1)
        parts.append(
            f'<line x1="{margin}" y1="{top + panel_h}" x2="{width - margin}" '
            f'y2="{top + panel_h}" stroke="#999999"/>'
        )
        for i, (st, v) in enumerate(zip(stats, values)):
            bar_h = panel_h * v / vmax
            x = margin + i * slot + slot * 0.15
            parts.append(
                f'<rect class="bar" x="{_fmt(x)}" y="{_fmt(top + panel_h - bar_h)}" '
                f'width="{_fmt(slot * 0.7)}" height="{_fmt(bar_h)}" fill="#1b6ca8"/>'
            )
            parts.append(
                f'<text x="{_fmt(x + slot * 0.35)}" y="{top + panel_h + 16}" font-size="12" '
                f'font-family="sans-serif" text-anchor="middle" fill="#333333">{st.size}</text>'
            )
            parts.append(
                f'<text x="{_fmt(x + slot * 0.35)}" y="{_fmt(top + panel_h - bar_h - 4)}" '
                f'font-size="11" font-family="sans-serif" text-anchor="middle" '
                f'fill="#333333">{v:.2f}{unit}</text>'
            )

    panel(margin, "Mean tightness by group size (m)", [s.mean_tightness for s in stats], "")
    panel(
        margin + panel_h + gap,
        "Mean symmetry by group size (deg)",
        [s.mean_symmetry for s in stats],
        "",
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
