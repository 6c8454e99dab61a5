"""Minimal static SVG emitter for line plots (log-x) and boxplots.

Pure string formatting with fixed float precision, so output is
deterministic; emission never feeds back into CSV/JSON content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

WIDTH = 760.0
HEIGHT = 480.0
MARGIN_LEFT = 64.0
MARGIN_RIGHT = 16.0
MARGIN_TOP = 34.0
MARGIN_BOTTOM = 46.0
INNER_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
INNER_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

PALETTE = ("#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#d68910", "#16a085")
DASHES = ("", "7,4", "2,3", "7,2,2,2", "10,3", "4,4")


def _fmt(x: float) -> str:
    return format(x, ".4f").rstrip("0").rstrip(".")


@dataclass
class Series:
    label: str
    xs: list[float]
    ys: list[float]
    color: str = ""
    dash: str = ""
    marker: str = ""    # "", "circle", "square", "triangle"


@dataclass
class LinePlot:
    title: str
    xlabel: str
    ylabel: str
    series: list[Series] = field(default_factory=list)

    def add(self, label, xs, ys, marker=""):
        k = len(self.series)
        self.series.append(
            Series(
                label=label,
                xs=[float(x) for x in xs],
                ys=[float(y) for y in ys],
                color=PALETTE[k % len(PALETTE)],
                dash=DASHES[k % len(DASHES)],
                marker=marker,
            )
        )

    def render(self) -> str:
        pts = [
            (x, y)
            for s in self.series
            for x, y in zip(s.xs, s.ys)
            if math.isfinite(x) and math.isfinite(y) and x > 0
        ]
        if not pts:
            return _document([_text(WIDTH / 2, HEIGHT / 2, "no data", anchor="middle")])
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        x_lo, x_hi = math.log10(min(xs)), math.log10(max(xs))
        y_lo, y_hi = min(0.0, min(ys)), max(1.0, max(ys))
        if x_hi <= x_lo:
            x_hi = x_lo + 1.0
        if y_hi <= y_lo:
            y_hi = y_lo + 1.0

        def px(x: float) -> float:
            return MARGIN_LEFT + (math.log10(x) - x_lo) / (x_hi - x_lo) * INNER_W

        def py(y: float) -> float:
            return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * INNER_H

        parts = [_frame(self.title, self.xlabel, self.ylabel)]
        dec_lo, dec_hi = math.ceil(x_lo - 1e-9), math.floor(x_hi + 1e-9)
        for d in range(dec_lo, dec_hi + 1):
            x = MARGIN_LEFT + (d - x_lo) / (x_hi - x_lo) * INNER_W
            parts.append(_line(x, MARGIN_TOP, x, MARGIN_TOP + INNER_H, "#dddddd"))
            parts.append(_text(x, MARGIN_TOP + INNER_H + 16, f"1e{d}", anchor="middle", size=11))
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            yv = y_lo + frac * (y_hi - y_lo)
            y = py(yv)
            parts.append(_line(MARGIN_LEFT, y, MARGIN_LEFT + INNER_W, y, "#dddddd"))
            parts.append(_text(MARGIN_LEFT - 6, y + 4, _fmt(yv), anchor="end", size=11))
        for s in self.series:
            coords = [
                (px(x), py(y))
                for x, y in zip(s.xs, s.ys)
                if math.isfinite(x) and math.isfinite(y) and x > 0
            ]
            if not coords:
                continue
            path = " ".join(f"{_fmt(cx)},{_fmt(cy)}" for cx, cy in coords)
            dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
            parts.append(
                f'<polyline fill="none" stroke="{s.color}" stroke-width="1.6"{dash} points="{path}"/>'
            )
            if s.marker:
                step = max(1, len(coords) // 20)
                for cx, cy in coords[::step]:
                    parts.append(_marker(s.marker, cx, cy, s.color))
        for k, s in enumerate(self.series):
            ly = MARGIN_TOP + 8 + 16 * k
            lx = MARGIN_LEFT + INNER_W - 190
            dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
            parts.append(f'<line x1="{_fmt(lx)}" y1="{_fmt(ly)}" x2="{_fmt(lx + 26)}" y2="{_fmt(ly)}" stroke="{s.color}" stroke-width="1.6"{dash}/>')
            if s.marker:
                parts.append(_marker(s.marker, lx + 13, ly, s.color))
            parts.append(_text(lx + 32, ly + 4, s.label, size=11))
        return _document(parts)


def render_boxplot(
    labels: list[str],
    five_numbers: list[tuple[float, float, float, float, float]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Boxes from (min, Q1, median, Q3, max) per category."""
    y_lo = min(0.0, min(f[0] for f in five_numbers))
    y_hi = max(f[4] for f in five_numbers)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    def py(y: float) -> float:
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * INNER_H

    parts = [_frame(title, xlabel, ylabel)]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        yv = y_lo + frac * (y_hi - y_lo)
        y = py(yv)
        parts.append(_line(MARGIN_LEFT, y, MARGIN_LEFT + INNER_W, y, "#dddddd"))
        parts.append(_text(MARGIN_LEFT - 6, y + 4, _fmt(yv), anchor="end", size=11))
    slot = INNER_W / len(five_numbers)
    box_w = slot * 0.5
    for k, (label, (lo, q1, med, q3, hi)) in enumerate(zip(labels, five_numbers)):
        cx = MARGIN_LEFT + slot * (k + 0.5)
        parts.append(_line(cx, py(lo), cx, py(q1), "#333333"))
        parts.append(_line(cx, py(q3), cx, py(hi), "#333333"))
        parts.append(_line(cx - box_w / 4, py(lo), cx + box_w / 4, py(lo), "#333333"))
        parts.append(_line(cx - box_w / 4, py(hi), cx + box_w / 4, py(hi), "#333333"))
        parts.append(
            f'<rect x="{_fmt(cx - box_w / 2)}" y="{_fmt(py(q3))}" width="{_fmt(box_w)}" '
            f'height="{_fmt(max(0.5, py(q1) - py(q3)))}" fill="#a9cce3" stroke="#1b6ca8"/>'
        )
        parts.append(_line(cx - box_w / 2, py(med), cx + box_w / 2, py(med), "#c0392b"))
        parts.append(_text(cx, MARGIN_TOP + INNER_H + 16, label, anchor="middle", size=11))
    return _document(parts)


def _marker(kind: str, cx: float, cy: float, color: str) -> str:
    if kind == "square":
        return f'<rect x="{_fmt(cx - 3)}" y="{_fmt(cy - 3)}" width="6" height="6" fill="{color}"/>'
    if kind == "triangle":
        return (
            f'<polygon points="{_fmt(cx)},{_fmt(cy - 4)} {_fmt(cx - 3.5)},{_fmt(cy + 3)} '
            f'{_fmt(cx + 3.5)},{_fmt(cy + 3)}" fill="{color}"/>'
        )
    return f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" fill="{color}"/>'


def _line(x1, y1, x2, y2, color) -> str:
    return f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="{color}"/>'


def _text(x, y, content, anchor="start", size=12) -> str:
    content = content.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="Helvetica,Arial,sans-serif" '
        f'font-size="{size}" text-anchor="{anchor}">{content}</text>'
    )


def _frame(title, xlabel, ylabel) -> str:
    parts = [
        f'<rect x="{_fmt(MARGIN_LEFT)}" y="{_fmt(MARGIN_TOP)}" width="{_fmt(INNER_W)}" '
        f'height="{_fmt(INNER_H)}" fill="none" stroke="#444444"/>',
        _text(WIDTH / 2, 20, title, anchor="middle", size=14),
        _text(WIDTH / 2, HEIGHT - 10, xlabel, anchor="middle", size=12),
        f'<text x="14" y="{_fmt(HEIGHT / 2)}" font-family="Helvetica,Arial,sans-serif" '
        f'font-size="12" text-anchor="middle" transform="rotate(-90 14 {_fmt(HEIGHT / 2)})">{ylabel}</text>',
    ]
    return "\n".join(parts)


def _document(parts: list[str]) -> str:
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" '
        f'viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">\n<rect width="100%" height="100%" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )
