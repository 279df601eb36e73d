"""Minimal self-contained SVG line/scatter plots (no plotting dependency).

Deterministic text output: fixed canvas, fixed precision, data-ordered
elements.  Log-log axes with decade ticks, multiple labeled series with
markers.
"""

from __future__ import annotations

import math

_WIDTH, _HEIGHT = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 40, 55
_COLORS = ("#1f4e8c", "#b03a2e", "#1e8449", "#7d3c98", "#b7950b", "#117a8b")


def _fmt(x: float) -> str:
    return format(x, ".2f")


def _tick_label(v: float) -> str:
    """Label of a decade tick, v > 0."""
    return format(v, ".6g") if 1e-3 <= v < 1e4 else format(v, ".1e")


def _log_ticks(lo: float, hi: float):
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0**e for e in range(int(lo_e), int(hi_e) + 1) if lo <= 10.0**e <= hi]


def line_plot(
    path: str,
    series,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Write a log-log SVG plot; series is a list of (label, xs, ys)
    triples, and points with a nonpositive coordinate are left out."""
    pts = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys) if x > 0 and y > 0]
    if not pts:
        pts = [(1.0, 1.0)]
    x_lo, x_hi = min(math.log10(p[0]) for p in pts), max(math.log10(p[0]) for p in pts)
    y_lo, y_hi = min(math.log10(p[1]) for p in pts), max(math.log10(p[1]) for p in pts)
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_x = 0.05 * (x_hi - x_lo)
    pad_y = 0.08 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
    plot_w = _WIDTH - _ML - _MR
    plot_h = _HEIGHT - _MT - _MB

    def sx(v):
        return _ML + (math.log10(v) - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return _MT + plot_h - (math.log10(v) - y_lo) / (y_hi - y_lo) * plot_h

    out = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="'
        + str(_WIDTH)
        + '" height="'
        + str(_HEIGHT)
        + '" viewBox="0 0 '
        + str(_WIDTH)
        + " "
        + str(_HEIGHT)
        + '">'
    )
    out.append('<rect width="100%" height="100%" fill="white"/>')
    out.append(
        '<rect x="'
        + _fmt(_ML)
        + '" y="'
        + _fmt(_MT)
        + '" width="'
        + _fmt(plot_w)
        + '" height="'
        + _fmt(plot_h)
        + '" fill="none" stroke="#444444" stroke-width="1"/>'
    )
    if title:
        out.append(
            '<text x="'
            + _fmt(_WIDTH / 2)
            + '" y="24" font-family="sans-serif" font-size="15" text-anchor="middle">'
            + title
            + "</text>"
        )

    xticks = _log_ticks(10.0**x_lo, 10.0**x_hi)
    yticks = _log_ticks(10.0**y_lo, 10.0**y_hi)
    for t in xticks:
        px = sx(t)
        out.append(
            '<line x1="'
            + _fmt(px)
            + '" y1="'
            + _fmt(_MT + plot_h)
            + '" x2="'
            + _fmt(px)
            + '" y2="'
            + _fmt(_MT + plot_h + 5)
            + '" stroke="#444444"/>'
        )
        out.append(
            '<text x="'
            + _fmt(px)
            + '" y="'
            + _fmt(_MT + plot_h + 20)
            + '" font-family="sans-serif" font-size="11" text-anchor="middle">'
            + _tick_label(t)
            + "</text>"
        )
    for t in yticks:
        py = sy(t)
        out.append(
            '<line x1="'
            + _fmt(_ML - 5)
            + '" y1="'
            + _fmt(py)
            + '" x2="'
            + _fmt(_ML)
            + '" y2="'
            + _fmt(py)
            + '" stroke="#444444"/>'
        )
        out.append(
            '<text x="'
            + _fmt(_ML - 9)
            + '" y="'
            + _fmt(py + 4)
            + '" font-family="sans-serif" font-size="11" text-anchor="end">'
            + _tick_label(t)
            + "</text>"
        )
    if xlabel:
        out.append(
            '<text x="'
            + _fmt(_ML + plot_w / 2)
            + '" y="'
            + _fmt(_HEIGHT - 12)
            + '" font-family="sans-serif" font-size="13" text-anchor="middle">'
            + xlabel
            + "</text>"
        )
    if ylabel:
        cy = _MT + plot_h / 2
        out.append(
            '<text x="18" y="'
            + _fmt(cy)
            + '" font-family="sans-serif" font-size="13" text-anchor="middle" transform="rotate(-90 18 '
            + _fmt(cy)
            + ')">'
            + ylabel
            + "</text>"
        )

    for idx, (label, xs, ys) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        coords = [(sx(x), sy(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
        if len(coords) >= 2:
            pts_attr = " ".join(_fmt(px) + "," + _fmt(py) for px, py in coords)
            out.append(
                '<polyline points="'
                + pts_attr
                + '" fill="none" stroke="'
                + color
                + '" stroke-width="1.8"/>'
            )
        for px, py in coords:
            out.append(
                '<circle cx="'
                + _fmt(px)
                + '" cy="'
                + _fmt(py)
                + '" r="3" fill="'
                + color
                + '"/>'
            )
        ly = _MT + 16 + 16 * idx
        out.append(
            '<line x1="'
            + _fmt(_ML + 8)
            + '" y1="'
            + _fmt(ly - 4)
            + '" x2="'
            + _fmt(_ML + 28)
            + '" y2="'
            + _fmt(ly - 4)
            + '" stroke="'
            + color
            + '" stroke-width="1.8"/>'
        )
        out.append(
            '<text x="'
            + _fmt(_ML + 33)
            + '" y="'
            + _fmt(ly)
            + '" font-family="sans-serif" font-size="11">'
            + label
            + "</text>"
        )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
