"""Minimal hand-emitted SVG charts: line plots, heatmaps, and box plots.

Deliberately dependency-free; these are diagnostic renderings of the CSV
outputs, not a plotting library.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

PALETTE = ("#1f77b4", "#2ca02c", "#d62728", "#9467bd", "#ff7f0e", "#8c564b")
LINE_SIZE = (640, 420)  # canvas (width, height) in pixels
BOX_SIZE = (720, 420)
MARGIN = 56  # line and box charts: canvas edge to axes box, in pixels
CELL = 34  # side of a heatmap cell in pixels


def _svg(width: int, height: int, body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">')
    return "\n".join([head, '<rect width="100%" height="100%" fill="white"/>']
                     + body + ["</svg>"]) + "\n"


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _scale(values: Sequence[float], start: float, length: float):
    """Linear map of the values' range (widened by 1 when flat) onto
    start .. start + length pixels, and the range's ends and midpoint."""
    v0, v1 = min(values), max(values)
    if v1 == v0:
        v1 = v0 + 1.0
    ticks = (v0, (v0 + v1) / 2, v1)
    return (lambda v: start + (v - v0) / (v1 - v0) * length), ticks


def _chart(path: str | Path, size: tuple[int, int], ys: Sequence[float],
           title: str, y_label: str, xs: Sequence[float] | None = None,
           x_label: str = ""):
    """(body, sx, sy) of the frame shared by line_chart and box_plot: axes
    box, title, y label and ticks, and x label and ticks when xs is given
    (else sx is None). Without ys, writes the "no data" canvas; returns None."""
    width, height = size
    if not ys:
        Path(path).write_text(_svg(width, height, [
            f'<text x="{width / 2}" y="{height / 2}" text-anchor="middle">no data</text>']))
        return None
    pw, ph = width - 2 * MARGIN, height - 2 * MARGIN
    sy, y_ticks = _scale(ys, height - MARGIN, -ph)
    body = [f'<rect x="{MARGIN}" y="{MARGIN}" width="{pw}" height="{ph}" '
            'fill="none" stroke="#888"/>']
    if title:
        body.append(f'<text x="{width / 2}" y="24" text-anchor="middle" '
                    f'font-size="15">{title}</text>')
    sx, x_ticks = None, ()
    if xs is not None:
        sx, x_ticks = _scale(xs, MARGIN, pw)
        body.append(f'<text x="{width / 2}" y="{height - 12}" '
                    f'text-anchor="middle" font-size="12">{x_label}</text>')
    body.append(f'<text x="16" y="{height / 2}" text-anchor="middle" '
                f'font-size="12" transform="rotate(-90 16 {height / 2})">{y_label}</text>')
    for tick in x_ticks:
        body.append(f'<text x="{sx(tick):.1f}" y="{height - MARGIN + 16}" '
                    f'text-anchor="middle" font-size="10">{_fmt(tick)}</text>')
    for tick in y_ticks:
        body.append(f'<text x="{MARGIN - 6}" y="{sy(tick):.1f}" '
                    f'text-anchor="end" font-size="10">{_fmt(tick)}</text>')
    return body, sx, sy


def line_chart(series: dict[str, Sequence[tuple[float, float]]], path: str | Path,
               title: str = "", x_label: str = "", y_label: str = "") -> None:
    pts = [p for s in series.values() for p in s]
    chart = _chart(path, LINE_SIZE, [p[1] for p in pts], title, y_label,
                   xs=[p[0] for p in pts], x_label=x_label)
    if chart is None:
        return
    body, sx, sy = chart
    for idx, (name, data) in enumerate(series.items()):
        color = PALETTE[idx % len(PALETTE)]
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in data)
        body.append(f'<polyline points="{coords}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>')
        body.append(f'<text x="{MARGIN + 8}" y="{MARGIN + 16 + 14 * idx}" '
                    f'font-size="11" fill="{color}">{name}</text>')
    Path(path).write_text(_svg(*LINE_SIZE, body))


def _heat_color(t: float) -> str:
    """Blue (low) to red (high) through white."""
    t = min(max(t, 0.0), 1.0)
    if t < 0.5:
        f = t / 0.5
        r, g, b = int(255 * f), int(255 * f), 255
    else:
        f = (t - 0.5) / 0.5
        r, g, b = 255, int(255 * (1 - f)), int(255 * (1 - f))
    return f"#{r:02x}{g:02x}{b:02x}"


def heatmap(matrix, path: str | Path, title: str = "",
            vmin: float | None = None, vmax: float | None = None) -> None:
    """Rows and columns are labelled with their indices."""
    import numpy as np

    m = np.asarray(matrix, dtype=float)
    rows, cols = m.shape
    margin = 70
    width = margin + cols * CELL + 30
    height = margin + rows * CELL + 30
    finite = m[np.isfinite(m)]
    lo = vmin if vmin is not None else (float(finite.min()) if finite.size else 0.0)
    hi = vmax if vmax is not None else (float(finite.max()) if finite.size else 1.0)
    if hi == lo:
        hi = lo + 1.0
    body = []
    if title:
        body.append(f'<text x="{width / 2}" y="22" text-anchor="middle" '
                    f'font-size="14">{title}</text>')
    for i in range(rows):
        for j in range(cols):
            v = m[i, j]
            x = margin + j * CELL
            y = margin + i * CELL
            if np.isfinite(v):
                color = _heat_color((v - lo) / (hi - lo))
                body.append(f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                            f'fill="{color}" stroke="#ccc"/>')
                body.append(f'<text x="{x + CELL / 2}" y="{y + CELL / 2 + 3}" '
                            f'text-anchor="middle" font-size="9">{v:.2f}</text>')
            else:
                body.append(f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                            f'fill="#eee" stroke="#ccc"/>')
    for i in range(rows):
        body.append(f'<text x="{margin - 6}" y="{margin + i * CELL + CELL / 2 + 3}" '
                    f'text-anchor="end" font-size="10">{i}</text>')
    for j in range(cols):
        body.append(f'<text x="{margin + j * CELL + CELL / 2}" y="{margin - 8}" '
                    f'text-anchor="middle" font-size="10">{j}</text>')
    Path(path).write_text(_svg(width, height, body))


def box_plot(stats: dict, path: str | Path, title: str = "",
             y_label: str = "") -> None:
    """stats maps group label -> BoxStats-like object (q1, median, q3,
    lo_whisker, hi_whisker, outliers)."""
    all_vals = []
    for s in stats.values():
        all_vals += [s.lo_whisker, s.hi_whisker] + list(s.outliers)
    chart = _chart(path, BOX_SIZE, all_vals, title, y_label)
    if chart is None:
        return
    body, _, sy = chart
    width, height = BOX_SIZE
    slot = (width - 2 * MARGIN) / len(stats)
    bw = slot * 0.5
    for idx, (label, s) in enumerate(stats.items()):
        cx = MARGIN + slot * (idx + 0.5)
        body.append(f'<line x1="{cx:.1f}" y1="{sy(s.lo_whisker):.1f}" '
                    f'x2="{cx:.1f}" y2="{sy(s.hi_whisker):.1f}" stroke="#333"/>')
        body.append(f'<rect x="{cx - bw / 2:.1f}" y="{sy(s.q3):.1f}" width="{bw:.1f}" '
                    f'height="{max(sy(s.q1) - sy(s.q3), 0.5):.1f}" '
                    'fill="#9ecae1" stroke="#333"/>')
        body.append(f'<line x1="{cx - bw / 2:.1f}" y1="{sy(s.median):.1f}" '
                    f'x2="{cx + bw / 2:.1f}" y2="{sy(s.median):.1f}" '
                    'stroke="#d62728" stroke-width="1.5"/>')
        for o in s.outliers:
            body.append(f'<circle cx="{cx:.1f}" cy="{sy(o):.1f}" r="2" '
                        'fill="none" stroke="#333"/>')
        body.append(f'<text x="{cx:.1f}" y="{height - MARGIN + 16}" '
                    f'text-anchor="middle" font-size="10">{label}</text>')
    Path(path).write_text(_svg(width, height, body))
