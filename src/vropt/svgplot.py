"""Tiny standalone SVG line-plot writer.

CSV files are the real output contract of this package; these plots exist so
a benchmark run can be eyeballed without any plotting stack. Only what the
figures need is implemented: polylines, a linear x axis, a log y axis with
decade ticks, a legend.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Sequence

__all__ = ["write_line_plot"]

_PALETTE = ("#1f6fb2", "#d1495b", "#3a8f5d", "#8860b0", "#c07f1e", "#4d4d4d")

_W, _H = 640, 440
_LEFT, _RIGHT, _TOP, _BOTTOM = 72, 18, 40, 52


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _fmt(v: float) -> str:
    return format(v, ".6g")


def _keep(x: float, y: float) -> bool:
    return math.isfinite(x) and math.isfinite(y) and y > 0


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        decades = range(math.ceil(math.log10(lo) - 1e-9),
                        math.floor(math.log10(hi) + 1e-9) + 1)
        ticks = [10.0 ** d for d in decades]
        if len(ticks) >= 2:
            return ticks
    return [lo + i * (hi - lo) / 4.0 for i in range(5)]


def write_line_plot(path: str | os.PathLike,
                    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
                    title: str, xlabel: str, ylabel: str) -> None:
    """Write one SVG with a polyline per (label, xs, ys) series; y is log.

    Non-finite points, and points with y <= 0, are dropped; a
    series' one polyline joins the points it keeps, so a dropped point
    leaves no gap in its line. Raises ValueError when nothing is plottable.
    """
    pts = []
    for _, xs, ys in series:
        if len(xs) != len(ys):
            raise ValueError("series xs and ys differ in length")
        pts.extend(p for p in zip(xs, ys) if _keep(*p))
    if not pts:
        raise ValueError("no plottable points")
    xlo, xhi = min(p[0] for p in pts), max(p[0] for p in pts)
    ylo, yhi = min(p[1] for p in pts), max(p[1] for p in pts)
    ylo, yhi = math.log10(ylo), math.log10(yhi)
    if xhi - xlo < 1e-12:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi - ylo < 1e-12:
        ylo, yhi = ylo - 0.5, yhi + 0.5

    def px(x: float) -> float:
        return _LEFT + (x - xlo) / (xhi - xlo) * (_W - _LEFT - _RIGHT)

    def py(y: float) -> float:
        return (_H - _BOTTOM - (math.log10(y) - ylo) / (yhi - ylo)
                * (_H - _TOP - _BOTTOM))

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
           f'height="{_H}" viewBox="0 0 {_W} {_H}">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>',
           f'<rect x="{_LEFT}" y="{_TOP}" width="{_W - _LEFT - _RIGHT}" '
           f'height="{_H - _TOP - _BOTTOM}" fill="none" stroke="#999"/>',
           f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
           f'font-family="sans-serif" font-size="15">{_esc(title)}</text>']

    x_ticks = _ticks(xlo, xhi, False)
    y_ticks = _ticks(10.0 ** ylo, 10.0 ** yhi, True)
    for t in x_ticks:
        gx = px(t)
        out.append(f'<line x1="{gx:.1f}" y1="{_H - _BOTTOM}" x2="{gx:.1f}" '
                   f'y2="{_H - _BOTTOM + 5}" stroke="#555"/>')
        out.append(f'<text x="{gx:.1f}" y="{_H - _BOTTOM + 18}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{_fmt(t)}</text>')
    for t in y_ticks:
        gy = py(t)
        out.append(f'<line x1="{_LEFT - 5}" y1="{gy:.1f}" x2="{_LEFT}" '
                   f'y2="{gy:.1f}" stroke="#555"/>')
        out.append(f'<text x="{_LEFT - 8}" y="{gy + 4:.1f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>')
    cy = (_TOP + _H - _BOTTOM) / 2
    out.append(f'<text x="{(_LEFT + _W - _RIGHT) / 2:.1f}" y="{_H - 14}" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'font-size="13">{_esc(xlabel)}</text>')
    out.append(f'<text x="16" y="{cy:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 16 {cy:.1f})">{_esc(ylabel)}</text>')

    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = [f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys)
                  if _keep(x, y)]
        if coords:
            out.append(f'<polyline points="{" ".join(coords)}" fill="none" '
                       f'stroke="{color}" stroke-width="1.6"/>')
        ly = _TOP + 14 + 16 * idx
        lx = _W - _RIGHT - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="1.6"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">{_esc(label)}</text>')
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")
