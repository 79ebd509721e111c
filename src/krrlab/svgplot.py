"""Minimal deterministic SVG line charts from sweep CSV files.

Hand-rolled rather than delegated to a plotting library so that identical
input bytes always produce identical output bytes.
"""

from __future__ import annotations

import csv
import math
import os

from .errors import DataFormatError

__all__ = ["emit_plot"]

_WIDTH, _HEIGHT = 800, 520
_ML, _MR, _MT, _MB = 70, 180, 30, 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#e377c2", "#17becf"]


def _fmt(x: float) -> str:
    return format(x, ".2f")


def _ticks(lo: float, hi: float, count: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def emit_plot(csv_path: str, columns, out_path: str) -> bytes:
    """Render the requested CSV columns against the column `n` as an SVG chart.

    The y-axis switches to log scale when the plotted values span more than
    two decades (and are all positive).  A missing, non-numeric or
    non-finite cell, or a range of finite values too wide for a float,
    raises DataFormatError.  Creates the parent directory of
    `out_path` and returns the bytes written.
    """
    # a non-ASCII byte survives as a surrogate and fails the checks below
    with open(csv_path, "r", encoding="ascii", errors="surrogateescape", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataFormatError(f"{csv_path} has no header")
        header = list(reader.fieldnames)
        rows = list(reader)
    for col in ["n", *columns]:
        if col not in header:
            raise DataFormatError(f"column {col!r} not in {csv_path} (has {header})")
    if not rows:
        raise DataFormatError(f"{csv_path} has no data rows")

    bad = f"{csv_path} has a missing, non-numeric or non-finite value"
    try:
        xs = [float(r["n"]) for r in rows]
        series = {c: [float(r[c]) for r in rows] for c in columns}
    except (TypeError, ValueError):          # a short row, or a non-numeric cell
        raise DataFormatError(bad) from None

    all_y = [v for vals in series.values() for v in vals]
    if not all(math.isfinite(v) for v in xs + all_y):
        raise DataFormatError(bad)
    positive = all(v > 0 for v in all_y)
    log_y = positive and max(all_y) / min(all_y) > 100.0
    ty = (lambda v: math.log10(v)) if log_y else (lambda v: v)

    y_lo = min(ty(v) for v in all_y)
    y_hi = max(ty(v) for v in all_y)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if not math.isfinite(x_hi - x_lo) or not math.isfinite(y_hi - y_lo):
        raise DataFormatError(f"{csv_path}: the plotted range overflows a float")

    pw = _WIDTH - _ML - _MR
    ph = _HEIGHT - _MT - _MB

    def sx(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return _MT + ph - (ty(v) - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#333333" stroke-width="1"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        parts.append(f'<line x1="{_fmt(px)}" y1="{_MT + ph}" x2="{_fmt(px)}" '
                     f'y2="{_MT + ph + 5}" stroke="#333333"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{_MT + ph + 20}" font-size="11" '
                     f'text-anchor="middle" font-family="monospace">{format(tx, ".4g")}</text>')
    for tv in _ticks(y_lo, y_hi):
        py = _MT + ph - (tv - y_lo) / (y_hi - y_lo) * ph
        label = 10.0 ** tv if log_y else tv
        parts.append(f'<line x1="{_ML - 5}" y1="{_fmt(py)}" x2="{_ML}" '
                     f'y2="{_fmt(py)}" stroke="#333333"/>')
        parts.append(f'<text x="{_ML - 8}" y="{_fmt(py + 4)}" font-size="11" '
                     f'text-anchor="end" font-family="monospace">{format(label, ".3g")}</text>')
    parts.append(f'<text x="{_ML + pw / 2:.0f}" y="{_HEIGHT - 10}" font-size="12" '
                 f'text-anchor="middle" font-family="monospace">n</text>')
    if log_y:
        parts.append(f'<text x="{_ML}" y="{_MT - 10}" font-size="10" '
                     'font-family="monospace">log scale</text>')

    for k, (name, vals) in enumerate(series.items()):
        color = _COLORS[k % len(_COLORS)]
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(v))}" for x, v in zip(xs, vals))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        ly = _MT + 15 + 18 * k
        lx = _ML + pw + 10
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 24}" y="{ly}" font-size="11" '
                     f'font-family="monospace">{name}</text>')
    parts.append("</svg>")
    blob = ("\n".join(parts) + "\n").encode("ascii")
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "wb") as fh:
        fh.write(blob)
    return blob
