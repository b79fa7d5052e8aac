"""Tiny plotting helpers: unicode sparklines and standalone SVG charts.

Both renderers take the dense ``[(t, value_or_None), ...]`` slot lists
that store reads produce. Absent slots show as gaps, never as zeros.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

from .tsdb import mean

BLOCKS = " ▁▂▃▄▅▆▇█"
ABSENT = "·"

_SVG_W = 900
_SVG_H = 260
_MARGIN_L = 60
_MARGIN_R = 20
_MARGIN_T = 30
_MARGIN_B = 30
_PALETTE = ("#2b6cb0", "#c05621", "#2f855a", "#9b2c2c", "#6b46c1", "#b7791f")


def sparkline(points, width: int) -> str:
    """Render values as a fixed-width row of block characters.

    The series is resampled to ``width`` buckets (bucket mean); buckets
    with no data render as a dot. Scale is min..max of the present values.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    values = [v for _, v in points]
    present = [v for v in values if v is not None]
    if not present:
        return ABSENT * width
    lo, hi = min(present), max(present)
    scale = 0.5 if math.isinf(hi - lo) else 1.0  # exact halves of finite values lie under the float limit apart
    span = hi * scale - lo * scale
    out = []
    n = len(values)
    for b in range(width):
        start = b * n // width
        stop = max(start + 1, (b + 1) * n // width)
        bucket = [v for v in values[start:stop] if v is not None]
        if not bucket:
            out.append(ABSENT)
            continue
        if span == 0:
            out.append(BLOCKS[-1])
        else:
            idx = int((mean(bucket) * scale - lo * scale) / span * (len(BLOCKS) - 1))
            out.append(BLOCKS[max(1, idx)])  # present data never blank
    return "".join(out)


def _polylines(points, x_of, y_of) -> list[str]:
    """Split a gappy series into the runs of present points."""
    runs: list[list[str]] = []
    current: list[str] = []
    for t, v in points:
        if v is None:
            if current:
                runs.append(current)
                current = []
            continue
        current.append(f"{x_of(t):.1f},{y_of(v):.1f}")
    if current:
        runs.append(current)
    return [" ".join(run) for run in runs]


def render_svg(
    series: dict[str, list],
    *,
    title: str = "",
    threshold: float | None = None,
) -> str:
    """Render one or more series to a self-contained SVG document.

    ``series`` maps a label to its slot list. All series share one time
    axis and one value axis. Runs separated by absent slots are drawn as
    separate polylines, so monitoring gaps are visible as actual gaps.
    """
    all_t = [t for pts in series.values() for t, _ in pts]
    all_v = [v for pts in series.values() for _, v in pts if v is not None]
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W} {_SVG_H}" '
        f'font-family="monospace" font-size="11">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{_MARGIN_L}" y="18" font-size="13">{escape(title)}</text>')

    if all_t and all_v:
        t_lo, t_hi = min(all_t), max(all_t)
        v_lo, v_hi = min(all_v), max(all_v)
        if threshold is not None:
            v_lo, v_hi = min(v_lo, threshold), max(v_hi, threshold)
        if t_hi == t_lo:
            t_hi = t_lo + 1
        if v_hi == v_lo:
            v_hi = v_lo + 1

        def x_of(t):
            return _MARGIN_L + (t - t_lo) / (t_hi - t_lo) * plot_w

        def y_of(v):
            return _MARGIN_T + (1 - (v - v_lo) / (v_hi - v_lo)) * plot_h

        parts.append(
            f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
            'fill="none" stroke="#ccc"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 5}" y="{_MARGIN_T + 10}" text-anchor="end">{v_hi:g}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 5}" y="{_MARGIN_T + plot_h}" text-anchor="end">{v_lo:g}</text>'
        )
        if threshold is not None:
            ty = y_of(threshold)
            parts.append(
                f'<line class="threshold" x1="{_MARGIN_L}" y1="{ty:.1f}" '
                f'x2="{_MARGIN_L + plot_w}" y2="{ty:.1f}" '
                'stroke="#e53e3e" stroke-dasharray="6 3"/>'
            )
        for i, (label, pts) in enumerate(series.items()):
            color = _PALETTE[i % len(_PALETTE)]
            for line in _polylines(pts, x_of, y_of):
                parts.append(
                    f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.5"/>'
                )
            parts.append(
                f'<text x="{_MARGIN_L + 6 + 150 * i}" y="{_SVG_H - 10}" '
                f'fill="{color}">{escape(label)}</text>'
            )
    else:
        parts.append(
            f'<text x="{_SVG_W // 2}" y="{_SVG_H // 2}" text-anchor="middle">no data</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
