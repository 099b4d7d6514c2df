"""Self-contained SVG charts: trend line charts and heat grids.

No external resources, no scripts; output depends only on the input data,
so rendered files are diffable in tests.
"""

from __future__ import annotations

from html import escape as _html_escape
from typing import Sequence

from .errors import InputError

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def escape(text: str) -> str:
    """`text` with `&`, `<` and `>` replaced by entities, for SVG text and
    titles. html.escape rather than xml.sax.saxutils.escape: the output is
    the same, and importing saxutils loads urllib, http and email."""
    return _html_escape(text, quote=False)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_trend_svg(
    series: Sequence[tuple[str, Sequence[float]]],
    bin_labels: Sequence[str],
    *,
    title: str = "",
    width: int = 900,
    height: int = 420,
) -> str:
    """Line chart of one or more equal-length trend series over the bins.

    One polyline (and legend entry) per series; a single-bin axis degrades
    to point markers with no segments.
    """
    if not series:
        raise InputError("no series to render")
    m = len(bin_labels)
    if m < 1:
        raise InputError("need at least one bin label")
    for name, values in series:
        if len(values) != m:
            raise InputError(
                f"series {name!r} has {len(values)} values for {m} bins"
            )

    left, right, top, bottom = 70, 190, 46, 64
    plot_w = width - left - right
    plot_h = height - top - bottom
    everything = [v for _, values in series for v in values]
    vmin, vmax = min(everything), max(everything)
    if vmin == vmax:
        vmin, vmax = vmin - 0.5, vmax + 0.5
    pad = 0.05 * (vmax - vmin)
    vmin, vmax = vmin - pad, vmax + pad

    def x(t: int) -> float:
        if m == 1:
            return left + plot_w / 2
        return left + plot_w * t / (m - 1)

    def y(v: float) -> float:
        return top + plot_h * (1 - (v - vmin) / (vmax - vmin))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" '
            f'font-size="15">{escape(title)}</text>'
        )

    # Axes
    parts.append(
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="#333"/>'
    )
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="#333"/>')
    parts.append(
        f'<text x="{left + plot_w / 2:.0f}" y="{height - 12}" text-anchor="middle">'
        "time bin</text>"
    )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.0f})">value</text>'
    )

    step = max(1, (m + 11) // 12)
    for t in range(0, m, step):
        parts.append(
            f'<line x1="{_fmt(x(t))}" y1="{top + plot_h}" x2="{_fmt(x(t))}" '
            f'y2="{top + plot_h + 4}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_fmt(x(t))}" y="{top + plot_h + 18}" text-anchor="middle" '
            f'font-size="9">{escape(str(bin_labels[t]))}</text>'
        )
    for i in range(5):
        v = vmin + (vmax - vmin) * i / 4
        parts.append(
            f'<line x1="{left - 4}" y1="{_fmt(y(v))}" x2="{left}" '
            f'y2="{_fmt(y(v))}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{_fmt(y(v) + 3)}" text-anchor="end" '
            f'font-size="9">{v:.4g}</text>'
        )

    # Series
    for i, (name, values) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        if m > 1:
            points = " ".join(f"{_fmt(x(t))},{_fmt(y(v))}" for t, v in enumerate(values))
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.6"/>'
            )
        else:
            for t, v in enumerate(values):
                parts.append(
                    f'<circle cx="{_fmt(x(t))}" cy="{_fmt(y(v))}" r="4" fill="{color}"/>'
                )
        ly = top + 16 * i
        lx = left + plot_w + 14
        parts.append(f'<rect x="{lx}" y="{ly}" width="12" height="12" fill="{color}"/>')
        parts.append(
            f'<text x="{lx + 17}" y="{ly + 10}" font-size="10" '
            f'class="legend">{escape(name)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts)


def _heat_color(v: float, vmin: float, vmax: float) -> str:
    """Diverging blue/white/red around 0 when the range is signed, otherwise
    a white-to-red ramp."""
    def mix(a, b, f):
        return tuple(round(a[i] + (b[i] - a[i]) * f) for i in range(3))

    white, red, blue = (255, 255, 255), (178, 24, 43), (33, 102, 172)
    if vmin < 0.0 < vmax:
        scale = max(abs(vmin), abs(vmax))
        f = 0.0 if scale == 0 else max(-1.0, min(1.0, v / scale))
        rgb = mix(white, red, f) if f >= 0 else mix(white, blue, -f)
    else:
        span = vmax - vmin
        f = 0.0 if span == 0 else (v - vmin) / span
        rgb = mix(white, red, f)
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def render_grid_svg(
    values: Sequence[Sequence[float]],
    row_labels: Sequence[str],
    column_labels: Sequence[str],
    *,
    title: str = "",
    cell: int = 64,
) -> str:
    """Heat grid with row/column labels and a color legend annotated with
    the value range."""
    if not values or len(values) != len(row_labels):
        raise InputError("grid values must have one row per row label")
    for row in values:
        if len(row) != len(column_labels):
            raise InputError("grid values must have one column per column label")

    n_rows, n_cols = len(row_labels), len(column_labels)
    left, top = 130, 70
    legend_h = 56
    width = left + n_cols * cell + 30
    height = top + n_rows * cell + legend_h + 30
    flat = [v for row in values for v in row]
    vmin, vmax = min(flat), max(flat)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{left + n_cols * cell / 2:.0f}" y="26" text-anchor="middle" '
            f'font-size="15">{escape(title)}</text>'
        )
    for c, label in enumerate(column_labels):
        parts.append(
            f'<text x="{left + c * cell + cell / 2:.0f}" y="{top - 10}" '
            f'text-anchor="middle" font-size="10">{escape(str(label))}</text>'
        )
    for r, label in enumerate(row_labels):
        parts.append(
            f'<text x="{left - 8}" y="{top + r * cell + cell / 2 + 4:.0f}" '
            f'text-anchor="end" font-size="10">{escape(str(label))}</text>'
        )
    for r in range(n_rows):
        for c in range(n_cols):
            v = values[r][c]
            parts.append(
                f'<rect x="{left + c * cell}" y="{top + r * cell}" width="{cell}" '
                f'height="{cell}" fill="{_heat_color(v, vmin, vmax)}" '
                f'stroke="#999" stroke-width="0.5">'
                f"<title>{escape(str(row_labels[r]))} / {escape(str(column_labels[c]))}: "
                f"{v!r}</title></rect>"
            )

    # Legend: discrete ramp from vmin to vmax with the extremes annotated.
    ly = top + n_rows * cell + 22
    steps = 10
    seg_w = (n_cols * cell) / steps
    for i in range(steps):
        v = vmin + (vmax - vmin) * (i + 0.5) / steps if vmax > vmin else vmin
        parts.append(
            f'<rect x="{_fmt(left + i * seg_w)}" y="{ly}" width="{_fmt(seg_w)}" '
            f'height="12" fill="{_heat_color(v, vmin, vmax)}" stroke="#999" '
            f'stroke-width="0.5"/>'
        )
    parts.append(
        f'<text x="{left}" y="{ly + 26}" text-anchor="start" font-size="10">'
        f"min {vmin:.4g}</text>"
    )
    parts.append(
        f'<text x="{_fmt(left + n_cols * cell)}" y="{ly + 26}" text-anchor="end" '
        f'font-size="10">max {vmax:.4g}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)

