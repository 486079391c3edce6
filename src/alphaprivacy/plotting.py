"""Privacy-utility trade-off plots as self-contained SVG text.

One curve per alpha value: attacker balanced accuracy against normalized
error, points sorted by NE, straight-line connectors (no fitted overlays),
plus the 0.5 random-guessing reference line.  Output is deterministic for
a given input so plots can be golden-file tested.
"""

from __future__ import annotations

import math

from .errors import ValidationError

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 168, 28, 52

PALETTE = ["#1f6fb2", "#d1495b", "#2e8b57", "#8a5fbf", "#c2842f", "#4f6d7a"]


def _fmt(value):
    return f"{value:.2f}"


def _usable_points(points):
    keep = []
    for p in points:
        ne = p.ne
        acc = p.attacker_balanced_accuracy
        if ne is None or acc is None:
            continue
        if math.isnan(ne) or math.isnan(acc):
            continue
        keep.append(p)
    return keep


def curves_by_alpha(points):
    """{alpha: [(ne, accuracy), ...] sorted by ne} for all non-failed points."""
    groups = {}
    for p in _usable_points(points):
        groups.setdefault(p.alpha, []).append((p.ne, p.attacker_balanced_accuracy))
    return {a: sorted(v) for a, v in sorted(groups.items())}


def tradeoff_svg(points) -> str:
    """Render the PUT curves; raises on an empty/unusable point list."""
    groups = curves_by_alpha(points)
    if not groups:
        raise ValidationError("no plottable points (all missing or failed)")
    x_max = max(ne for curve in groups.values() for ne, _ in curve)
    x_max = max(1.0, math.ceil(x_max * 10.0) / 10.0)
    # the accuracy axis starts at 0.4, or lower, at a tenth, to frame every point
    acc_min = min(acc for curve in groups.values() for _, acc in curve)
    y_min, y_max = min(0.4, math.floor(acc_min * 10.0) / 10.0), 1.0
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(ne):
        return MARGIN_L + plot_w * (ne / x_max)

    def sy(acc):
        return MARGIN_T + plot_h * (1.0 - (acc - y_min) / (y_max - y_min))

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">'
    )
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    # axes
    x0, y0 = MARGIN_L, MARGIN_T + plot_h
    out.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>'
    )
    out.append(f'<line x1="{x0}" y1="{MARGIN_T}" x2="{x0}" y2="{y0}" stroke="black"/>')
    for i in range(6):
        ne = x_max * i / 5.0
        x = sx(ne)
        out.append(f'<line x1="{_fmt(x)}" y1="{y0}" x2="{_fmt(x)}" y2="{y0 + 5}" stroke="black"/>')
        out.append(
            f'<text x="{_fmt(x)}" y="{y0 + 20}" text-anchor="middle">{_fmt(ne)}</text>'
        )
    for i in range(7):
        acc = y_min + (y_max - y_min) * i / 6.0
        y = sy(acc)
        out.append(f'<line x1="{x0 - 5}" y1="{_fmt(y)}" x2="{x0}" y2="{_fmt(y)}" stroke="black"/>')
        out.append(
            f'<text x="{x0 - 9}" y="{_fmt(y + 4)}" text-anchor="end">{_fmt(acc)}</text>'
        )
    out.append(
        f'<text x="{MARGIN_L + plot_w / 2:.0f}" y="{HEIGHT - 12}" text-anchor="middle">'
        "normalized error (NE)</text>"
    )
    out.append(
        f'<text x="16" y="{MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2:.0f})">'
        "attacker balanced accuracy</text>"
    )
    # full-privacy reference: random guessing at 0.5
    y_ref = sy(0.5)
    out.append(
        f'<line x1="{x0}" y1="{_fmt(y_ref)}" x2="{x0 + plot_w}" y2="{_fmt(y_ref)}" '
        'stroke="#888888" stroke-dasharray="6,4"/>'
    )
    out.append(
        f'<text x="{x0 + plot_w - 4}" y="{_fmt(y_ref - 6)}" text-anchor="end" '
        'fill="#888888">full privacy (0.5)</text>'
    )
    # curves
    for idx, (alpha, curve) in enumerate(groups.items()):
        color = PALETTE[idx % len(PALETTE)]
        if len(curve) > 1:
            path = " ".join(f"{_fmt(sx(ne))},{_fmt(sy(acc))}" for ne, acc in curve)
            out.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        for ne, acc in curve:
            out.append(
                f'<circle cx="{_fmt(sx(ne))}" cy="{_fmt(sy(acc))}" r="3.5" fill="{color}"/>'
            )
        ly = MARGIN_T + 16 + 18 * idx
        lx = MARGIN_L + plot_w + 14
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(f'<text x="{lx + 28}" y="{ly}">alpha = {alpha:g}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def curves_csv(points) -> str:
    """CSV of the plotted curves: alpha, ne, attacker accuracy, sorted."""
    groups = curves_by_alpha(points)
    if not groups:
        raise ValidationError("no plottable points (all missing or failed)")
    lines = ["alpha,ne,attacker_balanced_accuracy"]
    for alpha, curve in groups.items():
        for ne, acc in curve:
            lines.append(f"{alpha!r},{ne!r},{acc!r}")
    return "\n".join(lines) + "\n"
