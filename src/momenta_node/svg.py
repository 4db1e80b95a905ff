"""Minimal deterministic SVG renderer for the experiment figures.

Writes standalone SVG by string assembly: fixed canvas, fixed palette,
fixed coordinate formatting (two decimals), no timestamps and no
randomness, so identical inputs produce byte-identical files.  Three
figure kinds match the three CSV schemas: landscape trajectories
(paths toward a starred minimizer), stability curves (log10 norm vs
time), and training efficacy (per-epoch quotients).
"""

from __future__ import annotations

import math

import numpy as np

WIDTH = 640
HEIGHT = 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 62.0, 18.0, 36.0, 48.0
# Ticks aimed at per axis, the stroke width of a data line, and the outer
# and inner radii of the minimizer's star, in pixels.
N_TICKS = 5
LINE_WIDTH = 1.5
STAR_OUTER, STAR_INNER = 8.0, 3.2
# Bounds that keep every number written finite, however large the data: an
# axis range is clipped to +-RANGE_LIMIT, so its span and its ticks stay
# finite, and a pixel coordinate to +-PIXEL_LIMIT as it is written.
RANGE_LIMIT = 1e300
PIXEL_LIMIT = 1e9

PALETTE = [
    "#1f66ad",
    "#d1495b",
    "#2e8b57",
    "#e0a100",
    "#7b5cb8",
    "#4aa3a2",
    "#8a5a44",
    "#5c6b73",
]


def _fmt(v: float) -> str:
    if not -PIXEL_LIMIT < v < PIXEL_LIMIT:
        v = math.copysign(PIXEL_LIMIT, v)
    out = f"{v:.2f}"
    return "0.00" if out == "-0.00" else out


def _color(i: int) -> str:
    return PALETTE[i % len(PALETTE)]


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _axis_range(lo: float, hi: float) -> tuple:
    """``[lo, hi]`` clipped to +-RANGE_LIMIT; an empty range is widened by
    1, or by ``|lo|`` where adding 1 would not change it."""
    lo, hi = (min(max(v, -RANGE_LIMIT), RANGE_LIMIT) for v in (lo, hi))
    if hi <= lo:
        hi = lo + 1.0 if lo + 1.0 > lo else lo + abs(lo)
    return lo, hi


class _Canvas:
    """Linear data-to-pixel mapping over the fixed plot box."""

    def __init__(self, x_range, y_range):
        self.x0, self.x1 = _axis_range(*x_range)
        self.y0, self.y1 = _axis_range(*y_range)
        self.px0 = MARGIN_L
        self.px1 = WIDTH - MARGIN_R
        self.py0 = HEIGHT - MARGIN_B
        self.py1 = MARGIN_T

    # ``v`` is a Python float: a numpy scalar would warn where the mapping
    # of a value far outside the range overflows.
    def x(self, v: float) -> float:
        return self.px0 + (v - self.x0) / (self.x1 - self.x0) * (self.px1 - self.px0)

    def y(self, v: float) -> float:
        return self.py0 + (v - self.y0) / (self.y1 - self.y0) * (self.py1 - self.py0)


def _ticks(lo: float, hi: float):
    """Round tick positions covering [lo, hi], about N_TICKS of them; deterministic.

    A range too narrow for round ticks to be told apart at its magnitude
    gets the one tick ``lo``.
    """
    raw = (hi - lo) / (N_TICKS - 1)
    if raw <= 0.0:
        return [lo]
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mag * mult >= raw:
            step = mag * mult
            break
    if step < math.ulp(max(abs(lo), abs(hi))):
        return [lo]
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-9 * step:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return out


def _tick_label(v: float) -> str:
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:.4g}"


def _frame(parts, canvas, title, xlabel, ylabel):
    parts.append(
        f'<rect x="{_fmt(canvas.px0)}" y="{_fmt(canvas.py1)}" '
        f'width="{_fmt(canvas.px1 - canvas.px0)}" height="{_fmt(canvas.py0 - canvas.py1)}" '
        'fill="none" stroke="#444444" stroke-width="1"/>'
    )
    for v in _ticks(canvas.x0, canvas.x1):
        px = canvas.x(v)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(canvas.py0)}" x2="{_fmt(px)}" y2="{_fmt(canvas.py0 + 4)}" '
            'stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(canvas.py0 + 16)}" font-size="11" '
            f'text-anchor="middle" fill="#333333">{_esc(_tick_label(v))}</text>'
        )
    for v in _ticks(canvas.y0, canvas.y1):
        py = canvas.y(v)
        parts.append(
            f'<line x1="{_fmt(canvas.px0 - 4)}" y1="{_fmt(py)}" x2="{_fmt(canvas.px0)}" y2="{_fmt(py)}" '
            'stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(canvas.px0 - 7)}" y="{_fmt(py + 3.5)}" font-size="11" '
            f'text-anchor="end" fill="#333333">{_esc(_tick_label(v))}</text>'
        )
    parts.append(
        f'<text x="{_fmt((canvas.px0 + canvas.px1) / 2)}" y="22" font-size="14" '
        f'text-anchor="middle" fill="#111111">{_esc(title)}</text>'
    )
    parts.append(
        f'<text x="{_fmt((canvas.px0 + canvas.px1) / 2)}" y="{_fmt(HEIGHT - 10)}" font-size="12" '
        f'text-anchor="middle" fill="#333333">{_esc(xlabel)}</text>'
    )
    parts.append(
        f'<text x="16" y="{_fmt((canvas.py0 + canvas.py1) / 2)}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {_fmt((canvas.py0 + canvas.py1) / 2)})" fill="#333333">{_esc(ylabel)}</text>'
    )


def _polyline(pts, color, dash=None):
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="{LINE_WIDTH}"{extra}/>'


def _legend(parts, entries, x, y):
    for i, (label, color) in enumerate(entries):
        yy = y + 16 * i
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(yy)}" x2="{_fmt(x + 22)}" y2="{_fmt(yy)}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_fmt(x + 27)}" y="{_fmt(yy + 3.5)}" font-size="11" fill="#333333">{_esc(label)}</text>'
        )


def _star(cx, cy):
    pts = []
    for k in range(10):
        r = STAR_OUTER if k % 2 == 0 else STAR_INNER
        ang = -math.pi / 2 + k * math.pi / 5
        pts.append((cx + r * math.cos(ang), cy + r * math.sin(ang)))
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
    return f'<polygon points="{coords}" fill="#d4a017" stroke="#7a5c00" stroke-width="1"/>'


def _document(parts) -> str:
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="Helvetica, Arial, sans-serif">\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>\n'
        f"{body}\n</svg>\n"
    )


def render_trajectory_svg(minimizer, series) -> str:
    """Paths over the plane with a star at the minimizer.

    ``series`` maps a dynamics name to ``(ts, xs)`` with ``xs`` of shape
    (n, 2).  The view window covers the minimizer and every sampled
    point within 4x the largest start-to-minimizer distance, so a
    diverged path exits the frame instead of flattening everyone else.
    """
    minimizer = np.asarray(minimizer, dtype=float)
    mx, my = minimizer.tolist()
    reach = 1.0
    for _, xs in series.values():
        if len(xs):
            # The distance from a huge-but-finite start overflows to inf.
            with np.errstate(over="ignore"):
                reach = max(reach, float(np.linalg.norm(np.asarray(xs[0]) - minimizer)))
    window = 4.0 * reach
    pts_x = [mx]
    pts_y = [my]
    for _, xs in series.values():
        xs = np.asarray(xs, dtype=float)
        keep = np.isfinite(xs).all(axis=1)
        # A diverged path can hold huge-but-finite points whose squared
        # norm overflows; inf just fails the window test below.
        with np.errstate(over="ignore", invalid="ignore"):
            keep &= np.linalg.norm(xs - minimizer, axis=1) <= window
        pts_x.extend(xs[keep, 0].tolist())
        pts_y.extend(xs[keep, 1].tolist())
    x_lo, x_hi = min(pts_x), max(pts_x)
    y_lo, y_hi = min(pts_y), max(pts_y)
    pad_x = 0.06 * (x_hi - x_lo or 1.0)
    pad_y = 0.06 * (y_hi - y_lo or 1.0)
    canvas = _Canvas((x_lo - pad_x, x_hi + pad_x), (y_lo - pad_y, y_hi + pad_y))

    parts = []
    _frame(parts, canvas, "landscape trajectories", "x", "y")
    entries = []
    for i, (name, (ts, xs)) in enumerate(series.items()):
        xs = np.asarray(xs, dtype=float)
        keep = np.isfinite(xs).all(axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            keep &= np.linalg.norm(xs - minimizer, axis=1) <= window * 1.5
        pix = [(canvas.x(x), canvas.y(y)) for x, y in xs[keep].tolist()]
        if pix:
            parts.append(_polyline(pix, _color(i)))
            parts.append(
                f'<circle cx="{_fmt(pix[0][0])}" cy="{_fmt(pix[0][1])}" r="3.5" fill="{_color(i)}"/>'
            )
        entries.append((name, _color(i)))
    parts.append(_star(canvas.x(mx), canvas.y(my)))
    _legend(parts, entries, canvas.px0 + 10, canvas.py1 + 14)
    return _document(parts)


def render_stability_svg(series, blowups) -> str:
    """log10 norm curves over time, with an x at each recorded blow-up."""
    t_lo = min(float(ts[0]) for ts, _ in series.values())
    t_hi = max(float(ts[-1]) for ts, _ in series.values())
    vals = np.concatenate([np.asarray(v, dtype=float) for _, v in series.values()])
    vals = vals[np.isfinite(vals)]
    v_lo, v_hi = (float(vals.min()), float(vals.max())) if vals.size else (0.0, 1.0)
    canvas = _Canvas((t_lo, t_hi), (v_lo - 0.5, v_hi + 0.5))

    parts = []
    _frame(parts, canvas, "hidden-state norm growth", "t", "log10 ||h(t)||")
    entries = []
    for i, (name, (ts, v)) in enumerate(series.items()):
        v = np.asarray(v, dtype=float)
        keep = np.isfinite(v)
        pix = [(canvas.x(t), canvas.y(val)) for t, val in zip(np.asarray(ts)[keep].tolist(), v[keep].tolist())]
        if pix:
            parts.append(_polyline(pix, _color(i)))
        if name in blowups:
            bx = canvas.x(blowups[name])
            by = pix[-1][1] if pix else canvas.y(v_hi)
            parts.append(
                f'<path d="M {_fmt(bx - 5)} {_fmt(by - 5)} L {_fmt(bx + 5)} {_fmt(by + 5)} '
                f'M {_fmt(bx - 5)} {_fmt(by + 5)} L {_fmt(bx + 5)} {_fmt(by - 5)}" '
                f'stroke="{_color(i)}" stroke-width="2" fill="none"/>'
            )
            entries.append((f"{name} (blow-up)", _color(i)))
        else:
            entries.append((name, _color(i)))
    _legend(parts, entries, canvas.px0 + 10, canvas.py1 + 14)
    return _document(parts)


def render_loss_svg(cols) -> str:
    """Train loss per epoch from efficacy CSV columns."""
    epochs = np.asarray(cols["epoch"], dtype=float)
    loss = np.asarray(cols["train_loss"], dtype=float)
    keep = np.isfinite(loss)
    lo = float(loss[keep].min()) if keep.any() else 0.0
    hi = float(loss[keep].max()) if keep.any() else 1.0
    pad = 0.06 * (hi - lo or 1.0)
    canvas = _Canvas((float(epochs.min()), float(epochs.max()) or 1.0), (lo - pad, hi + pad))
    parts = []
    _frame(parts, canvas, "training loss", "epoch", "train_loss")
    pix = [(canvas.x(e), canvas.y(v)) for e, v in zip(epochs[keep], loss[keep])]
    if pix:
        parts.append(_polyline(pix, _color(0)))
    _legend(parts, [("train_loss", _color(0))], canvas.px0 + 10, canvas.py1 + 14)
    return _document(parts)


def render_efficacy_svg(cols) -> str:
    """Efficacy quotients and test accuracy per epoch from efficacy CSV columns."""
    epochs = np.asarray(cols["epoch"], dtype=float)
    series = [
        ("efficacy_fwd", np.asarray(cols["efficacy_fwd"], dtype=float)),
        ("efficacy_bwd", np.asarray(cols["efficacy_bwd"], dtype=float)),
        ("test_accuracy", np.asarray(cols["test_accuracy"], dtype=float)),
    ]
    vals = np.concatenate([v for _, v in series])
    vals = vals[np.isfinite(vals)]
    canvas = _Canvas(
        (float(epochs.min()), float(epochs.max()) or 1.0),
        (0.0, float(vals.max()) * 1.1 if vals.size else 1.0),
    )
    parts = []
    _frame(parts, canvas, "training efficacy", "epoch", "value")
    entries = []
    for i, (name, v) in enumerate(series):
        keep = np.isfinite(v)
        pix = [(canvas.x(e), canvas.y(val)) for e, val in zip(epochs[keep].tolist(), v[keep].tolist())]
        if pix:
            dash = "5,4" if name == "test_accuracy" else None
            parts.append(_polyline(pix, _color(i), dash=dash))
        entries.append((name, _color(i)))
    _legend(parts, entries, canvas.px0 + 10, canvas.py1 + 14)
    return _document(parts)
