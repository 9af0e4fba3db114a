"""Independent reference values for checking deltakit's outputs.

Nothing here calls deltakit: bump values come from the closed form of the
exp(-1/x) construction, and figure series from numpy closed forms and
`scipy.special.sici`, so a defect in the package cannot hide in its own check.
"""

from __future__ import annotations

import math

import numpy as np

# Absolute tolerance for sine-integral based values: tests pin si to 1e-12 and
# kinks to 1e-11; figures print 17 significant digits, so parsing loses nothing.
SI_ATOL = 1e-11
CLOSED_RTOL = 1e-13


def _mollifier(t):
    return math.exp(-1.0 / t) if t > 1.0 / 745.0 else 0.0


def bump_value(knots, shift, x):
    """Value at x of bump(*knots) translated by shift, from the closed form."""
    a, b, c, d = knots
    t = x - shift
    up = _mollifier(t - a) / (_mollifier(t - a) + _mollifier(b - t)) if t < b else 1.0
    down = _mollifier(d - t) / (_mollifier(t - c) + _mollifier(d - t)) if t > c else 1.0
    return up * down if a < t < d else 0.0


def _np_mollifier(t):
    safe = np.where(t > 0.0, t, 1.0)
    return np.where(t > 0.0, np.exp(-1.0 / safe), 0.0)


def _sinc_delta(r, x):
    safe = np.where(x == 0.0, 1.0, x)
    return np.where(x == 0.0, r / math.pi, np.sin(r * safe) / (math.pi * safe))


def _si(x):
    from scipy.special import sici
    return sici(x)[0]


def figure_series(fig, xs):
    """The series a figure is made of: [(label, xs, values, atol, rtol)]."""
    out = []
    si_tol = (SI_ATOL, 0.0)
    closed = (0.0, CLOSED_RTOL)
    if fig == 1:
        for r in range(1, 21):
            out.append((f"R={r}", xs, _sinc_delta(r, xs), 1e-15 * r, CLOSED_RTOL))
    elif fig == 2:
        out.append(("delta_180", xs, _sinc_delta(180, xs), 1e-15 * 180, CLOSED_RTOL))
        nz = xs[np.abs(xs) > 0]
        out.append(("envelope_upper", nz, 1.0 / (math.pi * np.abs(nz))) + closed)
        out.append(("envelope_lower", nz, -1.0 / (math.pi * np.abs(nz))) + closed)
    elif fig == 3:
        for n in range(1, 6):
            out.append((f"n={n}", xs, _sinc_delta(n, xs), 1e-15 * n, CLOSED_RTOL))
    elif fig == 4:
        for n in range(1, 6):
            out.append((f"n={n}", xs, _si(n * xs) / math.pi) + si_tol)
    elif fig == 5:
        out.append(("step_180", xs, _si(180 * xs) / math.pi) + si_tol)
    elif fig == 6:
        for n in range(1, 6):
            kink = xs * _si(n * xs) / math.pi - 2.0 * np.sin(0.5 * n * xs) ** 2 / (n * math.pi)
            out.append((f"n={n}", xs, kink) + si_tol)
    elif fig == 7:
        for n in range(1, 6):
            out.append((f"n={n}", xs, (n / math.pi) / (1.0 + (n * xs) ** 2)) + closed)
    elif fig == 8:
        # below the underflow knee t = 1/745 deltakit returns an exact 0 where
        # exp(-1/t) is a denormal, hence the tiny absolute tolerance
        out.append(("f_1", xs, _np_mollifier(xs - 1.0), 1e-300, CLOSED_RTOL))
        out.append(("g_2", xs, _np_mollifier(2.0 - xs), 1e-300, CLOSED_RTOL))
    elif fig == 9:
        up = _np_mollifier(xs - 1.0) / (_np_mollifier(xs - 1.0) + _np_mollifier(2.0 - xs))
        down = _np_mollifier(4.0 - xs) / (_np_mollifier(xs - 3.0) + _np_mollifier(4.0 - xs))
        for label, vals in (("F_12", up), ("G_34", down), ("product", up * down)):
            out.append((label, xs, vals, 1e-15, CLOSED_RTOL))
    else:
        raise ValueError(f"no oracle for figure {fig}")
    return out


def figure_error(fig, interval, grid, csv_text):
    """Compare a figure CSV with the oracle; return a message, or None if it agrees."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != "x,value,series":
        return "missing CSV header"
    rows = [line.split(",") for line in lines[1:]]
    xs = np.linspace(interval[0], interval[1], grid)
    pos = 0
    for label, sx, expected, atol, rtol in figure_series(fig, xs):
        block = rows[pos:pos + sx.size]
        pos += sx.size
        if len(block) != sx.size or any(r[2] != label for r in block):
            return f"series {label}: wrong rows"
        got_x = np.array([float(r[0]) for r in block])
        got = np.array([float(r[1]) for r in block])
        if not np.array_equal(got_x, sx):
            return f"series {label}: x grid differs from linspace"
        err = np.abs(got - expected)
        limit = atol + rtol * np.abs(expected)
        if not np.all(err <= limit):
            i = int(np.argmax(err - limit))
            return (f"series {label}: value {float(got[i])!r} vs oracle "
                    f"{float(expected[i])!r} at x={float(sx[i])!r}")
    if pos != len(rows):
        return f"{len(rows) - pos} unexpected trailing rows"
    return None
