"""Independent oracles used to generate (and re-check) frozen test values.

Everything here goes through scipy's QUADPACK, closed forms or central finite
differences, never through the package's own panel engine or Taylor jets, so
oracle and implementation stay on separate routes. Run this module directly
to reprint the frozen constants.
"""

import math

import numpy as np
from scipy.integrate import quad

from deltakit import adaptive_quad, sinc_delta


def si_oracle(x, tol=1e-14):
    """Adaptive-quadrature sine integral (QUADPACK)."""
    v, _ = quad(lambda t: np.sin(t) / t if t != 0.0 else 1.0, 0.0, abs(x),
                epsabs=tol, limit=400)
    return math.copysign(v, x) if x else 0.0


def cos_kernel_oracle(r, x, tol=1e-13):
    """Real part of the truncated spectral integral: (1/2pi) int_-R^R cos(kx) dk."""
    v, _ = quad(lambda k: math.cos(k * x) / (2.0 * math.pi), -r, r,
                epsabs=tol, limit=800)
    return v


def kink_by_double_quadrature(n, x, inner_tol=1e-11, outer_tol=3e-9):
    """Second anchored primitive of the sinc kernel by two nested quadratures.

    Deliberately integrates the raw kernel twice (QUADPACK inside, panel
    engine outside) instead of using any closed form, so it is independent of
    the si-based evaluation path it checks.
    """
    def step_at(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = [quad(lambda s: sinc_delta(n, s), 0.0, t,
                    epsabs=inner_tol, limit=max(60, int(4 * n * abs(t)) + 10))[0]
               for t in ts.ravel()]
        return np.asarray(out).reshape(ts.shape)

    res = adaptive_quad(step_at, 0.0, x, tol=outer_tol,
                        max_panel=min(0.5, math.pi / n))
    return res.value


def _mollifier(t):
    """exp(-1/t) and its derivative exp(-1/t)/t^2, both 0 for t <= 0."""
    if t <= 0.0:
        return 0.0, 0.0
    m = math.exp(-1.0 / t)
    return m, m / (t * t)


def _unit_step(x, lo, hi):
    """Rising and falling unit steps on [lo, hi] and the rising step's slope."""
    a, da = _mollifier(x - lo)
    b, db = _mollifier(hi - x)
    den = a + b
    return a / den, b / den, (da * b + a * db) / (den * den)


def _stencil(f, x, h, order):
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if order == 2:
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    if order == 3:
        return (f(x + 2 * h) - 2.0 * f(x + h) + 2.0 * f(x - h) - f(x - 2 * h)) / (2.0 * h ** 3)
    if order == 4:
        return (f(x + 2 * h) - 4.0 * f(x + h) + 6.0 * f(x) - 4.0 * f(x - h) + f(x - 2 * h)) / h ** 4
    raise ValueError(f"unsupported derivative order {order}")


def fd_derivative(f, x, order=1):
    """The order-th derivative (1..4) of a plain callable f by central differences.

    One Richardson level over the central stencil, O(h^4), with step
    h = eps^(1/(order+2)) * max(1, |x|), the standard truncation/roundoff
    tradeoff for each stencil; a scalar x gives a float.
    """
    arr = np.asarray(x, dtype=float)
    h = np.finfo(float).eps ** (1.0 / (order + 2)) * np.maximum(1.0, np.abs(arr))
    coarse = _stencil(f, arr, h, order)
    fine = _stencil(f, arr, 0.5 * h, order)
    out = (4.0 * fine - coarse) / 3.0
    return float(out) if arr.ndim == 0 else out


def bump_oracle(knots, scale=1.0):
    """scale * bump(*knots) and its exact first derivative, as scalar callables.

    Written out from the mollifier quotient (product of a rising step on
    [alpha, beta] and a falling step on [gamma, delta]) and differentiated by
    hand, so it shares no code with deltakit.testfn.
    """
    alpha, beta, gamma, delta = (float(k) for k in knots)

    def f(x):
        up, _, _ = _unit_step(x, alpha, beta)
        _, down, _ = _unit_step(x, gamma, delta)
        return scale * up * down

    def fprime(x):
        up, _, dup = _unit_step(x, alpha, beta)
        _, down, ddown = _unit_step(x, gamma, delta)
        return scale * (dup * down - up * ddown)

    return f, fprime


def sinc_rate_constant(knots, scale=1.0):
    """K_f with |pair_sinc(R, f) - f(0)| <= K_f / R for every R > 0.

    On the symmetric hull [-M, M] the pairing splits (pair_split) into
    (1/pi) int g(x) sin(Rx) dx with the difference quotient g = (f - f(0))/x,
    plus 2 f(0) Si(RM)/pi. Integration by parts bounds the first piece by
    (|g(-M)| + |g(M)| + int |g'|)/(pi R), and |Si(y) - pi/2| <= 2/y bounds
    the second piece's error by 4|f(0)|/(pi M R).
    """
    f, fprime = bump_oracle(knots, scale)
    M = max(abs(float(knots[0])), abs(float(knots[-1])))
    f0 = f(0.0)

    def g(x):
        return (f(x) - f0) / x

    def abs_gprime(x):
        return abs(x * fprime(x) - (f(x) - f0)) / (x * x)

    # QUADPACK never evaluates panel ends, so the break at 0 keeps x = 0 out.
    edges = sorted({-M, 0.0, M, *(float(k) for k in knots)})
    variation = math.fsum(quad(abs_gprime, lo, hi, epsabs=1e-13, limit=200)[0]
                          for lo, hi in zip(edges, edges[1:]))
    return ((abs(g(-M)) + abs(g(M)) + variation) / math.pi
            + 4.0 * abs(f0) / (math.pi * M))


def lorentz_rate_constant(knots, scale=1.0):
    """C_f = (1/pi) int (f(0) - f(x))/x^2 dx, the constant of the Lorentz rate.

    When f equals f(0) on a neighbourhood of 0 (beta < 0 < gamma), the
    pairing error is exactly (eps/pi) int (f(0) - f(x))/(x^2 + eps^2) dx,
    which is C_f * eps + O(eps^3). Outside [alpha, delta] the integrand is
    f(0)/x^2, integrated in closed form.
    """
    alpha, beta, gamma, delta = (float(k) for k in knots)
    if not beta < 0.0 < gamma:
        raise ValueError("lorentz_rate_constant needs a plateau around 0")
    f, _ = bump_oracle(knots, scale)
    f0 = f(0.0)

    def deficit(x):
        return (f0 - f(x)) / (x * x)

    sides = (quad(deficit, alpha, beta, epsabs=1e-14, limit=200)[0]
             + quad(deficit, gamma, delta, epsabs=1e-14, limit=200)[0])
    return (sides + f0 / abs(alpha) + f0 / delta) / math.pi


if __name__ == "__main__":
    print("si(pi) =", repr(si_oracle(math.pi)))
    print("Si(1)  =", repr(si_oracle(1.0)))
    print("sinc_delta(2, 0.5) oracle =", repr(cos_kernel_oracle(2.0, 0.5)))
    print("I(10) for g=x on [-1,1] =", repr(2 * (math.sin(10.0) - 10 * math.cos(10.0)) / 100.0))
    for knots, scale in (((-2.0, -1.0, 1.0, 2.0), 1.0), ((-2.0, -1.0, 1.0, 2.0), 0.5),
                         ((1.0, 2.0, 3.0, 4.0), 1.0)):
        print(f"K_f for {scale:g} * bump{knots} =", repr(sinc_rate_constant(knots, scale)))
    print("C_f for bump(-2, -1, 1, 2) =", repr(lorentz_rate_constant((-2.0, -1.0, 1.0, 2.0))))
