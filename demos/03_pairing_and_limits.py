"""Pairing the regularized kernels against bumps and extrapolating the limit.

The pairing of either kernel family with a smooth bump converges to the
bump's value at the origin -- the delta-defining property. The oscillatory
kernel needs panels no wider than half its period. Each ladder's finest rung
is printed beside the limit that a fit of the library's model extrapolates:
neither model is the rate these pairings converge at, so the finest rung is
the closer one, and it is the limit `deltakit pair` reports.
"""

import numpy as np

from deltakit import (bump, extrapolate_limit, pair_lorentz, pair_sinc,
                      pair_split, sine_decay_fit, difference_quotient)

f = bump(-2.0, -1.0, 1.0, 2.0)          # f(0) = 1
shifted = f.shifted(3.0)                 # support [1, 5], f(0) = 0

print("truncated-spectrum pairing against bump(-2,-1,1,2), f(0) = 1:")
samples = []
for r in (100.0, 200.0, 400.0, 800.0):
    res = pair_sinc(r, f)
    samples.append((r, res.value))
    print(f"  R={r:5.0f}: value = {res.value:.12f}  (quadrature est {res.abs_error_estimate:.1e})")
limit, finest = extrapolate_limit(samples), samples[-1][1]
print(f"  1/R fit:                limit = {limit:.12f}  |err| = {abs(limit - 1):.1e}")
print(f"  finest rung (R = 800):  value = {finest:.12f}  |err| = {abs(finest - 1):.1e}")

print("\nsame kernel against the bump shifted to [1, 5] (origin outside):")
for r in (100.0, 400.0):
    print(f"  R={r:5.0f}: value = {pair_sinc(r, shifted).value:.3e}")

print("\nlorentz pairing, widths shrinking to zero:")
eps_samples = []
for eps in (1e-1, 1e-2, 1e-3, 1e-4):
    res = pair_lorentz(eps, f)
    eps_samples.append((eps, res.value))
    print(f"  eps={eps:7.0e}: value = {res.value:.10f}  |err| = {abs(res.value - 1):.2e}")
limit, finest = extrapolate_limit(eps_samples, mode="log_corrected"), eps_samples[-1][1]
print(f"  eps*ln(1/eps) fit:         limit = {limit:.10f}  |err| = {abs(limit - 1):.2e}")
print(f"  finest rung (eps = 1e-4):  value = {finest:.10f}  |err| = {abs(finest - 1):.2e}")

print("\nsplitting the pairing into difference-quotient and step parts (R = 50):")
t1, t2 = pair_split(50.0, f)
direct = pair_sinc(50.0, f).value
print(f"  oscillatory remainder = {t1:+.3e}")
print(f"  delta-defining part   = {t2:.10f}")
print(f"  sum - direct          = {t1 + t2 - direct:+.2e}")

print("\noscillatory decay of the remainder (integration-by-parts rate ~ 1/R):")
fit = sine_decay_fit(difference_quotient(f), (-2.0, 2.0), np.geomspace(10, 1e4, 13))
print(f"  fitted log-log exponent: {fit.fitted_exponent:.3f} (residual {fit.fit_residual:.2f})")
