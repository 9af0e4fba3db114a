"""Building smooth compactly supported functions from exp(-1/x).

The one-sided mollifier exp(-1/x) vanishes with all derivatives at 0, so
quotients of shifted copies give smooth unit steps, and a product of an
up-step and a down-step gives a bump that is exactly 0 outside its support
and exactly 1 on its plateau.
"""

import numpy as np

from deltakit import bump, derivative, difference_quotient, mollifier, smooth_step_up

print("mollifier: exp(-1/x) for x > 0, exactly 0 for x <= 0")
for x in (-1.0, 0.0, 0.01, 0.5, 1.0, 10.0):
    print(f"  m({x:5.2f}) = {mollifier(x):.10g}")

F = smooth_step_up(1.0, 2.0)
print("\nsmooth step on [1, 2]: 0 below, 1 above, strictly monotone between")
for x in (0.5, 1.0, 1.25, 1.5, 1.75, 2.0, 3.0):
    print(f"  F({x:4.2f}) = {F(x):.10g}")

f = bump(1.0, 2.0, 3.0, 4.0)
print("\nbump(1,2,3,4): support [1,4], plateau [2,3]")
print("  plateau values exact:", f(np.array([2.0, 2.5, 3.0])))
print("  outside values exact zeros:", f(np.array([0.0, 0.999, 4.001, 7.0])))
print("  ramp values:", np.round(f(np.array([1.5, 3.5])), 6))

print("\nflat contact at the support edges (exact Taylor-jet derivatives):")
for order in (1, 2, 3):
    print(f"  order {order}: at 1.0 -> {derivative(f, 1.0, order):.3e}, "
          f"at 4.0 -> {derivative(f, 4.0, order):.3e}")

g = difference_quotient(bump(-2.0, -1.0, 1.0, 2.0))
print("\ndifference quotient g(x) = (f(x) - f(0))/x extends continuously:")
print(f"  g(0) = f'(0) = {g(0.0)}")
print(f"  g(1.5) = {g(1.5):.10f}  (exactly (0.5 - 1)/1.5)")
print(f"  g(1e-8) = {g(1e-8)}  (integral of f'(t x) over t in [0, 1] below the switch)")
