"""The points on which si is checked against mpmath and against scipy.

Below |x| = 100 si evaluates one Chebyshev piece per half-period
[k*pi, (k+1)*pi]; at 100 it switches to its asymptotic pair. The grid holds
a dense sweep of [0, 100], each seam k*pi with its neighbouring floats, each
piece's midpoint, tiny arguments down to 1e-300, and both sides of the
switch.
"""

import math

import numpy as np

# the ends k*pi of the Chebyshev pieces below 100, then the switch
SEAMS = np.append(np.arange(1, 32) * math.pi, 100.0)


def si_grid(sweep=10001):
    """The special points and `sweep` evenly spaced points of [0, 100]."""
    ends = np.arange(32) * math.pi
    return np.unique(np.concatenate([
        np.linspace(0.0, 100.0, sweep),
        ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf),
        (np.arange(32) + 0.5) * math.pi,
        np.geomspace(1e-300, 1e-4, 61),
        [100.0, np.nextafter(100.0, np.inf)],
    ]))
