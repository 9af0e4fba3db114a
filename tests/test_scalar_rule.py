"""The scalar rule: a 0-d result is a float, and a kernel's parameter broadcasts like x."""

import functools

import numpy as np
import pytest

from deltakit import families, special, testfn
from deltakit.quadrature import anchored_primitive_values

KERNELS = ("sinc_delta", "sinc_delta_prime", "sinc_step", "sinc_kink", "lorentz_delta",
           "lorentz_delta_n", "lorentz_delta_prime", "lorentz_step", "lorentz_kink")

_BUMP = testfn.bump(-2.0, -1.0, 1.0, 2.0)

# every other function under the rule, as a function of its points alone
POINT_FUNCTIONS = {
    "half_step": families.half_step,
    "half_abs": families.half_abs,
    "sinc": special.sinc,
    "sinc_prime": special.sinc_prime,
    "si": special.si,
    "dirichlet_tail": special.dirichlet_tail,
    "sinc_sq_integral": functools.partial(special.sinc_sq_integral, 0.0),
    "mollifier": testfn.mollifier,
    "SmoothStep": testfn.smooth_step_up(1.0, 2.0),
    "TestFunction": _BUMP,
    "DifferenceQuotient": testfn.difference_quotient(_BUMP),
    "derivative": functools.partial(testfn.derivative, _BUMP),
    "anchored_primitive_values": functools.partial(anchored_primitive_values, np.cos),
}


@pytest.mark.parametrize("name", KERNELS + tuple(POINT_FUNCTIONS))
def test_scalar_rule(name):
    if name in KERNELS:
        kernel = getattr(families, name)
        fn = functools.partial(kernel, 0.5)
        # an array parameter broadcasts: each value is the scalar call's, bit for bit
        both = kernel(np.array([1.0, 2.0]), 0.5)
        assert type(both) is np.ndarray
        assert both.tobytes() == np.array([kernel(1.0, 0.5), kernel(2.0, 0.5)]).tobytes()
    else:
        fn = POINT_FUNCTIONS[name]
    # a Python float and a 0-d array give a float, a one-element list a shape-(1,) ndarray
    value = fn(1.5)
    assert type(value) is float
    assert type(fn(np.asarray(1.5))) is float
    out = fn([1.5])
    assert type(out) is np.ndarray and out.shape == (1,)
    assert out[0] == value
