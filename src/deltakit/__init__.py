"""deltakit: regularized Dirac-delta families made executable.

Closed-form regularized families and their primitives, smooth compactly
supported test functions, oscillation-aware distribution pairing, sequential
(fundamental-sequence) distributions, and certificates for the quantitative
convergence bounds.
"""

from .certify import CertReport, certificate_names, run_certificate
from .families import (half_abs, half_step, lorentz_delta, lorentz_delta_n,
                       lorentz_kink, lorentz_step, sinc_delta, sinc_kink,
                       sinc_step)
from .pairing import (PairingResult, RateFit, extrapolate_limit, pair,
                      pair_lorentz, pair_sinc, pair_split, sine_decay_fit)
from .quadrature import QuadResult, QuadratureError, adaptive_quad
from .seqdist import (FundamentalSeq, GridReport, OffOriginBound,
                      check_equivalent, check_fundamental,
                      check_zero_off_origin, damped_cos_seq, lorentz_delta_seq,
                      pair_by_parts, scaled_cos_seq, seq_derivative,
                      sinc_delta_seq, sinc_step_seq, zero_seq)
from .special import dirichlet_tail, fubini_square, si, sinc_sq_integral
from .testfn import (DifferenceQuotient, Interval, SmoothStep, TestFunction,
                     bump, derivative, difference_quotient, mollifier,
                     smooth_step_down, smooth_step_up)

__version__ = "0.1.0"

__all__ = [
    "CertReport", "certificate_names", "run_certificate",
    "half_abs", "half_step", "lorentz_delta", "lorentz_delta_n",
    "lorentz_kink", "lorentz_step", "sinc_delta", "sinc_kink", "sinc_step",
    "PairingResult", "RateFit", "extrapolate_limit", "pair", "pair_lorentz",
    "pair_sinc", "pair_split", "sine_decay_fit",
    "QuadResult", "QuadratureError", "adaptive_quad",
    "FundamentalSeq", "GridReport", "OffOriginBound", "check_equivalent",
    "check_fundamental", "check_zero_off_origin", "damped_cos_seq",
    "lorentz_delta_seq", "pair_by_parts", "scaled_cos_seq", "seq_derivative",
    "sinc_delta_seq", "sinc_step_seq", "zero_seq",
    "dirichlet_tail", "fubini_square", "si", "sinc_sq_integral",
    "DifferenceQuotient", "Interval", "SmoothStep", "TestFunction", "bump",
    "derivative", "difference_quotient", "mollifier", "smooth_step_down",
    "smooth_step_up",
]
