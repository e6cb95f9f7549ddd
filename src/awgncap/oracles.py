"""Independent references for the closed forms the bounds use.

None of the bounds reads these functions.  They evaluate the same quantities
by another route, adaptive QUADPACK quadrature of the defining integrals or
the paper's scalar formulas, so that the property suites in verify and the
tests can check the production values against them.  scipy.integrate is
imported inside the functions, so importing the package does not load it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from . import radial, specfun
from .radial import ChannelConfig, QuadratureError
from .specfun import LN2, LN_2PIE, gamma_half, q_func
from .upper_bounds import avg_power

__all__ = ["k_n_numeric", "q_n", "g_n", "g_tilde_n", "marcum_q1", "d1",
           "mckellips_1d"]

# QUADPACK tolerances and the truncation of the radial integrals at
# max(A, x) + _TRUNCATION_SIGMA, where the Gaussian factor is below the
# double-precision floor even after polynomial growth
_REL_TOL = 1e-10
_ABS_TOL = 1e-13
_TRUNCATION_SIGMA = 40.0
_MAX_SUBDIVISIONS = 200


def k_n_numeric(n: int, A: float) -> float:
    """Shell normalizer by adaptive quadrature of its defining integral.

    k_n(A) = (2 / (2^{n/2} Gamma(n/2))) int_A^inf e^{-(r-A)^2/2} r^{n-1} dr;
    radial.k_n_closed is the closed form.
    """
    from scipy import integrate

    ChannelConfig(n, A)
    prefac = 2.0 / (2.0 ** (0.5 * n) * gamma_half(n / 2.0))

    def integrand(r):
        return math.exp(-0.5 * (r - A) ** 2) * r ** (n - 1)

    val, err = integrate.quad(integrand, A, A + _TRUNCATION_SIGMA,
                              epsabs=_ABS_TOL, epsrel=_REL_TOL,
                              limit=_MAX_SUBDIVISIONS)
    if err > max(_ABS_TOL, 100.0 * _REL_TOL * abs(val)):
        raise QuadratureError("k_n_numeric did not converge", prefac * val,
                              prefac * err)
    return prefac * val


def _scaled_kernel_times_power(n, z, x, A):
    """Common integrand e^{-(z-x)^2/2} [e^{-zx} tilde_I_n(zx)] z^{n-1}."""
    return (np.exp(-0.5 * np.square(z - x))
            * specfun.tilde_i_n_scaled(n, z * x) * z ** (n - 1.0))


def _radial_quad(n, x, A, weight):
    """Adaptive quadrature of weight(z) * kernel over [A, zmax]."""
    from scipy import integrate

    zmax = max(A, x) + _TRUNCATION_SIGMA

    def integrand(z):
        return weight(z) * _scaled_kernel_times_power(n, z, x, A)

    val, err = integrate.quad(integrand, A, zmax, epsabs=_ABS_TOL,
                              epsrel=_REL_TOL, limit=_MAX_SUBDIVISIONS)
    if err > max(_ABS_TOL, 100.0 * _REL_TOL * max(abs(val), 1e-300)):
        raise QuadratureError(f"radial integral (n={n}, x={x}, A={A}) "
                              "did not converge", val, err)
    return val


def _validate_radial_args(n, x, A):
    ChannelConfig(n, A)
    if x < 0 or x > A:
        raise ValueError(f"x must lie in [0, A] = [0, {A}], got {x}")


def q_n(n: int, x: float, A: float) -> float:
    """Radial tail probability Q_n(x, A); Q_2 equals Marcum Q_1(x, A).

    For n = 1 this is the exact two-sided Gaussian tail Q(A-x) + Q(A+x).
    """
    _validate_radial_args(n, x, A)
    if n == 1:
        return float(q_func(A - x) + q_func(A + x))
    return min(_radial_quad(n, x, A, lambda z: 1.0), 1.0)


def g_n(n: int, x: float, A: float) -> float:
    """Quadratically weighted radial tail g_n(x, A) (nonnegative).

    For n = 1: (1/2)[Q(A-x) + Q(A+x)] + (1/2)[g(A-x) + g(A+x)] with
    g(u) = u^2 Q(u) - u psi(u), the exact reduction of the shell integral.
    """
    _validate_radial_args(n, x, A)
    if n == 1:
        return float(0.5 * (q_func(A - x) + q_func(A + x))
                     + 0.5 * (radial.g_edge(A - x) + radial.g_edge(A + x)))
    return max(_radial_quad(n, x, A, lambda z: 0.5 * (z - A) ** 2), 0.0)


def g_tilde_n(n: int, x: float, A: float) -> float:
    """gtilde_n(x, A), integrated directly (not via the identity).

    Positive for all x in [0, A]; for n = 1 it reduces to
    -(1/2)[g(A-x) + g(A+x)], positive because g(u) <= 0 for u >= 0.
    """
    _validate_radial_args(n, x, A)
    if n == 1:
        return float(-0.5 * (radial.g_edge(A - x) + radial.g_edge(A + x)))
    return _radial_quad(n, x, A, lambda z: 0.5 * n - 0.5 * (z - A) ** 2)


def marcum_q1(a: float, b: float) -> float:
    """Marcum Q-function Q_1(a, b) = int_b^inf z e^{-(z^2+a^2)/2} I_0(az) dz.

    Evaluated by adaptive quadrature of the rescaled integrand
    z e^{-(z-a)^2/2} [e^{-az} I_0(az)], whose factors are individually finite
    for any argument size.  The result lies in [0, 1].
    """
    from scipy import integrate

    if a < 0 or b < 0:
        raise ValueError("marcum_q1 requires a >= 0 and b >= 0")
    upper = max(a, b) + 40.0

    def integrand(z):
        return z * math.exp(-0.5 * (z - a) ** 2) * special.i0e(a * z)

    val, _ = integrate.quad(integrand, b, upper, epsabs=1e-14, epsrel=1e-12,
                            limit=200)
    return min(max(val, 0.0), 1.0)


def d1(beta: float, x: float, A: float) -> float:
    """Dual-bound divergence for the scalar channel, in nats.

    D = log(2A / (beta sqrt(2 pi e)))
        + log(beta sqrt(2 pi e) / ((1-beta) 2A)) [Q(A-x) + Q(A+x)]
        + (1/2)[g(A-x) + g(A+x)],          g(u) = u^2 Q(u) - u psi(u).

    Symmetry of the channel permits restricting to x in [0, A].  The paper's
    scalar form of upper_bounds.d_n(1, ...).
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    _validate_radial_args(1, x, A)
    qq = float(q_func(A - x) + q_func(A + x))
    gg = float(radial.g_edge(A - x) + radial.g_edge(A + x))
    first = math.log(2.0 * A) - 0.5 * LN_2PIE - math.log(beta)
    coeff = (0.5 * LN_2PIE + math.log(beta) - math.log(1.0 - beta)
             - math.log(2.0 * A))
    return first + coeff * qq + 0.5 * gg


def mckellips_1d(P: float) -> float:
    """McKellips' scalar bound min{log2(1 + sqrt(2P/(pi e))), (1/2)log2(1+P)}.

    The paper's closed form; upper_bounds.mckellips_nd(1, P) agrees to
    rounding.
    """
    avg = avg_power(1, P)
    peak = math.log1p(math.sqrt(2.0 * P / (math.pi * math.e))) / LN2
    return min(peak, avg)
