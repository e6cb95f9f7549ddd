"""Scalar special functions used throughout the bound computations.

Conventions: the noise is standard Gaussian per real dimension, all entropic
quantities are computed in nats (conversion to bits happens only at output
boundaries), and functions that would overflow for large arguments are kept
exponentially scaled.
"""

from __future__ import annotations

import math
import numpy as np
from scipy import special

SQRT_2PI = math.sqrt(2.0 * math.pi)
LN_2PI = math.log(2.0 * math.pi)
LN_2PIE = math.log(2.0 * math.pi * math.e)
LN2 = math.log(2.0)

#: x above which the angular kernel switches from power series to quadrature.
SERIES_CUTOFF = 30.0
# truncation of the angular-kernel power series: the sum stops once every
# term is below _SERIES_REL_TOL of its partial sum
_SERIES_MAX_TERMS = 500
_SERIES_REL_TOL = 1e-16


def gauss_pdf(x):
    """Standard Gaussian density (1/sqrt(2 pi)) exp(-x^2/2)."""
    return np.exp(-0.5 * np.square(x)) / SQRT_2PI


def q_func(x):
    """Gaussian tail Q(x) = integral of the standard normal density over [x, inf)."""
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def bessel_i0_scaled(x):
    """Exponentially scaled modified Bessel function e^{-x} I_0(x), x >= 0.

    The scaling keeps the value in (0, 1] so products with Gaussian factors
    can combine exponents analytically instead of overflowing near x ~ 700.
    Raises ValueError unless every x is finite and >= 0.
    """
    x = np.asarray(x, dtype=float)
    if not ((x >= 0.0) & (x < math.inf)).all():
        raise ValueError("bessel_i0_scaled requires finite x >= 0")
    out = special.i0e(x)
    return float(out) if out.ndim == 0 else out


def binary_entropy_nats(p: float) -> float:
    """Binary entropy -p log p - (1-p) log(1-p) in nats, with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy_nats requires p in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def gamma_half(m: float) -> float:
    """Gamma(m) for positive half-integer m (m = j/2, j a positive integer)."""
    j = round(2.0 * m)
    if j < 1 or abs(2.0 * m - j) > 1e-12:
        raise ValueError(f"gamma_half requires a positive multiple of 1/2, got {m}")
    if m < 170:
        return math.gamma(m)
    return math.exp(math.lgamma(m))


def tilde_i_zero(n: int) -> float:
    """Value of the angular kernel at the origin: 2^{1-n/2} / Gamma(n/2).

    This fixes the normalizing constant of the kernel's even power series by
    matching the k = 0 term against the closed form of the trigonometric
    moment integrals int_0^pi sin^m(phi) cos^k(phi) dphi.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return 2.0 ** (1.0 - 0.5 * n) / gamma_half(n / 2.0)


def _tilde_series_scaled(n: int, x: np.ndarray) -> np.ndarray:
    """e^{-x} tilde_I_n(x) by the even power series, for x <= SERIES_CUTOFF.

    Terms follow the recurrence t_{k+1} = t_k x^2 / ((n+2k)(2k+2)), which is
    the ratio of consecutive coefficients (2k-1)!!/((n+2k-2)!! (2k)!) x^{2k}.
    The factorially growing denominator guarantees ratio-test convergence.
    """
    x2 = np.square(x)
    term = np.ones_like(x)
    total = np.ones_like(x)
    # term <= _SERIES_REL_TOL * total, tested in reused buffers
    limit = np.empty_like(x)
    done = np.empty(x.shape, dtype=bool)
    for k in range(_SERIES_MAX_TERMS):
        term *= x2
        term /= (n + 2.0 * k) * (2.0 * k + 2.0)
        total += term
        np.multiply(total, _SERIES_REL_TOL, out=limit)
        if np.less_equal(term, limit, out=done).all():
            break
    else:
        raise RuntimeError(
            f"angular kernel series did not converge in {_SERIES_MAX_TERMS} terms "
            f"(n={n}, max x={float(np.max(x)):.3g})")
    return tilde_i_zero(n) * total * np.exp(-x)


# Substituting phi = t/sqrt(x) concentrates the large-x angular integrand
# e^{x(cos phi - 1)} sin^{n-2}(phi) into a fixed O(1) window; cos(u)-1 <= -0.2 u^2
# on [0, pi] bounds the discarded tail below e^{-65} at t = 18.
_LARGE_X_TMAX = 18.0
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(80)


def _tilde_quad_scaled(n: int, x: np.ndarray) -> np.ndarray:
    """e^{-x} tilde_I_n(x) by quadrature of the angular integral, for large x."""
    cn = 2.0 / (2.0 ** (0.5 * (n - 1)) * gamma_half((n - 1) / 2.0) * SQRT_2PI)
    sq = np.sqrt(x)
    tmax = np.minimum(math.pi * sq, _LARGE_X_TMAX)
    # map the fixed Gauss-Legendre nodes onto [0, tmax] for every x at once;
    # one buffer goes u -> exp(x (cos u - 1)) in place, and sin(u)^(n-2) is
    # formed only when n > 2 (it is exactly 1 at n = 2)
    half = 0.5 * tmax
    buf = half[..., None] * (_GL_NODES + 1.0)
    buf /= sq[..., None]
    s = np.sin(buf) if n > 2 else None
    np.cos(buf, out=buf)
    buf -= 1.0
    buf *= x[..., None]
    np.exp(buf, out=buf)
    if n > 2:
        # s ** 1 would copy; numpy already squares s ** 2 by np.square
        buf *= s if n == 3 else s ** (n - 2)
    buf *= _GL_WEIGHTS
    vals = buf.sum(axis=-1) * half
    return cn * vals / sq


def tilde_i_n_scaled(n: int, x):
    """Exponentially scaled angular kernel e^{-x} tilde_I_n(x), n >= 2, x >= 0.

    tilde_I_n generalizes I_0 to n dimensions:

        tilde_I_n(x) = c_n int_0^pi e^{x cos phi} sin^{n-2}(phi) dphi,
        c_n = 2 / (2^{(n-1)/2} Gamma((n-1)/2) sqrt(2 pi)),

    so that tilde_I_2 = I_0.  Small arguments use the even power series,
    large arguments (x > 30) a substituted fixed-order quadrature of the
    integral; both routes are exponentially scaled throughout.  Raises
    ValueError unless every x is finite and >= 0.
    """
    if n < 2 or n != int(n):
        raise ValueError(f"tilde_i_n requires integer n >= 2, got {n}")
    arr = np.asarray(x, dtype=float)
    if not ((arr >= 0.0) & (arr < math.inf)).all():
        raise ValueError("tilde_i_n requires finite x >= 0")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    small = arr <= SERIES_CUTOFF
    if small.all():
        out = _tilde_series_scaled(int(n), arr)
    elif not small.any():
        out = _tilde_quad_scaled(int(n), arr)
    else:
        out = np.empty_like(arr)
        out[small] = _tilde_series_scaled(int(n), arr[small])
        out[~small] = _tilde_quad_scaled(int(n), arr[~small])
    return float(out[0]) if scalar else out


def tilde_i_n(n: int, x):
    """Unscaled angular kernel tilde_I_n(x); overflows to inf for x >~ 700."""
    arr = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        out = tilde_i_n_scaled(n, arr) * np.exp(arr)
    return float(out) if np.ndim(out) == 0 else out
