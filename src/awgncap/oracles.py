"""Independent references for the values the bounds compute.

No bound reads these functions.  They evaluate the same quantities by
another route, so that the property suites in verify and the tests can check
the production values against them: QUADPACK quadrature of the defining
integrals (radial functions, Marcum Q_1, angular kernel, divergence,
two-point MI), the paper's scalar formulas d1 and mckellips_1d, and for
constellation MI the polar Gauss-Legendre rule and a seeded Monte Carlo
estimator on a log-domain mixture kernel.  The package root does not import
this module, so importing awgncap loads neither it nor any part of scipy.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

from . import lower_bounds, radial, specfun
from .radial import ChannelConfig, QuadratureError
from .specfun import LN2, LN_2PI, LN_2PIE, gamma_half, q_func
from .upper_bounds import avg_power

__all__ = ["k_n_numeric", "q_n", "g_n", "g_tilde_n", "marcum_q1", "d1",
           "mckellips_1d", "divergence_direct_1d", "divergence_direct_nd",
           "constellation_mi_polar", "constellation_mi_mc", "binary_mi"]

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


def _tilde_angular_quad(n: int, x: float) -> float:
    """The scaled angular kernel e^{-x} tilde_I_n(x) by adaptive quadrature
    of its angular integral; specfun.tilde_i_n_scaled is the series."""
    cn = 2.0 / (2.0 ** (0.5 * (n - 1)) * gamma_half((n - 1) / 2.0)
                * specfun.SQRT_2PI)
    val, _ = integrate.quad(
        lambda phi: math.exp(x * (math.cos(phi) - 1.0)) * math.sin(phi) ** (n - 2),
        0.0, math.pi, epsabs=1e-15, epsrel=1e-13, limit=200)
    return cn * val


def divergence_direct_1d(beta: float, x: float, A: float) -> float:
    """D(p_{Y|X}(.|x) || q_Y) for the scalar channel by direct integration."""
    def log_q(y):
        if abs(y) <= A:
            return math.log(beta / (2.0 * A))
        return math.log(1.0 - beta) - 0.5 * LN_2PI - 0.5 * (abs(y) - A) ** 2

    def integrand(y):
        lp = -0.5 * LN_2PI - 0.5 * (y - x) ** 2
        return math.exp(lp) * (lp - log_q(y))

    pieces = sorted({-A, A, x - 12.0, x + 12.0, -A - 12.0, A + 12.0})
    val = 0.0
    for a, b in zip(pieces[:-1], pieces[1:]):
        val += integrate.quad(integrand, a, b, epsabs=1e-13, epsrel=1e-11,
                              limit=200)[0]
    return val


def divergence_direct_nd(n: int, beta: float, x: float, A: float) -> float:
    """Direct (r, phi) integration of the n-dimensional divergence, n >= 2.

    Writes the output density in spherical coordinates around the input
    direction; the remaining n-2 angles integrate to the unit-sphere area
    S_{n-2} = 2 pi^{(n-1)/2} / Gamma((n-1)/2).
    """
    s_rest = 2.0 * math.pi ** (0.5 * (n - 1)) / gamma_half((n - 1) / 2.0)
    lv = radial.log_vol_ball(n, A)
    lk = math.log(radial.k_n_closed(n, A))

    rmax = max(x + 14.0, A + 2.0)
    r1, w1 = radial._panel_grid(1e-12, A, max(8, int(math.ceil(A * 3))), 30)
    r2, w2 = radial._panel_grid(
        A, rmax, max(8, int(math.ceil((rmax - A) * 3))), 30)
    r = np.concatenate([r1, r2])
    wr = np.concatenate([w1, w2])
    logq = np.where(r <= A, math.log(beta) - lv,
                    math.log1p(-beta) - lk - 0.5 * n * LN_2PI
                    - 0.5 * np.square(r - A))
    phi, wp = radial._panel_grid(0.0, math.pi, 24, 30)

    expo = -0.5 * (r[:, None] ** 2 + x * x - 2.0 * r[:, None] * x
                   * np.cos(phi[None, :]))
    logp = -0.5 * n * LN_2PI + expo
    dens = np.exp(logp) * (logp - logq[:, None])
    ang = np.sin(phi) ** (n - 2) * wp
    return s_rest * float((wr * r ** (n - 1)) @ dens @ ang)


# kernel entries (rows x points) evaluated per block in _log_mixture
_BLOCK_ENTRIES = 1 << 18


def _logsumexp_rows(a):
    """log(sum(exp(a), axis=1)) for a 2-D array of finite values; overwrites a."""
    peak = a.max(axis=1)
    a -= peak[:, None]
    np.exp(a, out=a)
    return peak + np.log(a.sum(axis=1))


def _log_mixture(Y, points, logw):
    """log p_Y at the rows of Y, shape (K, dim), for unit-noise Gaussians
    centred at points (shape (M, dim)) with log-weights logw."""
    dim = Y.shape[1]
    offset = logw - 0.5 * np.square(points).sum(axis=1)
    out = np.empty(Y.shape[0])
    step = max(1, _BLOCK_ENTRIES // logw.size)
    for i in range(0, Y.shape[0], step):
        Yb = Y[i:i + step]
        if dim == 1:
            # direct difference: the expanded square cancels when |y| is large
            a = np.square(Yb - points.T)
            a *= -0.5
            a += logw
        else:
            a = Yb @ points.T
            a -= 0.5 * np.square(Yb).sum(axis=1)[:, None]
            a += offset
        out[i:i + step] = _logsumexp_rows(a)
    return out - 0.5 * dim * LN_2PI


# The polar rule constellation_mi used before its lattice rule: composite
# 12-point Gauss-Legendre panels of width 0.75 along y (1-D) or the radius
# (2-D), and in 2-D ceil(2 pi R / 0.35) equally spaced angles, an arc spacing
# of 0.35 at the outer radius R.
_GL_ORDER = 12
_PANEL, _ARC = 0.75, 0.35


def _gl_nodes(lo: float, hi: float):
    """Gauss-Legendre nodes and weights on [lo, hi], panels <= _PANEL wide."""
    return radial._panel_grid(lo, hi, int(math.ceil((hi - lo) / _PANEL)),
                              _GL_ORDER)


def _entropy_quad_1d(points, logw):
    y, w = _gl_nodes(float(points.min()) - 10.0, float(points.max()) + 10.0)
    lp = _log_mixture(y[:, None], points, logw)
    return float(-(w * np.exp(lp) * lp).sum())


def _entropy_quad_2d(points, logw):
    R = float(np.sqrt(np.square(points).sum(axis=1)).max()) + 10.0
    r, rw = _gl_nodes(0.0, R)
    ang_nodes = int(math.ceil(2.0 * math.pi * R / _ARC))
    phi = np.arange(ang_nodes) * (2.0 * math.pi / ang_nodes)
    Y = np.stack([np.outer(r, np.cos(phi)).ravel(),
                  np.outer(r, np.sin(phi)).ravel()], axis=1)
    W = np.repeat(rw * r * (2.0 * math.pi / ang_nodes), ang_nodes)
    lp = _log_mixture(Y, points, logw)
    return float(-(W * np.exp(lp) * lp).sum())


def constellation_mi_polar(c: lower_bounds.Constellation) -> float:
    """Mutual information of c in bits by the polar rule: a reference for
    lower_bounds.constellation_mi on the same truncation region."""
    points, w = lower_bounds._support(c)
    quad = _entropy_quad_1d if c.dim == 1 else _entropy_quad_2d
    nats = quad(points, np.log(w)) - 0.5 * c.dim * LN_2PIE
    return max(nats, 0.0) / LN2


def constellation_mi_mc(c: lower_bounds.Constellation, samples: int = 10 ** 6,
                        seed: int = 0) -> lower_bounds.MiEstimate:
    """Monte Carlo estimate of constellation_mi with reported std error."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(c.size, size=samples, p=c.probs)
    Y = c.points[idx] + rng.standard_normal((samples, c.dim))
    points, w = lower_bounds._support(c)
    neg_lp = -_log_mixture(Y, points, np.log(w))
    h = float(neg_lp.mean())
    se = float(neg_lp.std(ddof=1) / math.sqrt(samples))
    nats = h - 0.5 * c.dim * LN_2PIE
    return lower_bounds.MiEstimate(bits=max(nats, 0.0) / LN2,
                                   err_bits=se / LN2, method="monte_carlo")


def binary_mi(a: float) -> float:
    """MI in bits of the equiprobable input {-a, a} by adaptive quadrature
    of h(Y) for the two-component output mixture."""
    def integrand(y):
        p1 = math.exp(-0.5 * (y - a) ** 2) / specfun.SQRT_2PI
        p2 = math.exp(-0.5 * (y + a) ** 2) / specfun.SQRT_2PI
        p = 0.5 * (p1 + p2)
        return -p * math.log(p) if p > 0 else 0.0

    h, _ = integrate.quad(integrand, -a - 12, a + 12, epsabs=1e-13,
                          epsrel=1e-11, limit=300)
    return (h - 0.5 * math.log(2 * math.pi * math.e)) / LN2
