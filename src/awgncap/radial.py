"""Radial integrals behind the n-dimensional divergence bounds.

For dimension n >= 2 the three radial functions are integrals over the shell
z in [A, inf) against the scaled angular kernel:

    Q_n(x, A)       = int_A^inf e^{-(z^2+x^2)/2} tilde_I_n(zx) z^{n-1} dz
    g_n(x, A)       = int_A^inf ((z-A)^2 / 2) (same integrand) dz
    gtilde_n(x, A)  = int_A^inf (n/2 - (z-A)^2/2) (same integrand) dz

with the identity gtilde_n = (n/2) Q_n - g_n.  Q_n(x, A) is the probability
that x + Z leaves the ball of radius A, so Q_2 is the Marcum Q-function.
The n = 1 instances reduce to exact Gaussian-tail closed forms and are
provided so the generic bound machinery covers the scalar channel.

radial_pair_grid integrates (Q_n, g_n) by a composite Gauss-Legendre rule,
pairing the Gaussian factor with the exponentially scaled kernel as
e^{-(z-x)^2/2} [e^{-zx} tilde_I_n(zx)], which stays finite for any z*x.
radial_pair_ncx2 evaluates them with no quadrature: R^2 = |x + Z|^2 is
noncentral chi-square with n degrees of freedom and noncentrality x^2.
The adaptive QUADPACK route, an independent reference, is in oracles.

amplitude_threshold(n) is A*_n, the amplitude up to which the refined
bound is provable; it also picks which route RadialFunctions reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun
from .specfun import gamma_half, gauss_pdf, q_func

__all__ = [
    "ChannelConfig", "QuadratureError", "vol_ball", "log_vol_ball",
    "k_n_closed", "g_edge", "radial_pair_grid", "radial_pair_ncx2",
    "amplitude_threshold", "RadialFunctions",
]

# radial_pair_grid integrates over [A, max(A, x) + _TRUNCATION_SIGMA], where
# the Gaussian factor is below the double-precision floor even after
# polynomial growth, and accepts two panel doublings that agree to _REL_TOL
_TRUNCATION_SIGMA = 40.0
_REL_TOL = 1e-10


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, estimate: float = math.nan,
                 error: float = math.nan):
        super().__init__(f"{message} (estimate={estimate:.6g}, "
                         f"error estimate={error:.6g})")
        self.message = message
        self.estimate = estimate
        self.error = error

    def __reduce__(self):
        # rebuilt from its parts, an error raised in a sweep worker reads
        # the same in the parent process
        return type(self), (self.message, self.estimate, self.error)


@dataclass(frozen=True)
class ChannelConfig:
    """Problem instance: dimension n and amplitude limit A in noise-std units.

    The one check of a channel's arguments: constructing it raises
    ValueError unless n is an integer >= 1 and A is finite and positive.
    """

    n: int
    A: float

    def __post_init__(self):
        if not 1 <= self.n < math.inf or self.n != int(self.n):
            raise ValueError(
                f"dimension n must be an integer >= 1, got {self.n}")
        if not 0.0 < self.A < math.inf:
            raise ValueError(
                f"amplitude A must be finite and positive, got {self.A}")

    @property
    def snr(self) -> float:
        """Linear SNR P = A^2 / n (unit noise variance per dimension)."""
        return self.A ** 2 / self.n

    @property
    def snr_db(self) -> float:
        # from A, not from snr: A^2 underflows to 0 below A = 2.2e-162
        return 20.0 * math.log10(self.A) - 10.0 * math.log10(self.n)

    @classmethod
    def from_snr(cls, n: int, P: float) -> "ChannelConfig":
        """The channel of dimension n at linear SNR P, i.e. A = sqrt(nP)."""
        if not 0.0 < P < math.inf:
            raise ValueError(f"SNR P must be finite and positive, got {P}")
        # a bad n is reported by __post_init__, not by sqrt
        return cls(n=n, A=math.sqrt(max(n, 0) * P))

    @classmethod
    def from_snr_db(cls, n: int, snr_db: float) -> "ChannelConfig":
        try:
            P = 10.0 ** (snr_db / 10.0)
        except OverflowError:  # above about 3083 dB
            P = math.inf
        return cls.from_snr(n, P)


def vol_ball(n: int, r: float) -> float:
    """Volume pi^{n/2} r^n / Gamma(n/2 + 1) of the n-ball of radius r."""
    ChannelConfig(n, r)
    return math.exp(log_vol_ball(n, r))


def log_vol_ball(n: int, r: float) -> float:
    """log of vol_ball, safe for radii where the volume itself overflows."""
    return 0.5 * n * math.log(math.pi) + n * math.log(r) - math.lgamma(0.5 * n + 1.0)


def k_n_closed(n: int, A: float) -> float:
    """Shell normalizer k_n(A) in closed form.

    k_n(A) = sum_{i=0}^{n-1} C(n-1, i) Gamma((n-i)/2) / (2^{i/2} Gamma(n/2)) A^i,
    the constant that normalizes the split-and-scaled Gaussian shell density
    outside the ball of radius A.  k_1 = 1 and k_2 = 1 + sqrt(pi/2) A.
    """
    ChannelConfig(n, A)
    total = 0.0
    for i in range(n):
        total += (math.comb(n - 1, i) * gamma_half((n - i) / 2.0)
                  / (2.0 ** (0.5 * i) * gamma_half(n / 2.0)) * A ** i)
    return total


def g_edge(u):
    """g(u) = u^2 Q(u) - u psi(u), the quadratic-weighted Gaussian tail deficit."""
    return np.square(u) * q_func(u) - u * gauss_pdf(u)


@lru_cache(maxsize=None)
def _legendre(order: int):
    return np.polynomial.legendre.leggauss(order)


def _panel_grid(a: float, b: float, panels: int, order: int):
    """Nodes and weights of the composite order-point Gauss-Legendre rule on
    `panels` equal panels of [a, b]."""
    nodes, weights = _legendre(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    z = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return z, w


def _grid_xs(n: int, xs, A: float):
    """xs as a 1-D float array, for a valid channel and x values in [0, A]."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ChannelConfig(n, A)
    if ((xs < 0) | (xs > A * (1 + 1e-12))).any():
        raise ValueError("grid x values must lie in [0, A]")
    return xs


def radial_pair_grid(n: int, xs, A: float):
    """(Q_n(x, A), g_n(x, A)) for a whole array of x values at once.

    Uses a composite Gauss-Legendre panel rule over [A, zmax], doubling the
    panel count until two successive refinements agree to _REL_TOL; the
    disagreement of the last doubling is the error estimate.  Raises
    QuadratureError when four doublings do not converge, or when a converged
    Q_n leaves [0, 1] by more than 1e-12.  RadialFunctions.pair reads it
    at n = 1, for n >= 2 below A*_n, and above ENDPOINT_NCX2_MAX_AMPLITUDE
    or where A*_n is not found; radial_pair_ncx2 serves it in between.

    Each pass forms the integrand e^{expo} kernel z^{n-1} on the live (x, z)
    entries alone, where |z - x| < 14, and the dead ones are exactly 0; the
    angular kernel runs in cache-sized blocks (specfun._tilde_quad_scaled).
    The sums stay full-row products base @ w, so BLAS adds in one order.
    No bit of Q_n or g_n may move with such a change: where refined and
    minmax_conjectured tie algebraically (below A*_n), their rounding picks
    the envelope's achiever, which the benchmark checks exactly
    (tests/test_radial.py pins the endpoint values).
    """
    xs = _grid_xs(n, xs, A)
    if xs.size == 0:
        return np.empty(0), np.empty(0)
    if n == 1:
        # one q_func call over both edges; g is g_edge(u) with its Q(u) reused
        u = np.concatenate((A - xs, A + xs))
        q = q_func(u)
        g = np.square(u) * q - u * gauss_pdf(u)
        Q = q[:xs.size] + q[xs.size:]
        G = 0.5 * Q + 0.5 * (g[:xs.size] + g[xs.size:])
        return Q, G

    zmax = max(A, float(xs.max())) + _TRUNCATION_SIGMA
    panels = max(16, int(math.ceil((zmax - A) * 2.0)))
    prev = None
    for _ in range(4):
        z, w = _panel_grid(A, zmax, panels, 20)
        # entries with |z - x| > 14 carry a Gaussian factor below e^{-98};
        # skipping the kernel there changes the integrals by < 1e-30
        expo = -0.5 * np.square(z[None, :] - xs[:, None])
        live = expo > -98.0
        # e^{expo} kernel z^{n-1}, multiplied in that order, on the live
        # entries alone; the dead ones stay exactly 0
        part = np.exp(expo[live])
        part *= specfun.tilde_i_n_scaled(n, (z[None, :] * xs[:, None])[live])
        part *= z[None, :].repeat(xs.size, axis=0)[live] ** (n - 1.0)
        base = np.zeros(expo.shape)
        base[live] = part
        Q = base @ w
        G = base @ (0.5 * np.square(z - A) * w)
        if prev is not None:
            dq = np.max(np.abs(Q - prev[0]) / np.maximum(np.abs(Q), 1e-30))
            dg = np.max(np.abs(G - prev[1]) / np.maximum(np.abs(G), 1e-30))
            if max(dq, dg) < _REL_TOL:
                # a converged probability outside [0, 1] is still wrong
                # (Q_2(A, A) came out 7.18 at A = 1.4e10)
                worst = float(Q[np.argmax(np.abs(Q - 0.5))])
                if abs(worst - 0.5) > 0.5 + 1e-12:
                    raise QuadratureError(
                        f"radial grid Q_n (n={n}, A={A}) left [0, 1]",
                        worst, max(dq, dg))
                return Q, G
        prev = (Q, G)
        panels *= 2
    raise QuadratureError("radial grid integration did not converge",
                          float(Q[0]), max(dq, dg))


# The Poisson window of radial_pair_ncx2 spans this many standard deviations
# of the index each side; a window is accepted once each edge term is below
# e^{_EDGE_LOG} of the largest term or below e^{_LOG_FLOOR} = 1e-300, and
# widened otherwise.  Terms below the floor may sit on the flank of a mode
# whose own terms underflow; they cannot add up to a representable value.
_WINDOW_SIGMAS = 9.0
_EDGE_LOG = -40.0
_LOG_FLOOR = -690.0
# (x, k) entries summed per block in radial_pair_ncx2: small enough to stay
# in cache, which makes the grid about 1.5x faster than blocks of 2^18
_BLOCK_ENTRIES = 1 << 14
_TINY = np.finfo(float).tiny
# radial_pair_ncx2 raises ValueError above this amplitude, before its Gbar
# chain of about A^2 terms is built: 60 dB at n = 5 is A = 2,236.  At the
# limit, minmax_verified (513 points and 17) takes 1.7-1.9 s with 545 MB
# peak RSS, one thread; at 100 dB and n = 2 the chain would take 74.5 GiB.
NCX2_MAX_AMPLITUDE = 2500.0


def _log_gamma_ratio_half(a):
    """log(Gamma(a + 1/2) / Gamma(a)) for a >= 1/2, to full precision.

    A difference of two lgamma values loses |lgamma(a)| * eps (6e-13 at
    a = 450); above a = 30 the asymptotic series, whose next term is below
    1e-16 there, avoids that.
    """
    a = np.asarray(a, dtype=float)
    out = np.empty_like(a)
    small = a < 30.0
    out[small] = [math.log(math.gamma(s + 0.5) / math.gamma(s))
                  for s in a[small]]
    big = a[~small]
    r = 1.0 / big
    r2 = r * r
    out[~small] = 0.5 * np.log(big) - r * (
        1.0 / 8 - r2 * (1.0 / 192 - r2 * (1.0 / 640 - r2 * (17.0 / 14336))))
    return out


@lru_cache(maxsize=None)
def _k_tables(n: int, cap: int):
    """log k! and c_m = sqrt(2) Gamma((m+1)/2)/Gamma(m/2) at m = n + 2k,
    k = 0..cap-1: radial_pair_ncx2's tables that do not depend on A,
    read-only."""
    log_fact = specfun.log_factorial(np.arange(cap))
    c = math.sqrt(2.0) * np.exp(_log_gamma_ratio_half(0.5 * n
                                                      + np.arange(cap)))
    log_fact.flags.writeable = c.flags.writeable = False
    return log_fact, c


def _poisson_window(n: int, xs, A: float, sigmas: float):
    """First and last Poisson index k carrying Q_n(x, A) and g_n(x, A).

    Given |x + Z| = r, the index of R^2's Poisson mixture peaks at the root
    k*(r) of (k + 1/2)(k + n/2 - 1/2) = (x r / 2)^2.  The tail R > A puts
    r between A and max(A, x) + 10; the window adds `sigmas` times
    sqrt(k* + 1) and 10 more on each side.  It is O(A) wide, however far
    the terms sit from the Poisson mean x^2/2.
    """
    b = 0.25 * (n - 2)
    # k* at r = A (row 0) and at r = max(A, x) + 10 (row 1)
    r = np.empty((2, xs.size))
    r[0] = A
    np.add(np.maximum(A, xs), 10.0, out=r[1])
    k = np.maximum(np.sqrt(b * b + np.square(0.5 * xs * r)) - b - 0.5, 0.0)
    spread = sigmas * np.sqrt(k + 1.0)
    lo = np.floor(k[0] - spread[0] - 10.0)
    hi = np.ceil(k[1] + spread[1] + 10.0)
    return np.maximum(lo, 0.0).astype(np.int64), hi.astype(np.int64)


# the last chain of log Gbar values and its y: the verified min-max route's
# grid call and its refinement at the same A share one chain
_last_chain = (math.nan, np.empty(0))


def _log_gbar_chain(y: float, m_last: int):
    """specfun.log_gamma_q_half(y, m) for some m >= m_last, read-only.

    Reuses the last chain when y matches and it is long enough; a chain is
    a deterministic function of (y, m), so a hit returns the bits a fresh
    evaluation would.
    """
    global _last_chain
    last_y, chain = _last_chain
    if last_y == y and chain.size > m_last:
        return chain
    chain = specfun.log_gamma_q_half(y, m_last)
    chain.flags.writeable = False
    _last_chain = (y, chain)
    return chain


def _ncx2_sums(n: int, xs, A: float, lo, hi):
    """The Poisson sums of radial_pair_ncx2 over the windows [lo, hi] (a
    block of rows shares its widest window), and whether some window's edge
    term was not negligible."""
    width = int((hi - lo).max()) + 1
    k_first = int(lo.min())
    k_last = int(lo.max()) + width
    # everything that depends on k only, for k = k_first..k_last: Gbar at
    # a = m/2 (one longer, for the m/2 + 1 of the second moment) and at
    # a + 1/2, read from one half-integer chain at y = A^2/2
    a = 0.5 * n + np.arange(k_first, k_last + 1)
    m_first, m_last = n + 2 * k_first, n + 2 * k_last
    log_gq = _log_gbar_chain(0.5 * A * A, m_last)
    gq = np.exp(log_gq[m_first:m_last + 1:2])
    gh = np.exp(log_gq[m_first + 1:m_last:2])
    log_fact, c = _k_tables(n, 1 << k_last.bit_length())
    log_fact = log_fact[k_first:k_last]
    c = c[k_first:k_last]
    h = 0.5 * (2.0 * a[:-1] * gq[1:] - 2.0 * A * c * gh + A * A * gq[:-1])
    with np.errstate(divide="ignore"):
        # log w_k = k log(mu) - mu - log k!; the per-k part joins each table
        tables = (log_gq[m_first:m_last:2] - log_fact,
                  np.log(np.maximum(h, 0.0)) - log_fact)

    Q = np.empty(xs.size)
    G = np.empty(xs.size)
    clipped = False
    step = max(1, _BLOCK_ENTRIES // width)
    for i in range(0, xs.size, step):
        rows = slice(i, i + step)
        start = lo[rows]
        offsets = np.arange(int((hi[rows] - start).max()) + 1)
        mu = 0.5 * np.square(xs[rows])
        # mu = 0 leaves only k = 0: a tiny floor keeps 0 * log(mu) finite
        log_mu = np.log(np.maximum(mu, _TINY))[:, None]
        idx = offsets + (start - k_first)[:, None]
        k_log_mu = offsets + start[:, None].astype(float)
        k_log_mu *= log_mu
        # the lower edge is exact at k = 0; the terms decay past both edges,
        # so small edge terms bound what the window leaves out
        open_below = start > 0
        floor = _LOG_FLOOR + mu
        for out, table in zip((Q, G), tables):
            log_t = table[idx]
            log_t += k_log_mu
            peak = log_t.max(axis=1)
            edge = np.maximum(np.where(open_below, log_t[:, 0], -np.inf),
                              log_t[:, -1])
            limit = np.maximum(peak + _EDGE_LOG, floor)
            clipped |= bool((edge > limit).any())
            shift = np.where(np.isfinite(peak), peak, 0.0)
            log_t -= shift[:, None]
            np.exp(log_t, out=log_t)
            out[rows] = log_t.sum(axis=1) * np.exp(shift - mu)
    return Q, G, clipped


def radial_pair_ncx2(n: int, xs, A: float):
    """(Q_n(x, A), g_n(x, A)) in closed form for an array of x, any n >= 1.

    R^2 = |x + Z|^2 is a Poisson(x^2/2) mixture over k of central
    chi-square variables with m = n + 2k degrees of freedom.  With Gbar the
    regularized upper incomplete gamma function (specfun.log_gamma_q_half),
    y = A^2/2 and weights w_k:

        Q_n = sum_k w_k Gbar(m/2, y)
        g_n = sum_k w_k h_k,
        h_k = (1/2) [m Gbar(m/2 + 1, y) - 2A c_m Gbar((m+1)/2, y)
                     + A^2 Gbar(m/2, y)],  c_m = sqrt(2) Gamma((m+1)/2)/Gamma(m/2),

    where h_k = E[(R - A)^2/2; R > A] for R ~ chi(m); summed over k this is
    g_n = (1/2)(E[R^2; R>A] - 2A E[R; R>A] + A^2 Q_n).  Both sums run in the
    log domain (log w_k + log Gbar, log w_k + log h_k), so Q_n keeps its
    relative accuracy in the deep tail.  No term is dropped for its weight
    alone: each x sums the window of k where w_k Gbar peaks (see
    _poisson_window), widened until its edge terms are below e^-40 of the
    largest.  The Gbar values come from one half-integer chain at y per
    call (_log_gbar_chain), and the k-only tables (log k!, c_m) from a
    per-n cache.  Against 40-digit references both values are within
    1.4e-13 absolute up to A = 40; the subtraction in h_k costs g_n its
    relative accuracy in the deep tail (2.3e-8 where g_n ~ 1e-125 at
    A = 25, x = 0; 4e-9 where g_n ~ 1e-90 at A = 40, x = A/2).

    The chain runs from m = 0 to the top of the last window, about A^2
    terms at x = A, so the cost grows with A^2 whatever the window: above
    A = NCX2_MAX_AMPLITUDE (2,500; 60 dB at n = 5 is 2,236) it raises
    ValueError before it allocates anything.
    """
    xs = _grid_xs(n, xs, A)
    if A > NCX2_MAX_AMPLITUDE:
        snr_db = ChannelConfig(n, A).snr_db
        raise ValueError(
            f"radial_pair_ncx2 (minmax_verified's route) is evaluated up to "
            f"A = {NCX2_MAX_AMPLITUDE:g}, got A = {A:.6g} ({snr_db:.6g} dB "
            f"at n = {n}): its Gbar chain would hold about A^2 terms")
    if xs.size == 0:
        return np.empty(0), np.empty(0)
    sigmas = _WINDOW_SIGMAS
    while True:
        lo, hi = _poisson_window(n, xs, A, sigmas)
        Q, G, clipped = _ncx2_sums(n, xs, A, lo, hi)
        if not clipped:
            return np.minimum(Q, 1.0), G
        sigmas *= 2.0


def _threshold_gap(n: int, A: float) -> float:
    """Margin of the refined bound's provability condition at amplitude A.

    n = 1: 1/2 - Q(2A) - 2A / (sqrt(2 pi e) + 2A), the paper's scalar
    condition.  n >= 2: 1 - Q_n(A, A) - Vol(A) / ((2 pi)^{n/2} k_n(A) +
    Vol(A)), where 1 - Q_n(A, A) = P(|A e_1 + Z|^2 <= A^2) is the noncentral
    chi-square CDF with n degrees of freedom and noncentrality A^2, taken in
    closed form: subtracting a quadrature Q_n from 1 cancels to rounding
    noise at small A and large n.
    """
    if n == 1:
        s = math.sqrt(2.0 * math.pi * math.e)
        return 0.5 - float(q_func(2.0 * A)) - 2.0 * A / (s + 2.0 * A)
    lhs = specfun.ncx2_cdf_at_noncentrality(n, 0.5 * A * A)
    v = vol_ball(n, A)
    return lhs - v / ((2.0 * math.pi) ** (0.5 * n) * k_n_closed(n, A) + v)


# relative part of _bisect's stopping test, scipy.optimize.bisect's default
_BISECT_RTOL = 4.0 * np.finfo(float).eps


def _bisect(f, lo: float, hi: float, xtol: float) -> float:
    """Root of f on [lo, hi], given f(lo) > 0 > f(hi), by bisection.

    Step for step scipy.optimize.bisect: halve dm, set xm = lo + dm, and stop
    once |dm| < xtol + 4 eps |xm|, so the roots are bit-identical to it.
    """
    flo = f(lo)
    dm = hi - lo
    while True:
        dm *= 0.5
        xm = lo + dm
        fm = f(xm)
        if fm * flo >= 0:
            lo = xm
        if fm == 0 or abs(dm) < xtol + _BISECT_RTOL * abs(xm):
            return xm


@lru_cache(maxsize=None)
def amplitude_threshold(n: int) -> float:
    """Largest amplitude A*_n for which the refined bound is provable.

    A*_n is the smallest positive root of _threshold_gap(n, .): bisection
    over (0.5, 5) to 1e-12 for n = 1, over (1e-3, 50) to 1e-9 otherwise.
    A*_1 ~ 2.066, A*_2 ~ 2.364, A*_4 ~ 4.979.
    """
    lo, hi, xtol = (0.5, 5.0, 1e-12) if n == 1 else (1e-3, 50.0, 1e-9)
    flo, fhi = _threshold_gap(n, lo), _threshold_gap(n, hi)
    if not flo > 0 > fhi:
        raise RuntimeError(
            f"threshold bracket failed for n={n}: gap({lo})={flo:.3g}, "
            f"gap({hi})={fhi:.3g}")
    return _bisect(lambda A: _threshold_gap(n, A), lo, hi, xtol)


# The endpoint pairs read radial_pair_ncx2 up to this amplitude and the
# panel rule above it: the closed form's Gbar chain starts at m = 0 and is
# about A^2 terms long, while the panel rule's grid is fixed.  Both pairs of
# one channel from a cold chain, n = 2..5, one thread, best of 5, closed
# form against panel rule: 0.52-0.59 against 1.95-2.95 ms at A = 60,
# 1.08-1.28 against 1.73-2.75 ms at A = 100, 2.09-2.23 against 1.67-2.72 ms
# at A = 150; at A = 2,236 (n = 5, 60 dB) 0.56-1.3 s with 464 MB peak RSS
# against 3.6 ms.
ENDPOINT_NCX2_MAX_AMPLITUDE = 100.0


def _refined_provable(n: int, A: float) -> bool:
    """A < A*_n: the refined bound is provable, and so an envelope candidate.

    refined_nd's valid flag and the route of the endpoint pairs read this
    one test.  Raises amplitude_threshold's RuntimeError where A*_n is not
    found.
    """
    return A < amplitude_threshold(n)


def _endpoint_route(n: int, A: float):
    """The pair function behind RadialFunctions.pair at (n, A), by the
    regimes described there: radial_pair_ncx2 for n >= 2 and
    A*_n <= A <= ENDPOINT_NCX2_MAX_AMPLITUDE, radial_pair_grid otherwise.
    Where amplitude_threshold finds no A*_n (n >= 37), refined counts as a
    candidate and the panel rule stays.
    """
    if n == 1 or A > ENDPOINT_NCX2_MAX_AMPLITUDE:
        return radial_pair_grid
    try:
        provable = _refined_provable(n, A)
    except RuntimeError:
        provable = True
    return radial_pair_grid if provable else radial_pair_ncx2


@lru_cache(maxsize=64)
def _endpoint_pair(n: int, A: float, x: float) -> tuple[float, float]:
    """(Q_n(x, A), g_n(x, A)) from _endpoint_route(n, A), memoized for
    RadialFunctions.pair.

    Both routes are deterministic, so a hit returns the bits a fresh
    evaluation would.  The endpoint bounds at one (n, A) read two entries,
    one after the other, so a small bound loses no sharing and keeps the
    memo from growing over a long stream of queries.
    """
    Q, G = _endpoint_route(n, A)(n, [x], A)
    return float(Q[0]), float(G[0])


class RadialFunctions:
    """The endpoint radial values of one (n, A) channel instance.

    pair(x) feeds the endpoint bounds: refined, beta*, minmax_conjectured
    and d_n.  Its values come from one of three regimes (_endpoint_route):

    - below A*_n, the panel rule radial_pair_grid, bit for bit.  There
      refined and minmax_conjectured are algebraically equal when the worst
      case sits at x = A, so rounding alone picks the envelope's achiever;
      these values stay bit-identical until the benchmark's achiever check
      (perfbench/check.py) is tie-aware;
    - from A*_n up to ENDPOINT_NCX2_MAX_AMPLITUDE, the closed form
      radial_pair_ncx2.  There refined is no candidate, and the two lowest
      of the others (avg_power, mckellips, minmax_conjectured) stay at
      least 0.35 % apart (n = 2..8, 0.25 dB grid), so no achiever hangs on
      the last bits;
    - above that amplitude, and wherever A*_n is not found, the panel rule
      again: the closed form's Gbar chain grows with A^2.

    n = 1 reads the Gaussian-tail closed form of radial_pair_grid.  Lookups
    go through the module-wide memo _endpoint_pair, so the endpoint bounds
    at one (n, A) share two evaluations, whichever instances they build.
    The memo is idempotent, so concurrent readers and redundant concurrent
    writes are safe.  The verified min-max route reads radial_pair_ncx2 on
    its x grid directly.
    """

    def __init__(self, n: int, A: float):
        ChannelConfig(n, A)
        self.n = int(n)
        self.A = float(A)

    def pair(self, x: float) -> tuple[float, float]:
        """(Q_n(x, A), g_n(x, A)) with memoization."""
        return _endpoint_pair(self.n, self.A, float(x))
