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


@lru_cache(maxsize=64, typed=True)
def k_n_closed(n: int, A: float) -> float:
    """Shell normalizer k_n(A) in closed form.

    k_n(A) = sum_{i=0}^{n-1} C(n-1, i) Gamma((n-i)/2) / (2^{i/2} Gamma(n/2)) A^i,
    the constant that normalizes the split-and-scaled Gaussian shell density
    outside the ball of radius A.  k_1 = 1 and k_2 = 1 + sqrt(pi/2) A.
    Memoized per argument type: a hit gives the bits a fresh call would.
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
# (x, k) entries summed per block in radial_pair_ncx2, counted over the
# union of the block's windows: small enough to stay in cache, which makes
# the grid about 1.5x faster than blocks of 2^18
_BLOCK_ENTRIES = 1 << 14
_TINY = np.finfo(float).tiny
# radial_pair_ncx2 raises ValueError above this amplitude, before its Gbar
# chain of about A^2 terms is built: 60 dB at n = 5 is A = 2,236.  At the
# limit, minmax_verified (513 points and 17) takes 2.0-2.2 s with 383 MB
# peak RSS at n = 2 and 5, one thread; at 100 dB and n = 2 the chain would
# take 74.5 GiB.
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


# the k-only tables kept between calls, as (log k!, c_m) for m below a
# power of two; longer ranges are built for the call that asks for them
_kept_k_tables = (np.empty(0), np.empty(0))


def _k_tables(n: int, k_first: int, k_end: int):
    """log k! and c_m = sqrt(2) Gamma((m+1)/2)/Gamma(m/2) at m = n + 2k,
    k = k_first..k_end - 1: radial_pair_ncx2's tables that do not depend on
    A, read-only.  Tables up to m = specfun.KEPT_TABLE_LEN are kept for
    later calls, whatever n; beyond it only the range asked for is built.
    """
    global _kept_k_tables
    m_first, m_end = n + 2 * k_first, n + 2 * k_end
    if _kept_k_tables[1].size < m_end:
        if m_end > specfun.KEPT_TABLE_LEN:
            k = np.arange(k_first, k_end)
            return (specfun.log_factorial(k), math.sqrt(2.0)
                    * np.exp(_log_gamma_ratio_half(0.5 * n + k)))
        cap = 1 << max(m_end - 1, 63).bit_length()
        log_fact = specfun.log_factorial(np.arange(cap // 2))
        c = np.zeros(cap)  # c_0 is never read: m >= n >= 1
        c[1:] = math.sqrt(2.0) * np.exp(_log_gamma_ratio_half(
            0.5 * np.arange(1, cap)))
        log_fact.flags.writeable = c.flags.writeable = False
        _kept_k_tables = (log_fact, c)
    log_fact, c = _kept_k_tables
    return log_fact[k_first:k_end], c[m_first:m_end:2]


def _poisson_window(n: int, xs, A: float, sigmas: float):
    """First and last Poisson index k carrying Q_n(x, A) and g_n(x, A).

    Given |x + Z| = r, the index of R^2's Poisson mixture peaks at the root
    k*(r) of (k + 1/2)(k + n/2 - 1/2) = (x r / 2)^2.  The tail R > A puts
    r at A or above, and R^2 has mean x^2 + n, so r is taken between A and
    max(A, sqrt(x^2 + n)) + 3; the window adds `sigmas` times sqrt(k* + 1)
    and 5 more on each side.  It is O(A) wide, however far the terms sit
    from the Poisson mean x^2/2.  This fit only sizes the first window:
    _ncx2_sums tests its edges, and radial_pair_ncx2 widens a window that
    cuts terms.
    """
    b = 0.25 * (n - 2)
    # k* at r = A (row 0) and at r = max(A, sqrt(x^2 + n)) + 3 (row 1)
    r = np.empty((2, xs.size))
    r[0] = A
    np.sqrt(np.square(xs) + n, out=r[1])
    np.maximum(r[1], A, out=r[1])
    r[1] += 3.0
    r *= 0.5 * xs
    k = np.sqrt(np.square(r) + b * b)
    k -= b + 0.5
    np.maximum(k, 0.0, out=k)
    spread = np.sqrt(k + 1.0)
    spread *= sigmas
    lo = np.floor(k[0] - spread[0] - 5.0)
    hi = np.ceil(k[1] + spread[1] + 5.0)
    return np.maximum(lo, 0.0).astype(np.int64), hi.astype(np.int64)


def _ncx2_sums(n: int, xs, A: float, lo, hi):
    """The Poisson sums of radial_pair_ncx2 over windows covering [lo, hi],
    and whether some window's edge term was not negligible.

    Each (x, k) entry takes one exponential, its Q_n term
    t_k = w_k Gbar(m/2, y); g_n's term is t_k r_k, with r_k =
    h_k / Gbar(m/2, y) a table over k alone, formed once per call in the
    log domain (r_k = 0 where h_k <= 0).  A block of consecutive rows sums
    over the union of their windows, so the k-only tables are sliced and
    broadcast, not gathered; rows join a block while it holds at most
    _BLOCK_ENTRIES entries at that union width.  Each run of nondecreasing
    x is planned as a call on it alone plans it and gets that call's bits:
    the chain's values do not depend on its length, the k-only tables are
    elementwise, and numpy's loops and BLAS product round alike at any
    operand offset or alignment (a later run slices the tables from a
    nonzero row).  The two sums are one matrix product with the columns
    (1, r_k).  Each row's edge terms of both sums are tested against that
    sum's peak term times e^_EDGE_LOG, or the floor, in the log domain.
    """
    k_first = int(lo.min())
    k_end = int(hi.max()) + 1
    size = k_end - k_first
    # everything that depends on k only, for k = k_first..k_end - 1: Gbar
    # at a = m/2 (one longer, for the m/2 + 1 of the second moment) and at
    # a + 1/2, read from one half-integer chain at y = A^2/2
    m_first, m_end = n + 2 * k_first, n + 2 * k_end
    log_gq = specfun.log_gamma_q_half(0.5 * A * A, m_end)
    gq = np.exp(log_gq[m_first:m_end + 1:2])
    gh = np.exp(log_gq[m_first + 1:m_end:2])
    log_fact, c = _k_tables(n, k_first, k_end)
    m = np.arange(m_first, m_end, 2, dtype=float)
    h = 0.5 * (m * gq[1:] - 2.0 * A * c * gh + A * A * gq[:-1])
    # log w_k = k log(mu) - mu - log k!; the per-k part joins each table,
    # and log r_k is the difference of the two tables, which rounds the
    # way g_n's own table would
    log_t = log_gq[m_first:m_end:2] - log_fact
    log_r = np.log(h, out=np.full(size, -np.inf), where=h > 0.0)
    log_r -= log_fact
    log_r -= log_t
    ones_r = np.empty((size, 2))
    ones_r[:, 0] = 1.0
    np.exp(log_r, out=ones_r[:, 1])
    ks = np.arange(k_first, k_end, dtype=float)

    rows = xs.size
    mu = 0.5 * np.square(xs)
    # mu = 0 leaves only k = 0: a tiny floor keeps 0 * log(mu) finite
    log_mu = np.log(np.maximum(mu, _TINY))
    sums = np.empty((rows, 2))
    peak = np.empty(rows)
    at = np.empty(rows, dtype=np.int64)
    first = np.empty(rows, dtype=np.int64)
    last = np.empty(rows, dtype=np.int64)
    edges = np.empty((2, rows))
    work = np.empty(0)
    # runs of nondecreasing x, each planned as a call on it alone would be
    ends = [*(np.flatnonzero(xs[1:] < xs[:-1]) + 1).tolist(), rows]
    i = 0
    while i < rows:
        if len(ends) == 1 and rows * size <= _BLOCK_ENTRIES:
            j, j0, j1 = rows, 0, size
        else:
            # the longest stretch of the run's rows whose union window fits
            # the block: all of a run that fits, as in the branch above
            end = next(e for e in ends if e > i)
            width = int(hi[i] - lo[i] + 1)
            look = min(end - i, max(1, _BLOCK_ENTRIES // width))
            b_lo = np.minimum.accumulate(lo[i:i + look])
            b_hi = np.maximum.accumulate(hi[i:i + look])
            entries = (b_hi - b_lo + 1) * np.arange(1, b_lo.size + 1)
            count = max(1, int(np.searchsorted(entries, _BLOCK_ENTRIES,
                                               side="right")))
            j = i + count
            j0 = int(b_lo[count - 1]) - k_first
            j1 = int(b_hi[count - 1]) + 1 - k_first
        if (j - i) * (j1 - j0) > work.size:
            work = np.empty(max((j - i) * (j1 - j0),
                                min(rows * size, _BLOCK_ENTRIES)))
        block = work[:(j - i) * (j1 - j0)].reshape(j - i, j1 - j0)
        np.multiply(log_mu[i:j, None], ks[j0:j1], out=block)
        block += log_t[j0:j1]
        top = block.argmax(axis=1)
        peak[i:j] = block[np.arange(j - i), top]
        at[i:j] = top + j0
        first[i:j] = j0
        last[i:j] = j1 - 1
        edges[0, i:j] = block[:, 0]
        edges[1, i:j] = block[:, -1]
        block -= peak[i:j, None]
        np.exp(block, out=block)
        np.dot(block, ones_r[j0:j1], out=sums[i:j])
        i = j

    # the lower edge is exact at k = 0; the terms decay past both edges, so
    # small edge terms bound what each row's window leaves out
    if k_first == 0:
        edges[0, first == 0] = -np.inf
    floor = _LOG_FLOOR + mu
    clipped = bool((edges.max(axis=0)
                    > np.maximum(peak + _EDGE_LOG, floor)).any())
    if not clipped:
        # g_n's terms, tested against a lower bound of their peak, the term
        # at Q_n's peak; a row that fails is tested again on its exact peak
        edges[0] += log_r[first]
        edges[1] += log_r[last]
        edge_g = edges.max(axis=0)
        for row in np.flatnonzero(
                edge_g > np.maximum(peak + log_r[at] + _EDGE_LOG, floor)):
            span = slice(first[row], last[row] + 1)
            peak_g = float(np.max(log_mu[row] * ks[span] + log_t[span]
                                  + log_r[span]))
            if edge_g[row] > max(peak_g + _EDGE_LOG, floor[row]):
                clipped = True
                break
    scale = np.exp(peak - mu)
    return sums[:, 0] * scale, sums[:, 1] * scale, clipped


def radial_pair_ncx2(n: int, xs, A: float):
    """(Q_n(x, A), g_n(x, A)) in closed form for an array of x, any n >= 1.

    R^2 = |x + Z|^2 is a Poisson(x^2/2) mixture over k of central
    chi-square variables with m = n + 2k degrees of freedom.  With Gbar the
    regularized upper incomplete gamma function (specfun.log_gamma_q_half),
    y = A^2/2 and weights w_k:

        Q_n = sum_k w_k Gbar(m/2, y)
        g_n = sum_k w_k Gbar(m/2, y) r_k,   r_k = h_k / Gbar(m/2, y),
        h_k = (1/2) [m Gbar(m/2 + 1, y) - 2A c_m Gbar((m+1)/2, y)
                     + A^2 Gbar(m/2, y)],  c_m = sqrt(2) Gamma((m+1)/2)/Gamma(m/2),

    where h_k = E[(R - A)^2/2; R > A] for R ~ chi(m); summed over k this is
    g_n = (1/2)(E[R^2; R>A] - 2A E[R; R>A] + A^2 Q_n).  Each (x, k) term
    w_k Gbar(m/2, y) is formed in the log domain and takes one exponential,
    so Q_n keeps its relative accuracy in the deep tail; g_n reuses it
    times r_k, a table over k alone.  No term is dropped for its weight
    alone: each x sums a window of k where the terms peak (see
    _poisson_window), and the rows of a block share the union of their
    windows, widened until the edge terms of both sums are below e^-40 of
    their largest.  Each run of nondecreasing x gets the bits of a call on
    it alone (_ncx2_sums), so a grid and its end cells can share one call;
    a widening, which none of the tested grids needs, widens every run.
    Each call builds its own half-integer Gbar chain at y, and reads the
    k-only tables (log k!, c_m) from a cache.  Against 40-digit
    references (35 channels, n = 2..16, A up to 40) Q_n is within 8.8e-14
    and g_n within 1.4e-13 absolute, and Q_n within 2e-13 relative down
    to 1e-250; the subtraction in h_k costs g_n its relative accuracy in
    the deep tail (2.3e-8 where g_n ~ 1e-125 at A = 25, x = 0; 4e-9 where
    g_n ~ 1e-90 at A = 40, x = A/2).

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
    RadialFunctions.pair; where that is radial_pair_ncx2, x = 0 and x = A
    read the one entry of _closed_endpoints(n, A).

    Both routes are deterministic, so a hit returns the bits a fresh
    evaluation would.  The endpoint bounds at one (n, A) read two entries,
    one after the other, so a small bound loses no sharing and keeps the
    memo from growing over a long stream of queries.
    """
    route = _endpoint_route(n, A)
    if route is radial_pair_ncx2 and x in (0.0, A):
        return _closed_endpoints(n, A)[x == A]
    Q, G = route(n, [x], A)
    return float(Q[0]), float(G[0])


@lru_cache(maxsize=32)
def _closed_endpoints(n: int, A: float):
    """The closed-form pairs at x = 0 and x = A, from one two-point call:
    both share its Gbar chain, window tables and k-tables."""
    Q, G = radial_pair_ncx2(n, [0.0, A], A)
    return (float(Q[0]), float(G[0])), (float(Q[1]), float(G[1]))


def _forget_endpoint_memos():
    """Empty _endpoint_pair, _closed_endpoints and k_n_closed, for tests and
    benchmarks that count or time cold evaluations."""
    for memo in (_endpoint_pair, _closed_endpoints, k_n_closed):
        memo.cache_clear()


class RadialFunctions:
    """The endpoint radial values of one (n, A) channel instance.

    pair(x) feeds the endpoint bounds: refined, beta*, minmax_conjectured
    and d_n.  Its values come from one of three regimes (_endpoint_route):

    - below A*_n, the panel rule radial_pair_grid, bit for bit, one call
      per x read.  There refined and minmax_conjectured are algebraically
      equal when the worst case sits at x = A, so rounding alone picks the
      envelope's achiever; these values stay bit-identical until the
      benchmark's achiever check (perfbench/check.py) is tie-aware;
    - from A*_n up to ENDPOINT_NCX2_MAX_AMPLITUDE, the closed form
      radial_pair_ncx2, one two-point call for x = 0 and x = A.  There
      refined is no candidate, and the two lowest of the others (avg_power,
      mckellips, minmax_conjectured) stay at least 0.35 % apart (n = 2..8,
      0.25 dB grid), so no achiever hangs on the last bits;
    - above that amplitude, and wherever A*_n is not found, the panel rule
      again, per x: the closed form's Gbar chain grows with A^2.

    n = 1 reads the Gaussian-tail closed form of radial_pair_grid.  Lookups
    go through the module-wide memo _endpoint_pair, so the endpoint bounds
    at one (n, A) share their evaluations, whichever instances they build.
    The memos are idempotent, so concurrent readers and redundant concurrent
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
