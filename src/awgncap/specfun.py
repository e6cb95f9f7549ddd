"""Scalar special functions used throughout the bound computations.

Conventions: the noise is standard Gaussian per real dimension, all entropic
quantities are computed in nats (conversion to bits happens only at output
boundaries), and functions that would overflow for large arguments are kept
exponentially scaled.  Everything here needs only numpy and math.
"""

from __future__ import annotations

import math

import numpy as np

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


_erfc = np.frompyfunc(math.erfc, 1, 1)


def q_func(x):
    """Gaussian tail Q(x) = integral of the standard normal density over [x, inf).

    A float for a scalar x, else an array of x's shape.  math.erfc is within
    about 1 ulp of the exact erfc up to its underflow near x = 37.5.
    """
    if np.ndim(x) == 0:
        return 0.5 * math.erfc(float(x) / math.sqrt(2.0))
    x = np.asarray(x, dtype=float)
    return 0.5 * _erfc(x / math.sqrt(2.0)).astype(float)


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
    The sum stops at the first k where every term is below _SERIES_REL_TOL
    of its partial sum; entries that get there sooner still take every term
    up to that k.
    """
    if not x.size:
        return np.empty_like(x)
    x2 = np.square(x)
    term = np.ones_like(x)
    total = term.copy()
    # term <= _SERIES_REL_TOL * total, tested in reused buffers.  The whole
    # test cannot pass while the largest argument's entry (the last to
    # pass) fails, so it runs only once that entry passes: same stopping k
    top = x.argmax()
    limit = np.empty_like(x)
    done = np.empty(x.shape, dtype=bool)
    for k in range(_SERIES_MAX_TERMS):
        term *= x2
        term /= (n + 2.0 * k) * (2.0 * k + 2.0)
        total += term
        if not term[top] <= total[top] * _SERIES_REL_TOL:
            continue
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
_GL_NODES_1 = _GL_NODES + 1.0
# entries of _tilde_quad_scaled's workspaces, which hold one block of
# arguments by 80 nodes each: 512 KB, which stays in cache
_QUAD_BLOCK_ENTRIES = 1 << 16


def _tilde_quad_scaled(n: int, x: np.ndarray) -> np.ndarray:
    """e^{-x} tilde_I_n(x) by quadrature of the angular integral, for large x.

    The fixed Gauss-Legendre nodes are mapped onto [0, tmax] for one block
    of arguments at a time, in two reused workspaces of _QUAD_BLOCK_ENTRIES
    entries together (whole-batch temporaries were about 0.7 MB each at the
    1,120 arguments of a panel-rule pass).  One goes u -> exp(x (cos u - 1))
    in place; the other holds sin(u)^(n-2), formed only when n > 2 (it is
    exactly 1 at n = 2).  Every row takes the same operations in the same
    order, with the same ufuncs, and sums its 80 terms alone, so no bit
    depends on the blocking.  No bit may move: the panel rule's endpoint
    values rest on these, and where refined and minmax_conjectured tie
    algebraically their rounding picks the envelope's achiever.
    """
    cn = 2.0 / (2.0 ** (0.5 * (n - 1)) * gamma_half((n - 1) / 2.0) * SQRT_2PI)
    sq = np.sqrt(x)
    tmax = np.minimum(math.pi * sq, _LARGE_X_TMAX)
    half = 0.5 * tmax
    sums = np.empty_like(x)
    step = _QUAD_BLOCK_ENTRIES // (_GL_NODES.size * (2 if n > 2 else 1))
    work = np.empty((min(x.size, step), _GL_NODES.size))
    sin_work = np.empty_like(work) if n > 2 else None
    half_col, sq_col, x_col = half[:, None], sq[:, None], x[:, None]
    for i in range(0, x.size, step):
        rows = slice(i, i + step)
        buf = np.multiply(half_col[rows], _GL_NODES_1, out=work[:x.size - i])
        buf /= sq_col[rows]
        if n > 2:
            s = np.sin(buf, out=sin_work[:x.size - i])
        np.cos(buf, out=buf)
        buf -= 1.0
        buf *= x_col[rows]
        np.exp(buf, out=buf)
        if n > 2:
            # in place, the ufunc of s ** (n - 2): np.square at n = 4
            if n == 4:
                np.square(s, out=s)
            elif n > 4:
                np.power(s, n - 2, out=s)
            buf *= s
        buf *= _GL_WEIGHTS
        np.add.reduce(buf, axis=-1, out=sums[rows])
    vals = sums * half
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


# ---------------------------------------------------------------------------
# regularized incomplete gamma functions at half-integer shapes
# ---------------------------------------------------------------------------
#
# With y fixed and shapes s = m/2, the regularized upper and lower incomplete
# gamma functions Q(s, y) and P(s, y) = 1 - Q(s, y) follow one chain,
#
#     Q(s + 1, y) = Q(s, y) + t_s,   t_s = e^{-y} y^s / Gamma(s + 1),
#
# from Q(1/2, y) = erfc(sqrt(y)) and Q(1, y) = e^{-y} = t_0.  Every t_s is
# positive, so the forward sums (Q) and the reverse sums (P) lose no digits
# to cancellation (_log_prefix_sums).  The terms are Loader's saddle-point
# form of a Poisson probability, t_s = e^{-stirlerr(s) - bd0(s, y)} /
# sqrt(2 pi s), which keeps their relative accuracy near s = y, where a
# log-gamma difference would lose |log Gamma(s + 1)| eps (C. Loader, "Fast
# and accurate computation of binomial probabilities", 2000).

LN_SQRT_2PI = 0.5 * LN_2PI

# Stirling's series for stirlerr(s) = log Gamma(s + 1) - (s + 1/2) log s + s
# - log sqrt(2 pi); its first omitted term is below 1.2e-16 for s > 15
_STIRLING_MAX = 15.0
_STIRLING = (1.0 / 12, 1.0 / 360, 1.0 / 1260, 1.0 / 1680, 1.0 / 1188)


def _stirlerr_series(s):
    c0, c1, c2, c3, c4 = _STIRLING
    r2 = 1.0 / np.square(s)
    return (c0 - r2 * (c1 - r2 * (c2 - r2 * (c3 - r2 * c4)))) / s


def _stirlerr_small():
    """stirlerr(m/2) for m = 0..30 (entry 0 unused), down from the series by
    stirlerr(s) = stirlerr(s + 1) + (s + 1/2) log1p(1/s) - 1, which costs
    about one rounding per step and no cancellation."""
    top = int(2 * _STIRLING_MAX)
    table = np.zeros(top + 3)
    table[top + 1:] = _stirlerr_series(np.array([top + 1.0, top + 2.0]) / 2)
    for m in range(top, 0, -1):
        s = 0.5 * m
        table[m] = table[m + 2] + (s + 0.5) * math.log1p(1.0 / s) - 1.0
    return table[:top + 1]


_STIRLERR_SMALL = _stirlerr_small()


# tables indexed by the chain's m are kept between calls up to this length;
# a longer one, which only a large-A closed form asks for (about A^2
# entries), is built for its call and dropped with it
KEPT_TABLE_LEN = 1 << 16
# the longest half-integer tables kept, as (s, base)
_kept_half_tables = (np.empty(0), np.empty(0))


def _half_tables(m_max: int):
    """s = m/2 and the y-free part -stirlerr(s) - log sqrt(2 pi s) of log t_s,
    for m = 1..m_max or further; read-only, shared by every y."""
    global _kept_half_tables
    if _kept_half_tables[0].size >= m_max:
        return _kept_half_tables
    cap = 1 << max(m_max - 1, 63).bit_length()
    if cap > KEPT_TABLE_LEN:
        cap = m_max  # built for this call only
    s = np.arange(1, cap + 1) / 2.0
    small = int(2 * _STIRLING_MAX)
    stirlerr = np.concatenate((_STIRLERR_SMALL[1:cap + 1],
                               _stirlerr_series(s[small:])))
    base = -stirlerr - 0.5 * np.log(2.0 * math.pi * s)
    s.flags.writeable = base.flags.writeable = False
    if cap <= KEPT_TABLE_LEN:
        _kept_half_tables = (s, base)
    return s, base


def log_factorial(k):
    """log k! for an integer array k >= 0, by Stirling's form."""
    k = np.asarray(k, dtype=np.int64)
    kf = np.maximum(k, 1).astype(float)
    small = int(_STIRLING_MAX)
    stirlerr = np.where(k > small, _stirlerr_series(np.maximum(kf, small + 1)),
                        _STIRLERR_SMALL[2 * np.clip(k, 1, small)])
    out = ((kf + 0.5) * np.log(kf) - kf) + (LN_SQRT_2PI + stirlerr)
    out[k == 0] = 0.0
    return out


# Loader's deviance bd0(s, y) = s log(s/y) + y - s >= 0 cancels where s is
# near y; within 10 % of y it is v (d + 2 s sum_{j>=1} v^{2j}/(2j + 1)),
# d = s - y, v = d/(s + y), whose nine terms leave out less than 1e-18 there
_BD0_POWERS = np.arange(1, 10)
_BD0_COEF = 2.0 / (2 * _BD0_POWERS + 1)


def log_poisson_half(y: float, m_max: int):
    """log t_{m/2} = log(e^{-y} y^{m/2} / Gamma(m/2 + 1)), m = 0..m_max, y > 0.

    At even m = 2k this is the Poisson(y) log-probability of k.
    """
    s, base = _half_tables(m_max)
    s = s[:m_max]
    out = np.empty(m_max + 1)
    out[0] = -y
    bd0 = out[1:]
    if y > 1e-250:
        np.log(np.divide(s, y, out=bd0), out=bd0)
    else:  # s/y overflows
        np.subtract(np.log(s, out=bd0), math.log(y), out=bd0)
    bd0 *= s
    bd0 += y - s
    # s in (9y/11, 11y/9), i.e. |s - y| < 0.1 (s + y), is one slice
    lo = min(m_max, math.floor(y * (18.0 / 11.0)))
    hi = min(m_max, max(lo, math.ceil(y * (22.0 / 9.0)) - 1))
    if hi > lo:
        sn = s[lo:hi]
        d = sn - y
        v = d / (sn + y)
        series = (np.square(v)[:, None] ** _BD0_POWERS) @ _BD0_COEF
        series *= sn
        series += d
        np.multiply(v, series, out=bd0[lo:hi])
    np.subtract(base[:m_max], bd0, out=bd0)
    return out


def _log_erfc_sqrt(y: float) -> float:
    """log erfc(sqrt(y)) = log Q(1/2, y) for y > 0.

    From y = 100 on, the asymptotic series e^{-y}/sqrt(pi y) sum_k
    (-1)^k (2k - 1)!!/(2y)^k; it is exact in y, where erfc of a rounded
    sqrt(y) carries a relative error of y eps, and it does not underflow.
    """
    if y < 100.0:
        return math.log(math.erfc(math.sqrt(y)))
    r = 0.5 / y
    term = total = 1.0
    k = 1
    while abs(term) > 1e-17:
        term *= -(2 * k - 1) * r
        total += term
        k += 1
    return -y - 0.5 * math.log(math.pi * y) + math.log(total)


def log_gamma_q_half(y: float, m_max: int):
    """log Q(m/2, y), the regularized upper incomplete gamma, m = 0..m_max.

    Forward sums of the chain Q(s + 1, y) = Q(s, y) + t_s, with Q(0, y) = 0
    (the limit s -> 0 for y > 0); at y = 0 every Q(s, 0), s > 0, is exactly 1.
    """
    if y == 0.0:
        out = np.zeros(m_max + 1)
        out[0] = -math.inf
        return out
    # row j holds (Q(j + 1/2), Q(j + 1)): row 0 is (erfc(sqrt(y)), t_0), and
    # row j + 1 adds (t_{j+1/2}, t_{j+1})
    rows = max((m_max + 1) // 2, 1)
    terms = np.concatenate(((_log_erfc_sqrt(y),),
                            log_poisson_half(y, 2 * rows - 2)))
    out = np.empty(2 * rows + 1)
    out[0] = -math.inf
    out[1:] = _log_prefix_sums(terms.reshape(rows, 2)).ravel()
    return out[:m_max + 1]


# prefix sums below this are taken in the log domain; above it the terms
# that underflowed in the linear sum are below 1e-25 of the sum
_LINEAR_FLOOR = 1e-280


def _log_prefix_sums(log_x):
    """log of the prefix sums, down axis 0, of the terms e^{log_x} <= 1.

    The sums run in the linear domain with every step's rounding error
    recovered by TwoSum and added back, so each sum is within a few
    roundings of exact.  The leading rows whose sums are below
    _LINEAR_FLOOR, where the terms underflow, are summed in the log domain
    instead.
    """
    x = np.exp(log_x)
    total = np.add.accumulate(x, axis=0)
    # TwoSum: total[i] = total[i-1] + x[i] - err[i], exactly
    big = total[1:] - total[:-1]
    err = total[:-1] - (total[1:] - big)
    err += x[1:] - big
    total[1:] += np.add.accumulate(err, axis=0)
    if total[0].min() >= _LINEAR_FLOOR:  # the sums never decrease
        return np.log(total, out=total)
    deep = int(np.count_nonzero(total < _LINEAR_FLOOR, axis=0).max())
    out = np.log(total, out=total, where=total > 0.0)
    out[:deep] = np.logaddexp.accumulate(log_x[:deep], axis=0)
    return out


def _p_chain(y: float, m_max: int):
    """The chain's terms log t_{m/2}, for m from 0 to past m_max, and
    log P(m/2, y), m = 0..m_max, for y > 0.

    P(s, y) = sum_{i >= 0} t_{s+i}: reverse sums from shape
    max(m_max/2, y) + 10 sqrt(y) + 20 down, where the terms left out are
    below e^-47 of the smallest sum.
    """
    rows = math.ceil(max(0.5 * m_max, y) + 10.0 * math.sqrt(y) + 20.0)
    log_t = log_poisson_half(y, 2 * rows - 1)
    # row j holds (t_j, t_{j+1/2}); summed from the last row up
    log_p = _log_prefix_sums(log_t.reshape(rows, 2)[::-1])[::-1]
    return log_t, log_p.ravel()[:m_max + 1]


def log_gamma_p_half(y: float, m_max: int):
    """log P(m/2, y) = log(1 - Q(m/2, y)), the regularized lower incomplete
    gamma, m = 0..m_max, by reverse sums of the chain's terms (_p_chain).
    At y = 0 every P(s, 0), s > 0, is exactly 0.
    """
    if y == 0.0:
        out = np.full(m_max + 1, -math.inf)
        out[0] = 0.0
        return out
    return _p_chain(y, m_max)[1]


def ncx2_cdf_at_noncentrality(n: int, y: float) -> float:
    """P(X <= 2y) for X noncentral chi-square with n degrees of freedom and
    noncentrality 2y, i.e. P(|x + Z| <= |x|) for Z standard normal in R^n
    and |x|^2 = 2y.

    The Poisson(y)-weighted sum of P(n/2 + k, y) over k; the weights are
    the chain's integer terms t_k.  Summands past k = y + 10 sqrt(y) + 20
    are below e^-47 of the sum.  It has no cancellation at small y and
    large n, where 1 - Q_n would round to noise.
    """
    if y == 0.0:
        return 0.0
    K = math.ceil(y + 10.0 * math.sqrt(y) + 20.0)
    log_t, log_p = _p_chain(y, n + 2 * K)
    log_terms = log_t[0:2 * K + 1:2] + log_p[n::2]
    peak = float(log_terms.max())
    return math.exp(peak) * float(np.exp(log_terms - peak).sum())
