"""Capacity upper bounds for the amplitude-constrained AWGN channel.

Every bound here instantiates the dual expression

    C <= max_{|x| <= A} D( p_{Y|X}(.|x) || q_Y )

with a test density q_Y that mixes a uniform ball of radius A (weight beta)
with a split-and-scaled Gaussian shell outside it.  The divergence then
collapses to the closed form

    D_n(beta, x) = log( Vol(A) / ((2 pi e)^{n/2} beta) )
                   + log( (2 pi)^{n/2} k_n(A) beta / ((1-beta) Vol(A)) ) Q_n(x, A)
                   + g_n(x, A)

in nats.  Choosing beta to cancel the x-dependent log term gives the
McKellips(-type) closed form; optimizing beta against the worst case x = A
gives the refined bound (valid below a dimension-dependent threshold); and
numerically optimizing beta against the worst x gives the min-max bound.
Rates are reported in bits per n-dimensional channel use with SNR P = A^2/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import optimize, special

from . import radial
from .radial import ChannelConfig, RadialFunctions
from .specfun import LN2, binary_entropy_nats, q_func

__all__ = [
    "ChannelConfig", "TestDensityParams", "BoundPoint", "MinmaxDetail",
    "avg_power", "d1", "mckellips_1d", "refined_1d", "d_n", "mckellips_nd",
    "refined_nd", "beta_star", "amplitude_threshold", "minmax_dual",
    "minmax_dual_detail", "envelope",
]

LN_2PI = math.log(2.0 * math.pi)
LN_2PIE = math.log(2.0 * math.pi * math.e)


@dataclass(frozen=True)
class TestDensityParams:
    """Mixing weight of the uniform-ball component of the test density."""

    __test__ = False  # not a pytest class, despite the Test prefix

    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")


@dataclass(frozen=True)
class BoundPoint:
    """One (SNR, rate) sample of a named bound.

    valid=False marks points outside a bound's provable range; such points
    are excluded from envelope minima.
    """

    snr_db: float
    rate_bits: float
    bound_id: str
    valid: bool = True
    achiever: str | None = None

    def __post_init__(self):
        if not self.rate_bits >= 0.0:
            raise ValueError(f"rate must be nonnegative, got {self.rate_bits} "
                             f"({self.bound_id} at {self.snr_db} dB)")


def _beta_value(beta) -> float:
    b = beta.beta if isinstance(beta, TestDensityParams) else float(beta)
    if not 0.0 < b < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {b}")
    return b


def avg_power(n: int, P: float) -> float:
    """Average-power capacity (n/2) log2(1 + P), an upper bound at any A."""
    ChannelConfig.from_snr(n, P)
    return 0.5 * n * math.log1p(P) / LN2


# ---------------------------------------------------------------------------
# scalar (n = 1) channel
# ---------------------------------------------------------------------------

def d1(beta, x: float, A: float) -> float:
    """Dual-bound divergence for the scalar channel, in nats.

    D = log(2A / (beta sqrt(2 pi e)))
        + log(beta sqrt(2 pi e) / ((1-beta) 2A)) [Q(A-x) + Q(A+x)]
        + (1/2)[g(A-x) + g(A+x)],          g(u) = u^2 Q(u) - u psi(u).

    Symmetry of the channel permits restricting to x in [0, A].
    """
    b = _beta_value(beta)
    ChannelConfig(1, A)
    if x < 0 or x > A:
        raise ValueError(f"x must lie in [0, A] = [0, {A}], got {x}")
    qq = float(q_func(A - x) + q_func(A + x))
    gg = float(radial.g_edge(A - x) + radial.g_edge(A + x))
    first = math.log(2.0 * A) - 0.5 * LN_2PIE - math.log(b)
    coeff = 0.5 * LN_2PIE + math.log(b) - math.log(1.0 - b) - math.log(2.0 * A)
    return first + coeff * qq + 0.5 * gg


def mckellips_1d(P: float) -> float:
    """McKellips' scalar bound min{log2(1 + sqrt(2P/(pi e))), (1/2)log2(1+P)}.

    The paper's closed form; mckellips_nd(1, P) agrees to rounding.
    """
    avg = avg_power(1, P)
    peak = math.log1p(math.sqrt(2.0 * P / (math.pi * math.e))) / LN2
    return min(peak, avg)


@lru_cache(maxsize=None)
def _amplitude_threshold_1d() -> float:
    # largest A with 1/2 - Q(2A) >= 2A / (sqrt(2 pi e) + 2A)
    s = math.sqrt(2.0 * math.pi * math.e)

    def gap(A):
        return 0.5 - float(q_func(2.0 * A)) - 2.0 * A / (s + 2.0 * A)

    return float(optimize.brentq(gap, 0.5, 5.0, xtol=1e-12))


def refined_1d(P: float) -> BoundPoint:
    """Refined scalar bound beta(P) log sqrt(2P/(pi e)) + H_e(beta(P)).

    beta(P) = 1/2 - Q(2 sqrt(P)).  The bound is provable only while this
    beta keeps the x-dependent divergence term nonincreasing, i.e. for
    A <= 2.0662 (about 6.303 dB); beyond that the point is flagged invalid.
    """
    A = ChannelConfig.from_snr(1, P).A
    beta = 0.5 - float(q_func(2.0 * A))
    nats = beta * math.log(math.sqrt(2.0 * P / (math.pi * math.e)))
    nats += binary_entropy_nats(beta)
    return BoundPoint(snr_db=10.0 * math.log10(P), rate_bits=nats / LN2,
                      bound_id="refined", valid=A <= _amplitude_threshold_1d())


# ---------------------------------------------------------------------------
# general dimension
# ---------------------------------------------------------------------------

def _dn_terms(n: int, beta: float, A: float):
    """(beta-independent offset, coefficient of Q_n) of D_n in nats."""
    lv = radial.log_vol_ball(n, A)
    lk = math.log(radial.k_n_closed(n, A))
    first = lv - 0.5 * n * LN_2PIE - math.log(beta)
    coeff = 0.5 * n * LN_2PI + lk + math.log(beta) - math.log(1.0 - beta) - lv
    return first, coeff


def d_n(n: int, beta, x: float, A: float,
        rf: RadialFunctions | None = None) -> float:
    """Dual-bound divergence D_n(beta, x) in nats for dimension n >= 1.

    The n = 1 instance uses the exact closed-form radial reductions and
    agrees with d1 to floating-point accuracy.
    """
    b = _beta_value(beta)
    rf = rf or RadialFunctions(n, A)
    q, g = rf.pair(float(x))
    first, coeff = _dn_terms(n, b, A)
    return first + coeff * q + g


def mckellips_nd(n: int, P: float) -> float:
    """McKellips-type bound min{log2(k_n(A) + Vol(A)/(2 pi e)^{n/2}), (n/2)log2(1+P)}."""
    A = ChannelConfig.from_snr(n, P).A
    lv = radial.log_vol_ball(n, A)
    shell = radial.k_n_closed(n, A) + math.exp(lv - 0.5 * n * LN_2PIE)
    peak = math.log(shell) / LN2
    return min(peak, avg_power(n, P))


@lru_cache(maxsize=None)
def amplitude_threshold(n: int) -> float:
    """Largest amplitude A*_n for which the refined bound is provable.

    A*_n is the smallest positive solution of
    1 - Q_n(A, A) = Vol(A) / ((2 pi)^{n/2} k_n(A) + Vol(A)); bisection over
    (1e-3, 50) to 1e-9.  A*_1 ~ 2.066, A*_2 ~ 2.364, A*_4 ~ 4.979.
    1 - Q_n(A, A) = P(|A e_1 + Z|^2 <= A^2) is the noncentral chi-square
    CDF with n degrees of freedom and noncentrality A^2, taken in closed
    form: subtracting the quadrature Q_n from 1 cancels to rounding noise
    at small A and large n.
    """
    if n == 1:
        return _amplitude_threshold_1d()

    def gap(A):
        lhs = float(special.chndtr(A * A, n, A * A))
        v = radial.vol_ball(n, A)
        rhs = v / ((2.0 * math.pi) ** (0.5 * n) * radial.k_n_closed(n, A) + v)
        return lhs - rhs

    lo, hi = 1e-3, 50.0
    flo, fhi = gap(lo), gap(hi)
    if not (flo > 0 > fhi):
        raise RuntimeError(
            f"threshold bracket failed for n={n}: gap({lo})={flo:.3g}, "
            f"gap({hi})={fhi:.3g}")
    return float(optimize.bisect(gap, lo, hi, xtol=1e-9))


def refined_nd(n: int, P: float) -> BoundPoint:
    """Refined bound for dimension n, optimizing beta against x = A.

    With beta_n(P) = 1 - Q_n(A, A), A = sqrt(nP):

        C <= (1 - beta_n) log k_n(A) + beta_n log(Vol(A)/(2 pi e)^{n/2})
             + H_e(beta_n) - gtilde_n(A, A)    [nats],

    provable for A < A*_n (valid flag).  At n = 1 this is not refined_1d:
    that bound, the paper's scalar one, is larger by gtilde_1(A, A) and has
    its own threshold.
    """
    A = ChannelConfig.from_snr(n, P).A
    return _refined_point(n, P, RadialFunctions(n, A))


def _refined_point(n: int, P: float, rf: RadialFunctions) -> BoundPoint:
    """refined_nd on the radial functions rf of the channel A = sqrt(nP)."""
    A = rf.A
    q, g = rf.pair(A)
    g_tilde = 0.5 * n * q - g
    beta = 1.0 - q
    nats = ((1.0 - beta) * math.log(radial.k_n_closed(n, A))
            + beta * (radial.log_vol_ball(n, A) - 0.5 * n * LN_2PIE)
            + binary_entropy_nats(beta) - g_tilde)
    return BoundPoint(snr_db=10.0 * math.log10(P), rate_bits=nats / LN2,
                      bound_id="refined", valid=A < amplitude_threshold(n))


def beta_star(n: int, A: float) -> float:
    """The beta equalizing the divergence at the two endpoint inputs x=0, x=A.

    With c_n(A) = (g_n(A,A) - g_n(0,A)) / (Q_n(0,A) - Q_n(A,A)),

        beta*_n(A) = Vol(A) / (Vol(A) + (2 pi)^{n/2} e^{-c_n(A)} k_n(A)),

    which solves D_n(beta, 0) = D_n(beta, A) exactly.  c_n(A) -> -1/2 as
    A -> inf, so beta* approaches the McKellips-type mixing weight.
    """
    return _beta_star(n, A, RadialFunctions(n, A))


def _beta_star(n: int, A: float, rf: RadialFunctions) -> float:
    """beta_star on the endpoint values of rf, which callers share."""
    q0, g0 = rf.pair(0.0)
    qA, gA = rf.pair(A)
    denom = q0 - qA
    if denom == 0.0:
        raise ZeroDivisionError(
            f"degenerate radial tails Q_n(0,A) == Q_n(A,A) at n={n}, A={A}")
    c = (gA - g0) / denom
    v = radial.vol_ball(n, A)
    return v / (v + (2.0 * math.pi) ** (0.5 * n) * math.exp(-c)
                * radial.k_n_closed(n, A))


def _golden_min(fun, lo: float, hi: float, tol: float):
    """Plain golden-section minimization of a unimodal scalar function."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (c, fc) if fc < fd else (d, fd)


def _golden_max(fun, lo: float, hi: float, iters: int = 40):
    neg = lambda t: -fun(t)
    t, f = _golden_min(neg, lo, hi, tol=max((hi - lo) * 0.618 ** iters, 1e-300))
    return t, -f


_X_GRID_POINTS = 513


@dataclass(frozen=True)
class MinmaxDetail:
    """Both evaluations of min_beta max_x D_n plus conjecture diagnostics.

    interior_excess measures how far the refined interior maximum of
    D_n(beta, .) exceeded the endpoint maximum at the optimized beta;
    a positive value beyond quadrature noise would be evidence against
    the endpoint-maximum conjecture.
    """

    n: int
    A: float
    conjectured_nats: float
    verified_nats: float
    beta_conjectured: float
    beta_verified: float
    interior_excess: float

    @property
    def conjecture_violated(self) -> bool:
        return self.interior_excess > 1e-7


def _minmax_conjectured(n, A, rf) -> tuple[float, float]:
    """min over beta of max(D_n(beta,0), D_n(beta,A)), assuming endpoint max.

    The minimum is either at the crossing beta* or at the per-endpoint
    minimizers beta_hat(x) = 1 - Q_n(x, A), whichever candidate is least.
    """
    q0, _ = rf.pair(0.0)
    qA, _ = rf.pair(A)
    bs = _beta_star(n, A, rf)
    b0 = min(max(1.0 - q0, 1e-12), 1.0 - 1e-12)
    bA = min(max(1.0 - qA, 1e-12), 1.0 - 1e-12)
    cands = [
        (d_n(n, bs, A, A, rf), bs),
        (max(d_n(n, b0, 0.0, A, rf), d_n(n, b0, A, A, rf)), b0),
        (max(d_n(n, bA, 0.0, A, rf), d_n(n, bA, A, A, rf)), bA),
    ]
    val, beta = min(cands, key=lambda t: t[0])
    return val, beta


def _max_over_x(first, coeff, Q, G, xs, rf, refine: bool, rounds: int = 3):
    """max_x of first + coeff*Q_n(x) + g_n(x) over the x grid, refined locally.

    Grid argmax first, then golden-section bracket shrinking inside the two
    neighboring grid cells; each extra evaluation can only sharpen the
    maximum, so the refinement never weakens the bound.
    """
    vals = first + coeff * Q + G
    i = int(np.argmax(vals))
    best = float(vals[i])
    if not refine or len(xs) < 3:
        return best, float(xs[i]), best
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, len(xs) - 1)]

    def along(x):
        q, g = rf.grid_pair(x)
        return first + coeff * q + g

    xr, fr = _golden_max(along, lo, hi, iters=rounds)
    return max(best, fr), (xr if fr > best else float(xs[i])), best


def _minmax_verified(n, A, rf) -> tuple[float, float, float]:
    """min over beta of max over x of D_n(beta, x) on the closed-form grid.

    Golden-section over beta on (0, 1) against 513 x values, each maximum
    refined locally (_max_over_x).  Returns the value, its beta and the
    interior excess: how far the refined maximum at that beta exceeds the
    larger endpoint value.
    """
    xs = np.linspace(0.0, A, _X_GRID_POINTS)
    Q, G = rf.grid(xs)

    def worst_case(beta):
        first, coeff = _dn_terms(n, beta, A)
        val, _, _ = _max_over_x(first, coeff, Q, G, xs, rf, refine=True)
        return val

    beta_v, val_v = _golden_min(worst_case, 1e-6, 1.0 - 1e-6, tol=1e-8)
    first, coeff = _dn_terms(n, beta_v, A)
    refined_max, _, _ = _max_over_x(first, coeff, Q, G, xs, rf, refine=True)
    endpoint_max = max(first + coeff * Q[0] + G[0],
                       first + coeff * Q[-1] + G[-1])
    return val_v, beta_v, refined_max - endpoint_max


def minmax_dual_detail(n: int, A: float) -> MinmaxDetail:
    """Evaluate min_beta max_x D_n(beta, x) both ways.

    The conjectured route assumes the max over x sits at an endpoint and
    uses the three-candidate closed evaluation.  The verified route runs
    golden-section over beta on (0, 1) against a dense x grid (513 points
    with local refinement, radial values in closed form) and records
    whether an interior x ever beat the endpoints at the optimum.
    """
    rf = RadialFunctions(n, A)
    conj_val, conj_beta = _minmax_conjectured(n, A, rf)
    val_v, beta_v, excess = _minmax_verified(n, A, rf)
    return MinmaxDetail(n=n, A=A, conjectured_nats=conj_val,
                        verified_nats=val_v, beta_conjectured=conj_beta,
                        beta_verified=beta_v, interior_excess=excess)


def minmax_dual(n: int, A: float, conjecture: bool = True) -> BoundPoint:
    """Min-max dual bound as a BoundPoint (bits).

    conjecture=True uses the endpoint-candidate evaluation; conjecture=False
    runs the grid-verified optimization alone.  minmax_dual_detail exposes
    both values plus the interior-vs-endpoint excess for conjecture checking.
    """
    return _minmax_point(n, A, conjecture, RadialFunctions(n, A))


def _minmax_point(n: int, A: float, conjecture: bool,
                  rf: RadialFunctions) -> BoundPoint:
    """minmax_dual on the radial functions rf of the channel (n, A)."""
    if conjecture:
        nats, _ = _minmax_conjectured(n, A, rf)
        bound_id = "minmax_conjectured"
    else:
        nats, _, _ = _minmax_verified(n, A, rf)
        bound_id = "minmax_verified"
    P = A ** 2 / n
    # divergences are nonnegative; clip quadrature noise at vanishing SNR
    return BoundPoint(snr_db=10.0 * math.log10(P),
                      rate_bits=max(nats, 0.0) / LN2,
                      bound_id=bound_id, valid=True)


def envelope(n: int, P: float, conjecture: bool = True) -> BoundPoint:
    """Pointwise minimum of the upper bounds, recording the achiever.

    Candidates, in this order: average-power capacity (n/2)log2(1+P), the
    McKellips(-type) bound, the refined bound where provable, and the
    min-max dual bound.  min keeps the first of equal rates, so the order
    settles ties.
    """
    A = ChannelConfig.from_snr(n, P).A
    # refined and min-max read the same endpoint values
    rf = RadialFunctions(n, A)
    cands = [(avg_power(n, P), "avg_power"), (mckellips_nd(n, P), "mckellips")]
    pt = refined_1d(P) if n == 1 else _refined_point(n, P, rf)
    if pt.valid:
        cands.append((pt.rate_bits, "refined"))
    mm = _minmax_point(n, A, conjecture, rf)
    cands.append((mm.rate_bits, mm.bound_id))
    rate, achiever = min(cands, key=lambda t: t[0])
    return BoundPoint(snr_db=10.0 * math.log10(P), rate_bits=rate,
                      bound_id="envelope", valid=True, achiever=achiever)
