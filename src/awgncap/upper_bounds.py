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

import numpy as np

from . import radial
from .radial import ChannelConfig, RadialFunctions, amplitude_threshold
from .specfun import LN2, LN_2PI, LN_2PIE, binary_entropy_nats, q_func

__all__ = [
    "ChannelConfig", "BoundPoint", "MinmaxDetail", "avg_power", "refined_1d",
    "d_n", "mckellips_nd", "refined_nd", "refined", "beta_star",
    "amplitude_threshold", "minmax_dual", "minmax_dual_detail", "envelope",
]


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


def avg_power(n: int, P: float) -> float:
    """Average-power capacity (n/2) log2(1 + P), an upper bound at any A."""
    ChannelConfig.from_snr(n, P)
    return 0.5 * n * math.log1p(P) / LN2


# ---------------------------------------------------------------------------
# scalar (n = 1) channel
# ---------------------------------------------------------------------------

def refined_1d(P: float) -> BoundPoint:
    """Refined scalar bound beta(P) log sqrt(2P/(pi e)) + H_e(beta(P)).

    beta(P) = 1/2 - Q(2 sqrt(P)).  The bound is provable only while this
    beta keeps the x-dependent divergence term nonincreasing, i.e. for
    A <= A*_1 = 2.0662 (about 6.303 dB); beyond that the point is flagged
    invalid.
    """
    A = ChannelConfig.from_snr(1, P).A
    beta = 0.5 - float(q_func(2.0 * A))
    nats = beta * math.log(math.sqrt(2.0 * P / (math.pi * math.e)))
    nats += binary_entropy_nats(beta)
    return BoundPoint(snr_db=10.0 * math.log10(P), rate_bits=nats / LN2,
                      bound_id="refined", valid=A <= amplitude_threshold(1))


# ---------------------------------------------------------------------------
# general dimension
# ---------------------------------------------------------------------------

def _dn_terms(n: int, A: float):
    """D_n's beta-dependent terms at one channel, as a function of beta.

    log k_n(A), log Vol(A) and the beta-free leading sums (each summed left
    to right, as in full) are computed once; the returned function maps
    beta in (0, 1) to (offset, coefficient of Q_n) in nats, so that
    D_n(beta, x) = offset + coefficient * Q_n(x, A) + g_n(x, A).
    """
    lk = math.log(radial.k_n_closed(n, A))  # checks the channel first
    lv = radial.log_vol_ball(n, A)
    first_head = lv - 0.5 * n * LN_2PIE
    coeff_head = 0.5 * n * LN_2PI + lk

    def terms(beta: float) -> tuple[float, float]:
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {beta}")
        log_beta = math.log(beta)
        return (first_head - log_beta,
                coeff_head + log_beta - math.log(1.0 - beta) - lv)

    return terms


def d_n(n: int, beta: float, x: float, A: float) -> float:
    """Dual-bound divergence D_n(beta, x) in nats for dimension n >= 1.

    The n = 1 instance uses the exact closed-form radial reductions and
    agrees with oracles.d1 to floating-point accuracy.
    """
    first, coeff = _dn_terms(n, A)(beta)
    q, g = RadialFunctions(n, A).pair(x)
    return first + coeff * q + g


def mckellips_nd(n: int, P: float) -> float:
    """McKellips-type bound min{log2(k_n(A) + Vol(A)/(2 pi e)^{n/2}), (n/2)log2(1+P)}."""
    A = ChannelConfig.from_snr(n, P).A
    lv = radial.log_vol_ball(n, A)
    shell = radial.k_n_closed(n, A) + math.exp(lv - 0.5 * n * LN_2PIE)
    peak = math.log(shell) / LN2
    return min(peak, avg_power(n, P))


def refined_nd(n: int, P: float) -> BoundPoint:
    """Refined bound for dimension n, optimizing beta against x = A.

    With beta_n(P) = 1 - Q_n(A, A), A = sqrt(nP):

        C <= (1 - beta_n) log k_n(A) + beta_n log(Vol(A)/(2 pi e)^{n/2})
             + H_e(beta_n) - gtilde_n(A, A)    [nats],

    provable for A < A*_n (valid flag; radial._refined_provable, which also
    picks the route of the endpoint pairs).  At n = 1 this is not refined_1d:
    that bound, the paper's scalar one, is larger by gtilde_1(A, A) and has
    its own threshold.
    """
    A = ChannelConfig.from_snr(n, P).A
    q, g = RadialFunctions(n, A).pair(A)
    g_tilde = 0.5 * n * q - g
    beta = 1.0 - q
    nats = ((1.0 - beta) * math.log(radial.k_n_closed(n, A))
            + beta * (radial.log_vol_ball(n, A) - 0.5 * n * LN_2PIE)
            + binary_entropy_nats(beta) - g_tilde)
    return BoundPoint(snr_db=10.0 * math.log10(P), rate_bits=nats / LN2,
                      bound_id="refined", valid=radial._refined_provable(n, A))


def refined(n: int, P: float) -> BoundPoint:
    """refined_1d, the paper's scalar bound, at n = 1; refined_nd above."""
    return refined_1d(P) if n == 1 else refined_nd(n, P)


def _at(n: int, A: float) -> str:
    """The channel (n, A) and its SNR, for error messages."""
    return f"n={n}, A={A!r} ({ChannelConfig(n, A).snr_db:.6g} dB)"


def beta_star(n: int, A: float) -> float:
    """The beta equalizing the divergence at the two endpoint inputs x=0, x=A.

    With c_n(A) = (g_n(A,A) - g_n(0,A)) / (Q_n(0,A) - Q_n(A,A)),

        beta*_n(A) = Vol(A) / (Vol(A) + (2 pi)^{n/2} e^{-c_n(A)} k_n(A)),

    which solves D_n(beta, 0) = D_n(beta, A) exactly.  c_n(A) -> -1/2 as
    A -> inf, so beta* approaches the McKellips-type mixing weight.

    At low SNR and larger n this form breaks down; each failure names n, A
    and the SNR: OverflowError when e^{-c_n} overflows, ZeroDivisionError
    when the two tails coincide, ValueError when beta* rounds to 0 or 1.
    """
    rf = RadialFunctions(n, A)
    q0, g0 = rf.pair(0.0)
    qA, gA = rf.pair(A)
    denom = q0 - qA
    if denom == 0.0:
        raise ZeroDivisionError(
            f"degenerate radial tails Q_n(0,A) == Q_n(A,A) at {_at(n, A)}")
    c = (gA - g0) / denom
    try:
        tilt = math.exp(-c)
    except OverflowError as exc:
        raise OverflowError(
            f"beta* needs e^(-c_n) with c_n = {c:.6g} at {_at(n, A)}: {exc}"
        ) from None
    v = radial.vol_ball(n, A)
    bs = v / (v + (2.0 * math.pi) ** (0.5 * n) * tilt * radial.k_n_closed(n, A))
    if not 0.0 < bs < 1.0:
        raise ValueError(f"beta* = {bs!r} rounds out of (0, 1) at {_at(n, A)}")
    return bs


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


_X_GRID_POINTS = 513
_REFINE_POINTS = 17  # 1/16 grid step in an end cell, 1/8 across two cells


@dataclass(frozen=True)
class MinmaxDetail:
    """Both evaluations of min_beta max_x D_n plus conjecture diagnostics.

    interior_excess measures how far the maximum of D_n(beta, .) over the
    513-point grid and the 17 refinement points exceeded the endpoint
    maximum at the optimized beta; a positive value beyond rounding noise
    would be evidence against the endpoint-maximum conjecture.
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


def _minmax_conjectured(n: int, A: float) -> tuple[float, float]:
    """min over beta of max(D_n(beta,0), D_n(beta,A)), assuming endpoint max.

    The minimum is either at the crossing beta* or at the per-endpoint
    minimizers beta_hat(x) = 1 - Q_n(x, A), whichever candidate is least.
    """
    bs = beta_star(n, A)
    rf = RadialFunctions(n, A)
    (q0, g0), (qA, gA) = rf.pair(0.0), rf.pair(A)
    terms = _dn_terms(n, A)

    def endpoints(beta):
        first, coeff = terms(beta)
        return first + coeff * q0 + g0, first + coeff * qA + gA

    b0 = min(max(1.0 - q0, 1e-12), 1.0 - 1e-12)
    bA = min(max(1.0 - qA, 1e-12), 1.0 - 1e-12)
    cands = [(endpoints(bs)[1], bs), (max(endpoints(b0)), b0),
             (max(endpoints(bA)), bA)]
    return min(cands, key=lambda t: t[0])


def _upper_hull(Q: np.ndarray, G: np.ndarray) -> list[int]:
    """Sorted indices of the upper hull of the points (Q[i], G[i]), Q sorted.

    Quickhull over index ranges: a range's vertex is its point farthest
    above the chord of its ends (cross product > 0), so collinear and
    coincident points are left out.  D_n(beta, .) is affine in (Q_n, g_n):
    its maximum over the points is attained at a vertex.
    """
    keep, spans = [0, len(Q) - 1], [(0, len(Q) - 1)]
    for a, b in spans:  # a vertex appends its two sub-ranges
        if b - a < 2:
            continue
        cross = ((Q[b] - Q[a]) * (G[a + 1:b] - G[a])
                 - (G[b] - G[a]) * (Q[a + 1:b] - Q[a]))
        k = int(np.argmax(cross))
        if cross[k] > 0.0:
            keep.append(a + 1 + k)
            spans += [(a, a + 1 + k), (a + 1 + k, b)]
    return sorted(keep)


def _minmax_verified(n: int, A: float) -> tuple[float, float, float]:
    """min over beta of max over x of D_n(beta, x) on the closed-form grid.

    Golden-section over beta on (0, 1) minimizes the maximum over 513 x
    values: every beta gives an upper bound, so the search needs only the
    grid; it reads that maximum at the grid's upper-hull vertices in
    (Q_n, g_n), in the grid's operation order (usually the two endpoints).
    At the chosen beta, 17 points across the cells next to the argmax of
    all 513 points refine the maximum, which can only raise it; it assumes
    no unimodality there.  The grid's radial_pair_ncx2 call also sums the
    end cells [x_511, A] and [0, x_1] as runs of their own: an endpoint
    argmax (all 960 seed-0 verified_nd queries) needs no second call, an
    interior one a 17-point call across its two cells.  Returns the value,
    its beta and the interior excess: how far that maximum exceeds the
    larger endpoint value.
    """
    m, r = _X_GRID_POINTS, _REFINE_POINTS
    xs = np.linspace(0.0, A, m)
    Q_all, G_all = radial.radial_pair_ncx2(n, np.concatenate(
        (xs, np.linspace(xs[-2], A, r), np.linspace(0.0, xs[1], r))), A)
    Q, G = Q_all[:m], G_all[:m]
    terms = _dn_terms(n, A)
    hull = [(float(Q[i]), float(G[i])) for i in _upper_hull(Q, G)]

    def grid_max(beta):
        first, coeff = terms(beta)
        return max([first + coeff * q + g for q, g in hull])

    beta_v, _ = _golden_min(grid_max, 1e-6, 1.0 - 1e-6, tol=1e-8)
    first, coeff = terms(beta_v)
    vals = first + coeff * Q + G
    i = int(np.argmax(vals))
    cell = {m - 1: slice(m, m + r), 0: slice(m + r, None)}.get(i)
    if cell is None:
        q, g = radial.radial_pair_ncx2(
            n, np.linspace(xs[i - 1], xs[i + 1], r), A)
    else:
        q, g = Q_all[cell], G_all[cell]
    val_v = max(float(vals[i]), float(np.max(first + coeff * q + g)))
    return val_v, beta_v, float(val_v - max(vals[0], vals[-1]))


def minmax_dual_detail(n: int, A: float) -> MinmaxDetail:
    """Evaluate min_beta max_x D_n(beta, x) both ways.

    The conjectured route assumes the max over x sits at an endpoint and
    uses the three-candidate closed evaluation.  The verified route runs
    golden-section over beta on (0, 1) against the maximum over a 513-point
    x grid (radial values in closed form, read at its upper-hull vertices),
    refines the whole grid's maximum at the beta it chose with 17 points
    across the argmax's cells (summed in the grid's call when the argmax
    is an endpoint, in a call of their own otherwise), and records whether
    an interior x beat the endpoints there.
    """
    conj_val, conj_beta = _minmax_conjectured(n, A)
    val_v, beta_v, excess = _minmax_verified(n, A)
    return MinmaxDetail(n=n, A=A, conjectured_nats=conj_val,
                        verified_nats=val_v, beta_conjectured=conj_beta,
                        beta_verified=beta_v, interior_excess=excess)


def minmax_dual(n: int, A: float, conjecture: bool = True) -> BoundPoint:
    """Min-max dual bound as a BoundPoint (bits).

    conjecture=True uses the endpoint-candidate evaluation; conjecture=False
    runs the grid-verified optimization alone.  minmax_dual_detail exposes
    both values plus the interior-vs-endpoint excess for conjecture checking.
    """
    snr_db = ChannelConfig(n, A).snr_db
    if conjecture:
        nats, _ = _minmax_conjectured(n, A)
        bound_id = "minmax_conjectured"
    else:
        nats, _, _ = _minmax_verified(n, A)
        bound_id = "minmax_verified"
    # divergences are nonnegative; clip quadrature noise at vanishing SNR
    return BoundPoint(snr_db=snr_db,
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
    cands = [(avg_power(n, P), "avg_power"), (mckellips_nd(n, P), "mckellips")]
    pt = refined(n, P)
    if pt.valid:
        cands.append((pt.rate_bits, "refined"))
    mm = minmax_dual(n, A, conjecture)
    cands.append((mm.rate_bits, mm.bound_id))
    rate, achiever = min(cands, key=lambda t: t[0])
    return BoundPoint(snr_db=10.0 * math.log10(P), rate_bits=rate,
                      bound_id="envelope", valid=True, achiever=achiever)
