"""Capacity lower bounds: explicit constellations and the volume bound.

Mutual information of a finite constellation is computed from the Gaussian
mixture it induces at the channel output,

    I(X; Y) = h(Y) - (dim/2) log(2 pi e),    h(Y) = -E[log p_Y(Y)],

by a deterministic lattice quadrature in the linear domain.  Its
references, the polar Gauss-Legendre rule and a seeded Monte Carlo
estimator on a log-domain mixture kernel, are in oracles.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import radial
from .radial import ChannelConfig
from .specfun import LN2, LN_2PIE

__all__ = [
    "Constellation", "ConstellationMoments", "MiEstimate",
    "ring_constellation", "a_n_constellation", "constellation_moments",
    "delta_for_alpha", "AnalyticalBound", "analytical_lower_bound",
    "constellation_mi", "pam_lower_bound_1d", "volume_lower_bound",
]


@dataclass(frozen=True)
class Constellation:
    """Finite input set in 1 or 2 real dimensions with probability weights."""

    points: np.ndarray   # shape (M,) for 1-D or (M, 2) for 2-D
    probs: np.ndarray    # shape (M,)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        pr = np.asarray(self.probs, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[1] not in (1, 2):
            raise ValueError(f"points must be 1-D or 2-D, got shape {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("constellation needs at least one point")
        if pr.shape != (pts.shape[0],):
            raise ValueError("probs must be one weight per point")
        if np.any(pr < 0) or abs(pr.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be nonnegative and sum to 1 (1e-12)")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", pr)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def peak_radius(self) -> float:
        return float(np.sqrt((self.points ** 2).sum(axis=1)).max())

    def average_power(self) -> float:
        return float((self.probs * (self.points ** 2).sum(axis=1)).sum())

    def to_table(self) -> str:
        """Plain-text table: one point per line, coordinates then probability."""
        out = io.StringIO()
        for row, p in zip(self.points, self.probs):
            coords = " ".join(format(c, ".17g") for c in row)
            out.write(f"{coords} {p:.17g}\n")
        return out.getvalue()

    @classmethod
    def from_table(cls, text: str) -> "Constellation":
        rows = [line.split() for line in text.splitlines() if line.strip()]
        # no rows: an empty set, which the constructor rejects
        vals = (np.array([[float(v) for v in r] for r in rows]) if rows
                else np.zeros((0, 2)))
        return cls(points=vals[:, :-1], probs=vals[:, -1])

    @classmethod
    def equiprobable(cls, points) -> "Constellation":
        pts = np.asarray(points, dtype=float)
        m = pts.shape[0]
        return cls(points=pts, probs=np.full(m, 1.0 / m))


# the ring of 40 dB at n = 2 (A^2 = 2e4) holds 15,261 points, and its MI
# took about 19 s and 410 MB (one thread of a 2-core machine); at 45 dB
# the MI's lattice factors alone would need 1.3 to 3.3 GB
RING_MAX_AMPLITUDE = math.sqrt(2.0e4)


def ring_constellation(A: float) -> Constellation:
    """Equiprobable concentric-ring constellation with peak amplitude A.

    Rings sit at radii rho_k = A - 2k (one ring per 2-sigma step, always at
    least the outermost), each carrying the points rho_k e^{j m theta_k} for
    m = 0..ceil(3 rho_k) - 1 with theta_k = 2 pi / (3 rho_k), i.e. roughly
    one point per 2-sigma arc, none twice when 3 rho_k is an integer.  The
    origin is included once A >= 2; closer in it would sit inside the
    packing distance of the outer ring and measurably weakens the
    constellation at low SNR.  Above A = RING_MAX_AMPLITUDE (40 dB at
    n = 2) it raises ValueError before it places a point: the ring has
    about (3/4) A^2 points, and its MI (ring_lower) would take minutes and
    gigabytes.
    """
    cfg = ChannelConfig(2, A)
    if A > RING_MAX_AMPLITUDE:
        raise ValueError(
            f"ring_lower's ring is built up to A = {RING_MAX_AMPLITUDE:.6g} "
            f"(40 dB), got A = {A:.6g} ({cfg.snr_db:.6g} dB): it would "
            f"hold about (3/4) A^2 points, too many for its MI")
    pts: list[tuple[float, float]] = []
    if A >= 2.0:
        pts.append((0.0, 0.0))
    for k in range(max(int(math.floor(A / 2.0)), 1)):
        rho = A - 2.0 * k
        n_k = int(math.ceil(3.0 * rho))
        theta = 2.0 * math.pi / (3.0 * rho)
        for m in range(n_k):
            pts.append((rho * math.cos(m * theta), rho * math.sin(m * theta)))
    return Constellation.equiprobable(np.array(pts))


def _check_packing(N: int, Delta: float | None = None) -> None:
    """Raise ValueError unless N is an integer >= 2 and Delta, if given, > 0."""
    if not 2 <= N < math.inf or N != int(N):
        raise ValueError(f"N must be an integer >= 2, got {N}")
    if Delta is not None and not Delta > 0:
        raise ValueError(f"Delta must be positive, got {Delta}")


def a_n_constellation(N: int, Delta: float) -> Constellation:
    """N^2-point ring packing: origin plus 2n+1 points at radius (n+0.5)Delta.

    Ring n (n = 1..N-1) holds the points (n+0.5) Delta e^{j (l+0.5) theta_n},
    l = 0..2n, theta_n = 2 pi/(2n+1); the peak amplitude is (N-0.5) Delta.
    """
    _check_packing(N, Delta)
    pts = [(0.0, 0.0)]
    for n in range(1, N):
        theta = 2.0 * math.pi / (2 * n + 1)
        r = (n + 0.5) * Delta
        for ell in range(2 * n + 1):
            a = (ell + 0.5) * theta
            pts.append((r * math.cos(a), r * math.sin(a)))
    return Constellation.equiprobable(np.array(pts))


@dataclass(frozen=True)
class ConstellationMoments:
    """Exact second-order moments of the N^2-point ring packing."""

    N: int
    Delta: float
    P_N: float    # average power E|X|^2
    rho_N: float  # correlation Re E[X* U] / P_N of the dithering offset

    def __post_init__(self):
        if not self.P_N > 0:
            raise ValueError("P_N must be positive")
        if not -1.0 < self.rho_N <= 0.0:
            raise ValueError(f"rho_N must lie in (-1, 0], got {self.rho_N}")


def _sinc(x):
    """sin(x)/x with sinc(0) = 1 (unnormalized convention)."""
    return np.sinc(np.asarray(x) / np.pi)


def constellation_moments(N: int, Delta: float) -> ConstellationMoments:
    """Closed-form P_N and rho_N for the N^2-point ring packing.

    P_N = (Delta^2/2) (N^2 - (1 + 1/N^2)/2), and rho_N P_N is the finite sum
    (Delta^2/N^2) sum_{n=1}^{N-1} (2n+1)[(n^2+n+1/3) sinc(pi/(2n+1))
    - (n^2+n+1/4)], both exact.
    """
    _check_packing(N, Delta)
    P_N = Delta ** 2 / 2.0 * (N ** 2 - 0.5 * (1.0 + 1.0 / N ** 2))
    n = np.arange(1, N, dtype=float)
    rho_P = Delta ** 2 / N ** 2 * float(np.sum(
        (2 * n + 1) * ((n ** 2 + n + 1.0 / 3.0) * _sinc(np.pi / (2 * n + 1))
                       - (n ** 2 + n + 0.25))))
    return ConstellationMoments(N=N, Delta=Delta, P_N=P_N, rho_N=rho_P / P_N)


def delta_for_alpha(N: int, alpha: float) -> float:
    """Spacing Delta making N^2 = alpha (1 + P_N/2) hold exactly."""
    _check_packing(N)
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    P_N = 2.0 * (N ** 2 / alpha - 1.0)
    if not P_N > 0:
        raise ValueError(f"alpha={alpha} needs N^2 > alpha, got N={N}")
    return math.sqrt(2.0 * P_N / (N ** 2 - 0.5 * (1.0 + 1.0 / N ** 2)))


@dataclass(frozen=True)
class AnalyticalBound:
    """Analytical ring-packing rate guarantee and its context."""

    rate_bits: float
    snr: float            # peak SNR (N-0.5)^2 Delta^2 / 2
    c_tilde_bits: float   # average-power capacity log2(1 + P_N/2)
    gap_bits: float       # c_tilde - rate
    N: int
    Delta: float
    alpha: float


def analytical_lower_bound(N: int, Delta: float, alpha: float) -> AnalyticalBound:
    """Closed-form achievable rate of the N^2-point ring packing.

    Dithering the discrete input into the uniform disk of radius N Delta and
    bounding the conditional entropy with a Gaussian test density gives

        I(X; Y) >= log2(pi N^2 Delta^2)
                   - log2( pi e [ N^2 Delta^2 / 2
                                  - P_N^2 (1+rho_N)^2 / (P_N + 2) ] )

    evaluated here with the exact moments.  alpha must satisfy
    N^2 = alpha (1 + P_N/2); the rate is achieved under peak SNR
    (N-0.5)^2 Delta^2 / 2.  The gap to log2(1 + P_N/2) approaches
    0.45 + log2(1 + 1.82/alpha) for large N.
    """
    m = constellation_moments(N, Delta)
    alpha_implied = N ** 2 / (1.0 + m.P_N / 2.0)
    if abs(alpha - alpha_implied) > 1e-6 * alpha_implied:
        raise ValueError(
            f"alpha={alpha} inconsistent with (N, Delta): implied "
            f"alpha={alpha_implied:.9g}; use delta_for_alpha(N, alpha)")
    bracket = N ** 2 * Delta ** 2 / 2.0 - m.P_N ** 2 * (1.0 + m.rho_N) ** 2 / (m.P_N + 2.0)
    if bracket <= 0:
        raise ValueError(f"nonpositive log argument {bracket} (invalid moments)")
    rate = (math.log2(math.pi * N ** 2 * Delta ** 2)
            - math.log2(math.pi * math.e * bracket))
    c_tilde = math.log2(1.0 + m.P_N / 2.0)
    return AnalyticalBound(rate_bits=rate, snr=(N - 0.5) ** 2 * Delta ** 2 / 2.0,
                           c_tilde_bits=c_tilde, gap_bits=c_tilde - rate,
                           N=N, Delta=Delta, alpha=alpha)


@dataclass(frozen=True)
class MiEstimate:
    """Mutual information estimate in bits with an error measure."""

    bits: float
    err_bits: float   # quadrature: refinement disagreement; MC: std error
    method: str

    def __float__(self):
        return self.bits


# Lattice rule of constellation_mi (see its docstring): the spacing is
# _H_GAP / gap clipped to [_H_MIN, _H_MAX], and the error estimate reruns the
# rule at _H_FINE times that spacing.
_H_GAP, _H_MIN, _H_MAX = 0.75, 0.12, 0.3
_H_FINE = 0.75


def _support(c: Constellation):
    """Points of positive probability and their probabilities."""
    keep = c.probs > 0
    return c.points[keep], c.probs[keep]


# The 2-D gap search (_gabriel_gap) compares about _GAP_PAIRS pairs at a
# time.  A pair longer than sqrt(2) times the nearest point of its cone
# cannot be a Gabriel edge; _GAP_SLACK keeps that test clear of rounding.
_GAP_PAIRS = 2 ** 14
_GAP_SLACK = 1.0 + 2.0 ** -40


def _longest_gap(points) -> float:
    """Longest Gabriel edge, 0 for a single point.

    A pair (i, j) is a Gabriel edge when no third point lies strictly inside
    the disc with diameter ij: no k with (p_k - p_i).(p_k - p_j) < 0.  Only
    across such a pair does the mixture density dip (see _step_for_gap);
    where a third point lies between, it fills the dip.  In 1-D the Gabriel
    edges are the neighbours along the sorted line, and collinear points in
    2-D need no special case.  A Delaunay edge may instead be the diagonal
    of a polygon of cocircular points, or the long side of a sliver
    triangle of nearly collinear points.  Each 2-D length is
    sqrt(dx^2 + dy^2).
    """
    if points.shape[1] == 2:
        return _gabriel_gap(points)
    return float(np.diff(np.sort(points[:, 0])).max(initial=0.0))


def _cones(dx, dy):
    """Cone 0..7 of each difference: 4 (dy < 0) + 2 (dx < 0) + (|dy| > |dx|).
    Every cone lies in a closed 45-degree sector."""
    c = (dy < 0).view(np.int8) << 2
    c |= (dx < 0).view(np.int8) << 1
    c |= np.abs(dy) > np.abs(dx)
    return c


def _blocked(x, y, i, j, k):
    """Whether point k lies strictly inside the disc with diameter ij."""
    return (x[k] - x[i]) * (x[k] - x[j]) + (y[k] - y[i]) * (y[k] - y[j]) < 0.0


def _gap_block(x, y, rows):
    """One block of rows against every point.

    Returns the nearest point of each cone of each row (the row itself for
    a cone with none) and the rows' candidate pairs (i, j, squared length)
    with i < j that no cone-nearest point of i blocks.  A candidate is
    shorter than sqrt(2 _GAP_SLACK) times the nearest point of its cone
    (see _gabriel_gap).
    """
    dx = x - x[rows, None]
    dy = y - y[rows, None]
    d2 = dx * dx
    d2 += dy * dy
    # a point at the same place blocks nothing, so it stays out
    d2[d2 == 0.0] = np.inf
    b = rows.size
    key = _cones(dx, dy).astype(np.intp)
    key += np.arange(0, 8 * b, 8)[:, None]
    near = np.full(8 * b, np.inf)
    np.minimum.at(near, key.ravel(), d2.ravel())
    r, j = np.nonzero(d2 < (near * (2.0 * _GAP_SLACK))[key])
    key, d2 = key[r, j], d2[r, j]
    nn = np.repeat(rows, 8)
    at = d2 == near[key]
    nn[key[at]] = j[at]
    nn = nn.reshape(b, 8)
    i = rows[r]
    pair = i < j
    r, i, j, d2 = r[pair], i[pair], j[pair], d2[pair]
    free = ~_blocked(x, y, i[:, None], j[:, None], nn[r]).any(axis=1)
    return nn, i[free], j[free], d2[free]


def _gabriel_gap(points) -> float:
    """Longest Gabriel edge of a 2-D point set, found exactly.

    The search rests on two exact facts:
    - Split the directions around point i into 8 cones of 45 degrees
      (_cones) and let k be the nearest point in j's cone.  If d_ij^2 >
      2 d_ik^2 then k blocks (i, j), so only pairs with d_ij^2 <= 2 d_ik^2
      are candidates.
    - A point at the same place as i or j blocks nothing, so it stays out
      of the cone minima; otherwise it would prune every pair of its cone.
    Each candidate is then tested against the cone-nearest points of both
    ends, which removes most blocked pairs, and the rest, longest first,
    against every point; the first that no point blocks is the answer.

    Every point is compared with every other, rows taken _GAP_PAIRS / M at
    a time (at least one), so the time grows with M^2 whatever the layout
    (Delaunay takes M log M); temporaries hold about max(M, _GAP_PAIRS)
    numbers, never M^2.
    """
    m = points.shape[0]
    x, y = points[:, 0], points[:, 1]
    nn = np.empty((m, 8), dtype=np.intp)
    found = []
    step = max(1, _GAP_PAIRS // m)
    for a in range(0, m, step):
        rows = np.arange(a, min(a + step, m))
        nn[rows], *pairs = _gap_block(x, y, rows)
        found.append(pairs)
    i, j, d2 = (np.concatenate(part) for part in zip(*found))
    free = ~_blocked(x, y, i[:, None], j[:, None], nn[j]).any(axis=1)
    i, j, d2 = i[free], j[free], d2[free]
    order = np.argsort(d2)[::-1]
    a, n = 0, 1
    while a < order.size:
        pick = order[a:a + n]
        blocked = _blocked(x, y, i[pick, None], j[pick, None], slice(None))
        hit = np.flatnonzero(~blocked.any(axis=1))
        if hit.size:
            return math.sqrt(float(d2[pick[hit[0]]]))
        a, n = a + n, min(2 * n, step)
    return 0.0


def _step_for_gap(gap: float) -> float:
    """Lattice spacing for a longest gap: _H_GAP / gap, clipped to
    [_H_MIN, _H_MAX]; _H_MAX for a single point (gap 0).

    Between two points at distance s the mixture density dips to about
    e^{-s^2/8}, and log p_Y is analytic only in a strip about pi/s wide
    around the real line; the equal-weight rule converges like
    e^{-2 pi (pi/s) / h}, so h s fixed keeps that error fixed.
    """
    return _H_MAX if gap == 0.0 else min(max(_H_GAP / gap, _H_MIN), _H_MAX)


def _lattice_step(points) -> float:
    """Lattice spacing for the constellation (see _step_for_gap)."""
    return _step_for_gap(_longest_gap(points))


def _axis_kernel(axis, coords):
    """exp(-(axis_k - coords_j)^2 / 2), shape (len(axis), len(coords)); the
    difference is taken directly, as an expanded square cancels at large |y|.

    An exponent below -700 is raised to -700 (e^-700 is about 1e-304):
    exp is 20 to 180 times slower where its result underflows, and the
    raise moves p_Y at a node by under 1e-304 and -p log p by under 1e-301,
    far below the last bit of h(Y) >= 1.4 nats."""
    e = np.subtract.outer(axis, coords)
    np.square(e, out=e)
    e *= -0.5
    np.maximum(e, -700.0, out=e)
    return np.exp(e, out=e)


_TINY = np.finfo(float).tiny


def _sum_neg_plogp(p, axis=None):
    """sum of -p log p over an array p >= 0 (along `axis`, or over all of
    it), where p = 0 adds its limit 0.

    log is taken of max(p, tiny): a subnormal p adds p log(tiny), within
    1e-305 of p log p, and a zero adds exactly 0.
    """
    plogp = np.maximum(p, _TINY)
    np.log(plogp, out=plogp)
    plogp *= p
    return -plogp.sum(axis=axis)


def _entropy_lattice(points, w, step):
    """h(Y) in nats: step^dim * sum of -p log p over the nodes of step Z^dim
    in [min - 10, max + 10] (1-D) or the disk of radius peak + 10 (2-D).

    The unit-noise kernel factorises along the axes, so p_Y is computed in
    the linear domain from per-axis factors E_d[k, j] = exp(-(k h - x_jd)^2
    / 2): p = E_1 w / sqrt(2 pi) in 1-D and p = (E_1 diag(w)) E_2^T / (2 pi)
    on the whole square in 2-D, one matrix product, then masked to the disk.
    That is 2 sqrt(K) M exponentials for K nodes and M points, not K M.
    Far from every point p underflows to 0, where 0 is the exact limit of
    -p log p, or in 1-D rests on the kernel's floor (see _axis_kernel).
    """
    dim = points.shape[1]
    if dim == 1:
        k = np.arange(math.ceil((float(points.min()) - 10.0) / step),
                      math.floor((float(points.max()) + 10.0) / step) + 1)
        p = _axis_kernel(k * step, points[:, 0]) @ (w / math.sqrt(2.0 * math.pi))
    else:
        # truncating at radius peak+10 discards mixture mass below e^{-50};
        # the entropy-integrand tail it carries is far under 1e-20
        R = float(np.sqrt(np.square(points).sum(axis=1)).max()) + 10.0
        k = math.floor(R / step)
        axis = np.arange(-k, k + 1) * step
        e1 = _axis_kernel(axis, points[:, 0])
        e1 *= w / (2.0 * math.pi)
        sq = np.square(axis)
        p = (e1 @ _axis_kernel(axis, points[:, 1]).T)[sq[:, None] + sq <= R * R]
    return float(_sum_neg_plogp(p)) * step ** dim


def _mi_bits(h: float, m: int, power: float, dim: int) -> float:
    """I(X;Y) = h(Y) - (dim/2) log(2 pi e) in bits, clipped to what it
    provably obeys: 0 <= I <= H(X) <= log2 m for m points, and I is at most
    (dim/2) log2(1 + power/dim), the capacity at average power `power`
    (E|X|^2 of the input, or the channel's own P where that is smaller).
    The lattice value carries an absolute error of about 3e-16 bits, which
    the clip keeps from lifting a rate above either bound where the true
    rate vanishes (a single point, or vanishing SNR).
    """
    bits = max(h - 0.5 * dim * LN_2PIE, 0.0) / LN2
    return min(bits, math.log2(m), 0.5 * dim * math.log1p(power / dim) / LN2)


def constellation_mi(c: Constellation, refine_check: bool = True) -> MiEstimate:
    """Mutual information of a constellation over the unit-noise channel, bits.

    Deterministic quadrature of h(Y), then I = h(Y) - (dim/2) log(2 pi e),
    clipped to [0, min(log2 M, (dim/2) log2(1 + E|X|^2/dim))] for M points of
    positive probability (see _mi_bits).
    Points of zero probability are dropped first.  The rule is the
    equal-weight lattice rule h^dim sum -p log p over the nodes of hZ^dim in
    [min - 10, max + 10] (1-D) or in the disk of radius peak + 10 (2-D),
    where peak is the largest |x| of the constellation.  The integrand is
    smooth and decays like a Gaussian, so this trapezoid rule converges
    geometrically in 1/h (Trefethen & Weideman, SIAM Review 2014); the rate
    is set by the widest gap between neighbouring points, across which the
    density dips, so h = 0.75 / gap clipped to [0.12, 0.3], with gap the
    longest Gabriel edge: the longest pair whose diametral disc holds no
    third point, the longest gap along the line in 1-D (see _longest_gap).
    It needs only numpy; in 2-D it compares every pair of points, so its
    time grows with M^2 (see _gabriel_gap).  Rings, packings, wide-gap and
    random sets agree with a far finer rule to about 1e-14 bits.  p_Y at
    the nodes comes from per-axis Gaussian factors in the linear domain, one
    matrix product in 2-D, and -p log p is taken as 0 where p underflows
    far from every point (see _entropy_lattice).  The
    error estimate is the disagreement with the same rule at spacing 0.75 h,
    skipped when refine_check=False.
    """
    points, w = _support(c)
    step = _lattice_step(points)
    h = _entropy_lattice(points, w, step)
    fine = _entropy_lattice(points, w, _H_FINE * step) \
        if refine_check else h
    return MiEstimate(bits=_mi_bits(h, w.size, c.average_power(), c.dim),
                      err_bits=abs(fine - h) / LN2, method="quadrature")


def _pam_grid(A: float):
    """Every scanned size M = 2..ceil(2+2A)+4, the offset of its points and
    all their points in one array: np.linspace(-A, A, M) for each M, made
    operation for operation as linspace does, i * ((A - (-A)) / (M - 1)) +
    (-A) with the last point set to A."""
    sizes = np.arange(2, int(math.ceil(2.0 + 2.0 * A)) + 5)
    starts = np.cumsum(sizes) - sizes
    pts = np.arange(starts[-1] + sizes[-1], dtype=float)
    pts -= np.repeat(starts, sizes)
    pts *= np.repeat((A - (-A)) / (sizes - 1), sizes)
    pts += -A
    pts[starts + sizes - 1] = A
    return sizes, starts, pts


# the scan holds about 2A^2 points at once: 2e6 at 60 dB
PAM_MAX_AMPLITUDE = 1000.0

# Each kernel block of the PAM scan holds at most this many node-by-point
# entries (512 KB), whatever A is.
_PAM_BLOCK = 2 ** 16


def _pam_rates(P, A, pts, sizes, starts, step):
    """Rates in bits, as _mi_bits clips them, of consecutive PAM sizes that
    share the lattice step: sizes[i] points from pts[starts[i]], ascending.

    Every set is symmetric about 0 and so is its node set: the nodes of
    step Z in [-A - 10, A + 10] are k step for |k| <= K = floor((A + 10) /
    step), since ceil((-A - 10) / step) = -K exactly.  So p_Y is evaluated at
    k >= 0 only, and h(Y) = step (2 sum_{k>0} -p log p + (-p_0 log p_0)).
    The sets lie next to each other in pts, and one kernel over all their
    points gives each set's p_Y as a segment sum (add.reduceat adds every
    segment in its own fixed order).  A set of more than _PAM_BLOCK
    entries is split over its nodes, so no kernel holds more than
    _PAM_BLOCK entries (or one node column); no bit of a rate depends on
    the split.
    """
    x = pts[starts[0]:starts[-1] + sizes[-1]]
    seg = starts - starts[0]
    nodes = np.arange(math.floor((A + 10.0) / step) + 1) * step
    p = np.empty((sizes.size, nodes.size))
    width = max(1, _PAM_BLOCK // x.size)
    for a in range(0, nodes.size, width):
        p[:, a:a + width] = np.add.reduceat(
            _axis_kernel(x, nodes[a:a + width]), seg, axis=0)
    p *= (1.0 / (sizes * math.sqrt(2.0 * math.pi)))[:, None]
    # each size's sum runs along its own row, whatever the other rows are
    h = (2.0 * _sum_neg_plogp(p[:, 1:], axis=1)
         + _sum_neg_plogp(p[:, :1], axis=1)) * step
    # E X^2 of each set, capped at P: the endpoints fl(sqrt(P)) may exceed
    # sqrt(P) by half an ulp, and no lower bound on C(P) may exceed the
    # capacity at average power P
    power = np.minimum(np.add.reduceat(np.square(x), seg) / sizes, P)
    return [_mi_bits(*args, 1) for args in
            zip(h.tolist(), sizes.tolist(), power.tolist())]


def pam_lower_bound_1d(P: float, return_detail: bool = False):
    """Best equiprobable PAM rate: max over M of I(X;Y), points on [-A, A].

    M ranges over 2..ceil(2+2A)+4 with A = sqrt(P); points are uniformly
    spaced including the endpoints, as np.linspace(-A, A, M) places them.
    This stands in for an optimized input distribution and stays within 0.1
    bits of the upper-bound envelope.  Each rate is constellation_mi's rule
    (without its error estimate) on half the lattice, clipped to [0,
    min(log2 M, (1/2) log2(1 + min(E X^2, P)))], so it never exceeds log2 M
    nor the average-power capacity: the scan runs from the largest M down
    and stops, exactly, once log2 M is below the best rate found.  Ties go
    to the smallest M; with return_detail the result is (rate, M), and
    (0.0, 1) when no M gives a positive rate.

    The sets and their node sets are symmetric about 0, so p_Y is evaluated
    at the nodes k >= 0 only.  Every size with M - 1 >= 0.8 A has the
    largest lattice step, so most sizes share one node set: the scan takes
    the sizes in runs of equal step, at most _PAM_BLOCK node-by-point
    entries at a time (512 KB), and evaluates each run in one kernel (see
    _pam_rates); a size too large for one block is split over its nodes.
    So the scan's kernel memory is bounded whatever A is, and its rates
    agree with constellation_mi's to about 1e-14 bits, at the same M.
    Above A = PAM_MAX_AMPLITUDE (60 dB) it raises ValueError before
    allocating anything.
    """
    cfg = ChannelConfig.from_snr(1, P)
    A = cfg.A
    if A > PAM_MAX_AMPLITUDE:
        raise ValueError(
            f"pam_lower is evaluated up to A = {PAM_MAX_AMPLITUDE:g} (60 dB), "
            f"got A = {A:.6g} ({cfg.snr_db:.6g} dB): its scan would hold "
            f"about 2A^2 points")
    sizes, starts, pts = _pam_grid(A)
    # the one difference that spans two sizes is -2A, below every gap
    steps = [_step_for_gap(g) for g in
             np.maximum.reduceat(np.diff(pts), starts).tolist()]
    ms = sizes.tolist()
    best, best_m = 0.0, 1
    i = len(ms)
    while i > 0 and math.log2(ms[i - 1]) >= best:
        # the run ms[j:i]: one step, none known to be below the stop yet,
        # at most one block of entries (or the one size ms[i - 1])
        step = steps[i - 1]
        n_nodes = math.floor((A + 10.0) / step) + 1
        j, entries = i - 1, ms[i - 1] * n_nodes
        while (j > 0 and steps[j - 1] == step
               and math.log2(ms[j - 1]) >= best
               and entries + ms[j - 1] * n_nodes <= _PAM_BLOCK):
            j -= 1
            entries += ms[j] * n_nodes
        rates = _pam_rates(P, A, pts, sizes[j:i], starts[j:i], step)
        for m, mi in zip(ms[j:i][::-1], rates[::-1]):
            if math.log2(m) < best:   # I <= log2 m < best from here down
                break
            if mi > 0.0 and mi >= best:
                best, best_m = mi, m
        i = j
    return (best, best_m) if return_detail else best


def volume_lower_bound(n: int, P: float) -> float:
    """Entropy-power-inequality bound (n/2) log2(1 + Vol(A)^{2/n}/(2 pi e))."""
    A = ChannelConfig.from_snr(n, P).A
    v_pow = math.exp(2.0 / n * radial.log_vol_ball(n, A))
    return 0.5 * n * math.log1p(v_pow / (2.0 * math.pi * math.e)) / LN2
