"""Property suites: provable facts about the bounds, checked numerically.

Each suite returns a list of CheckResult records; the CLI renders them and
exits nonzero if any check fails.  Checks call through the module globals
(e.g. oracles.g_tilde_n) so fault-injection tests can patch a single function
and watch the right suite fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import lower_bounds, oracles, radial, specfun, upper_bounds

SUITES = ("specfun", "radial", "upper", "lower", "all")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" [{self.detail}]" if self.detail else ""
        return (f"[{status}] {self.suite}/{self.name}: measured={self.measured:.3e} "
                f"tol={self.tolerance:.3e}{extra}")


def _result(suite, name, measured, tol, detail="", larger_ok=False):
    ok = measured >= tol if larger_ok else measured <= tol
    return CheckResult(suite=suite, name=name, passed=bool(ok),
                       measured=float(measured), tolerance=float(tol),
                       detail=detail)


# ---------------------------------------------------------------------------
# specfun
# ---------------------------------------------------------------------------

def suite_specfun(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    x = rng.uniform(1e-6, 10.0, 200)
    lo = x / (1.0 + x * x) * specfun.gauss_pdf(x)
    hi = specfun.gauss_pdf(x) / x
    q = specfun.q_func(x)
    margin = float(min(np.min(q - lo), np.min(hi - q)))
    out.append(_result("specfun", "q_func_sandwich", margin, 0.0,
                       "x/(1+x^2) psi < Q < psi/x on 200 random x in (0,10]",
                       larger_ok=True))

    worst = max(abs(oracles.marcum_q1(a, 0.0) - 1.0)
                for a in (0.0, 0.5, 1.0, 5.0, 20.0))
    out.append(_result("specfun", "marcum_b0_is_one", worst, 1e-12,
                       "Q_1(a, 0) = 1"))

    xs = np.linspace(0.0, 50.0, 101)
    mine = np.array([specfun.tilde_i_n_scaled(2, float(v)) for v in xs])
    ref = special.i0e(xs)
    rel = float(np.max(np.abs(mine - ref) / ref))
    out.append(_result("specfun", "kernel_n2_matches_i0", rel, 1e-10))

    worst = 0.0
    for n in range(2, 9):
        for v in np.linspace(0.0, 30.0, 7):
            a = specfun.tilde_i_n_scaled(n, float(v))
            b = oracles._tilde_angular_quad(n, float(v))
            worst = max(worst, abs(a - b) / abs(b))
    out.append(_result("specfun", "kernel_series_vs_quadrature", worst, 1e-8,
                       "n in 2..8, x in [0, 30]"))

    vals = [specfun.tilde_i_n_scaled(n, 1e4) for n in range(2, 9)]
    vals += [float(specfun.bessel_i0_scaled(1e4)),
             float(specfun.q_func(1e2)), oracles.marcum_q1(1e2, 1e2)]
    finite = all(math.isfinite(v) for v in vals)
    out.append(_result("specfun", "scaled_functions_finite_at_1e4",
                       0.0 if finite else math.inf, 0.5,
                       "no overflow in scaled evaluations"))
    return out


# ---------------------------------------------------------------------------
# radial
# ---------------------------------------------------------------------------

def suite_radial(seed: int = 0) -> list[CheckResult]:
    out = []
    dims = (2, 3, 4, 5, 6)
    amps = (0.25, 1.0, 2.0, 5.0, 10.0)

    worst = math.inf
    for n in dims:
        for A in amps:
            for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
                worst = min(worst, oracles.g_tilde_n(n, frac * A, A))
    out.append(_result("radial", "g_tilde_positive", worst, 0.0,
                       "min over n in 2..6, A in {0.25,1,2,5,10}, 5 x-values",
                       larger_ok=True))

    worst = math.inf
    for n in (2, 4, 6):
        for A in (0.5, 2.0, 6.0):
            xs = np.linspace(0.0, A, 64)
            Q, G = radial.radial_pair_grid(n, xs, A)
            worst = min(worst, float(np.min(np.diff(Q))), float(np.min(np.diff(G))))
    out.append(_result("radial", "q_g_nondecreasing_in_x", worst, -1e-9,
                       "64-point grids", larger_ok=True))

    worst = 0.0
    for n in range(1, 9):
        for A in (0.1, 1.0, 5.0, 20.0):
            c = radial.k_n_closed(n, A)
            worst = max(worst, abs(c - oracles.k_n_numeric(n, A)) / c)
    out.append(_result("radial", "k_n_closed_vs_numeric", worst, 1e-8))

    worst = 0.0
    for x, A in ((0.0, 0.5), (0.3, 0.5), (1.0, 2.0), (2.0, 2.0), (0.5, 3.0),
                 (3.0, 3.0), (2.0, 6.0)):
        worst = max(worst, abs(oracles.q_n(2, x, A) - oracles.marcum_q1(x, A)))
    out.append(_result("radial", "q2_equals_marcum", worst, 1e-9))

    worst = 0.0
    for n in (1, 2, 3, 5, 8):
        for A in (0.25, 2.0, 10.0, 30.0):
            xs = np.linspace(0.0, A, 33)
            Q, G = radial.radial_pair_ncx2(n, xs, A)
            Qp, Gp = radial.radial_pair_grid(n, xs, A)
            worst = max(worst, float(np.max(np.abs(Q - Qp))),
                        float(np.max(np.abs(G - Gp))))
    out.append(_result("radial", "ncx2_grid_vs_panel", worst, 1e-10,
                       "closed form vs panel rule, n in {1,2,3,5,8}, "
                       "A in {0.25,2,10,30}, 33 x-values"))

    worst = 0.0
    for n in (2, 3, 5):
        for A in (0.5, 2.0, 6.0):
            for frac in (0.0, 0.5, 1.0):
                x = frac * A
                lhs = oracles.g_tilde_n(n, x, A)
                rhs = 0.5 * n * oracles.q_n(n, x, A) - oracles.g_n(n, x, A)
                worst = max(worst, abs(lhs - rhs))
    out.append(_result("radial", "g_tilde_identity", worst, 1e-9,
                       "gtilde = (n/2) Q - g by independent quadratures"))
    return out


# ---------------------------------------------------------------------------
# upper bounds
# ---------------------------------------------------------------------------

def suite_upper(seed: int = 0) -> list[CheckResult]:
    out = []

    worst = 0.0
    for n in (1, 2, 4):
        for beta in (0.05, 0.3, 0.5, 0.7, 0.95):
            A = 2.0
            for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
                x = frac * A
                closed = upper_bounds.d_n(n, beta, x, A)
                direct = (oracles.divergence_direct_1d(beta, x, A) if n == 1
                          else oracles.divergence_direct_nd(n, beta, x, A))
                worst = max(worst, abs(closed - direct))
    out.append(_result("upper", "dn_closed_vs_direct_divergence", worst, 1e-6,
                       "nats, (n, beta, x) grid at A=2"))

    worst = 0.0
    for frac in (0.0, 0.3, 0.6, 1.0):
        for beta in (0.2, 0.5, 0.8):
            A, x = 1.7, 1.7 * frac
            worst = max(worst, abs(upper_bounds.d_n(1, beta, x, A)
                                   - oracles.d1(beta, x, A)))
    out.append(_result("upper", "d1_vs_generic_n1", worst, 1e-8, "nats"))

    worst = math.inf
    eps = 1e-3
    for n, A in ((2, 1.0), (2, 3.0), (4, 2.5)):
        rf = radial.RadialFunctions(n, A)
        for x in (0.0, 0.5 * A, A):
            bhat = 1.0 - rf.pair(x)[0]
            d0 = upper_bounds.d_n(n, bhat, x, A)
            up = upper_bounds.d_n(n, min(bhat + eps, 1 - 1e-9), x, A)
            dn_ = upper_bounds.d_n(n, max(bhat - eps, 1e-9), x, A)
            worst = min(worst, up - d0, dn_ - d0)
    out.append(_result("upper", "beta_hat_minimizes_dn", worst, 0.0,
                       "D_n(beta_hat +/- 1e-3) >= D_n(beta_hat)", larger_ok=True))

    a1 = upper_bounds.amplitude_threshold(1)
    s = math.sqrt(2.0 * math.pi * math.e)
    resid = abs(0.5 - float(specfun.q_func(2 * a1)) - 2 * a1 / (s + 2 * a1))
    out.append(_result("upper", "refined_1d_threshold_equality", resid, 1e-9,
                       f"A*_1 = {a1:.6f}"))
    out.append(_result("upper", "threshold_1d_value",
                       abs(a1 - 2.0662), 1e-3))

    worst = 0.0
    for n in (1, 2, 4):
        prev = -math.inf
        for snr_db in np.linspace(-8.0, 24.0, 17):
            P = 10.0 ** (snr_db / 10.0)
            v = upper_bounds.envelope(n, P).rate_bits
            worst = min(worst, v - prev) if prev > -math.inf else worst
            prev = v
    out.append(_result("upper", "envelope_nondecreasing_in_snr", worst, -1e-9,
                       larger_ok=True))

    worst = 0.0
    flagged = False
    for n, A in ((1, 1.0), (2, 0.5), (2, 1.0), (2, 2.0), (2, 4.0), (2, 8.0),
                 (4, 3.0)):
        det = upper_bounds.minmax_dual_detail(n, A)
        worst = max(worst, abs(det.verified_nats - det.conjectured_nats))
        flagged = flagged or det.conjecture_violated
    out.append(_result("upper", "minmax_conjectured_vs_verified", worst, 1e-7,
                       f"nats; interior excess flagged: {flagged}"))

    worst = 0.0
    for n, A in ((2, 1.0), (2, 3.0), (4, 2.5)):
        bs = upper_bounds.beta_star(n, A)
        worst = max(worst, abs(upper_bounds.d_n(n, bs, 0.0, A)
                               - upper_bounds.d_n(n, bs, A, A)))
    out.append(_result("upper", "beta_star_equalizes_endpoints", worst, 1e-9,
                       "D_n(beta*, 0) = D_n(beta*, A)"))
    return out


# ---------------------------------------------------------------------------
# lower bounds
# ---------------------------------------------------------------------------

def suite_lower(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    c = lower_bounds.a_n_constellation(5, 0.8)
    m = lower_bounds.constellation_moments(5, 0.8)
    brute = c.average_power()
    out.append(_result("lower", "ring_packing_power_identity",
                       abs(brute - m.P_N) / m.P_N, 1e-12,
                       "closed form vs brute-force sum"))
    out.append(_result("lower", "ring_packing_cardinality",
                       abs(c.size - 25), 0.5, "N^2 points at N=5"))
    out.append(_result("lower", "ring_packing_peak",
                       abs(c.peak_radius() - 4.5 * 0.8), 1e-12))

    worst = 0.0
    for _ in range(10):
        m_pts = int(rng.integers(2, 7))
        pts = rng.uniform(-2.5, 2.5, size=(m_pts, 2))
        cst = lower_bounds.Constellation.equiprobable(pts)
        quad = lower_bounds.constellation_mi(cst)
        mc = oracles.constellation_mi_mc(cst, samples=200000,
                                         seed=int(rng.integers(1 << 30)))
        sigma = math.sqrt(mc.err_bits ** 2 + quad.err_bits ** 2 + 1e-12)
        worst = max(worst, abs(quad.bits - mc.bits) / (3.0 * sigma))
    out.append(_result("lower", "mi_quadrature_vs_monte_carlo", worst, 1.0,
                       "|quad - mc| within 3 combined std errors, 10 random"))

    worst = -math.inf
    for N in (4, 8, 16):
        delta = lower_bounds.delta_for_alpha(N, 4.0)
        analytic = lower_bounds.analytical_lower_bound(N, delta, 4.0)
        mi = lower_bounds.constellation_mi(
            lower_bounds.a_n_constellation(N, delta), refine_check=False)
        worst = max(worst, analytic.rate_bits - mi.bits)
    out.append(_result("lower", "analytic_bound_below_packing_mi", worst, 0.02,
                       "bits, N in {4, 8, 16}, alpha = 4"))

    # rings of the 2-D sweep, the packings of criterion 10, and the 1-D set
    # (gap 7.5) on which a lattice spacing not following the gap misses
    cases = [lower_bounds.ring_constellation(
        math.sqrt(2.0 * 10.0 ** (snr_db / 10.0)))
        for snr_db in (-10.0, 0.0, 10.0, 20.0)]
    cases += [lower_bounds.a_n_constellation(
        N, lower_bounds.delta_for_alpha(N, 4.0)) for N in (4, 8, 16)]
    cases.append(lower_bounds.Constellation.equiprobable(
        np.linspace(-15.0, 15.0, 5)[:, None]))
    worst = max(abs(lower_bounds.constellation_mi(cst, refine_check=False).bits
                    - oracles.constellation_mi_polar(cst)) for cst in cases)
    out.append(_result("lower", "mi_lattice_vs_polar", worst, 1e-12,
                       "bits: rings at -10/0/10/20 dB, alpha = 4 packings "
                       "N in {4, 8, 16}, 5-PAM on [-15, 15]"))

    worst = -math.inf
    for n, snr_db in ((1, -5.0), (1, 5.0), (1, 15.0), (2, -5.0), (2, 3.0),
                      (2, 12.0), (4, 7.0)):
        P = 10.0 ** (snr_db / 10.0)
        env = upper_bounds.envelope(n, P).rate_bits
        lows = [lower_bounds.volume_lower_bound(n, P)]
        if n == 1:
            lows.append(lower_bounds.pam_lower_bound_1d(P))
        if n == 2:
            A = math.sqrt(2.0 * P)
            lows.append(lower_bounds.constellation_mi(
                lower_bounds.ring_constellation(A), refine_check=False).bits)
        worst = max(worst, max(lows) - env)
    out.append(_result("lower", "sandwich_lower_below_envelope", worst, 0.0,
                       "max lower - envelope over spot checks"))

    c2 = lower_bounds.Constellation.equiprobable(np.array([[-3.0], [3.0]]))
    mi2 = lower_bounds.constellation_mi(c2).bits

    out.append(_result("lower", "pam_binary_matches_two_point_oracle",
                       abs(mi2 - oracles.binary_mi(3.0)), 1e-9))

    table = lower_bounds.ring_constellation(4.0).to_table()
    rt = lower_bounds.Constellation.from_table(table)
    orig = lower_bounds.ring_constellation(4.0)
    drift = float(np.max(np.abs(rt.points - orig.points)))
    out.append(_result("lower", "constellation_table_roundtrip", drift, 0.0))
    return out


_SUITE_FUNCS = {
    "specfun": suite_specfun,
    "radial": suite_radial,
    "upper": suite_upper,
    "lower": suite_lower,
}


def run_suite(suite: str, seed: int = 0) -> list[CheckResult]:
    """Run one named suite (or 'all'); unknown names raise ValueError."""
    if suite == "all":
        return [r for run in _SUITE_FUNCS.values() for r in run(seed)]
    if suite not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    return _SUITE_FUNCS[suite](seed)
