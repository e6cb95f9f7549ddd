"""Acceptance criteria for the bound library, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.  The two SNR sweeps are computed once and shared.
"""

import math
import time

import numpy as np
import pytest

from awgncap import lower_bounds as lb
from awgncap import oracles, radial, upper_bounds
from awgncap.oracles import divergence_direct_1d, divergence_direct_nd


def _report(num: int, passed: bool, detail: str) -> None:
    print(f"[ACCEPT] criterion {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


def _upper_set(n: int, P: float) -> dict:
    A = math.sqrt(n * P)
    bounds = {
        "avg_power": 0.5 * n * math.log2(1.0 + P),
        "mckellips": (oracles.mckellips_1d(P) if n == 1
                      else upper_bounds.mckellips_nd(n, P)),
        "minmax_conjectured": upper_bounds.minmax_dual(n, A, True).rate_bits,
    }
    ref = (upper_bounds.refined_1d(P) if n == 1
           else upper_bounds.refined_nd(n, P))
    if ref.valid:
        bounds["refined"] = ref.rate_bits
    return bounds


@pytest.fixture(scope="module")
def sweep_1d():
    t0 = time.perf_counter()
    rows = []
    for snr_db in np.arange(-10.0, 30.0 + 1e-9, 0.5):
        P = 10.0 ** (snr_db / 10.0)
        uppers = _upper_set(1, P)
        rows.append({
            "snr_db": float(snr_db),
            "uppers": uppers,
            "envelope": min(uppers.values()),
            "pam": lb.pam_lower_bound_1d(P),
            "volume": lb.volume_lower_bound(1, P),
        })
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sweep_2d():
    rows = []
    for snr_db in np.arange(-10.0, 4.5 + 1e-9, 0.25):
        P = 10.0 ** (snr_db / 10.0)
        A = math.sqrt(2.0 * P)
        uppers = _upper_set(2, P)
        rows.append({
            "snr_db": float(snr_db),
            "uppers": uppers,
            "envelope": min(uppers.values()),
            "ring": lb.constellation_mi(lb.ring_constellation(A),
                                        refine_check=False).bits,
            "volume": lb.volume_lower_bound(2, P),
        })
    return rows


def test_criterion_1_scalar_gap(sweep_1d):
    # target: 0.1 bits everywhere; the PAM substitution may widen the gap
    # to at most 0.15 provided the offending points are flagged here
    rows, elapsed = sweep_1d
    gaps = [(r["envelope"] - r["pam"], r["snr_db"]) for r in rows]
    worst, at = max(gaps)
    over_target = [(s, g) for g, s in gaps if g > 0.1]
    passed = worst <= 0.15 and elapsed < 60.0
    flag = (f"; FLAGGED {len(over_target)} points above 0.1: "
            + ", ".join(f"{s:.1f} dB ({g:.4f})" for s, g in over_target)
            if over_target else "; no points above the 0.1 target")
    _report(1, passed,
            f"scalar envelope - PAM gap max {worst:.4f} bits at {at:.1f} dB "
            f"over 81 points (target 0.1, hard cap 0.15){flag}; "
            f"sweep took {elapsed:.1f}s (< 60s)")


def test_criterion_2_complex_gap(sweep_2d):
    gaps = [(r["envelope"] - r["ring"], r["snr_db"]) for r in sweep_2d]
    worst, at = max(gaps)
    _report(2, worst <= 0.15,
            f"complex envelope - ring MI gap max {worst:.4f} bits at "
            f"{at:.2f} dB over {len(gaps)} points in [-10, 4.5] dB")


def test_criterion_2_extension_informational():
    # non-gating: the provable range stops at 4.5 dB, this only reports
    worst, at = -1.0, None
    for snr_db in np.arange(5.0, 20.0 + 1e-9, 0.5):
        P = 10.0 ** (snr_db / 10.0)
        A = math.sqrt(2.0 * P)
        env = min(_upper_set(2, P).values())
        mi = lb.constellation_mi(lb.ring_constellation(A),
                                 refine_check=False).bits
        if env - mi > worst:
            worst, at = env - mi, snr_db
    print(f"[ACCEPT] criterion  2 (informational 5..20 dB): max gap "
          f"{worst:.4f} bits at {at:.1f} dB (not gated)")


def test_criterion_3_validity_thresholds():
    a1 = upper_bounds.amplitude_threshold(1)
    a2 = upper_bounds.amplitude_threshold(2)
    p2_db = 10.0 * math.log10(a2 ** 2 / 2.0)
    p4_db = 10.0 * math.log10(upper_bounds.amplitude_threshold(4) ** 2 / 4.0)
    ok = (abs(a1 - 2.0662) <= 1e-3 and abs(a2 - 2.36) <= 0.01
          and abs(p2_db - 4.45) <= 0.02 and abs(p4_db - 7.92) <= 0.05)
    _report(3, ok, f"A*_1={a1:.5f} (2.0662 +/- 1e-3), A*_2={a2:.4f} "
            f"(2.36 +/- 0.01), P*_2={p2_db:.4f} dB (4.45 +/- 0.02), "
            f"P*_4={p4_db:.4f} dB (7.92 +/- 0.05)")


def test_criterion_4_high_snr_asymptotes():
    P = 1e6
    d1_off = abs(oracles.mckellips_1d(P)
                 - (0.5 * math.log2(P) + 0.5 * math.log2(2 / (math.pi * math.e))))
    d2_off = abs(upper_bounds.mckellips_nd(2, P) - math.log2(P / math.e))
    vol_gap = upper_bounds.mckellips_nd(2, P) - lb.volume_lower_bound(2, P)
    ok = d1_off <= 0.01 and d2_off <= 0.01 and 0.0 <= vol_gap <= 0.02
    _report(4, ok, f"1-D offset {d1_off:.5f} <= 0.01, 2-D offset "
            f"{d2_off:.5f} <= 0.01, 60 dB McKellips-type - volume gap "
            f"{vol_gap:.5f} <= 0.02 (bits)")


def test_criterion_5_g_tilde_positivity():
    failures = 0
    worst = math.inf
    for n in range(2, 7):
        for A in (0.25, 1.0, 2.0, 5.0, 10.0):
            for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
                v = oracles.g_tilde_n(n, frac * A, A)
                worst = min(worst, v)
                failures += v <= 0.0
    _report(5, failures == 0,
            f"gtilde_n > 0 on 5x5x5 grid: {failures} failures "
            f"(min value {worst:.3e})")


def test_criterion_6_monotonicity():
    failures = 0
    worst = math.inf
    for n in range(2, 7):
        for A in (0.25, 1.0, 2.0, 5.0, 10.0):
            xs = np.linspace(0.0, A, 64)
            Q, G = radial.radial_pair_grid(n, xs, A)
            worst = min(worst, float(np.min(np.diff(Q))),
                        float(np.min(np.diff(G))))
            failures += int(np.sum(np.diff(Q) < -1e-9))
            failures += int(np.sum(np.diff(G) < -1e-9))
    _report(6, failures == 0,
            f"Q_n, g_n nondecreasing on 64-point grids (slack 1e-9): "
            f"{failures} failures (min increment {worst:.2e})")


def test_criterion_7_packing_moments():
    worst_rel = 0.0
    for N in range(2, 51):
        m = lb.constellation_moments(N, 1.1)
        brute = lb.a_n_constellation(N, 1.1).average_power()
        worst_rel = max(worst_rel, abs(m.P_N - brute) / brute)
    rho_scaled = lb.constellation_moments(100, 1.0).rho_N * 100 ** 2
    ok = worst_rel <= 1e-12 and -0.66 <= rho_scaled <= -0.64
    _report(7, ok, f"P_N identity rel err {worst_rel:.2e} <= 1e-12 for "
            f"N <= 50; rho_N N^2 = {rho_scaled:.4f} in [-0.66, -0.64]")


def test_criterion_8_oracle_equivalences():
    worst_dn = 0.0
    for n in (1, 2, 4):
        for beta in (0.05, 0.3, 0.5, 0.7, 0.95):
            for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
                x = 2.0 * frac
                closed = upper_bounds.d_n(n, beta, x, 2.0)
                direct = (divergence_direct_1d(beta, x, 2.0) if n == 1
                          else divergence_direct_nd(n, beta, x, 2.0))
                worst_dn = max(worst_dn, abs(closed - direct))

    worst_q2 = max(abs(oracles.q_n(2, x, A) - oracles.marcum_q1(x, A))
                   for x, A in ((0.0, 0.5), (1.0, 2.0), (2.0, 2.0),
                                (0.5, 3.0), (3.0, 4.0)))

    worst_kn = max(abs(radial.k_n_closed(n, A) - oracles.k_n_numeric(n, A))
                   / radial.k_n_closed(n, A)
                   for n in range(1, 9) for A in (0.1, 1.0, 5.0, 20.0))

    worst_d1 = max(abs(upper_bounds.d_n(1, b, f * 1.8, 1.8)
                       - oracles.d1(b, f * 1.8, 1.8))
                   for b in (0.2, 0.5, 0.8) for f in (0.0, 0.5, 1.0))

    ok = (worst_dn <= 1e-6 and worst_q2 <= 1e-9 and worst_kn <= 1e-8
          and worst_d1 <= 1e-8)
    _report(8, ok, f"D_n vs direct divergence {worst_dn:.2e} <= 1e-6 nats; "
            f"Q_2 vs Marcum {worst_q2:.2e} <= 1e-9; k_n closed vs numeric "
            f"{worst_kn:.2e} <= 1e-8; d1 vs generic {worst_d1:.2e} <= 1e-8")


def test_criterion_9_sandwich(sweep_1d, sweep_2d):
    violations = 0
    margin = math.inf
    for r in sweep_1d[0]:
        for low in (r["pam"], r["volume"]):
            for up in r["uppers"].values():
                margin = min(margin, up - low)
                violations += low > up
    for r in sweep_2d:
        for low in (r["ring"], r["volume"]):
            for up in r["uppers"].values():
                margin = min(margin, up - low)
                violations += low > up
    _report(9, violations == 0,
            f"lower <= valid upper at all criterion-1/2 sweep points: "
            f"{violations} violations (min margin {margin:.2e} bits)")


def test_criterion_10_analytical_packing_bound():
    alpha = 4.0
    res = lb.analytical_lower_bound(32, lb.delta_for_alpha(32, alpha), alpha)
    limit = 0.45 + math.log2(1.0 + 1.82 / alpha) + 0.05
    ok = res.gap_bits <= limit
    worst_excess = -math.inf
    for N in (4, 8, 16):
        delta = lb.delta_for_alpha(N, alpha)
        analytic = lb.analytical_lower_bound(N, delta, alpha).rate_bits
        mi = lb.constellation_mi(lb.a_n_constellation(N, delta),
                                 refine_check=False).bits
        worst_excess = max(worst_excess, analytic - mi)
    ok = ok and worst_excess <= 0.02
    _report(10, ok, f"N=32 gap {res.gap_bits:.4f} <= {limit:.4f} bits; "
            f"analytic - quadrature MI max {worst_excess:.4f} <= 0.02 bits "
            f"for N in {{4, 8, 16}}")
