"""Upper-bound tests: closed forms against direct divergence quadratures."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from awgncap import lower_bounds, radial, specfun, upper_bounds
from awgncap.upper_bounds import (ChannelConfig, TestDensityParams,
                                  amplitude_threshold, beta_star, d1, d_n,
                                  envelope, mckellips_1d, mckellips_nd,
                                  minmax_dual, minmax_dual_detail, refined_1d,
                                  refined_nd)
from awgncap.verify import divergence_direct_1d, divergence_direct_nd

LN2 = math.log(2.0)
SQRT_2PIE = math.sqrt(2.0 * math.pi * math.e)


class TestChannelConfig:
    def test_snr_identity(self):
        cfg = ChannelConfig(n=4, A=3.0)
        assert cfg.snr == 9.0 / 4.0
        assert cfg.snr_db == pytest.approx(10 * math.log10(2.25), rel=1e-14)

    def test_from_snr_db_roundtrip(self):
        cfg = ChannelConfig.from_snr_db(2, 7.5)
        assert cfg.snr_db == pytest.approx(7.5, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelConfig(n=0, A=1.0)
        with pytest.raises(ValueError):
            ChannelConfig(n=2, A=0.0)
        with pytest.raises(ValueError):
            TestDensityParams(beta=0.0)
        with pytest.raises(ValueError):
            TestDensityParams(beta=1.0)


class TestScalarDivergence:
    def test_mckellips_choice_bounds_all_x(self):
        A = 2.0
        beta = 2.0 * A / (SQRT_2PIE + 2.0 * A)
        cap = math.log1p(2.0 * A / SQRT_2PIE)
        for x in np.linspace(0.0, A, 9):
            assert d1(beta, float(x), A) <= cap + 1e-12

    def test_large_amplitude_limit_at_origin(self):
        A, beta = 40.0, 0.37
        expect = math.log(2.0 * A / (beta * SQRT_2PIE))
        assert d1(beta, 0.0, A) == pytest.approx(expect, abs=1e-12)

    def test_against_direct_divergence(self):
        val = d1(0.5, 1.0, 2.0)
        direct = divergence_direct_1d(0.5, 1.0, 2.0)
        assert val == pytest.approx(direct, abs=1e-9)

    def test_accepts_params_object(self):
        assert d1(TestDensityParams(0.5), 1.0, 2.0) == d1(0.5, 1.0, 2.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            d1(0.5, -0.1, 2.0)
        with pytest.raises(ValueError):
            d1(0.5, 2.5, 2.0)
        with pytest.raises(ValueError):
            d1(1.2, 1.0, 2.0)


class TestMcKellips1d:
    def test_high_snr_power_penalty(self):
        # first branch approaches (1/2)log2 P + (1/2)log2(2/(pi e)),
        # a 10 log10(pi e/2) ~ 6.30 dB power loss relative to avg power
        P = 1e6
        offset = mckellips_1d(P) - 0.5 * math.log2(P)
        assert abs(offset - 0.5 * math.log2(2.0 / (math.pi * math.e))) <= 0.01

    def test_vanishing_snr(self):
        assert mckellips_1d(1e-12) == pytest.approx(0.0, abs=1e-9)

    def test_frozen_value(self):
        # mpmath: min(log2(1+sqrt(8/(pi e))), log2(5)/2)
        assert mckellips_1d(4.0) == pytest.approx(0.97664437342578337279,
                                                  rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            mckellips_1d(0.0)


class TestRefined1d:
    def test_validity_edge(self):
        a_star = amplitude_threshold(1)
        assert abs(a_star - 2.0662) <= 1e-3
        below = refined_1d((a_star - 1e-6) ** 2)
        above = refined_1d((a_star + 1e-6) ** 2)
        assert below.valid and not above.valid

    def test_beats_mckellips_at_moderate_snr(self):
        for snr_db in np.arange(0.0, 5.01, 0.5):
            P = 10.0 ** (snr_db / 10.0)
            assert refined_1d(P).rate_bits < mckellips_1d(P)

    def test_frozen_value_at_0db(self):
        # mpmath evaluation of beta log sqrt(2/(pi e)) + H_e(beta)
        assert refined_1d(1.0).rate_bits == pytest.approx(
            0.4987798673938812485, rel=1e-12)


def _d2_marcum_oracle(beta, x, A):
    """2-D divergence via Marcum Q_1 and a dedicated i0e quadrature."""
    g2, _ = integrate.quad(
        lambda z: 0.5 * (z - A) ** 2 * z * math.exp(-0.5 * (z - x) ** 2)
        * special.i0e(x * z), A, max(A, x) + 40.0,
        epsabs=1e-13, epsrel=1e-12, limit=200)
    first = math.log(A * A / (2.0 * math.e * beta))
    coeff = math.log(2.0 * (1.0 + math.sqrt(math.pi / 2.0) * A) * beta
                     / ((1.0 - beta) * A * A))
    return first + coeff * specfun.marcum_q1(x, A) + g2


class TestGeneralDivergence:
    def test_mckellips_type_beta_cancels_x_dependence(self):
        # with the shell-balancing beta, D_n(x) = bound - gtilde_n(x) <= bound
        for n, A in ((2, 1.5), (3, 2.0)):
            v = radial.vol_ball(n, A)
            k = radial.k_n_closed(n, A)
            beta = v / (v + (2.0 * math.pi * math.e) ** (0.5 * n) * k)
            bound = math.log(k + v / (2.0 * math.pi * math.e) ** (0.5 * n))
            rf = radial.RadialFunctions(n, A)
            for x in np.linspace(0.0, A, 7):
                val = d_n(n, beta, float(x), A, rf)
                gt = rf.g_tilde(float(x))
                assert val == pytest.approx(bound - gt, abs=1e-10)
                assert val <= bound

    def test_n2_matches_marcum_route(self):
        for beta in (0.2, 0.6):
            for x, A in ((0.0, 1.0), (0.7, 1.0), (2.0, 2.0)):
                assert d_n(2, beta, x, A) == pytest.approx(
                    _d2_marcum_oracle(beta, x, A), abs=1e-9)

    def test_n1_matches_dedicated_path(self):
        for beta in (0.1, 0.5, 0.9):
            for frac in (0.0, 0.4, 1.0):
                A, x = 2.2, 2.2 * frac
                assert d_n(1, beta, x, A) == pytest.approx(
                    d1(beta, x, A), abs=1e-8)

    def test_direct_divergence_grid(self):
        for n in (2, 4):
            for beta in (0.3, 0.7):
                for x in (0.0, 1.0, 2.0):
                    assert d_n(n, beta, x, 2.0) == pytest.approx(
                        divergence_direct_nd(n, beta, x, 2.0), abs=1e-6)


class TestMcKellipsNd:
    def test_n2_reduction(self):
        for P in (0.5, 2.0, 30.0):
            expect = min(math.log2(1.0 + math.sqrt(math.pi * P) + P / math.e),
                         math.log2(1.0 + P))
            assert mckellips_nd(2, P) == pytest.approx(expect, rel=1e-13)

    def test_n2_high_snr_penalty(self):
        P = 1e6
        assert mckellips_nd(2, P) - math.log2(P / math.e) <= 0.01

    def test_n1_equals_dedicated(self):
        for P in (0.1, 1.0, 10.0, 1e5):
            assert mckellips_nd(1, P) == pytest.approx(mckellips_1d(P),
                                                       rel=1e-13)


class TestRefinedNd:
    def test_thresholds(self):
        a2 = amplitude_threshold(2)
        assert abs(a2 - 2.36) <= 0.01
        p2_db = 10.0 * math.log10(a2 ** 2 / 2.0)
        assert abs(p2_db - 4.45) <= 0.02
        p4_db = 10.0 * math.log10(amplitude_threshold(4) ** 2 / 4.0)
        assert abs(p4_db - 7.92) <= 0.05

    @pytest.mark.parametrize("n", range(2, 9))
    def test_threshold_matches_quadrature_route(self, n):
        # the same threshold equation with 1 - Q_n from the radial
        # quadrature changes sign within 1e-9 of the closed-form root
        def gap(A):
            v = radial.vol_ball(n, A)
            shell = (2.0 * math.pi) ** (0.5 * n) * radial.k_n_closed(n, A)
            return 1.0 - radial.q_n(n, A, A) - v / (shell + v)

        a = amplitude_threshold(n)
        assert gap(a - 1e-9) > 0.0 > gap(a + 1e-9)

    def test_high_dimension_threshold(self):
        # 1 - Q_16 by quadrature cancels to rounding noise at small A,
        # which broke the bisection bracket
        assert amplitude_threshold(16) == pytest.approx(21.5422, abs=1e-4)
        pt = refined_nd(16, 1.0)
        assert pt.valid
        assert math.isfinite(pt.rate_bits) and pt.rate_bits > 0.0

    def test_validity_flag(self):
        a2 = amplitude_threshold(2)
        assert refined_nd(2, (a2 - 1e-3) ** 2 / 2.0).valid
        assert not refined_nd(2, (a2 + 1e-3) ** 2 / 2.0).valid

    def test_below_mckellips_at_2db(self):
        P = 10.0 ** 0.2
        pt = refined_nd(2, P)
        assert pt.valid
        assert pt.rate_bits < mckellips_nd(2, P)


class TestBetaStar:
    def test_large_amplitude_exponent_limit(self):
        rf = radial.RadialFunctions(2, 50.0)
        q0, g0 = rf.pair(0.0)
        qA, gA = rf.pair(50.0)
        c = (gA - g0) / (q0 - qA)
        assert abs(c - (-0.5)) <= 0.02

    def test_tends_to_mckellips_type_weight(self):
        diffs = []
        for A in (5.0, 20.0, 80.0):
            v = radial.vol_ball(2, A)
            k = radial.k_n_closed(2, A)
            b51 = v / (v + (2.0 * math.pi * math.e) * k)
            diffs.append(abs(beta_star(2, A) - b51))
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] < 0.03

    def test_in_unit_interval(self):
        assert 0.0 < beta_star(2, 1.0) < 1.0

    def test_equalizes_endpoint_divergences(self):
        for n, A in ((1, 1.5), (2, 2.0), (4, 3.0)):
            bs = beta_star(n, A)
            rf = radial.RadialFunctions(n, A)
            assert d_n(n, bs, 0.0, A, rf) == pytest.approx(
                d_n(n, bs, A, A, rf), abs=1e-9)


class TestMinmax:
    def test_conjectured_matches_verified(self):
        for A in (0.5, 1.0, 2.0, 4.0, 8.0):
            det = minmax_dual_detail(2, A)
            assert det.verified_nats == pytest.approx(det.conjectured_nats,
                                                      abs=1e-8)
            assert not det.conjecture_violated

    def test_below_other_dual_bounds_on_sweep(self):
        # both the McKellips-type closed form (peak branch) and the refined
        # bound are max_x D_n at a particular beta, so min_beta max_x can
        # never exceed them; the average-power branch is a separate bound
        # and wins at low SNR, which the envelope handles
        for snr_db in np.arange(-10.0, 20.1, 2.0):
            P = 10.0 ** (snr_db / 10.0)
            A = math.sqrt(2.0 * P)
            mm = minmax_dual(2, A, conjecture=True).rate_bits
            v = radial.vol_ball(2, A)
            k = radial.k_n_closed(2, A)
            peak_branch = math.log2(k + v / (2.0 * math.pi * math.e))
            assert mm <= peak_branch + 1e-9
            ref = refined_nd(2, P)
            if ref.valid:
                assert mm <= ref.rate_bits + 1e-9

    def test_fixed_shell_beta_max_is_mckellips_minus_min_gtilde(self):
        n, A = 2, 2.0
        v = radial.vol_ball(n, A)
        k = radial.k_n_closed(n, A)
        beta = v / (v + (2.0 * math.pi * math.e) ** (0.5 * n) * k)
        bound = math.log(k + v / (2.0 * math.pi * math.e) ** (0.5 * n))
        rf = radial.RadialFunctions(n, A)
        xs = np.linspace(0.0, A, 257)
        Q, G = rf.grid(xs)
        vals = [d_n(n, beta, float(x), A, rf) for x in xs]
        gt_min = float(np.min(0.5 * n * Q - G))
        assert max(vals) == pytest.approx(bound - gt_min, abs=1e-9)
        assert max(vals) <= bound

    def test_scalar_channel_closed_forms(self):
        det = minmax_dual_detail(1, 2.0)
        assert det.verified_nats == pytest.approx(det.conjectured_nats,
                                                  abs=1e-9)

    def test_verified_over_wide_domain(self):
        # the verified route reads only closed-form radial values, so it
        # answers where the conjectured route overflows or fails
        for n in (2, 3, 5, 8, 12, 16, 32):
            for snr_db in (-30.0, -10.0, 10.0, 30.0):
                P = 10.0 ** (snr_db / 10.0)
                A = math.sqrt(n * P)
                ver = minmax_dual(n, A, conjecture=False).rate_bits
                assert math.isfinite(ver), (n, snr_db)
                assert ver >= lower_bounds.volume_lower_bound(n, P) - 1e-9
                try:
                    conj = minmax_dual(n, A, conjecture=True).rate_bits
                except (OverflowError, ZeroDivisionError, ValueError,
                        radial.QuadratureError):
                    continue
                assert abs(ver - conj) * LN2 <= 1e-7, (n, snr_db)

    def test_verified_route_never_reads_beta_star(self, monkeypatch):
        def fail(*args, **kwargs):
            raise OverflowError("beta_star must not be called")

        monkeypatch.setattr(upper_bounds, "beta_star", fail)
        monkeypatch.setattr(upper_bounds, "_beta_star", fail)
        pt = minmax_dual(3, math.sqrt(3 * 10.0 ** -3), conjecture=False)
        assert pt.bound_id == "minmax_verified" and pt.rate_bits > 0.0
        with pytest.raises(OverflowError):
            minmax_dual(3, 2.0, conjecture=True)

    def test_bound_point_fields(self):
        pt = minmax_dual(2, 2.0, conjecture=True)
        assert pt.bound_id == "minmax_conjectured"
        assert pt.snr_db == pytest.approx(10 * math.log10(2.0), abs=1e-12)
        pt = minmax_dual(2, 2.0, conjecture=False)
        assert pt.bound_id == "minmax_verified"


class TestEnvelope:
    def test_achiever_low_snr(self):
        assert envelope(2, 10.0 ** -0.5).achiever == "avg_power"

    def test_achiever_moderate_snr(self):
        assert envelope(2, 10.0 ** 0.2).achiever == "refined"

    def test_achiever_high_snr(self):
        assert envelope(2, 10.0 ** 1.5).achiever in ("minmax_conjectured",
                                                     "mckellips")

    def test_envelope_is_minimum(self):
        P = 2.0
        env = envelope(2, P)
        assert env.rate_bits <= mckellips_nd(2, P) + 1e-12
        assert env.rate_bits <= math.log2(1 + P) + 1e-12

    def test_dominates_lower_bounds(self):
        for n, P in ((1, 0.5), (2, 2.0), (4, 5.0)):
            env = envelope(n, P).rate_bits
            assert lower_bounds.volume_lower_bound(n, P) <= env

    def test_verified_variant_keeps_minmax_candidate(self):
        P = 10.0 ** 1.5  # high SNR: minmax is the achiever
        conj = envelope(2, P, conjecture=True)
        ver = envelope(2, P, conjecture=False)
        assert ver.achiever == "minmax_verified"
        assert ver.rate_bits == pytest.approx(conj.rate_bits, abs=1e-7)

    def test_restricted_include(self):
        env = envelope(2, 2.0, include=("avg_power",))
        assert env.achiever == "avg_power"
        with pytest.raises(ValueError):
            envelope(2, 2.0, include=())
