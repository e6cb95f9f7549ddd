"""Special-function tests against independent high-precision oracles.

Frozen constants were computed with mpmath at 40 digits; grid comparisons
run their oracles (scipy.special.ive, scipy.stats.ncx2, adaptive quadrature
of the defining integrals) inline.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from awgncap import specfun


class TestGaussPdf:
    def test_at_zero(self):
        assert specfun.gauss_pdf(0.0) == pytest.approx(0.39894228040143267794,
                                                       rel=1e-15)

    def test_at_one(self):
        # mpmath: exp(-1/2)/sqrt(2 pi)
        assert specfun.gauss_pdf(1.0) == pytest.approx(0.2419707245191433498,
                                                       rel=1e-15)

    def test_even_symmetry(self):
        assert specfun.gauss_pdf(-3.0) == specfun.gauss_pdf(3.0)

    def test_vectorized_positive(self):
        x = np.linspace(-20, 20, 101)
        assert np.all(specfun.gauss_pdf(x) > 0)


class TestQFunc:
    def test_half_at_zero(self):
        assert specfun.q_func(0.0) == 0.5

    def test_tail_value(self):
        # mpmath: erfc(5/sqrt 2)/2
        assert specfun.q_func(5.0) == pytest.approx(2.8665157187919391167e-07,
                                                    rel=1e-12)

    def test_complement(self):
        x = np.linspace(-8, 8, 33)
        np.testing.assert_allclose(specfun.q_func(x) + specfun.q_func(-x),
                                   1.0, atol=1e-15)

    @given(st.floats(min_value=1e-6, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_sandwich(self, x):
        psi = specfun.gauss_pdf(x)
        q = float(specfun.q_func(x))
        assert x / (1.0 + x * x) * psi < q < psi / x

    def test_monotone_decreasing(self):
        x = np.linspace(-6, 6, 200)
        assert np.all(np.diff(specfun.q_func(x)) < 0)


class TestBesselI0Scaled:
    def test_at_zero(self):
        assert specfun.bessel_i0_scaled(0.0) == 1.0

    def test_power_series_oracle(self):
        # e^{-1} sum_k (1/4)^k / (k!)^2
        acc = sum((0.25) ** k / math.factorial(k) ** 2 for k in range(30))
        assert specfun.bessel_i0_scaled(1.0) == pytest.approx(
            math.exp(-1) * acc, rel=1e-14)
        assert specfun.bessel_i0_scaled(1.0) == pytest.approx(
            0.4657596075936404365, rel=1e-14)

    def test_large_argument_asymptotic(self):
        # 1/sqrt(2 pi x) (1 + 1/(8x) + 9/(128 x^2))
        x = 700.0
        lead = 1.0 / math.sqrt(2 * math.pi * x)
        asym = lead * (1 + 1 / (8 * x) + 9 / (128 * x * x))
        val = specfun.bessel_i0_scaled(x)
        assert math.isfinite(val)
        assert val == pytest.approx(asym, rel=1e-7)

    def test_decreasing_in_x(self):
        x = np.linspace(0, 50, 200)
        assert np.all(np.diff(specfun.bessel_i0_scaled(x)) < 0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            specfun.bessel_i0_scaled(-0.5)


class TestMarcumQ1:
    def test_b_zero_gives_one(self):
        for a in (0.0, 0.5, 1.0, 5.0, 20.0):
            assert specfun.marcum_q1(a, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_a_zero_rayleigh_tail(self):
        for b in (0.3, 1.0, 2.5):
            assert specfun.marcum_q1(0.0, b) == pytest.approx(
                math.exp(-0.5 * b * b), rel=1e-12)

    def test_interior_value(self):
        # mpmath quadrature of the defining integral
        val = specfun.marcum_q1(2.0, 2.0)
        assert 0.0 < val < 1.0
        assert val == pytest.approx(0.60350096061199334895, rel=1e-11)

    def test_against_noncentral_chi2(self):
        # Q_1(a, b) = P(chi2'_2(a^2) > b^2)
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.uniform(0, 6)
            b = rng.uniform(0, 6)
            ref = stats.ncx2.sf(b * b, 2, a * a) if a > 0 else math.exp(-b * b / 2)
            assert specfun.marcum_q1(a, b) == pytest.approx(ref, abs=2e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            specfun.marcum_q1(-1.0, 2.0)
        with pytest.raises(ValueError):
            specfun.marcum_q1(1.0, -2.0)


class TestAngularKernel:
    def test_n2_reduces_to_i0(self):
        for x in (0.0, 1.0, 5.0):
            assert specfun.tilde_i_n(2, x) == pytest.approx(special.i0(x),
                                                            rel=1e-12)

    def test_n3_at_zero_normalization(self):
        # quadrature of the defining integral at x = 0
        cn = 2.0 / (2.0 ** 1.0 * specfun.gamma_half(1.0) * specfun.SQRT_2PI)
        ref, _ = integrate.quad(lambda p: math.sin(p), 0, math.pi)
        assert specfun.tilde_i_n(3, 0.0) == pytest.approx(cn * ref, rel=1e-13)
        assert specfun.tilde_i_n(3, 0.0) == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-14)

    def test_series_matches_direct_quadrature(self):
        def direct(n, x):
            cn = 2.0 / (2.0 ** (0.5 * (n - 1)) * specfun.gamma_half((n - 1) / 2)
                        * specfun.SQRT_2PI)
            val, _ = integrate.quad(
                lambda p: math.exp(x * math.cos(p)) * math.sin(p) ** (n - 2),
                0, math.pi, epsabs=1e-14, epsrel=1e-12, limit=200)
            return cn * val

        assert specfun.tilde_i_n(4, 2.0) == pytest.approx(direct(4, 2.0),
                                                          rel=1e-10)
        for n in range(2, 9):
            for x in (0.0, 0.7, 3.0, 11.0, 27.0):
                assert specfun.tilde_i_n(n, x) == pytest.approx(direct(n, x),
                                                                rel=1e-10)

    def test_scaled_matches_bessel_ratio_oracle(self):
        # tilde_I_n(x) = I_{(n-2)/2}(x) / x^{(n-2)/2}; scipy.ive is independent
        rng = np.random.default_rng(3)
        for n in range(2, 9):
            nu = 0.5 * (n - 2)
            for x in np.concatenate([rng.uniform(0.1, 30, 5),
                                     rng.uniform(30, 4000, 5)]):
                ref = special.ive(nu, x) / x ** nu
                assert specfun.tilde_i_n_scaled(n, float(x)) == pytest.approx(
                    ref, rel=1e-11)

    def test_scaled_matches_bessel_ratio_on_log_grid(self):
        # the same identity, x^{1-n/2} ive(n/2 - 1, x), over both routes
        # (series up to x = 30, quadrature above) on a dense grid
        xs = np.geomspace(1e-3, 3000.0, 400)
        for n in range(2, 7):
            ref = xs ** (1.0 - 0.5 * n) * special.ive(0.5 * n - 1.0, xs)
            mine = specfun.tilde_i_n_scaled(n, xs)
            assert np.max(np.abs(mine - ref) / ref) <= 1e-12, n

    def test_frozen_values(self):
        # mpmath: besseli((n-2)/2, x) / x^{(n-2)/2}
        assert specfun.tilde_i_n(3, 1.0) == pytest.approx(
            0.93767488824548764672, rel=1e-13)
        assert specfun.tilde_i_n(4, 2.0) == pytest.approx(
            0.79531842731866453169, rel=1e-13)
        assert specfun.tilde_i_n(6, 10.0) == pytest.approx(
            22.815189677260035406, rel=1e-12)

    def test_scaled_finite_at_1e4(self):
        for n in range(2, 9):
            v = specfun.tilde_i_n_scaled(n, 1e4)
            assert math.isfinite(v) and v > 0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            specfun.tilde_i_n(1, 1.0)
        with pytest.raises(ValueError):
            specfun.tilde_i_n(2, -1.0)

    def test_series_control_validation(self):
        with pytest.raises(ValueError):
            specfun.SeriesControl(max_terms=0)
        with pytest.raises(ValueError):
            specfun.SeriesControl(rel_tol=1.5)


class TestBinaryEntropy:
    def test_maximum(self):
        assert specfun.binary_entropy_nats(0.5) == pytest.approx(math.log(2),
                                                                 rel=1e-15)

    def test_degenerate(self):
        assert specfun.binary_entropy_nats(0.0) == 0.0
        assert specfun.binary_entropy_nats(1.0) == 0.0

    def test_value(self):
        # mpmath: -0.11 log 0.11 - 0.89 log 0.89
        assert specfun.binary_entropy_nats(0.11) == pytest.approx(
            0.34651533691866615209, rel=1e-14)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_range(self, p):
        h = specfun.binary_entropy_nats(p)
        assert 0.0 <= h <= math.log(2) + 1e-15
        assert h == pytest.approx(specfun.binary_entropy_nats(1.0 - p),
                                  abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            specfun.binary_entropy_nats(-0.01)
        with pytest.raises(ValueError):
            specfun.binary_entropy_nats(1.01)


class TestFactorials:
    def test_double_factorial_values(self):
        assert specfun.double_factorial(5) == 15.0
        assert specfun.double_factorial(6) == 48.0
        assert specfun.double_factorial(-1) == 1.0
        assert specfun.double_factorial(0) == 1.0
        assert specfun.double_factorial(1) == 1.0

    def test_double_factorial_near_overflow(self):
        exact = 1
        for j in range(251, 1, -2):
            exact *= j
        assert specfun.double_factorial(251) == pytest.approx(float(exact),
                                                              rel=1e-12)
        assert specfun.double_factorial(301) == math.inf
        # log-domain branch stays consistent with integer arithmetic
        ratio = specfun.double_factorial(302) / specfun.double_factorial(300)
        assert math.isinf(ratio) or ratio == pytest.approx(302.0, rel=1e-10)

    def test_double_factorial_domain(self):
        with pytest.raises(ValueError):
            specfun.double_factorial(-2)

    def test_gamma_half(self):
        assert specfun.gamma_half(0.5) == pytest.approx(math.sqrt(math.pi),
                                                        rel=1e-15)
        assert specfun.gamma_half(1.0) == 1.0
        assert specfun.gamma_half(2.5) == pytest.approx(1.5 * 0.5 *
                                                        math.sqrt(math.pi),
                                                        rel=1e-14)

    def test_gamma_half_domain(self):
        with pytest.raises(ValueError):
            specfun.gamma_half(0.3)
        with pytest.raises(ValueError):
            specfun.gamma_half(-0.5)
