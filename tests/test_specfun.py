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

from awgncap import oracles, specfun


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

    def test_matches_scipy_erfc(self):
        # math.erfc is within about 1 ulp of erfc; scipy's (cephes) erfc is
        # off by up to 260 ulp (5.7e-14) in the tail, out to its underflow
        x = np.linspace(-38.0, 38.0, 20001)
        ref = 0.5 * special.erfc(x / math.sqrt(2.0))
        live = ref > 0.0
        np.testing.assert_allclose(specfun.q_func(x)[live], ref[live],
                                   rtol=1e-13, atol=0.0)
        assert specfun.q_func(x[~live]).max() < 1e-300

    def test_scalar_and_array_agree(self):
        x = np.linspace(-10.0, 10.0, 41)
        arr = specfun.q_func(x)
        assert isinstance(specfun.q_func(1.5), float)
        assert arr.shape == x.shape
        assert [specfun.q_func(float(v)) for v in x] == arr.tolist()


class TestMarcumQ1:
    def test_a_zero_rayleigh_tail(self):
        for b in (0.3, 1.0, 2.5):
            assert oracles.marcum_q1(0.0, b) == pytest.approx(
                math.exp(-0.5 * b * b), rel=1e-12)

    def test_interior_value(self):
        # mpmath quadrature of the defining integral
        val = oracles.marcum_q1(2.0, 2.0)
        assert 0.0 < val < 1.0
        assert val == pytest.approx(0.60350096061199334895, rel=1e-11)

    def test_against_noncentral_chi2(self):
        # Q_1(a, b) = P(chi2'_2(a^2) > b^2)
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.uniform(0, 6)
            b = rng.uniform(0, 6)
            ref = stats.ncx2.sf(b * b, 2, a * a) if a > 0 else math.exp(-b * b / 2)
            assert oracles.marcum_q1(a, b) == pytest.approx(ref, abs=2e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            oracles.marcum_q1(-1.0, 2.0)
        with pytest.raises(ValueError):
            oracles.marcum_q1(1.0, -2.0)


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

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            specfun.tilde_i_n(1, 1.0)
        with pytest.raises(ValueError):
            specfun.tilde_i_n(2, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_domain_error(self, bad):
        # NaN never converges in the series and inf makes the quadrature NaN
        with pytest.raises(ValueError, match="finite"):
            specfun.tilde_i_n_scaled(3, bad)
        with pytest.raises(ValueError, match="finite"):
            specfun.tilde_i_n_scaled(2, np.array([1.0, 40.0, bad]))
        with pytest.raises(ValueError, match="finite"):
            specfun.tilde_i_n(4, bad)

    def test_empty_input(self):
        assert specfun.tilde_i_n_scaled(3, np.empty(0)).shape == (0,)


# Both kernel routes written out with a fresh temporary per operation: the
# in-place kernel must round every step the same way, so each input below is
# compared under ==.  The series stops when the whole batch has converged, so
# a mixed array runs it on the series part alone, as the kernel does.
_REF_NODES, _REF_WEIGHTS = np.polynomial.legendre.leggauss(80)


def _reference_series(n, x):
    x2 = np.square(x)
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(500):
        term = term * x2 / ((n + 2.0 * k) * (2.0 * k + 2.0))
        total += term
        if np.all(term <= 1e-16 * total):
            break
    return specfun.tilde_i_zero(n) * total * np.exp(-x)


def _reference_quad(n, x):
    cn = 2.0 / (2.0 ** (0.5 * (n - 1)) * specfun.gamma_half((n - 1) / 2.0)
                * specfun.SQRT_2PI)
    sq = np.sqrt(x)
    half = 0.5 * np.minimum(math.pi * sq, 18.0)
    u = half[..., None] * (_REF_NODES + 1.0) / sq[..., None]
    integrand = np.exp(x[..., None] * (np.cos(u) - 1.0)) * np.sin(u) ** (n - 2)
    vals = (integrand * _REF_WEIGHTS).sum(axis=-1) * half
    return cn * vals / sq


def _reference_kernel(n, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    small = x <= 30.0
    if np.any(small):
        out[small] = _reference_series(n, x[small])
    if np.any(~small):
        out[~small] = _reference_quad(n, x[~small])
    return out


class TestAngularKernelBits:
    """tilde_i_n_scaled gives exactly the bits of the reference routes."""

    ARRAYS = {
        # series up to x = 30, quadrature above
        "straddle_cutoff": np.linspace(28.0, 32.0, 161),
        # tmax = min(pi sqrt(x), 18) stops clipping at x = (18/pi)^2
        "straddle_tmax": np.linspace(31.5, 34.5, 121),
        "series_only": np.linspace(0.0, 30.0, 241),
        "quadrature_only": np.geomspace(30.0 + 1e-9, 1e6, 200),
        "mixed": np.random.default_rng(11).uniform(0.0, 200.0, 500),
        # the quadrature part runs over several blocks of
        # _tilde_quad_scaled and ends in a partial one (test_block_edges)
        "straddle_blocks": np.linspace(20.0, 200.0, 2001),
    }

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("name", sorted(ARRAYS))
    def test_arrays(self, n, name):
        xs = self.ARRAYS[name]
        assert np.array_equal(specfun.tilde_i_n_scaled(n, xs),
                              _reference_kernel(n, xs))

    @pytest.mark.parametrize("n", [2, 3])
    def test_block_edges(self, n):
        quad = int((self.ARRAYS["straddle_blocks"]
                    > specfun.SERIES_CUTOFF).sum())
        # the block has half the rows once a sin(u) workspace joins, n > 2
        rows = specfun._QUAD_BLOCK_ENTRIES // (80 * (1 if n == 2 else 2))
        assert quad > 2 * rows and quad % rows

    @pytest.mark.parametrize("n", range(2, 9))
    def test_scalars(self, n):
        for x in (0.0, 1e-300, 0.5, 29.999, 30.0, 30.001,
                  (18.0 / math.pi) ** 2, 33.0, 1e4, 1e9):
            got = specfun.tilde_i_n_scaled(n, x)
            assert isinstance(got, float)
            assert got == _reference_kernel(n, x)[0], x


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


# y from 1e-6 to 1500 (A up to 55) and every shape n/2 + k, n in 1..64, up
# to 12 standard deviations past y
_CHAIN_YS = np.geomspace(1e-6, 1500.0, 49)


def _chain_shapes(y):
    return 64 + 2 * math.ceil(y + 12.0 * math.sqrt(y) + 20.0)


class TestHalfIntegerGammaChain:
    """The chain's regularized incomplete gamma functions at half-integer
    shapes.  Against mpmath at 30 digits the chain stays within
    8 eps max(1, |log value|): the relative error of a value that is itself
    represented by its log (measured: 4.5).  scipy's gammaincc and gammainc
    are less accurate (1.1e-12 and 4.6e-12 at y = 1500 against mpmath), so
    the dense comparisons with them allow 2e-12 relative."""

    @pytest.mark.parametrize("y", [1e-6, 0.3, 12.5, 99.0, 101.0, 800.0,
                                   1500.0])
    def test_against_mpmath(self, y):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        m_max = _chain_shapes(y)
        log_q = specfun.log_gamma_q_half(y, m_max)
        log_p = specfun.log_gamma_p_half(y, m_max)
        eps = np.finfo(float).eps
        for m in np.unique(np.linspace(1, m_max, 23).astype(int)):
            s = mpmath.mpf(int(m)) / 2
            for got, ref in ((log_q[m], mpmath.gammainc(s, y, mpmath.inf,
                                                         regularized=True)),
                             (log_p[m], mpmath.gammainc(s, 0, y,
                                                        regularized=True))):
                log_ref = float(mpmath.log(ref))
                err = float(abs(mpmath.exp(got) / ref - 1))
                assert err <= 8 * eps * max(1.0, abs(log_ref)), (y, m, err)

    def test_dense_against_scipy(self):
        for y in _CHAIN_YS:
            m_max = _chain_shapes(y)
            s = np.arange(1, m_max + 1) / 2.0
            for log_got, ref in (
                    (specfun.log_gamma_q_half(y, m_max), special.gammaincc(s, y)),
                    (specfun.log_gamma_p_half(y, m_max), special.gammainc(s, y))):
                got = np.exp(log_got[1:])
                live = ref > 1e-300
                rel = np.abs(got[live] / ref[live] - 1.0)
                assert rel.max() <= 2e-12, (y, rel.max())
                # below 1e-300 both are tiny; the chain keeps its log
                assert np.all(got[~live] <= 1.01e-300)

    def test_zero_argument_is_exact(self):
        q = specfun.log_gamma_q_half(0.0, 9)
        p = specfun.log_gamma_p_half(0.0, 9)
        assert np.all(q[1:] == 0.0) and np.all(p[1:] == -math.inf)

    def test_first_links(self):
        # Q(1/2, y) = erfc(sqrt(y)), Q(1, y) = e^-y, Q(3/2, y) = erfc(sqrt y)
        # + 2 sqrt(y/pi) e^-y
        for y in (1e-6, 0.5, 7.0, 90.0, 400.0):
            log_q = specfun.log_gamma_q_half(y, 3)
            ref = special.gammaincc([0.5, 1.0, 1.5], y)
            np.testing.assert_allclose(np.exp(log_q[1:]), ref, rtol=1e-13)

    def test_ncx2_cdf_matches_chndtr(self):
        # 1 - Q_n(A, A) at y = A^2/2, the Poisson-weighted complement
        for n in range(1, 65):
            for y in _CHAIN_YS[::4]:
                ref = special.chndtr(2.0 * y, n, 2.0 * y)
                got = specfun.ncx2_cdf_at_noncentrality(n, y)
                assert got == pytest.approx(ref, rel=2e-13, abs=1e-300)
        assert specfun.ncx2_cdf_at_noncentrality(3, 0.0) == 0.0

    def test_log_factorial(self):
        k = np.arange(0, 3000)
        np.testing.assert_allclose(specfun.log_factorial(k),
                                   special.gammaln(k + 1.0), rtol=1e-15,
                                   atol=1e-15)
