"""Upper-bound tests: closed forms against direct divergence quadratures."""

import math

import numpy as np
import pytest
from scipy import integrate, optimize, special

from awgncap import cli, lower_bounds, oracles, radial, upper_bounds
from awgncap.oracles import d1, mckellips_1d
from awgncap.upper_bounds import (BoundPoint, ChannelConfig,
                                  amplitude_threshold, beta_star, d_n,
                                  envelope, mckellips_nd, minmax_dual,
                                  minmax_dual_detail, refined, refined_1d,
                                  refined_nd)
from awgncap.oracles import divergence_direct_1d

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
        for beta in (0.0, 1.0):
            with pytest.raises(ValueError, match="beta"):
                d_n(2, beta, 0.5, 1.0)

    def test_rejects_non_finite_amplitude_and_snr(self):
        for A in (math.inf, math.nan, -2.0):
            with pytest.raises(ValueError, match="amplitude"):
                ChannelConfig(n=2, A=A)
        for P in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="SNR"):
                ChannelConfig.from_snr(2, P)
        for n in (0, -1, 1.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="dimension"):
                ChannelConfig.from_snr(n, 1.0)
            with pytest.raises(ValueError, match="dimension"):
                ChannelConfig(n, 1.0)

    def test_snr_db_of_a_tiny_amplitude(self):
        # A^2 underflows to 0 here; the dB value does not
        cfg = ChannelConfig(n=2, A=1e-200)
        assert cfg.snr_db == pytest.approx(-4000.0 - 10 * math.log10(2.0),
                                           rel=1e-14)

    def test_one_class_for_every_module(self):
        assert ChannelConfig is radial.ChannelConfig
        assert ChannelConfig.from_snr(3, 2.0).A == math.sqrt(6.0)


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

    def test_domain(self):
        with pytest.raises(ValueError):
            d1(0.5, -0.1, 2.0)
        with pytest.raises(ValueError):
            d1(0.5, 2.5, 2.0)
        with pytest.raises(ValueError):
            d1(1.2, 1.0, 2.0)


class TestMcKellips1d:
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
    return first + coeff * oracles.marcum_q1(x, A) + g2


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
                val = d_n(n, beta, float(x), A)
                q, g = rf.pair(float(x))
                gt = 0.5 * n * q - g
                assert val == pytest.approx(bound - gt, abs=1e-10)
                assert val <= bound

    def test_n2_matches_marcum_route(self):
        for beta in (0.2, 0.6):
            for x, A in ((0.0, 1.0), (0.7, 1.0), (2.0, 2.0)):
                assert d_n(2, beta, x, A) == pytest.approx(
                    _d2_marcum_oracle(beta, x, A), abs=1e-9)


class TestMcKellipsNd:
    def test_n2_reduction(self):
        for P in (0.5, 2.0, 30.0):
            expect = min(math.log2(1.0 + math.sqrt(math.pi * P) + P / math.e),
                         math.log2(1.0 + P))
            assert mckellips_nd(2, P) == pytest.approx(expect, rel=1e-13)

    def test_n1_equals_dedicated(self):
        for P in (0.1, 1.0, 10.0, 1e5):
            assert mckellips_nd(1, P) == pytest.approx(mckellips_1d(P),
                                                       rel=1e-13)


class TestRefinedNd:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_threshold_matches_quadrature_route(self, n):
        # the same threshold equation with 1 - Q_n from the radial
        # quadrature changes sign within 1e-9 of the closed-form root
        def gap(A):
            v = radial.vol_ball(n, A)
            shell = (2.0 * math.pi) ** (0.5 * n) * radial.k_n_closed(n, A)
            return 1.0 - oracles.q_n(n, A, A) - v / (shell + v)

        a = amplitude_threshold(n)
        assert gap(a - 1e-9) > 0.0 > gap(a + 1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 16, 32])
    def test_threshold_matches_scipy_root_finders(self, n):
        # the in-house bisection takes scipy.optimize.bisect's steps; A*_1
        # was a brentq root
        def gap(A):
            return radial._threshold_gap(n, A)

        if n == 1:
            ref = optimize.brentq(gap, 0.5, 5.0, xtol=1e-12)
            assert abs(amplitude_threshold(1) - ref) <= 1e-11
        else:
            assert amplitude_threshold(n) == optimize.bisect(gap, 1e-3, 50.0,
                                                             xtol=1e-9)

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

    @pytest.mark.parametrize("n, snr_db, exc", [
        (5, -20.0, OverflowError),       # e^{-c_n} overflows
        (12, -30.0, ZeroDivisionError),  # the endpoint tails coincide
        (32, -30.0, ValueError),         # beta* rounds to 1.0
    ])
    def test_failure_keeps_its_type_and_names_the_channel(self, n, snr_db,
                                                          exc):
        A = ChannelConfig.from_snr_db(n, snr_db).A
        with pytest.raises(exc) as info:
            beta_star(n, A)
        assert type(info.value) is exc
        assert f"n={n}, A={A!r} ({snr_db:g} dB)" in str(info.value)


def _full_grid_minmax_verified(n, A):
    """upper_bounds._minmax_verified with the golden-section search reading
    all 513 grid points at each beta, kept as the reference for its
    upper-hull search.  Returns (value, beta, interior excess).
    """
    xs = np.linspace(0.0, A, upper_bounds._X_GRID_POINTS)
    Q, G = radial.radial_pair_ncx2(n, xs, A)
    terms = upper_bounds._dn_terms(n, A)

    def grid_max(beta):
        first, coeff = terms(beta)
        return float(np.max(first + coeff * Q + G))

    beta, _ = upper_bounds._golden_min(grid_max, 1e-6, 1.0 - 1e-6, tol=1e-8)
    first, coeff = terms(beta)
    vals = first + coeff * Q + G
    i = int(np.argmax(vals))
    lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    q, g = radial.radial_pair_ncx2(
        n, np.linspace(lo, hi, upper_bounds._REFINE_POINTS), A)
    val = max(float(vals[i]), float(np.max(first + coeff * q + g)))
    return val, beta, float(val - max(vals[0], vals[-1]))


class TestUpperHull:
    def test_convex_points_keep_only_the_ends(self):
        Q = np.linspace(0.0, 1.0, 33)
        assert upper_bounds._upper_hull(Q, Q ** 2) == [0, 32]

    def test_concave_points_are_all_vertices(self):
        Q = np.linspace(0.0, 1.0, 33)
        assert upper_bounds._upper_hull(Q, np.sqrt(Q)) == list(range(33))

    def test_collinear_points_keep_only_the_ends(self):
        Q = np.arange(17.0)
        assert upper_bounds._upper_hull(Q, 3.0 * Q - 2.0) == [0, 16]

    def test_coincident_points_at_zero(self):
        # as on the n = 5, 25 dB grids: Q_0 = Q_1 = G_0 = G_1 = 0
        Q = np.array([0.0, 0.0, 0.0, 0.25, 0.5, 1.0])
        G = np.array([0.0, 0.0, 0.0, 0.05, 0.2, 0.5])
        assert upper_bounds._upper_hull(Q, G) == [0, 5]
        G[3] = 0.3
        assert upper_bounds._upper_hull(Q, G) == [0, 3, 5]

    def test_vertex_maxima_are_point_maxima(self):
        # small integer point sets with ties and coincident points: any
        # c Q + G has the same maximum over the vertices as over the points,
        # and each inner vertex lies strictly above its neighbours' chord
        rng = np.random.default_rng(3)
        for _ in range(50):
            Q = np.sort(rng.integers(0, 6, 12).astype(float))
            G = rng.integers(0, 6, 12).astype(float)
            hull = upper_bounds._upper_hull(Q, G)
            for c in np.linspace(-8.0, 8.0, 161):
                assert np.max(c * Q + G) == np.max(c * Q[hull] + G[hull])
            for a, v, b in zip(hull, hull[1:], hull[2:]):
                assert ((Q[b] - Q[a]) * (G[v] - G[a])
                        > (G[b] - G[a]) * (Q[v] - Q[a])), (Q, G, hull)


class TestMinmaxHullSearch:
    @pytest.mark.parametrize("n", (2, 3, 4, 5, 8, 16))
    def test_matches_full_grid_search(self, n):
        # the hull only steers the search; its values at the vertices carry
        # the grid's own bits, so beta, value and excess are the same floats
        for snr_db in np.arange(-10.0, 40.1, 5.0):
            A = ChannelConfig.from_snr_db(n, float(snr_db)).A
            assert (upper_bounds._minmax_verified(n, A)
                    == _full_grid_minmax_verified(n, A)), (n, snr_db)

    @pytest.mark.parametrize("n, snr_db", ((2, 10.0), (4, 20.0)))
    def test_planted_bump_on_grid_points_is_a_vertex(self, n, snr_db,
                                                     monkeypatch):
        # a bump in g_n a few grid steps wide, centred on a grid point: it
        # rises above the endpoints' chord, so it must become a hull vertex
        # and move the search's beta and value as it moves the full-grid
        # search's
        A = ChannelConfig.from_snr_db(n, snr_db).A
        xs = np.linspace(0.0, A, 513)
        centre, width = xs[300], 4.0 * xs[1]
        real = radial.radial_pair_ncx2

        def bumped(n_, x, A_):
            q, g = real(n_, x, A_)
            x = np.asarray(x, dtype=float)
            return q, g + 0.05 * np.exp(-0.5 * ((x - centre) / width) ** 2)

        before = upper_bounds._minmax_verified(n, A)
        monkeypatch.setattr(radial, "radial_pair_ncx2", bumped)
        assert 300 in upper_bounds._upper_hull(*bumped(n, xs, A))
        after = upper_bounds._minmax_verified(n, A)
        assert after == _full_grid_minmax_verified(n, A)
        assert after[1] != before[1] and after[0] > before[0]


class TestMinmax:
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
        xs = np.linspace(0.0, A, 257)
        Q, G = radial.radial_pair_ncx2(n, xs, A)
        vals = [d_n(n, beta, float(x), A) for x in xs]
        gt_min = float(np.min(0.5 * n * Q - G))
        assert max(vals) == pytest.approx(bound - gt_min, abs=1e-9)
        assert max(vals) <= bound

    def test_scalar_channel_closed_forms(self):
        det = minmax_dual_detail(1, 2.0)
        assert det.verified_nats == pytest.approx(det.conjectured_nats,
                                                  abs=1e-9)

    def test_detail_fields_are_python_floats(self):
        det = minmax_dual_detail(3, 2.0)
        for name in ("A", "conjectured_nats", "verified_nats",
                     "beta_conjectured", "beta_verified", "interior_excess"):
            assert type(getattr(det, name)) is float, name
        assert "np.float64" not in repr(det)

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
        pt = minmax_dual(3, math.sqrt(3 * 10.0 ** -3), conjecture=False)
        assert pt.bound_id == "minmax_verified" and pt.rate_bits > 0.0
        with pytest.raises(OverflowError):
            minmax_dual(3, 2.0, conjecture=True)

    @pytest.mark.parametrize("n", (2, 3, 5))
    @pytest.mark.parametrize("snr_db", (10.0, 30.0))
    def test_verified_reads_grid_once_and_refines_once(self, n, snr_db,
                                                       monkeypatch):
        # the beta search reads only the 513-point grid; the refinement at
        # the chosen beta reads the end cell at the argmax, 17 points that
        # the grid's call summed with the other end cell's 17
        sizes = []
        real = radial.radial_pair_ncx2

        def counting(n_, xs, A):
            sizes.append(np.size(xs))
            return real(n_, xs, A)

        monkeypatch.setattr(radial, "radial_pair_ncx2", counting)
        minmax_dual(n, math.sqrt(n * 10.0 ** (snr_db / 10.0)),
                    conjecture=False)
        assert sizes == [513 + 2 * 17]

    @pytest.mark.parametrize("n, snr_db", ((2, 10.0), (4, 20.0)))
    def test_interior_argmax_refines_in_a_call_of_its_own(self, n, snr_db,
                                                          monkeypatch):
        # the planted vertex at xs[300] of TestMinmaxHullSearch, 10 nats
        # high, moves the argmax inside (at 0.05 nats it ties x = A at the
        # chosen beta): one more 17-point call across its two cells
        A = ChannelConfig.from_snr_db(n, snr_db).A
        xs = np.linspace(0.0, A, 513)
        centre, width = xs[300], 4.0 * xs[1]
        real, calls = radial.radial_pair_ncx2, []

        def bumped(n_, x, A_):
            q, g = real(n_, x, A_)
            x = np.asarray(x, dtype=float)
            calls.append(x)
            return q, g + 10.0 * np.exp(-0.5 * ((x - centre) / width) ** 2)

        monkeypatch.setattr(radial, "radial_pair_ncx2", bumped)
        upper_bounds._minmax_verified(n, A)
        assert [x.size for x in calls] == [513 + 2 * 17, 17]
        assert xs[299] == calls[1][0] < centre < calls[1][-1] == xs[301]

    @pytest.mark.parametrize("n, snr_db", ((2, 10.0), (3, 30.0)))
    def test_refinement_finds_a_narrow_bump_the_grid_misses(self, n, snr_db,
                                                            monkeypatch):
        # a bump in g_n, 1/32 of a grid step wide, midway between the grid
        # argmax and its neighbour: the grid sees none of it, the
        # refinement must
        A = math.sqrt(n * 10.0 ** (snr_db / 10.0))
        _, beta, _ = upper_bounds._minmax_verified(n, A)
        xs = np.linspace(0.0, A, 513)
        real = radial.radial_pair_ncx2
        Q, G = real(n, xs, A)
        first, coeff = upper_bounds._dn_terms(n, A)(beta)
        vals = first + coeff * Q + G
        i = int(np.argmax(vals))
        step = xs[1]
        centre = xs[i] + (0.5 if i < 512 else -0.5) * step
        height, width = 1e-2, step / 32.0

        def bumped(n_, x, A_):
            q, g = real(n_, x, A_)
            x = np.asarray(x, dtype=float)
            return q, g + height * np.exp(-0.5 * ((x - centre) / width) ** 2)

        monkeypatch.setattr(radial, "radial_pair_ncx2", bumped)
        val, beta_b, _ = upper_bounds._minmax_verified(n, A)
        q, g = real(n, [centre], A)
        excess = first + coeff * q[0] + g[0] + height - vals[i]
        assert beta_b == beta
        assert val > vals[i]
        assert val - vals[i] >= 0.99 * excess

    def test_tiny_amplitude_reports_its_snr(self):
        # A^2 / n underflows to 0 below A = 2.2e-162: the dB value comes
        # from A, as in ChannelConfig.snr_db
        pt = minmax_dual(2, 1e-170, conjecture=False)
        assert pt.snr_db == pytest.approx(-3400.0 - 10.0 * math.log10(2.0),
                                          abs=1e-9)
        assert math.isfinite(pt.rate_bits) and pt.rate_bits >= 0.0

    def test_bound_point_fields(self):
        pt = minmax_dual(2, 2.0, conjecture=True)
        assert pt.bound_id == "minmax_conjectured"
        assert pt.snr_db == pytest.approx(10 * math.log10(2.0), abs=1e-12)
        pt = minmax_dual(2, 2.0, conjecture=False)
        assert pt.bound_id == "minmax_verified"


class TestRefinedDispatch:
    def test_scalar_bound_at_n1_general_form_above(self):
        for P in (0.5, 2.0, 10.0):
            assert refined(1, P) == refined_1d(P)
            assert refined(2, P) == refined_nd(2, P)
            assert refined(3, P) == refined_nd(3, P)


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

    @pytest.mark.parametrize("rates, refined_valid, achiever", [
        ((1.0, 1.0, 1.0, 1.0), True, "avg_power"),
        ((2.0, 1.0, 1.0, 1.0), True, "mckellips"),
        ((2.0, 2.0, 1.0, 1.0), True, "refined"),
        ((2.0, 2.0, 1.0, 1.0), False, "minmax_conjectured"),
        ((2.0, 2.0, 0.5, 1.0), False, "minmax_conjectured"),
    ])
    def test_ties_go_to_the_first_candidate(self, monkeypatch, rates,
                                            refined_valid, achiever):
        # of equal rates the first of avg_power, mckellips, refined and
        # min-max wins; an invalid refined point is no candidate
        avg, mck, ref, mm = rates
        monkeypatch.setattr(upper_bounds, "avg_power", lambda n, P: avg)
        monkeypatch.setattr(upper_bounds, "mckellips_nd", lambda n, P: mck)
        monkeypatch.setattr(upper_bounds, "refined", lambda n, P: BoundPoint(
            0.0, ref, "refined", refined_valid))
        monkeypatch.setattr(upper_bounds, "minmax_dual",
                            lambda n, A, conjecture=True: BoundPoint(
                                0.0, mm, "minmax_conjectured"))
        for n in (1, 2, 4):
            env = envelope(n, 2.0)
            assert (env.rate_bits, env.achiever) == (1.0, achiever)

    def test_verified_variant_keeps_minmax_candidate(self):
        P = 10.0 ** 1.5  # high SNR: minmax is the achiever
        conj = envelope(2, P, conjecture=True)
        ver = envelope(2, P, conjecture=False)
        assert ver.achiever == "minmax_verified"
        assert ver.rate_bits == pytest.approx(conj.rate_bits, abs=1e-7)


_ENDPOINT_IDS = ("envelope", "refined", "minmax_conjectured")


class TestEndpointPairs:
    """The endpoint bounds read Q_n, g_n at x = 0 and x = A only."""

    @staticmethod
    def _count_calls(monkeypatch, fn):
        """fn()'s result and the calls it made to both radial pair
        functions, as (name, x values) in call order."""
        calls = []
        with monkeypatch.context() as m:
            for name in ("radial_pair_grid", "radial_pair_ncx2"):
                def counting(n_, x, A, *args, _name=name,
                             _real=getattr(radial, name), **kwargs):
                    calls.append((_name, np.atleast_1d(x).tolist()))
                    return _real(n_, x, A, *args, **kwargs)

                m.setattr(radial, name, counting)
            return fn(), calls

    def test_three_bounds_share_two_radial_evaluations(self, monkeypatch):
        # one channel per route: below A*_3 = 3.65 (panel rule, one call
        # per endpoint), between A*_3 and the closed form's cap
        # (radial_pair_ncx2, one call for both endpoints), above the cap at
        # A = 112 (panel rule)
        channels = [(3, 10.0 ** 0.2, "radial_pair_grid"),
                    (3, 10.0 ** 0.8, "radial_pair_ncx2"),
                    (2, 10.0 ** 3.8, "radial_pair_grid")]
        for n, P, route in channels:
            A = math.sqrt(n * P)
            cold = {}
            for b in _ENDPOINT_IDS:
                radial._forget_endpoint_memos()
                cold[b] = cli.compute_bound(b, n, P)
            radial._forget_endpoint_memos()
            warm, calls = self._count_calls(monkeypatch, lambda: {
                b: cli.compute_bound(b, n, P) for b in _ENDPOINT_IDS})
            if route == "radial_pair_ncx2":
                assert calls == [(route, [0.0, A])]
            else:
                assert sorted(calls) == [(route, [0.0]), (route, [A])]
            assert warm == cold

    @pytest.mark.parametrize("n, P, want", [
        (3, 10.0 ** 0.2, "radial_pair_grid"),   # below A*_3
        (3, 10.0 ** 0.8, "radial_pair_ncx2"),   # between A*_3 and the cap
        (2, 10.0 ** 3.8, "radial_pair_grid"),   # above the cap
    ])
    def test_refined_query_makes_one_radial_call(self, monkeypatch, n, P,
                                                 want):
        # a refined query reads x = A alone: the panel rule evaluates that
        # one point and no x = 0, the closed form both in its one call
        A = math.sqrt(n * P)
        radial._forget_endpoint_memos()
        _, calls = self._count_calls(
            monkeypatch, lambda: cli.compute_bound("refined", n, P))
        xs = [0.0, A] if want == "radial_pair_ncx2" else [A]
        assert calls == [(want, xs)]

    @pytest.mark.parametrize("bound_id", _ENDPOINT_IDS)
    def test_probability_outside_unit_interval_raises(self, bound_id):
        # at 200 dB the panel rule converges to Q_2(A, A) = 7.18
        with pytest.raises(radial.QuadratureError, match=r"\[0, 1\]"):
            cli.compute_bound(bound_id, 2, 1e20)


class TestEndpointRoute:
    """RadialFunctions.pair reads the panel rule where refined is an envelope
    candidate (A < A*_n) and above the closed form's cap, radial_pair_ncx2
    in between; refined_nd's valid flag reads the same test."""

    @staticmethod
    def _pair_bits(route, n, A):
        # the closed form serves both endpoints from one two-point call, the
        # panel rule each from a one-point call
        if route is radial.radial_pair_ncx2:
            Q, G = route(n, [0.0, A], A)
            return list(zip(Q.tolist(), G.tolist()))
        return [tuple(float(v[0]) for v in route(n, [x], A)) for x in (0.0, A)]

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_route_and_valid_flag_by_regime(self, n):
        a_star = amplitude_threshold(n)
        cap = radial.ENDPOINT_NCX2_MAX_AMPLITUDE
        for A, closed in ((a_star * (1.0 - 1e-9), False),
                          (a_star * (1.0 + 1e-9), True),
                          (0.5 * (a_star + cap), True),
                          (cap * (1.0 - 1e-9), True),
                          (cap * (1.0 + 1e-9), False)):
            # the A that refined_nd recomputes from P, so both read one A
            P = A * A / n
            A = ChannelConfig.from_snr(n, P).A
            route = (radial.radial_pair_ncx2 if closed
                     else radial.radial_pair_grid)
            radial._forget_endpoint_memos()
            rf = radial.RadialFunctions(n, A)
            assert [rf.pair(0.0), rf.pair(A)] == self._pair_bits(route, n, A)
            valid = refined_nd(n, P).valid
            assert valid == (A < a_star)
            if A <= cap:
                assert valid != closed, (n, A)

    def test_panel_rule_where_no_threshold_is_found(self):
        # amplitude_threshold's bracket tops out at 50 and A*_36 = 49.36, so
        # n = 48 and 64 have no A*_n: refined raises, the pairs stay the
        # panel rule and minmax_conjectured keeps its values at 10 dB
        for n, bits in ((48, 82.773275208), (64, 110.664812672)):
            A = ChannelConfig.from_snr(n, 10.0).A
            with pytest.raises(RuntimeError, match="threshold bracket"):
                refined_nd(n, 10.0)
            radial._forget_endpoint_memos()
            rf = radial.RadialFunctions(n, A)
            assert [rf.pair(0.0), rf.pair(A)] == self._pair_bits(
                radial.radial_pair_grid, n, A)
            assert minmax_dual(n, A).rate_bits == pytest.approx(bits,
                                                                abs=1e-9)

    def test_candidates_stay_apart_where_pairs_are_closed_form(self):
        # above A*_n the envelope's candidates are avg_power, mckellips and
        # minmax_conjectured; their two lowest differ by at least 3.5e-3
        # relative (n = 2, 36.75 dB), so no achiever hangs on the closed
        # form's last bits
        cap = radial.ENDPOINT_NCX2_MAX_AMPLITUDE
        worst, count = math.inf, 0
        for n in range(2, 9):
            lo = math.floor(40.0 * math.log10(amplitude_threshold(n) ** 2 / n))
            hi = math.ceil(40.0 * math.log10(cap * cap / n))
            for k in range(lo, hi + 1):
                P = 10.0 ** (k / 40.0)
                A = ChannelConfig.from_snr(n, P).A
                if A < amplitude_threshold(n) or A > cap:
                    continue
                rates = sorted((upper_bounds.avg_power(n, P),
                                mckellips_nd(n, P),
                                minmax_dual(n, A).rate_bits))
                worst = min(worst, (rates[1] - rates[0]) / rates[0])
                count += 1
        assert count == 696
        assert worst > 1e-6

    def test_joint_call_agrees_with_one_point_calls(self):
        # where both endpoint pairs come from one two-point closed-form call,
        # its x = 0 values are the one-point call's bits and its x = A values
        # lie within 16 ulps of it (at most 10 in Q_n and 13 in g_n, at
        # n = 2, 36.25 dB): the x = A row sums over the joint window, which
        # starts at k = 0, so the dot product groups its terms differently.
        # On the same channels k_n_closed's memo gives the unmemoized bits,
        # per argument type
        cap = radial.ENDPOINT_NCX2_MAX_AMPLITUDE
        count = 0
        for n in range(2, 9):
            lo = math.floor(40.0 * math.log10(amplitude_threshold(n) ** 2 / n))
            hi = math.ceil(40.0 * math.log10(cap * cap / n))
            for k in range(lo, hi + 1):
                A = ChannelConfig.from_snr(n, 10.0 ** (k / 40.0)).A
                if A < amplitude_threshold(n) or A > cap:
                    continue
                joint = np.array(radial.radial_pair_ncx2(n, [0.0, A], A)).T
                origin = np.array(radial.radial_pair_ncx2(n, [0.0], A)).T[0]
                edge = np.array(radial.radial_pair_ncx2(n, [A], A)).T[0]
                assert joint[0].tolist() == origin.tolist(), (n, k)
                assert np.all(np.abs(joint[1] - edge)
                              <= 16.0 * np.spacing(edge)), (n, k)
                radial._forget_endpoint_memos()
                for arg in (A, np.float64(A), A, np.float64(A)):
                    got = radial.k_n_closed(n, arg)
                    want = radial.k_n_closed.__wrapped__(n, arg)
                    assert (type(got), got) == (type(want), want), (n, k)
                count += 1
        assert count == 696
