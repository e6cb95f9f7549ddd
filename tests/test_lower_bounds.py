"""Lower-bound tests: constellation geometry, moments, and MI estimators."""

import math
import warnings

import numpy as np
import pytest
from scipy import special

from awgncap import cli, lower_bounds, oracles, upper_bounds
from awgncap.lower_bounds import (Constellation, a_n_constellation,
                                  analytical_lower_bound, constellation_mi,
                                  constellation_moments, delta_for_alpha, pam_lower_bound_1d,
                                  ring_constellation, volume_lower_bound)


class TestConstellationType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Constellation(points=np.zeros((2, 2)), probs=np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            Constellation(points=np.zeros((2, 2)), probs=np.array([1.2, -0.2]))
        with pytest.raises(ValueError):
            Constellation(points=np.zeros((0, 2)), probs=np.zeros(0))
        with pytest.raises(ValueError, match="at least one point"):
            Constellation.from_table("")
        with pytest.raises(ValueError):
            Constellation(points=np.zeros((2, 3)), probs=np.array([0.5, 0.5]))

    def test_one_d_points_reshaped(self):
        c = Constellation.equiprobable(np.array([-1.0, 1.0]))
        assert c.points.shape == (2, 1)
        assert c.dim == 1

    def test_table_is_locale_independent_decimal(self):
        text = ring_constellation(2.5).to_table()
        assert "," not in text
        first = text.splitlines()[0].split()
        assert len(first) == 3
        float(first[0]), float(first[1]), float(first[2])


class TestRingConstellation:
    def test_a4_counts(self):
        c = ring_constellation(4.0)
        radii = np.sqrt((c.points ** 2).sum(axis=1))
        # origin + 12 points at radius 4 + 6 points at radius 2
        assert c.size == 19
        assert int((radii < 1e-12).sum()) == 1
        assert int(np.isclose(radii, 4.0).sum()) == 12
        assert int(np.isclose(radii, 2.0).sum()) == 6

    def test_radii_within_amplitude(self):
        for A in (0.7, 2.3, 6.9, 11.4):
            c = ring_constellation(A)
            assert c.peak_radius() <= A + 1e-12

    def test_small_amplitude_keeps_outer_ring(self):
        # the construction is extended below A=2: the outer ring is always
        # emitted and the origin only joins once it is >= 2 away from it
        c = ring_constellation(1.0)
        radii = np.sqrt((c.points ** 2).sum(axis=1))
        assert c.size == 3
        assert np.all(np.isclose(radii, 1.0))

    @pytest.mark.parametrize("A", [1.0 / 3.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    def test_no_point_repeats_when_3rho_is_an_integer(self, A):
        pts = ring_constellation(A).points
        dist = np.sqrt(np.square(pts[:, None, :] - pts[None, :, :]).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        assert dist.min() > 1e-6

    def test_tiny_amplitude_two_points(self):
        c = ring_constellation(0.4)
        assert c.size == 2
        assert c.peak_radius() == pytest.approx(0.4, rel=1e-15)

    def test_origin_included_from_two(self):
        radii = np.sqrt((ring_constellation(2.0).points ** 2).sum(axis=1))
        assert int((radii < 1e-12).sum()) == 1

    def test_equiprobable(self):
        c = ring_constellation(3.7)
        np.testing.assert_allclose(c.probs, 1.0 / c.size)

    @pytest.mark.parametrize("snr_db", [40.0 + 1e-9, 45.0, 300.0])
    def test_above_40db_raises_before_building(self, snr_db, monkeypatch):
        # never build (or take the MI of) a ring far above 40 dB
        def no_ring(points):
            raise AssertionError("the ring was built")

        monkeypatch.setattr(Constellation, "equiprobable", no_ring)
        P = 10.0 ** (snr_db / 10.0)
        with pytest.raises(ValueError, match=r"up to A = 141\.421 \(40 dB\)"):
            ring_constellation(math.sqrt(2.0 * P))
        with pytest.raises(ValueError, match=r"up to A = 141\.421 \(40 dB\)"):
            cli.compute_bound("ring_lower", 2, P)

    def test_40db_itself_is_built(self):
        # A = sqrt(2e4) exactly, as compute_bound forms it at P = 1e4
        A = math.sqrt(2 * 10.0 ** (40.0 / 10.0))
        assert A == lower_bounds.RING_MAX_AMPLITUDE
        assert ring_constellation(A).size == 15261


class TestRingPacking:
    def test_n3_layout(self):
        c = a_n_constellation(3, 1.0)
        radii = np.sqrt((c.points ** 2).sum(axis=1))
        assert c.size == 9
        assert int((radii < 1e-12).sum()) == 1
        assert int(np.isclose(radii, 1.5).sum()) == 3
        assert int(np.isclose(radii, 2.5).sum()) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            a_n_constellation(1, 1.0)
        with pytest.raises(ValueError):
            a_n_constellation(3, 0.0)
        # one message from all three packing helpers (second argument Delta
        # or alpha), also for N = 1.5 and inf
        for N, arg in ((1, 0.5), (1.5, 1.0), (math.inf, 4.0)):
            for make in (a_n_constellation, constellation_moments,
                         delta_for_alpha):
                with pytest.raises(ValueError, match="N must be an integer"):
                    make(N, arg)


class TestMoments:
    def test_correlation_monte_carlo_n2(self):
        # E[X*(X+U)] with U filling the annular sectors around each point:
        # X*(X+U) | X = (n+0.5) D e^{j(l+0.5)t_n} is uniform over
        # {r e^{j t}: n(n+0.5) <= r/D^2 <= (n+1)(n+0.5), |t| <= t_n/2}
        N, delta = 2, 1.3
        rng = np.random.default_rng(42)
        samples = 10 ** 6
        m = constellation_moments(N, delta)
        # 4 points: the origin (X*U = 0) and 3 on ring n=1
        n = 1
        theta_n = 2.0 * math.pi / 3.0
        picks = rng.integers(0, 4, samples)
        on_ring = picks > 0
        count = int(on_ring.sum())
        # radius of X*(X+U)/Delta^2 uniform in area over the sector
        lo, hi = n * (n + 0.5), (n + 1) * (n + 0.5)
        r = np.sqrt(rng.uniform(lo * lo, hi * hi, count)) * delta ** 2
        t = rng.uniform(-0.5, 0.5, count) * theta_n
        vals = np.zeros(samples)
        vals[on_ring] = r * np.cos(t)
        exu = vals.mean() - m.P_N  # E[X*U] = E[X*(X+U)] - E[|X|^2]
        se = vals.std(ddof=1) / math.sqrt(samples)
        assert exu == pytest.approx(m.rho_N * m.P_N, abs=4 * se)

    def test_validation(self):
        with pytest.raises(ValueError):
            constellation_moments(1, 1.0)
        with pytest.raises(ValueError):
            constellation_moments(4, -1.0)


class TestAnalyticalBound:
    def test_moderate_n_gap_below_one_bit(self):
        res = analytical_lower_bound(8, 4.0)
        assert res.gap_bits < 1.0

    def test_snr_definition(self):
        res = analytical_lower_bound(8, 4.0)
        assert res.snr == pytest.approx(7.5 ** 2 * res.Delta ** 2 / 2.0,
                                        rel=1e-14)


class TestConstellationMi:
    def test_single_point_is_zero(self):
        c = Constellation.equiprobable(np.array([[0.0, 0.0]]))
        assert constellation_mi(c).bits == pytest.approx(0.0, abs=1e-12)

    def test_binary_limits(self):
        tiny = Constellation.equiprobable(np.array([[-1e-3], [1e-3]]))
        assert constellation_mi(tiny).bits == pytest.approx(0.0, abs=1e-5)
        wide = Constellation.equiprobable(np.array([[-6.0], [6.0]]))
        assert constellation_mi(wide).bits == pytest.approx(1.0, abs=1e-6)

    def test_bounded_by_log_cardinality(self):
        c = ring_constellation(4.0)
        mi = constellation_mi(c).bits
        assert 0.0 <= mi <= math.log2(c.size)

    def test_ring_mi_close_below_envelope_at_10db(self):
        P = 10.0
        A = math.sqrt(2.0 * P)
        mi = constellation_mi(ring_constellation(A)).bits
        env = upper_bounds.envelope(2, P).rate_bits
        assert mi <= env
        assert env - mi <= 0.15

    def test_mc_seed_determinism(self):
        c = ring_constellation(3.0)
        a = oracles.constellation_mi_mc(c, samples=50000, seed=9)
        b = oracles.constellation_mi_mc(c, samples=50000, seed=9)
        assert a.bits == b.bits


class TestMixtureKernel:
    def test_logsumexp_rows_matches_scipy(self):
        rng = np.random.default_rng(3)
        a = rng.normal(scale=30.0, size=(200, 37))
        expected = special.logsumexp(a, axis=1)
        np.testing.assert_allclose(oracles._logsumexp_rows(a.copy()),
                                   expected, rtol=1e-13)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_log_mixture_matches_weighted_logsumexp(self, dim, monkeypatch):
        # a small block size makes the kernel run over many blocks
        monkeypatch.setattr(oracles, "_BLOCK_ENTRIES", 50)
        rng = np.random.default_rng(4)
        pts = rng.uniform(-5.0, 5.0, size=(9, dim))
        probs = rng.dirichlet(np.ones(9))
        Y = rng.uniform(-15.0, 15.0, size=(500, dim))
        d2 = np.square(Y[:, None, :] - pts[None, :, :]).sum(axis=2)
        expected = (special.logsumexp(-0.5 * d2, b=probs, axis=1)
                    - 0.5 * dim * math.log(2.0 * math.pi))
        got = oracles._log_mixture(Y, pts, np.log(probs))
        np.testing.assert_allclose(got, expected, rtol=1e-13)

    @pytest.mark.parametrize("pts", [[[-1.0], [2.0], [9.0]],
                                     [[0.0, 0.0], [1.5, 0.5], [7.0, -7.0]]])
    def test_zero_weight_point_is_dropped(self, pts):
        pts = np.array(pts)
        with_zero = Constellation(points=pts, probs=np.array([0.5, 0.5, 0.0]))
        without = Constellation.equiprobable(pts[:2])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            a = constellation_mi(with_zero)
            oracles.constellation_mi_mc(with_zero, samples=1000)
        b = constellation_mi(without)
        assert a.bits == pytest.approx(b.bits, abs=1e-14)


def _entropy_lattice_log_domain(points, logw, step):
    """The log-domain lattice kernel the separable one replaced: the same
    nodes, log p_Y from a row-wise log-sum-exp, then -p log p."""
    if points.shape[1] == 1:
        k = np.arange(math.ceil((float(points.min()) - 10.0) / step),
                      math.floor((float(points.max()) + 10.0) / step) + 1)
        Y = (k * step)[:, None]
    else:
        R = float(np.sqrt(np.square(points).sum(axis=1)).max()) + 10.0
        k = math.floor(R / step)
        axis = np.arange(-k, k + 1) * step
        Y = np.stack(np.meshgrid(axis, axis, indexing="ij"),
                     axis=2).reshape(-1, 2)
        Y = Y[np.square(Y).sum(axis=1) <= R * R]
    lp = oracles._log_mixture(Y, points, logw)
    return float(-(np.exp(lp) * lp).sum()) * step ** points.shape[1]


def _kernel_cases():
    cases = {}
    for snr_db in range(-10, 26, 5):
        A = math.sqrt(2.0 * 10.0 ** (snr_db / 10.0))
        cases[f"ring_{snr_db}dB"] = ring_constellation(A)
    for N in (4, 8, 16):
        cases[f"packing_N{N}"] = a_n_constellation(N, delta_for_alpha(N, 4.0))
    for seed in range(5):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 40))
        cases[f"random_2d_s{seed}"] = Constellation(
            points=rng.uniform(-6.0, 6.0, size=(m, 2)),
            probs=rng.dirichlet(np.ones(m)))
    return cases


_KERNEL_CASES = _kernel_cases()


class TestSeparableKernel:
    """The separable linear-domain lattice kernel against the log-domain
    kernel it replaced, on the same nodes at both spacings of the rule."""

    @staticmethod
    def _assert_matches(c):
        points, w = lower_bounds._support(c)
        step = lower_bounds._lattice_step(points)
        for h in (step, lower_bounds._H_FINE * step):
            got = lower_bounds._entropy_lattice(points, w, h)
            ref = _entropy_lattice_log_domain(points, np.log(w), h)
            assert got == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("name", sorted(_KERNEL_CASES))
    def test_matches_log_domain_kernel(self, name):
        self._assert_matches(_KERNEL_CASES[name])

    def test_matches_log_domain_kernel_on_pam_scan_at_30db(self):
        A = math.sqrt(1000.0)
        for m in range(2, int(math.ceil(2.0 + 2.0 * A)) + 5):
            self._assert_matches(
                Constellation.equiprobable(np.linspace(-A, A, m)[:, None]))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("L", [10.0, 25.0, 40.0])
    def test_far_apart_pair_is_one_bit(self, L, dim):
        # between and beyond the points p_Y underflows to 0 on many nodes
        pts = np.array([[L, 0.0], [-L, 0.0]])[:, :dim]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mi = constellation_mi(Constellation.equiprobable(pts))
        assert mi.bits == pytest.approx(1.0, abs=1e-12)
        assert mi.err_bits <= 1e-12

    def test_ring_factors_hold_no_subnormal_at_30db(self, monkeypatch):
        # a product on subnormal numbers runs many times slower, so the
        # floored entries of both 2-D factors must be exact zeros
        factors = []
        kernel = lower_bounds._axis_kernel

        def recording(*args, **kw):
            factors.append(kernel(*args, **kw))
            return factors[-1]

        monkeypatch.setattr(lower_bounds, "_axis_kernel", recording)
        c = ring_constellation(math.sqrt(2.0 * 10.0 ** 3.0))
        constellation_mi(c, refine_check=False)
        assert len(factors) == 2
        for e in factors:    # e1 as the product read it, scaled by w / 2 pi
            assert not np.any((e != 0.0) & (np.abs(e) < np.finfo(float).tiny))
            assert np.any(e == 0.0)


class TestNegPLogP:
    def test_matches_scipy_entr(self):
        # the lattice sum of -p log p: zeros and normal p give scipy's
        # special.entr sum bit for bit; a subnormal p is off by < 1e-305
        rng = np.random.default_rng(3)
        p = np.exp(-rng.uniform(0.0, 700.0, 5000))
        p[::7] = 0.0
        assert lower_bounds._sum_neg_plogp(p) == float(special.entr(p).sum())
        p[::11] = 5e-310
        assert lower_bounds._sum_neg_plogp(p) == pytest.approx(
            float(special.entr(p).sum()), rel=0.0, abs=1e-300)
        assert lower_bounds._sum_neg_plogp(np.zeros(4)) == 0.0


class TestQuadratureRule:
    """The refinement check of the node rule on the constellations the
    sweeps and the packing checks use."""

    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 10.0, 20.0])
    def test_ring_error_estimate(self, snr_db):
        A = math.sqrt(2.0 * 10.0 ** (snr_db / 10.0))
        assert constellation_mi(ring_constellation(A)).err_bits <= 1e-12

    @pytest.mark.parametrize("N", [4, 8, 16])
    def test_packing_error_estimate(self, N):
        c = a_n_constellation(N, delta_for_alpha(N, 4.0))
        assert constellation_mi(c).err_bits <= 1e-12

    def test_pam_scan_error_estimate_at_30db(self):
        A = math.sqrt(1000.0)
        for m in range(2, int(math.ceil(2.0 + 2.0 * A)) + 5):
            c = Constellation.equiprobable(np.linspace(-A, A, m)[:, None])
            assert constellation_mi(c).err_bits <= 1e-12, m


# constellations whose neighbouring points are far apart, by name
_WIDE_GAP_SETS = {f"pair_1d_s{s}": [[-0.5 * s], [0.5 * s]]
                  for s in (3, 5, 7, 10, 16)}
for _g in (3.0, 7.5, 12.0):
    _WIDE_GAP_SETS.update({
        f"qpsk_g{_g}": [[0.5 * _g, 0.5 * _g], [-0.5 * _g, 0.5 * _g],
                        [-0.5 * _g, -0.5 * _g], [0.5 * _g, -0.5 * _g]],
        f"collinear_g{_g}": [[0.8 * k * _g, 0.6 * k * _g] for k in range(4)],
        f"two_clusters_g{_g}": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                                [_g + 1.0, 0.0], [_g + 2.0, 0.0],
                                [_g + 1.0, 1.0]],
    })
_WIDE_GAP_SETS["two_points_2d"] = [[0.0, 0.0], [6.0, 8.0]]


def _gabriel_reference(points):
    """The longest Gabriel edge by brute force: every pair (i, j) against
    every point k, blocked when (p_k - p_i).(p_k - p_j) < 0; each length is
    sqrt(dx^2 + dy^2), and 0 when no pair is free."""
    x, y = points[:, 0], points[:, 1]
    best = 0.0
    for i in range(x.size):
        # dot[j, k] for the pairs (i, j)
        dot = (x - x[i]) * (x - x[:, None]) + (y - y[i]) * (y - y[:, None])
        free = ~(dot < 0.0).any(axis=1)
        free[i] = False
        dx, dy = x[free] - x[i], y[free] - y[i]
        best = max(best, float(np.sqrt(dx * dx + dy * dy).max(initial=0.0)))
    return best


def _random_gap_set(seed):
    """A seeded set of 2 to 199 points of one of five kinds: a Gaussian
    cloud, an integer grid (duplicate and cocircular points), one circle,
    two far clusters, or points along one line."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 200))
    kind = seed % 5
    if kind == 0:
        return rng.uniform(0.1, 10.0) * rng.standard_normal((m, 2))
    if kind == 1:
        k = int(rng.integers(1, 12))
        return rng.integers(-k, k + 1, size=(m, 2)).astype(float)
    if kind == 2:
        t = rng.uniform(0.0, 2.0 * math.pi, m)
        return rng.uniform(0.5, 20.0) * np.column_stack([np.cos(t), np.sin(t)])
    if kind == 3:
        pts = rng.standard_normal((m, 2))
        pts[:m // 2] += rng.uniform(10.0, 100.0, size=2)
        return pts
    t = rng.uniform(-10.0, 10.0, m)
    return np.outer(t, rng.standard_normal(2)) + rng.standard_normal(2)


def _gap_sets():
    sets = {}
    for snr_db in range(-10, 21, 2):
        A = math.sqrt(2.0 * 10.0 ** (snr_db / 10.0))
        sets[f"ring_{snr_db}dB"] = lambda A=A: ring_constellation(A).points
    for N in (4, 8, 16):
        for alpha in (2.0, 4.0, 8.0):
            sets[f"packing_N{N}_a{alpha:g}"] = (
                lambda N=N, alpha=alpha:
                a_n_constellation(N, delta_for_alpha(N, alpha)).points)
    for seed in range(100):
        sets[f"random_s{seed}"] = lambda seed=seed: _random_gap_set(seed)
    return sets


_GAP_SETS = _gap_sets()


class TestLatticeRule:
    """The gap-adaptive lattice rule against the polar Gauss-Legendre rule
    it replaced, where neighbouring points are far apart, and its gap, the
    longest Gabriel edge, against an O(M^3) brute force: in blocks of
    several rows and, with the block size lowered, one row at a time."""

    @pytest.mark.parametrize("name", sorted(_WIDE_GAP_SETS))
    def test_wide_gaps_match_polar_oracle(self, name):
        c = Constellation.equiprobable(np.array(_WIDE_GAP_SETS[name]))
        mi = constellation_mi(c)
        assert mi.bits == pytest.approx(oracles.constellation_mi_polar(c),
                                        abs=1e-12)
        assert mi.err_bits <= 1e-12

    def test_spacing_follows_the_longest_gap(self):
        def step(pts):
            return lower_bounds._lattice_step(np.array(pts, dtype=float))

        def gap(pts):
            return lower_bounds._longest_gap(np.array(pts, dtype=float))

        assert step([[0.0]]) == 0.3
        assert step([[0.0], [1.0], [4.0]]) == pytest.approx(0.25)
        assert step([[0.0], [100.0]]) == 0.12
        # a square of side 2: the diagonal, 2 sqrt(2), is a Gabriel edge,
        # since the other two corners lie on its circle, not inside it
        assert step([[0, 0], [2, 0], [2, 2], [0, 2]]) == pytest.approx(
            0.75 / (2.0 * math.sqrt(2.0)))
        # collinear points and pairs are measured along their line
        assert step([[0, 0], [3, 4], [6, 8]]) == pytest.approx(0.15)
        assert step([[0, 0], [3, 4]]) == pytest.approx(0.15)
        # the apex lies inside the disc on the long side of an obtuse
        # triangle, so the gap is a short side (the Delaunay edge was 4)
        assert gap([[0, 0], [4, 0], [2, 0.5]]) == pytest.approx(
            math.sqrt(4.25), rel=1e-15)
        assert step([[0, 0], [4, 0], [2, 0.5]]) == 0.3
        # a line 1.5 apart, moved off itself by 1e-9, keeps its spacing
        # (the sliver triangles' longest Delaunay edge made h 0.12)
        line = np.column_stack([1.5 * np.arange(12), np.zeros(12)])
        jitter = 1e-9 * np.random.default_rng(0).standard_normal(12)
        jittered = line + np.column_stack([np.zeros(12), jitter])
        assert gap(jittered) == pytest.approx(1.5, rel=1e-12)
        assert step(jittered) == step(line) == 0.3
        # the 0 dB ring, five points on one circle of radius rho = sqrt(2)
        # at angles m theta, theta = 2 pi / (3 rho): the gap is the longest
        # neighbour chord, not the polygon diagonal (2.817) Delaunay gave
        rho = math.sqrt(2.0)
        ring0 = ring_constellation(rho).points
        assert ring0.shape == (5, 2)
        chord = 2.0 * rho * math.sin(math.pi / (3.0 * rho))
        assert gap(ring0) == pytest.approx(chord, rel=1e-14)
        assert gap(ring0) == pytest.approx(1.908, abs=5e-4)

    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 25.0])
    def test_duplicate_points_keep_the_gap(self, snr_db):
        A = math.sqrt(2.0 * 10.0 ** (snr_db / 10.0))
        pts = ring_constellation(A).points
        doubled = np.concatenate([pts, pts[::3], pts[:1]])
        assert lower_bounds._longest_gap(doubled) == \
            lower_bounds._longest_gap(pts)

    @pytest.mark.parametrize("name", sorted(_GAP_SETS))
    def test_matches_brute_force(self, name, monkeypatch):
        pts = _GAP_SETS[name]()
        ref = _gabriel_reference(pts)
        assert lower_bounds._longest_gap(pts) == pytest.approx(ref, rel=1e-15,
                                                               abs=0.0)
        monkeypatch.setattr(lower_bounds, "_GAP_PAIRS", 1)
        assert lower_bounds._longest_gap(pts) == pytest.approx(ref, rel=1e-15,
                                                               abs=0.0)


class TestPamLowerBound:
    def test_vanishing_snr(self):
        assert pam_lower_bound_1d(1e-10) == pytest.approx(0.0, abs=1e-6)

    def test_within_gap_of_envelope_at_10db(self):
        P = 10.0
        pam = pam_lower_bound_1d(P)
        env = upper_bounds.envelope(1, P).rate_bits
        assert pam <= env
        assert env - pam <= 0.1

    @pytest.mark.parametrize("P", [1e6 * (1.0 + 1e-12), 1e7, 1e30, 1e300])
    def test_above_60db_raises_before_allocating(self, P, monkeypatch):
        # never run a real scan far above 60 dB: it holds about 2A^2 points
        def no_grid(A):
            raise AssertionError(f"the scan allocated at A = {A}")

        monkeypatch.setattr(lower_bounds, "_pam_grid", no_grid)
        with pytest.raises(ValueError, match=r"up to A = 1000 \(60 dB\)"):
            pam_lower_bound_1d(P)
        with pytest.raises(ValueError, match=r"up to A = 1000 \(60 dB\)"):
            cli.compute_bound("pam_lower", 1, P)

    def test_60db_itself_is_scanned(self, monkeypatch):
        # A = 1000 exactly reaches the grid (stopped here, unallocated)
        def stop(A):
            raise LookupError(A)

        monkeypatch.setattr(lower_bounds, "_pam_grid", stop)
        with pytest.raises(LookupError) as info:
            pam_lower_bound_1d(1e6)
        assert info.value.args == (lower_bounds.PAM_MAX_AMPLITUDE,)

    @staticmethod
    def _record_kernels(monkeypatch, fake=False):
        shapes = []
        kernel = lower_bounds._axis_kernel

        def recording(axis, coords):
            shapes.append((len(axis), len(coords)))
            return np.zeros(shapes[-1]) if fake else kernel(axis, coords)

        monkeypatch.setattr(lower_bounds, "_axis_kernel", recording)
        return shapes

    def test_kernel_blocks_stay_within_the_cap_at_40db(self, monkeypatch):
        shapes = self._record_kernels(monkeypatch)
        pam_lower_bound_1d(1e4)
        assert len(shapes) > 1
        assert all(r * c <= lower_bounds._PAM_BLOCK for r, c in shapes)

    def test_largest_size_at_60db_is_split_over_its_nodes(self, monkeypatch):
        # A = 1000: the largest size, 2,006 points on 3,368 half-lattice
        # nodes, alone exceeds the cap.  The kernels are stubbed and the
        # rate set above log2 of every size, so the scan stops after that
        # size and no real 60 dB scan runs.
        shapes = self._record_kernels(monkeypatch, fake=True)
        monkeypatch.setattr(lower_bounds, "_mi_bits", lambda *a: 11.0)
        assert pam_lower_bound_1d(1e6, return_detail=True) == (11.0, 2006)
        assert {r for r, _ in shapes} == {2006}
        assert sum(c for _, c in shapes) == math.floor(1010.0 / 0.3) + 1
        assert all(r * c <= lower_bounds._PAM_BLOCK for r, c in shapes)

    def test_optimal_m_grows_with_snr(self):
        _, m_low = pam_lower_bound_1d(1.0, return_detail=True)
        _, m_high = pam_lower_bound_1d(100.0, return_detail=True)
        assert m_high > m_low >= 2


def _pam_scan_reference(P):
    """The ascending scan on the full lattice: one constellation_mi per M,
    where a strict > keeps the smallest M among equal rates.  Each rate is
    also capped by the average-power capacity at P, as the scan's clip caps
    it where the endpoints fl(sqrt(P)) exceed sqrt(P)."""
    A = math.sqrt(P)
    cap = upper_bounds.avg_power(1, P)
    best, best_m = 0.0, 1
    for m in range(2, int(math.ceil(2.0 + 2.0 * A)) + 5):
        c = Constellation.equiprobable(np.linspace(-A, A, m)[:, None])
        mi = min(constellation_mi(c, refine_check=False).bits, cap)
        if mi > best:
            best, best_m = mi, m
    return best, best_m


def _pam_scan_per_size(P):
    """The ascending scan on the half lattice: every size alone through the
    scan's own kernel, a strict > keeping the smallest M among equal rates."""
    A = math.sqrt(P)
    sizes, starts, pts = lower_bounds._pam_grid(A)
    gaps = np.maximum.reduceat(np.diff(pts), starts)
    best, best_m = 0.0, 1
    for i, m in enumerate(sizes.tolist()):
        [mi] = lower_bounds._pam_rates(P, A, pts, sizes[i:i + 1],
                                       starts[i:i + 1],
                                       lower_bounds._step_for_gap(gaps[i]))
        if mi > best:
            best, best_m = mi, m
    return best, best_m


# -10..30 dB in 2.5 dB steps and three extremes, then the rest of -40..45 dB
_PAM_PINNED_P = ([10.0 ** (0.25 * k) for k in range(-4, 13)]
                 + [1e-300, 1e-10, 1e4])
_PAM_WIDE_P = [10.0 ** (0.25 * k) for k in range(-16, 19)
               if not -4 <= k <= 12 and k != 16]


class TestPamScanBits:
    """The descending scan on the half lattice, in runs of one lattice step,
    against the full-lattice scan (to 1e-13 bits, the same M) and against
    its own kernel taken one size at a time (bit for bit)."""

    @pytest.mark.parametrize("P", _PAM_PINNED_P + _PAM_WIDE_P)
    def test_equals_ascending_constellation_mi_scan(self, P):
        rate, m = pam_lower_bound_1d(P, return_detail=True)
        ref_rate, ref_m = _pam_scan_reference(P)
        assert m == ref_m
        assert abs(rate - ref_rate) <= 1e-13

    @pytest.mark.parametrize("P", _PAM_PINNED_P)
    def test_equals_ascending_per_size_scan(self, P):
        assert pam_lower_bound_1d(P, return_detail=True) == \
            _pam_scan_per_size(P)

    @pytest.mark.parametrize("P", [1e-300, 0.1, 10.0, 1000.0])
    def test_block_size_moves_no_bit(self, P, monkeypatch):
        # one entry per block splits every run into single sizes and every
        # size into single nodes; 2^30 takes each run in one kernel
        got = []
        for block in (1, 2 ** 30):
            monkeypatch.setattr(lower_bounds, "_PAM_BLOCK", block)
            got.append(pam_lower_bound_1d(P, return_detail=True))
        assert got[0] == got[1]

    @pytest.mark.parametrize("P", [5e-324, 1e-300, 1e-10, 0.1, 1.0, 10.0,
                                   1000.0, 1e4])
    def test_points_are_linspace(self, P):
        A = math.sqrt(P)
        sizes, starts, pts = lower_bounds._pam_grid(A)
        assert sizes.tolist() == list(range(2, int(math.ceil(2 + 2 * A)) + 5))
        assert starts[-1] + sizes[-1] == pts.size
        for m, s in zip(sizes.tolist(), starts.tolist()):
            assert np.array_equal(pts[s:s + m], np.linspace(-A, A, m)), m

    @pytest.mark.parametrize("P", [1e-10, 0.1, 1.0, 10.0, 100.0, 1000.0])
    def test_skipped_sizes_cannot_win(self, P, monkeypatch):
        evaluated = []
        rates = lower_bounds._pam_rates

        def recording(P, A, pts, sizes, starts, step):
            evaluated.extend(sizes.tolist()[::-1])
            return rates(P, A, pts, sizes, starts, step)

        monkeypatch.setattr(lower_bounds, "_pam_rates", recording)
        rate, _ = pam_lower_bound_1d(P, return_detail=True)
        m_max = int(math.ceil(2.0 + 2.0 * math.sqrt(P))) + 4
        assert evaluated == list(range(m_max, m_max - len(evaluated), -1))
        skipped = range(2, m_max - len(evaluated) + 1)
        assert all(math.log2(m) < rate for m in skipped)
        if P >= 10.0:
            assert len(skipped) > 0

    def test_ties_go_to_the_smallest_size(self, monkeypatch):
        # every size gets the same rate: the ascending scan reports M = 2
        monkeypatch.setattr(lower_bounds, "_mi_bits", lambda *a: 0.5)
        assert pam_lower_bound_1d(10.0, return_detail=True) == (0.5, 2)

    def test_no_positive_rate_gives_one_point(self, monkeypatch):
        monkeypatch.setattr(lower_bounds, "_mi_bits", lambda *a: 0.0)
        assert pam_lower_bound_1d(10.0, return_detail=True) == (0.0, 1)


class TestRateClip:
    """Lower bounds stay below capacity where the true rate vanishes: the
    lattice value's absolute error of about 3e-16 bits is clipped away."""

    @pytest.mark.parametrize("snr_db", [-200.0, -150.0, -100.0, -40.0])
    def test_pam_below_average_power_capacity(self, snr_db):
        P = 10.0 ** (snr_db / 10.0)
        assert cli.compute_bound("pam_lower", 1, P).rate_bits \
            <= cli.compute_bound("avg_power", 1, P).rate_bits

    @pytest.mark.parametrize("snr_db", [-200.0, -150.0, -100.0, -40.0])
    def test_ring_below_average_power_capacity(self, snr_db):
        P = 10.0 ** (snr_db / 10.0)
        assert cli.compute_bound("ring_lower", 2, P).rate_bits \
            <= cli.compute_bound("avg_power", 2, P).rate_bits

    @pytest.mark.parametrize("pts", [[[0.0]], [[0.0, 0.0]], [[3.0, -4.0]]])
    def test_one_point_is_exactly_zero(self, pts):
        c = Constellation.equiprobable(np.array(pts))
        assert constellation_mi(c).bits == 0.0

    @pytest.mark.parametrize("A", [0.01, 0.2, 0.3, 0.33])
    def test_one_point_ring_is_exactly_zero(self, A):
        c = ring_constellation(A)
        assert c.size == 1
        assert constellation_mi(c, refine_check=False).bits == 0.0

    @pytest.mark.parametrize("snr_db", [-100.0, -60.0, -20.0])
    def test_ring_lower_is_exactly_zero_below_one_third(self, snr_db):
        # A = sqrt(2P) < 1/3 leaves the ring a single point
        P = 10.0 ** (snr_db / 10.0)
        assert cli.compute_bound("ring_lower", 2, P).rate_bits == 0.0

    def test_zero_weight_points_do_not_count(self):
        c = Constellation(points=np.array([[0.0], [5.0]]),
                          probs=np.array([1.0, 0.0]))
        assert constellation_mi(c).bits == 0.0


class TestVolumeLowerBound:
    def test_two_dim_closed_form(self):
        for P in (0.5, 3.0, 50.0):
            assert volume_lower_bound(2, P) == pytest.approx(
                math.log2(1.0 + P / math.e), rel=1e-13)

    def test_meets_mckellips_type_at_high_snr(self):
        P = 1e6  # 60 dB
        gap = upper_bounds.mckellips_nd(2, P) - volume_lower_bound(2, P)
        assert 0.0 <= gap <= 0.02

    def test_four_dim_positive_below_envelope(self):
        P = 10.0 ** 0.7
        v = volume_lower_bound(4, P)
        assert 0.0 < v < upper_bounds.envelope(4, P).rate_bits

    def test_domain(self):
        with pytest.raises(ValueError):
            volume_lower_bound(2, 0.0)
        with pytest.raises(ValueError):
            volume_lower_bound(0, 1.0)
