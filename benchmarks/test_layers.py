"""Layer microbenchmarks: the angular kernel, the one-point radial pair, the
endpoint pairs of one channel, the closed-form radial grid, the refined
bound's threshold, the PAM scan, the 2-D gap search, the 2-D ring
constellation MI and its lattice sum.

    PYTHONPATH=src python -m pytest benchmarks                      # timed
    PYTHONPATH=src python -m pytest benchmarks --benchmark-disable  # once each

Needs pytest-benchmark.  The tier-1 run collects only tests/, so these are
never timed there.  At the repository root, BENCH_kernel.json holds medians
of the kernel and radial benchmarks before and after the in-place angular
kernel, BENCH_panel.json those of the kernel and the two endpoint pairs
before and after the blocked angular quadrature, BENCH_pam.json those of
the PAM scan and ring MI before and after the one-pass PAM scan (under
"half_lattice", those of the PAM scan before and after its half-lattice
runs), BENCH_gap.json those of the gap search and ring MI before and after
the Gabriel gap replaced the Delaunay one, and BENCH_scipyfree.json those
of the closed-form radial grid and the threshold before and after the
half-integer gamma chain replaced scipy.special, BENCH_lattice.json
those of the ring lattice before and after its 2-D factors held exact
zeros in place of subnormal numbers, and BENCH_endpoint.json those of the
two endpoint pairs before and after they came from the closed form between
A*_n and its cap, and BENCH_ncx2.json those of the verified min-max query,
the closed-form grid, its refinement and the endpoint pairs before and
after the closed form's sums took one exponential per entry.
BENCH_hull.json holds in-process, interleaved timings of the verified
route's search over beta reading all 513 grid points and reading only the
grid's upper-hull vertices.  BENCH_joint.json holds in-process, interleaved
timings of the two one-point closed-form calls the endpoint pairs of one
channel took before against the one two-point call they take now.
BENCH_onecall.json holds the verified route's query timed by ab.py (in
process, interleaved, against a base tree) when its grid call and its
refinement became one call on the grid and both end cells.
"""

from __future__ import annotations

import numpy as np
import pytest

from awgncap import cli, lower_bounds, radial, specfun, upper_bounds

# 1,120 arguments per route: what the panel rule's second pass at x = A hands
# the kernel (the 3,200 nodes on [A, A + 40] with |z - A| < 14); at 25 dB
# and n = 2 all of them have z A in (30, 1000]
SERIES_BLOCK = np.linspace(0.0, specfun.SERIES_CUTOFF, 1120)
QUADRATURE_BLOCK = np.linspace(30.5, 1000.0, 1120)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kernel_series_block(benchmark, n):
    out = benchmark(specfun.tilde_i_n_scaled, n, SERIES_BLOCK)
    assert out.shape == SERIES_BLOCK.shape and np.all(out > 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kernel_quadrature_block(benchmark, n):
    out = benchmark(specfun.tilde_i_n_scaled, n, QUADRATURE_BLOCK)
    assert out.shape == QUADRATURE_BLOCK.shape and np.all(out > 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kernel_scalar(benchmark, n):
    out = benchmark(specfun.tilde_i_n_scaled, n, 5.0)
    assert isinstance(out, float) and out > 0


@pytest.mark.parametrize("snr_db", [5.0, 15.0, 25.0])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_radial_pair_grid_endpoint(benchmark, n, snr_db):
    # Q_n(A, A) and g_n(A, A), the endpoint pair of the refined, beta* and
    # conjectured min-max bounds (not memoized at this level)
    A = radial.ChannelConfig.from_snr_db(n, snr_db).A
    Q, G = benchmark(radial.radial_pair_grid, n, [A], A)
    assert 0.0 < Q[0] < 1.0 and G[0] > 0.0


@pytest.mark.parametrize("snr_db", [5.0, 15.0, 25.0])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_radial_pair_grid_origin(benchmark, n, snr_db):
    # Q_n(0, A) and g_n(0, A), the other endpoint pair of beta* and the
    # conjectured min-max bound: every kernel argument is 0, and above
    # A = 14 no panel node is live
    A = radial.ChannelConfig.from_snr_db(n, snr_db).A
    Q, G = benchmark(radial.radial_pair_grid, n, [0.0], A)
    assert 0.0 <= Q[0] < 1.0 and G[0] >= 0.0


# the band centres of the verified min-max query stream
VERIFIED_SNR_DB = [-5.0, 5.0, 15.0, 25.0]


@pytest.mark.parametrize("snr_db", VERIFIED_SNR_DB)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_radial_pair_ncx2_grid(benchmark, n, snr_db):
    # the verified min-max route's 513-point closed-form grid on [0, A]
    A = radial.ChannelConfig.from_snr_db(n, snr_db).A
    Q, G = benchmark.pedantic(radial.radial_pair_ncx2,
                              (n, np.linspace(0.0, A, 513), A), rounds=50)
    assert np.all((Q >= 0.0) & (Q <= 1.0)) and np.all(G >= 0.0)


@pytest.mark.parametrize("snr_db", VERIFIED_SNR_DB)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_radial_pair_ncx2_grid_and_end_cells(benchmark, n, snr_db):
    # the route's one call: the grid, then its 17-point end cells at x = A
    # and at x = 0, each summed as a run of its own
    A = radial.ChannelConfig.from_snr_db(n, snr_db).A
    grid = np.linspace(0.0, A, 513)
    xs = np.concatenate((grid, np.linspace(grid[-2], A, 17),
                         np.linspace(0.0, grid[1], 17)))
    Q, G = benchmark.pedantic(radial.radial_pair_ncx2, (n, xs, A),
                              rounds=50)
    assert np.all((Q >= 0.0) & (Q <= 1.0)) and np.all(G >= 0.0)


@pytest.mark.parametrize("snr_db", VERIFIED_SNR_DB)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_minmax_verified_query(benchmark, n, snr_db):
    # one verified min-max query as the verified_nd stream asks it, with a
    # cold k_n memo: the closed-form grid and its end cells in one call
    # (timed alone above) and the search over beta (timed alone below)
    P = 10.0 ** (snr_db / 10.0)
    pt = benchmark.pedantic(cli.compute_bound, ("minmax_verified", n, P),
                            setup=radial._forget_endpoint_memos, rounds=30)
    assert pt.valid and pt.rate_bits > 0.0


@pytest.mark.parametrize("snr_db", VERIFIED_SNR_DB)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_minmax_verified_beta_search(benchmark, monkeypatch, n, snr_db):
    # the verified route without its sums: the golden-section search over
    # beta, the grid maximum at the chosen beta and the refinement's, on
    # radial values computed once beforehand
    A = radial.ChannelConfig.from_snr_db(n, snr_db).A
    real, memo = radial.radial_pair_ncx2, {}

    def precomputed(n_, xs, A_):
        key = np.asarray(xs, dtype=float).tobytes()
        if key not in memo:
            memo[key] = real(n_, xs, A_)
        return memo[key]

    monkeypatch.setattr(radial, "radial_pair_ncx2", precomputed)
    want = upper_bounds._minmax_verified(n, A)
    assert benchmark(upper_bounds._minmax_verified, n, A) == want


# 10..30 dB lie between A*_n and the closed form's cap for n = 2..5; 50 and
# 60 dB lie above it (A = 447..2,236)
ENDPOINT_CHANNELS = ([(n, s) for n in (2, 3, 4, 5) for s in (10.0, 20.0, 30.0)]
                     + [(n, s) for n in (2, 5) for s in (50.0, 60.0)])


@pytest.mark.parametrize("n, snr_db", ENDPOINT_CHANNELS)
def test_endpoint_pairs(benchmark, n, snr_db):
    # both endpoint pairs of one channel through RadialFunctions, from a
    # cleared memo, as a query stream meets them; the 50 and 60 dB cases
    # guard the cap, above which the closed form's chain of about A^2 terms
    # would take up to seconds
    A = radial.ChannelConfig.from_snr_db(n, snr_db).A

    def pairs():
        rf = radial.RadialFunctions(n, A)
        return rf.pair(0.0), rf.pair(A)

    (q0, g0), (qA, gA) = benchmark.pedantic(
        pairs, setup=radial._forget_endpoint_memos, rounds=30)
    assert 0.0 <= q0 < qA < 1.0 and g0 >= 0.0 and gA > 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_amplitude_threshold(benchmark, n):
    # the refined bound's threshold A*_n from cleared caches (its own and
    # k_n_closed's, which its bisection reads), as a fresh process computes
    # it at set-up
    def fresh():
        radial._forget_endpoint_memos()
        upper_bounds.amplitude_threshold.cache_clear()
        return upper_bounds.amplitude_threshold(n)

    assert 2.0 < benchmark(fresh) < 7.0


@pytest.mark.parametrize("snr_db", [-10.0, 0.0, 10.0, 20.0, 30.0, 40.0])
def test_pam_lower_bound_1d(benchmark, snr_db):
    # the criterion-1 PAM scan, one per point of the scalar sweep; 40 dB
    # (206 sizes, most sharing one lattice step) is beyond the sweep
    P = 10.0 ** (snr_db / 10.0)
    rate, m = benchmark(lower_bounds.pam_lower_bound_1d, P, True)
    assert 0.0 < rate <= 0.5 * np.log2(1.0 + P) and m >= 2


@pytest.mark.parametrize("snr_db", [10.0, 20.0, 30.0, 35.0])
def test_longest_gap(benchmark, snr_db):
    # the lattice step's gap search on a ring (1,585 points at 30 dB,
    # 4,876 at 35 dB)
    c = lower_bounds.ring_constellation(np.sqrt(2.0 * 10.0 ** (snr_db / 10.0)))
    gap = benchmark(lower_bounds._longest_gap, c.points)
    assert 1.0 < gap < 4.0


@pytest.mark.parametrize("snr_db", [10.0, 20.0, 30.0])
def test_ring_constellation_mi(benchmark, snr_db):
    # the 2-D sweep's ring_lower: one ring MI without its error estimate
    c = lower_bounds.ring_constellation(np.sqrt(2.0 * 10.0 ** (snr_db / 10.0)))
    mi = benchmark(lower_bounds.constellation_mi, c, refine_check=False)
    assert 0.0 < mi.bits <= np.log2(c.size)


@pytest.mark.parametrize("snr_db", [20.0, 30.0, 33.0])
def test_ring_lattice(benchmark, snr_db):
    # the ring MI's lattice sum alone, without the gap search: two per-axis
    # factors and their matrix product (1,585 points at 30 dB, 3,101 at
    # 33 dB), whose entries far from every point are exact zeros
    c = lower_bounds.ring_constellation(np.sqrt(2.0 * 10.0 ** (snr_db / 10.0)))
    points, w = lower_bounds._support(c)
    step = lower_bounds._lattice_step(points)
    h = benchmark(lower_bounds._entropy_lattice, points, w, step)
    assert h > 1.4
