"""CLI tests: CSV sweeps, point queries, verification driver, exit codes."""

import concurrent.futures
import csv
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import awgncap
from awgncap import (cli, lower_bounds, oracles, radial, upper_bounds,
                     verify)
from awgncap.cli import available_bounds, compute_bound, main
from awgncap.lower_bounds import constellation_mi, ring_constellation


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSweep:
    def test_csv_shape_and_sorting(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--dim", "1", "--snr-db-min", "-2",
                   "--snr-db-max", "2", "--step", "1",
                   "--bounds", "mckellips,avg_power", "--out", str(out)])
        assert rc == 0
        rows = _read_csv(out)
        assert rows[0] == ["snr_db", "bound_id", "rate_bits", "valid",
                          "achiever"]
        body = rows[1:]
        assert len(body) == 5 * 2
        keys = [(float(r[0]), r[1]) for r in body]
        assert keys == sorted(keys)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--dim", "2", "--snr-db-min", "0",
                "--snr-db-max", "2", "--step", "1",
                "--bounds", "envelope,volume_lower"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_parallel_matches_serial(self, tmp_path):
        base = ["sweep", "--dim", "1", "--snr-db-min", "-4",
                "--snr-db-max", "4", "--step", "2",
                "--bounds", "refined,mckellips"]
        ser, par = tmp_path / "ser.csv", tmp_path / "par.csv"
        assert main(base + ["--out", str(ser)]) == 0
        assert main(base + ["--out", str(par), "--jobs", "2"]) == 0
        assert ser.read_bytes() == par.read_bytes()

    def test_jobs_capped_by_grid_and_cores(self, tmp_path, monkeypatch):
        # the pool starts all its workers at once: --jobs 100000 on a
        # three-point grid must not ask for 100000 processes
        made = []

        class RecordingPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # sweep imports the pool's module only when it starts a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        args = ["sweep", "--dim", "1", "--snr-db-min", "0", "--snr-db-max",
                "2", "--step", "1", "--bounds", "avg_power", "--jobs",
                "100000", "--out", str(tmp_path / "s.csv")]
        for cores, expected in ((8, [3]), (2, [2]), (1, []), (None, [])):
            made.clear()
            monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
            assert main(args) == 0
            assert made == expected, cores

    def test_refined_invalid_above_threshold(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["sweep", "--dim", "1", "--snr-db-min", "5",
                     "--snr-db-max", "8", "--step", "0.5",
                     "--bounds", "refined", "--out", str(out)]) == 0
        for row in _read_csv(out)[1:]:
            snr = float(row[0])
            assert (row[3] == "true") == (snr <= 6.303), row

    def test_degenerate_range_single_row_per_bound(self, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["sweep", "--dim", "2", "--snr-db-min", "3",
                     "--snr-db-max", "3", "--step", "1",
                     "--bounds", "avg_power,volume_lower",
                     "--out", str(out)]) == 0
        assert len(_read_csv(out)) == 3

    def test_per_dimension_halves_two_dim_rates(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sweep", "--dim", "2", "--snr-db-min", "3", "--snr-db-max",
                "3", "--step", "1", "--bounds", "avg_power"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b), "--per-dimension"]) == 0
        ra = float(_read_csv(a)[1][2])
        rb = float(_read_csv(b)[1][2])
        assert rb == pytest.approx(ra / 2.0, rel=1e-12)

    def test_unknown_bound_is_usage_error(self, tmp_path, capsys):
        rc = main(["sweep", "--dim", "2", "--snr-db-min", "0",
                   "--snr-db-max", "1", "--step", "1",
                   "--bounds", "nonsense", "--out",
                   str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "nonsense" in err and "avg_power" in err

    def test_unwritable_path_is_error(self):
        rc = main(["sweep", "--dim", "1", "--snr-db-min", "0",
                   "--snr-db-max", "0", "--step", "1",
                   "--bounds", "avg_power",
                   "--out", "/nonexistent-dir/x.csv"])
        assert rc == 2


class TestPoint:
    def test_snr_flag(self, capsys):
        assert main(["point", "--dim", "2", "--snr-db", "2",
                     "--bounds", "envelope"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "snr_db,bound_id,rate_bits,valid,achiever"
        assert "envelope" in out

    def test_amplitude_flag_matches_snr(self, capsys):
        assert main(["point", "--dim", "2", "--amplitude", "2",
                     "--bounds", "mckellips"]) == 0
        out_a = capsys.readouterr().out
        snr_db = 10 * math.log10(2.0)
        assert main(["point", "--dim", "2", "--snr-db", str(snr_db),
                     "--bounds", "mckellips"]) == 0
        out_b = capsys.readouterr().out
        assert out_a.splitlines()[1].split(",")[2] == \
            out_b.splitlines()[1].split(",")[2]

    @pytest.mark.parametrize("A", [3.0, 4.0])
    def test_amplitude_flag_evaluates_at_that_amplitude(self, A, capsys):
        # a round trip A -> dB -> P -> A lands on 2.9999999999999996 and
        # 3.9999999999999996, which drops the inner ring
        assert main(["point", "--dim", "2", "--amplitude", str(A),
                     "--bounds", "ring_lower"]) == 0
        rate = capsys.readouterr().out.splitlines()[1].split(",")[2]
        mi = constellation_mi(ring_constellation(A), refine_check=False)
        assert rate == format(mi.bits, ".12g")

    def test_ring_lower_below_its_limit_evaluates(self, capsys):
        # 20 dB is far inside the ring's 40 dB limit
        assert main(["point", "--dim", "2", "--snr-db", "20",
                     "--bounds", "ring_lower"]) == 0
        rate = capsys.readouterr().out.splitlines()[1].split(",")[2]
        mi = constellation_mi(ring_constellation(math.sqrt(200.0)),
                              refine_check=False)
        assert rate == format(mi.bits, ".12g")

    def test_missing_snr_is_usage_error(self):
        assert main(["point", "--dim", "2", "--bounds", "envelope"]) == 2

    def test_no_command_is_usage_error(self):
        assert main([]) == 2


_SWEEP = ["sweep", "--snr-db-min", "0", "--snr-db-max", "2", "--step", "1",
          "--bounds", "avg_power"]


class TestInvalidInput:
    """Bad arguments exit 2 with a message naming them, and write no CSV."""

    @pytest.mark.parametrize("argv, named", [
        ("point --dim 0 --snr-db 10 --bounds avg_power", "dimension"),
        ("point --dim -1 --snr-db 10 --bounds avg_power", "dimension"),
        ("point --dim -1 --amplitude 2 --bounds avg_power", "dimension"),
        ("point --dim 2 --amplitude 0 --bounds avg_power", "amplitude"),
        ("point --dim 2 --amplitude -2 --bounds avg_power", "amplitude"),
        ("point --dim 2 --amplitude inf --bounds avg_power", "amplitude"),
        ("point --dim 2 --amplitude 1e-200 --bounds avg_power", "amplitude"),
        ("point --dim 2 --snr-db inf --bounds envelope", "snr"),
        ("point --dim 2 --snr-db nan --bounds avg_power", "snr"),
        ("point --dim 2 --snr-db 4000 --bounds avg_power", "snr"),
        ("point --dim 1 --snr-db 10 --bounds ,", "bound id"),
        ("sweep --dim 0", "dimension"),
        ("sweep --dim -1", "dimension"),
        ("sweep --dim 2 --jobs 0", "jobs"),
        ("sweep --dim 1 --snr-db-min=-inf", "snr"),
        ("sweep --dim 1 --snr-db-max=inf", "snr"),
        ("sweep --dim 1 --snr-db-min=nan", "snr"),
    ])
    def test_exit_two_naming_the_argument(self, argv, named, tmp_path,
                                          capsys):
        out = tmp_path / "x.csv"
        argv = argv.split()
        if argv[0] == "sweep":
            argv = _SWEEP + argv[1:] + ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert named in captured.err.lower()
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        "point --dim 2 --snr-db 100 --bounds envelope",
        "sweep --dim 2 --snr-db-min 99 --snr-db-max 100 --step 1 "
        "--bounds envelope --jobs 2",
    ])
    def test_quadrature_failure_exits_two(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = argv.split()
        if argv[0] == "sweep":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: radial grid integration "
                                       "did not converge (estimate=")
        assert captured.err.count("estimate=") == 2  # not doubled by pickling
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        ("point --dim 5 --snr-db -20 --bounds envelope", "math range error"),
        ("point --dim 12 --snr-db -30 --bounds minmax_conjectured",
         "degenerate radial tails"),
        ("point --dim 64 --snr-db 0 --bounds refined",
         "threshold bracket failed for n=64"),
        ("sweep --dim 5 --snr-db-min -20 --snr-db-max -19 --step 1 "
         "--bounds envelope", "math range error"),
        # the PAM scan's limit, raised before it allocates 2A^2 points
        ("point --dim 1 --snr-db 300 --bounds pam_lower",
         "pam_lower is evaluated up to A = 1000 (60 dB), got A = 1e+15 "
         "(300 dB)"),
        ("sweep --dim 1 --snr-db-min 299 --snr-db-max 300 --step 1 "
         "--bounds pam_lower", "up to A = 1000 (60 dB)"),
        # the ring's limit, raised before it places a point
        ("point --dim 2 --snr-db 45 --bounds ring_lower",
         "ring_lower's ring is built up to A = 141.421 (40 dB), got "
         "A = 251.487 (45 dB)"),
        # the closed-form radial pair's limit, raised before its Gbar chain
        # of about A^2 terms is built
        ("point --dim 2 --snr-db 100 --bounds minmax_verified",
         "radial_pair_ncx2 (minmax_verified's route) is evaluated up to "
         "A = 2500, got A = 141421 (100 dB at n = 2)"),
    ])
    def test_numerical_failure_exits_two(self, argv, message, tmp_path,
                                         capsys):
        out = tmp_path / "x.csv"
        argv = argv.split()
        if argv[0] == "sweep":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1  # one line, no traceback
        assert message in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        ("point --dim 5 --snr-db -20 --bounds envelope",
         "at n=5, A=0.22360679774997896 (-20 dB): math range error"),
        ("point --dim 12 --snr-db -30 --bounds minmax_conjectured",
         "tails Q_n(0,A) == Q_n(A,A) at n=12, A=0.10954451150103323 (-30 dB)"),
        ("point --dim 32 --snr-db -30 --bounds minmax_conjectured",
         "beta* = 1.0 rounds out of (0, 1) at n=32, A=0.17888543819998318 "
         "(-30 dB)"),
    ])
    def test_beta_star_failure_names_the_channel(self, argv, message, capsys):
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.endswith(message + "\n")
        assert captured.out == ""

    def test_compute_bound_checks_the_channel_first(self):
        with pytest.raises(ValueError, match="dimension"):
            compute_bound("avg_power", 0, 10.0)
        with pytest.raises(ValueError, match="SNR"):
            compute_bound("envelope", 2, math.inf)


_REFERENCE = (pathlib.Path(__file__).resolve().parents[1]
              / "perfbench" / "reference")


class TestReferenceSweeps:
    """The README sweeps against the committed benchmark reference CSVs.

    Rates agree to 1e-9 bits; the valid flags and the envelope's achiever
    must be identical.  In 1-D above 18.5 dB mckellips and
    minmax_conjectured agree to 12 digits, so the achiever column pins the
    envelope's candidate order.
    """

    @pytest.mark.parametrize("name, n, lo, hi, lower", [
        ("sweep2d", 2, -10.0, 20.0, "ring_lower"),
        ("sweep1d", 1, -10.0, 30.0, "pam_lower"),
    ])
    def test_matches_reference(self, name, n, lo, hi, lower, tmp_path):
        out = tmp_path / f"{name}.csv"
        cli.run_sweep(n, lo, hi, 0.5,
                      ["envelope", "mckellips", "refined",
                       "minmax_conjectured", lower, "volume_lower"],
                      str(out))
        got = _read_csv(out)
        ref = _read_csv(_REFERENCE / f"{name}.csv")
        assert got[0] == ref[0]
        assert len(got) == len(ref)
        for g, r in zip(got[1:], ref[1:]):
            assert g[:2] == r[:2]
            assert float(g[2]) == pytest.approx(float(r[2]), abs=1e-9), r
            assert g[3:] == r[3:], r


class TestReferenceQueries:
    """Benchmark query streams against their committed reference answers:
    rates to 1e-9 bits, valid flags and achievers exact.  All 96 verified_nd
    answers; the first block of query_nd here, its closed-form regime below.

    verified_nd pins the minmax_verified route; query_nd pins the envelope
    achiever labels, which a rounding-level change can flip.
    """

    @pytest.mark.parametrize("name, block", [("verified_nd", 96),
                                             ("query_nd", 48)])
    def test_first_block_matches_reference(self, name, block):
        ref = json.loads((_REFERENCE / f"{name}_seed0.json").read_text())
        for (n, bound_id, snr_db), want in ref["answers"][:block]:
            pt = compute_bound(bound_id, n, 10.0 ** (snr_db / 10.0))
            where = (n, bound_id, snr_db)
            assert pt.rate_bits == pytest.approx(want["rate"], abs=1e-9), where
            assert (pt.valid, pt.achiever) == (want["valid"],
                                               want["achiever"]), where

    def test_closed_form_regime_matches_reference(self):
        # every seed-0 query_nd answer at A >= A*_n, where the endpoint pairs
        # come from radial_pair_ncx2 (the stream stays below 30 dB, under
        # the closed form's cap)
        ref = json.loads((_REFERENCE / "query_nd_seed0.json").read_text())
        checked = 0
        for (n, bound_id, snr_db), want in ref["answers"]:
            P = 10.0 ** (snr_db / 10.0)
            if radial._refined_provable(
                    n, radial.ChannelConfig.from_snr(n, P).A):
                continue
            pt = compute_bound(bound_id, n, P)
            where = (n, bound_id, snr_db)
            assert pt.rate_bits == pytest.approx(want["rate"], abs=1e-9), where
            assert (pt.valid, pt.achiever) == (want["valid"],
                                               want["achiever"]), where
            checked += 1
        assert checked == 1664


class TestListBounds:
    def test_listing(self, capsys):
        assert main(["--list-bounds"]) == 0
        out = capsys.readouterr().out
        for bound_id in cli.BOUNDS:
            assert bound_id in out

    def test_all_advertised_bounds_computable(self):
        for n in (1, 2, 4):
            for bound_id in available_bounds(n):
                if bound_id == "minmax_verified":
                    continue  # covered below at a cheaper point
                pt = compute_bound(bound_id, n, 10.0 ** 0.3)
                assert math.isfinite(pt.rate_bits)
                assert pt.rate_bits >= 0.0

    def test_minmax_verified_computable(self):
        for n in (1, 2, 4):
            pt = compute_bound("minmax_verified", n, 0.5)
            assert math.isfinite(pt.rate_bits)


class TestModuleEntryPoint:
    @staticmethod
    def _run(*args):
        src = os.path.dirname(os.path.dirname(awgncap.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_python_dash_m(self):
        assert "minmax_verified" in self._run("-m", "awgncap", "--list-bounds")

    def test_import_loads_no_quadrature(self):
        # the bounds need only numpy, a ring MI and a PAM scan included: no
        # part of scipy loads.  Quadrature, the independent references, the
        # property suites and the process pool of sweep --jobs (with
        # concurrent.futures and logging) load when a command asks for them
        out = self._run("-c", """if True:
            import sys, awgncap, awgncap.cli
            awgncap.constellation_mi(awgncap.ring_constellation(4.0))
            awgncap.pam_lower_bound_1d(3.0)
            for n in (1, 2, 3):
                for bound_id in awgncap.cli.available_bounds(n):
                    awgncap.cli.compute_bound(bound_id, n, 3.0)
            lazy = {'awgncap.oracles', 'awgncap.verify', 'multiprocessing',
                    'concurrent.futures', 'concurrent.futures.process',
                    'logging'}
            print(sorted(m for m in sys.modules if m in lazy
                         or m == 'scipy' or m.startswith('scipy.')))""")
        assert out.strip() == "[]"


class TestVerifyCommand:
    def test_specfun_suite_passes(self, capsys):
        assert main(["verify", "--suite", "specfun"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2

    def test_seed_determinism(self, capsys):
        assert main(["verify", "--suite", "specfun", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--suite", "specfun", "--seed", "7"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_failing_check_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(oracles, "marcum_q1", lambda a, b: 2.0)
        assert main(["verify", "--suite", "specfun"]) == 1
        assert "[FAIL] specfun/marcum_b0_is_one" in capsys.readouterr().out

    def test_sign_flip_trips_positivity(self, monkeypatch):
        monkeypatch.setattr(oracles, "g_tilde_n", lambda n, x, A: -1e-3)
        assert not verify.CHECKS["radial/g_tilde_positive"](0).passed


def _dip_once(n, xs, A):
    # a panel rule whose Q steps down once, mid-grid
    Q = np.linspace(0.0, 1.0, len(xs))
    Q[len(xs) // 2] -= 0.5
    return Q, np.linspace(0.0, 1.0, len(xs))


def _moved(field, by, where=lambda *args: True):
    """A fault: the real result with `field` moved by `by` where(*args)."""
    def plant(real):
        def fake(*args, **kw):
            out = real(*args, **kw)
            moved = {field: getattr(out, field) + by}
            return dataclasses.replace(out, **moved) if where(*args) else out
        return fake
    return plant


def _largest_candidate(real):
    """An envelope that reports its largest valid candidate, not its least."""
    def fake(n, P, conjecture=True):
        pts = [compute_bound(b, n, P) for b in
               ("avg_power", "mckellips", "refined", "minmax_conjectured")]
        top = max((p for p in pts if p.valid), key=lambda p: p.rate_bits)
        return dataclasses.replace(real(n, P, conjecture),
                                   rate_bits=top.rate_bits,
                                   achiever=top.bound_id)
    return fake


# name -> (module, attribute, fault from the real function, checks it fails)
PLANTED_FAULTS = {
    "q_dips_once": (radial, "radial_pair_grid", lambda real: _dip_once,
                    ["radial/q_g_nondecreasing_in_x"]),
    "beta_star_nudged": (upper_bounds, "beta_star",
                         lambda real: lambda n, A: real(n, A) + 1e-6,
                         ["upper/beta_star_equalizes_endpoints"]),
    "envelope_dips_at_8db": (upper_bounds, "envelope",
                             _moved("rate_bits", -1.0, lambda n, P: 6 < P < 7),
                             ["upper/envelope_nondecreasing_in_snr"]),
    "envelope_takes_largest": (upper_bounds, "envelope", _largest_candidate,
                               ["lower/scalar_gap_envelope_vs_pam",
                                "lower/complex_gap_envelope_vs_ring"]),
    "mi_lifted_1e-9": (lower_bounds, "constellation_mi", _moved("bits", 1e-9),
                       ["lower/mi_lattice_vs_polar"]),
    "interior_excess_flagged": (upper_bounds, "minmax_dual_detail",
                                _moved("interior_excess", 1e-6),
                                ["upper/minmax_conjectured_vs_verified"]),
    "lower_above_envelope": (lower_bounds, "volume_lower_bound",
                             lambda real: lambda n, P: real(n, P) + 1.0,
                             ["lower/sandwich_lower_below_envelope",
                              "lower/sandwich_on_criterion_sweeps"]),
}


@pytest.mark.parametrize("fault", list(PLANTED_FAULTS))
def test_planted_fault_fails_its_check(monkeypatch, fault):
    module, attr, plant, names = PLANTED_FAULTS[fault]
    monkeypatch.setattr(module, attr, plant(getattr(module, attr)))
    assert not any(verify.CHECKS[name](0).passed for name in names)


class TestSweepRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            cli.SweepRequest(1, 5.0, 0.0, 1.0, ("avg_power",), "x.csv")
        with pytest.raises(ValueError):
            cli.SweepRequest(1, 0.0, 5.0, 0.0, ("avg_power",), "x.csv")
        with pytest.raises(ValueError, match="step"):
            cli.SweepRequest(1, -10.0, 30.0, 1e-12, ("avg_power",), "x.csv")
        with pytest.raises(ValueError, match="at least one bound id"):
            cli.SweepRequest(1, 0.0, 5.0, 1.0, (), "x.csv")
        with pytest.raises(ValueError):
            cli.SweepRequest(4, 0.0, 5.0, 1.0, ("ring_lower",), "x.csv")

    def test_grid_endpoints(self):
        req = cli.SweepRequest(1, -1.0, 1.0, 0.5, ("avg_power",), "x.csv")
        assert req.grid() == [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_two_dim_curve_shape(self, tmp_path):
        # from 0 dB to the validity edge the refined curve sits below the
        # McKellips-type one (below 0 dB the average-power branch wins)
        out = tmp_path / "curve.csv"
        assert main(["sweep", "--dim", "2", "--snr-db-min", "0",
                     "--snr-db-max", "4", "--step", "0.5",
                     "--bounds", "refined,mckellips,envelope",
                     "--out", str(out)]) == 0
        rows = _read_csv(out)[1:]
        by_snr = {}
        for snr, bound_id, rate, valid, achiever in rows:
            by_snr.setdefault(float(snr), {})[bound_id] = (float(rate),
                                                           valid, achiever)
        for snr, vals in by_snr.items():
            rate_r, valid_r, _ = vals["refined"]
            assert valid_r == "true"  # whole range is below 4.45 dB
            assert rate_r < vals["mckellips"][0]
            assert vals["envelope"][0] <= rate_r + 1e-12


class TestBoundRegistry:
    def test_dimension_restrictions(self):
        assert "pam_lower" in available_bounds(1)
        assert "pam_lower" not in available_bounds(2)
        assert "ring_lower" in available_bounds(2)
        assert "ring_lower" not in available_bounds(4)
        with pytest.raises(ValueError):
            compute_bound("pam_lower", 2, 1.0)
        with pytest.raises(ValueError):
            compute_bound("ring_lower", 1, 1.0)
        with pytest.raises(ValueError):
            compute_bound("no_such_bound", 1, 1.0)

    def test_available_bounds_by_kind(self):
        assert available_bounds(1, "lower") == ["volume_lower", "pam_lower"]
        assert available_bounds(2, "lower") == ["volume_lower", "ring_lower"]
        assert available_bounds(4, "upper") == [
            "avg_power", "mckellips", "refined", "minmax_conjectured",
            "minmax_verified", "envelope"]
        assert available_bounds(3) == (available_bounds(3, "upper")
                                       + available_bounds(3, "lower"))
