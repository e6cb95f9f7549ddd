"""CLI tests: CSV sweeps, point queries, verification driver, exit codes."""

import csv
import math
import os
import subprocess
import sys

import pytest

import awgncap
from awgncap import cli, radial, verify
from awgncap.cli import available_bounds, compute_bound, main


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

    def test_missing_snr_is_usage_error(self):
        assert main(["point", "--dim", "2", "--bounds", "envelope"]) == 2

    def test_no_command_is_usage_error(self):
        assert main([]) == 2


class TestListBounds:
    def test_listing(self, capsys):
        assert main(["--list-bounds"]) == 0
        out = capsys.readouterr().out
        for bound_id in cli.BOUND_DIMS:
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
    def test_python_dash_m(self):
        src = os.path.dirname(os.path.dirname(awgncap.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-m", "awgncap",
                               "--list-bounds"], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "minmax_verified" in done.stdout


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

    def test_sign_flip_trips_positivity(self, monkeypatch, capsys):
        real = radial.g_tilde_n

        def flipped(n, x, A, spec=radial.DEFAULT_QUAD):
            return -real(n, x, A, spec)

        monkeypatch.setattr(radial, "g_tilde_n", flipped)
        rc = main(["verify", "--suite", "radial"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL] radial/g_tilde_positive" in out


class TestSweepRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            cli.SweepRequest(1, 5.0, 0.0, 1.0, ("avg_power",), "x.csv")
        with pytest.raises(ValueError):
            cli.SweepRequest(1, 0.0, 5.0, 0.0, ("avg_power",), "x.csv")
        with pytest.raises(ValueError):
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
