"""Acceptance: every registry check passes, and the paper's ten criteria.

Each check in awgncap.verify.CHECKS runs once per session (conftest.py) and
is asserted here by name.  Each criterion test renders its
`[ACCEPT] criterion NN: PASS/FAIL` line from the same records (each line
without its [PASS]/[FAIL] tag) and fails with them; run
`pytest tests/test_acceptance.py -v -s` to see them.
"""

import pytest

from awgncap import verify


@pytest.mark.parametrize("name", list(verify.CHECKS))
def test_check(checks, name):
    assert checks[name].passed, checks[name].line()


def _accept(checks, label, *names):
    records = [checks[name] for name in names]
    passed = all(r.passed for r in records)
    print(f"[ACCEPT] criterion {label:>2}: {'PASS' if passed else 'FAIL'} - "
          + "; ".join(r.line().partition(" ")[2] for r in records))
    assert passed


def test_criterion_1_scalar_gap(checks):
    _accept(checks, 1, "lower/scalar_gap_envelope_vs_pam")


def test_criterion_2_complex_gap(checks):
    _accept(checks, 2, "lower/complex_gap_envelope_vs_ring")


def test_criterion_2_extension_informational(checks):
    _accept(checks, "2 (informational 5..20 dB)",
            "lower/complex_gap_5_to_20db")


def test_criterion_3_validity_thresholds(checks):
    _accept(checks, 3, "upper/threshold_1d_value", "upper/threshold_2d_value",
            "upper/threshold_2d_snr_db", "upper/threshold_4d_snr_db")


def test_criterion_4_high_snr_asymptotes(checks):
    _accept(checks, 4, "upper/mckellips_1d_high_snr_offset",
            "upper/mckellips_2d_high_snr_offset",
            "upper/mckellips_2d_minus_volume_at_60db")


def test_criterion_5_g_tilde_positivity(checks):
    _accept(checks, 5, "radial/g_tilde_positive")


def test_criterion_6_monotonicity(checks):
    _accept(checks, 6, "radial/q_g_nondecreasing_in_x")


def test_criterion_7_packing_moments(checks):
    _accept(checks, 7, "lower/ring_packing_power_identity",
            "lower/ring_packing_rho_scaling")


def test_criterion_8_oracle_equivalences(checks):
    _accept(checks, 8, "upper/dn_closed_vs_direct_divergence",
            "radial/q2_equals_marcum", "radial/k_n_closed_vs_numeric",
            "upper/d1_vs_generic_n1")


def test_criterion_9_sandwich(checks):
    _accept(checks, 9, "lower/sandwich_on_criterion_sweeps")


def test_criterion_10_analytical_packing_bound(checks):
    _accept(checks, 10, "lower/analytic_gap_n32",
            "lower/analytic_bound_below_packing_mi")
