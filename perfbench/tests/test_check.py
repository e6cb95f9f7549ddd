"""Tests of the benchmark's output check against its committed references.

    python3 -m pytest perfbench/tests -q

They read only the reference files and need no awgncap import.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.mark.parametrize("workload", sorted(wl.SWEEPS))
def test_sweep_reference_passes_its_own_check(workload):
    ref = check.read_sweep_csv(check.REFERENCE / f"{workload}.csv")
    assert ref and check.check_sweep(ref, ref) == [None] * len(ref)


@pytest.mark.parametrize("workload", sorted(wl.SWEEPS))
def test_sweep_check_fails_on_a_1e6_bit_change(workload):
    ref = check.read_sweep_csv(check.REFERENCE / f"{workload}.csv")
    rows = [dict(r) for r in ref]
    i = len(rows) // 2
    rows[i]["rate_bits"] = repr(float(rows[i]["rate_bits"]) + 1e-6)
    cells = check.check_sweep(rows, ref)
    assert cells[i] == "mismatch"
    assert cells.count(None) == len(ref) - 1


def test_sweep_check_fails_on_a_missing_or_changed_flag():
    ref = check.read_sweep_csv(check.REFERENCE / "sweep2d.csv")
    rows = [dict(r) for r in ref[1:]]
    rows[0]["achiever"] = "someone_else"
    cells = check.check_sweep(rows, ref)
    assert cells[:2] == ["mismatch", "mismatch"]


@pytest.mark.parametrize("workload", sorted(wl.QUERIES))
def test_query_reference_matches_the_stream(workload):
    refs = check.query_reference(workload, 0)
    assert refs
    queries = wl.queries(workload, 0, len(refs))
    for i, q in enumerate(queries):
        assert check.reference_for(refs, i, q) == refs[i][1]
    assert all("error" not in answer for _, answer in refs)


@pytest.mark.parametrize("workload", sorted(wl.QUERIES))
def test_query_check_fails_on_a_1e6_bit_change(workload):
    refs = check.query_reference(workload, 0)
    query, answer = refs[len(refs) // 2]
    assert check.check_query(query, answer, answer) is None
    moved = dict(answer, rate=answer["rate"] + 1e-6)
    assert check.check_query(query, moved, answer) == "mismatch"
    assert check.check_query(query, dict(answer, rate=answer["rate"] + 5e-10),
                             answer) is None


def test_query_check_without_reference_uses_invariants():
    query = [2, "envelope", 10.0]
    floor = check.volume_lower_bits(2, 10.0)
    ok = {"rate": floor + 0.1, "valid": True, "achiever": "refined"}
    assert check.check_query(query, ok, None) is None
    below = dict(ok, rate=floor - 1e-6)
    assert check.check_query(query, below, None) == "mismatch"
    assert check.check_query(query, dict(below, valid=False), None) is None
    assert check.check_query(query, dict(ok, rate=float("nan")), None) == "mismatch"
    assert check.check_query(query, {"error": "OverflowError"}, None) == "OverflowError"
    assert check.check_query(query, {"error": "KeyError"}, None) == "other"


def test_reference_must_belong_to_the_stream():
    refs = check.query_reference("query_nd", 0)
    with pytest.raises(ValueError):
        check.reference_for(refs, 0, [99, "envelope", 0.0])


def test_percentiles_and_the_failure_rule():
    lat = [0.001 * i for i in range(1, 12)]
    assert run.percentile_ms(lat, 0, 50) == pytest.approx(6.0)
    assert run.percentile_ms([0.25], 0, 90) == pytest.approx(250.0)
    assert 9.0 < run.percentile_ms(lat, 0, 90) < 11.0
    # failures rank last and count as the limit ...
    assert run.percentile_ms(lat, 3, 90) > 0.5 * 1000.0 * run.LIMIT_S
    # ... so a failure that becomes a success never raises a percentile
    for p in (50, 90):
        assert (run.percentile_ms(lat + [0.5], 2, p)
                <= run.percentile_ms(lat, 3, p))


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((Path(__file__).resolve().parents[2]
                       / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
            == spans.PER_LAYER)
