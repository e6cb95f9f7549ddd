"""Output check: committed reference answers first, invariants where none.

A reference answer must match to TOL_BITS in the rate and exactly in the
bound id, the ``valid`` flag and the achiever.  A query without a
reference answer (another seed, or one the reference run could not answer)
must have a finite rate >= 0 and, if it is a valid upper bound, must lie
above the entropy-power (volume) lower bound less TOL_BITS.  Every check
returns None for a correct answer or the failure class.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"

#: largest rate drift a change may cause, in bits
TOL_BITS = 1e-9

FAIL_CLASSES = ("OverflowError", "ZeroDivisionError", "RuntimeError",
                "ValueError", "QuadratureError", "mismatch", "other")


def error_class(name: str) -> str:
    return name if name in FAIL_CLASSES else "other"


def volume_lower_bits(n: int, P: float) -> float:
    """(n/2) log2(1 + Vol(A)^{2/n} / (2 pi e)) with A = sqrt(nP), unit noise."""
    A = math.sqrt(n * P)
    log_vol = (0.5 * n * math.log(math.pi) + n * math.log(A)
               - math.lgamma(0.5 * n + 1.0))
    v_pow = math.exp(2.0 / n * log_vol)
    return 0.5 * n * math.log1p(v_pow / (2.0 * math.pi * math.e)) / math.log(2.0)


def _invariants_hold(n: int, snr_db: float, answer: dict) -> bool:
    rate = answer["rate"]
    if not (math.isfinite(rate) and rate >= 0.0):
        return False
    if answer["valid"]:
        return rate >= volume_lower_bits(n, 10.0 ** (snr_db / 10.0)) - TOL_BITS
    return True


def check_query(query, answer: dict, ref: dict | None) -> str | None:
    """Failure class of one query answer, or None if it is correct."""
    if "error" in answer:
        return error_class(answer["error"])
    n, _, snr_db = query
    if ref is None or "error" in ref:
        return None if _invariants_hold(n, snr_db, answer) else "mismatch"
    if (abs(answer["rate"] - ref["rate"]) <= TOL_BITS
            and answer["valid"] == ref["valid"]
            and answer["achiever"] == ref["achiever"]):
        return None
    return "mismatch"


def query_reference(workload: str, seed: int) -> list:
    """Reference (query, answer) pairs of a seed, or [] if none is kept."""
    path = REFERENCE / f"{workload}_seed{seed}.json"
    if not path.exists():
        return []
    return json.loads(path.read_text())["answers"]


def reference_for(refs: list, index: int, query) -> dict | None:
    """Reference answer of stream position ``index``, or None."""
    if index >= len(refs):
        return None
    ref_query, ref_answer = refs[index]
    if list(ref_query) != list(query):
        raise ValueError(f"query stream differs from its reference at "
                         f"{index}: {query} != {ref_query}")
    return ref_answer


def read_sweep_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep(rows: list[dict], ref_rows: list[dict]) -> list[str | None]:
    """Per-cell failure class of a sweep CSV against its reference CSV.

    Cells are matched by (snr_db, bound_id); a missing or extra cell is a
    mismatch.
    """
    got = {(r["snr_db"], r["bound_id"]): r for r in rows}
    out = []
    for ref in ref_rows:
        row = got.pop((ref["snr_db"], ref["bound_id"]), None)
        ok = (row is not None
              and abs(float(row["rate_bits"]) - float(ref["rate_bits"]))
              <= TOL_BITS
              and row["valid"] == ref["valid"]
              and row["achiever"] == ref["achiever"])
        out.append(None if ok else "mismatch")
    out.extend("mismatch" for _ in got)
    return out
