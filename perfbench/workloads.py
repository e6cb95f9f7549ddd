"""Workload definitions shared by the runner, the worker, the reference
generator and the census.  Importing this module does not import awgncap.

Every workload is a closed-loop stream of requests answered by one client:

* sweeps: a request is one grid point of a CSV written by
  ``awgncap.cli.run_sweep`` in a fresh process, as ``awgncap sweep`` does;
* query streams: a request is one ``awgncap.cli.compute_bound`` call.
"""

from __future__ import annotations

import itertools
import random

SWEEPS = {
    # the README 2-D sweep
    "sweep2d": dict(n=2, snr_db_min=-10.0, snr_db_max=20.0, step=0.5,
                    bounds=("envelope", "mckellips", "refined",
                            "minmax_conjectured", "ring_lower",
                            "volume_lower")),
    # the criterion-1 scalar sweep
    "sweep1d": dict(n=1, snr_db_min=-10.0, snr_db_max=30.0, step=0.5,
                    bounds=("envelope", "mckellips", "refined",
                            "minmax_conjectured", "pam_lower",
                            "volume_lower")),
}

#: the query domain: the current code answers every query in it.  n = 1
#: bounds are closed forms that take microseconds (sweep1d times them); in
#: a query stream they would only move the median to a class boundary.
QUERY_DIMS = (2, 3, 4, 5)
QUERY_SNR_DB = (-10.0, 30.0)

# A block holds one query per (n, bound id, SNR band) cell.  ``jitter_db``
# is the largest seeded offset of a query's SNR from its band's centre;
# None draws it uniformly over the band.  A verified query costs 0.1 to
# 1.5 s, rising steeply with SNR, and a run holds one block of 16: a narrow
# offset keeps every run's work alike.
QUERIES = {
    "query_nd": dict(ids=("envelope", "refined", "minmax_conjectured"),
                     dims=QUERY_DIMS, snr_db=QUERY_SNR_DB, bands=4,
                     jitter_db=None),
    "verified_nd": dict(ids=("minmax_verified",), dims=QUERY_DIMS,
                        snr_db=QUERY_SNR_DB, bands=4, jitter_db=0.25),
}

#: the failure census (census.py): half minmax_verified, the rest split
#: evenly, over the wider domain where queries fail
CENSUS = dict(ids=("envelope", "refined", "minmax_conjectured",
                   "minmax_verified", "minmax_verified", "minmax_verified"),
              dims=(1, 2, 3, 4, 5, 8, 12, 16), snr_db=(-30.0, 30.0), bands=4,
              jitter_db=None)

WORKLOADS = (*SWEEPS, *QUERIES)


def setup_dims(workload: str) -> tuple[int, ...]:
    """Dimensions whose ``amplitude_threshold`` cache the workload reads.

    Only the refined bound, alone or inside the envelope, reads it.
    """
    if workload in SWEEPS:
        return (SWEEPS[workload]["n"],)
    return QUERY_DIMS if "refined" in QUERIES[workload]["ids"] else ()


def block_size(spec: dict) -> int:
    return len(spec["dims"]) * len(spec["ids"]) * spec["bands"]


def query_blocks(name: str, seed: int, spec: dict | None = None):
    """Endless seeded stream of (n, bound_id, snr_db) queries.

    The stream comes in blocks with one query per (n, bound id, SNR band)
    cell, shuffled.  The bands split the SNR range into equal parts; a
    query's SNR is its band's centre moved by a seeded offset (see QUERIES).
    Every block thus has the same mix of dimensions, bound ids and bands.
    """
    spec = QUERIES[name] if spec is None else spec
    rng = random.Random(f"{name}:{seed}")
    lo, hi = spec["snr_db"]
    width = (hi - lo) / spec["bands"]
    half = 0.5 * width if spec["jitter_db"] is None else spec["jitter_db"]
    cells = [(n, b, k) for n in spec["dims"] for b in spec["ids"]
             for k in range(spec["bands"])]
    while True:
        block = list(cells)
        rng.shuffle(block)
        for n, b, k in block:
            centre = lo + width * (k + 0.5)
            yield n, b, round(centre + half * (2.0 * rng.random() - 1.0), 6)


def answer(cli, n: int, bound_id: str, snr_db: float) -> dict:
    """One query through ``cli.compute_bound``: the rate, ``valid`` flag and
    achiever, or the type of the exception it raised."""
    try:
        pt = cli.compute_bound(bound_id, n, 10.0 ** (snr_db / 10.0))
    except Exception as exc:  # a failed query is an answer to record
        return {"error": type(exc).__name__}
    return {"rate": pt.rate_bits, "valid": pt.valid, "achiever": pt.achiever}


def queries(name: str, seed: int, count: int) -> list:
    """The first ``count`` queries of the seeded stream."""
    return list(itertools.islice(query_blocks(name, seed), count))
