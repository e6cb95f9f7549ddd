"""Failure census: which queries fail, by class, over the wide domain.

    PYTHONPATH=src python3 perfbench/census.py --seed 0 --queries 150

The timed query workloads keep to a domain the current code answers in
full.  This script draws queries from the wider domain the bounds are
advertised for (``workloads.CENSUS``: n up to 16, SNR uniform over
-30..30 dB, half of them ``minmax_verified``, the rest split evenly among
``envelope``, ``refined`` and ``minmax_conjectured``), answers them in one
process and prints each one's outcome and latency, then the failures by
class, by bound id and by dimension.  A change that removes a failure
class shows it here.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
from collections import Counter

import workloads as wl
from check import error_class


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--queries", type=int, default=150)
    args = ap.parse_args()

    from awgncap import cli

    stream = wl.query_blocks("census", args.seed, wl.CENSUS)
    classes, by_id, by_dim = Counter(), Counter(), Counter()
    began = time.perf_counter()
    for n, bound_id, snr_db in itertools.islice(stream, args.queries):
        t = time.perf_counter()
        outcome = wl.answer(cli, n, bound_id, snr_db).get("error", "ok")
        if outcome != "ok":
            outcome = error_class(outcome)
            classes[outcome] += 1
            by_id[bound_id] += 1
            by_dim[n] += 1
        print(f"{n:3d} {bound_id:20s} {snr_db:9.4f} dB {outcome:18s} "
              f"{time.perf_counter() - t:8.3f} s", flush=True)
    failed = sum(classes.values())
    print(json.dumps({
        "seed": args.seed, "queries": args.queries, "failed": failed,
        "fail_frac": failed / args.queries,
        "by_class": dict(sorted(classes.items())),
        "by_bound_id": dict(sorted(by_id.items())),
        "by_dim": {str(k): v for k, v in sorted(by_dim.items())},
        "total_s": time.perf_counter() - began,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
