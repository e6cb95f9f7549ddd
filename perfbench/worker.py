"""One fresh benchmark process: set up awgncap, answer requests, report.

Run by ``run.py``, never by hand:

    python3 perfbench/worker.py --workload W --seed S --out FILE
        [--budget SECONDS | --count K] [--trace] [--setup-only]

Set-up is the import of awgncap plus filling the ``amplitude_threshold``
cache for every dimension the workload reads.  A sweep worker then writes
one CSV through ``awgncap.cli.run_sweep``; a query worker answers queries
of the seeded stream from its start: whole blocks of the stream until its
queries have taken ``--budget`` seconds, or exactly ``--count`` queries.
The result, and with ``--trace`` every span, goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

import workloads as wl
from spans import Tracer


def _answer_queries(cli, workload, seed, budget, count, tracer,
                    requests) -> None:
    """Exactly ``count`` queries, or else whole blocks of the stream until
    the queries have taken ``budget`` seconds (at least one block), so that
    every run answers whole blocks, each with the same mix."""
    block = wl.block_size(wl.QUERIES[workload])
    spent = 0.0
    stream = wl.query_blocks(workload, seed)
    for index, (n, bound_id, snr_db) in enumerate(stream):
        if count is not None:
            if index == count:
                break
        elif index and index % block == 0 and spent >= budget:
            break
        if tracer:
            tracer.request = index
        t = time.perf_counter()
        answer = wl.answer(cli, n, bound_id, snr_db)
        latency = time.perf_counter() - t
        spent += latency
        requests.append({"latency_s": latency, "index": index,
                         "query": [n, bound_id, snr_db], "answer": answer})


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--count", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    out = Path(args.out)

    t0 = time.perf_counter()
    import awgncap
    from awgncap import cli, upper_bounds
    tracer = None
    if args.trace:
        tracer = Tracer(out.stem)
        tracer.install()
    for n in wl.setup_dims(args.workload):
        upper_bounds.amplitude_threshold(n)
    result = {"setup_s": time.perf_counter() - t0,
              "awgncap_file": awgncap.__file__, "requests": []}

    if args.setup_only:
        pass
    elif args.workload in wl.SWEEPS:
        s = wl.SWEEPS[args.workload]
        csv_path = out.with_suffix(".csv")
        if tracer:
            tracer.request = 0
        t = time.perf_counter()
        cli.run_sweep(s["n"], s["snr_db_min"], s["snr_db_max"], s["step"],
                      list(s["bounds"]), str(csv_path))
        result["requests"].append({"latency_s": time.perf_counter() - t,
                                   "csv": str(csv_path)})
    else:
        _answer_queries(cli, args.workload, args.seed, args.budget,
                        args.count, tracer, result["requests"])

    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    if tracer:
        result["spans"] = tracer.spans
    out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
