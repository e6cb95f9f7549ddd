"""awgncap benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sweep2d --seed 0 --seconds 16 --trace 0

Run from the root of a source checkout; awgncap is imported from ``src/``.
Each run is a sequence of fresh worker processes (``worker.py``), one at a
time, each a single closed-loop client.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  The lines before it repeat the metrics with their units
and give the failures by class and the machine facts; the full record goes
to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from scipy import special

import check
import spans
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: the least number of set-up samples (fresh processes) in a run
SETUP_SAMPLES = 3
#: latency a failed request is charged; it ranks after every success
LIMIT_S = 10.0
#: a run ends (and fails) if it has not finished by then
DEADLINE_S = 170.0
#: BLAS and OpenMP threads of every worker (set in its environment only)
BLAS_THREADS = "1"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


class RunFailed(RuntimeError):
    """A worker could not run: the run has no result."""


def percentile_ms(latencies: list[float], failures: int, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile, in ms.

    A weighted mean of all order statistics (Beta weights peaked at rank
    p/100), so it does not jump between neighbouring samples as a single
    order statistic does in small or gappy samples.  Failures rank last
    and count as LIMIT_S; the weights are positive, so a failure that turns
    into a success can only lower the estimate.
    """
    ranked = sorted(latencies) + [LIMIT_S] * failures
    n, q = len(ranked), p / 100.0
    edges = special.betainc(q * (n + 1), (1.0 - q) * (n + 1),
                            [i / n for i in range(n + 1)])
    return 1000.0 * sum((hi - lo) * x
                        for lo, hi, x in zip(edges, edges[1:], ranked))


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.began = time.monotonic()
        self.workers = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        OMP_NUM_THREADS=BLAS_THREADS,
                        OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        MKL_NUM_THREADS=BLAS_THREADS)

    def worker(self, *extra: str, trace: bool = False) -> dict:
        """Run one worker process to its end and return its result."""
        out = OUT / (f"{self.workload}-seed{self.seed}-w{self.workers}"
                     f"{'-traced' if trace else ''}.json")
        self.workers += 1
        out.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--out", str(out), *extra] + (["--trace"] if trace else [])
        left = DEADLINE_S - (time.monotonic() - self.began)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  timeout=max(left, 1.0))
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"worker passed the {DEADLINE_S:.0f} s deadline") from exc
        if proc.returncode != 0:
            raise RunFailed(f"worker exited with code {proc.returncode}")
        result = json.loads(out.read_text())
        if Path(result["awgncap_file"]).resolve().parent.parent != SRC.resolve():
            raise RunFailed(f"imported awgncap from {result['awgncap_file']}, "
                            f"not from {SRC}")
        return result


def run_sweeps(r: Runner, seconds: float, trace: bool):
    """Fresh-process CSVs until their requests (set-up plus CSV, as one
    ``awgncap sweep`` invocation) have taken ``seconds``; at least one.

    The traced run writes one CSV untraced and then one traced.
    """
    results = [r.worker()]
    if trace:
        results.append(r.worker(trace=True))
    else:
        spent = results[0]["setup_s"] + results[0]["requests"][0]["latency_s"]
        while spent < seconds:
            results.append(r.worker())
            spent += results[-1]["setup_s"] + results[-1]["requests"][0]["latency_s"]
    return results


def run_queries(r: Runner, seconds: float, trace: bool):
    """One worker answers whole blocks of the stream until its queries have
    taken ``seconds``; at least one block.

    The traced run answers blocks for half the time untraced, then the same
    queries traced.
    """
    first = r.worker("--budget", str(seconds / 2 if trace else seconds))
    if not trace:
        return [first]
    return [first, r.worker("--count", str(len(first["requests"])), trace=True)]


def sweep_cells(workload: str, result: dict) -> list[str | None]:
    """Per-cell failure classes of one sweep worker's CSV."""
    ref = check.read_sweep_csv(check.REFERENCE / f"{workload}.csv")
    return check.check_sweep(
        check.read_sweep_csv(result["requests"][0]["csv"]), ref)


def query_cells(workload: str, seed: int, result: dict) -> list[str | None]:
    refs = check.query_reference(workload, seed)
    return [check.check_query(q["query"], q["answer"],
                              check.reference_for(refs, q["index"], q["query"]))
            for q in result["requests"]]


def end_to_end(workload: str, results: list[dict],
               fails: list[list]) -> dict[str, float]:
    worked = [res for res in results if res["requests"]]
    if workload in wl.SWEEPS:
        # a sweep request is one CLI invocation: set-up, then the CSV
        csv = [res["requests"][0]["latency_s"] for res in worked]
        wall = statistics.median(csv)
        lat = [res["setup_s"] + t for res, t in zip(worked, csv)]
        failed = 0
    else:
        # the run's query time, failures charged the limit, per stream block
        block = wl.block_size(wl.QUERIES[workload])
        lat, failed = [], 0
        for res, cells in zip(worked, fails):
            for q, cls in zip(res["requests"], cells):
                if cls is None:
                    lat.append(q["latency_s"])
                else:
                    failed += 1
        wall = (sum(lat) + failed * LIMIT_S) * block / (len(lat) + failed)
    return {
        "setup_s": statistics.median(res["setup_s"] for res in results),
        "wall_s": wall,
        "latency_ms_p50": percentile_ms(lat, failed, 50),
        "latency_ms_p90": percentile_ms(lat, failed, 90),
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in worked),
    }


def per_layer(results: list[dict]) -> dict[str, float]:
    plain, traced = results
    out = spans.layer_metrics(traced["spans"])
    base = sum(q["latency_s"] for q in plain["requests"])
    out["trace_overhead_frac"] = (
        sum(q["latency_s"] for q in traced["requests"]) / base - 1.0)
    return out


def machine_facts() -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": BLAS_THREADS,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "awgncap" / "__init__.py").is_file():
        print(f"error: no awgncap sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    r = Runner(args.workload, args.seed)
    sweep = args.workload in wl.SWEEPS
    try:
        results = (run_sweeps if sweep else run_queries)(
            r, args.seconds, bool(args.trace))
        if not args.trace:
            while len(results) < SETUP_SAMPLES:
                results.append(r.worker("--setup-only"))
        fails = [sweep_cells(args.workload, res) if sweep
                 else query_cells(args.workload, args.seed, res)
                 for res in results if res["requests"]]
    except (RunFailed, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    cells = [c for f in fails for c in f]
    by_class = {c: cells.count(c) for c in check.FAIL_CLASSES if c in cells}
    if args.trace:
        metrics = per_layer(results)
        units = {k: u for k, (u, _) in spans.PER_LAYER.items()}
    else:
        metrics = end_to_end(args.workload, results, fails)
        units = END_TO_END
    report = {
        "correct": "mismatch" not in by_class,
        "attempted": len(cells),
        "failed": len(cells) - cells.count(None),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    facts = machine_facts()
    for k in units:
        print(f"{args.workload:12s} {k:45s} {metrics[k]:14.6g} {units[k]}")
    print(f"{args.workload:12s} fail_frac {report['failed']}/"
          f"{report['attempted']} by class {json.dumps(by_class)}")
    print(f"{args.workload:12s} workers {len(results)} facts {json.dumps(facts)}")
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.result.json"
     ).write_text(json.dumps({**report, "workload": args.workload,
                              "seed": args.seed, "seconds": args.seconds,
                              "failures_by_class": by_class,
                              "facts": facts}, indent=1))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
