"""Paired, in-process timing of a base tree's awgncap against this tree's.

    python benchmarks/ab.py BASE_SRC [--json OUT]

BASE_SRC is the src/ directory of another checkout of the repository, for
instance the parent commit unpacked with `git archive`.  Its package is
loaded as awgncap_base beside this tree's, and a second copy of this
tree's is loaded as awgncap_aa; the package uses relative imports, so the
three load side by side, each with its own memos and kept tables.  Fresh
processes cannot resolve a few per cent on a shared machine (each one
recompiles and re-warms the package), so every round times each case on
the three packages one after the other, the order rotating by one each
round, ROUNDS times after WARMUP rounds that are not recorded.  numpy is
held to one BLAS thread.

The cases are the verified min-max route, upper_bounds._minmax_verified,
at the band centres of perfbench's verified_nd stream (n = 2..5 at -5, 5,
15 and 25 dB), each call after its package's endpoint memos are cleared.
For each case, and for the sum over cases, it prints the median time of
the base and of this tree, their ratio (this / base), the rounds this tree
was faster in, and whether both trees returned the same floats.  The A/A
row compares this tree with its own second copy: its ratio and wins show
what the method reads on identical code.  --json OUT also writes the
result, with the method and the machine, to OUT.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse
import importlib.util
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

SIDES = ("base", "change", "aa")
ROUNDS = 400
WARMUP = 10
WHAT = ("the verified min-max route, upper_bounds._minmax_verified, at the "
        "16 band centres of the verified_nd stream (n = 2..5 at -5, 5, 15 "
        "and 25 dB): BASE_SRC (base) against this tree (change)")
CASES = [(n, snr_db) for n in (2, 3, 4, 5)
         for snr_db in (-5.0, 5.0, 15.0, 25.0)]


def load(src: Path, name: str):
    """The awgncap package under src, imported as `name`."""
    init = src / "awgncap" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def one_round(pkgs, order, record):
    """Time every case once on each package, in `order`; append the times
    (s) and results to record[side]."""
    for c, (n, snr_db) in enumerate(CASES):
        for side in order:
            pkg = pkgs[side]
            A = pkg.radial.ChannelConfig.from_snr_db(n, snr_db).A
            pkg.radial._forget_endpoint_memos()
            t0 = time.perf_counter()
            out = pkg.upper_bounds._minmax_verified(n, A)
            record[side][c].append((time.perf_counter() - t0, out))


def summarize(record):
    """Per-case and summed medians (ms), ratios and wins."""
    times = {s: np.array([[t for t, _ in runs] for runs in record[s]])
             for s in SIDES}  # (case, round)
    rounds = times["base"].shape[1]

    def row(base, change):
        return {"base_ms": round(1e3 * float(np.median(base)), 4),
                "change_ms": round(1e3 * float(np.median(change)), 4),
                "ratio": round(float(np.median(change) / np.median(base)), 3),
                "change_faster": f"{int((change < base).sum())}/{rounds}"}

    cases = []
    for c, (n, snr_db) in enumerate(CASES):
        same = all(out == record["base"][c][0][1]
                   for s in SIDES for _, out in record[s][c])
        cases.append({"n": n, "snr_db": snr_db,
                      **row(times["base"][c], times["change"][c]),
                      "same_values": same})
    summed = {s: times[s].sum(axis=0) for s in SIDES}
    return {"rounds": rounds,
            "summed": row(summed["base"], summed["change"]),
            "aa_summed": row(summed["aa"], summed["change"]),
            "cases": cases}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base_src", type=Path)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)

    here = Path(__file__).resolve().parents[1] / "src"
    pkgs = {"base": load(args.base_src.resolve(), "awgncap_base"),
            "change": load(here, "awgncap_change"),
            "aa": load(here, "awgncap_aa")}
    for r in range(WARMUP + ROUNDS):
        if r in (0, WARMUP):  # the warm-up rounds are dropped
            record = {s: [[] for _ in CASES] for s in SIDES}
        one_round(pkgs, SIDES[r % 3:] + SIDES[:r % 3], record)
    result = summarize(record)

    print(f"{'case':>14} {'base ms':>9} {'change ms':>9} {'ratio':>6} "
          f"{'wins':>9}  same")
    for c in result["cases"]:
        print(f"{c['n']:>4} {c['snr_db']:>6.1f} dB {c['base_ms']:>9.4f} "
              f"{c['change_ms']:>9.4f} {c['ratio']:>6.3f} "
              f"{c['change_faster']:>9}  {c['same_values']}")
    for label, key in (("summed", "summed"), ("A/A summed", "aa_summed")):
        s = result[key]
        print(f"{label:>14} {s['base_ms']:>9.4f} {s['change_ms']:>9.4f} "
              f"{s['ratio']:>6.3f} {s['change_faster']:>9}")
    if args.json:
        out = {"what": WHAT,
               "command": "python benchmarks/ab.py BASE_SRC --json OUT",
               "method": f"{WARMUP} warm-up rounds, then "
                         f"{ROUNDS} rounds; each round times every "
                         "case on base, change and a second copy of change "
                         "(aa), the order rotating by one each round; "
                         "endpoint memos cleared before each call; one "
                         "BLAS thread; medians of time.perf_counter",
               "machine": {"cpus": os.cpu_count(),
                           "python": platform.python_version(),
                           "numpy": np.__version__},
               "unit": "ms", **result}
        args.json.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
