"""Command-line front end: SNR sweeps to CSV, point queries, verification.

Exit codes: 0 success, 1 verification failure, 2 usage error or a bound the
numerics cannot evaluate (an ArithmeticError or RuntimeError, e.g. the
refined bound's threshold not found at n >= 37 or a QuadratureError at
100 dB), reported on one "error:" line.  CSV output is deterministic:
fixed 12-significant-digit formatting, rows sorted by (snr_db, bound_id),
parallel workers assembled in input order.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass

from . import lower_bounds, upper_bounds
from .radial import ChannelConfig


@dataclass(frozen=True)
class Bound:
    """One bound id: upper or lower, its dimensions, and its evaluator."""

    kind: str                          # "upper" or "lower"
    dims: tuple[int, ...] | None       # None: every n >= 1
    evaluate: Callable[[int, float], upper_bounds.BoundPoint]


def _rate(bound_id: str, rate_bits) -> Callable:
    """Evaluator that wraps a rate function (n, P) -> bits in a BoundPoint."""
    def evaluate(n, P):
        return upper_bounds.BoundPoint(10.0 * math.log10(P), rate_bits(n, P),
                                       bound_id, True)
    return evaluate


def _ring_bits(n, P):
    c = lower_bounds.ring_constellation(math.sqrt(n * P))
    return lower_bounds.constellation_mi(c, refine_check=False).bits


# The evaluators look the library functions up when they run, so wrappers
# installed on the modules later (e.g. by a tracer) see every call.
BOUNDS: dict[str, Bound] = {
    "avg_power": Bound("upper", None, _rate(
        "avg_power", lambda n, P: upper_bounds.avg_power(n, P))),
    "mckellips": Bound("upper", None, _rate(
        "mckellips", lambda n, P: upper_bounds.mckellips_nd(n, P))),
    "refined": Bound("upper", None,
                     lambda n, P: upper_bounds.refined(n, P)),
    "minmax_conjectured": Bound("upper", None, lambda n, P: (
        upper_bounds.minmax_dual(n, math.sqrt(n * P), conjecture=True))),
    "minmax_verified": Bound("upper", None, lambda n, P: (
        upper_bounds.minmax_dual(n, math.sqrt(n * P), conjecture=False))),
    "envelope": Bound("upper", None,
                      lambda n, P: upper_bounds.envelope(n, P)),
    "volume_lower": Bound("lower", None, _rate(
        "volume_lower", lambda n, P: lower_bounds.volume_lower_bound(n, P))),
    "pam_lower": Bound("lower", (1,), _rate(
        "pam_lower", lambda n, P: lower_bounds.pam_lower_bound_1d(P))),
    "ring_lower": Bound("lower", (2,), _rate("ring_lower", _ring_bits)),
}


def available_bounds(n: int, kind: str | None = None) -> list[str]:
    """Ids evaluable at dimension n in table order, of one kind if given."""
    return [b for b, bound in BOUNDS.items()
            if (bound.dims is None or n in bound.dims)
            and kind in (None, bound.kind)]


def _lookup(bound_id: str, n: int) -> Bound:
    if bound_id not in available_bounds(n):
        raise ValueError(f"bound {bound_id!r} unavailable for dim {n}; "
                         f"available: {available_bounds(n)}")
    return BOUNDS[bound_id]


def compute_bound(bound_id: str, n: int, P: float) -> upper_bounds.BoundPoint:
    """Evaluate one bound id at linear SNR P for dimension n."""
    ChannelConfig.from_snr(n, P)
    return _lookup(bound_id, n).evaluate(n, P)


def _point_rows(args):
    # snr_db fills the CSV column; the bounds are evaluated at P
    n, snr_db, P, bounds, per_dimension = args
    rows = []
    for b in bounds:
        pt = compute_bound(b, n, P)
        rate = pt.rate_bits / n if per_dimension else pt.rate_bits
        rows.append((snr_db, b, rate, pt.valid, pt.achiever or ""))
    return rows


def _write_csv(fh, rows) -> None:
    """The CSV header, then one line per row of _point_rows."""
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["snr_db", "bound_id", "rate_bits", "valid", "achiever"])
    for snr_db, bound_id, rate, valid, achiever in rows:
        w.writerow([format(snr_db, ".12g"), bound_id, format(rate, ".12g"),
                    "true" if valid else "false", achiever])


_NO_BOUNDS = "at least one bound id is required"

# a longer grid is a mistyped --step, not a sweep anyone waits for
MAX_GRID_POINTS = 10 ** 6


@dataclass(frozen=True)
class SweepRequest:
    """A CSV sweep job: dimension, dB grid, bound ids, destination."""

    n: int
    snr_db_min: float
    snr_db_max: float
    snr_db_step: float
    bounds: tuple[str, ...]
    output_path: str
    jobs: int = 1
    per_dimension: bool = False

    def __post_init__(self):
        # the amplitude grows with the SNR: checking both ends checks all
        for snr_db in (self.snr_db_min, self.snr_db_max):
            ChannelConfig.from_snr_db(self.n, snr_db)
        if self.snr_db_min > self.snr_db_max:
            raise ValueError("snr-db-min must not exceed snr-db-max")
        if not self.snr_db_step > 0:
            raise ValueError(f"step must be positive, got {self.snr_db_step}")
        span = (self.snr_db_max - self.snr_db_min) / self.snr_db_step
        if span + 1e-9 >= MAX_GRID_POINTS:
            raise ValueError(f"step {self.snr_db_step:g} gives more than "
                             f"{MAX_GRID_POINTS} grid points")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if not self.bounds:
            raise ValueError(_NO_BOUNDS)
        for b in self.bounds:
            _lookup(b, self.n)

    def grid(self) -> list[float]:
        count = int(math.floor(
            (self.snr_db_max - self.snr_db_min) / self.snr_db_step + 1e-9)) + 1
        return [self.snr_db_min + i * self.snr_db_step for i in range(count)]


def sweep(req: SweepRequest) -> None:
    """Evaluate the requested bounds over the SNR grid and write the CSV."""
    tasks = [(req.n, s, 10.0 ** (s / 10.0), list(req.bounds),
              req.per_dimension) for s in req.grid()]
    # the pool starts all its workers at once: no more than tasks or cores.
    # It and its lookup load concurrent.futures (with logging) and
    # multiprocessing, which no other command needs.
    workers = min(req.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_point_rows, tasks))
    else:
        chunks = [_point_rows(t) for t in tasks]
    rows = [r for chunk in chunks for r in chunk]
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(req.output_path, "w", newline="") as fh:
        _write_csv(fh, rows)


def run_sweep(n: int, snr_db_min: float, snr_db_max: float, step: float,
              bounds: list[str], out_path: str, jobs: int = 1,
              per_dimension: bool = False) -> None:
    sweep(SweepRequest(n=n, snr_db_min=snr_db_min, snr_db_max=snr_db_max,
                       snr_db_step=step, bounds=tuple(bounds),
                       output_path=out_path, jobs=jobs,
                       per_dimension=per_dimension))


def _add_common_point_args(p):
    p.add_argument("--dim", type=int, required=True, help="dimension n >= 1")
    snr = p.add_mutually_exclusive_group(required=False)
    snr.add_argument("--snr-db", type=float, help="SNR in dB (P = A^2/n)")
    snr.add_argument("--amplitude", type=float, help="amplitude limit A")
    p.add_argument("--bounds", type=str, default="envelope",
                   help="comma-separated bound ids")
    p.add_argument("--per-dimension", action="store_true",
                   help="report bits per real dimension instead of per symbol")


def _parse_bounds(spec: str) -> list[str]:
    bounds = [b.strip() for b in spec.split(",") if b.strip()]
    if not bounds:
        raise ValueError(_NO_BOUNDS)
    return bounds


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="awgncap",
        description="Capacity bounds for amplitude-constrained AWGN channels "
                    "(rates in bits per n-dimensional channel use)")
    ap.add_argument("--list-bounds", action="store_true",
                    help="list bound ids and supported dimensions, then exit")
    sub = ap.add_subparsers(dest="command")

    sw = sub.add_parser("sweep", help="write a CSV bound curve over an SNR range")
    sw.add_argument("--dim", type=int, required=True)
    sw.add_argument("--snr-db-min", type=float, required=True)
    sw.add_argument("--snr-db-max", type=float, required=True)
    sw.add_argument("--step", type=float, required=True)
    sw.add_argument("--bounds", type=str, required=True,
                    help="comma-separated bound ids")
    sw.add_argument("--out", type=str, required=True, help="output CSV path")
    sw.add_argument("--jobs", type=int, default=1,
                    help="parallel workers, at most one per grid point and "
                         "core (results keep input order)")
    sw.add_argument("--per-dimension", action="store_true")

    pt = sub.add_parser("point", help="evaluate bounds at one SNR")
    _add_common_point_args(pt)

    vf = sub.add_parser("verify", help="run the property suites")
    vf.add_argument("--suite", type=str, default="all",
                    help="specfun, radial, upper, lower or all")
    vf.add_argument("--seed", type=int, default=0)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)

    if args.list_bounds:
        for bound_id, bound in BOUNDS.items():
            where = ("any n" if bound.dims is None
                     else ", ".join(f"n={d}" for d in bound.dims))
            print(f"{bound_id:20s} {bound.kind:5s} [{where}]")
        return 0

    if args.command is None:
        ap.print_usage(sys.stderr)
        return 2

    try:
        if args.command == "sweep":
            run_sweep(args.dim, args.snr_db_min, args.snr_db_max, args.step,
                      _parse_bounds(args.bounds), args.out, jobs=args.jobs,
                      per_dimension=args.per_dimension)
            return 0
        if args.command == "point":
            if args.snr_db is None and args.amplitude is None:
                print("point requires --snr-db or --amplitude", file=sys.stderr)
                return 2
            if args.snr_db is None:
                # P from A itself: a round trip through dB moves A
                cfg = ChannelConfig(args.dim, args.amplitude)
                snr_db, P = cfg.snr_db, cfg.snr
                if not P > 0.0:
                    raise ValueError(
                        f"amplitude {args.amplitude:g} is too small: its SNR "
                        f"({snr_db:.6g} dB) underflows to 0")
            else:
                snr_db = args.snr_db
                ChannelConfig.from_snr_db(args.dim, snr_db)
                P = 10.0 ** (snr_db / 10.0)
            rows = _point_rows((args.dim, snr_db, P,
                                _parse_bounds(args.bounds),
                                args.per_dimension))
            _write_csv(sys.stdout, rows)
            return 0
        if args.command == "verify":
            # the suites load scipy; the bounds need only numpy
            from . import verify

            results = verify.run_suite(args.suite, seed=args.seed)
            for res in results:
                print(res.line())
            failures = sum(not r.passed for r in results)
            print(f"{len(results) - failures}/{len(results)} checks passed")
            return 1 if failures else 0
    except (ValueError, OSError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
