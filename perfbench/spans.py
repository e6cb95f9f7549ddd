"""Spans around awgncap's public functions, recorded from outside the package.

``Tracer.install`` replaces module attributes (and ``RadialFunctions.pair``)
with timing wrappers.  Internal calls look these names up at call time, so
the spans cover calls made inside the package as well.  Spans are kept in
memory and written out by the worker when it ends.  ``layer_metrics`` turns
the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

_PAM = "lower_bounds.pam_lower_bound_1d"


def _targets():
    """(owner, attribute, span name or a function of (args, kwargs) giving it,
    None or a function of (args, kwargs) giving the span's size or its
    (id, n, P) evaluation key)."""
    import numpy as np
    from awgncap import cli, lower_bounds, radial, specfun, upper_bounds

    def quad(args, kwargs):
        n = args[0] if args else kwargs.get("n")
        return "radial.closed_n1" if n == 1 else "radial.quadpack"

    def minmax_key(args, kwargs):
        n, A = args[0], float(args[1])
        conjecture = args[2] if len(args) > 2 else kwargs.get("conjecture", True)
        bound_id = "minmax_conjectured" if conjecture else "minmax_verified"
        return bound_id, int(n), A * A / n

    return [
        (specfun, "tilde_i_n_scaled", "specfun.tilde_i_n_scaled",
         lambda a, kw: int(np.size(a[1]))),
        (radial, "radial_pair_grid", "radial.radial_pair_grid",
         lambda a, kw: int(np.size(a[1]))),
        (radial, "q_n", quad, None),
        (radial, "g_n", quad, None),
        (radial, "g_tilde_n", quad, None),
        (radial.RadialFunctions, "pair", "radial.pair", None),
        (upper_bounds, "amplitude_threshold",
         "upper_bounds.amplitude_threshold", None),
        (upper_bounds, "beta_star", "upper_bounds.beta_star", None),
        (upper_bounds, "minmax_dual_detail",
         "upper_bounds.minmax_dual_detail", None),
        (upper_bounds, "minmax_dual", "upper_bounds.minmax_dual", minmax_key),
        (upper_bounds, "refined_nd", "upper_bounds.refined_nd",
         lambda a, kw: ("refined", int(a[0]), float(a[1]))),
        (upper_bounds, "refined_1d", "upper_bounds.refined_1d",
         lambda a, kw: ("refined", 1, float(a[0]))),
        (upper_bounds, "envelope", "upper_bounds.envelope", None),
        (lower_bounds, "constellation_mi", "lower_bounds.constellation_mi",
         lambda a, kw: int(a[0].size)),
        (lower_bounds, "pam_lower_bound_1d", _PAM, None),
        (cli, "compute_bound", "cli.compute_bound", None),
        (cli, "sweep", "cli.sweep", None),
    ]


class Tracer:
    """In-memory span recorder for one worker process (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.request = "setup"
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def describe(field, args, kwargs):
            try:
                return field(args, kwargs)
            except (IndexError, KeyError, TypeError, AttributeError):
                return None  # a changed signature loses the detail, not the span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = {"name": name(args, kwargs) if callable(name) else name,
                   "parent": stack[-1] if stack else None,
                   "run": self.run_id, "request": self.request}
            if info is not None:
                rec["info"] = describe(info, args, kwargs)
            stack.append(len(spans))
            spans.append(rec)
            rec["start"] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec["end"] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target the package still has; a missing one records no
        spans, so its metrics read 0."""
        for owner, attr, name, info in _targets():
            fn = getattr(owner, attr, None)
            if fn is not None:
                setattr(owner, attr, self.wrap(fn, name, info))


def _self_times(spans):
    """Span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


LAYERS = ("specfun", "radial", "upper_bounds", "lower_bounds", "cli")

# per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "lower_bounds.constellation_mi.calls": ("count", "lower"),
    "lower_bounds.constellation_mi.self_s": ("s", "lower"),
    "lower_bounds.constellation_mi.points_total": ("count", "lower"),
    "lower_bounds.pam_lower_bound_1d.calls": ("count", "lower"),
    "lower_bounds.pam_lower_bound_1d.total_s": ("s", "lower"),
    "lower_bounds.pam_lower_bound_1d.mi_per_call": ("count", "lower"),
    "radial.radial_pair_grid.calls": ("count", "lower"),
    "radial.radial_pair_grid.self_s": ("s", "lower"),
    "radial.radial_pair_grid.xs_total": ("count", "lower"),
    "specfun.tilde_i_n_scaled.calls": ("count", "lower"),
    "specfun.tilde_i_n_scaled.self_s": ("s", "lower"),
    "specfun.tilde_i_n_scaled.elems": ("count", "lower"),
    "radial.closed_n1.calls": ("count", "lower"),
    "radial.closed_n1.self_s": ("s", "lower"),
    "radial.quadpack.calls": ("count", "lower"),
    "radial.quadpack.self_s": ("s", "lower"),
    "radial.pair.calls": ("count", "lower"),
    "radial.pair.hit_ratio": ("ratio", "higher"),
    "upper_bounds.amplitude_threshold.calls": ("count", "lower"),
    "upper_bounds.amplitude_threshold.total_s": ("s", "lower"),
    "upper_bounds.minmax_dual_detail.calls": ("count", "lower"),
    "upper_bounds.minmax_dual_detail.self_s": ("s", "lower"),
    "upper_bounds.beta_star.calls": ("count", "lower"),
    "upper_bounds.envelope.calls": ("count", "lower"),
    "upper_bounds.envelope.total_s": ("s", "lower"),
    "upper_bounds.refined_nd.calls": ("count", "lower"),
    "upper_bounds.refined_nd.total_s": ("s", "lower"),
    "upper_bounds.repeat_ratio": ("ratio", "lower"),
    "cli.compute_bound.calls": ("count", "lower"),
    "cli.compute_bound.self_s": ("s", "lower"),
    "cli.sweep.self_s": ("s", "lower"),
    **{f"layer.{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "traced_s": ("s", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced worker (all but the overhead).

    ``traced_s`` is the time of the top-level spans, set-up included: the
    base of every self-time share.
    """
    own = _self_times(spans)
    calls, total, self_s, size = Counter(), Counter(), Counter(), Counter()
    has_child = {s["parent"] for s in spans if s["parent"] is not None}
    seen, repeats, evaluated, pair_hits, mi_in_pam = set(), 0, 0, 0, 0
    for i, (s, t) in enumerate(zip(spans, own)):
        name = s["name"]
        calls[name] += 1
        total[name] += s["end"] - s["start"]
        self_s[name] += t
        info = s.get("info")
        if isinstance(info, int):
            size[name] += info
        elif info is not None:  # the (id, n, P) a refined or minmax span evaluates
            key = tuple(info)
            repeats += key in seen
            evaluated += 1
            seen.add(key)
        pair_hits += name == "radial.pair" and i not in has_child
        mi_in_pam += (name == "lower_bounds.constellation_mi"
                      and s["parent"] is not None
                      and spans[s["parent"]]["name"] == _PAM)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for metric in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if span.startswith("layer."):
            prefix = span[len("layer."):] + "."
            out[metric] = float(sum(v for k, v in self_s.items()
                                    if k.startswith(prefix)))
        elif field == "calls":
            out[metric] = float(calls[span])
        elif field == "total_s":
            out[metric] = float(total[span])
        elif field == "self_s":
            out[metric] = float(self_s[span])
    out.update({
        "lower_bounds.constellation_mi.points_total":
            float(size["lower_bounds.constellation_mi"]),
        "lower_bounds.pam_lower_bound_1d.mi_per_call":
            ratio(mi_in_pam, calls[_PAM]),
        "radial.radial_pair_grid.xs_total":
            float(size["radial.radial_pair_grid"]),
        "specfun.tilde_i_n_scaled.elems":
            float(size["specfun.tilde_i_n_scaled"]),
        "radial.pair.hit_ratio": ratio(pair_hits, calls["radial.pair"]),
        "upper_bounds.repeat_ratio": ratio(repeats, evaluated),
        "traced_s": sum(s["end"] - s["start"] for s in spans
                        if s["parent"] is None),
    })
    return out
