"""Span tracing of one `check all` pass, installed from outside the package.

Each traced entry point is replaced, at the module or class attribute its
caller looks up, by a wrapper that records a span [name, start, end, parent,
note].  Spans stay in memory until the pass ends; per-layer metrics are then
computed from them.  A span's self time is its duration minus the durations
of its direct child spans (calls are synchronous, so children never overlap).
"""

from __future__ import annotations

import functools
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def wrap(self, owner, attr, name, note=None):
        """Replace owner.attr by a span-recording wrapper until uninstall().

        note(args, result), if given, stores a small value on the span.
        """
        original = owner.__dict__[attr]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


SERIES_PRODUCTS = ("macmahon", "macmahon_p", "linear_factor", "euler_product", "theta")
DTSERIES_ENTRIES = {
    "identity_a": "dtseries.identity",
    "identity_b": "dtseries.identity",
    "identity_c": "dtseries.identity",
    "dt_hat": "dtseries.dt_hat",
    "dt_fib": "dtseries.dt_fib",
    "connected": "dtseries.connected",
    "f_d_compare": "dtseries.f_d_compare",
    "symprod_check": "dtseries.symprod_check",
}
DEFORM_ENTRIES = (
    "haiman_basis_2d",
    "vl_tangent_basis",
    "comb_fiber_arrow_classes",
    "tangent_dim",
    "behrend_sign",
)


def install(tracer, pkg):
    """Wrap the layer boundaries `check all` crosses, at the names callers look up.

    pkg is the imported ellipticdt package.  dtseries imports tilde_vertex,
    invert, power, compare and the product constructors by name, and cli
    imports compare by name, so those are wrapped in the importing module.
    Calls inside the series layer (power inverting, macmahon raising powers)
    are not boundaries: they count as the self time of the outer series span.
    """
    cli, dtseries, series, vertex, deform = (
        pkg.cli, pkg.dtseries, pkg.series, pkg.vertex, pkg.deform
    )
    wrap = tracer.wrap

    def vertex_note(args, rec):
        cfg, order = args[0], args[1]
        return (cfg.lam.parts, cfg.mu.parts, cfg.nu.parts), order, rec

    wrap(dtseries, "tilde_vertex", "vertex.tilde_vertex", vertex_note)
    wrap(vertex.VertexCache, "get", "vertex.cache_get", lambda args, rec: rec is not None)
    wrap(vertex.VertexCache, "put", "vertex.cache_put")
    wrap(series.PQSeries, "__mul__", "series.mul")
    wrap(series.PQSeries, "__add__", "series.add")
    wrap(dtseries, "invert", "series.invert")
    wrap(dtseries, "power", "series.power")
    for fn in SERIES_PRODUCTS:
        wrap(dtseries, fn, "series.products")
    for mod in (dtseries, cli):
        wrap(mod, "compare", "series.compare")
    for fn, name in DTSERIES_ENTRIES.items():
        wrap(dtseries, fn, name)
    for fn in DEFORM_ENTRIES:
        wrap(deform, fn, "deform." + fn)
    wrap(cli, "dispatch", "cli.dispatch")


def pass_metrics(spans):
    """Per-layer counts and times of one traced pass, plus its fresh configs.

    A tilde_vertex call is a memo hit when an earlier call of the same pass
    returned the same legs at an order at least as high (the memo keeps the
    highest order per legs and is cleared before every pass); otherwise it is
    a disk hit when one of its cache reads returned a record, and fresh (an
    enumeration) when none did.
    """
    self_time = [s[2] - s[1] for s in spans]
    disk_read = set()
    for s in spans:
        if s[3] >= 0:
            self_time[s[3]] -= s[2] - s[1]
            if s[0] == "vertex.cache_get" and s[4]:
                disk_read.add(s[3])

    calls, self_by_name = {}, {}
    for s, t in zip(spans, self_time):
        calls[s[0]] = calls.get(s[0], 0) + 1
        self_by_name[s[0]] = self_by_name.get(s[0], 0.0) + t

    best_order, fresh = {}, []
    memo_hits = disk_hits = 0
    enumerate_s = 0.0
    for i, s in enumerate(spans):
        if s[0] != "vertex.tilde_vertex":
            continue
        legs, order, rec = s[4]
        if best_order.get(legs, -1) >= order:
            memo_hits += 1
        elif i in disk_read:
            disk_hits += 1
        else:
            fresh.append((legs, order, rec))
            enumerate_s += self_time[i]
        best_order[legs] = max(best_order.get(legs, -1), order)

    def layer_self(prefix):
        return sum(t for n, t in self_by_name.items() if n.startswith(prefix))

    ideals = sum(sum(rec.counts) for _, _, rec in fresh)
    metrics = {
        "vertex.calls": calls.get("vertex.tilde_vertex", 0),
        "vertex.fresh": len(fresh),
        "vertex.memo_hits": memo_hits,
        "vertex.disk_hits": disk_hits,
        "vertex.enumerate_s": enumerate_s,
        "vertex.ideals": ideals,
        "vertex.ideals_per_s": ideals / enumerate_s if enumerate_s else 0.0,
        "vertex.cache_get_calls": calls.get("vertex.cache_get", 0),
        "vertex.cache_get_s": self_by_name.get("vertex.cache_get", 0.0),
        "vertex.cache_put_calls": calls.get("vertex.cache_put", 0),
        "vertex.cache_put_s": self_by_name.get("vertex.cache_put", 0.0),
        "vertex.self_s": layer_self("vertex."),
        "series.mul_calls": calls.get("series.mul", 0),
        "series.mul_s": self_by_name.get("series.mul", 0.0),
        "series.invert_calls": calls.get("series.invert", 0),
        "series.invert_s": self_by_name.get("series.invert", 0.0),
        "series.power_calls": calls.get("series.power", 0),
        "series.power_s": self_by_name.get("series.power", 0.0),
        "series.products_s": self_by_name.get("series.products", 0.0),
        "series.compare_calls": calls.get("series.compare", 0),
        "series.compare_s": self_by_name.get("series.compare", 0.0),
        "series.self_s": layer_self("series."),
        "dtseries.identity_s": self_by_name.get("dtseries.identity", 0.0),
        "dtseries.dt_hat_s": self_by_name.get("dtseries.dt_hat", 0.0),
        "dtseries.dt_fib_s": self_by_name.get("dtseries.dt_fib", 0.0),
        "dtseries.connected_s": self_by_name.get("dtseries.connected", 0.0),
        "dtseries.f_d_compare_s": self_by_name.get("dtseries.f_d_compare", 0.0),
        "dtseries.symprod_check_s": self_by_name.get("dtseries.symprod_check", 0.0),
        "dtseries.self_s": layer_self("dtseries."),
        "deform.self_s": layer_self("deform."),
        "cli.dispatch_s": sum(s[2] - s[1] for s in spans if s[0] == "cli.dispatch"),
        "cli.self_s": self_by_name.get("cli.dispatch", 0.0),
    }
    return metrics, fresh
