"""Command-line front end: compute, cache, compare, and report.

Exit codes: 0 when every requested equality holds on the common window, 2 on
the first discrepancy (the record is printed), 1 on usage or precondition
errors.  Output is deterministic: identical invocations produce byte-identical
output.  p-exponents are printed in half-units of p^(1/2); --p-window takes
whole p-units.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
from dataclasses import dataclass

from . import deform, dtseries
from .partitions import Partition, enumerate_partitions
from .series import HalfLaurent, SeriesError, WindowExhausted, compare
from .vertex import LegConfig, VertexCache, estimate_nodes, tilde_vertex

CACHE_ENV = "ELLIPTICDT_CACHE"

SURFACE_PAIRS = ((2, 24), (0, 12), (-2, 12), (2, 12))
FD_PAIRS = ((2, 12), (2, 24))


@dataclass
class RunConfig:
    command: str
    q_order: int = 4
    p_order: int = 8
    p_window: tuple | None = None
    eB: int = 2
    eS: int = 12
    legs: tuple | None = None
    smooth: tuple = ()
    nodal: tuple = ()
    smooth_fibers: tuple = ()
    nodal_fibers: tuple = ()
    side: str = "both"
    exponent: int | None = None
    random_tables: int = 20
    seed: int = 0
    fmt: str = "pretty"
    cache_dir: str | None = None
    show_arrows: bool = False

    def cache(self):
        path = self.cache_dir or os.environ.get(CACHE_ENV)
        return VertexCache(path) if path else None

    def window_halves(self):
        if self.p_window is not None:
            return (2 * self.p_window[0], 2 * self.p_window[1])
        return (-(2 * self.p_order + 2), 2 * self.p_order + 2)


def _parse_partition(text):
    try:
        return Partition.parse(text)
    except ValueError as exc:
        raise UsageError(str(exc))


def _parse_legs(text):
    slots = text.split(";")
    if len(slots) != 3:
        raise UsageError('--legs needs three ";"-separated slots, empty for the empty partition')
    return tuple(_parse_partition(s) for s in slots)


def _parse_partition_list(text):
    text = text.strip()
    if not text:
        return ()
    return tuple(_parse_partition(s) for s in text.split(";"))


def _parse_int_list(text):
    text = text.strip()
    if not text:
        return ()
    try:
        vals = tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise UsageError(str(exc))
    if any(v < 1 for v in vals):
        raise UsageError("multiplicities must be positive")
    return vals


def _parse_window(text):
    try:
        lo, hi = text.split(":")
        return (int(lo), int(hi))
    except ValueError:
        raise UsageError("--p-window expects lo:hi in whole p-units")


class UsageError(Exception):
    pass


def _emit_json(payload, out):
    out.write(json.dumps(payload, sort_keys=True, indent=2))
    out.write("\n")


def _emit_series_csv(series, out):
    out.write("d,exp_half,coefficient\n")
    for d, hl in enumerate(series.coeffs):
        for e, v in hl.items():
            out.write("%d,%d,%s\n" % (d, e, v))


def _emit_comparison_csv(report, out):
    out.write("d,exp_half,lhs,rhs\n")
    for d in range(report.q_order + 1):
        ca, cb = report.side_a.coeffs[d], report.side_b.coeffs[d]
        for e in sorted(set(ca.c) | set(cb.c)):
            out.write("%d,%d,%s,%s\n" % (d, e, ca[e], cb[e]))


def _verdict_lines(report, out, table=True):
    if table:
        out.write("%6s %10s %16s %16s\n" % ("q", "p(half)", "side_a", "side_b"))
        for d in range(report.q_order + 1):
            lo, hi = report.regions[d]
            ca, cb = report.side_a.coeffs[d], report.side_b.coeffs[d]
            for e in sorted(set(ca.c) | set(cb.c)):
                if lo is not None and e < lo:
                    continue
                if hi is not None and e > hi:
                    continue
                out.write("%6d %10d %16s %16s\n" % (d, e, ca[e], cb[e]))
    lo, hi = report.window()
    if report.equal:
        out.write("EQUAL on window [%d, %d] (half-units) to q^%d\n" % (lo, hi, report.q_order))
        return 0
    d, e, lhs, rhs = report.first_discrepancy
    out.write(
        "DISCREPANCY at q^%d p-exponent %d/2: lhs=%s rhs=%s\n" % (d, e, lhs, rhs)
    )
    return 2


def _report_payload(report):
    return report.to_json_dict()


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_vertex(cfg, out):
    lam, mu, nu = cfg.legs
    leg = LegConfig(lam, mu, nu)
    if cfg.p_order > 12 or leg.total_size() > 6:
        (boxes,) = estimate_nodes(leg, cfg.p_order)
        sys.stderr.write(
            "warning: large enumeration (order %d, total leg size %d): "
            "candidate poset has %d boxes\n" % (cfg.p_order, leg.total_size(), boxes)
        )
    rec = tilde_vertex(leg, cfg.p_order, cfg.cache())
    if cfg.fmt == "json":
        payload = rec.to_json_dict()
        payload["key"] = leg.canonical_key(cfg.p_order)
        _emit_json(payload, out)
    elif cfg.fmt == "csv":
        out.write("n,count\n")
        for n, c in enumerate(rec.counts):
            out.write("%d,%s\n" % (n, c))
    else:
        out.write("legs: %s | %s | %s\n" % (lam.to_string() or "-", mu.to_string() or "-", nu.to_string() or "-"))
        out.write("normalized counts to p^%d: %s\n" % (cfg.p_order, ", ".join(str(c) for c in rec.counts)))
        out.write("minimal volume: %d (usual vertex = p^%d * normalized)\n" % (rec.min_volume, rec.min_volume))
    return 0


def _both_sides(cfg, maker, sides, out):
    cache = cfg.cache()
    pw = cfg.window_halves()
    if cfg.side == "both":
        a = maker(sides[0], pw, cache)
        b = maker(sides[1], pw, cache)
        report = compare(a, b)
        if cfg.fmt == "json":
            _emit_json(_report_payload(report), out)
            return 0 if report.equal else 2
        if cfg.fmt == "csv":
            _emit_comparison_csv(report, out)
            return 0 if report.equal else 2
        return _verdict_lines(report, out)
    series = maker(cfg.side, pw, cache)
    if cfg.fmt == "json":
        _emit_json(series.to_json_dict(), out)
    elif cfg.fmt == "csv":
        _emit_series_csv(series, out)
    else:
        out.write(series.pretty() + "\n")
    return 0


def _cmd_dt(cfg, out):
    surf = dtseries.SurfaceData(cfg.eB, cfg.eS)

    def maker(side, pw, cache):
        return dtseries.dt_hat(surf, cfg.q_order, cfg.p_order, side, pw, cache)

    return _both_sides(cfg, maker, ("sum", "product"), out)


def _cmd_dtfib(cfg, out):
    surf = dtseries.SurfaceData(cfg.eB, cfg.eS)

    def maker(side, pw, cache):
        return dtseries.dt_fib(surf, cfg.q_order, cfg.p_order, side, pw, cache)

    return _both_sides(cfg, maker, ("sum", "product"), out)


def _cmd_connected(cfg, out):
    surf = dtseries.SurfaceData(cfg.eB, cfg.eS)

    def maker(side, pw, cache):
        return dtseries.connected(surf, cfg.q_order, cfg.p_order, side, pw, cache)

    return _both_sides(cfg, maker, ("ratio", "jacobi"), out)


def _cmd_kkv(cfg, out):
    cfg.eB, cfg.eS = 2, 24
    surf = dtseries.SurfaceData(2, 24)
    ser = dtseries.connected(surf, cfg.q_order, cfg.p_order, "jacobi", cfg.window_halves(), cfg.cache())
    q0 = ser.coefficient(0)
    hi = min(ser.windows[0][1], 2 * cfg.p_order)
    ok = all(q0[e] == (e // 2 if e % 2 == 0 and e >= 2 else 0) for e in range(ser.windows[0][0], hi + 1))
    if cfg.fmt == "json" and cfg.side == "both":
        a = dtseries.connected(surf, cfg.q_order, cfg.p_order, "ratio", cfg.window_halves(), cfg.cache())
        report = compare(a, ser)
        payload = _report_payload(report)
        payload["kkv_q0_specialization"] = ok
        _emit_json(payload, out)
        return 0 if (report.equal and ok) else 2
    status = _cmd_connected(cfg, out)
    if cfg.fmt == "pretty":
        out.write("KKV q^0 specialization p/(1-p)^2: %s\n" % ("PASS" if ok else "FAIL"))
    return status if ok else 2


def _cmd_fd(cfg, out):
    surf = dtseries.SurfaceData(cfg.eB, cfg.eS)
    pc = dtseries.PointConfig(cfg.smooth, cfg.nodal)
    report = dtseries.f_d_compare(pc, surf, cfg.p_order, cfg.cache())
    if cfg.fmt == "json":
        _emit_json(_report_payload(report), out)
        return 0 if report.equal else 2
    if cfg.fmt == "csv":
        _emit_comparison_csv(report, out)
        return 0 if report.equal else 2
    out.write("factored: %s\n" % report.side_a.pretty())
    out.write("strata:   %s\n" % report.side_b.pretty())
    return _verdict_lines(report, out)


def _cmd_tangent(cfg, out):
    surf = dtseries.SurfaceData(cfg.eB, cfg.eS)
    desc = deform.CombCurveDescriptor(surf, cfg.smooth_fibers, cfg.nodal_fibers)
    ed = deform.euler_data(surf)
    payload = {
        "euler_data": {
            "chiOS": ed.chiOS,
            "chiOB": ed.chiOB,
            "h0_NBT": ed.h0_NBT,
            "h0_NBS": ed.h0_NBS,
        },
        "chi_OC": deform.chi_OC(desc),
        "tangent_dim": deform.tangent_dim(desc),
        "behrend_sign": deform.behrend_sign(desc),
        "fibers": [],
    }
    for lam in desc.all_fibers():
        entry = {
            "partition": list(lam.parts),
            "arrow_classes": deform.comb_fiber_arrow_classes(lam),
            "haiman_basis_size": len(deform.haiman_basis_2d(lam)),
            "vl_basis_size": len(deform.vl_tangent_basis(lam)),
        }
        if cfg.show_arrows:
            entry["arrows"] = [
                {"tail": list(ar.tail), "head": list(ar.head), "kind": ar.kind}
                for ar in deform.haiman_basis_2d(lam)
            ]
        payload["fibers"].append(entry)
    if cfg.fmt == "json":
        _emit_json(payload, out)
    else:
        out.write("chi(O_S)=%d chi(O_B)=%d h0(N_B/T)=%d h0(N_B/S)=%d\n" % (ed.chiOS, ed.chiOB, ed.h0_NBT, ed.h0_NBS))
        out.write("chi(O_C)=%d tangent_dim=%d behrend_sign=%+d\n" % (payload["chi_OC"], payload["tangent_dim"], payload["behrend_sign"]))
        for entry in payload["fibers"]:
            out.write(
                "fiber %s: 2d=%d arrows, stratum basis %d, comb classes %d\n"
                % (
                    entry["partition"],
                    entry["haiman_basis_size"],
                    entry["vl_basis_size"],
                    entry["arrow_classes"],
                )
            )
            if cfg.show_arrows:
                for ar in entry["arrows"]:
                    out.write("  %s -> %s (%s)\n" % (tuple(ar["tail"]), tuple(ar["head"]), ar["kind"]))
    return 0


def _random_g_table(rng, q_order):
    table = {}
    for a in range(1, q_order + 1):
        lo = rng.randint(-3, 0)
        hi = lo + rng.randint(0, 4)
        terms = {2 * e: rng.randint(-5, 5) for e in range(lo, hi + 1)}
        table[a] = HalfLaurent(terms)
    return table


def _cmd_symprod(cfg, out):
    exponents = [cfg.exponent] if cfg.exponent is not None else list(range(-3, 4))
    failures = 0
    lines = []
    ones = {a: HalfLaurent({0: 1}) for a in range(1, cfg.q_order + 1)}
    for e in exponents:
        rep = dtseries.symprod_check(ones, e, cfg.q_order)
        lines.append(("symprod-constant-e%+d" % e, rep))
    rng = random.Random(cfg.seed)
    for i in range(cfg.random_tables):
        table = _random_g_table(rng, cfg.q_order)
        for e in exponents:
            rep = dtseries.symprod_check(table, e, cfg.q_order)
            lines.append(("symprod-random%02d-e%+d" % (i, e), rep))
    results = []
    for name, rep in lines:
        ok = rep.equal
        failures += 0 if ok else 1
        results.append({"check": name, "equal": ok})
        if cfg.fmt == "pretty":
            out.write("%s %s\n" % ("PASS" if ok else "FAIL", name))
    if cfg.fmt == "json":
        _emit_json({"results": results, "failures": failures}, out)
    return 0 if failures == 0 else 2


def _fd_configs(max_degree):
    """Every composition of d <= max_degree with every smooth/nodal assignment."""
    out = [dtseries.PointConfig((), ())]
    for d in range(1, max_degree + 1):
        for k in range(1, d + 1):
            for comp in itertools.product(range(1, d + 1), repeat=k):
                if sum(comp) != d:
                    continue
                for mask in range(1 << k):
                    smooth = tuple(comp[i] for i in range(k) if not (mask >> i) & 1)
                    nodal = tuple(comp[i] for i in range(k) if (mask >> i) & 1)
                    out.append(dtseries.PointConfig(smooth, nodal))
    return out


def _check_all(cfg, out):
    cache = cfg.cache()
    pw = cfg.window_halves()
    results = []

    def record(name, ok, detail=""):
        results.append((name, ok, detail))

    def run_compare(name, a, b, **kw):
        try:
            rep = compare(a, b, **kw)
            record(name, rep.equal, "" if rep.equal else repr(rep.first_discrepancy))
        except SeriesError as exc:
            record(name, False, str(exc))

    for name, fn in (
        ("identity-a", dtseries.identity_a),
        ("identity-b", dtseries.identity_b),
        ("identity-c", dtseries.identity_c),
    ):
        lhs, rhs = fn(cfg.q_order, cfg.p_order, cache, pw)
        run_compare(name, lhs, rhs)

    for eB, eS in SURFACE_PAIRS:
        surf = dtseries.SurfaceData(eB, eS)
        run_compare(
            "dt-cross-eB%+d-eS%d" % (eB, eS),
            dtseries.dt_hat(surf, cfg.q_order, cfg.p_order, "sum", pw, cache),
            dtseries.dt_hat(surf, cfg.q_order, cfg.p_order, "product", pw, cache),
        )
        run_compare(
            "dtfib-cross-eB%+d-eS%d" % (eB, eS),
            dtseries.dt_fib(surf, cfg.q_order, cfg.p_order, "sum", pw, cache),
            dtseries.dt_fib(surf, cfg.q_order, cfg.p_order, "product", pw, cache),
        )
        run_compare(
            "connected-cross-eB%+d-eS%d" % (eB, eS),
            dtseries.connected(surf, cfg.q_order, cfg.p_order, "ratio", pw, cache),
            dtseries.connected(surf, cfg.q_order, cfg.p_order, "jacobi", pw, cache),
        )

    for eB, eS in FD_PAIRS:
        surf = dtseries.SurfaceData(eB, eS)
        ok = True
        detail = ""
        for pc in _fd_configs(4):
            rep = dtseries.f_d_compare(pc, surf, cfg.p_order, cache)
            if not rep.equal:
                ok = False
                detail = "config a=%s b=%s: %r" % (pc.a, pc.b, rep.first_discrepancy)
                break
        record("fd-cross-eB%+d-eS%d" % (eB, eS), ok, detail)

    ones = {a: HalfLaurent({0: 1}) for a in range(1, cfg.q_order + 1)}
    ok = all(dtseries.symprod_check(ones, e, cfg.q_order).equal for e in range(-3, 4))
    record("symprod-constant", ok)
    rng = random.Random(cfg.seed)
    ok = True
    for _ in range(cfg.random_tables):
        table = _random_g_table(rng, cfg.q_order)
        for e in range(-3, 4):
            if not dtseries.symprod_check(table, e, cfg.q_order).equal:
                ok = False
    record("symprod-random", ok)

    ok = True
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            if len(deform.haiman_basis_2d(lam)) != 2 * n:
                ok = False
            if len(deform.vl_tangent_basis(lam)) != 2 * n - lam.first_part():
                ok = False
            if deform.comb_fiber_arrow_classes(lam) != 2 * n - lam.first_part():
                ok = False
    record("arrow-counts", ok)

    ok = True
    for eB, eS in ((2, 12), (2, 24), (0, 12)):
        surf = dtseries.SurfaceData(eB, eS)
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                for as_nodal in (False, True):
                    desc = deform.CombCurveDescriptor(
                        surf, () if as_nodal else (lam,), (lam,) if as_nodal else ()
                    )
                    want = -1 if deform.tangent_dim(desc) % 2 else 1
                    if deform.behrend_sign(desc) != want:
                        ok = False
    record("tangent-parity", ok)

    failures = [r for r in results if not r[1]]
    if cfg.fmt == "json":
        _emit_json(
            {"results": [{"check": n, "equal": okf, "detail": det} for n, okf, det in results]},
            out,
        )
    else:
        for name, okflag, detail in results:
            line = "%s %s" % ("PASS" if okflag else "FAIL", name)
            if detail:
                line += "  [%s]" % detail
            out.write(line + "\n")
    return 0 if not failures else 2


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ellipticdt",
        description="Exact vertex enumeration and curve-counting series for local elliptic surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, eb_es=False, window=False):
        p.add_argument("--q-order", type=int, default=4)
        p.add_argument("--p-order", type=int, default=8)
        p.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
        p.add_argument("--cache-dir", default=None)
        if eb_es:
            p.add_argument("--eB", type=int, default=2)
            p.add_argument("--eS", type=int, default=12)
        if window:
            p.add_argument("--p-window", default=None, help="lo:hi in whole p-units")

    p = sub.add_parser("vertex", help="normalized vertex for a leg triple")
    p.add_argument("--legs", required=True, help='three ";"-separated partitions, e.g. "2,1;;"')
    common(p)

    for name, hlp in (
        ("dt", "section-class partition function, sum and/or product side"),
        ("dtfib", "fiber-class partition function, sum and/or product side"),
    ):
        p = sub.add_parser(name, help=hlp)
        p.add_argument("--side", choices=("sum", "product", "both"), default="both")
        common(p, eb_es=True, window=True)

    p = sub.add_parser("connected", help="connected series, ratio and/or Jacobi-form side")
    p.add_argument("--side", choices=("ratio", "jacobi", "both"), default="both")
    common(p, eb_es=True, window=True)

    p = sub.add_parser("kkv", help="connected series of the K3 case (eB=2, eS=24)")
    p.add_argument("--side", choices=("ratio", "jacobi", "both"), default="both")
    common(p, window=True)

    p = sub.add_parser("fd", help="pushforward weight at a point configuration, both modes")
    p.add_argument("--smooth", default="", help="comma list of smooth-point multiplicities")
    p.add_argument("--nodal", default="", help="comma list of nodal-point multiplicities")
    common(p, eb_es=True)

    p = sub.add_parser("tangent", help="deformation data for a thickened comb curve")
    p.add_argument("--smooth-fibers", default="", help='";"-separated partitions')
    p.add_argument("--nodal-fibers", default="", help='";"-separated partitions')
    p.add_argument("--arrows", action="store_true", help="list the arrow basis")
    common(p, eb_es=True)

    p = sub.add_parser("symprod-check", help="symmetric-product expansion checks")
    p.add_argument("--exponent", type=int, default=None)
    p.add_argument("--random", type=int, default=20, dest="random_tables")
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("check", help="run the identity suite")
    p.add_argument("what", nargs="?", default="all", choices=("all",))
    p.add_argument("--random", type=int, default=20, dest="random_tables")
    p.add_argument("--seed", type=int, default=0)
    common(p, window=True)

    return parser


def _to_runconfig(ns):
    cfg = RunConfig(command=ns.command)
    cfg.q_order = getattr(ns, "q_order", 4)
    cfg.p_order = getattr(ns, "p_order", 8)
    if cfg.q_order < 0 or cfg.p_order < 0:
        raise UsageError("--q-order and --p-order must be nonnegative")
    cfg.fmt = getattr(ns, "format", "pretty")
    cfg.cache_dir = getattr(ns, "cache_dir", None)
    cfg.eB = getattr(ns, "eB", 2)
    cfg.eS = getattr(ns, "eS", 12)
    cfg.side = getattr(ns, "side", "both")
    cfg.exponent = getattr(ns, "exponent", None)
    cfg.random_tables = getattr(ns, "random_tables", 20)
    cfg.seed = getattr(ns, "seed", 0)
    cfg.show_arrows = getattr(ns, "arrows", False)
    if getattr(ns, "p_window", None):
        cfg.p_window = _parse_window(ns.p_window)
    if getattr(ns, "legs", None):
        cfg.legs = _parse_legs(ns.legs)
    if hasattr(ns, "smooth"):
        cfg.smooth = _parse_int_list(ns.smooth)
        cfg.nodal = _parse_int_list(ns.nodal)
    if hasattr(ns, "smooth_fibers"):
        cfg.smooth_fibers = _parse_partition_list(ns.smooth_fibers)
        cfg.nodal_fibers = _parse_partition_list(ns.nodal_fibers)
    return cfg


DISPATCH = {
    "vertex": _cmd_vertex,
    "dt": _cmd_dt,
    "dtfib": _cmd_dtfib,
    "connected": _cmd_connected,
    "kkv": _cmd_kkv,
    "fd": _cmd_fd,
    "tangent": _cmd_tangent,
    "symprod-check": _cmd_symprod,
    "check": _check_all,
}


def dispatch(cfg, out=None):
    out = out or sys.stdout
    return DISPATCH[cfg.command](cfg, out)


def main(argv=None):
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        cfg = _to_runconfig(ns)
        return dispatch(cfg)
    except UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except WindowExhausted as exc:
        sys.stderr.write("window exhausted: %s\ntry a larger --p-order\n" % exc)
        return 1
    except (ValueError, SeriesError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
