"""Command-line front end: compute, cache, compare, and report.

Exit codes: 0 when every requested equality holds on the common window, 2 on
the first discrepancy (the record is printed), 1 on usage or precondition
errors.  Output is deterministic: identical invocations produce byte-identical
output.  p-exponents are printed in half-units of p^(1/2); --p-window takes
whole p-units.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import random
import sys

from . import deform, dtseries
from .partitions import Partition, enumerate_partitions
from .series import HalfLaurent, SeriesError, WindowExhausted, compare
from .vertex import LegConfig, VertexCache, estimate_nodes, tilde_vertex

CACHE_ENV = "ELLIPTICDT_CACHE"

SURFACE_PAIRS = ((2, 24), (0, 12), (-2, 12), (2, 12))
FD_PAIRS = ((2, 12), (2, 24))

# command -> (name of its dtseries function, the function's two sides, the
# command's help).  The function is looked up on dtseries at each call, never
# stored, so a wrapper set on the module attribute after import sees every call.
COMPARISONS = {
    "dt": ("dt_hat", ("sum", "product"), "section-class partition function, sum and/or product side"),
    "dtfib": ("dt_fib", ("sum", "product"), "fiber-class partition function, sum and/or product side"),
    "connected": ("connected", ("ratio", "jacobi"), "connected series, ratio and/or Jacobi-form side"),
}


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


def _order(text):
    """A nonnegative integer, the value of --q-order or --p-order."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative, got %d" % value)
    return value


def _parse_window(text):
    """Whole p-units "lo:hi" as a half-unit window; empty text is the default window."""
    if not text:
        return None
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:
        raise UsageError("--p-window expects lo:hi in whole p-units")
    if lo > hi:
        raise UsageError("--p-window %s is empty: lo exceeds hi" % text)
    return (2 * lo, 2 * hi)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are usage errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise UsageError("%s\n%s" % (message, self.format_usage().rstrip()))


def _cache(ns):
    path = ns.cache_dir or os.environ.get(CACHE_ENV)
    return VertexCache(path) if path else None


def _emit(fmt, out, payload, rows, lines):
    """Write one command's output: the JSON payload, the CSV rows (header
    first) or the pretty lines."""
    if fmt == "json":
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    elif fmt == "csv":
        csv.writer(out, lineterminator="\n").writerows(rows)
    else:
        out.writelines(line + "\n" for line in lines)


def _series_rows(series):
    yield "d", "exp_half", "coefficient"
    for d, hl in enumerate(series.coeffs):
        for e, v in hl.items():
            yield d, e, v


def _verdict_lines(report):
    yield "%6s %10s %16s %16s" % ("q", "p(half)", "side_a", "side_b")
    for row in report.pairs(in_region=True):
        yield "%6d %10d %16s %16s" % row
    lo, hi = report.window()
    if report.equal:
        yield "EQUAL on window [%d, %d] (half-units) to q^%d" % (lo, hi, report.q_order)
    else:
        yield "DISCREPANCY at q^%d p-exponent %d/2: lhs=%s rhs=%s" % report.first_discrepancy


def _emit_report(report, fmt, out, head=(), tail=(), **extra):
    """Write one comparison in fmt, JSON with the extra keys, the pretty table
    between the head and tail lines; return the exit code."""
    rows = itertools.chain([("d", "exp_half", "lhs", "rhs")], report.pairs())
    lines = itertools.chain(head, _verdict_lines(report), tail)
    _emit(fmt, out, dict(report.to_json_dict(), **extra), rows, lines)
    return 0 if report.equal else 2


def _emit_results(results, fmt, payload, out):
    """Write (name, equal, detail) results; return the exit code.

    pretty prints one PASS/FAIL line per check, csv one check,equal,detail
    row, json the payload the calling command built from the same results.
    """
    lines = (
        "%s %s" % ("PASS" if ok else "FAIL", name) + ("  [%s]" % detail if detail else "")
        for name, ok, detail in results
    )
    _emit(fmt, out, payload, [("check", "equal", "detail")] + results, lines)
    return 0 if all(ok for _, ok, _ in results) else 2


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_vertex(ns, out):
    lam, mu, nu = ns.legs
    leg = LegConfig(lam, mu, nu)
    if ns.p_order > 12 or leg.total_size() > 6:
        (boxes,) = estimate_nodes(leg, ns.p_order)
        sys.stderr.write(
            "warning: large enumeration (order %d, total leg size %d): "
            "candidate poset has %d boxes\n" % (ns.p_order, leg.total_size(), boxes)
        )
    rec = tilde_vertex(leg, ns.p_order, _cache(ns))
    lines = (
        "legs: %s | %s | %s" % (lam.to_string() or "-", mu.to_string() or "-", nu.to_string() or "-"),
        "normalized counts to p^%d: %s" % (ns.p_order, ", ".join(str(c) for c in rec.counts)),
        "minimal volume: %d (usual vertex = p^%d * normalized)" % (rec.min_volume, rec.min_volume),
    )
    payload = dict(rec.to_json_dict(), key=leg.canonical_key(ns.p_order))
    _emit(ns.format, out, payload, [("n", "count")] + list(enumerate(rec.counts)), lines)
    return 0


def _cmd_compare(ns, out, command=None, built=None, tail=(), **extra):
    """One side of a COMPARISONS command, or both sides compared.

    command defaults to ns.command; built maps a side already built by the
    caller to its series; tail lines end the pretty output; extra keys go
    into the JSON report.
    """
    fn_name, sides, _ = COMPARISONS[command or ns.command]
    surf = dtseries.SurfaceData(ns.eB, ns.eS)
    cache = _cache(ns)

    def build(side):
        if built and side in built:
            return built[side]
        return getattr(dtseries, fn_name)(surf, ns.q_order, ns.p_order, side, ns.p_window, cache)

    if ns.side == "both":
        a, b = map(build, sides)
        return _emit_report(compare(a, b), ns.format, out, tail=tail, **extra)
    series = build(ns.side)
    _emit(ns.format, out, series.to_json_dict(), _series_rows(series), (series.pretty(), *tail))
    return 0


def _cmd_kkv(ns, out):
    """The connected comparison of the K3 case plus its q^0 term p/(1-p)^2."""
    surf = dtseries.SurfaceData(ns.eB, ns.eS)
    ser = dtseries.connected(surf, ns.q_order, ns.p_order, "jacobi", ns.p_window, _cache(ns))
    q0 = ser.coeffs[0]
    hi = min(ser.windows[0][1], 2 * ns.p_order)
    ok = all(q0[e] == (e // 2 if e % 2 == 0 and e >= 2 else 0) for e in range(ser.windows[0][0], hi + 1))
    tail = ("KKV q^0 specialization p/(1-p)^2: %s" % ("PASS" if ok else "FAIL"),)
    status = _cmd_compare(ns, out, "connected", {"jacobi": ser}, tail, kkv_q0_specialization=ok)
    return status if ok else 2


def _cmd_fd(ns, out):
    surf = dtseries.SurfaceData(ns.eB, ns.eS)
    pc = dtseries.PointConfig(ns.smooth, ns.nodal)
    report = dtseries.f_d_compare(pc, surf, ns.p_order, _cache(ns))
    head = ("factored: %s" % report.side_a.pretty(), "strata:   %s" % report.side_b.pretty())
    return _emit_report(report, ns.format, out, head)


def _cmd_tangent(ns, out):
    surf = dtseries.SurfaceData(ns.eB, ns.eS)
    desc = deform.CombCurveDescriptor(surf, ns.smooth_fibers, ns.nodal_fibers)
    ed = deform.euler_data(surf)
    payload = {
        "euler_data": ed._asdict(),
        "chi_OC": deform.chi_OC(desc),
        "tangent_dim": deform.tangent_dim(desc),
        "behrend_sign": deform.behrend_sign(desc),
        "fibers": [],
    }
    rows = [("partition", "arrow_classes", "haiman_basis_size", "vl_basis_size")]
    lines = [
        "chi(O_S)=%d chi(O_B)=%d h0(N_B/T)=%d h0(N_B/S)=%d" % tuple(ed),
        "chi(O_C)=%(chi_OC)d tangent_dim=%(tangent_dim)d behrend_sign=%(behrend_sign)+d" % payload,
    ]
    for lam in desc.all_fibers():
        basis = deform.haiman_basis_2d(lam)
        classes, vl = deform.comb_fiber_arrow_classes(lam), len(deform.vl_tangent_basis(lam))
        entry = {"partition": list(lam.parts), "arrow_classes": classes,
                 "haiman_basis_size": len(basis), "vl_basis_size": vl}
        rows.append((lam.to_string(), classes, len(basis), vl))
        lines.append("fiber %s: 2d=%d arrows, stratum basis %d, comb classes %d"
                     % (entry["partition"], len(basis), vl, classes))
        if ns.arrows:
            entry["arrows"] = [
                {"tail": list(ar.tail), "head": list(ar.head), "kind": ar.kind} for ar in basis
            ]
            lines += ["  %s -> %s (%s)" % (ar.tail, ar.head, ar.kind) for ar in basis]
        payload["fibers"].append(entry)
    _emit(ns.format, out, payload, rows, lines)
    return 0


def _random_g_table(rng, q_order):
    table = {}
    for a in range(1, q_order + 1):
        lo = rng.randint(-3, 0)
        hi = lo + rng.randint(0, 4)
        terms = {2 * e: rng.randint(-5, 5) for e in range(lo, hi + 1)}
        table[a] = HalfLaurent(terms)
    return table


def _symprod_results(q_order, exponents, seed, random_tables):
    """Yield (group, name, equal) for each symmetric-product check.

    The constant table g = 1 comes first (group "symprod-constant"), then
    random_tables tables drawn from random.Random(seed) (group
    "symprod-random"), each checked at every exponent.
    """
    ones = {a: HalfLaurent({0: 1}) for a in range(1, q_order + 1)}
    for e, rep in zip(exponents, dtseries.symprod_check(ones, exponents, q_order)):
        yield "symprod-constant", "symprod-constant-e%+d" % e, rep.equal
    rng = random.Random(seed)
    for i in range(random_tables):
        table = _random_g_table(rng, q_order)
        for e, rep in zip(exponents, dtseries.symprod_check(table, exponents, q_order)):
            yield "symprod-random", "symprod-random%02d-e%+d" % (i, e), rep.equal


def _cmd_symprod(ns, out):
    if ns.random_tables < 0:
        raise UsageError("--random must be nonnegative")
    exponents = [ns.exponent] if ns.exponent is not None else range(-3, 4)
    results = [
        (name, ok, "")
        for _, name, ok in _symprod_results(ns.q_order, exponents, ns.seed, ns.random_tables)
    ]
    payload = {
        "results": [{"check": name, "equal": ok} for name, ok, _ in results],
        "failures": sum(not ok for _, ok, _ in results),
    }
    return _emit_results(results, ns.format, payload, out)


def point_configs(max_degree):
    """Every (smooth, nodal) pair of compositions of total <= max_degree, once, by degree."""
    comps = [[()]]  # comps[n]: the compositions of n
    for n in range(1, max_degree + 1):
        comps.append([(k,) + rest for k in range(1, n + 1) for rest in comps[n - k]])
    return [
        dtseries.PointConfig(a, b)
        for d in range(max_degree + 1)
        for n in range(d + 1)
        for a in comps[n]
        for b in comps[d - n]
    ]


def _compared(name, a, b):
    try:
        rep = compare(a, b)
    except SeriesError as exc:
        return name, False, str(exc)
    return name, rep.equal, "" if rep.equal else repr(rep.first_discrepancy)


def suite(q_order, p_order, p_window, cache, seed, random_tables):
    """Yield (name, equal, detail) for each of the 21 checks of `check all`.

    p_window is in half-units, or None for the default window of p_order.
    detail is empty for a passing check; for a failing one it names the
    first discrepancy or the error that stopped the comparison.
    """
    # fd-cross reads the rows up to degree 4, the other checks those up to
    # q_order: one note, so the pass counts every config it needs in one walk
    dtseries.note_rows(max(q_order, 4), p_order, cache)
    for name, fn in (
        ("identity-a", dtseries.identity_a),
        ("identity-b", dtseries.identity_b),
        ("identity-c", dtseries.identity_c),
    ):
        lhs, rhs = fn(q_order, p_order, cache, p_window)
        yield _compared(name, lhs, rhs)

    for eB, eS in SURFACE_PAIRS:
        surf = dtseries.SurfaceData(eB, eS)
        for command, (fn_name, sides, _) in COMPARISONS.items():
            fn = getattr(dtseries, fn_name)
            a, b = (fn(surf, q_order, p_order, side, p_window, cache) for side in sides)
            yield _compared("%s-cross-eB%+d-eS%d" % (command, eB, eS), a, b)

    for eB, eS in FD_PAIRS:
        surf = dtseries.SurfaceData(eB, eS)
        name = "fd-cross-eB%+d-eS%d" % (eB, eS)
        for pc in point_configs(4):
            rep = dtseries.f_d_compare(pc, surf, p_order, cache)
            if not rep.equal:
                yield name, False, "config a=%s b=%s: %r" % (pc.a, pc.b, rep.first_discrepancy)
                break
        else:
            yield name, True, ""

    verdicts = {"symprod-constant": True, "symprod-random": True}
    for group, _, ok in _symprod_results(q_order, range(-3, 4), seed, random_tables):
        verdicts[group] = verdicts[group] and ok
    for name, ok in verdicts.items():
        yield name, ok, ""

    ok = True
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            if len(deform.haiman_basis_2d(lam)) != 2 * n:
                ok = False
            if len(deform.vl_tangent_basis(lam)) != 2 * n - lam.first_part():
                ok = False
            if deform.comb_fiber_arrow_classes(lam) != 2 * n - lam.first_part():
                ok = False
    yield "arrow-counts", ok, ""

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
    yield "tangent-parity", ok, ""


def _cmd_check(ns, out):
    if ns.random_tables < 1:
        # with no table checked, symprod-random would pass vacuously
        raise UsageError("--random must be positive")
    results = list(
        suite(ns.q_order, ns.p_order, ns.p_window, _cache(ns), ns.seed, ns.random_tables)
    )
    payload = {"results": [{"check": n, "equal": ok, "detail": d} for n, ok, d in results]}
    return _emit_results(results, ns.format, payload, out)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


def build_parser():
    parser = _Parser(
        prog="ellipticdt",
        description="Exact vertex enumeration and curve-counting series for local elliptic surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, q_order=True, p_order=True, cache=True, eb_es=False, window=False):
        """Give p --format and the flags its command reads."""
        if q_order:
            p.add_argument("--q-order", type=_order, default=4)
        if p_order:
            p.add_argument("--p-order", type=_order, default=8)
        p.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
        if cache:
            p.add_argument("--cache-dir", default=None)
        if eb_es:
            p.add_argument("--eB", type=int, default=2)
            p.add_argument("--eS", type=int, default=12)
        if window:
            p.add_argument("--p-window", type=_parse_window, default=None, help="lo:hi in whole p-units")

    p = sub.add_parser("vertex", help="normalized vertex for a leg triple")
    p.add_argument("--legs", type=_parse_legs, required=True, help='three ";"-separated partitions, e.g. "2,1;;"')
    p.set_defaults(run=_cmd_vertex)
    common(p, q_order=False)

    for command, (_, sides, hlp) in COMPARISONS.items():
        p = sub.add_parser(command, help=hlp)
        p.add_argument("--side", choices=sides + ("both",), default="both")
        p.set_defaults(run=_cmd_compare)
        common(p, eb_es=True, window=True)

    p = sub.add_parser("kkv", help="connected series of the K3 case (eB=2, eS=24)")
    p.add_argument("--side", choices=COMPARISONS["connected"][1] + ("both",), default="both")
    p.set_defaults(eB=2, eS=24, run=_cmd_kkv)
    common(p, window=True)

    p = sub.add_parser("fd", help="pushforward weight at a point configuration, both modes")
    p.add_argument("--smooth", type=_parse_int_list, default="", help="comma list of smooth-point multiplicities")
    p.add_argument("--nodal", type=_parse_int_list, default="", help="comma list of nodal-point multiplicities")
    p.set_defaults(run=_cmd_fd)
    common(p, q_order=False, eb_es=True)

    p = sub.add_parser("tangent", help="deformation data for a thickened comb curve")
    p.add_argument("--smooth-fibers", type=_parse_partition_list, default="", help='";"-separated partitions')
    p.add_argument("--nodal-fibers", type=_parse_partition_list, default="", help='";"-separated partitions')
    p.add_argument("--arrows", action="store_true", help="list the arrow basis")
    p.set_defaults(run=_cmd_tangent)
    common(p, q_order=False, p_order=False, cache=False, eb_es=True)

    p = sub.add_parser("symprod-check", help="symmetric-product expansion checks")
    p.add_argument("--exponent", type=int, default=None)
    p.add_argument("--random", type=int, default=20, dest="random_tables")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_symprod)
    common(p, p_order=False, cache=False)

    p = sub.add_parser("check", help="run the identity suite")
    p.add_argument("what", nargs="?", default="all", choices=("all",))
    p.add_argument("--random", type=int, default=20, dest="random_tables")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_check)
    common(p, window=True)

    return parser


def dispatch(ns, out=None):
    """Run the handler that build_parser bound to ns's command."""
    return ns.run(ns, out or sys.stdout)


def main(argv=None):
    parser = build_parser()
    try:
        return dispatch(parser.parse_args(argv))
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
