"""Acceptance suite: every criterion at its stated order, all equalities exact.

Each test prints one PASS/FAIL line (run pytest with -s to see them inline).
All comparisons are integer-exact on the declared windows; there are no
tolerances anywhere.
"""

import itertools
import random
import time

from ellipticdt.cli import SURFACE_PAIRS, point_configs
from ellipticdt.deform import (
    CombCurveDescriptor,
    behrend_sign,
    comb_fiber_arrow_classes,
    haiman_basis_2d,
    tangent_dim,
    vl_tangent_basis,
)
from ellipticdt.dtseries import (
    SurfaceData,
    behrend_transform,
    connected,
    dt_fib,
    dt_hat,
    f_d_compare,
    identity_a,
    identity_b,
    identity_c,
    symprod_check,
)
from ellipticdt.partitions import BOX, EMPTY, enumerate_partitions
from ellipticdt.series import (
    HalfLaurent,
    PQSeries,
    compare,
    linear_factor,
    macmahon_p,
    power,
)
from ellipticdt.vertex import LegConfig, clear_memo, minimal_volume, tilde_vertex, vertex

PLANE_TO_8 = (1, 1, 3, 6, 13, 24, 48, 86, 160)


def report(label, ok, started=None):
    suffix = "" if started is None else "  (%.2fs)" % (time.perf_counter() - started)
    print("%s %s%s" % ("PASS" if ok else "FAIL", label, suffix))
    assert ok, label


def test_criterion_01_vertex_oracle():
    clear_memo()
    t0 = time.perf_counter()
    rec = tilde_vertex(LegConfig(EMPTY, EMPTY, EMPTY), 8)
    ok = rec.counts == PLANE_TO_8
    prod = macmahon_p(0, (0, 16))
    ok = ok and all(prod.coeffs[0][2 * n] == rec.counts[n] for n in range(9))
    report("criterion-01 vertex enumeration vs product expansion to p^8", ok, t0)


def test_criterion_02_one_box_specialization():
    t0 = time.perf_counter()
    v = vertex(LegConfig(BOX, EMPTY, EMPTY), 8)
    closed = macmahon_p(0, (0, 16)) * linear_factor(1, 0, -1, 0, (0, 16))
    rep = compare(v, closed, p_lo=0, p_hi=16)
    report("criterion-02 one-box-leg vertex equals M(p)/(1-p) to p^8", rep.equal, t0)


def test_criterion_03_normalization_lemma():
    t0 = time.perf_counter()
    ok = True
    for n in range(6):
        for lam in enumerate_partitions(n):
            ok = ok and minimal_volume(LegConfig(lam, EMPTY, EMPTY)) == 0
            if n:
                ok = ok and minimal_volume(LegConfig(lam, BOX, EMPTY)) == -lam.first_part()
                ok = ok and (
                    minimal_volume(LegConfig(lam, lam.conjugate(), EMPTY))
                    == -lam.norm_sq()
                )
    report("criterion-03 minimal volumes 0 / -lam_1 / -sum mu_j^2, sizes <= 5", ok, t0)


def test_criterion_04_vertex_symmetries():
    t0 = time.perf_counter()
    ok = True
    for total in range(5):
        for s1 in range(total + 1):
            for s2 in range(total - s1 + 1):
                s3 = total - s1 - s2
                for lam, mu, nu in itertools.product(
                    enumerate_partitions(s1),
                    enumerate_partitions(s2),
                    enumerate_partitions(s3),
                ):
                    cfg = LegConfig(lam, mu, nu)
                    counts = tilde_vertex(cfg, 6).counts
                    ok = ok and tilde_vertex(cfg.cyclic(), 6).counts == counts
                    ok = ok and tilde_vertex(cfg.conjugate_swap(), 6).counts == counts
    report("criterion-04 cyclic and conjugate symmetries, sizes <= 4, N=6", ok, t0)


def test_criterion_05_trace_identities():
    t0 = time.perf_counter()
    lhs, rhs = identity_a(5, 10)
    rep_a = compare(lhs, rhs, p_lo=-10, p_hi=10)
    lhs, rhs = identity_b(4, 10)
    rep_b = compare(lhs, rhs)
    lhs, rhs = identity_c(4, 10)
    rep_c = compare(lhs, rhs)
    ok = rep_a.equal and rep_b.equal and rep_c.equal
    report(
        "criterion-05 trace identities: A to q^5 on [-5,5], B and C to q^4",
        ok,
        t0,
    )


def test_criterion_06_partition_function_cross_sides():
    t0 = time.perf_counter()
    ok = True
    for eb, es in SURFACE_PAIRS:
        surf = SurfaceData(eb, es)
        ok = ok and compare(
            dt_hat(surf, 4, 10, "sum"), dt_hat(surf, 4, 10, "product")
        ).equal
        ok = ok and compare(
            dt_fib(surf, 4, 10, "sum"), dt_fib(surf, 4, 10, "product")
        ).equal
    report(
        "criterion-06 section and fiber series: sum side = product side to q^4",
        ok,
        t0,
    )


def test_criterion_07_connected_series():
    t0 = time.perf_counter()
    ok = True
    for eb, es in SURFACE_PAIRS:
        surf = SurfaceData(eb, es)
        ok = ok and compare(
            connected(surf, 4, 10, "ratio"), connected(surf, 4, 10, "jacobi")
        ).equal
    q0 = connected(SurfaceData(2, 24), 4, 10, "jacobi").coeffs[0]
    for k in range(7):
        ok = ok and q0[2 * k] == k
        ok = ok and q0[2 * k + 1] == 0 and q0[-2 * k - 1] == 0
    ok = ok and q0[-2] == 0
    report(
        "criterion-07 connected ratio = Jacobi form to q^4; K3 q^0 = p/(1-p)^2 to p^6",
        ok,
        t0,
    )


def test_criterion_08_pushforward_cross_mode():
    t0 = time.perf_counter()
    ok = True
    configs = point_configs(4)
    for eb, es in ((2, 12), (2, 24)):
        surf = SurfaceData(eb, es)
        for pc in configs:
            ok = ok and f_d_compare(pc, surf, 8).equal
    report(
        "criterion-08 pushforward factored = strata, all configs d <= 4 (%d configs)"
        % len(configs),
        ok,
        t0,
    )


def test_criterion_09_symmetric_product_expansion():
    t0 = time.perf_counter()
    ok = True
    ones = {a: HalfLaurent({0: 1}) for a in range(1, 7)}
    for e, rep in zip(range(-3, 4), symprod_check(ones, range(-3, 4), 6)):
        ok = ok and rep.equal
        want = power(linear_factor(0, 1, 1, 6, (0, 2)), -e)
        ok = ok and compare(rep.side_b, want).equal
    rng = random.Random(0)
    for _ in range(20):
        table = {}
        for a in range(1, 7):
            table[a] = HalfLaurent(
                {2 * rng.randint(-3, 3): rng.randint(-6, 6) for _ in range(3)}
            )
        ok = ok and all(rep.equal for rep in symprod_check(table, range(-3, 4), 6))
    report(
        "criterion-09 symmetric-product expansion, e in [-3,3], q^6, 20 random tables",
        ok,
        t0,
    )


def test_criterion_10_deformation_suite():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            ok = ok and len(haiman_basis_2d(lam)) == 2 * n
            ok = ok and len(vl_tangent_basis(lam)) == 2 * n - lam.first_part()
            ok = ok and comb_fiber_arrow_classes(lam) == 2 * n - lam.first_part()
    surfaces = [SurfaceData(2, 12), SurfaceData(2, 24), SurfaceData(0, 12)]
    for surf in surfaces:
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                for nodal in (False, True):
                    desc = CombCurveDescriptor(
                        surf, () if nodal else (lam,), (lam,) if nodal else ()
                    )
                    ok = ok and behrend_sign(desc) == (-1) ** tangent_dim(desc)
        for n1 in range(1, 5):
            for n2 in range(1, 5):
                for lam in enumerate_partitions(n1):
                    for mu in enumerate_partitions(n2):
                        for split in ((2, 0), (1, 1), (0, 2)):
                            fibers = (lam, mu)
                            smooth = fibers[: split[0]]
                            nodal_f = fibers[split[0] :]
                            desc = CombCurveDescriptor(surf, smooth, nodal_f)
                            ok = ok and behrend_sign(desc) == (-1) ** tangent_dim(desc)
    report(
        "criterion-10 arrow counts 2d / 2d-l to |lam|=8; parity sign consistency",
        ok,
        t0,
    )


def test_criterion_11_behrend_transform():
    t0 = time.perf_counter()
    ser = dt_hat(SurfaceData(2, 24), 4, 10, "product")
    out = behrend_transform(ser, 2)
    q0 = out.coeffs[0]
    ok = q0.min_exp() == 2 and q0[2] == -1
    rng = random.Random(1)
    for _ in range(50):
        q_order = rng.randint(0, 4)
        rows = [
            HalfLaurent({2 * rng.randint(-5, 6): rng.randint(-9, 9) for _ in range(5)})
            for _ in range(q_order + 1)
        ]
        windows = [
            ((hl.min_exp(), hl.max_exp()) if not hl.is_zero() else (None, None))
            for hl in rows
        ]
        a = PQSeries(q_order, rows, windows)
        chi = rng.randint(0, 5)
        ok = ok and compare(behrend_transform(behrend_transform(a, chi), chi), a).equal
    report(
        "criterion-11 sign-weighted transform: K3 lowest term -y; double transform restores",
        ok,
        t0,
    )
