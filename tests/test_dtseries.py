import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from ellipticdt import dtseries, series
from ellipticdt.cli import SURFACE_PAIRS, point_configs
from ellipticdt.dtseries import (
    F1F2,
    PointConfig,
    SurfaceData,
    behrend_transform,
    connected,
    dt_fib,
    dt_hat,
    f_d_compare,
    f_d_series,
    g_of,
    h_of,
    identity_a,
    identity_b,
    identity_c,
    symprod_check,
)
from ellipticdt.partitions import enumerate_partitions
from ellipticdt.series import (
    HalfLaurent,
    PQSeries,
    compare,
    invert,
    linear_factor,
    macmahon,
    power,
    substitute_neg_p,
)
from ellipticdt.vertex import VertexCache, clear_memo


def test_surface_data_validation():
    SurfaceData(2, 24)
    SurfaceData(-2, 12)
    with pytest.raises(ValueError):
        SurfaceData(1, 12)


def test_point_config_validation():
    pc = PointConfig((2, 1), (1,))
    assert pc.degree() == 4
    with pytest.raises(ValueError):
        PointConfig((0,), ())


def test_f2_is_plane_partition_series():
    _, f2 = F1F2(6)
    assert [f2.coeffs[0][2 * n] for n in range(4)] == [1, 1, 3, 6]


def test_f1_leading_term_and_ratio():
    f1, _ = F1F2(6)
    assert f1.coeffs[0].min_exp() == 1
    assert f1.coeffs[0][1] == 1
    # oracle: divide the one-box-leg counts 1,2,5 by 1,1,3 and multiply back
    num = PQSeries.constant(HalfLaurent({0: 1, 2: 2, 4: 5}), 0)
    den = PQSeries.constant(HalfLaurent({0: 1, 2: 1, 4: 3}), 0, window=(0, 4))
    ratio = num.with_p_hi(4) * invert(den)
    back = ratio * den
    assert [back.coeffs[0][2 * k] for k in range(3)] == [1, 2, 5]
    expected = [ratio.coeffs[0][2 * k] for k in range(3)]
    assert expected == [1, 1, 1]
    shifted = f1.shift_p(-1)
    assert [shifted.coeffs[0][2 * k] for k in range(3)] == expected


def q_coefficient_of_product(d, order):
    """Oracle for h(d): coefficient of q^d in prod M(p,q^k)/((1-p q^k)(1-p^(-1) q^k))."""
    pw = (-(2 * order + 2), 2 * order + 2)
    out = PQSeries.one(d)
    for k in range(1, d + 1):
        out = out * macmahon(d, pw, shift=k)
        out = out * linear_factor(1, k, -1, d, pw)
        out = out * linear_factor(-1, k, -1, d, pw)
    return out.coeffs[d]


def g_q_coefficient_of_product(d, order):
    """Oracle for g(d): coefficient of q^d in prod (1-q^k)/((1-p q^k)(1-p^(-1) q^k))."""
    pw = (-(2 * order + 2), 2 * order + 2)
    out = PQSeries.one(d)
    for k in range(1, d + 1):
        out = out * linear_factor(0, k, 1, d, pw)
        out = out * linear_factor(1, k, -1, d, pw)
        out = out * linear_factor(-1, k, -1, d, pw)
    return out.coeffs[d]


def test_g_values():
    assert g_of(0, 6).items() == [(0, 1)]
    assert g_of(1, 8).items() == [(-2, 1), (0, -1), (2, 1)]
    # cross-check against the product-side oracle on the guaranteed range
    for a in (1, 2, 3):
        got = g_of(a, 8)
        want = g_q_coefficient_of_product(a, 8)
        for e in range(-2 * a, 2 * (8 - a) + 1):
            assert got[e] == want[e]


def test_h_values():
    assert h_of(0, 6).items() == [(0, 1)]
    got = h_of(1, 8)
    # frozen from the product oracle: p^(-1) + 2p + 2p^2 + 3p^3 + ...
    assert got[-2] == 1 and got[0] == 0 and got[2] == 2 and got[4] == 2 and got[6] == 3
    for b in (1, 2):
        got = h_of(b, 8)
        want = q_coefficient_of_product(b, 8)
        for e in range(-2 * b, 2 * (8 - b) + 1):
            assert got[e] == want[e]


def test_f_d_degree_zero():
    surf = SurfaceData(2, 12)
    f1, f2 = F1F2(8)
    want = power(f1, 2) * power(f2, 12)
    got = f_d_series(PointConfig((), ()), surf, 8)
    assert compare(got, want).equal


def test_f_d_single_smooth_point():
    surf = SurfaceData(2, 12)
    f1, f2 = F1F2(8)
    g1 = PQSeries.constant(g_of(1, 8), 0, window=(-2, 2 * 7))
    want = power(f1, 2) * power(f2, 12) * g1
    got = f_d_series(PointConfig((1,), ()), surf, 8)
    assert compare(got, want).equal


def test_f_d_cross_mode_and_symmetry():
    surf = SurfaceData(2, 12)
    rep = f_d_compare(PointConfig((1, 1), (1,)), surf, 8)
    assert rep.equal
    a = f_d_series(PointConfig((2, 1), (1,)), surf, 8).coeffs[0]
    b = f_d_series(PointConfig((1, 2), (1,)), surf, 8).coeffs[0]
    assert a == b
    a = f_d_series(PointConfig((1,), (2, 1, 1)), surf, 8, "strata").coeffs[0]
    b = f_d_series(PointConfig((1,), (1, 2, 1)), surf, 8, "strata").coeffs[0]
    assert a == b


def test_dt_hat_zero_surface():
    surf = SurfaceData(0, 0)
    for side in ("sum", "product"):
        ser = dt_hat(surf, 3, 6, side)
        assert ser.coeffs[0].items() == [(0, 1)]
        assert all(ser.coeffs[d].is_zero() for d in range(1, 4))


def test_dt_hat_k3_q0_lowest_term():
    ser = dt_hat(SurfaceData(2, 24), 2, 8, "product")
    q0 = ser.coeffs[0]
    assert q0.min_exp() == 2
    assert q0[2] == 1
    assert q0[4] == 26  # 24 from the box-count factor, 2 from (1-p)^(-2)


def test_dt_hat_cross_side():
    surf = SurfaceData(2, 12)
    rep = compare(dt_hat(surf, 3, 8, "sum"), dt_hat(surf, 3, 8, "product"))
    assert rep.equal


def test_dt_fib_rational_surface_fiber_series():
    surf = SurfaceData(2, 0)
    pw = (-10, 10)
    want = PQSeries.one(4)
    for d in range(1, 5):
        want = want * power(linear_factor(0, d, -1, 4, pw), 2)
    for side in ("sum", "product"):
        ser = dt_fib(surf, 4, 6, side)
        assert compare(ser, want).equal


def test_dt_fib_cross_side():
    surf = SurfaceData(2, 12)
    rep = compare(dt_fib(surf, 3, 8, "sum"), dt_fib(surf, 3, 8, "product"))
    assert rep.equal


def test_connected_cross_mode_and_trivial():
    surf = SurfaceData(2, 12)
    rep = compare(connected(surf, 3, 8, "ratio"), connected(surf, 3, 8, "jacobi"))
    assert rep.equal
    surf0 = SurfaceData(0, 0)
    ser = connected(surf0, 3, 6, "jacobi")
    assert ser.coeffs[0].items() == [(0, 1)]


def test_connected_k3_q0():
    ser = connected(SurfaceData(2, 24), 2, 8, "jacobi")
    q0 = ser.coeffs[0]
    for k in range(1, 7):
        assert q0[2 * k] == k
    assert q0[0] == 0 and q0[-2] == 0


def test_behrend_transform_examples():
    a = PQSeries.constant(HalfLaurent({2: 1, 4: 2}), 0, window=(0, 8))
    out = behrend_transform(a, 1)
    assert out.coeffs[0].items() == [(2, 1), (4, -2)]  # y - 2y^2 read in y
    out = behrend_transform(a, 0)
    assert compare(out, substitute_neg_p(a)).equal


def test_behrend_transform_k3():
    ser = dt_hat(SurfaceData(2, 24), 2, 8, "product")
    out = behrend_transform(ser, 2)
    q0 = out.coeffs[0]
    assert q0.min_exp() == 2 and q0[2] == -1


def test_behrend_involution_randomized():
    rng = random.Random(11)
    for _ in range(50):
        q_order = rng.randint(0, 3)
        rows = []
        for _ in range(q_order + 1):
            rows.append(HalfLaurent({2 * rng.randint(-4, 5): rng.randint(-9, 9) for _ in range(4)}))
        windows = [
            ((hl.min_exp(), hl.max_exp() + 2) if not hl.is_zero() else (None, None))
            for hl in rows
        ]
        a = PQSeries(q_order, rows, windows)
        chi = rng.randint(0, 3)
        assert compare(behrend_transform(behrend_transform(a, chi), chi), a).equal


def test_symprod_constant_table_matches_binomial_series():
    table = {a: HalfLaurent({0: 1}) for a in range(1, 7)}
    for e, rep in zip(range(-3, 4), symprod_check(table, range(-3, 4), 6)):
        assert rep.equal
        # and the right side is the binomial series (1-q)^(-e)
        want = power(linear_factor(0, 1, 1, 6, (0, 2)), -e)
        assert compare(rep.side_b, want).equal


def test_symprod_exponent_one():
    table = {1: HalfLaurent({-2: 3, 0: 1}), 2: HalfLaurent({2: -4})}
    (rep,) = symprod_check(table, [1], 4)
    assert rep.equal
    assert rep.side_a.coeffs[1] == table[1]
    assert rep.side_a.coeffs[2] == table[2]
    assert rep.side_a.coeffs[3].is_zero()


def test_symprod_exponent_minus_one_single_weight():
    c = 5
    table = {1: HalfLaurent({0: c})}
    (rep,) = symprod_check(table, [-1], 5)
    assert rep.equal
    for d in range(6):
        assert rep.side_a.coeffs[d][0] == (-c) ** d


def test_symprod_randomized():
    rng = random.Random(12)
    for _ in range(20):
        table = {}
        for a in range(1, 5):
            table[a] = HalfLaurent(
                {2 * rng.randint(-2, 3): rng.randint(-5, 5) for _ in range(3)}
            )
        assert all(rep.equal for rep in symprod_check(table, range(-3, 4), 4))


def test_symprod_zero_and_missing_weights():
    # g(2) is an explicit zero and g(3) is missing: both weigh every partition
    # with such a part by zero, so the check matches the table without g(2)
    g1, g4 = HalfLaurent({-2: 3, 0: 1}), HalfLaurent({0: -2, 4: 5})
    with_zero = {1: g1, 2: HalfLaurent(), 4: g4}
    without = {1: g1, 4: g4}
    reps = symprod_check(with_zero, range(-3, 4), 5)
    refs = symprod_check(without, range(-3, 4), 5)
    for e, rep, ref in zip(range(-3, 4), reps, refs):
        assert rep.equal and ref.equal, e
        assert rep.side_a == ref.side_a and rep.side_b == ref.side_b, e
        assert rep.side_a.coeffs[2] == (g1 * g1).scale(e * (e - 1) // 2), e


def test_dt_hat_third_route_via_multinomial_sums():
    # assemble the symmetric-product integrals the long way (multinomial sums
    # over point-multiplicity tuples, the symprod LHS) from the real weight
    # tables; the comparison regions clip to the sum side's honest windows,
    # which coincide with the true knowledge of this route
    from ellipticdt.dtseries import _embed

    n_order, q_order = 10, 3
    for eb, es in ((2, 12), (2, 24)):
        surf = SurfaceData(eb, es)
        g_table = {a: g_of(a, n_order) for a in range(1, q_order + 1)}
        h_table = {b: h_of(b, n_order) for b in range(1, q_order + 1)}
        g_pow = symprod_check(g_table, [eb - es], q_order)[0].side_a
        h_pow = symprod_check(h_table, [es], q_order)[0].side_a
        f1, f2 = F1F2(n_order)
        third = power(_embed(f1, q_order), eb) * power(_embed(f2, q_order), es)
        third = third * g_pow * h_pow
        assert compare(third, dt_hat(surf, q_order, n_order, "sum")).equal


def test_identity_a_small():
    lhs, rhs = identity_a(3, 8)
    rep = compare(lhs, rhs)
    assert rep.equal
    # the small-order region really reaches negative and positive exponents
    assert rep.regions[3][0] <= -6 and rep.regions[3][1] >= 6


def test_identity_b_small():
    lhs, rhs = identity_b(3, 8)
    assert compare(lhs, rhs).equal


def test_identity_c_small():
    lhs, rhs = identity_c(3, 8)
    assert compare(lhs, rhs).equal
    # q^1 row is the two-box-leg ratio: 1 + p + 2p^2 + 3p^3 + ...
    assert [lhs.coeffs[1][2 * k] for k in range(4)] == [1, 1, 2, 3]


def _claimed(series, d, e):
    """The q^d p^(e/2) coefficient series claims to know, or None if it claims nothing there."""
    lo, hi = series.windows[d]
    if lo is None or e < lo:
        return 0
    if hi is None or e <= hi:
        return series.coeffs[d][e]
    return None


def _assembled(q_order, order):
    """name -> series: every side of dt_hat, dt_fib and connected, and of the three identities."""
    out = {}
    for eb, es in SURFACE_PAIRS:
        surf = SurfaceData(eb, es)
        for fn, sides in (
            (dt_hat, ("sum", "product")),
            (dt_fib, ("sum", "product")),
            (connected, ("ratio", "jacobi")),
        ):
            for side in sides:
                out["%s/%s/%+d/%d" % (fn.__name__, side, eb, es)] = fn(surf, q_order, order, side)
    for fn in (identity_a, identity_b, identity_c):
        out[fn.__name__ + "/lhs"], out[fn.__name__ + "/rhs"] = fn(q_order, order)
    return out


def test_windows_hold_across_orders():
    """Every coefficient a series claims known at low orders (values up to the
    ceiling, zeros below the floor, claimed-zero rows) equals the same
    coefficient at higher orders wherever those also claim it."""
    for low_orders, high_orders in (((3, 6), (3, 10)), ((2, 6), (4, 6)), ((3, 5), (4, 9))):
        high = _assembled(*high_orders)
        for name, low in _assembled(*low_orders).items():
            checked = 0
            for d in range(low.q_order + 1):
                # both sides claim 0 at every exponent neither stores
                for e in low.coeffs[d].c.keys() | high[name].coeffs[d].c.keys():
                    claim, truth = _claimed(low, d, e), _claimed(high[name], d, e)
                    if claim is not None and truth is not None:
                        assert claim == truth, (name, low_orders, high_orders, d, e)
                        checked += 1
            assert checked, (name, low_orders, high_orders)


# sha256 of json.dumps(series.to_json_dict(), sort_keys=True) at q^4 / p^8,
# windows included.  Recorded before the vertex-sum rows and the product
# factors in dtseries were shared; compare(...).equal alone would not notice a
# changed window.
FROZEN_DIGESTS = {
    "dt_hat/sum/+2/24": "bba06512bbba478e3cb1c7b8aefc535de94c644ce1631fde691bc69e5152d43b",
    "dt_fib/sum/+2/24": "8a803d40236686f1daad8689327e98e2e51f11223eabc251d14bfd826d4c749b",
    "dt_hat/product/+2/24": "2798d520cc018222bae1bc5f557069b23eb752ddb618902ddf2d100617d03deb",
    "dt_fib/product/+2/24": "673f5965a21dd3f4ac6d9f9700c6e01357813c220b3452626bcbe3f20dd7bfa7",
    "connected/ratio/+2/24": "b236f0b8a99fdb8fcd038e7c9bd0f669d105e65644ad462b0334c3f435ea68bd",
    "connected/jacobi/+2/24": "827a7f74fdfde656073bc7a40fa260a1039d1e0564cd5f6e597737e42189f28a",
    "dt_hat/sum/+0/12": "7c24fb3d5113fb0c932aa597a4df7d421b75f23636fe94ef03a52881a3ebfbd6",
    "dt_fib/sum/+0/12": "342bfb0909b2efc3c772130c070c1a7648105948bc75a22ac15c5c855bf2ee9e",
    "dt_hat/product/+0/12": "f9b98ace1054566b58a3e446be139a2bba58a5d49fb324691820677dcf048b73",
    "dt_fib/product/+0/12": "73dd206e55ceac593e0bbbc3dfa388a55cf93ce04eedc6ca27018480a0ef8494",
    "connected/ratio/+0/12": "c2e560ca18f04db0efd406d487ac891d8a2c1e6af25d7e6ecb52830cce4b1ee6",
    "connected/jacobi/+0/12": "0ee747bf2ab0842aedc5e9a5db2ee00f79b8471deb674d5bcdc16b915da2c615",
    "dt_hat/sum/-2/12": "1f26275263d9da67a58e6ec4ed985948e5c822f3bbdabc6a0e0b5d4f377d1e7f",
    "dt_fib/sum/-2/12": "d3ae4f08a904dd2f5007839f0ee62a2ab320025f8f899a1d6205013ed93beb40",
    "dt_hat/product/-2/12": "13a666e885e171d9d6586dcf4f83b08b2ab52cc1a77593a2919521527d3361f8",
    "dt_fib/product/-2/12": "dfaaacc67c42657583125e4c71251f59d123a61e1ed3ba0cd8666d95beb393a9",
    "connected/ratio/-2/12": "c5cefe881ed65e4eac807cf50973e0d941031512b659afc198d2d2d72a502267",
    "connected/jacobi/-2/12": "122de3f90a07f64bab5b4a941e74e934f223e214e33e00beedccac4865e7e25e",
    "dt_hat/sum/+2/12": "cf8d16a3b87b7e90269f404070644eb061992299183fb0ce1968233867f405a7",
    "dt_fib/sum/+2/12": "dff5cfb0d2d47f0b09d153790aa18ebcfac191cefe1ec1d158eabaa798d37619",
    "dt_hat/product/+2/12": "0ed981934a8b1f88bcc6d160314814257f599a40e68950ebd12c41e92c63728b",
    "dt_fib/product/+2/12": "77f3af11d5536eb6d678c4ebb4a2b22a64638bab2b43382ef9648b1835ed79de",
    "connected/ratio/+2/12": "f7735a1c084e10a5dbdd78dc5312c3f566d2a7e5a3a9002e34e0ce7f52be9567",
    "connected/jacobi/+2/12": "cebef743af24557a08ab2074d14d23272a023f74909ec894f89ecb3683336b4f",
    "identity_a/lhs": "7b07264bc2c09967afea7df417b62308e64f15f95834476abf8ab36df3e18845",
    "identity_a/rhs": "e6c1a50ceaab75bd9cb99417135ad7638433ad34d659ca88678fc12a1351adcd",
    "identity_b/lhs": "8f6afd5857bb9cc2aafd342ba977e24fb6ae4827b97e2ecd441cc754ac344d61",
    "identity_b/rhs": "8cb0dc54c16ea94a3706d3f8ea274a4de65376807a111492b7ede102236638c0",
    "identity_c/lhs": "62779e0b4efd0b4c79f6d5eec0ae4a0d74b4c415ad017e96f68222549bb045c2",
    "identity_c/rhs": "7ae0f93999e7b37d94a51d29a5a1b96d48b1b53f6ef428760b0762c5d34fece3",
    "f_d/factored/+2/12/a=(1,)/b=()": "3ccf3a98ecb0c06694c00d58157b952050988c2a7e473da1af8fa72519c11748",
    "f_d/strata/+2/12/a=(1,)/b=()": "3ccf3a98ecb0c06694c00d58157b952050988c2a7e473da1af8fa72519c11748",
    "f_d/factored/+2/12/a=(2, 1)/b=(1,)": "d76e8f42403e25b8b88e9882f9198759bbece56b3bc7c5b9f0aafed4a8a57439",
    "f_d/strata/+2/12/a=(2, 1)/b=(1,)": "d76e8f42403e25b8b88e9882f9198759bbece56b3bc7c5b9f0aafed4a8a57439",
    "f_d/factored/+2/12/a=()/b=(3,)": "fa0626c881fd0d608f4bbc12d634517953424a0cad08b6e30b02325fef5ed78f",
    "f_d/strata/+2/12/a=()/b=(3,)": "fa0626c881fd0d608f4bbc12d634517953424a0cad08b6e30b02325fef5ed78f",
    "f_d/factored/+2/12/a=(3, 1)/b=(2,)": "0e337d21f4578f03dacc0219f37fd39960b8bf9d199e68bc3ed995da51e26798",
    "f_d/strata/+2/12/a=(3, 1)/b=(2,)": "0e337d21f4578f03dacc0219f37fd39960b8bf9d199e68bc3ed995da51e26798",
    "f_d/factored/-2/12/a=(1,)/b=()": "025ba94ec51c2e6189d6e55c4a12d542918f73f8a4441aed2f78edb41da98878",
    "f_d/strata/-2/12/a=(1,)/b=()": "025ba94ec51c2e6189d6e55c4a12d542918f73f8a4441aed2f78edb41da98878",
    "f_d/factored/-2/12/a=(2, 1)/b=(1,)": "89d019ec339c8284d2b751f6d20869e75fce7cde088db04723a0e75bfdd58b93",
    "f_d/strata/-2/12/a=(2, 1)/b=(1,)": "89d019ec339c8284d2b751f6d20869e75fce7cde088db04723a0e75bfdd58b93",
    "f_d/factored/-2/12/a=()/b=(3,)": "59f8185c601fdef62ed161b47cd3198ed1387435fa1cfe38018dcc7080bd76e8",
    "f_d/strata/-2/12/a=()/b=(3,)": "59f8185c601fdef62ed161b47cd3198ed1387435fa1cfe38018dcc7080bd76e8",
    "f_d/factored/-2/12/a=(3, 1)/b=(2,)": "a6eb75adfb0c7ef9fc84d4977055c4ba6e81c1471cad25359538c244096901a4",
    "f_d/strata/-2/12/a=(3, 1)/b=(2,)": "a6eb75adfb0c7ef9fc84d4977055c4ba6e81c1471cad25359538c244096901a4",
}


def _frozen_outputs():
    q_order, order = 4, 8
    for eb, es in ((2, 24), (0, 12), (-2, 12), (2, 12)):
        surf = SurfaceData(eb, es)
        tag = "%+d/%d" % (eb, es)
        for side in ("sum", "product"):
            yield "dt_hat/%s/%s" % (side, tag), dt_hat(surf, q_order, order, side)
            yield "dt_fib/%s/%s" % (side, tag), dt_fib(surf, q_order, order, side)
        for side in ("ratio", "jacobi"):
            yield "connected/%s/%s" % (side, tag), connected(surf, q_order, order, side)
    for name, fn in (("a", identity_a), ("b", identity_b), ("c", identity_c)):
        lhs, rhs = fn(q_order, order)
        yield "identity_%s/lhs" % name, lhs
        yield "identity_%s/rhs" % name, rhs
    for eb, es in ((2, 12), (-2, 12)):
        surf = SurfaceData(eb, es)
        for a, b in (((1,), ()), ((2, 1), (1,)), ((), (3,)), ((3, 1), (2,))):
            for mode in ("factored", "strata"):
                name = "f_d/%s/%+d/%d/a=%s/b=%s" % (mode, eb, es, a, b)
                yield name, f_d_series(PointConfig(a, b), surf, order, mode)


def _digest(series):
    blob = json.dumps(series.to_json_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_output_digests_frozen():
    assert {name: _digest(s) for name, s in _frozen_outputs()} == FROZEN_DIGESTS


def _memo_builds(cache):
    """name -> thunk building one result at q3/p6 through the memoized blocks."""
    q_order, order = 3, 6
    builds = {}
    for fn in (identity_a, identity_b, identity_c):
        builds[fn.__name__] = lambda fn=fn: fn(q_order, order, cache)
    for eb, es in ((2, 24), (-2, 12)):
        surf = SurfaceData(eb, es)
        for fn, sides in (
            (dt_hat, ("sum", "product")),
            (dt_fib, ("sum", "product")),
            (connected, ("ratio", "jacobi")),
        ):
            for side in sides:
                builds["%s/%s/%+d/%d" % (fn.__name__, side, eb, es)] = (
                    lambda fn=fn, surf=surf, side=side: fn(surf, q_order, order, side, None, cache)
                )
        for a, b in (((1,), (2,)), ((2, 1), ()), ((), (1, 1))):
            for mode in ("factored", "strata"):
                builds["f_d/%s/%+d/%d/%s/%s" % (mode, eb, es, a, b)] = (
                    lambda pc=PointConfig(a, b), surf=surf, mode=mode: f_d_series(
                        pc, surf, order, mode, cache
                    )
                )
    return builds


def test_memo_never_changes_a_result():
    builds = _memo_builds(None)
    reference = {}
    for name, build in builds.items():
        clear_memo()  # each result built alone, sharing nothing
        reference[name] = build()
    rng = random.Random(11)
    for clear_first in (True, False, True, False):
        if clear_first:
            clear_memo()
        names = list(builds)
        rng.shuffle(names)
        for name in names:
            assert builds[name]() == reference[name], name


def test_symprod_products_shared_across_exponents_never_change_a_result():
    rng = random.Random(5)
    first = {
        a: HalfLaurent({2 * rng.randint(-2, 2): rng.randint(-5, 5) for _ in range(3)})
        for a in range(1, 6)
    }
    first[3] = HalfLaurent()  # an explicit zero weight
    second = dict(first, **{"2": first[2] + HalfLaurent({0: 1})})  # a str key, read as g(2)
    tables = {"first": first, "second": second}
    cold = {}
    for name, table in tables.items():
        for e in range(-3, 4):
            clear_memo()
            (rep,) = symprod_check(table, [e], 5)
            cold[name, e] = rep.side_a, rep.side_b
    clear_memo()
    for name, table in tables.items():  # all exponents in one call, from e = 3 down
        for e, rep in zip(range(3, -4, -1), symprod_check(table, range(3, -4, -1), 5)):
            assert (rep.side_a, rep.side_b) == cold[name, e], (name, e)


def test_symprod_products_hold_one_table(monkeypatch):
    """The products of one table only, built in one walk for all its exponents:
    each table checked walks each degree once, and none reuses another's."""
    walked = []
    real = dtseries.enumerate_partitions
    monkeypatch.setattr(dtseries, "enumerate_partitions", lambda d: walked.append(d) or real(d))
    clear_memo()
    sides = []
    for shift in (0, 2):
        table = {a: HalfLaurent({shift: a}) for a in range(1, 5)}
        reps = symprod_check(table, range(-3, 4), 4)
        assert all(rep.equal for rep in reps), shift
        sides.append([rep.side_a for rep in reps])
    assert walked == [1, 2, 3, 4] * 2
    for e, first, second in zip(range(-3, 4), *sides):
        assert (first != second) == (e != 0), e


def test_symprod_exponents_of_one_table_invert_once(monkeypatch):
    """The seven exponents of one table raise one base, which keeps its one inverse."""
    inverted = []
    real = series.invert
    monkeypatch.setattr(series, "invert", lambda a: inverted.append(a) or real(a))
    clear_memo()
    table = {a: HalfLaurent({0: a, 2: 1}) for a in range(1, 5)}
    for e, rep in zip(range(-3, 4), symprod_check(table, range(-3, 4), 4)):
        assert rep.equal, e
    assert len(inverted) == 1


def test_ratio_from_shared_product_sides_never_changes_a_result():
    q_order, order = 3, 6
    want = {}
    for eb, es in SURFACE_PAIRS:
        surf = SurfaceData(eb, es)
        clear_memo()
        num = dt_hat(surf, q_order, order, "product")
        clear_memo()
        den = dt_fib(surf, q_order, order, "product")
        want[surf] = num * invert(den)
        clear_memo()
        assert connected(surf, q_order, order, "ratio") == want[surf], surf
    clear_memo()
    for surf in want:  # the product sides first, as in check all, all in one memo
        dt_hat(surf, q_order, order, "product")
        dt_fib(surf, q_order, order, "product")
        assert connected(surf, q_order, order, "ratio") == want[surf], surf


def test_shared_powers_never_change_a_result():
    """Three surfaces share eS = 12 and two share eB = 2, so their sides share powers."""
    q_order, order = 3, 6
    sides = [
        (fn, SurfaceData(eb, es), side)
        for eb, es in SURFACE_PAIRS
        for fn, names in (
            (dt_hat, ("sum", "product")),
            (dt_fib, ("sum", "product")),
            (connected, ("ratio", "jacobi")),
        )
        for side in names
    ]
    cold = {}
    for fn, surf, side in sides:
        clear_memo()
        cold[fn, surf, side] = fn(surf, q_order, order, side)
    for ordered in (sides, sides[::-1]):
        clear_memo()
        for fn, surf, side in ordered:
            got = fn(surf, q_order, order, side)
            assert got == cold[fn, surf, side], (fn.__name__, surf, side)


def test_f_d_point_products_never_change_a_result():
    surf, order = SurfaceData(2, 12), 6
    configs = point_configs(3)
    cold = {}
    for pc in configs:
        for mode in ("factored", "strata"):
            clear_memo()
            cold[pc, mode] = f_d_series(pc, surf, order, mode)
    for ordered in (configs, configs[::-1]):  # prefixes built first, then as by-products
        clear_memo()
        for pc in ordered:
            for mode in ("factored", "strata"):
                assert f_d_series(pc, surf, order, mode) == cold[pc, mode], (pc, mode)


def test_memo_still_writes_each_cache_directory(tmp_path):
    """The memo is keyed by cache directory, so a warm memo cannot skip a directory's records."""

    def records(directory):
        return {p.name: p.read_text() for p in directory.glob("*.json")}

    clear_memo()
    for build in _memo_builds(None).values():
        build()
    for build in _memo_builds(VertexCache(tmp_path / "after_uncached")).values():
        build()
    clear_memo()
    for build in _memo_builds(VertexCache(tmp_path / "cold")).values():
        build()
    cold = records(tmp_path / "cold")
    assert cold and records(tmp_path / "after_uncached") == cold


def test_multinomials_equal_the_direct_formula():
    """e(e-1)...(e-M+1)/prod m_i! for M parts, m_i of them of size i; zero terms left out.

    With g(a) = p^(2 B^(a-1)) and B > q_order, each partition of d <= q_order
    has its own monomial, p to 2 times the sum of B^(j-1) over its parts j, so
    the left side's coefficient there is the partition's coefficient."""
    q_order, base = 6, 7
    table = {a: HalfLaurent({2 * base ** (a - 1): 1}) for a in range(1, q_order + 1)}
    for e, rep in zip(range(-3, 4), symprod_check(table, range(-3, 4), q_order)):
        assert rep.equal, e
        for d in range(1, q_order + 1):
            want = {}
            for lam in enumerate_partitions(d):
                falling = math.prod(e - i for i in range(len(lam.parts)))
                repeats = math.prod(math.factorial(m) for m in Counter(lam.parts).values())
                if falling:
                    want[2 * sum(base ** (j - 1) for j in lam.parts)] = Fraction(falling, repeats)
            assert dict(rep.side_a.coeffs[d].items()) == want, (e, d)
