import random

import pytest

from ellipticdt import series
from ellipticdt.series import (
    HalfLaurent,
    NotInvertible,
    PQSeries,
    WindowExhausted,
    compare,
    euler_product,
    invert,
    linear_factor,
    macmahon,
    macmahon_p,
    power,
    substitute_neg_p,
    theta,
)

# plane-partition numbers, frozen from the enumeration oracle in the vertex tests
PLANE = [1, 1, 3, 6, 13, 24, 48, 86, 160]


def series_from_rows(rows, windows=None):
    """rows: list of {exp: coeff}; default windows mark the data as exact."""
    coeffs = [HalfLaurent(r) for r in rows]
    if windows is None:
        windows = [
            ((hl.min_exp(), None) if not hl.is_zero() else (None, None)) for hl in coeffs
        ]
    return PQSeries(len(rows) - 1, coeffs, windows)


def rand_series(rng, q_order=None, exact=False):
    if q_order is None:
        q_order = rng.randint(0, 3)
    rows = []
    for _ in range(q_order + 1):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            terms[rng.randint(-4, 6)] = rng.randint(-9, 9)
        rows.append(terms)
    s = series_from_rows(rows)
    if exact:
        return s
    floors = [hl.min_exp() for hl in s.coeffs if not hl.is_zero()]
    hi = max([rng.randint(4, 10)] + floors)
    return s.with_p_hi(hi)


def test_halflaurent_basics():
    a = HalfLaurent({0: 1, 2: -1})
    b = HalfLaurent({2: 1})
    assert (a + b).items() == [(0, 1)]
    assert (a * b).items() == [(2, 1), (4, -1)]
    assert (-a).items() == [(0, -1), (2, 1)]
    assert a.shift(3).items() == [(3, 1), (5, -1)]
    assert HalfLaurent().is_zero()


def test_mul_difference_of_squares():
    a = series_from_rows([{0: 1}, {2: 1}])  # 1 + p q
    b = series_from_rows([{0: 1}, {2: -1}])  # 1 - p q
    prod = a * b
    assert prod.coeffs[0].items() == [(0, 1)]
    assert prod.coeffs[1].is_zero()


def test_add_identity():
    rng = random.Random(1)
    for _ in range(20):
        a = rand_series(rng)
        zero = series_from_rows([{} for _ in range(a.q_order + 1)])
        assert compare(a + zero, a).equal


def test_mul_macmahon_window_example():
    # (1 - p) * prod_m (1 - p^m)^(-m) expanded by the product constructor
    m = macmahon_p(0, (0, 8))
    one_minus_p = PQSeries.from_terms([(0, 1), (2, -1)], 0)
    prod = m * one_minus_p
    # frozen expected values: convolution of 1,1,3,6,13 with (1 - p)
    assert [prod.coeffs[0][2 * k] for k in range(5)] == [1, 0, 2, 3, 7]
    assert prod.windows[0] == (0, 8)


def test_invert_geometric():
    one_minus_p = PQSeries.constant(HalfLaurent({0: 1, 2: -1}), 0, window=(0, 12))
    inv = invert(one_minus_p)
    assert [inv.coeffs[0][2 * k] for k in range(7)] == [1] * 7
    back = one_minus_p * inv
    assert back.coeffs[0].items() == [(0, 1)]


def test_invert_half_power_prefactor():
    a = PQSeries.constant(HalfLaurent({1: 1, -1: -1}), 0, window=(-1, 9))
    inv = invert(a)
    # -p^(1/2) (1 + p + p^2 + ...): exponents 1, 3, 5, ... with coefficient -1
    assert inv.windows[0][0] == 1
    for k in range(4):
        assert inv.coeffs[0][2 * k + 1] == -1
        assert inv.coeffs[0][2 * k] == 0
    back = a * inv
    assert back.coeffs[0].items() == [(0, 1)]


def test_invert_one_minus_q():
    a = linear_factor(0, 1, 1, 3, (0, 4))
    inv = invert(a)
    for d in range(4):
        assert inv.coeffs[d].items() == [(0, 1)]


def test_invert_preconditions():
    two = PQSeries.constant(HalfLaurent({0: 2}), 0, window=(0, 6))
    with pytest.raises(NotInvertible):
        invert(two)
    zero = PQSeries.constant(HalfLaurent(), 0, window=(0, 6))
    with pytest.raises(NotInvertible):
        invert(zero)
    exact_multi = PQSeries.from_terms([(0, 1), (2, -1)], 0)
    with pytest.raises(WindowExhausted):
        invert(exact_multi)


def test_power_examples():
    one_plus_q = linear_factor(0, 1, 1, 3, (0, 4))  # 1 - q ... need 1 + q
    one_plus_q = PQSeries.from_terms([(0, 1)], 3) + PQSeries.from_terms([(0, 1)], 3, q_degree=1)
    inv = power(one_plus_q, -1)
    assert [inv.coeffs[d][0] for d in range(4)] == [1, -1, 1, -1]
    rng = random.Random(2)
    a = rand_series(rng)
    assert compare(power(a, 0), PQSeries.one(a.q_order)).equal


def test_power_negative_square_of_theta_prefactor():
    a = PQSeries.constant(HalfLaurent({1: 1, -1: -1}), 0, window=(-1, 9))
    sq = power(a, -2)
    # p (1 - p)^(-2) = p + 2 p^2 + 3 p^3 + ...
    for k in range(1, 5):
        assert sq.coeffs[0][2 * k] == k
    back = sq * power(a, 2)
    assert back.coeffs[0][0] == 1


def test_power_keeps_its_steps_on_the_base(monkeypatch):
    """power(a, 24) forms a^2, a^3, a^6, a^12 on the way, so power(a, 12) forms nothing."""
    a, formed = theta(3, (-8, 8)).with_p_hi(8), []
    for name in ("_binary_mul", "_square"):
        real = getattr(series, name)
        monkeypatch.setattr(series, name, lambda *args, name=name, real=real: formed.append(name) or real(*args))
    power(a, 24)
    assert formed == ["_square", "_binary_mul", "_square", "_square", "_square"]
    formed.clear()
    assert power(a, 12) is power(a, 12) and power(a, 24) is power(a, 24)
    assert formed == []


def test_power_addition_law():
    rng = random.Random(3)
    for _ in range(10):
        a = rand_series(rng, q_order=2)
        # make the leading q^0 coefficient a unit so negative powers exist
        lead = dict(a.coeffs[0].c)
        lead[-6] = 1
        coeffs = list(a.coeffs)
        coeffs[0] = HalfLaurent(lead)
        windows = list(a.windows)
        windows[0] = (-6, windows[0][1] if windows[0][0] is not None else 6)
        a = PQSeries(a.q_order, coeffs, windows)
        for m in range(-3, 4):
            for n in range(-3, 4):
                lhs = power(a, m) * power(a, n)
                rhs = power(a, m + n)
                assert compare(lhs, rhs).equal


def test_ring_axioms_randomized():
    rng = random.Random(4)
    for _ in range(40):
        a = rand_series(rng, q_order=2)
        b = rand_series(rng, q_order=2)
        c = rand_series(rng, q_order=2)
        # structural equality (same windows, same stored data), not just agreement
        # on the common window: dtseries regroups its vertex sums and product
        # factors relying on it
        lhs, rhs = a * b, b * a
        assert compare(lhs, rhs).equal and lhs == rhs
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert compare(lhs, rhs).equal and lhs == rhs
        lhs = a * (b + c)
        rhs = (a * b) + (a * c)
        assert compare(lhs, rhs).equal and lhs == rhs


def clamp(s, want):
    """s with its knowledge ceiling lowered to `want`, but never below a degree's floor."""
    floors = [hl.min_exp() for hl in s.coeffs if not hl.is_zero()]
    return s.with_p_hi(max([want] + floors))


def assert_window_sound(got, truth):
    """Every coefficient `got` claims to know equals `truth`, the exact value."""
    for d in range(got.q_order + 1):
        lo, hi = got.windows[d]
        if lo is None:
            assert truth.coeffs[d].is_zero()
            continue
        for e in range(lo, (hi if hi is not None else lo + 20) + 1):
            assert got.coeffs[d][e] == truth.coeffs[d][e]


def test_window_claims_are_sound():
    # every coefficient claimed exact after windowed ops must equal the value
    # computed from fully exact inputs
    rng = random.Random(5)
    for _ in range(60):
        a_exact = rand_series(rng, q_order=2, exact=True)
        b_exact = rand_series(rng, q_order=2, exact=True)
        a = clamp(a_exact, rng.randint(2, 8))
        b = clamp(b_exact, rng.randint(2, 8))
        assert_window_sound(a * b, a_exact * b_exact)


def test_add_sub_and_reshaping_window_claims_are_sound():
    # the same soundness for +, -, with_p_hi, shift_p and substitute_neg_p
    rng = random.Random(56)
    for _ in range(60):
        q_order = rng.randint(0, 3)
        a_exact = rand_series(rng, q_order=q_order, exact=True)
        b_exact = rand_series(rng, q_order=rng.randint(0, 3), exact=True)
        a = clamp(a_exact, rng.randint(-2, 8))
        b = clamp(b_exact, rng.randint(-2, 8))
        assert_window_sound(a + b, a_exact + b_exact)
        assert_window_sound(a - b, a_exact - b_exact)
        assert_window_sound(clamp(a, rng.randint(-4, 10)), a_exact)
        k = rng.randint(-6, 6)
        assert_window_sound(a.shift_p(k), a_exact.shift_p(k))
        even_exact = series_from_rows([{2 * e: c for e, c in hl.items()} for hl in a_exact.coeffs])
        even = clamp(even_exact, 2 * rng.randint(-2, 8))
        assert_window_sound(substitute_neg_p(even), substitute_neg_p(even_exact))


def test_invert_and_power_window_claims_are_sound():
    # coefficients claimed exact by the narrowly-windowed computation must
    # match the same computation run with a much wider knowledge ceiling
    rng = random.Random(55)
    for _ in range(60):
        q_order = rng.randint(0, 3)
        rows = []
        for _ in range(q_order + 1):
            rows.append({rng.randint(-3, 5): rng.randint(-4, 4) for _ in range(rng.randint(0, 4))})
        e0 = rng.randint(-2, 1)
        rows[0] = {e: v for e, v in rows[0].items() if e > e0}
        rows[0][e0] = rng.choice([1, -1])
        exact = series_from_rows(rows)
        floors = [hl.min_exp() for hl in exact.coeffs if not hl.is_zero()]
        narrow = exact.with_p_hi(max([rng.randint(3, 7)] + floors))
        wide = exact.with_p_hi(max([40] + floors))
        k = rng.choice([-3, -2, -1, 2, 3])
        got = power(narrow, k)
        ref = power(wide, k)
        for d in range(q_order + 1):
            lo, hi = got.windows[d]
            rlo, rhi = ref.windows[d]
            if lo is None:
                assert rlo is None or ref.coeffs[d].is_zero()
                continue
            assert rhi is None or (hi is not None and rhi >= hi)
            top = hi if hi is not None else (ref.coeffs[d].max_exp() or 0)
            for e in range(lo, top + 1):
                assert got.coeffs[d][e] == ref.coeffs[d][e]


def test_invert_roundtrip_randomized():
    rng = random.Random(6)
    for _ in range(200):
        q_order = rng.randint(0, 3)
        rows = []
        for d in range(q_order + 1):
            terms = {rng.randint(-3, 6): rng.randint(-4, 4) for _ in range(rng.randint(0, 4))}
            rows.append(terms)
        e0 = rng.randint(-3, 1)
        rows[0] = {e: v for e, v in rows[0].items() if e > e0}
        rows[0][e0] = rng.choice([1, -1])
        s = series_from_rows(rows)
        floors = [hl.min_exp() for hl in s.coeffs if not hl.is_zero()]
        a = s.with_p_hi(max([rng.randint(4, 9)] + floors))
        inv = invert(a)
        prod = a * inv
        one = PQSeries.one(q_order)
        assert compare(prod, one).equal


def test_substitute_neg_p():
    a = PQSeries.constant(HalfLaurent({2: 1, 4: 2}), 0, window=(0, 8))
    out = substitute_neg_p(a)
    assert out.coeffs[0].items() == [(2, -1), (4, 2)]
    qonly = linear_factor(0, 1, -1, 3, (0, 4))
    assert compare(substitute_neg_p(qonly), qonly).equal
    m = macmahon_p(0, (0, 8))
    flipped = substitute_neg_p(m)
    assert [flipped.coeffs[0][2 * k] for k in range(4)] == [1, -1, 3, -6]
    half = PQSeries.constant(HalfLaurent({1: 1}), 0, window=(0, 4))
    with pytest.raises(ValueError):
        substitute_neg_p(half)


def test_substitute_involution():
    rng = random.Random(7)
    for _ in range(30):
        rows = []
        q_order = rng.randint(0, 3)
        for _ in range(q_order + 1):
            rows.append({2 * rng.randint(-3, 4): rng.randint(-9, 9) for _ in range(4)})
        a = series_from_rows(rows).with_p_hi(8)
        assert compare(substitute_neg_p(substitute_neg_p(a)), a).equal


def test_equality_semantics():
    rng = random.Random(8)
    for _ in range(20):
        a = rand_series(rng)
        assert compare(a, a).equal
        b = rand_series(rng, q_order=a.q_order)
        assert compare(a, b).equal == compare(b, a).equal
    a = series_from_rows([{0: 1}]).with_p_hi(4)
    b = series_from_rows([{0: 1, 8: 5}]).with_p_hi(4)
    # the p^4 term of b is above both knowledge ceilings: equal on the window
    assert compare(a, b).equal
    with pytest.raises(WindowExhausted):
        compare(a, b, p_hi=8)
    # a requested region that is empty is an error even where both sides vanish
    zero = series_from_rows([{}, {}])
    with pytest.raises(WindowExhausted):
        compare(zero, zero, p_lo=4, p_hi=2)


def test_macmahon_p_example():
    m = macmahon_p(0, (0, 10))
    assert [m.coeffs[0][2 * k] for k in range(6)] == [1, 1, 3, 6, 13, 24]


def test_macmahon_double_low_orders():
    m = macmahon(3, (0, 12), shift=1)
    # q^1 coefficient is sum_m m p^m
    assert [m.coeffs[1][2 * k] for k in range(1, 7)] == [1, 2, 3, 4, 5, 6]
    # q^0 coefficient is 1
    assert m.coeffs[0].items() == [(0, 1)]


def test_euler_product_example():
    e = euler_product(4)
    assert [e.coeffs[d][0] for d in range(5)] == [1, -1, -1, 0, 0]


def test_theta_q0():
    t = theta(2, (-6, 6))
    assert t.coeffs[0].items() == [(-1, -1), (1, 1)]
    # q^1 coefficient of the product: (x - 1/x)(-p - 1/p + 2) expanded
    assert not t.coeffs[1].is_zero()


def test_window_too_small_raises():
    with pytest.raises(WindowExhausted):
        theta(2, (0, 6))  # the prefactor has support at p^(-1/2)
    with pytest.raises(WindowExhausted):
        linear_factor(-1, 1, -1, 3, (0, 6))  # support reaches p^(-3) at q^3


def test_serialization_roundtrip():
    rng = random.Random(9)
    for _ in range(20):
        a = rand_series(rng)
        data = a.to_json_dict()
        for _, terms in data["coeffs"]:
            for _, v in terms:
                assert isinstance(v, str)


def test_comparison_report_schema():
    a = macmahon_p(1, (0, 6))
    b = macmahon_p(1, (0, 6))
    rep = compare(a, b).to_json_dict()
    for key in ("side_a", "side_b", "window", "q_order", "equal", "first_discrepancy"):
        assert key in rep
    assert rep["equal"] is True and rep["first_discrepancy"] is None
    c = PQSeries.constant(HalfLaurent({0: 1, 2: 99}), 1, window=(0, 6))
    rep = compare(a, c).to_json_dict()
    assert rep["equal"] is False
    assert rep["first_discrepancy"]["exp_half"] == 2
    assert rep["first_discrepancy"]["lhs"] == "1"
    # with no ceiling at any degree the window runs up to the top stored
    # exponent, never to an inverted (lo, 0)
    a = PQSeries.from_terms([(4, 1), (6, 2)], 1)
    assert compare(a, a).window() == (4, 6)
    assert compare(a, a).to_json_dict()["window"] == [4, 6]
    lo, hi = compare(a, a, p_lo=10).window()
    assert lo <= hi


def test_first_discrepancy_skips_equal_rows_and_differences_outside_the_region():
    # degree 0 equal; degree 1 differs only at x^4, above b's ceiling 2, so
    # outside the compared region (0, 2); degree 2 differs inside its region
    a = series_from_rows([{0: 1}, {0: 1, 4: 5}, {1: 1}], [(0, None), (0, 4), (1, None)])
    b = series_from_rows([{0: 1}, {0: 1}, {1: 2}], [(0, None), (0, 2), (1, None)])
    cmp = compare(a, b)
    assert cmp.regions[1] == (0, 2)
    assert (1, 4, 5, 0) in cmp.pairs()
    assert not cmp.equal
    assert cmp.first_discrepancy == (2, 1, 1, 2)
