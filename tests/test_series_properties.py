"""Property tests of the truncated-series operations against full-precision arithmetic.

Each test draws exactly-known series, truncates them at random knowledge
windows, and checks that every coefficient a sum, difference, product,
inverse, power, MacMahon expansion, truncation, shift or p -> -p substitution
claims to know equals the full-precision value, and that a comparison reports
equality only on nonempty regions where the full-precision values agree.  The
product constructors (linear factors, MacMahon, Euler and theta products) are
checked against a term-by-term product of geometric rows.  The runs are
derandomized, so the suite stays deterministic.
"""

import functools
import operator

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ellipticdt.series import (  # noqa: E402
    HalfLaurent,
    PQSeries,
    WindowExhausted,
    _binary_mul,
    _convolve,
    _invert_laurent,
    _square,
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

PROPERTY = settings(derandomize=True, database=None, deadline=None)
WIDE = 80  # knowledge ceiling of the full-precision reference for inverses

rows = st.dictionaries(st.integers(-4, 6), st.integers(-9, 9), max_size=5)


@st.composite
def exact_series(draw, q_order=None, unit=False, step=1):
    """An exactly-known series; with unit=True its q^0 row is +-x^e0 plus higher terms.

    Every exponent is a multiple of step (step=2 keeps to integer powers of p).
    """
    if q_order is None:
        q_order = draw(st.integers(0, 3))
    data = [{step * e: v for e, v in draw(rows).items()} for _ in range(q_order + 1)]
    if unit:
        e0 = draw(st.integers(-3, 2))
        data[0] = {e: v for e, v in data[0].items() if e > e0}
        data[0][e0] = draw(st.sampled_from((1, -1)))
    return PQSeries.exact(HalfLaurent(r) for r in data)


@st.composite
def truncated(draw, exact, unit=False):
    """exact with a random window at each degree: a floor at or below its
    support and a ceiling (or none) at or above that floor.  With unit=True
    the q^0 row keeps its exact floor and gets a finite ceiling, as invert needs."""
    coeffs, windows = [], []
    for d, hl in enumerate(exact.coeffs):
        if hl.is_zero() and not (unit and d == 0) and draw(st.booleans()):
            coeffs.append(hl)
            windows.append((None, None))
            continue
        floor = 6 if hl.is_zero() else hl.min_exp()
        lo = floor if unit and d == 0 else draw(st.integers(min(-6, floor), floor))
        ceiling = st.integers(lo, 12)
        hi = draw(ceiling if unit and d == 0 else st.none() | ceiling)
        coeffs.append(hl.clip(hi))
        windows.append((lo, hi))
    return PQSeries(exact.q_order, coeffs, windows)


def naive_mul(a, b):
    """Full-precision product of exactly-known series, one term pair at a time."""
    q_order = min(a.q_order, b.q_order)
    out = [{} for _ in range(q_order + 1)]
    for i in range(q_order + 1):
        for j in range(q_order + 1 - i):
            for e1, v1 in a.coeffs[i].items():
                for e2, v2 in b.coeffs[j].items():
                    out[i + j][e1 + e2] = out[i + j].get(e1 + e2, 0) + v1 * v2
    return PQSeries.exact(HalfLaurent(r) for r in out)


def naive_add(a, b, sign=1):
    """Full-precision a + sign*b of exactly-known series, row by row."""
    out = []
    for d in range(min(a.q_order, b.q_order) + 1):
        row = dict(a.coeffs[d].c)
        for e, v in b.coeffs[d].items():
            row[e] = row.get(e, 0) + sign * v
        out.append(HalfLaurent(row))
    return PQSeries.exact(out)


def plane_partitions(n_max):
    """Plane-partition counts from the divisor-sum recurrence n a(n) = sum sigma_2(k) a(n-k)."""
    sigma2 = [0] + [sum(j * j for j in range(1, k + 1) if k % j == 0) for k in range(1, n_max + 1)]
    a = [1]
    for n in range(1, n_max + 1):
        a.append(sum(sigma2[k] * a[n - k] for k in range(1, n + 1)) // n)
    return a


PLANE = plane_partitions(WIDE // 2)


def assert_agrees(got, truth):
    """Every window claim of `got` holds for `truth`, which must know at least as much.

    A degree claimed zero is zero in truth; otherwise truth has no support
    below the claimed floor, and equals got at every exponent up to the
    claimed ceiling (up to truth's own ceiling when got claims none).
    """
    assert got.q_order <= truth.q_order
    for d in range(got.q_order + 1):
        (lo, hi), (_, thi) = got.windows[d], truth.windows[d]
        known = [e for e in truth.coeffs[d].c if thi is None or e <= thi]
        if lo is None:
            assert not known, (d, truth.coeffs[d])
            continue
        assert all(e >= lo for e in known), (d, lo, truth.coeffs[d])
        if hi is None:
            top = thi if thi is not None else max([lo] + known + list(got.coeffs[d].c))
        else:
            assert thi is None or thi >= hi, (d, hi, thi)
            top = hi
        for e in range(lo, top + 1):
            assert got.coeffs[d][e] == truth.coeffs[d][e], (d, e)


def wide(exact):
    """The full-precision stand-in for an inverse: exact data known up to x^WIDE."""
    return exact.with_p_hi(WIDE)


@PROPERTY
@given(st.data())
def test_product_claims_hold(data):
    a_exact, b_exact = data.draw(exact_series()), data.draw(exact_series())
    a, b = data.draw(truncated(a_exact)), data.draw(truncated(b_exact))
    assert_agrees(a * b, naive_mul(a_exact, b_exact))


@PROPERTY
@given(st.data())
def test_invert_claims_hold(data):
    exact = data.draw(exact_series(unit=True))
    got = invert(data.draw(truncated(exact, unit=True)))
    truth = invert(wide(exact))
    assert_agrees(got, truth)
    prod = naive_mul(exact, truth)  # the reference is an inverse well past any claim above
    for d in range(exact.q_order + 1):
        assert all(prod.coeffs[d][e] == (d == 0 and e == 0) for e in range(-20, WIDE // 2))


@PROPERTY
@given(st.data(), st.integers(-3, 4))
def test_power_claims_hold(data, k):
    exact = data.draw(exact_series(unit=k < 0))
    got = power(data.draw(truncated(exact, unit=k < 0)), k)
    if k < 0:
        truth = power(invert(wide(exact)), -k)
    else:
        truth = PQSeries.one(exact.q_order)
        for _ in range(k):
            truth = naive_mul(truth, exact)
    assert_agrees(got, truth)


def product_of_copies(a, k):
    """Left-to-right product of |k| copies of a, or of invert(a) when k < 0."""
    if k == 0:
        return PQSeries.one(a.q_order)
    return functools.reduce(operator.mul, [a if k > 0 else invert(a)] * abs(k))


def copy_of(a):
    """A fresh series with a's data and windows, and none of its kept powers."""
    return PQSeries(a.q_order, a.coeffs, a.windows)


@PROPERTY
@given(st.data())
def test_shared_powers_equal_products_of_copies(data):
    """power(a, k) is the same series whether its steps are shared with earlier
    powers of a (exponents in a random order) or formed on a fresh base."""
    unit = data.draw(st.booleans())
    a = data.draw(truncated(data.draw(exact_series(unit=unit)), unit=unit))
    exponents = data.draw(st.permutations(range(-6 if unit else 0, 7)))
    for k in exponents:
        want = product_of_copies(copy_of(a), k)
        assert power(a, k) == want, k
        assert power(copy_of(a), k) == want, k


@PROPERTY
@given(st.data())
def test_square_equals_product_with_itself(data):
    a = data.draw(truncated(data.draw(exact_series())))
    assert _square(a) == _binary_mul(a, a)


nonzero_terms = st.dictionaries(st.integers(-8, 8), st.integers(-9, 9).filter(bool), max_size=6)


@st.composite
def shuffled_laurent(draw):
    """A Laurent polynomial whose dict was filled in a random exponent order."""
    return HalfLaurent(draw(st.permutations(sorted(draw(nonzero_terms).items()))))


@PROPERTY
@given(
    st.lists(st.tuples(shuffled_laurent(), shuffled_laurent()), max_size=4),
    st.none() | st.integers(-16, 16),
)
def test_convolve_equals_the_unceiled_product_clipped(pairs, hi):
    full = {}
    for x, y in pairs:
        for e1, v1 in x.c.items():
            for e2, v2 in y.c.items():
                full[e1 + e2] = full.get(e1 + e2, 0) + v1 * v2
    want = HalfLaurent(full).clip(hi)
    assert _convolve(pairs, hi) == want


@PROPERTY
@given(
    st.integers(-4, 4),
    st.sampled_from((1, -1)),
    st.dictionaries(st.integers(1, 12), st.integers(-9, 9).filter(bool), max_size=5),
    st.integers(0, 14),
)
def test_invert_laurent_of_a_gapped_row_holds_through_its_window(e0, lead, upper, width):
    """a0 has zero coefficients between its terms; a0 * b = 1 wherever b is known."""
    hi0 = e0 + width
    a0 = HalfLaurent({e0: lead, **{e0 + j: v for j, v in upper.items() if j <= width}})
    b, (lo, hi) = _invert_laurent(a0, e0, hi0)
    assert (lo, hi) == (-e0, hi0 - 2 * e0)
    assert b.min_exp() == lo and b.max_exp() <= hi
    assert (a0 * b).clip(hi0 - e0) == HalfLaurent({0: 1})


@PROPERTY
@given(st.integers(0, 3), st.integers(-6, 0), st.integers(0, 40))
def test_macmahon_p_claims_hold(q_order, lo, hi):
    got = macmahon_p(q_order, (lo, hi))
    truth = PQSeries.exact(
        [HalfLaurent({2 * n: c for n, c in enumerate(PLANE)})] + [HalfLaurent()] * q_order
    ).with_p_hi(WIDE)
    assert got.windows[0] == (0, hi)
    assert_agrees(got, truth)


@PROPERTY
@given(st.data(), st.sampled_from((1, -1)))
def test_sum_and_difference_claims_hold(data, sign):
    a_exact, b_exact = data.draw(exact_series()), data.draw(exact_series())
    a, b = data.draw(truncated(a_exact)), data.draw(truncated(b_exact))
    assert_agrees(a + b if sign > 0 else a - b, naive_add(a_exact, b_exact, sign))


@PROPERTY
@given(st.data(), st.integers(-8, 14))
def test_with_p_hi_claims_hold(data, hi):
    exact = data.draw(exact_series())
    a = data.draw(truncated(exact))
    try:
        got = a.with_p_hi(hi)
    except WindowExhausted:
        assert any(lo is not None and lo > hi for lo, _ in a.windows)
        return
    assert all(h is not None and h <= hi for lo, h in got.windows if lo is not None)
    assert_agrees(got, exact)


@PROPERTY
@given(st.data(), st.integers(-7, 7))
def test_shift_p_claims_hold(data, k):
    exact = data.draw(exact_series())
    got = data.draw(truncated(exact)).shift_p(k)
    assert_agrees(got, PQSeries.exact(hl.shift(k) for hl in exact.coeffs))


@PROPERTY
@given(st.data())
def test_substitute_neg_p_claims_hold(data):
    exact = data.draw(exact_series(step=2))
    got = substitute_neg_p(data.draw(truncated(exact)))
    truth = PQSeries.exact(
        HalfLaurent({e: (-1) ** (e // 2) * v for e, v in hl.items()}) for hl in exact.coeffs
    )
    assert_agrees(got, truth)


@PROPERTY
@given(st.data())
def test_compare_reports_equality_only_where_the_sides_agree(data):
    if data.draw(st.booleans()):
        a_exact = data.draw(exact_series())
    else:  # zero rows may be claimed zero, which leaves only a requested region
        a_exact = PQSeries.exact([HalfLaurent()] * (data.draw(st.integers(0, 3)) + 1))
    b_exact = a_exact
    if data.draw(st.booleans()):  # perturb one coefficient
        d = data.draw(st.integers(0, a_exact.q_order))
        bump = PQSeries.from_terms([(data.draw(st.integers(-6, 12)), 1)], a_exact.q_order, d)
        b_exact = a_exact + bump
    a, b = data.draw(truncated(a_exact)), data.draw(truncated(b_exact))
    p_lo, p_hi = data.draw(st.none() | st.integers(-8, 12)), data.draw(st.none() | st.integers(-8, 12))
    try:
        rep = compare(a, b, p_lo=p_lo, p_hi=p_hi)
    except WindowExhausted:
        return
    agree = True
    for d, (lo, hi) in enumerate(rep.regions):
        ca, cb = a_exact.coeffs[d], b_exact.coeffs[d]
        if lo is None:  # both sides known to vanish at this degree
            assert hi is None and a.windows[d][0] is None and b.windows[d][0] is None
            assert ca.is_zero() and cb.is_zero()
            continue
        assert hi is None or lo <= hi, (d, lo, hi)
        top = hi if hi is not None else max([lo] + list(ca.c) + list(cb.c))
        agree = agree and all(ca[e] == cb[e] for e in range(lo, top + 1))
    assert rep.equal == agree
    lo, hi = rep.window()
    assert lo <= hi
    # the first discrepancy is the first in-region (d, e) whose stored values
    # differ, and pairs() yields each stored exponent once, in (d, e) order
    stored = [
        (d, e, a.coeffs[d][e], b.coeffs[d][e])
        for d in range(rep.q_order + 1)
        for e in sorted(set(a.coeffs[d].c) | set(b.coeffs[d].c))
    ]
    assert list(rep.pairs()) == stored

    def inside(d, e):
        lo, hi = rep.regions[d]
        return (lo is None or lo <= e) and (hi is None or e <= hi)

    differ = [(d, e, x, y) for d, e, x, y in stored if x != y and inside(d, e)]
    assert rep.first_discrepancy == (differ[0] if differ else None)


# ---------------------------------------------------------------------------
# Product constructors against a naive expansion

BOUND = 40  # p-exponent (half-units) to which the naive products are known


def naive_factors(triples, q_order):
    """prod (1 - p^a q^b)^e over (a, b, e), known to x^BOUND.

    Each factor is multiplied in as e copies of (1 - p^a q^b), or as -e copies
    of the geometric row sum_k p^(ak) q^(bk), one term pair at a time.  Terms
    above q^q_order or x^BOUND are dropped, which keeps every coefficient up
    to x^BOUND exact as long as the dropped exponents stay nonnegative.
    """
    out = {(0, 0): 1}
    for a, b, e in triples:
        if e > 0:
            row = {(0, 0): 1}
            row[(b, 2 * a)] = row.get((b, 2 * a), 0) - 1
        else:
            row = {}
            k = 0
            while k * b <= q_order and 2 * a * k <= BOUND:
                row[(k * b, 2 * a * k)] = 1
                k += 1
        for _ in range(abs(e)):
            nxt = {}
            for (d1, e1), v1 in out.items():
                for (d2, e2), v2 in row.items():
                    if d1 + d2 <= q_order and e1 + e2 <= BOUND:
                        nxt[(d1 + d2, e1 + e2)] = nxt.get((d1 + d2, e1 + e2), 0) + v1 * v2
            out = nxt
    rows = [{} for _ in range(q_order + 1)]
    for (d, e), v in out.items():
        rows[d][e] = v
    return PQSeries.exact(HalfLaurent(r) for r in rows).with_p_hi(BOUND)


def assert_holds_or_refused(build, truth, p_window):
    """build() agrees with truth, or refuses a p_window that cannot hold truth:
    truth has support below its floor, or a nonzero row starting above its top."""
    try:
        got = build()
    except WindowExhausted:
        floors = [hl.min_exp() for hl in truth.coeffs if not hl.is_zero()]
        assert p_window is not None and (min(floors) < p_window[0] or max(floors) > p_window[1])
        return
    assert_agrees(got, truth)


@PROPERTY
@given(st.integers(1, 3), st.integers(0, 3), st.integers(-6, 0), st.integers(0, BOUND))
def test_linear_factor_cut_in_p_claims_hold(a, q_order, lo, hi):
    # (1 - p^a)^(-1) is infinite in p: it is cut at the window top and known to it
    got = linear_factor(a, 0, -1, q_order, (lo, hi))
    assert got.windows == ((0, hi),) + ((None, None),) * q_order
    assert_agrees(got, naive_factors([(a, 0, -1)], q_order))


@functools.lru_cache(maxsize=None)
def naive_macmahon(q_order, shift):
    return naive_factors(tuple((m, shift, -m) for m in range(1, BOUND // 2 + 1)), q_order)


@PROPERTY
@given(
    st.integers(-3, 3), st.integers(0, 4), st.sampled_from((1, -1)), st.integers(0, 4),
    st.integers(-8, 0), st.integers(0, BOUND),
)
def test_linear_factor_claims_hold(a, b, sign, q_order, lo, hi):
    if sign < 0 and b == 0 and a <= 0:  # no expansion in nonnegative powers of p
        with pytest.raises(ValueError):
            linear_factor(a, b, sign, q_order, (lo, hi))
        return
    truth = naive_factors([(a, b, sign)], q_order)
    assert_holds_or_refused(lambda: linear_factor(a, b, sign, q_order, (lo, hi)), truth, (lo, hi))


@PROPERTY
@given(st.integers(0, 3), st.integers(0, 4), st.integers(-6, 0), st.integers(0, BOUND))
def test_macmahon_claims_hold(q_order, shift, lo, hi):
    def build():
        got = macmahon(q_order, (lo, hi), shift=shift)
        assert all(top == hi for floor, top in got.windows if floor is not None)
        return got

    assert_holds_or_refused(build, naive_macmahon(q_order, shift), (lo, hi))


@PROPERTY
@given(st.integers(0, 7), st.none() | st.integers(-4, 2))
def test_euler_product_claims_hold(q_order, lo):
    truth = naive_factors([(0, k, 1) for k in range(1, q_order + 1)], q_order)
    pw = None if lo is None else (lo, lo + 4)
    assert_holds_or_refused(lambda: euler_product(q_order, pw), truth, pw)


@PROPERTY
@given(st.integers(0, 4), st.integers(-12, 0))
def test_theta_claims_hold(q_order, lo):
    triples = [t for k in range(1, q_order + 1) for t in ((1, k, 1), (-1, k, 1), (0, k, -2))]
    prefactor = PQSeries.from_terms([(1, 1), (-1, -1)], q_order)
    truth = naive_mul(prefactor, naive_factors(triples, q_order))
    assert_holds_or_refused(lambda: theta(q_order, (lo, 0)), truth, (lo, 0))
