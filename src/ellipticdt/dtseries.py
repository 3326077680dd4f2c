"""Curve-counting partition functions of a local elliptic surface.

The sum side assembles everything from enumerated vertex values: the two
universal factors F1, F2, the per-point weights g (smooth fibers) and h (nodal
fibers), and the full generating functions over the symmetric products of the
base.  The product side expands the closed infinite-product forms.  The two
sides share nothing but the raw vertex enumeration, so their agreement is a
real check of the trace identities and of the assembly itself; the identity_a,
identity_b and identity_c checks isolate the three trace identities the
product forms rest on.

All p-exponents are in half-units (see series module).

Both sides are a few units raised to Euler-characteristic powers.  Every such
power goes through _raised(unit, e, *args), and every q-series of per-degree
rows through _q_series(row, q_order, t).  These, the built units (F1, s1, s2,
the Euler product and Theta), the series of each vertex record
(_record_series, so V~(empty) and V~(box) are one object each), rows,
weights, prefactors, product factors and product sides go through
vertex.memoized (one lru_cache per builder, keyed by its arguments), so one
`check all` builds each once and raises each unit to each exponent once, and
the exponents of one unit share their squarings (series.power keeps its steps
on the base); vertex.clear_memo() drops them with the vertex records.
symprod_check takes all exponents of a weight table at once and builds every
symmetric-product term and coefficient in one walk over the partitions; each
point product of f_d_series (_point_product) is built from its prefix.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import partial, reduce

from .partitions import BOX, EMPTY, enumerate_partitions
from .series import (
    HalfLaurent,
    PQSeries,
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
from .vertex import LegConfig, expect, memoized, tilde_vertex


class SurfaceData(namedtuple("SurfaceData", "eB eS")):
    """Topological Euler characteristics of the base curve and the surface."""

    __slots__ = ()

    def __new__(cls, eB, eS):
        if eB % 2:
            raise ValueError("eB must be even, got %d" % eB)
        return super().__new__(cls, eB, eS)


class PointConfig(namedtuple("PointConfig", "a b")):
    """Multiplicities at smooth-fiber points (a) and nodal-fiber points (b)."""

    __slots__ = ()

    def __new__(cls, a, b):
        a, b = tuple(int(x) for x in a), tuple(int(x) for x in b)
        if any(x < 1 for x in a) or any(x < 1 for x in b):
            raise ValueError("point multiplicities must be positive")
        return super().__new__(cls, a, b)

    def degree(self):
        return sum(self.a) + sum(self.b)


class _Tilde(namedtuple("_Tilde", "order cache")):
    """Normalized-vertex values as q-free series with window [0, 2*order];
    cache is a VertexCache or None."""

    __slots__ = ()

    def __call__(self, lam, mu, nu):
        return _record_series(tilde_vertex(LegConfig(lam, mu, nu), self.order, self.cache))


@memoized
def _record_series(rec):
    """rec.series(), one object per record, so the powers of a vertex share their steps."""
    return rec.series()


def _embed(series, q_order):
    """Pad a q-free series to the requested q-order with known-zero degrees."""
    return PQSeries.constant(series.coeffs[0], q_order, window=series.windows[0])


@memoized
def _inverse(lam, t):
    """1/V~(lam, empty, empty), the one inverse every row, weight and F1 divides by."""
    return invert(t(lam, EMPTY, EMPTY))


def F1F2(order, cache=None):
    """The two universal vertex factors.

    F1 = p^(1/2) V~(box)/V~(empty) lies in p^(1/2) Z[[p]]; F2 = V~(empty).
    """
    t = _Tilde(order, cache)
    return _f1(t), t(EMPTY, EMPTY, EMPTY)


@memoized
def _f1(t):
    """The unit F1 = p^(1/2) V~(box)/V~(empty)."""
    return (t(BOX, EMPTY, EMPTY) * _inverse(EMPTY, t)).shift_p(1)


def _sum(terms):
    """Left-to-right sum of a nonempty iterable of series."""
    return reduce(operator.add, terms)


def _product(factors, q_order):
    """Left-to-right product of a list of series; 1 when the list is empty."""
    return reduce(operator.mul, factors) if factors else PQSeries.one(q_order)


@memoized
def _raised(unit, e, *args):
    """unit(*args)^e, the one power every side and prefactor takes, so a pass
    raises each unit to each exponent once."""
    return power(unit(*args), e)


@memoized
def _q_series(row, q_order, t):
    """The q-series whose q^d coefficient is the q-free series row(d, t), d <= q_order.

    It first notes the rows up to q_order (_note_rows), so the first record
    the pass counts at t.order counts every config they ask for in one walk.
    """
    _note_rows(q_order, t)
    rows = [row(d, t) for d in range(q_order + 1)]
    return PQSeries(q_order, [r.coeffs[0] for r in rows], [r.windows[0] for r in rows])


# ---------------------------------------------------------------------------
# The three vertex sums of the trace identities, one q-free row per degree d


def _row_legs(q_order):
    """The leg configs the rows of degree <= q_order ask for: (lam, empty, empty)
    (each inverse), (lam, box, empty) and (lam, lam', empty), |lam| <= q_order."""
    return [
        LegConfig(lam, mu, EMPTY)
        for d in range(q_order + 1)
        for lam in enumerate_partitions(d)
        for mu in (EMPTY, BOX, lam.conjugate())
    ]


@memoized
def _note_rows(degree, t):
    """Note with vertex.expect, once per degree and t, the configs the rows of
    degree <= `degree` ask for at t.order and t.cache."""
    expect(t.order, t.cache, partial(_row_legs, degree))


def note_rows(degree, order, cache=None):
    """Note the configs the rows of degree <= `degree` ask for at `order` and
    `cache` (see _note_rows), before the first record is read or counted."""
    _note_rows(degree, _Tilde(order, cache))


@memoized
def _smooth_row(d, t):
    """Sum over lam |- d of V~(lam,box,empty)/V~(lam,empty,empty) * p^(-lam_1)."""
    return _sum(
        (t(lam, BOX, EMPTY) * _inverse(lam, t)).shift_p(-2 * lam.first_part())
        for lam in enumerate_partitions(d)
    )


@memoized
def _nodal_row(d, t):
    """Sum over mu |- d of V~(mu,mu',empty) V~(mu,box,empty)/V~(mu,empty,empty) * p^(-mu_1)."""
    return _sum(
        (t(mu, mu.conjugate(), EMPTY) * t(mu, BOX, EMPTY) * _inverse(mu, t)).shift_p(
            -2 * mu.first_part()
        )
        for mu in enumerate_partitions(d)
    )


def _fiber_row(d, t):
    """Sum over mu |- d of V~(mu,mu',empty)/V~(empty)."""
    return _sum(t(mu, mu.conjugate(), EMPTY) for mu in enumerate_partitions(d)) * _inverse(EMPTY, t)


def _partition_count(d, t):
    """The number of partitions of d, as an exact q-free series (t is unused)."""
    return PQSeries.from_terms([(0, len(enumerate_partitions(d)))], 0)


@memoized
def _smooth_weight(a, t):
    """g(a) as a q-free series: V~(empty)/V~(box) times the smooth row."""
    if a == 0:
        return PQSeries.one(0)
    return t(EMPTY, EMPTY, EMPTY) * _inverse(BOX, t) * _smooth_row(a, t)


@memoized
def _nodal_weight(b, t):
    """h(b) as a q-free series: 1/V~(box) times the nodal row."""
    if b == 0:
        return PQSeries.one(0)
    return _inverse(BOX, t) * _nodal_row(b, t)


def g_of(a, order, cache=None):
    """The smooth-fiber weight g(a); exact on [-a, order-a] in whole p-units."""
    if a < 0:
        raise ValueError("a must be nonnegative")
    return _smooth_weight(a, _Tilde(order, cache)).coeffs[0]


def h_of(b, order, cache=None):
    """The nodal-fiber weight h(b); exact on [-b, order-b] in whole p-units."""
    if b < 0:
        raise ValueError("b must be nonnegative")
    return _nodal_weight(b, _Tilde(order, cache)).coeffs[0]


# ---------------------------------------------------------------------------
# The pushforward value at a fixed point configuration


def f_d_series(config, surf, order, mode="factored", cache=None):
    """Pushforward weight at a point configuration, as a windowed q-free series.

    factored: F1^eB * F2^eS * prod g(a_i) * prod h(b_j).
    strata:   the same value assembled stratum by stratum: p^(eB/2) times
              V~(empty)^(eS-eB+n) * V~(box)^(eB-n-m) times, per point, the sum
              over partitions of the local vertex weights (each punctured
              fiber contributing exponent -1).
    """
    t = _Tilde(order, cache)
    _note_rows(max((*config.a, *config.b, 1)), t)  # 1: the prefactor's V~(box)
    if mode == "factored":
        prefactor = _factored_prefactor(surf.eB, surf.eS, t)
        return prefactor * _point_product(config.a, config.b, False, t)
    if mode != "strata":
        raise ValueError("mode must be 'factored' or 'strata'")
    n, m = len(config.a), len(config.b)
    prefactor = _strata_prefactor(surf.eS - surf.eB + n, surf.eB - n - m, surf.eB, t)
    return prefactor * _point_product(config.a, config.b, True, t)


@memoized
def _point_product(a, b, rows, t):
    """prod g(a_i) * prod h(b_j), or with rows the same product of the smooth and
    nodal rows; each product is its prefix (one point fewer) times one factor."""
    if b:
        factor = (_nodal_row if rows else _nodal_weight)(b[-1], t)
        return _point_product(a, b[:-1], rows, t) * factor
    if a:
        factor = (_smooth_row if rows else _smooth_weight)(a[-1], t)
        return _point_product(a[:-1], b, rows, t) * factor
    return PQSeries.one(0)


@memoized
def _factored_prefactor(eB, eS, t):
    """F1^eB * F2^eS, with F2 = V~(empty)."""
    return _raised(_f1, eB, t) * _raised(t, eS, EMPTY, EMPTY, EMPTY)


@memoized
def _strata_prefactor(x, y, eB, t):
    """V~(empty)^x * V~(box)^y * p^(eB/2), eB/2 being the Euler characteristic of the base."""
    return (_raised(t, x, EMPTY, EMPTY, EMPTY) * _raised(t, y, BOX, EMPTY, EMPTY)).shift_p(eB)


def f_d_compare(config, surf, order, cache=None):
    """Cross-mode comparison of the two f_d assemblies."""
    return compare(
        f_d_series(config, surf, order, "factored", cache),
        f_d_series(config, surf, order, "strata", cache),
    )


# ---------------------------------------------------------------------------
# Full partition functions


def _window(p_window, order):
    """p_window as a (hashable) tuple, or the default window of the p-order when None."""
    if p_window is None:
        return (-(2 * order + 2), 2 * order + 2)
    return tuple(p_window)


@memoized
def _macmahon_tower(q_order, pw):
    """prod_d M(p, q^d) for 1 <= d <= q_order."""
    factors = [macmahon(q_order, pw, shift=d) for d in range(1, q_order + 1)]
    return _product(factors, q_order)


@memoized
def _inverse_euler(q_order, pw):
    """prod_d (1 - q^d)^(-1) for 1 <= d <= q_order."""
    factors = [linear_factor(0, d, -1, q_order, pw) for d in range(1, q_order + 1)]
    return _product(factors, q_order)


@memoized
def _theta_tail(q_order, pw):
    """prod_d 1/((1 - p q^d)(1 - p^(-1) q^d)) for 1 <= d <= q_order."""
    factors = [
        linear_factor(e, d, -1, q_order, pw) for d in range(1, q_order + 1) for e in (1, -1)
    ]
    return _product(factors, q_order)


@memoized
def _dt_fib_unit(q_order, pw):
    """M(p) prod_d M(p, q^d), the unit the product side of dt_fib raises to eS."""
    return macmahon_p(q_order, pw) * _macmahon_tower(q_order, pw)


@memoized
def _dt_hat_s1(q_order, pw):
    """M(p) prod_d M(p,q^d)/(1-q^d), the unit the product side of dt_hat raises to eS."""
    return _dt_fib_unit(q_order, pw) * _inverse_euler(q_order, pw)


@memoized
def _dt_hat_s2(q_order, pw):
    """(p^(1/2)-p^(-1/2))^(-1) prod_d (1-q^d)/((1-p q^d)(1-p^(-1) q^d)), raised to eB."""
    s2 = invert(PQSeries.from_terms([(1, 1), (-1, -1)], q_order).with_p_hi(pw[1]))
    return s2 * _euler(q_order, pw) * _theta_tail(q_order, pw)


@memoized
def _euler(q_order, pw):
    """prod_k (1 - q^k), the unit connected's Jacobi side raises to -eS."""
    return euler_product(q_order, pw)


@memoized
def _jacobi_theta(q_order, pw):
    """Theta cut at the p-window's top, the unit connected's Jacobi side raises to -eB."""
    return theta(q_order, pw).with_p_hi(pw[1])


def dt_hat(surf, q_order, order, side="product", p_window=None, cache=None):
    """The box-weighted partition function for section-plus-fibers classes.

    sum:     F1^eB * F2^eS * G^(eB-eS) * H^eS with G, H the generating series
             of the g and h weights (the symmetric-product assembly).
    product: {M(p) prod_d M(p,q^d)/(1-q^d)}^eS *
             {(p^(1/2)-p^(-1/2))^(-1) prod_d (1-q^d)/((1-p q^d)(1-p^(-1) q^d))}^eB.
    """
    if side == "sum":
        t = _Tilde(order, cache)
        # The rows first: _q_series notes them before the first vertex request.
        smooth = _raised(_q_series, surf.eB - surf.eS, _smooth_weight, q_order, t)
        nodal = _raised(_q_series, surf.eS, _nodal_weight, q_order, t)
        return _embed(_factored_prefactor(surf.eB, surf.eS, t), q_order) * smooth * nodal
    if side != "product":
        raise ValueError("side must be 'sum' or 'product'")
    return _dt_hat_product(surf, q_order, _window(p_window, order))


@memoized
def _dt_hat_product(surf, q_order, pw):
    """The product side of dt_hat, s1^eS * s2^eB."""
    return _raised(_dt_hat_s1, surf.eS, q_order, pw) * _raised(_dt_hat_s2, surf.eB, q_order, pw)


def dt_fib(surf, q_order, order, side="product", p_window=None, cache=None):
    """The box-weighted partition function for pure fiber classes.

    sum:     V~(empty)^eS * (sum_lam q^(|lam|))^(eB-eS) *
             (sum_mu V~(mu,mu',empty)/V~(empty) q^(|mu|))^eS.
    product: {M(p) prod_d M(p,q^d)}^eS * {prod_d (1-q^d)^(-1)}^eB.
    """
    if side == "sum":
        t = _Tilde(order, cache)
        # The rows first: _q_series notes them before the first vertex request.
        counts = _raised(_q_series, surf.eB - surf.eS, _partition_count, q_order, t)
        fibers = _raised(_q_series, surf.eS, _fiber_row, q_order, t)
        return _embed(_raised(t, surf.eS, EMPTY, EMPTY, EMPTY), q_order) * counts * fibers
    if side != "product":
        raise ValueError("side must be 'sum' or 'product'")
    return _dt_fib_product(surf, q_order, _window(p_window, order))


@memoized
def _dt_fib_product(surf, q_order, pw):
    """The product side of dt_fib, {M(p) prod_d M(p,q^d)}^eS * {prod_d (1-q^d)^(-1)}^eB."""
    return _raised(_dt_fib_unit, surf.eS, q_order, pw) * _raised(_inverse_euler, surf.eB, q_order, pw)


def connected(surf, q_order, order, side="ratio", p_window=None, cache=None):
    """Generating series of the connected section-class invariants.

    ratio:  dt_hat / dt_fib on their product sides.
    jacobi: (prod_k (1-q^k))^(-eS) * Theta^(-eB); the q^(1/24) prefactor of the
            eta function cancels against the normalization by construction.
    """
    pw = _window(p_window, order)
    if side == "ratio":
        return _dt_hat_product(surf, q_order, pw) * invert(_dt_fib_product(surf, q_order, pw))
    if side != "jacobi":
        raise ValueError("side must be 'ratio' or 'jacobi'")
    return _raised(_euler, -surf.eS, q_order, pw) * _raised(_jacobi_theta, -surf.eB, q_order, pw)


def behrend_transform(a, chi_os):
    """Weighted-to-signed change of variables: (-1)^chi_os times a at p -> -p.

    Reading the result in y gives the sign-weighted series; applying the same
    transform twice restores the input.
    """
    out = substitute_neg_p(a)
    return out.scale(-1) if chi_os % 2 else out


# ---------------------------------------------------------------------------
# Symmetric-product expansion check


def symprod_check(g_table, exponents, q_order):
    """Check the symmetric-product expansion of a weight table g with g(0)=1 at
    each exponent e of exponents; returns one comparison per exponent, in order.

    LHS expands sum_d q^d sum over multiplicity tuples (m_1, m_2, ...) with
    sum j*m_j = d of prod g(j)^(m_j) times the generalized multinomial
    coefficient e(e-1)...(e-M+1)/prod m_j! (M = sum m_j parts); RHS is
    (sum_a g(a) q^a)^e.

    One walk over the partitions of degree <= q_order builds every left side.
    A partition's product is its parent's (the partition without its last,
    smallest, part j, of lower degree and so walked before it) times g(j),
    and its coefficient at e is its parent's times (e - M')/m_j, M' the
    parent's number of parts.  That division is exact: both coefficients are
    integers (a binomial coefficient of e times a multinomial one), so the
    parent's times (e - M') is m_j times the partition's.  Each partition's
    product is added to the rows of the exponents where its coefficient is
    nonzero.  The right sides are powers of one base series, which share its
    one inverse and its squarings.
    """
    exponents = tuple(exponents)
    table = {int(a): hl for a, hl in g_table.items()}
    weights = [table.get(a, HalfLaurent()) for a in range(1, q_order + 1)]
    one = HalfLaurent({0: 1})
    walked = {(): (one, (1,) * len(exponents))}
    rows = [[one] for _ in exponents]
    for d in range(1, q_order + 1):
        accs = [{} for _ in exponents]
        for lam in enumerate_partitions(d):
            parent, j = lam.parts[:-1], lam.parts[-1]
            product, coeffs = walked[parent]
            product = product * weights[j - 1]
            m, n = lam.parts.count(j), len(parent)
            coeffs = tuple(c * (e - n) // m for c, e in zip(coeffs, exponents))
            walked[lam.parts] = product, coeffs
            for acc, coeff in zip(accs, coeffs):
                if coeff:
                    for x, v in product.c.items():
                        acc[x] = acc.get(x, 0) + coeff * v
        for row, acc in zip(rows, accs):
            row.append(HalfLaurent._raw({x: v for x, v in acc.items() if v}))
    base = PQSeries.exact([one] + weights)
    return [compare(PQSeries.exact(row), power(base, e)) for row, e in zip(rows, exponents)]


# ---------------------------------------------------------------------------
# The three trace identities behind the product forms


def identity_a(q_order, order, cache=None, p_window=None):
    """Smooth-point trace identity: the g-weight series against its product form."""
    t = _Tilde(order, cache)
    one_minus_p = PQSeries.from_terms([(0, 1), (2, -1)], q_order)
    lhs = _q_series(_smooth_row, q_order, t) * one_minus_p
    pw = _window(p_window, order)
    return lhs, _euler(q_order, pw) * _theta_tail(q_order, pw)


def identity_b(q_order, order, cache=None, p_window=None):
    """Nodal-point trace identity: the h-weight series against its product form."""
    t = _Tilde(order, cache)
    one_minus_p = PQSeries.from_terms([(0, 1), (2, -1)], q_order)
    lhs = _q_series(_nodal_row, q_order, t) * one_minus_p
    pw = _window(p_window, order)
    return lhs, _dt_fib_unit(q_order, pw) * _theta_tail(q_order, pw)


def identity_c(q_order, order, cache=None, p_window=None):
    """Fiber-class trace identity: conjugate-leg vertex ratios against their product form."""
    t = _Tilde(order, cache)
    lhs = _q_series(_fiber_row, q_order, t)
    pw = _window(p_window, order)
    return lhs, _inverse_euler(q_order, pw) * _macmahon_tower(q_order, pw)
