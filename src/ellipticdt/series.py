"""Exact truncated series in two variables: Laurent in x = p^(1/2), power series in q.

All exponents of p are counted in half-units (the integer exponent of x), so
p^(3/2) is exponent 3 and p^(-1) is exponent -2.  Coefficients are unbounded
Python integers; nothing here is ever floating point.

Knowledge windows.  Each q-degree d of a PQSeries carries a window (lo, hi):

  * the true coefficient of q^d has no p-support below lo, and
  * its value is exactly known (stored) for every exponent <= hi.

``hi = None`` means the coefficient is known at every exponent (it then has
finite support), and ``lo = None`` means the coefficient is identically zero
(then hi is None as well).  Because coefficients below lo are known to vanish,
the knowledge region at degree d is the full ray (-inf, hi].  Windows are
tracked per q-degree: the series built from vertex sums have p-valuation
falling linearly with the q-degree, and a single rectangular window would
collapse to nothing under the large powers the surface formulas take.

Every ring operation computes the widest window on which the convolution of
exactly-known data is itself exact; an equality reported by ``compare`` is a
statement about exactly-known coefficients only.

Every product goes through one of two kernels, which share one window fold
and one term-pair loop.  ``_fold`` folds the window of a q-degree from the
factor windows in one pass over its degree pairs and names the live pairs
(both sides with a floor).  ``_convolve``, the only place that multiplies
term pairs, walks each right factor's terms in increasing exponent and stops
at that window's ceiling, so no term above it is formed; it drops zero sums
once, at the end.  ``_degree_product`` folds the ordered degree pairs and is
behind ``HalfLaurent.__mul__``, series multiplication and ``invert``;
``_square`` folds the unordered pairs and convolves each off-diagonal pair
once, one side doubled.  ``_invert_laurent`` runs the recurrence of the q^0
inverse over the nonzero terms of its row.  ``power`` keeps every power it
forms on its base, so the powers of one base share their squarings.  A
comparison walks the exponents of a degree only where its two stored rows
differ.
``PQSeries.exact`` is the one constructor for exactly-known data: row d gets
the window (min exponent, None), or (None, None) when it is zero.

Every product constructor (``linear_factor``, ``macmahon``, whose shift 0 is
``macmahon_p``, ``euler_product`` and ``theta``) multiplies factors
(1 - p^a q^b)^e built by one binomial expansion, ``_factors``.
"""

from __future__ import annotations


class SeriesError(Exception):
    pass


class WindowExhausted(SeriesError):
    """Raised when a computation or comparison needs coefficients outside the known window."""


class NotInvertible(SeriesError):
    """Raised when a series has no integer-exact inverse on its window."""


# ---------------------------------------------------------------------------
# Laurent coefficients


class HalfLaurent:
    """A finite Laurent polynomial in x = p^(1/2) with integer coefficients."""

    __slots__ = ("c",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        c = {}
        for e, v in items:
            e, v = int(e), int(v)
            if v:
                w = c.get(e, 0) + v
                if w:
                    c[e] = w
                else:
                    del c[e]
        self.c = c

    @classmethod
    def _raw(cls, c):
        out = object.__new__(cls)
        out.c = c
        return out

    def is_zero(self):
        return not self.c

    def min_exp(self):
        return min(self.c) if self.c else None

    def max_exp(self):
        return max(self.c) if self.c else None

    def items(self):
        return sorted(self.c.items())

    def __getitem__(self, e):
        return self.c.get(e, 0)

    def __add__(self, other):
        c = dict(self.c)
        for e, v in other.c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = w
            else:
                c.pop(e, None)
        return HalfLaurent._raw(c)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return HalfLaurent._raw({e: -v for e, v in self.c.items()})

    def __mul__(self, other):
        return _convolve(((self, other),))

    def scale(self, n):
        n = int(n)
        if not n:
            return HalfLaurent._raw({})
        return HalfLaurent._raw({e: n * v for e, v in self.c.items()})

    def shift(self, k):
        return HalfLaurent._raw({e + k: v for e, v in self.c.items()})

    def clip(self, hi):
        """Drop exponents above hi (hi None keeps everything)."""
        if hi is None:
            return self
        return HalfLaurent._raw({e: v for e, v in self.c.items() if e <= hi})

    def __eq__(self, other):
        return isinstance(other, HalfLaurent) and self.c == other.c

    def pretty(self, var="p"):
        if not self.c:
            return "0"
        bits = []
        for e, v in self.items():
            if e == 0:
                term = str(abs(v))
            else:
                exp = e // 2 if e % 2 == 0 else "%d/2" % e
                pw = var if e == 2 else "%s^%s" % (var, exp)
                term = pw if abs(v) == 1 else "%d*%s" % (abs(v), pw)
            bits.append(("- " if v < 0 else "+ ") + term)
        head = bits[0][2:] if bits[0].startswith("+ ") else "-" + bits[0][2:]
        return " ".join([head] + bits[1:])

    def __repr__(self):
        return "HalfLaurent(%r)" % (dict(self.items()),)


# ---------------------------------------------------------------------------
# Window arithmetic: (lo, hi) pairs with the None conventions described above.


def _min_hi(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _add_window(wa, wb):
    la, _ = wa
    lb, _ = wb
    if la is None:
        return wb
    if lb is None:
        return wa
    return (min(la, lb), _min_hi(wa[1], wb[1]))


def _span(windows, rows):
    """Aggregate (lo, hi) of per-degree windows: the lowest floor and the weakest
    ceiling, or, when no degree has a ceiling, the top exponent stored in rows."""
    los = [lo for lo, _ in windows if lo is not None]
    his = [hi for _, hi in windows if hi is not None]
    lo = min(los) if los else 0
    if his:
        return (lo, min(his))
    return (lo, max([lo] + [hl.max_exp() for hl in rows if not hl.is_zero()]))


# ---------------------------------------------------------------------------
# PQSeries


class PQSeries:
    """Truncated element of Z((p^(1/2)))[[q]] with per-degree knowledge windows."""

    __slots__ = ("q_order", "coeffs", "windows", "_powers")

    def __init__(self, q_order, coeffs, windows):
        if q_order < 0:
            raise ValueError("q_order must be nonnegative")
        coeffs = tuple(coeffs)
        windows = tuple(map(tuple, windows))
        if len(coeffs) != q_order + 1 or len(windows) != q_order + 1:
            raise ValueError("need q_order + 1 coefficients and windows")
        for hl, (lo, hi) in zip(coeffs, windows):
            c = hl.c
            if lo is None:
                if hi is not None:
                    raise ValueError("window (None, hi) is not meaningful")
                if c:
                    raise ValueError("known-zero degree carries nonzero data")
                continue
            if hi is not None and hi < lo:
                raise WindowExhausted("empty knowledge window [%s, %s]" % (lo, hi))
            if c and min(c) < lo:
                raise ValueError("stored support below window lo")
            if c and hi is not None and max(c) > hi:
                raise ValueError("stored support above window hi")
        self.q_order = q_order
        self.coeffs = coeffs
        self.windows = windows
        self._powers = None  # exponent -> power, filled by power()

    # -- constructors -------------------------------------------------------

    @classmethod
    def exact(cls, rows):
        """Exactly-known data: row d is the whole q^d coefficient."""
        rows = tuple(rows)
        windows = [(None, None) if hl.is_zero() else (hl.min_exp(), None) for hl in rows]
        return cls(len(rows) - 1, rows, windows)

    @classmethod
    def from_terms(cls, terms, q_order, q_degree=0):
        """Exactly-known monomial data: terms is an iterable of (exp_half, coeff)."""
        if q_degree > q_order:
            raise ValueError("q_degree exceeds q_order")
        rows = [HalfLaurent()] * (q_order + 1)
        rows[q_degree] = HalfLaurent(terms)
        return cls.exact(rows)

    @classmethod
    def one(cls, q_order):
        return cls.from_terms([(0, 1)], q_order)

    @classmethod
    def constant(cls, hl, q_order, window=None):
        """A q-free series whose q^0 coefficient is hl, exact unless a window is given."""
        coeffs = [hl] + [HalfLaurent()] * q_order
        if window is None:
            return cls.exact(coeffs)
        return cls(q_order, coeffs, [window] + [(None, None)] * q_order)

    # -- views and reshaping --------------------------------------------------

    def with_p_hi(self, hi):
        """Forget knowledge above the exponent hi (half-units) at every degree."""
        coeffs, windows = [], []
        for hl, (lo, h) in zip(self.coeffs, self.windows):
            if lo is None:
                coeffs.append(hl)
                windows.append((None, None))
            else:
                h2 = _min_hi(h, hi)
                if h2 < lo:
                    raise WindowExhausted("truncation to %s empties a window" % hi)
                coeffs.append(hl.clip(h2))
                windows.append((lo, h2))
        return PQSeries(self.q_order, coeffs, windows)

    def shift_p(self, k):
        """Multiply by the exact monomial x^k (k in half-units)."""
        coeffs, windows = [], []
        for hl, (lo, hi) in zip(self.coeffs, self.windows):
            coeffs.append(hl.shift(k))
            if lo is None:
                windows.append((None, None))
            else:
                windows.append((lo + k, None if hi is None else hi + k))
        return PQSeries(self.q_order, coeffs, windows)

    def scale(self, n):
        if not n:
            return PQSeries.exact([HalfLaurent()] * (self.q_order + 1))
        return PQSeries(self.q_order, [hl.scale(n) for hl in self.coeffs], self.windows)

    # -- ring structure -------------------------------------------------------

    def __add__(self, other):
        return _binary_add(self, other)

    def __sub__(self, other):
        return _binary_add(self, other.scale(-1))

    def __mul__(self, other):
        return _binary_mul(self, other)

    def __eq__(self, other):
        """Structural equality (same windows, same stored data)."""
        return (
            isinstance(other, PQSeries)
            and self.q_order == other.q_order
            and self.windows == other.windows
            and self.coeffs == other.coeffs
        )

    def pretty(self):
        bits = []
        for d, hl in enumerate(self.coeffs):
            if hl.is_zero():
                continue
            body = hl.pretty()
            if d == 0:
                bits.append(body)
            else:
                qp = "q" if d == 1 else "q^%d" % d
                bits.append("(%s)*%s" % (body, qp))
        return " + ".join(bits) if bits else "0"

    def __repr__(self):
        return "PQSeries(q_order=%d, %s)" % (self.q_order, self.pretty())

    # -- serialization --------------------------------------------------------

    def to_json_dict(self):
        lo, hi = _span(self.windows, self.coeffs)
        return {
            "q_order": self.q_order,
            "p_window": [lo, hi],
            "p_windows": [[d, w[0], w[1]] for d, w in enumerate(self.windows)],
            "coeffs": [
                [d, [[e, str(v)] for e, v in hl.items()]]
                for d, hl in enumerate(self.coeffs)
            ],
        }


# ---------------------------------------------------------------------------
# Ring operations


def _binary_add(a, b):
    q_order = min(a.q_order, b.q_order)
    coeffs, windows = [], []
    for d in range(q_order + 1):
        w = _add_window(a.windows[d], b.windows[d])
        hl = a.coeffs[d] + b.coeffs[d]
        coeffs.append(hl.clip(w[1]) if w[0] is not None else hl)
        windows.append(w)
    return PQSeries(q_order, coeffs, windows)


def _convolve(pairs, hi=None):
    """Sum of x*y over the Laurent pairs (x, y), skipping every exponent above hi.

    y's terms are walked in increasing exponent, so each term e1 of x stops
    at the first exponent of y above hi - e1.  Zero sums are dropped at the end.
    """
    c = {}
    get = c.get
    for x, y in pairs:
        if not (x.c and y.c):
            continue
        ys = sorted(y.c.items())
        cap = max(x.c) + ys[-1][0] if hi is None else hi
        for e1, v1 in x.c.items():
            top = cap - e1
            for e2, v2 in ys:
                if e2 > top:
                    break
                e = e1 + e2
                c[e] = get(e, 0) + v1 * v2
    if 0 in c.values():
        c = {e: v for e, v in c.items() if v}
    return HalfLaurent._raw(c)


def _fold(wa, wb, d, start, stop):
    """The window of sum a_i b_(d-i) over start <= i < stop, and the i of its live terms.

    A pair of degrees whose sides both have a floor is live: its floor is
    la + lb and its ceiling min(la + hb, ha + lb), None (no ceiling) being
    above every exponent.  The sum takes the lowest floor and the lowest
    ceiling; with no live pair it is the known zero (None, None).
    """
    lo = hi = None
    live = []
    for i in range(start, stop):
        la, ha = wa[i]
        lb, hb = wb[d - i]
        if la is None or lb is None:
            continue
        live.append(i)
        if lo is None or la + lb < lo:
            lo = la + lb
        if hb is not None and (hi is None or la + hb < hi):
            hi = la + hb
        if ha is not None and (hi is None or ha + lb < hi):
            hi = ha + lb
    return (lo, hi), live


def _degree_product(a, b, d, start=0):
    """The q^d coefficient of a*b summed over a's degrees start..d; returns (data, window).

    a and b are (coeffs, windows) pairs.  The window is folded first, so no
    term above its knowledge ceiling is ever formed.
    """
    (ca, wa), (cb, wb) = a, b
    window, live = _fold(wa, wb, d, start, d + 1)
    return _convolve([(ca[i], cb[d - i]) for i in live], window[1]), window


def _binary_mul(a, b):
    q_order = min(a.q_order, b.q_order)
    a, b = (a.coeffs, a.windows), (b.coeffs, b.windows)
    return PQSeries(q_order, *zip(*(_degree_product(a, b, d) for d in range(q_order + 1))))


def _square(a):
    """a * a, each off-diagonal pair of q-degrees convolved once, one side doubled.

    Equal (==) to _binary_mul(a, a).  The window of the degree pair
    (i, d - i) is symmetric in i <-> d - i, so folding the unordered pairs
    gives the window of the ordered fold (the fold is idempotent).  With the
    same ceiling skip as _degree_product, 2 * sum_(i < d-i) a_i a_(d-i) +
    a_(d/2)^2 is the ordered sum exactly over Z.
    """
    ca, wa = a.coeffs, a.windows
    coeffs, windows = [], []
    for d in range(a.q_order + 1):
        window, live = _fold(wa, wa, d, 0, d // 2 + 1)
        pairs = [(ca[i].scale(2) if 2 * i < d else ca[i], ca[d - i]) for i in live]
        coeffs.append(_convolve(pairs, window[1]))
        windows.append(window)
    return PQSeries(a.q_order, coeffs, windows)


def _invert_laurent(a0, lo0, hi0):
    """Invert the q^0 Laurent coefficient; returns (data, window)."""
    if lo0 is None or a0.is_zero():
        raise NotInvertible("q^0 coefficient is zero or not visible in its window")
    e0 = a0.min_exp()
    c = a0[e0]
    if c not in (1, -1):
        raise NotInvertible("leading coefficient %d is not a unit over the integers" % c)
    if hi0 is None:
        if len(a0.c) == 1:
            return HalfLaurent({-e0: c}), (-e0, None)
        raise WindowExhausted(
            "cannot invert an untruncated multi-term series; apply with_p_hi first"
        )
    # a0 * b = 1 fixes b's term at offset k from its lower terms, over the
    # nonzero terms of a0 at offsets 1..k above e0
    terms = sorted((e - e0, v) for e, v in a0.c.items() if e != e0)
    b = [c]
    for k in range(1, hi0 - e0 + 1):
        s = 0
        for j, v in terms:
            if j > k:
                break
            s += v * b[k - j]
        b.append(-c * s)
    return HalfLaurent._raw({k - e0: v for k, v in enumerate(b) if v}), (-e0, hi0 - 2 * e0)


def invert(a):
    """Multiplicative inverse; a * invert(a) is 1 on the resulting windows."""
    b0, w0 = _invert_laurent(a.coeffs[0], *a.windows[0])
    coeffs = [b0]
    windows = [w0]
    for d in range(1, a.q_order + 1):
        s, ws = _degree_product((a.coeffs, a.windows), (coeffs, windows), d, start=1)
        bd, w = _degree_product(((b0,), (w0,)), ((s,), (ws,)), 0)  # b0 * s, one degree pair
        coeffs.append(-bd)
        windows.append(w)
    return PQSeries(a.q_order, coeffs, windows)


def power(a, k):
    """a**k, sharing its steps with every earlier power of the same object a.

    -1 is invert(a), 0 is one and 1 is a; an even k is the square of a^(k/2),
    an odd k is a^(k-1) * a (a^(k+1) * a^(-1) when k < 0).  Each power formed
    is kept in a._powers, so power(a, 24) after power(a, 12) is one squaring.

    The result equals (==) the left-to-right product of |k| copies of a, or of
    invert(a) when k < 0, whatever the grouping and the powers formed before.
    A product's window at each degree is a fold of per-degree (lo, hi) pairs:
    lo adds, hi = min(la + hb, ha + lb), sums take mins.  That fold is
    commutative, associative and idempotent, so any grouping of the same
    factors gives the same windows; and every operation stores the exact
    truth on (-inf, hi], so equal windows hold equal data.
    """
    k = int(k)
    if k == 1:
        return a
    if k == 0:
        return PQSeries.one(a.q_order)
    if a._powers is None:
        a._powers = {}
    out = a._powers.get(k)
    if out is None:
        if k == -1:
            out = invert(a)
        elif k % 2 == 0:
            out = _square(power(a, k // 2))
        else:
            unit = 1 if k > 0 else -1
            out = _binary_mul(power(a, k - unit), power(a, unit))
        a._powers[k] = out
    return out


def substitute_neg_p(a):
    """Substitute p -> -p: flip the sign of odd integer p-powers.

    Requires every exponent to be an integer power of p (even in half-units).
    """
    coeffs = []
    for hl in a.coeffs:
        c = {}
        for e, v in hl.c.items():
            if e % 2:
                raise ValueError("substitute_neg_p needs integer p-exponents, got %s/2" % e)
            c[e] = -v if (e // 2) % 2 else v
        coeffs.append(HalfLaurent._raw(c))
    return PQSeries(a.q_order, coeffs, a.windows)


# ---------------------------------------------------------------------------
# Comparison


class SeriesComparison:
    """Coefficientwise comparison of two series on the regions ``compare`` built.

    ``first_discrepancy`` is the first in-region ``(d, exp_half, lhs, rhs)``
    whose values differ, or None, and ``equal`` says it is None.
    """

    __slots__ = ("equal", "q_order", "regions", "first_discrepancy", "side_a", "side_b")

    def __init__(self, q_order, regions, side_a, side_b):
        self.q_order = q_order
        self.regions = regions
        self.side_a = side_a
        self.side_b = side_b
        self.first_discrepancy = next(
            (
                pair
                for d in range(q_order + 1)
                if side_a.coeffs[d] != side_b.coeffs[d]  # equal rows cannot differ anywhere
                for pair in self._degree_pairs(d, True)
                if pair[2] != pair[3]
            ),
            None,
        )
        self.equal = self.first_discrepancy is None

    def pairs(self, in_region=False):
        """Yield (d, exp_half, lhs, rhs), in (d, exp_half) order, at each exponent
        either side stores, or only at those inside the compared region."""
        for d in range(self.q_order + 1):
            yield from self._degree_pairs(d, in_region)

    def _degree_pairs(self, d, in_region):
        lo, hi = self.regions[d]
        ca, cb = self.side_a.coeffs[d].c, self.side_b.coeffs[d].c
        for e in sorted(ca.keys() | cb.keys()):
            if not in_region or ((lo is None or lo <= e) and (hi is None or e <= hi)):
                yield d, e, ca.get(e, 0), cb.get(e, 0)

    def window(self):
        """Aggregate (lo, hi) of the compared regions, from both sides' rows when uncapped."""
        n = self.q_order + 1
        return _span(self.regions, self.side_a.coeffs[:n] + self.side_b.coeffs[:n])

    def to_json_dict(self):
        lo, hi = self.window()
        out = {
            "side_a": self.side_a.to_json_dict(),
            "side_b": self.side_b.to_json_dict(),
            "window": [lo, hi],
            "windows": [[d, r[0], r[1]] for d, r in enumerate(self.regions)],
            "q_order": self.q_order,
            "equal": self.equal,
        }
        if self.first_discrepancy is not None:
            d, e, lhs, rhs = self.first_discrepancy
            out["first_discrepancy"] = {"d": d, "exp_half": e, "lhs": str(lhs), "rhs": str(rhs)}
        else:
            out["first_discrepancy"] = None
        return out


def compare(a, b, p_lo=None, p_hi=None):
    """Compare a and b coefficientwise wherever both are exactly known.

    By default the region at degree d runs from the lower support floor up to
    the weaker knowledge ceiling; passing p_lo/p_hi (half-units) requests a
    fixed region instead, and it is an error if that region is not fully
    known.  Coefficients below a side's support floor count as known zeros.
    """
    if p_lo is not None and p_hi is not None and p_hi < p_lo:
        raise WindowExhausted("empty comparison window [%s, %s]" % (p_lo, p_hi))
    regions = []
    for d, (wa, wb) in enumerate(zip(a.windows, b.windows)):
        lo, hi = _add_window(wa, wb)  # (None, None) when both sides vanish
        if p_lo is not None:
            lo = p_lo
        if lo is not None and p_hi is not None:
            if hi is not None and p_hi > hi:
                raise WindowExhausted(
                    "requested exactness to p-exponent %s/2 at q^%d, known only to %s/2"
                    % (p_hi, d, hi)
                )
            hi = p_hi
        if hi is not None and hi < lo:
            raise WindowExhausted("empty comparison window at q^%d" % d)
        regions.append((lo, hi))
    return SeriesComparison(min(a.q_order, b.q_order), regions, a, b)


# ---------------------------------------------------------------------------
# Standard series constructors


def _held(series, p_window):
    """series, once p_window (half-units) is nonempty and its floor holds the support."""
    p_lo, p_hi = p_window
    if p_lo > p_hi:
        raise WindowExhausted("p_window [%d, %d] is empty" % (p_lo, p_hi))
    for lo, _ in series.windows:
        if lo is not None and lo < p_lo:
            raise WindowExhausted(
                "p_window starts at %s but the series has support down to %s (half-units)"
                % (p_lo, lo)
            )
    return series


def _factors(triples, q_order, hi=None):
    """prod (1 - p^a q^b)^e over the (a, b, e) triples, multiplied in their order.

    Each factor is its binomial series: term k is c_k p^(ak) q^(bk), with
    c_0 = 1 and c_(k+1) = c_k (k - e)/(k + 1).  Its rows are exact, except
    that b = 0 with e < 0 is infinite in p: it needs a > 0 and is cut at the
    exponent hi (half-units) with the window (0, hi).
    """
    out = PQSeries.one(q_order)
    for a, b, e in triples:
        cut = b == 0 and e < 0
        if b < 0 or (cut and a <= 0):
            raise ValueError("(1 - p^%d q^%d)^%d has no expansion here" % (a, b, e))
        rows = [[] for _ in range(q_order + 1)]
        c, k = 1, 0
        while c and k * b <= q_order and not (cut and 2 * a * k > hi):
            rows[k * b].append((2 * a * k, c))
            c, k = c * (k - e) // (k + 1), k + 1
        rows = [HalfLaurent(r) for r in rows]
        if cut:
            out = _binary_mul(out, PQSeries.constant(rows[0], q_order, window=(0, hi)))
        else:
            out = _binary_mul(out, PQSeries.exact(rows))
    return out


def linear_factor(a, b, sign, q_order, p_window):
    """(1 - p^a q^b)^(+-1) with a an integer power of p and b >= 0.

    The expanded form is exact; only (1 - p^a)^(-1) with b = 0, which needs
    a > 0, takes the window's upper end as a truncation bound.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return _held(_factors([(a, b, sign)], q_order, p_window[1]), p_window)


def macmahon(q_order, p_window, shift=1):
    """The box-counting double product in powers of q^shift; shift 0 is M(p).

    Expands prod_m (1 - p^m q^shift)^(-m) exactly up to the q-order and the
    window's upper end in p.
    """
    if shift < 0:
        raise ValueError("shift must be >= 0")
    hi = p_window[1]
    # dropped factors only touch p-exponents above hi, so the truncation is
    # exact; m = 1 always stays, so no row is claimed zero below a low hi
    out = _factors([(m, shift, -m) for m in range(1, max(hi // 2, 1) + 1)], q_order, hi)
    return _held(out.with_p_hi(hi), p_window)


def macmahon_p(q_order, p_window):
    """The q-free specialization of the box-counting product, truncated at the window top."""
    return macmahon(q_order, p_window, shift=0)


def euler_product(q_order, p_window=None):
    """prod_k (1 - q^k) up to the q-order; p-free and exactly known."""
    out = _factors([(0, k, 1) for k in range(1, q_order + 1)], q_order)
    return out if p_window is None else _held(out, p_window)


def theta(q_order, p_window):
    """(p^(1/2) - p^(-1/2)) prod_k (1 - p q^k)(1 - p^(-1) q^k)(1 - q^k)^(-2)."""
    triples = [t for k in range(1, q_order + 1) for t in ((1, k, 1), (-1, k, 1), (0, k, -2))]
    prefactor = PQSeries.from_terms([(1, 1), (-1, -1)], q_order)
    return _held(_binary_mul(prefactor, _factors(triples, q_order)), p_window)
