"""The normalized topological vertex by exhaustive order-ideal enumeration.

A leg configuration (lam, mu, nu) determines three infinite cylinders of unit
boxes in the positive octant; their union pi_min is the minimal box
configuration.  The normalized vertex counts, for each n, the finite order
ideals of the complement poset P = Z^3_{>=0} \\ pi_min with exactly n boxes.
Enumeration is the single source of truth here: no product formula or trace
identity is ever used to produce these numbers (they are what the identity
checks test).

The count is a transfer matrix over tau-slices: an ideal is cut into the
sequence of its 2D slices at heights tau = 0, 1, ..., as 3D partitions are
sliced in Okounkov-Reshetikhin-Vafa (hep-th/0306032).  The candidates, the
boxes of P whose down-set has at most `order` boxes, are built slice by slice
too: a down-set size is the size one slice below plus a 2D count in its own
slice (_candidate_slices).  Each state is one 2D ideal J together with the
size polynomial of the ideals cut off at height tau whose top slice is J.  A
box of the next slice over a candidate (a lifted box) may enter only over a
box of J, so one step first sums, for each 2D ideal I of the boxes below, the
states that contain I (a superset sum, or zeta transform, over the lattice of
2D ideals; Bjorklund et al., "Fast zeta transforms for lattices with few
irreducibles", SODA 2012).  It then searches the 2D ideals of the new slice
once, each taking the sum at the boxes under its lifted boxes.  Only this
counting is taken from the slicing picture; no Schur-function formula is
used.  A size polynomial is packed into one int with a fixed number of bits
per coefficient; that width is one bit more than the largest bound on a count
of the configurations counted together, the lesser of C(N + order, order) and
prod_{k<order} (m_0 + 2k) for N candidates, m_0 of them minimal (see _walk).

A pass counts many configurations at one order, and counts them in one walk.
dtseries notes with expect() the configurations its rows will ask for; the
first record the pass must count at that order and cache is counted with
every noted one the pass neither holds nor reads from the cache (_count).
The walk counts one configuration per orbit under the maps built from cyclic
and conjugate_swap, in that configuration's own orientation, counts the
tau-slices that several configurations share once, and sets up each pair of
adjacent slices it meets once (see _walk).

The orbit maps keep the counts.  cyclic is the rotation g(r, s, t) =
(t, r, s) and conjugate_swap the transposition h(r, s, t) = (s, r, t).  Each
permutes the coordinates, so it is a bijection of Z^3_{>=0} that keeps the
componentwise order both ways.  g sends leg 1 of (lam, mu, nu) onto leg 2 of
cyclic() = (nu, lam, mu): the box (tau, rho, sigma) lies in that leg iff
(sigma, tau) lies in lam, the leg-1 test of (rho, sigma, tau); likewise leg 2
onto leg 3 and leg 3 onto leg 1.  h sends legs 1, 2, 3 of (lam, mu, nu) onto
legs 2, 1, 3 of conjugate_swap() = (mu', lam', nu'), since (a, b) lies in
lam' iff (b, a) lies in lam.  So each map, and each composite of the six,
sends pi_min onto pi_min of the image and P onto its P as an order
isomorphism, which sends the n-box order ideals of one onto those of the
other: the counts are equal.

A pass holds each vertex record it read or counted (_RECORDS, keyed by legs,
order and cache) and memoizes the dtseries building blocks, each builder in
its own functools.lru_cache keyed by its arguments (the cache directory
included); clear_memo() empties them all and the notes of expect().  The
candidate slices are not memoized: a walk builds each set's slices once, and
estimate_nodes builds its own.

Box membership convention (shared with partitions.Partition.contains):
a box (rho, sigma, tau) lies in

  * leg 1 iff (sigma, tau) is a cell of lam,
  * leg 2 iff (tau, rho)  is a cell of mu,
  * leg 3 iff (rho, sigma) is a cell of nu.
"""

from __future__ import annotations

import contextlib
import json
import operator
import os
import tempfile
from bisect import bisect_right
from collections import namedtuple
from functools import lru_cache
from itertools import compress, count
from math import comb, inf

from .partitions import Partition
from .series import HalfLaurent, PQSeries


class LegConfig(namedtuple("LegConfig", "lam mu nu")):
    __slots__ = ()

    def in_legs(self, rho, sigma, tau):
        """Number of legs containing the box (0..3)."""
        n = 0
        if self.lam.contains(sigma, tau):
            n += 1
        if self.mu.contains(tau, rho):
            n += 1
        if self.nu.contains(rho, sigma):
            n += 1
        return n

    def total_size(self):
        return self.lam.size() + self.mu.size() + self.nu.size()

    def canonical_key(self, order):
        return "%s|%s|%s|%d" % (
            self.lam.to_string(),
            self.mu.to_string(),
            self.nu.to_string(),
            order,
        )

    def cyclic(self):
        """The configuration after the coordinate rotation (r,s,t) -> (t,r,s)."""
        return LegConfig(self.nu, self.lam, self.mu)

    def conjugate_swap(self):
        """The configuration after the transposition (r,s,t) -> (s,r,t)."""
        return LegConfig(
            self.mu.conjugate(), self.lam.conjugate(), self.nu.conjugate()
        )


class VertexRecord(namedtuple("VertexRecord", "lam mu nu order counts min_volume")):
    __slots__ = ()

    def series(self):
        """The normalized vertex as a q-free series with window [0, 2*order] half-units."""
        terms = HalfLaurent((2 * n, c) for n, c in enumerate(self.counts))
        return PQSeries.constant(terms, 0, window=(0, 2 * self.order))

    def to_json_dict(self):
        return {
            "lam": list(self.lam.parts),
            "mu": list(self.mu.parts),
            "nu": list(self.nu.parts),
            "order": self.order,
            "min_volume": self.min_volume,
            "counts": [str(c) for c in self.counts],
        }

    @classmethod
    def from_json_dict(cls, data):
        """Read a record as to_json_dict writes it; counts other than a list of
        nonnegative decimal strings, an order or minimal volume other than a
        JSON integer, and legs other than lists of JSON integers raise
        ValueError."""
        counts = data["counts"]
        if not isinstance(counts, list) or not all(
            isinstance(c, str) and c.isascii() and c.isdigit() for c in counts
        ):
            raise ValueError("counts must be a list of nonnegative decimal strings")
        # 4.0 and true compare equal to the ints 4 and 1, so test the type
        if type(data["order"]) is not int or type(data["min_volume"]) is not int:
            raise ValueError("order and min_volume must be integers")
        for leg in ("lam", "mu", "nu"):  # Partition takes int() of each part
            if not isinstance(data[leg], list) or any(type(x) is not int for x in data[leg]):
                raise ValueError("lam, mu and nu must be lists of integers")
        return cls(
            lam=Partition(data["lam"]),
            mu=Partition(data["mu"]),
            nu=Partition(data["nu"]),
            order=data["order"],
            counts=tuple(int(c) for c in data["counts"]),
            min_volume=data["min_volume"],
        )


def minimal_volume(cfg):
    """Normalized volume of the minimal box configuration.

    Boxes lying in a single leg contribute 0 and boxes in k >= 2 legs
    contribute 1 - k, so only the (bounded) pairwise intersections matter.
    With I_ab the boxes in legs a and b and I_123 those in all three, the
    three pairs count a box of exactly two legs once and a box of all three
    three times, so the volume is |I_123| - (|I_12| + |I_13| + |I_23|).  As
    leg 1 = {(r, s, t): s < lam_t}, leg 2 = {t < mu_r} and leg 3 =
    {r < nu_s}, |I_12| sums lam_t * mu'_t over t, |I_13| sums lam'_s * nu_s
    over s and |I_23| sums mu_r * nu'_r over r.
    """
    lam, mu, nu = cfg.lam.parts, cfg.mu.parts, cfg.nu.parts
    lam_c, mu_c, nu_c = (leg.conjugate().parts for leg in cfg)
    pairs = sum(map(operator.mul, lam, mu_c))
    pairs += sum(map(operator.mul, lam_c, nu)) + sum(map(operator.mul, mu, nu_c))
    triples = sum(
        1
        for rho, m in enumerate(mu)
        for tau in range(m)
        for sigma in range(lam[tau] if tau < len(lam) else 0)
        if sigma < len(nu) and rho < nu[sigma]
    )
    return triples - pairs


_MEMOS = []  # every memoized builder's lru_cache, each emptied by clear_memo()


def memoized(build):
    """Serve repeated calls of a pure builder from its own cache until clear_memo().

    The key is the builder's arguments, all hashable.  A VertexCache compares
    by absolute directory, so a call with another cache directory builds again
    and reads or writes that directory.  cache_info() counts the calls served
    from memory (hits) and the builds (misses).
    """
    cached = lru_cache(maxsize=None)(build)
    _MEMOS.append(cached)
    return cached


_EXPECTED = {}  # (order, cache) -> functions listing the configs a pass will ask for there
_RECORDS = {}  # (cfg, order, cache) -> every record the pass read or counted


def clear_memo():
    """Drop the in-process memo: the vertex records a pass read or counted, the
    configs it expects and the dtseries building blocks (disk caches are
    unaffected)."""
    for cached in _MEMOS:
        cached.cache_clear()
    _EXPECTED.clear()
    _RECORDS.clear()


# ---------------------------------------------------------------------------
# Enumeration


def _candidate_slices(cfg, order):
    """The candidates, the boxes of P whose down-set within P has at most
    `order` elements, as tau-slices: slice tau is the sorted tuple of the
    cells (rho, sigma) of the candidates (rho, sigma, tau), and the last
    slice is not empty.

    Any order ideal of size <= order lies inside the candidates, and they are
    themselves an order ideal of P.  Slice tau of P is {(rho, sigma): sigma >=
    lam_tau, rho >= mu'_tau, rho >= nu_sigma}: its row rho >= mu'_tau holds
    the cells sigma >= b = max(lam_tau, nu'_rho).  So the down-set sizes
    follow one slice at a time,

        down(rho, sigma, tau) = down(rho, sigma, tau - 1) + d(rho, sigma),

    d the number of cells of slice tau of P at or below (rho, sigma), which
    acc sums over the rows up to rho (row rho' adds sigma + 1 - b there).
    Every box below a box of a leg lies in that leg, so a leg box has
    down-set size 0, and down(rho, sigma, tau - 1) is 0 where (rho, sigma,
    tau - 1) lies in a leg, the size kept for it where it is a candidate, and
    above `order` otherwise.  Down-set sizes grow along each axis, so a row
    ends at its first size above `order`, before sigma = b + order (its own
    cells count that many), and goes past neither the row before it nor the
    same row in the slice below.  From row nu_1 on b is lam_tau, so the rows
    stop at the first of them without a candidate.

    Where lam_tau and mu'_tau stay the same, so do slice tau of P and d: from
    each tau where one of them changes up to the next (`last`), and from
    max(len(lam), mu_1) on for good.  Only the first slice of such a run is
    built row by row.  Over the run a cell's size grows by d a slice, so the
    cell stays a candidate (order - size) // d slices more, and the sizes at
    the run's last slice are the ones the next run reads below it.
    """
    lam, mu_c, nu_c = (leg.parts for leg in (cfg.lam, cfg.mu.conjugate(), cfg.nu.conjugate()))
    nu_1 = len(nu_c)

    def legs_at(tau):
        return (lam[tau] if tau < len(lam) else 0, mu_c[tau] if tau < len(mu_c) else 0)

    reach = max(len(lam), len(mu_c))
    starts = [tau for tau in range(reach + 1) if not tau or legs_at(tau) != legs_at(tau - 1)]
    slices = []
    below, beyond = [], None  # (b, sizes) of each row of the slice below, and of the rows past them
    for tau, last in zip(starts, starts[1:] + [None]):
        lam_t, mu_t = legs_at(tau)
        rows = [None] * mu_t  # below mu'_tau in leg 2; then (b, first, end) of each row's sizes
        cells, sizes, ds = [], [], []
        acc, end = None, inf
        for rho in count(mu_t):
            b = max(lam_t, nu_c[rho] if rho < nu_1 else 0)
            stop = min(end, b + order)
            row_below = below[rho] if rho < len(below) else beyond
            if row_below is None:  # (rho, sigma, tau - 1) lies in a leg
                start_below, sizes_below = stop, ()
            else:
                start_below, sizes_below = row_below
                stop = min(stop, start_below + len(sizes_below))
            if acc is None:
                acc = [0] * stop
            first = len(sizes)
            for sigma in range(b, stop):
                d = acc[sigma] + sigma + 1 - b
                acc[sigma] = d
                size = d + sizes_below[sigma - start_below] if sigma >= start_below else d
                if size > order:
                    break
                sizes.append(size)
                ds.append(d)
                cells.append((rho, sigma))
            rows.append((b, first, len(sizes)))
            end = b + len(sizes) - first
            if end == b and rho >= nu_1:
                break
        extra = [(order - size) // d for size, d in zip(sizes, ds)]
        cells = tuple(cells)
        slices.append(cells)
        for more in count(1) if last is None else range(1, last - tau):
            keep = [e >= more for e in extra]
            cells = tuple(compress(cells, keep))
            if not cells and last is None:
                break
            slices.append(cells)
            extra = list(compress(extra, keep))
        if last is not None:
            grown = [size + (last - 1 - tau) * d for size, d in zip(sizes, ds)]
            below = [row and (row[0], grown[row[1]:bisect_right(grown, order, *row[1:])]) for row in rows]
            beyond = (lam_t, [])
    while slices and not slices[-1]:
        slices.pop()
    return tuple(slices)


def _orbit_key(cfg):
    """One key for every config in the orbit of cfg under the six maps built from
    cyclic and conjugate_swap: the least of the six images' parts."""
    c1 = cfg.cyclic()
    c2 = c1.cyclic()
    images = (cfg, c1, c2, cfg.conjugate_swap(), c1.conjugate_swap(), c2.conjugate_swap())
    return min((x.lam.parts, x.mu.parts, x.nu.parts) for x in images)


def _reach(cfg):
    """How high along tau the legs lam and mu reach."""
    return max(cfg.lam.length(), cfg.mu.first_part())


def _count_batch(cfgs, order):
    """The counts of each of cfgs at order, as tuples: one walk, one count per orbit.

    Each orbit is counted once, in the orientation of one of its members in
    cfgs, and its other members get the same counts: see the module
    docstring for why the maps keep the counts.  The member is the first
    whose first two legs reach highest along tau (len(lam) and mu_1): such a
    leg spreads the cells over more and smaller slices.  Of the two
    orientations of each (lam, empty, empty), (lam', empty, empty) that a
    pass counts, the taller one made its posets and walk about 5% faster at
    q6/p12 and 9% at q8/p16 than the other (Python 3.11, 2 vCPUs).
    """
    orbits = [_orbit_key(cfg) for cfg in cfgs]
    reps = {}
    for key, cfg in zip(orbits, cfgs):
        if key not in reps or _reach(cfg) > _reach(reps[key]):
            reps[key] = cfg
    counts = _walk((_candidate_slices(rep, order) for rep in reps.values()), order)
    by_orbit = dict(zip(reps, map(tuple, counts)))
    return [by_orbit[key] for key in orbits]


def _walk(slice_sets, order):
    """Counts of order ideals by size, for each set of candidates given by its
    tau-slices, in one walk that counts the slices shared by a run of sets
    once and sets up each link of two slices once.

    Slices.  P is upward closed in Z^3_{>=0}, so its order is generated by
    the three unit covering relations inside P, and an ideal is exactly a
    sequence of 2D ideals J_0, J_1, ... of the tau-slices in which a box
    (r, s, tau) may enter J_tau only when its tau-predecessor (r, s, tau - 1)
    is not in P or lies in J_{tau-1}.  A box of P below a candidate is a
    candidate, so "not in P" reads "not a candidate" here.  A transfer-matrix
    state is one J_tau, a bitmask over the slice's sorted cells, mapped to the
    size polynomial (truncated at `order`) of all ideals ending in it; a state
    with a zero polynomial is never formed.  _step makes one step; the states
    start as {0: 1} below slice 0, and the answer is the sum of the states of
    the last slice.

    Links.  A step reads its slice only through the setup _link builds from
    that slice and the slice below it (the empty slice under slice 0).  The
    walk numbers each distinct slice once, so a set is a list of numbers, and
    builds the setup of each pair of numbers once, at the first step that
    takes it, and drops it after the last: the 979 steps of a cold q6/p12
    pass use 199 links, and a cold q12/p24 pass holds at most 7,513 of the
    38,704 cells of its links at once.

    Width.  A size polynomial is packed into one int, coefficient n in bits
    [n*width, (n+1)*width).  Coefficient n of any state, of any sum of states
    and of the final counts of a set counts distinct n-box ideals of its
    candidates, so it is at most c_n, the set's count of n-box ideals, and
    _bound bounds c_n for every n <= order:

    * c_n <= C(N, n) <= C(N + n, n) <= C(N + order, order), N the number of
      candidates.
    * c_n <= prod_{k<n} (m_0 + 2k), m_0 the number of minimal candidates
      (_minimal counts them slice by slice).
      Call a box addable to an ideal I when it is a candidate outside I whose
      lower covers within the candidates all lie in I.  The addable boxes of
      the empty ideal are the m_0 minimal ones.  Adding a box x to I removes
      x from the addable boxes and adds at most its three upper covers, so
      an n-box ideal has at most m_0 + 2n addable boxes.  Every (n+1)-box
      ideal is an n-box ideal plus one addable box, so c_{n+1} <=
      (m_0 + 2n) c_n.  When m_0 >= 1 the product grows with n; when m_0 = 0
      there are no candidates and only c_0 = 1 is not 0.

    The walk takes the largest bound of all its sets, which only raises it,
    and width has one bit to spare above it, so no sum of any set carries
    into the next coefficient.  Merging two states is then one addition, and
    extending a state by a k-box slice ideal is a shift by k*width with the
    coefficients above `order` masked off.

    Shared prefixes.  Step tau reads only the link of slices tau - 1 and tau
    and the states step tau - 1 returned, which it leaves unchanged; the
    width is the walk's.  By induction the states after step tau depend only
    on slices 0..tau, so two sets whose slices agree up to tau have equal
    states there.  The walk sorts the sets by their sequences of slice
    numbers, so the sets sharing a prefix are adjacent, and resumes each set
    from the path: the states after each step it shares with the set before
    it.  That holds for the next set as well, because a set stores its states
    after step tau only when the next set shares step tau, and ends by cutting
    the path to the steps the next set shares.  A set that shares all its
    slices with the one before reads its counts off the path.  A step returns
    its states whole, and the next step sums them by the key it needs, so
    what step tau returns does not depend on slice tau + 1.  Keyed also by
    the cells under the next slice, the 75 sets of a q6/p12 pass would share
    less: 7003 cells counted against 5759.
    """
    numbers, minimal, runs, width = {(): 0}, {}, [], 0
    for i, slices in enumerate(slice_sets):
        run, below, m_0 = [], (), 0
        for cells in slices:
            pair = (run[-1] if run else 0, numbers.setdefault(cells, len(numbers)))
            if pair not in minimal:
                minimal[pair] = _minimal(below, cells)
            m_0 += minimal[pair]
            run.append(pair[1])
            below = cells
        runs.append((run, i))
        width = max(width, _bound(sum(map(len, slices)), m_0, order).bit_length() + 1)
    runs.sort()
    by_number = list(numbers)
    uses, previous = {}, []  # the steps each link makes, so it is held until its last
    for run, _ in runs:
        for pair in _pairs(run, _shared(previous, run)):
            uses[pair] = uses.get(pair, 0) + 1
        previous = run
    full = (1 << (order + 1) * width) - 1
    out = [None] * len(runs)
    links = {}
    path = []  # path[tau]: the states after slice tau, while later sets share it
    for j, (run, i) in enumerate(runs):
        keep = _shared(run, runs[j + 1][0]) if j + 1 < len(runs) else 0
        states = path[-1] if path else {0: 1}
        for tau, pair in enumerate(_pairs(run, len(path)), len(path)):
            if pair not in links:
                links[pair] = _link(by_number[pair[0]], by_number[pair[1]])
            states = _step(links[pair], states, width, full)
            uses[pair] -= 1
            if not uses[pair]:
                del links[pair]
            if tau < keep:
                path.append(states)
        del path[keep:]
        total = sum(states.values())
        out[i] = [total >> n * width & (1 << width) - 1 for n in range(order + 1)]
    return out


def _pairs(run, start):
    """The (slice below, slice) numbers of the steps of a run from step `start` on."""
    return zip(([0] + run)[start:], run[start:])


def _minimal(below, cells):
    """The number of minimal candidates in a slice: its cells with no lower
    neighbour in the slice or, below it, in `below`."""
    have = set(cells)
    return sum((r - 1, s) not in have and (r, s - 1) not in have for r, s in have.difference(below))


def _bound(size, minimal, order):
    """A bound on coefficients 0..order of the counts of a candidate set with
    `size` boxes, `minimal` of them minimal (see _walk)."""
    product = 1
    for k in range(order):
        product *= minimal + 2 * k
    return min(comb(size + order, order), max(product, 1))


def _shared(slices, other):
    """The number of leading slices two runs of slice numbers share."""
    n = 0
    for a, b in zip(slices, other):
        if a != b:
            break
        n += 1
    return n


def _link(below, cells):
    """The setup of a step from the slice with the sorted cells `below` to the
    slice with the sorted cells `cells`, as _step reads it:

    * boxes: for the bit of each cell, its projection (the bit of the same
      cell below, or 0) and, for each successor, the mask of the
      successor's predecessors and the successor's bit;
    * lifted: the mask pi(lifted), the projections together;
    * passes: the projections in reverse sorted order, one zeta pass each;
    * ready: the cells without predecessors in the slice, as a mask.
    """
    bits = {cell: 1 << j for j, cell in enumerate(cells)}
    lows = {cell: 1 << j for j, cell in enumerate(below)}
    boxes, passes, ready = {}, [], 0
    for cell, bit in bits.items():  # sorted, so a cell's predecessors come first
        rho, sigma = cell
        up, left = bits.get((rho - 1, sigma), 0), bits.get((rho, sigma - 1), 0)
        x = lows.get(cell, 0)
        boxes[bit] = (x, [])
        if up:
            boxes[up][1].append((up | left, bit))
        if left:
            boxes[left][1].append((up | left, bit))
        if x:
            passes.append(x)
        if not up | left:
            ready |= bit
    passes.reverse()  # the cells below are sorted too, so the projections grow
    return boxes, sum(passes), passes, ready


def _step(link, old, width, full):
    """One transfer-matrix step over a link (see _link): the states of the
    slice from the states `old` of the slice below, left unchanged.

    The step is a superset sum (a zeta transform over the lattice of 2D
    ideals).  Call a box (r, s, tau) lifted when (r, s, tau - 1) is a
    candidate, and let pi map it to that box.  J may follow S exactly when
    pi(J & lifted) <= S, so the new state of J is x^|J| Z[pi(J & lifted)],
    where Z[I] sums the old states S with I <= S, that is with
    I <= S & pi(lifted).  So the step first sums the old states by their key
    S & pi(lifted), and builds Z from these sums.  The facts this rests on:

    * The states are closed under sub-ideals: putting a 2D ideal S' <= S in
      place of the top slice S of an ideal keeps every box over its
      tau-predecessor and leaves an ideal of fewer boxes.
    * pi(lifted) is down-closed in slice tau - 1: if (r, s) is in it and
      (r', s', tau - 1) is a candidate with r' <= r and s' <= s, then
      (r', s', tau) is in P (P is upward closed) and below the candidate
      (r, s, tau), so it is a candidate.  By the same step a candidate of
      slice tau - 1 below a box of pi(J & lifted) lifts to a box below one of
      J, which is in J, so pi(J & lifted) is a 2D ideal.  So is every key
      S & pi(lifted) of Z, and a sub-ideal of a key is a state and its own
      key: the keys are closed under sub-ideals.
    * Z is built in place from the sums by key, with one pass per box x of
      pi(lifted) in reverse sorted order, adding Z[I | x] into Z[I] wherever
      both are keys.  For keys I <= S, the passes sum S into Z[I] along the
      one chain that adds the boxes of S - I smallest first.  Sorted order
      is a linear extension, so each link I | x of that chain is an ideal
      inside S (the predecessors of x sort before it), hence a key.
    * Z only falls as I grows (it sums fewer nonnegative states), and
      pi(J & lifted) grows with J.  So once Z[pi(J & lifted)] is 0 (no key),
      or x^|J| Z[pi(J & lifted)] truncated at `order` is 0, no J' >= J
      survives, and the one search of the slice's 2D ideals can skip J's box
      there for good; it yields each surviving J once.  Likewise a J whose
      value has no coefficient below `order` is not grown further.
    * Coefficient n of Z[I] counts distinct n-box ideals (each ideal ends
      in one state), so the width bound of _walk still holds.
    """
    boxes, lifted, passes, ready = link
    zeta = {}
    for state, value in old.items():
        state &= lifted
        zeta[state] = zeta.get(state, 0) + value
    for x in passes:  # Z in place, one pass per box
        for key in zeta:
            if not key & x and key | x in zeta:
                zeta[key] += zeta[key | x]
    growing = full >> width  # the coefficients below `order`
    # Each 2D ideal J is generated once by branching on the lowest ready
    # box: it is either added, or skipped for good, which removes its whole
    # up-set because those boxes never become ready.  A stack entry is
    # (J, ready boxes, the shift of |J| + 1 boxes, pi(J & lifted)).
    states = {0: zeta[0]}
    stack = [(0, ready, width, 0)]
    while stack:
        ideal, ready, shift, key = stack.pop()
        while ready:
            low = ready & -ready
            ready ^= low
            x, succs = boxes[low]
            grown_key = key | x
            if grown_key not in zeta:
                continue
            value = (zeta[grown_key] << shift) & full
            if not value:
                continue
            grown = ideal | low
            states[grown] = value
            if value & growing:
                opened = ready
                for preds, bit in succs:
                    if preds & grown == preds:
                        opened |= bit
                stack.append((grown, opened, shift + width, grown_key))
    return states


class VertexCache(namedtuple("VertexCache", "directory")):
    """Directory of JSON vertex records keyed by the canonical leg/order string.

    Lookups use the exact key only; writes are atomic (temp file + rename), so
    concurrent identical computations race benignly.  IO failures, and records
    whose legs, order, counts or minimal volume do not fit the key, are treated
    as cache misses, so a damaged or misplaced file never changes a result;
    an order, minimal volume or leg part stored as a float or a bool is such
    a misfit.
    A cache is an immutable 1-tuple of its directory, made absolute when the
    cache is built, so two caches are equal, and hash equally, when they name
    the same directory, whatever the working directory was.
    """

    __slots__ = ()

    def __new__(cls, directory):
        return super().__new__(cls, os.path.abspath(directory))

    def _path(self, key):
        return os.path.join(self.directory, key.replace("|", "_") + ".json")

    def get(self, cfg, order):
        try:
            with open(self._path(cfg.canonical_key(order)), "r", encoding="utf-8") as fh:
                rec = VertexRecord.from_json_dict(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if (
            (rec.lam, rec.mu, rec.nu, rec.order) != (cfg.lam, cfg.mu, cfg.nu, order)
            or len(rec.counts) != order + 1
            or rec.counts[0] != 1
            or rec.min_volume != minimal_volume(cfg)
        ):
            return None
        return rec

    def put(self, record):
        """Write the record under its key.  The directory is made only when
        the temp file cannot be created in it, so a batch of writes makes it
        at most once."""
        cfg = LegConfig(record.lam, record.mu, record.nu)
        tmp = None
        try:
            try:
                fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            except FileNotFoundError:
                os.makedirs(self.directory, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(record.to_json_dict(), sort_keys=True))
            os.replace(tmp, self._path(cfg.canonical_key(record.order)))
        except OSError:
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)


def tilde_vertex(cfg, order, cache=None):
    """The normalized vertex record: counts[n] ideals with n boxes outside all legs.

    The pass holds each record it read or counted, keyed by legs, order and
    cache, so it reads or counts each key once.  A record the pass does not
    hold is read from `cache`, or else counted (see _count).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if not _held(cfg, order, cache):
        _count(cfg, order, cache)
    return _RECORDS[cfg, order, cache]


def _held(cfg, order, cache):
    """Whether the pass holds the record of cfg at order, once it has tried to
    read the record from `cache`."""
    key = (cfg, order, cache)
    if key not in _RECORDS and cache is not None:
        rec = cache.get(cfg, order)
        if rec is not None:
            _RECORDS[key] = rec
    return key in _RECORDS


def expect(order, cache, legs):
    """Note that the pass will ask for the records at `order` and `cache` of the
    configs legs() lists.

    The first record the pass then counts there counts them with it, in one
    walk; legs is called only then, so a pass that reads every record from
    its cache never lists the configs.
    """
    _EXPECTED.setdefault((order, cache), []).append(legs)


def _count(cfg, order, cache):
    """Count cfg at order in one walk with every config noted for the order and
    cache by expect() that the pass does not hold and `cache` does not serve;
    hold each record read or counted, and write each counted one to `cache`."""
    batch = dict.fromkeys([cfg])
    for legs in _EXPECTED.pop((order, cache), ()):
        fresh = (c for c in dict.fromkeys(legs()) if c not in batch and not _held(c, order, cache))
        batch.update(dict.fromkeys(fresh))
    for c, counts in zip(batch, _count_batch(batch, order)):
        rec = VertexRecord(c.lam, c.mu, c.nu, order, counts, minimal_volume(c))
        if cache is not None:
            cache.put(rec)
        _RECORDS[c, order, cache] = rec


def vertex(cfg, order):
    """The vertex with its usual normalization p^{min_volume} applied.

    The p-window is [min_volume, min_volume + order] in whole p-units.
    """
    rec = tilde_vertex(cfg, order)
    return rec.series().shift_p(2 * rec.min_volume)


def estimate_nodes(cfg, order):
    """A 1-tuple holding the candidate-box count of a prospective enumeration.

    Building the candidate poset is cheap next to counting; the CLI reports
    its size before very large runs.
    """
    return (sum(map(len, _candidate_slices(cfg, order))),)


def minimal_element_count(cfg):
    """Direct count of minimal boxes of P over a scanning box (an independent oracle for c_1)."""
    span = 2 + max(
        cfg.lam.first_part() + cfg.lam.length(),
        cfg.mu.first_part() + cfg.mu.length(),
        cfg.nu.first_part() + cfg.nu.length(),
    )
    count = 0
    for rho in range(span):
        for sigma in range(span):
            for tau in range(span):
                if cfg.in_legs(rho, sigma, tau):
                    continue
                minimal = True
                for below in (
                    (rho - 1, sigma, tau),
                    (rho, sigma - 1, tau),
                    (rho, sigma, tau - 1),
                ):
                    if min(below) >= 0 and not cfg.in_legs(*below):
                        minimal = False
                        break
                if minimal:
                    count += 1
    return count
