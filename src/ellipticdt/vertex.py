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
sliced in Okounkov-Reshetikhin-Vafa (hep-th/0306032).  Each state is one 2D
ideal J together with the size polynomial of the ideals cut off at height tau
whose top slice is J.  A box of the next slice over a candidate (a lifted
box) may enter only over a box of J, so one step first sums, for each 2D
ideal I of the boxes below, the states that contain I (a superset sum, or zeta
transform, over the lattice of 2D ideals; Bjorklund et al., "Fast zeta
transforms for lattices with few irreducibles", SODA 2012).  It then searches
the 2D ideals of the new slice once, each taking the sum at the boxes under
its lifted boxes.  Only this counting is taken from the slicing picture; no
Schur-function formula is used.  A size polynomial is packed into one int
with a fixed number of bits per coefficient; that width is one bit more than
C(N + order, order) needs, N the largest number of candidate boxes of the
configurations counted together, which bounds every coefficient (see _walk).

A pass counts many configurations at one order, and counts them in one walk.
dtseries notes with expect() the configurations its rows will ask for; the
first record the pass must count at that order and cache is counted with
every noted one the pass neither holds nor reads from the cache (_count).
The walk counts one configuration per orbit under the maps built from cyclic
and conjugate_swap, in that configuration's own orientation, and counts the
tau-slices that several configurations share once (see _walk).

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
included); clear_memo() empties them all and the notes of expect().

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
from collections import namedtuple
from functools import lru_cache
from math import comb

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


def memoized_latest(build):
    """Like memoized, but hold only the result of the latest arguments.

    For a builder whose callers make all calls with one argument tuple in a
    row: the memo then holds one of its results at a time.
    """
    cached = lru_cache(maxsize=1)(build)
    _MEMOS.append(cached)
    return cached


_EXPECTED = {}  # (order, cache) -> functions listing the configs a pass will ask for there
_RECORDS = {}  # (cfg, order, cache) -> every record the pass read or counted


def clear_memo():
    """Drop the in-process memo: the vertex records a pass read or counted, the
    configs it expects, the latest candidate poset and the dtseries building
    blocks (disk caches are unaffected)."""
    for cached in _MEMOS:
        cached.cache_clear()
    _EXPECTED.clear()
    _RECORDS.clear()


# ---------------------------------------------------------------------------
# Enumeration


@memoized_latest
def _candidate_poset(cfg, order):
    """Boxes of P whose down-set within P has at most `order` elements, sorted.

    Any order ideal of size <= order lies inside this set, and the set is itself
    an order ideal of P.  Down-set sizes are computed by inclusion-exclusion
    dynamic programming over a bounding box in which every coordinate chain
    below a candidate meets at most the listed number of leg boxes.

    A tau-row (rho, sigma, *) meets P in a tail: it lies in leg 3 when
    rho < nu[sigma], and otherwise leaves leg 2 at tau = mu[rho] and leg 1 at
    the column height of lam at sigma.  Down-set sizes grow along each axis, so
    a row ends at its first size above `order`, and no later row goes past the
    rows below and behind it.
    """
    lam, mu, nu = cfg.lam, cfg.mu, cfg.nu
    # A rho-chain below a box of P meets at most len(mu) leg-2 boxes (tau < mu[rho'])
    # and at most nu_1 leg-3 boxes (rho' < nu[sigma]); similarly for the other axes.
    nr = order + mu.length() + nu.first_part()
    ns = order + lam.first_part() + nu.length()
    nt = order + lam.length() + mu.first_part()
    mu_rows = list(mu.parts) + [0] * (nr - mu.length())
    lam_cols = list(lam.conjugate().parts) + [0] * (ns - lam.first_part())
    nu_rows = list(nu.parts) + [0] * (ns - nu.length())
    # down[r + 1][s + 1][t + 1] is the down-set size of (r, s, t); index 0 is a zero border
    down = [[[0] * (nt + 1) for _ in range(ns + 1)] for _ in range(nr + 1)]
    ends = [nt] * ns  # ends[sigma]: the row (rho - 1, sigma) stopped there
    cands = []
    for rho in range(nr):
        lower, plane = down[rho], down[rho + 1]  # planes rho - 1 and rho
        end = nt
        for sigma in range(ns):
            end = min(end, ends[sigma])
            start = max(mu_rows[rho], lam_cols[sigma]) if rho >= nu_rows[sigma] else end
            l0, l1, p0, p1 = lower[sigma], lower[sigma + 1], plane[sigma], plane[sigma + 1]
            for tau in range(end):
                in_p = tau >= start
                v = (in_p + l1[tau + 1] + p0[tau + 1] + p1[tau]
                     - l0[tau + 1] - l1[tau] - p0[tau] + l0[tau])
                if v > order:
                    end = tau
                    break
                p1[tau + 1] = v
                if in_p:
                    cands.append((rho, sigma, tau))
            ends[sigma] = end
    return cands


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
    counts = _walk((_candidate_poset(rep, order) for rep in reps.values()), order)
    by_orbit = dict(zip(reps, map(tuple, counts)))
    return [by_orbit[key] for key in orbits]


def _slices(cands, cells_seen):
    """The sorted cells of each tau-slice of a sorted candidate set.

    Each cell is the one tuple cells_seen holds for it, so the slices of many
    sets take little more memory than their references.
    """
    slices = {}
    for rho, sigma, tau in cands:  # sorted, so each slice comes out sorted
        cell = (rho, sigma)
        slices.setdefault(tau, []).append(cells_seen.setdefault(cell, cell))
    return [tuple(slices.get(tau, ())) for tau in range(max(slices, default=-1) + 1)]


def _walk(cand_sets, order):
    """Counts of order ideals by size, for each candidate set, in one walk over
    their tau-slices that counts the slices shared by a run of sets once.

    Slices.  P is upward closed in Z^3_{>=0}, so its order is generated by
    the three unit covering relations inside P, and an ideal is exactly a
    sequence of 2D ideals J_0, J_1, ... of the tau-slices in which a box
    (r, s, tau) may enter J_tau only when its tau-predecessor (r, s, tau - 1)
    is not in P or lies in J_{tau-1}.  A box of P below a candidate is a
    candidate, so "not in P" reads "not a candidate" here.  A transfer-matrix
    state is one J_tau, a bitmask over the slice's sorted boxes, mapped to the
    size polynomial (truncated at `order`) of all ideals ending in it; a state
    with a zero polynomial is never formed.  _step makes one step; the states
    start as {0: 1} below slice 0, and the answer is the sum of the states of
    the last slice.

    Width.  A size polynomial is packed into one int, coefficient n in bits
    [n*width, (n+1)*width).  Coefficient n of any state, of any sum of states
    and of the final counts of a set counts distinct n-box subsets of its
    candidates, so it is at most C(N, n) <= C(N + n, n) <= C(N + order, order)
    with N the number of candidates.  The walk takes N as the largest of all
    its sets, which only raises the bound, and width has one bit to spare
    above it, so no sum of any set carries into the next coefficient.
    Merging two states is then one addition, and extending a state by a k-box
    slice ideal is a shift by k*width with the coefficients above `order`
    masked off.

    Shared prefixes.  Step tau reads only the cells of slice tau, those of
    slice tau - 1 (through their bits) and the states step tau - 1 returned,
    which it leaves unchanged; the width is the walk's.  By induction the
    states after step tau depend only on the cells of slices 0..tau, so two
    sets whose slices agree up to tau have equal states there.  The walk
    sorts the sets by their sequences of slice cells, so the sets sharing a
    prefix are adjacent, and resumes each set from the path: the states after
    each step it shares with the set before it.  That holds for the next set
    as well, because a set stores its states after step tau only when the
    next set shares step tau, and ends by cutting the path to the steps the
    next set shares.  A set that shares all its slices with the one before
    reads its counts off the path.  A step returns its states whole, and the
    next step sums them by the key it needs, so what step tau returns does
    not depend on slice tau + 1.  Keyed also by the cells under the next
    slice, the 75 sets of a q6/p12 pass would share less: 7003 cells counted
    against 5759.
    """
    runs, width, cells_seen = [], 0, {}
    for i, cands in enumerate(cand_sets):
        runs.append((_slices(cands, cells_seen), i))
        width = max(width, comb(len(cands) + order, order).bit_length() + 1)
    runs.sort()
    full = (1 << (order + 1) * width) - 1
    out = [None] * len(runs)
    path = []  # path[tau]: (states, cells' bits) after slice tau, while later sets share it
    for j, (slices, i) in enumerate(runs):
        keep = _shared(slices, runs[j + 1][0]) if j + 1 < len(runs) else 0
        states, below = path[-1] if path else ({0: 1}, {})
        for tau in range(len(path), len(slices)):
            states, below = _step(slices[tau], below, states, width, full, order)
            if tau < keep:
                path.append((states, below))
        del path[keep:]
        total = sum(states.values())
        out[i] = [total >> n * width & (1 << width) - 1 for n in range(order + 1)]
    return out


def _shared(slices, other):
    """The number of leading slices two sequences of slices share."""
    n = 0
    for a, b in zip(slices, other):
        if a != b:
            break
        n += 1
    return n


def _step(cells, below, old, width, full, order):
    """One transfer-matrix step: the states of the slice with these sorted
    cells, from the states `old` of the slice below, whose cells have the
    bits `below`, left unchanged; returns them with the bits of its cells.

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
      or its lowest size plus |J| is above `order`, no J' >= J survives, and
      the one search of the slice's 2D ideals can skip J's box there for
      good; it yields each surviving J once.
    * Coefficient n of Z[I] counts distinct n-box ideals (each ideal ends
      in one state), so the width bound of _walk still holds.
    """
    bit = {cell: j for j, cell in enumerate(cells)}
    preds, succs, proj = [], [], []
    for rho, sigma in cells:
        preds.append(sum(1 << bit[c] for c in ((rho - 1, sigma), (rho, sigma - 1)) if c in bit))
        succs.append([bit[c] for c in ((rho + 1, sigma), (rho, sigma + 1)) if c in bit])
        proj.append(1 << below[(rho, sigma)] if (rho, sigma) in below else 0)
    lifted = sum(proj)  # pi(lifted): one distinct bit per lifted box
    zeta = {}
    for state, value in old.items():
        zeta[state & lifted] = zeta.get(state & lifted, 0) + value
    for x in sorted(filter(None, proj), reverse=True):  # Z in place, one pass per box
        for key in zeta:
            if not key & x and key | x in zeta:
                zeta[key] += zeta[key | x]
    lows = {key: ((z & -z).bit_length() - 1) // width for key, z in zeta.items()}
    # Each 2D ideal J is generated once by branching on the lowest ready
    # box: it is either added, or skipped for good, which removes its whole
    # up-set because those boxes never become ready.  A stack entry is
    # (J, ready boxes, |J|, pi(J & lifted)).
    states = {0: zeta[0]}
    ready = sum(1 << j for j, mask in enumerate(preds) if not mask)
    stack = [(0, ready, 0, 0)]
    while stack:
        ideal, ready, k, key = stack.pop()
        k += 1
        while ready:
            low = ready & -ready
            ready ^= low
            j = low.bit_length() - 1
            grown_key = key | proj[j]
            if grown_key not in zeta or lows[grown_key] + k > order:
                continue
            grown = ideal | low
            states[grown] = (zeta[grown_key] << k * width) & full
            if lows[grown_key] + k < order:
                opened = ready
                for s in succs[j]:
                    if not preds[s] & ~grown:
                        opened |= 1 << s
                stack.append((grown, opened, k, grown_key))
    return states, bit


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
        cfg = LegConfig(record.lam, record.mu, record.nu)
        tmp = None
        try:
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
    return (len(_candidate_poset(cfg, order)),)


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
