import itertools
import json
import os
import shutil
import sys

import pytest

from ellipticdt.partitions import BOX, EMPTY, Partition, enumerate_partitions
from ellipticdt.series import linear_factor, macmahon_p
from ellipticdt.vertex import (
    LegConfig,
    VertexCache,
    clear_memo,
    minimal_element_count,
    minimal_volume,
    tilde_vertex,
    vertex,
)

PLANE = (1, 1, 3, 6, 13, 24, 48, 86, 160)

# Reference counts recorded with the earlier recursive ideal enumerator, which
# built every ideal one box at a time; they pin the slice counter at depths the
# BFS oracle cannot reach.
DEEP_COUNTS = {
    ((), (), (), 18): (
        1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500, 859, 1479, 2485, 4167, 6879,
        11297, 18334, 29601,
    ),
    ((3, 2, 1), (3, 2, 1), (), 14): (
        1, 4, 15, 46, 128, 329, 800, 1850, 4118, 8859, 18518, 37732, 75184,
        146809, 281533,
    ),
    ((2, 1), (2, 1), (2, 1), 12): (
        1, 4, 15, 46, 128, 327, 791, 1816, 4011, 8556, 17729, 35794, 70661,
    ),
    # the minimal configuration buries addable boxes strictly inside the octant
    ((2, 1), (3, 1), (), 12): (
        1, 4, 13, 37, 95, 228, 519, 1131, 2378, 4852, 9642, 18728, 35644,
    ),
}


def brute_counts(cfg, order):
    """Independent oracle: breadth-first growth of downward-closed box sets.

    Every box of the scanning cube is considered at every step (addable boxes
    can sit strictly inside the octant when the minimal configuration covers
    all three lower neighbors), so this stays a full and independent check.
    """
    span = order + max(
        cfg.lam.first_part() + cfg.lam.length(),
        cfg.mu.first_part() + cfg.mu.length(),
        cfg.nu.first_part() + cfg.nu.length(),
        1,
    )
    boxes = [
        (r, s, t)
        for r in range(span)
        for s in range(span)
        for t in range(span)
        if not cfg.in_legs(r, s, t)
    ]
    counts = [1] + [0] * order
    frontier = {frozenset()}
    for n in range(1, order + 1):
        new = set()
        for ideal in frontier:
            for box in boxes:
                if box in ideal:
                    continue
                ok = True
                for k in range(3):
                    below = list(box)
                    below[k] -= 1
                    below = tuple(below)
                    if min(below) >= 0 and not cfg.in_legs(*below) and below not in ideal:
                        ok = False
                        break
                if ok:
                    new.add(ideal | {box})
        counts[n] = len(new)
        frontier = new
    return tuple(counts)


def legs(*parts):
    return LegConfig(*[Partition(p) for p in parts])


def test_empty_legs_plane_partitions():
    rec = tilde_vertex(legs((), (), ()), 8)
    assert rec.counts == PLANE
    assert rec.min_volume == 0


def test_one_box_leg_example():
    rec = tilde_vertex(legs((1,), (), ()), 3)
    assert rec.counts == (1, 2, 5, 11)


def test_two_box_legs_example():
    rec = tilde_vertex(legs((1,), (1,), ()), 2)
    assert rec.counts == (1, 2, 6)


def test_against_independent_bfs_oracle():
    cases = [
        ((), (), ()),
        ((1,), (), ()),
        ((2,), (1, 1), ()),
        ((1, 1), (2,), ()),
        ((2, 1), (1,), (1,)),
        ((3,), (2,), (1,)),
        ((1,), (1,), (1,)),
        ((2, 2), (), (1, 1)),
        # configurations whose minimal configuration buries addable boxes
        # strictly inside the octant
        ((2, 1), (3, 1), ()),
        ((2, 1), (2, 1), ()),
        ((), (1, 1, 1), (3, 1)),
    ]
    for parts in cases:
        cfg = legs(*parts)
        assert tilde_vertex(cfg, 5).counts == brute_counts(cfg, 5)


def test_against_bfs_oracle_three_legs_order_6():
    cfg = legs((2, 1), (1,), (1, 1))
    assert tilde_vertex(cfg, 6).counts == brute_counts(cfg, 6)


@pytest.mark.parametrize("key", sorted(DEEP_COUNTS))
def test_deep_reference_counts(key):
    *parts, order = key
    clear_memo()
    assert tilde_vertex(legs(*parts), order).counts == DEEP_COUNTS[key]


def test_enumeration_leaves_recursion_limit_alone():
    # start from the interpreter default, in case an earlier caller raised it
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        clear_memo()
        tilde_vertex(legs((4, 2, 1), (3, 1), (2,)), 10)
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(saved)


def test_against_bfs_oracle_randomized():
    import random

    rng = random.Random(123)
    pool = [p for n in range(5) for p in enumerate_partitions(n)]
    for _ in range(15):
        cfg = LegConfig(rng.choice(pool), rng.choice(pool), rng.choice(pool))
        assert tilde_vertex(cfg, 4).counts == brute_counts(cfg, 4)


def test_c0_and_c1():
    for total in range(4):
        for s1 in range(total + 1):
            for s2 in range(total - s1 + 1):
                s3 = total - s1 - s2
                for lam in enumerate_partitions(s1):
                    for mu in enumerate_partitions(s2):
                        for nu in enumerate_partitions(s3):
                            cfg = LegConfig(lam, mu, nu)
                            rec = tilde_vertex(cfg, 2)
                            assert rec.counts[0] == 1
                            assert rec.counts[1] == minimal_element_count(cfg)


def test_counts_monotone_for_empty_legs():
    rec = tilde_vertex(legs((), (), ()), 8)
    assert all(rec.counts[i] <= rec.counts[i + 1] for i in range(8))


def test_normalization_lemma_cases():
    for n in range(5):
        for lam in enumerate_partitions(n):
            assert minimal_volume(LegConfig(lam, EMPTY, EMPTY)) == 0
            if n:
                assert minimal_volume(LegConfig(lam, BOX, EMPTY)) == -lam.first_part()
                assert (
                    minimal_volume(LegConfig(lam, lam.conjugate(), EMPTY))
                    == -lam.norm_sq()
                )


def test_normalization_lemma_example():
    assert minimal_volume(legs((2, 1), (2, 1), ())) == -5


def test_symmetries_small():
    triples = []
    for total in range(4):
        for s1 in range(total + 1):
            for s2 in range(total - s1 + 1):
                s3 = total - s1 - s2
                triples.extend(
                    itertools.product(
                        enumerate_partitions(s1),
                        enumerate_partitions(s2),
                        enumerate_partitions(s3),
                    )
                )
    for lam, mu, nu in triples:
        cfg = LegConfig(lam, mu, nu)
        counts = tilde_vertex(cfg, 5).counts
        assert tilde_vertex(cfg.cyclic(), 5).counts == counts
        assert tilde_vertex(cfg.conjugate_swap(), 5).counts == counts


@pytest.mark.parametrize(
    "parts",
    [
        ((2, 1), (3, 1), ()),
        ((3, 2, 1), (2,), ()),
        ((2, 1), (2, 1), (2, 1)),
        ((3, 1), (2,), (1, 1)),
        ((2, 2), (1,), (3,)),
    ],
)
def test_symmetries_deep(parts):
    """Rotating the legs changes which leg lies along the sliced tau-axis, so
    the counter reaches the same numbers along other slicings."""
    cfg = legs(*parts)
    counts = tilde_vertex(cfg, 12).counts
    for image in (cfg.cyclic(), cfg.cyclic().cyclic(), cfg.conjugate_swap()):
        assert tilde_vertex(image, 12).counts == counts


def test_usual_vertex_normalization():
    lam = Partition([2, 1])
    v = vertex(LegConfig(lam, EMPTY, EMPTY), 4)
    t = tilde_vertex(LegConfig(lam, EMPTY, EMPTY), 4).series()
    assert v == t  # single leg: no shift
    v = vertex(LegConfig(lam, BOX, EMPTY), 4)
    assert v.windows[0] == (-2 * lam.first_part(), 2 * (4 - lam.first_part()))
    mu = Partition([2])
    v = vertex(LegConfig(mu, mu.conjugate(), EMPTY), 4)
    assert v.windows[0][0] == -2 * mu.norm_sq()


def test_vertex_matches_macmahon_ratio():
    # normalized one-box-leg vertex equals the product form M(p)/(1-p)
    rec = tilde_vertex(legs((1,), (), ()), 8)
    prod = macmahon_p(0, (0, 16)) * linear_factor(1, 0, -1, 0, (0, 16))
    assert all(rec.counts[n] == prod.coeffs[0][2 * n] for n in range(9))


def inverse_product(factors, order):
    """Coefficients up to q^order of the product over (m, e) of (1 - q^m)^(-e)."""
    poly = [1] + [0] * order
    for m, e in factors:
        for _ in range(e):
            for n in range(m, order + 1):  # divide by 1 - q^m
                poly[n] += poly[n - m]
    return poly


def hook_lengths(lam):
    conj = lam.conjugate().parts
    return [
        part - j + conj[j] - i - 1 for i, part in enumerate(lam.parts) for j in range(part)
    ]


def test_one_leg_vertex_is_macmahon_over_hooks():
    """V~(lam, empty, empty) = M(q) prod over the boxes of lam of (1 - q^h)^(-1),
    h the hook length: the principal specialization of a Schur function
    (Stanley, EC2 Cor. 7.21.3), the one-leg vertex of Okounkov-Reshetikhin-Vafa."""
    order = 20
    macmahon = [(m, m) for m in range(1, order + 1)]
    for n in range(7):
        for lam in enumerate_partitions(n):
            want = inverse_product(macmahon + [(h, 1) for h in hook_lengths(lam)], order)
            assert list(tilde_vertex(LegConfig(lam, EMPTY, EMPTY), order).counts) == want


def test_empty_legs_count_plane_partitions_deep():
    order = 30
    rec = tilde_vertex(legs((), (), ()), order)
    prod = macmahon_p(0, (0, 2 * order))
    assert list(rec.counts) == [prod.coeffs[0][2 * n] for n in range(order + 1)]


def test_cache_roundtrip(tmp_path):
    cache = VertexCache(tmp_path)
    cfg = legs((2,), (1,), ())
    rec1 = tilde_vertex(cfg, 5, cache)
    path = os.path.join(str(tmp_path), "2_1__5.json")
    assert os.path.exists(path)
    rec2 = cache.get(cfg, 5)
    assert rec2 == rec1
    with open(path) as fh:
        data = json.load(fh)
    assert all(isinstance(c, str) for c in data["counts"])


def test_memo_hit_reads_each_cache_key_once(tmp_path, monkeypatch):
    """The memo key holds the cache directory: the first call with a directory
    reads it and writes what it counts, and later calls with that directory
    are memo hits that touch no file until clear_memo()."""
    cache = VertexCache(tmp_path)
    cfg = legs((2, 1), (), (1,))
    gets = []
    real_get = VertexCache.get

    def counted_get(self, cfg, order):
        gets.append(order)
        return real_get(self, cfg, order)

    monkeypatch.setattr(VertexCache, "get", counted_get)
    clear_memo()
    rec = tilde_vertex(cfg, 5)  # no cache directory in the key
    path = cache._path(cfg.canonical_key(4))
    assert tilde_vertex(cfg, 4, cache).counts == rec.counts[:5] and os.path.exists(path)
    assert gets == [4]
    os.remove(path)
    for _ in range(3):
        assert tilde_vertex(cfg, 4, VertexCache(tmp_path)).counts == rec.counts[:5]
    assert gets == [4] and not os.path.exists(path)  # written once: not looked up again
    clear_memo()
    tilde_vertex(cfg, 5)
    assert tilde_vertex(cfg, 4, cache).counts == rec.counts[:5]
    assert gets == [4, 4] and os.path.exists(path)  # clear_memo() forgets what was written


def test_cache_write_makes_its_directory_again(tmp_path):
    """put makes the directory when it cannot create its temp file there, so a
    directory removed between two writes does not lose the second."""
    cache = VertexCache(tmp_path / "c")
    cfg = legs((1,), (), ())
    rec = tilde_vertex(cfg, 4)
    path = cache._path(cfg.canonical_key(4))
    for _ in range(2):
        cache.put(rec)
        assert cache.get(cfg, 4) == rec
        shutil.rmtree(cache.directory)
    assert not os.path.exists(path)


def test_memo_writes_a_relative_cache_directory_after_chdir(tmp_path, monkeypatch):
    """A relative directory names another directory in another working
    directory, so the same call there is no memo hit and writes its record."""
    cfg = legs((1,), (), ())
    clear_memo()
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        tilde_vertex(cfg, 4, VertexCache("c"))
    for name in ("first", "second"):
        assert os.listdir(str(tmp_path / name / "c")) == ["1___4.json"], name


def test_cache_corruption_is_a_miss(tmp_path):
    cache = VertexCache(tmp_path)
    cfg = legs((1, 1), (), ())
    rec1 = tilde_vertex(cfg, 4, cache)
    path = cache._path(cfg.canonical_key(4))
    with open(path, "w") as fh:
        fh.write("{broken")
    assert cache.get(cfg, 4) is None
    with open(path, "w") as fh:
        fh.write("[]")
    assert cache.get(cfg, 4) is None
    # recomputation still works and matches
    clear_memo()
    assert tilde_vertex(cfg, 4, cache) == rec1
    # counts are read only as the list of decimal strings put writes: int()
    # of "100", of 2.5 or of "-4" would serve wrong counts as exact
    empty = legs((), (), ())
    rec2 = tilde_vertex(empty, 2, cache)
    assert rec2.counts == (1, 1, 3)
    for counts in ("100", [1, 2.5, 3], ["1", "-4", "3"]):
        _rewrite_record(cache, empty, 2, {"counts": counts})
        assert cache.get(empty, 2) is None
        clear_memo()
        assert tilde_vertex(empty, 2, cache) == rec2


def test_failed_cache_write_leaves_no_temp_file(tmp_path):
    cache = VertexCache(tmp_path)
    cfg = legs((1,), (), ())
    os.mkdir(cache._path(cfg.canonical_key(3)))  # the rename onto a directory fails
    rec = tilde_vertex(cfg, 3, cache)
    assert rec.counts[0] == 1
    assert sorted(os.listdir(str(tmp_path))) == ["1___3.json"]
    assert cache.get(cfg, 3) is None


def _rewrite_record(cache, cfg, order, changes):
    path = cache._path(cfg.canonical_key(order))
    with open(path) as fh:
        data = json.load(fh)
    data.update(changes)
    with open(path, "w") as fh:
        json.dump(data, fh)


def test_cache_truncated_record_is_a_miss(tmp_path):
    cache = VertexCache(tmp_path)
    cfg = legs((2, 1), (1,), ())
    rec1 = tilde_vertex(cfg, 6, cache)
    _rewrite_record(cache, cfg, 6, {"counts": [str(c) for c in rec1.counts[:3]]})
    assert cache.get(cfg, 6) is None
    clear_memo()
    assert tilde_vertex(cfg, 6, cache) == rec1
    assert cache.get(cfg, 6) == rec1  # the damaged file was rewritten


def test_cache_record_with_other_legs_is_a_miss(tmp_path):
    cache = VertexCache(tmp_path)
    cfg = legs((2,), (1,), ())
    rec1 = tilde_vertex(cfg, 5, cache)
    _rewrite_record(cache, cfg, 5, {"lam": [1, 1]})
    assert cache.get(cfg, 5) is None
    clear_memo()
    assert tilde_vertex(cfg, 5, cache) == rec1


def test_cache_record_with_bad_order_or_constant_term_is_a_miss(tmp_path):
    cache = VertexCache(tmp_path)
    cfg = legs((1,), (), ())
    rec1 = tilde_vertex(cfg, 4, cache)
    _rewrite_record(cache, cfg, 4, {"order": 5})
    assert cache.get(cfg, 4) is None
    _rewrite_record(cache, cfg, 4, {"order": 4, "counts": ["2", "2", "5", "11", "24"]})
    assert cache.get(cfg, 4) is None
    _rewrite_record(cache, cfg, 4, {"counts": [str(c) for c in rec1.counts], "min_volume": 7})
    assert cache.get(cfg, 4) is None
    _rewrite_record(cache, cfg, 4, {"min_volume": rec1.min_volume})
    assert cache.get(cfg, 4) == rec1


def test_cache_record_with_a_float_or_bool_order_or_volume_is_a_miss(tmp_path):
    """4.0, -2.0, true and false compare equal to the ints 4, -2, 1 and 0, so a
    record holding them fits the key by value; it is still a miss, else a
    float or bool would be served, and printed, as the order or volume."""
    cache = VertexCache(tmp_path)
    for parts, order, changes in (
        (((2, 1), (1,), ()), 4, {"order": 4.0}),
        (((2, 1), (1,), ()), 4, {"min_volume": -2.0}),
        (((1,), (), ()), 1, {"order": True}),
        (((1,), (), ()), 1, {"min_volume": False}),
    ):
        cfg = legs(*parts)
        clear_memo()
        rec = tilde_vertex(cfg, order, cache)
        _rewrite_record(cache, cfg, order, changes)
        assert cache.get(cfg, order) is None, changes
        clear_memo()
        rec2 = tilde_vertex(cfg, order, cache)
        assert rec2 == rec and type(rec2.order) is int and type(rec2.min_volume) is int
        assert cache.get(cfg, order) == rec  # the record was rewritten with ints


def test_record_slicing_consistency():
    cfg = legs((2, 1), (), ())
    big = tilde_vertex(cfg, 7)
    small = tilde_vertex(cfg, 3)
    assert small.counts == big.counts[:4]
    assert small.min_volume == big.min_volume


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        tilde_vertex(legs((), (), ()), -1)
