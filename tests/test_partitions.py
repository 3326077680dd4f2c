import pytest

from ellipticdt.partitions import (
    EMPTY,
    Partition,
    enumerate_partitions,
)


# independent oracle: recursive enumeration by bounded largest part
def partitions_recursive(n, max_part=None):
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_recursive(n - first, first):
            out.append((first,) + rest)
    return out


# independent oracle: coefficients of prod 1/(1 - q^k) by integer DP
def partition_numbers(limit):
    coeffs = [1] + [0] * limit
    for k in range(1, limit + 1):
        for n in range(k, limit + 1):
            coeffs[n] += coeffs[n - k]
    return coeffs


def test_validation():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, 0])
    assert Partition([]) == EMPTY


def test_parse_roundtrip():
    assert Partition.parse("") == EMPTY
    assert Partition.parse("3,1,1") == Partition([3, 1, 1])
    assert Partition.parse("3,1,1").to_string() == "3,1,1"


def test_enumeration_order_n4():
    got = [list(p) for p in enumerate_partitions(4)]
    assert got == [[4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1]]


def test_enumeration_small_cases():
    assert [list(p) for p in enumerate_partitions(0)] == [[]]
    assert [list(p) for p in enumerate_partitions(1)] == [[1]]


def test_enumeration_against_recursive_oracle():
    for n in range(11):
        got = {p.parts for p in enumerate_partitions(n)}
        want = set(partitions_recursive(n))
        assert got == want
        assert len(enumerate_partitions(n)) == len(want)


def test_enumeration_returns_a_new_list_each_call():
    """The Partition objects are cached per n; the list a caller gets is its own."""
    got = enumerate_partitions(4)
    got.append(Partition([5]))
    enumerate_partitions(3).clear()
    assert [p.parts for p in enumerate_partitions(4)] == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(enumerate_partitions(3)) == 3


def test_counts_match_generating_function():
    numbers = partition_numbers(12)
    for n in range(13):
        assert len(enumerate_partitions(n)) == numbers[n]


def test_stats_examples():
    lam = Partition([3, 1])
    assert (lam.size(), lam.first_part(), lam.norm_sq(), lam.length()) == (4, 3, 10, 2)
    assert lam.conjugate() == Partition([2, 1, 1])
    assert (EMPTY.size(), EMPTY.first_part(), EMPTY.norm_sq(), EMPTY.length()) == (0, 0, 0, 0)
    assert EMPTY.conjugate() == EMPTY
    lam = Partition([2, 1])
    assert (lam.size(), lam.norm_sq()) == (3, 5)
    assert lam.conjugate() == Partition([2, 1])


def test_conjugate_involution_and_norms():
    for n in range(9):
        for lam in enumerate_partitions(n):
            conj = lam.conjugate()
            assert conj.conjugate() == lam
            # norm_sq computed from column data of the conjugate
            via_conj = sum(
                (2 * j + 1) * c for j, c in enumerate(conj.parts)
            )  # sum over columns of (2j+1) per cell column index
            # identity: sum lam_i^2 = sum_cells (2*rho + 1)
            direct = sum(2 * rho + 1 for rho, sigma in lam.cells())
            assert lam.norm_sq() == direct == via_conj


def test_diagram_membership():
    lam = Partition([3, 1])
    cells = {(0, 0), (1, 0), (2, 0), (0, 1)}
    for rho in range(5):
        for sigma in range(4):
            assert lam.contains(rho, sigma) == ((rho, sigma) in cells)
    assert set(lam.cells()) == cells
