"""Property tests of the two enumeration stages against definitions read directly.

The candidate poset is checked against its definition, the boxes of P whose
down-set in P has at most `order` boxes, found by counting each down-set box
by box over a cube that no such down-set leaves.  The slice counter is checked
on a full a x b x c box, whose order ideals are the plane partitions inside
it, against MacMahon's box formula.  The runs are derandomized, so the suite
stays deterministic.
"""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ellipticdt.partitions import enumerate_partitions  # noqa: E402
from ellipticdt.vertex import LegConfig, _candidate_slices, _walk  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None)

legs = st.sampled_from([lam for n in range(5) for lam in enumerate_partitions(n)])


def brute_candidates(cfg, order):
    """The boxes of P whose down-set in P has at most `order` boxes, sorted.

    The rho-chain below a box of P lies outside leg 1 (leg-1 membership does
    not depend on rho) and meets at most len(mu) leg-2 and nu_1 leg-3 boxes,
    and likewise along the other two axes; so such a box has every coordinate
    below order + 2 * (the largest part or length of a leg), the cube scanned.
    """
    reach = max(max(lam.first_part(), lam.length()) for lam in (cfg.lam, cfg.mu, cfg.nu))
    span = order + 2 * reach
    out = []
    for box in itertools.product(range(span), repeat=3):
        if cfg.in_legs(*box):
            continue
        size = 0
        for below in itertools.product(*(range(x + 1) for x in box)):
            size += not cfg.in_legs(*below)
            if size > order:
                break
        else:
            out.append(box)
    return out


@PROPERTY
@given(legs, legs, legs, st.integers(0, 7))
def test_candidate_poset_is_its_definition(lam, mu, nu, order):
    cfg = LegConfig(lam, mu, nu)
    slices = _candidate_slices(cfg, order)
    flat = sorted((rho, sigma, tau) for tau, cells in enumerate(slices) for rho, sigma in cells)
    assert flat == brute_candidates(cfg, order)


def macmahon_box(a, b, c):
    """Coefficients of prod_{i,j,k} (1 - q^(i+j+k-1)) / (1 - q^(i+j+k-2)), i <= a, j <= b, k <= c.

    The product is a polynomial of degree a*b*c, so expanding it to that
    degree is exact.
    """
    top = a * b * c
    poly = [1] + [0] * top
    for i, j, k in itertools.product(range(1, a + 1), range(1, b + 1), range(1, c + 1)):
        m = i + j + k - 1
        poly = [x - (poly[n - m] if n >= m else 0) for n, x in enumerate(poly)]
        for n in range(m - 1, top + 1):  # divide by 1 - q^(m - 1)
            poly[n] += poly[n - m + 1]
    return poly


@pytest.mark.parametrize("a,b,c", [(1, 1, 1), (2, 2, 2), (1, 3, 5), (3, 3, 4), (4, 4, 5)])
def test_slice_counts_of_a_full_box_match_macmahon(a, b, c):
    cube = [tuple(itertools.product(range(a), range(b)))] * c
    assert _walk([cube], a * b * c)[0] == macmahon_box(a, b, c)
