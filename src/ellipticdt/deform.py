"""Deformation dimensions, parity signs, and the arrow combinatorics behind them.

Coordinates follow the single diagram convention of the partitions module:
cells are (rho, sigma) with rho the column index and sigma the row index.
Arrows are materialized, not just counted, so tests can check the tail/head
placement rules directly.
"""

from __future__ import annotations

from collections import namedtuple

from .dtseries import SurfaceData
from .partitions import Partition


class EulerData(namedtuple("EulerData", "chiOS chiOB h0_NBT h0_NBS")):
    __slots__ = ()


class CombCurveDescriptor(namedtuple("CombCurveDescriptor", "surf smooth_fibers nodal_fibers")):
    """Discrete data of a section thickened by fibers: the surface numbers (a
    SurfaceData) plus the partitions at smooth-fiber and nodal-fiber points
    (all nonempty)."""

    __slots__ = ()

    def __new__(cls, surf, smooth_fibers, nodal_fibers):
        smooth_fibers, nodal_fibers = tuple(smooth_fibers), tuple(nodal_fibers)
        for lam in smooth_fibers + nodal_fibers:
            if not isinstance(lam, Partition) or not lam:
                raise ValueError("fiber partitions must be nonempty Partitions")
        return super().__new__(cls, surf, smooth_fibers, nodal_fibers)

    def degree(self):
        return sum(lam.size() for lam in self.smooth_fibers + self.nodal_fibers)

    def all_fibers(self):
        return self.smooth_fibers + self.nodal_fibers


def euler_data(surf):
    """Holomorphic Euler characteristics and section normal-bundle sections.

    Requires eS > 0 and divisible by 12 (so chi(O_S) = eS/12 is an integer)
    and even eB (so chi(O_B) = eB/2 is one too), which SurfaceData enforces.
    """
    if surf.eS <= 0 or surf.eS % 12:
        raise ValueError("eS must be a positive multiple of 12, got %d" % surf.eS)
    chi_os = surf.eS // 12
    chi_ob = surf.eB // 2
    return EulerData(chi_os, chi_ob, chi_os - chi_ob, 0)


def chi_OC(desc):
    """chi of the structure sheaf of the thickened comb: chi(O_B) minus the
    first parts of all fiber partitions."""
    ed = euler_data(desc.surf)
    return ed.chiOB - sum(lam.first_part() for lam in desc.all_fibers())


def tangent_dim(desc):
    """Dimension of the tangent space at the comb curve: h0(N_{B/T}) plus
    2|lam| - lam_1 per fiber (smooth or nodal alike)."""
    ed = euler_data(desc.surf)
    return ed.h0_NBT + sum(
        2 * lam.size() - lam.first_part() for lam in desc.all_fibers()
    )


def behrend_sign(desc):
    """(-1)^(chi(O_S) - chi(O_C)); equals (-1)^tangent_dim by smoothness."""
    ed = euler_data(desc.surf)
    return -1 if (ed.chiOS - chi_OC(desc)) % 2 else 1


class HaimanArrow(namedtuple("HaimanArrow", "tail head kind")):
    """A tangent-basis arrow from a cell outside the diagram to one inside;
    kind is "southeast" or "northwest"."""

    __slots__ = ()


def haiman_basis_2d(lam):
    """The 2|lam| tangent-basis arrows of the point-configuration at lam.

    For each cell (a, b): a southeast arrow from just above the top of column
    a to the rightmost cell of row b, and a northwest arrow from just right of
    row b to the top cell of column a.
    """
    if not lam:
        raise ValueError("the empty partition has no arrow basis")
    cols = lam.conjugate().parts  # column a has cols[a] cells
    arrows = []
    for b, row_end in enumerate(lam.parts):
        for a in range(row_end):
            col_top = cols[a]
            arrows.append(HaimanArrow((a, col_top), (row_end - 1, b), "southeast"))
            arrows.append(HaimanArrow((row_end, b), (a, col_top - 1), "northwest"))
    return arrows


def vl_tangent_basis(lam):
    """Arrows spanning the tangent space of the fixed-intersection stratum.

    Drops exactly the lam_1 southeast arrows whose head is the end of the
    bottom row, at (lam_1 - 1, 0); 2|lam| - lam_1 arrows remain.
    """
    l1 = lam.first_part()
    return [
        ar
        for ar in haiman_basis_2d(lam)
        if not (ar.kind == "southeast" and ar.head == (l1 - 1, 0))
    ]


def comb_fiber_arrow_classes(lam):
    """Number of arrow classes a thickened fiber contributes: 2|lam| - lam_1."""
    if not lam:
        raise ValueError("fiber partitions are nonempty")
    return 2 * lam.size() - lam.first_part()
