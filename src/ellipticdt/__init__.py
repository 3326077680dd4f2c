"""Exact vertex enumeration and curve-counting series for local elliptic surfaces.

The package computes the normalized topological vertex by direct enumeration
of 3D partitions, assembles the section-class and fiber-class partition
functions of a local elliptic surface from it, expands the closed product
forms independently, and checks the two against each other coefficient by
coefficient at user-chosen truncation orders.  Deformation dimensions and
parity signs for the thickened comb curves come with their arrow bases.
"""

from types import ModuleType as _ModuleType

from .partitions import (
    BOX,
    EMPTY,
    Partition,
    enumerate_partitions,
)
from .series import (
    HalfLaurent,
    NotInvertible,
    PQSeries,
    SeriesComparison,
    SeriesError,
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
# the usual-normalization vertex() lives at ellipticdt.vertex.vertex; exporting
# it here would shadow the submodule attribute
from .vertex import (
    LegConfig,
    VertexCache,
    VertexRecord,
    minimal_element_count,
    minimal_volume,
    tilde_vertex,
)
from .dtseries import (
    F1F2,
    PointConfig,
    SurfaceData,
    behrend_transform,
    connected,
    dt_fib,
    dt_hat,
    f_d_compare,
    f_d_series,
    g_of,
    h_of,
    identity_a,
    identity_b,
    identity_c,
    symprod_check,
)
from .deform import (
    CombCurveDescriptor,
    EulerData,
    HaimanArrow,
    behrend_sign,
    chi_OC,
    comb_fiber_arrow_classes,
    euler_data,
    haiman_basis_2d,
    tangent_dim,
    vl_tangent_basis,
)

__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]
__version__ = "0.1.0"
