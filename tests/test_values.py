"""The value types: immutable, compared and hashed by their fields, built by
position or keyword, validated and normalized when built, with a fixed repr."""

import os
import subprocess
import sys

import pytest

import ellipticdt
from ellipticdt.deform import CombCurveDescriptor, EulerData, HaimanArrow
from ellipticdt.dtseries import PointConfig, SurfaceData, _Tilde
from ellipticdt.partitions import BOX, EMPTY, Partition
from ellipticdt.vertex import LegConfig, VertexCache, VertexRecord

SURF = SurfaceData(eB=2, eS=24)
ROOT_DIR = os.path.abspath(os.sep)

# (type, fields by keyword, repr)
VALUES = [
    (LegConfig, dict(lam=Partition((2, 1)), mu=BOX, nu=EMPTY),
     "LegConfig(lam=Partition([2, 1]), mu=Partition([1]), nu=Partition([]))"),
    (VertexRecord,
     dict(lam=BOX, mu=EMPTY, nu=EMPTY, order=2, counts=(1, 2, 5), min_volume=0),
     "VertexRecord(lam=Partition([1]), mu=Partition([]), nu=Partition([]), "
     "order=2, counts=(1, 2, 5), min_volume=0)"),
    (VertexCache, dict(directory=ROOT_DIR), "VertexCache(directory=%r)" % ROOT_DIR),
    (SurfaceData, dict(eB=2, eS=24), "SurfaceData(eB=2, eS=24)"),
    (PointConfig, dict(a=(1, 2), b=(3,)), "PointConfig(a=(1, 2), b=(3,))"),
    (_Tilde, dict(order=4, cache=None), "_Tilde(order=4, cache=None)"),
    (EulerData, dict(chiOS=2, chiOB=1, h0_NBT=1, h0_NBS=0),
     "EulerData(chiOS=2, chiOB=1, h0_NBT=1, h0_NBS=0)"),
    (CombCurveDescriptor, dict(surf=SURF, smooth_fibers=(BOX,), nodal_fibers=()),
     "CombCurveDescriptor(surf=SurfaceData(eB=2, eS=24), "
     "smooth_fibers=(Partition([1]),), nodal_fibers=())"),
    (HaimanArrow, dict(tail=(0, 1), head=(0, 0), kind="southeast"),
     "HaimanArrow(tail=(0, 1), head=(0, 0), kind='southeast')"),
]


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_type_contract(cls, fields, text):
    value = cls(**fields)
    assert value == cls(*fields.values()) and hash(value) == hash(cls(**fields))
    assert repr(value) == text
    for name, field in fields.items():
        assert getattr(value, name) == field
        with pytest.raises(AttributeError):
            setattr(value, name, field)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_value_types_validate_their_input():
    with pytest.raises(ValueError):
        SurfaceData(3, 24)
    for a, b in (((1, 0), ()), ((), (0,)), ((2,), (1, -1))):
        with pytest.raises(ValueError):
            PointConfig(a, b)
    for smooth, nodal in (((EMPTY,), ()), ((), (BOX, EMPTY)), (((1,),), ()), ((), ([2, 1],))):
        with pytest.raises(ValueError):
            CombCurveDescriptor(SURF, smooth, nodal)


def test_value_types_normalize_their_input(tmp_path, monkeypatch):
    pc = PointConfig([1, "2"], [])
    assert pc.a == (1, 2) and pc.b == () and pc == PointConfig((1, 2), ())
    desc = CombCurveDescriptor(SURF, [BOX], iter([Partition((2,))]))
    assert desc.smooth_fibers == (BOX,) and desc.nodal_fibers == (Partition((2,)),)
    monkeypatch.chdir(tmp_path)
    cache = VertexCache("rel")
    assert cache.directory == os.path.join(os.getcwd(), "rel")
    assert cache == VertexCache(directory=os.path.join(os.getcwd(), "rel"))


def test_importing_the_cli_loads_no_heavy_stdlib_module():
    """The package uses none of dataclasses (which pulls in inspect, ast, dis
    and tokenize), fractions or decimal.  Only modules new to the child count,
    so a site hook that preloads one cannot fail the test."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import ellipticdt.cli; print(' '.join(sorted(set(sys.modules) - before)))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(ellipticdt.__file__)))
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, src], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "ellipticdt.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "fractions", "decimal"}
