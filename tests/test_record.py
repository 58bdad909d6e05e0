import pickle

import pytest

from hkcert.construction import (
    ConstructionRecord,
    MukaiVector,
    run_pipeline,
)
from hkcert.instance import BrauerClass, CheckResult, HKInstance, b_field_class
from hkcert.lattice import (
    GramLattice,
    Isometry,
    LatticeVector,
    RationalClass,
    _discriminant_generators,
    build_lambda,
    hyperbolic_plane,
)
from hkcert.obstruction import WallCertificate, wall_certificate
from lattice_reference import eichler_transvection

# one record of each class, built from the worked instance
BUILDERS = {
    GramLattice: lambda lam2, inst: hyperbolic_plane(),
    LatticeVector: lambda lam2, inst: inst.W,
    RationalClass: lambda lam2, inst: RationalClass(inst.B, 4),
    Isometry: lambda lam2, inst: eichler_transvection(lam2.basis_vector(0), lam2.basis_vector(2)),
    HKInstance: lambda lam2, inst: inst,
    BrauerClass: lambda lam2, inst: b_field_class(inst),
    CheckResult: lambda lam2, inst: CheckResult("pic_rank", True, "rank 2"),
    MukaiVector: lambda lam2, inst: run_pipeline(inst).v0,
    ConstructionRecord: lambda lam2, inst: run_pipeline(inst),
    WallCertificate: lambda lam2, inst: wall_certificate(7, 2, 3),
}


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_record_semantics(cls, lam2, e2_instance):
    obj = BUILDERS[cls](lam2, e2_instance)
    assert type(obj) is cls
    values = [getattr(obj, name) for name in cls._fields]
    # pickling rebuilds every nested field, so this compares by value
    copy = pickle.loads(pickle.dumps(obj))
    assert copy is not obj and copy == obj and not copy != obj
    assert hash(copy) == hash(obj)
    assert cls(*values) == obj
    assert cls(**dict(zip(cls._fields, values))) == obj
    assert obj != values
    assert repr(obj).startswith(f"{cls.__name__}({cls._fields[0]}=")
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, unknown=None)
    with pytest.raises(AttributeError):
        setattr(obj, cls._fields[0], values[0])
    with pytest.raises(AttributeError):
        delattr(obj, cls._fields[0])
    with pytest.raises(AttributeError):
        obj.unknown = None
    assert [getattr(obj, name) for name in cls._fields] == values


def test_record_defaults():
    assert GramLattice(1, ((2,),)).label == ""
    assert CheckResult("pic_rank", True).details == ""
    assert CheckResult("pic_rank", ok=False) == CheckResult("pic_rank", False, "")


def test_gram_lattice_label_ignored():
    a, b = GramLattice(1, ((-94,),), "a"), GramLattice(1, ((-94,),), "b")
    assert a == b and hash(a) == hash(b) and a.label != b.label
    before = _discriminant_generators.cache_info()
    _discriminant_generators(a)
    _discriminant_generators(b)
    after = _discriminant_generators.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


def test_vectors_of_different_lattices_unequal(lam2):
    v, w = lam2.basis_vector(0), build_lambda(3).basis_vector(0)
    assert v.coords == w.coords and v != w


def test_hk_instance_replace(e2_instance, lam2):
    out = e2_instance.replace(pic_basis=list(e2_instance.pic_basis), d=5)
    assert type(out.pic_basis) is tuple and out.pic_basis == e2_instance.pic_basis
    assert out.d == 5 and e2_instance.d == 2
    assert out.replace(d=2) == e2_instance
    with pytest.raises(TypeError):
        e2_instance.replace(unknown=1)
