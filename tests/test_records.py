"""The five frozen records of the package, all series.Record: Params,
Kernel, SlopeEstimate, QExpansion and Zeta3Kernel.  Their reprs are
the strings the earlier dataclass versions printed; equality, hashing,
immutability, construction, validation and pickling keep the dataclass
contract."""

import copy
import pickle
from fractions import Fraction

import pytest

from qzeta.asymptotics import SlopeEstimate
from qzeta.eisenstein import QExpansion
from qzeta.linform import Params
from qzeta.series import Kernel, Record
from qzeta.zeta3 import Zeta3Kernel, zeta3_partial_fractions

# name -> (a builder of one record, its repr as the dataclass printed it)
RECORDS = {
    "Params": (lambda: Params(4, 1, 3), "Params(A=4, r=1, n=3, eps=1)"),
    "Params-eps0": (lambda: Params(A=12, r=2, n=10, eps=0),
                    "Params(A=12, r=2, n=10, eps=0)"),
    "Kernel": (lambda: Kernel(), "Kernel(scalar=(), shift=0, exps=())"),
    "Kernel-full": (lambda: Kernel(((1, 2), (3, 1)), 2, (-1, 0, 1)),
                    "Kernel(scalar=((1, 2), (3, 1)), shift=2, exps=(-1, 0, 1))"),
    "SlopeEstimate": (
        lambda: SlopeEstimate("S", ((1, Fraction(1, 2)), (2, 0.25)), Fraction(3, 4),
                              0.5, 0.25, None),
        "SlopeEstimate(label='S', points=((1, Fraction(1, 2)), (2, 0.25)), "
        "target=Fraction(3, 4), fitted=0.5, last=0.25, rel_gap=None, extras=None)"),
    "QExpansion": (lambda: QExpansion(4, (1, 240, 2160)),
                   "QExpansion(weight=4, coeffs=(Fraction(1, 1), Fraction(240, 1), "
                   "Fraction(2160, 1)))"),
    "Zeta3Kernel": (lambda: Zeta3Kernel(0, ()), "Zeta3Kernel(n=0, rows=())"),
}


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in record.__slots__)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_is_the_dataclass_repr(name):
    make, text = RECORDS[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_and_hash(name):
    make = RECORDS[name][0]
    a, b = make(), make()
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(_fields(a))
    assert a != _fields(a) and _fields(a) != a

    twin = type("Twin", (Record,), {"__slots__": a.__slots__})
    assert a != twin(*_fields(a)) and twin(*_fields(a)) != a
    kind = name.split("-")[0]
    assert all(a != make() for other, (make, _) in RECORDS.items()
               if other.split("-")[0] != kind)


def test_unequal_fields_compare_unequal():
    assert Params(4, 1, 3) != Params(4, 1, 3, 0)
    assert Kernel(shift=1) != Kernel()
    assert QExpansion(4, (1,)) != QExpansion(6, (1,))


def test_dict_extras_are_unhashable():
    est = SlopeEstimate("P", ((3, 1),), 1, 1, 1, 0.0, {"c": 1})
    assert est == SlopeEstimate("P", ((3, 1),), 1, 1, 1, 0.0, {"c": 1})
    with pytest.raises(TypeError):
        hash(est)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned_or_deleted(name):
    record = RECORDS[name][0]()
    field = record.__slots__[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.other = 0
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    assert repr(record) == RECORDS[name][1]


def test_keyword_construction_and_defaults():
    assert Params(A=4, r=1, n=3) == Params(4, 1, 3, 1) == Params(4, 1, n=3, eps=1)
    assert Params(4, 1, 3).eps == 1
    assert Kernel() == Kernel((), 0, ()) == Kernel(shift=0)
    assert Kernel(exps=(1,)).shift == 0 and Kernel(shift=2).scalar == ()
    est = SlopeEstimate(label="S", points=(), target=1, fitted=1, last=1, rel_gap=0)
    assert est.extras is None
    assert QExpansion(coeffs=(1,), weight=2) == QExpansion(2, (1,))
    assert Zeta3Kernel(rows=(), n=0) == Zeta3Kernel(0, ())


@pytest.mark.parametrize("args, kwargs", [
    ((4, 1), {}),                       # n missing
    ((4, 1, 3, 1, 0), {}),              # one field too many
    ((4, 1, 3), {"A": 4}),              # A twice
    ((4, 1, 3), {"m": 0}),              # no such field
])
def test_bad_constructor_calls_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Params(*args, **kwargs)


@pytest.mark.parametrize("args, message", [
    ((3, 1, 1), "A must be an even integer >= 2, got 3"),
    ((0, 1, 1), "A must be an even integer >= 2, got 0"),
    ((4, 3, 1), "need 1 <= r <= A/2, got r=3, A=4"),
    ((4, 0, 1), "need 1 <= r <= A/2, got r=0, A=4"),
    ((4, 1, -1), "n must be >= 0, got -1"),
    ((4, 1, 1, 2), "eps must be 0 or 1, got 2"),
])
def test_params_validation_messages(args, message):
    with pytest.raises(ValueError) as info:
        Params(*args)
    assert str(info.value) == message


def test_slope_points_must_increase():
    with pytest.raises(ValueError) as info:
        SlopeEstimate("x", ((2, 1), (2, 1)), 0, 0, 0, None)
    assert str(info.value) == "points must be strictly increasing in n"


def test_qexpansion_coerces_coefficients_to_fractions():
    x = QExpansion(weight=0, coeffs=[1, 0.5, "1/3", Fraction(2, 4)])
    assert x.coeffs == (1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 2))
    assert type(x.coeffs) is tuple
    assert all(type(c) is Fraction for c in x.coeffs)
    assert repr(QExpansion(0, [Fraction(1, 3), 2])) == (
        "QExpansion(weight=0, coeffs=(Fraction(1, 3), Fraction(2, 1)))")


ROUND_TRIP = {
    **{name: make for name, (make, _) in RECORDS.items()},
    "SlopeEstimate-extras": lambda: SlopeEstimate("P", ((3, 1),), 1, 1, 1, 0.0, {"c": [1]}),
    "Zeta3Kernel-1": lambda: zeta3_partial_fractions(1),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP))
def test_pickle_and_copy_round_trip(name):
    record = ROUND_TRIP[name]()
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                  copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert clone == record and repr(clone) == repr(record)
    deep = copy.deepcopy(record)
    if isinstance(record, SlopeEstimate) and record.extras is not None:
        assert deep.extras is not record.extras
        assert deep.extras["c"] is not record.extras["c"]
