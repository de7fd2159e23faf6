"""The package's immutable records (``errors._Record`` subclasses) behave as
values: ``copy.copy``, ``copy.deepcopy`` and ``pickle`` give an equal object
with the same hash and repr, the repr is ``Name(field=value, ...)`` over the
public fields, equality is type-strict, and assigning or deleting an
attribute raises AttributeError.  Each record is rebuilt equal from its
fields by position or by keyword, and a missing, extra, unknown or repeated
field is a TypeError naming the record."""

import ast
import copy
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction as F
from pathlib import Path

import pytest

import kronflow
from kronflow.benjamin_ono import BoModuleReport, bo_tail_module
from kronflow.classification import (
    BaerType,
    ModuleComponent,
    ModuleDescriptor,
    SupernaturalNumber,
    decompose_module,
)
from kronflow.dynamics import TrigPolynomial
from kronflow.errors import _Record
from kronflow.exact_linalg import IntVecFin
from kronflow.frequency import (
    BoRule,
    Finite,
    Generator,
    ProductConstruction,
    RationalSequenceSpec,
    SigmaSequence,
    SolenoidRule,
    SubgroupOfQSpec,
    parse_frequency_spec,
)
from kronflow.resonance_reduction import (
    FlowReduction,
    ReductionCertificate,
    ResonanceBasis,
    reduce_flow,
    reduce_vector,
    resonance_basis,
)
from kronflow.solenoid_geometry import GeometricWeights, SolenoidCoords, TorusPoint, to_coordinates

HALVING = {"kind": "solenoid", "generator": "1", "a": {"prefix": [1, 2], "tail": {"constant": 2}}}
BO = {"kind": "bo", "beta": {"name": "beta", "kind": "opaque"},
      "s": {"prefix": ["1/3"], "tail": {"c": "1/2", "r": "1/2"}}}
PRODUCT = {"kind": "product", "components": [{"free": "1"}, {"qa": {"prefix": [1], "tail": {"constant": 2}}}]}
FINITE = {"kind": "finite", "terms": [{"1": "1"}, {"sqrt2": "1/2", "1": "-3"}, {"pi": "2"}]}


def _records() -> dict:
    halving, bo, product, finite = map(parse_frequency_spec, (HALVING, BO, PRODUCT, FINITE))
    theta = TorusPoint.exact_point(["1/4", "5/8", "5/16"])
    module = decompose_module(product, 8)
    return {
        "Generator": Generator("b", "opaque", None, "0." + "3" * 40),
        "SigmaSequence": halving.a,
        "RationalSequenceSpec": bo.s,
        "SubgroupOfQSpec free": product.components[0][1],
        "SubgroupOfQSpec qa": product.components[1][1],
        "Finite": finite,
        "SolenoidRule": halving,
        "BoRule": bo,
        "ProductConstruction": product,
        "SupernaturalNumber": SupernaturalNumber.from_exponents({2: 3, 5: float("inf")}),
        "BaerType": module.components[1].baer,
        "ModuleComponent": module.components[1],
        "ModuleDescriptor": module,
        "ResonanceBasis": resonance_basis(halving, 4),
        "ReductionCertificate": reduce_vector(IntVecFin({1: 4, 2: 6, 3: 10})),
        "FlowReduction": reduce_flow(product, 6),
        "TorusPoint": theta,
        "SolenoidCoords": to_coordinates(SigmaSequence((1, 2, 2), "constant", (2,)), theta),
        "GeometricWeights": GeometricWeights(F(1, 3)),
        "BoModuleReport": bo_tail_module(bo, 5),
        "TrigPolynomial": TrigPolynomial.constant(F(1, 3)) + TrigPolynomial.sine(IntVecFin({1: 2, 3: -1}), F(2, 3)),
    }


RECORDS = _records()


def _hash(x):
    """The hash, or the type of the error hashing raises (a record holding
    a matrix or a dict is unhashable)."""
    try:
        return hash(x)
    except TypeError as exc:
        return type(exc)


def _subclasses(cls) -> set:
    return {sub for direct in cls.__subclasses__() for sub in {direct} | _subclasses(direct)}


def test_every_record_is_listed():
    for module in pkgutil.iter_modules(kronflow.__path__):
        importlib.import_module(f"kronflow.{module.name}")
    defined = {cls for cls in _subclasses(_Record) if cls.__module__.startswith("kronflow.")}
    assert {type(r) for r in RECORDS.values()} == defined


@pytest.mark.parametrize("name", list(RECORDS))
def test_records_rebuild_from_their_fields_by_position_and_keyword(name):
    record = RECORDS[name]
    cls = type(record)
    fields = dict(zip(cls._fields, record._values))
    for twin in (cls(*fields.values()), cls(**fields), cls(record._values[0], **dict(list(fields.items())[1:]))):
        assert type(twin) is cls and twin == record and repr(twin) == repr(record)


@pytest.mark.parametrize("name", list(RECORDS))
def test_missing_extra_unknown_or_repeated_fields_raise_naming_the_record(name):
    record = RECORDS[name]
    cls = type(record)
    fields = dict(zip(cls._fields, record._values))
    params = inspect.signature(cls.__init__).parameters
    calls = [
        ((*record._values, None), {}),  # extra
        (record._values, {"no_such_field": None}),  # unknown
        (record._values[:1], fields),  # the first field twice
    ]
    for field in fields:  # missing, unless the record's own constructor gives a default
        if field not in params or params[field].default is inspect.Parameter.empty:
            calls.append(((), {k: v for k, v in fields.items() if k != field}))
    for args, kwargs in calls:
        with pytest.raises(TypeError, match=rf"\b{cls.__name__}\b"):
            cls(*args, **kwargs)


@pytest.mark.parametrize("name", list(RECORDS))
def test_copies_and_pickles_are_equal_values(name):
    record = RECORDS[name]
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record and not twin != record
        assert _hash(twin) == _hash(record)
        assert repr(twin) == repr(record)


@pytest.mark.parametrize("name", list(RECORDS))
def test_fields_are_read_only(name):
    record = RECORDS[name]
    before = repr(record)
    for field in (*type(record)._fields, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert not hasattr(record, "__dict__")
    assert repr(record) == before


@pytest.mark.parametrize("name", list(RECORDS))
def test_repr_names_the_public_fields_in_order(name):
    record = RECORDS[name]
    fields = type(record)._fields
    body = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
    assert repr(record) == f"{type(record).__name__}({body})"
    assert not any(f.startswith("_") for f in fields)


def test_private_caches_stay_out_of_eq_hash_and_repr():
    n = RECORDS["SupernaturalNumber"]
    assert type(n)._fields == ("pairs",)
    assert "_profile" not in repr(n) and n.profile() == copy.deepcopy(n).profile()
    assert hash(n) == hash((n.pairs,))
    assert Generator._fields == ("name", "kind", "param", "value_digits")


def test_equality_is_type_strict():
    weights = GeometricWeights(F(1, 3))
    assert weights == GeometricWeights("1/3") and hash(weights) == hash(GeometricWeights(F(1, 3)))
    assert weights != (F(1, 3),) and weights != F(1, 3)
    assert TorusPoint((F(1, 2),), True) != TorusPoint((F(1, 2),), False)
    assert RationalSequenceSpec() == RationalSequenceSpec((), 0, F(1, 2))
    assert SubgroupOfQSpec(F(1)) != SubgroupOfQSpec(qa=SigmaSequence((1,), "constant", (2,)))


def test_public_fields_are_set_only_by_the_base_constructor():
    """Each record declares its fields once, in ``__slots__``: outside
    ``errors.py`` no ``object.__setattr__(self, "<field>", ...)`` sets a
    public field; only derived private slots are set that way."""
    package = Path(kronflow.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__"
                    and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                    and not str(node.args[1].value).startswith("_")):
                offenders.append(f"{path.name}:{node.lineno} sets {node.args[1].value!r}")
    assert offenders == []
