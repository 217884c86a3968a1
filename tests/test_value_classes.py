"""Semantics of the public value classes: construction by position and by
keyword, immutability, equality, hashing, repr, copies and pickling.

Every class compares, hashes and prints a fixed tuple of its fields:
``==`` holds only between instances of the same class with equal fields
(another class gets ``NotImplemented``), ``hash`` is the hash of the tuple
of compared fields, and ``repr`` is ``Name(field=value, ...)``.  The
measures are the exception: they compare and hash their factors and
integer form, and print their factors and entries.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from joinlab import (
    ActionGenerators,
    Automorphism,
    EquivariantField,
    FiniteSpace,
    JoiningTensor,
    LpOutcome,
    LpSolution,
    MarkovOperator,
    MeasurableSet,
    PolytopeSpec,
    ProductMeasure,
    RigiditySequence,
    SkewProduct,
    TrivialityCertificate,
)
from joinlab.config import Config
from joinlab.mixing import SweepResult
from joinlab.serialize import RawTensor
from joinlab.torus import Z2kContext

H, Q = Fraction(1, 2), Fraction(1, 4)
PAIR = FiniteSpace((H, H))
SKEWED = FiniteSpace((Fraction(1, 3), Fraction(2, 3)))
SWAP = Automorphism(PAIR, (1, 0))
IDENT = Automorphism(PAIR, (0, 1))
FLIP = ActionGenerators(PAIR, (SWAP,))
HALVES = ProductMeasure((PAIR,), (H, H))

S = "FiniteSpace(weights=(Fraction(1, 2), Fraction(1, 2)))"
A = f"Automorphism(space={S}, perm=(1, 0))"
G = f"ActionGenerators(space={S}, generators=({A},))"
P = f"ProductMeasure(factors=({S},), entries=(Fraction(1, 2), Fraction(1, 2)))"

# name: (class, init field names, compared fields, args, unequal args, repr)
CASES = {
    "FiniteSpace": (
        FiniteSpace, ("weights",), ("weights",),
        ((H, H),), ((Fraction(1, 3), Fraction(2, 3)),), S),
    "MeasurableSet": (
        MeasurableSet, ("space", "atoms"), ("space", "atoms"),
        (PAIR, frozenset({1})), (PAIR, frozenset({0})),
        f"MeasurableSet(space={S}, atoms=frozenset({{1}}))"),
    "Automorphism": (
        Automorphism, ("space", "perm"), ("space", "perm"),
        (PAIR, (1, 0)), (PAIR, (0, 1)), A),
    "ActionGenerators": (
        ActionGenerators, ("space", "generators"), ("space", "generators"),
        (PAIR, (SWAP,)), (PAIR, (IDENT,)), G),
    "ProductMeasure": (
        ProductMeasure, ("factors", "entries"), ("factors", "numerators", "denominator"),
        ((PAIR,), (H, H)), ((PAIR,), (Q, 3 * Q)), P),
    "JoiningTensor": (
        JoiningTensor, ("factors", "entries"), ("factors", "numerators", "denominator"),
        ((PAIR,), (H, H)), ((SKEWED,), (Fraction(1, 3), Fraction(2, 3))),
        P.replace("ProductMeasure", "JoiningTensor")),
    "EquivariantField": (
        EquivariantField, ("base_spaces", "fiber_spaces", "assignment"),
        ("base_spaces", "fiber_spaces", "assignment"),
        ((PAIR,), (PAIR,), (HALVES, HALVES)),
        ((PAIR,), (PAIR,), (HALVES, ProductMeasure((PAIR,), (1, 0)))),
        f"EquivariantField(base_spaces=({S},), fiber_spaces=({S},), "
        f"assignment=({P}, {P}))"),
    "SweepResult": (
        SweepResult, ("max_deviation", "argmax_offsets", "product_value"),
        ("max_deviation", "argmax_offsets", "product_value"),
        (H, (1,), Q), (H, (2,), Q),
        "SweepResult(max_deviation=Fraction(1, 2), argmax_offsets=(1,), "
        "product_value=Fraction(1, 4))"),
    "MarkovOperator": (
        MarkovOperator, ("source", "target", "kernel"), ("source", "target", "kernel"),
        (PAIR, PAIR, ((1, 0), (0, 1))), (PAIR, PAIR, ((0, 1), (1, 0))),
        f"MarkovOperator(source={S}, target={S}, kernel=((Fraction(1, 1), "
        "Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1))))"),
    "PolytopeSpec": (
        PolytopeSpec, ("action", "order", "independence"),
        ("action", "order", "independence"),
        (FLIP, 2, 1), (FLIP, 3, 1),
        f"PolytopeSpec(action={G}, order=2, independence=1)"),
    "LpOutcome": (
        LpOutcome, ("status", "optimum", "witness"), ("status", "optimum", "witness"),
        ("optimal", H, None), ("infeasible", None, None),
        "LpOutcome(status='optimal', optimum=Fraction(1, 2), witness=None)"),
    "TrivialityCertificate": (
        TrivialityCertificate, ("trivial", "max_deviation", "witness"),
        ("trivial", "max_deviation", "witness"),
        (True, Fraction(0), None), (False, Fraction(0), None),
        "TrivialityCertificate(trivial=True, max_deviation=Fraction(0, 1), witness=None)"),
    "RawTensor": (
        RawTensor, ("factors", "entries", "numerators", "denominator"),
        ("factors", "entries", "numerators", "denominator"),
        ((PAIR,), (H, H), (1, 1), 2), ((PAIR,), (H, Q), (2, 1), 4),
        f"RawTensor(factors=({S},), entries=(Fraction(1, 2), Fraction(1, 2)), "
        "numerators=(1, 1), denominator=2)"),
    "LpSolution": (
        LpSolution, ("status", "value", "solution"), ("status", "value", "solution"),
        ("optimal", H, (H,)), ("optimal", H, (Q,)),
        "LpSolution(status='optimal', value=Fraction(1, 2), solution=(Fraction(1, 2),))"),
    "SkewProduct": (
        SkewProduct, ("base", "fiber", "base_map", "cocycle"),
        ("base", "fiber", "base_map", "cocycle"),
        (PAIR, PAIR, SWAP, (SWAP, SWAP)), (PAIR, PAIR, SWAP, (SWAP, IDENT)),
        f"SkewProduct(base={S}, fiber={S}, base_map={A}, cocycle=({A}, {A}))"),
    "RigiditySequence": (
        RigiditySequence, ("times",), ("times",),
        ((1, 2),), ((1, 3),), "RigiditySequence(times=(1, 2))"),
    "Z2kContext": (
        Z2kContext, ("k",), ("k",), (1,), (2,), "Z2kContext(k=1)"),
    "Config": (
        Config,
        ("spaces", "automorphisms", "actions", "cocycles", "sets", "sequences",
         "objectives"),
        ("spaces", "automorphisms", "actions", "cocycles", "sets", "sequences",
         "objectives"),
        ({"s": PAIR}, {}, {}, {}, {}, {}, {}), ({"t": PAIR}, {}, {}, {}, {}, {}, {}),
        f"Config(spaces={{'s': {S}}}, automorphisms={{}}, actions={{}}, "
        "cocycles={}, sets={}, sequences={}, objectives={})"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_class_semantics(name):
    cls, names, compared, args, other_args, shown = CASES[name]
    x = cls(*args)
    y = cls(**dict(zip(names, args)))
    assert x is not y
    for field in names:
        assert getattr(x, field) == getattr(y, field)
    assert x == y and not x != y
    z = cls(*other_args)
    assert x != z and not x == z
    fields = tuple(getattr(x, f) for f in compared)
    assert x.__eq__(fields) is NotImplemented
    assert x != fields and not x == fields
    assert x.__eq__(object()) is NotImplemented
    try:
        expected = hash(fields)
    except TypeError:  # a field is unhashable: so is the instance
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y) == expected
    assert repr(x) == shown
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is cls and twin == x and repr(twin) == shown
    for field in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            delattr(x, field)
    assert repr(x) == shown


def test_measures_compare_by_integer_form():
    # equal entries make equal measures, a joining equal to the plain
    # measure with the same entries, with equal hashes
    a, b = ProductMeasure((PAIR,), (H, H)), ProductMeasure((PAIR,), ("1/2", "2/4"))
    j = JoiningTensor((PAIR,), (H, H))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a == j and j == a and hash(a) == hash(j)
    assert j != JoiningTensor((SKEWED,), (Fraction(1, 3), Fraction(2, 3)))
    assert (a.numerators, a.denominator) == ((1, 1), 2)
