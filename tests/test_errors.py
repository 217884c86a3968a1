"""``errors.naming``: the one helper that prefixes an input error with the
input that caused it; the integer parameters of the library, each of
which refuses a bool with its own message; and the constructor that the
result records take from ``errors.Value``."""

from fractions import Fraction

import pytest

from joinlab import (
    Automorphism,
    FiniteSpace,
    MeasurableSet,
    SkewProduct,
    Z2kContext,
    cocycle_product,
    fourier_joining,
    identity_operator,
    mixing_deviation_sweep_detail,
    operator_power,
    power_skew,
    product_convergence_trace,
    product_joining,
    relative_mixing_fraction,
    relative_weak_mixing_average,
    rigidity_statistic,
    sample_random_extension,
    weak_closure_probe,
)
from joinlab.errors import (
    InvalidInputError,
    JoinlabInternalError,
    PreconditionError,
    ResourceLimitError,
    naming,
)
from joinlab.mixing import SweepResult
from joinlab.operators import ClosureProbe
from joinlab.polytope import LpOutcome, TrivialityCertificate, _Reduction
from joinlab.simplex import LpSolution


@pytest.mark.parametrize(
    "kind", [InvalidInputError, PreconditionError, ResourceLimitError]
)
def test_input_errors_keep_their_kind_and_gain_the_field(kind):
    with pytest.raises(kind) as err:
        with naming("spaces.s.weights"):
            raise kind("weights must sum to 1, got 5/6")
    assert type(err.value) is kind
    assert str(err.value) == "spaces.s.weights: weights must sum to 1, got 5/6"
    assert isinstance(err.value.__cause__, kind)


def test_nested_fields_read_outermost_first():
    with pytest.raises(InvalidInputError, match=r"^--sweep: offset grid: too big$"):
        with naming("--sweep"):
            with naming("offset grid"):
                raise InvalidInputError("too big")


@pytest.mark.parametrize("exc", [JoinlabInternalError("pivot"), ValueError("pivot")])
def test_other_errors_pass_through_unchanged(exc):
    with pytest.raises(type(exc)) as err:
        with naming("--k"):
            raise exc
    assert err.value is exc


def test_no_error_no_effect():
    with naming("--k"):
        value = 3
    assert value == 3


def _bool_cases():
    """(call of a bool, message template) for each integer parameter whose
    check must refuse a bool as it refuses any other bad value."""
    two = FiniteSpace.uniform(2)
    flip = Automorphism(two, (1, 0))
    r = SkewProduct(two, two, flip, (flip, flip))
    a = MeasurableSet(two, frozenset({0}))
    v = product_joining((two, two))
    half = Fraction(1, 2)
    return {
        "FiniteSpace.uniform": (
            FiniteSpace.uniform, "atom count must be a positive int, got {!r}"),
        "MeasurableSet atoms": (
            lambda b: MeasurableSet(two, frozenset({b})), "atom {!r} outside the space"),
        "product_convergence_trace j_max": (
            lambda b: product_convergence_trace(v, None, None, b),
            "j_max must be a positive int, got {!r}"),
        "mixing_deviation_sweep_detail k_range": (
            lambda b: mixing_deviation_sweep_detail(flip, [a, a], b),
            "k_range must be a positive int, got {!r}"),
        "operator_power k": (
            lambda b: operator_power(identity_operator(two), b),
            "power must be a nonnegative int, got {!r}"),
        "weak_closure_probe k_max": (
            lambda b: weak_closure_probe(flip, [half], b),
            "k_max must be a positive int, got {!r}"),
        "cocycle_product x": (
            lambda b: cocycle_product(r, b, 1), "base atom {} out of range"),
        "cocycle_product p": (
            lambda b: cocycle_product(r, 0, b), "p must be a nonnegative int, got {!r}"),
        "power_skew exponents": (
            lambda b: power_skew(flip, flip, [b, 0]), "exponents must be ints, got {!r}"),
        "rigidity_statistic n_param": (
            lambda b: rigidity_statistic(r, a, b, 1),
            "n_param must be a positive int, got {!r}"),
        "rigidity_statistic p": (
            lambda b: rigidity_statistic(r, a, 1, b),
            "p must be a nonnegative int, got {!r}"),
        "relative_mixing_fraction p": (
            lambda b: relative_mixing_fraction(r, b, half),
            "p must be a nonnegative int, got {!r}"),
        "relative_weak_mixing_average n_horizon": (
            lambda b: relative_weak_mixing_average(r, a, a, b),
            "horizon must be a positive int, got {!r}"),
        "sample_random_extension seed": (
            lambda b: sample_random_extension(flip, two, b, "iid-cocycle"),
            "seed must be an int, got {!r}"),
        "fourier_joining order": (
            lambda b: fourier_joining(Z2kContext(1), b, {}),
            "order must be a positive int, got {!r}"),
        "Z2kContext.bits atom": (Z2kContext(1).bits, "atom {} outside the group"),
        "Z2kContext.atom bits": (
            lambda b: Z2kContext(1).atom((b,)), "need 1 bits, got ({!r},)"),
    }


BOOL_CASES = _bool_cases()


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("name", sorted(BOOL_CASES))
def test_integer_parameters_refuse_bools(name, flag):
    # True == 1 and False == 0 as ints, but neither is a count or an index
    call, message = BOOL_CASES[name]
    with pytest.raises(InvalidInputError) as err:
        call(flag)
    assert str(err.value) == message.format(flag)


@pytest.mark.parametrize(
    "name", ["cocycle_product x", "Z2kContext.bits atom", "Z2kContext.atom bits"]
)
def test_atoms_refuse_non_ints(name):
    # a float equal to an atom is refused as any other bad atom is, before
    # it reaches index arithmetic
    call, message = BOOL_CASES[name]
    with pytest.raises(InvalidInputError) as err:
        call(1.0)
    assert str(err.value) == message.format(1.0)


RECORDS = [
    (LpSolution, ("optimal", Fraction(1, 2), ())),
    (LpOutcome, ("infeasible", None, None)),
    (TrivialityCertificate, (True, Fraction(0), None)),
    (_Reduction, ((0,), 1, [], [])),
    (SweepResult, (Fraction(0), (1,), Fraction(1, 4))),
    (ClosureProbe, (1, Fraction(1, 2), Fraction(0))),
]


@pytest.mark.parametrize("cls, args", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_records_refuse_missing_and_unknown_fields(cls, args):
    # the records take their constructor from errors.Value
    name, fields = cls.__qualname__, cls._fields
    assert "__init__" not in vars(cls)
    with pytest.raises(TypeError, match=f"^{name} is missing the fields {fields[-1]}$"):
        cls(*args[:-1])
    with pytest.raises(TypeError, match=f"^{name} is missing the fields {fields[0]}$"):
        cls(**dict(zip(fields[1:], args[1:])))
    with pytest.raises(TypeError, match=f"^{name} got unknown or repeated fields extra$"):
        cls(*args, extra=1)
    with pytest.raises(TypeError, match=f"^{name} got unknown or repeated fields {fields[0]}$"):
        cls(*args[:1], **dict(zip(fields, args)))
    n = len(fields)
    with pytest.raises(TypeError, match=f"^{name} takes {n} fields, got {n + 1}$"):
        cls(*args, None)
