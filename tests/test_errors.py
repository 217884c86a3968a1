"""``errors.naming``: the one helper that prefixes an input error with the
input that caused it; and the integer parameters of the library, each of
which refuses a bool with its own message."""

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
