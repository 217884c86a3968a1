"""``errors.naming``: the one helper that prefixes an input error with the
input that caused it, by name or through a mapping from the ``param`` of
``errors.check``; ``errors.require_int``, the one wording of an int
parameter's range; the integer parameters of the library, each of which
refuses a bool with its own message; and the constructor that the result
records take from ``errors.Value``."""

import ast
import inspect
import re
from fractions import Fraction
from pathlib import Path

import pytest

from joinlab import (
    Automorphism,
    FiniteSpace,
    MeasurableSet,
    SkewProduct,
    Z2kContext,
    cocycle_product,
    disintegrate,
    face_independence_defect,
    fourier_joining,
    has_standard_projections,
    identity_operator,
    joining_from_operator,
    marginal,
    mixing_deviation_sweep_detail,
    operator_from_joining,
    operator_power,
    permutation_automorphism,
    power_skew,
    product_convergence_trace,
    product_joining,
    reassemble,
    relative_mixing_fraction,
    relative_weak_mixing_average,
    rigidity_statistic,
    sample_random_extension,
    weak_closure_probe,
)
from joinlab.cli import _ascii_int
from joinlab.config import Config
from joinlab.errors import (
    InvalidInputError,
    JoinlabInternalError,
    PreconditionError,
    ResourceLimitError,
    check,
    naming,
    require_int,
)
from joinlab.mixing import SweepResult
from joinlab.operators import ClosureProbe
from joinlab.polytope import (
    LpOutcome,
    PolytopeSpec,
    TrivialityCertificate,
    _Reduction,
)
from joinlab.simplex import LpSolution
from joinlab.spaces import tuple_to_index


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


FLAGS = {"k_range": "--sweep", "sets": "--sets"}


@pytest.mark.parametrize(
    "kind", [InvalidInputError, PreconditionError, ResourceLimitError]
)
def test_a_mapping_names_an_error_by_its_param_or_the_none_key(kind):
    with pytest.raises(InvalidInputError) as err:
        with naming(FLAGS):
            check(False, "sets", "all sets must live on the automorphism's space")
    assert str(err.value) == "--sets: all sets must live on the automorphism's space"
    assert err.value.__cause__.param == "sets"
    # the None key covers an error with no param, of any input kind, and
    # one whose param the mapping does not list
    for param in (None, "k"):
        exc = kind("too big")
        exc.param = param
        with pytest.raises(kind) as err:
            with naming({**FLAGS, None: "--sweep"}):
                raise exc
        assert type(err.value) is kind
        assert str(err.value) == "--sweep: too big"


@pytest.mark.parametrize("param", [None, "k"])
def test_a_mapping_passes_what_it_does_not_name_unchanged(param):
    exc = InvalidInputError("bad")
    exc.param = param
    with pytest.raises(InvalidInputError) as err:
        with naming(FLAGS):
            raise exc
    assert err.value is exc


@pytest.mark.parametrize("exc", [JoinlabInternalError("pivot"), ValueError("pivot")])
def test_a_mapping_passes_other_errors_through(exc):
    with pytest.raises(type(exc)) as err:
        with naming({**FLAGS, None: "--sweep"}):
            raise exc
    assert err.value is exc


def test_check_stores_the_param_only_on_failure():
    check(True, "n", "never raised")
    with pytest.raises(InvalidInputError) as err:
        check(0, "n", "n is off")
    assert (str(err.value), err.value.param) == ("n is off", "n")


@pytest.mark.parametrize(
    "low, high, good, bad, message",
    [
        (None, None, -7, "3", "n must be an int, got '3'"),
        (0, None, 0, -1, "n must be a nonnegative int, got -1"),
        (1, None, 1, 0, "n must be a positive int, got 0"),
        (2, 4, 4, 5, "n must be an int in 2..4, got 5"),
        (2, 4, 2, 1, "n must be an int in 2..4, got 1"),
    ],
)
def test_require_int_wordings(low, high, good, bad, message):
    require_int(good, "n", low, high)
    # a bool or a float is refused in the same words as a value out of range
    wording = message.removesuffix(f", got {bad!r}")
    for value in (bad, True, 2.0):
        with pytest.raises(InvalidInputError) as err:
            require_int(value, "n", low, high)
        assert str(err.value) == f"{wording}, got {value!r}"
        assert err.value.param == "n"
    assert wording != message


def test_the_int_wordings_and_the_flag_checks_live_in_one_place():
    # require_int alone spells the wordings, and the CLI names flags
    # through naming's mapping instead of repeating library checks, and
    # parses every int flag with one parser
    src = Path(check.__code__.co_filename).parent
    for path in sorted(src.glob("*.py")):
        if path.name != "errors.py":
            text = path.read_text()
            for wording in ("must be a positive int", "must be a nonnegative int",
                            "must be an int"):
                assert wording not in text, (path.name, wording)
    cli = (src / "cli.py").read_text()
    assert "def _check(" not in cli and "ORDER_CAP" not in cli
    # argument text becomes an int only in the one ASCII-digit parser
    assert "type=int" not in cli
    calls = re.compile(r"\bint\(").findall
    assert calls(cli) == calls(inspect.getsource(_ascii_int)) == ["int("]


def test_the_cli_imports_no_private_name():
    # each kernel a command runs has one public entry, which the CLI calls
    tree = ast.parse((Path(check.__code__.co_filename).parent / "cli.py").read_text())
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


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
        "Automorphism perm": (
            lambda b: Automorphism(two, (b, 0)), "not a permutation of 0..1: ({!r}, 0)"),
        "permutation_automorphism sigma": (
            lambda b: permutation_automorphism(Z2kContext(2), (b, 0)),
            "sigma must permute 0..1, got ({!r}, 0)"),
        "tuple_to_index coordinate": (
            lambda b: tuple_to_index((2,), (b,)), "coordinate {} outside 0..1"),
        "RawTensor.value coordinate": (
            lambda b: v.value((b, 0)), "coordinate {} outside 0..1"),
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
            lambda b: rigidity_statistic(r, a, b, [1]),
            "n_param must be a positive int, got {!r}"),
        "rigidity_statistic p": (
            lambda b: rigidity_statistic(r, a, 1, [0, b]),
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
        "Z2kContext k": (Z2kContext, "k must be an int in 1..4, got {!r}"),
        "PolytopeSpec order": (
            lambda b: PolytopeSpec(None, b, 1), "order must be an int in 2..4, got {!r}"),
        "PolytopeSpec independence": (
            lambda b: PolytopeSpec(None, 2, b),
            "independence must satisfy 1 <= m < 2, got {!r}"),
        "face_independence_defect m": (
            lambda b: face_independence_defect(v, b),
            "face order must satisfy 1 <= m <= 2, got {!r}"),
        "marginal coords": (
            lambda b: marginal(v, (b,)),
            "coords must be nonempty strictly increasing, got ({!r},)"),
        "disintegrate base coords": (
            lambda b: disintegrate(v, (b,)),
            "base coords must be nonempty strictly increasing, got ({!r},)"),
        "reassemble base coords": (
            lambda b: reassemble(disintegrate(v, (0,)), (b,)),
            "need 1 strictly increasing base coords"),
        "has_standard_projections distinguished": (
            lambda b: has_standard_projections(v, b),
            "distinguished coordinate {} out of range"),
        "operator_from_joining distinguished": (
            lambda b: operator_from_joining(v, b),
            "distinguished coordinate {} out of range"),
        "joining_from_operator distinguished": (
            lambda b: joining_from_operator(identity_operator(two), [two], b),
            "distinguished position {} out of range"),
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
    "name",
    ["cocycle_product x", "Z2kContext.bits atom", "Z2kContext.atom bits",
     "marginal coords", "disintegrate base coords", "reassemble base coords",
     "has_standard_projections distinguished", "operator_from_joining distinguished",
     "joining_from_operator distinguished", "permutation_automorphism sigma",
     "tuple_to_index coordinate", "RawTensor.value coordinate"],
)
def test_atoms_refuse_non_ints(name):
    # a float equal to an atom, a coordinate or a position is refused as
    # any other bad one is, before it reaches index arithmetic
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
    (Config, ({}, {}, {}, {}, {}, {}, {})),
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
