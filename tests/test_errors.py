"""``errors.naming``: the one helper that prefixes an input error with the
input that caused it."""

import pytest

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
