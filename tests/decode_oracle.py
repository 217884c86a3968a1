"""The tensor file decoder of ``serialize`` before it decoded into the
integer form, kept verbatim as an oracle: every listed value is parsed to
a ``Fraction`` and stored into a dense ``Fraction`` list, whose integer
form is then taken over all entries."""

from fractions import Fraction

from joinlab.errors import InvalidInputError, naming
from joinlab.rationals import parse_rational
from joinlab.serialize import RawTensor, _check_keys, _parse_weights
from joinlab.spaces import integer_form, shape_of, space_size, tuple_to_index


def data_to_raw(data, path: str = "tensor") -> RawTensor:
    _check_keys(data, path, ("factors", "nonzero"))
    raw_factors = data["factors"]
    if not isinstance(raw_factors, list) or not raw_factors:
        raise InvalidInputError(f"{path}.factors: expected a nonempty list")
    factors = tuple(
        _parse_weights(f, f"{path}.factors[{i}]") for i, f in enumerate(raw_factors)
    )
    shape = shape_of(factors)
    with naming(f"{path}.factors"):
        entries = [Fraction(0)] * space_size(shape)
    raw_nonzero = data["nonzero"]
    if not isinstance(raw_nonzero, list):
        raise InvalidInputError(f"{path}.nonzero: expected a list")
    seen = set()
    for i, pair in enumerate(raw_nonzero):
        with naming(f"{path}.nonzero[{i}]"):
            if not isinstance(pair, list) or len(pair) != 2:
                raise InvalidInputError("expected [index tuple, rational]")
            tup, value = pair
            if (
                not isinstance(tup, list)
                or len(tup) != len(shape)
                or any(not isinstance(t, int) or isinstance(t, bool) for t in tup)
            ):
                raise InvalidInputError(f"index must be a list of {len(shape)} ints")
            for axis, (t, n) in enumerate(zip(tup, shape)):
                if not 0 <= t < n:
                    raise InvalidInputError(
                        f"coordinate {axis} is {t}, out of range 0..{n - 1}"
                    )
            key = tuple(tup)
            if key in seen:
                raise InvalidInputError(f"duplicate index {key}")
            seen.add(key)
            entries[tuple_to_index(shape, key)] = parse_rational(value)
    with naming(f"{path}.nonzero"):
        nums, den = integer_form(entries)
    return RawTensor(factors, tuple(entries), nums, den)
