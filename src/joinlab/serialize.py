"""Sparse JSON interchange for product measures and skew products.

A tensor file looks like

    {
      "factors": [["1/2", "1/2"], ["1/2", "1/2"]],
      "nonzero": [[[0, 0], "1/2"], [[1, 1], "1/2"]]
    }

with every rational written as an explicit "p/q" string and the nonzero
list sorted ascending by index tuple.  ``data_to_raw`` decodes without
imposing the joining axioms so that verification can report defects
instead of refusing to load.  It parses each distinct literal once and
takes the integer form of the listed values only, scattered into the
dense numerators; the form's size cap still counts every entry.  An
item's field name is formatted only when that item is refused.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InvalidInputError, JoinlabError, Value, naming
from .joinings import JoiningTensor, ProductMeasure, sparse_form
from .rationals import format_rational, parse_rational
from .skew import SkewProduct
from .spaces import FiniteSpace, _offsets, shape_of, space_size


def read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc


def parse_json(blob: bytes, path: str):
    try:
        return json.loads(blob)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc


def load_json_file(path: str):
    return parse_json(read_bytes(path), path)


def _check_keys(obj, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{path}: expected an object, got {type(obj).__name__}")
    for key in required:
        if key not in obj:
            raise InvalidInputError(f"{path}: missing key '{key}'")
    extra = set(obj) - set(required) - set(optional)
    if extra:
        raise InvalidInputError(f"{path}: unknown keys {sorted(extra)}")


def _parse_weights(raw, path: str) -> FiniteSpace:
    if not isinstance(raw, list) or not raw:
        raise InvalidInputError(f"{path}: expected a nonempty list of rationals")
    weights = []
    for i, item in enumerate(raw):
        with naming(f"{path}[{i}]"):
            weights.append(parse_rational(item))
    with naming(path):
        return FiniteSpace(tuple(weights))


def joining_to_data(v: ProductMeasure) -> dict:
    """Sparse dict form of a product-space measure, ready for json.dumps."""
    nonzero = [
        [list(tup), format_rational(value)] for tup, value in sorted(v.nonzero())
    ]
    return {
        "factors": [
            [format_rational(w) for w in sp.weights] for sp in v.factors
        ],
        "nonzero": nonzero,
    }


class RawTensor(Value):
    """Decoded tensor before any joining axiom is imposed, with its integer
    form: entries[i] == numerators[i] / denominator."""

    __slots__ = _fields = ("factors", "entries", "numerators", "denominator")

    def __init__(
        self,
        factors: tuple[FiniteSpace, ...],
        entries: tuple[Fraction, ...],
        numerators: tuple[int, ...],
        denominator: int,
    ):
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator)


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
        size = space_size(shape)
    raw_nonzero = data["nonzero"]
    if not isinstance(raw_nonzero, list):
        raise InvalidInputError(f"{path}.nonzero: expected a list")
    cells = {}  # flat index -> value
    literals = {}  # literal string -> value: a repeated literal is parsed once
    # per-coordinate tables, applied across an index by ``map``
    ints, ranges = (int,) * len(shape), [range(n) for n in shape]
    offsets = _offsets(shape)  # a coordinate's share in the flat index
    for i, pair in enumerate(raw_nonzero):
        try:
            if not isinstance(pair, list) or len(pair) != 2:
                raise InvalidInputError("expected [index tuple, rational]")
            tup, value = pair
            if (
                not isinstance(tup, list)
                or len(tup) != len(shape)
                or not all(map(isinstance, tup, ints))
                or bool in map(type, tup)
            ):
                raise InvalidInputError(f"index must be a list of {len(shape)} ints")
            if not all(map(range.__contains__, ranges, tup)):
                axis, t, n = next(
                    (axis, t, n) for axis, (t, n) in enumerate(zip(tup, shape))
                    if not 0 <= t < n
                )
                raise InvalidInputError(
                    f"coordinate {axis} is {t}, out of range 0..{n - 1}"
                )
            flat = sum(map(list.__getitem__, offsets, tup))
            if flat in cells:
                raise InvalidInputError(f"duplicate index {tuple(tup)}")
            if isinstance(value, str):  # a list or an object is unhashable
                x = literals.get(value)
                if x is None:
                    x = literals[value] = parse_rational(value)
            else:
                x = parse_rational(value)  # refuses every non-string
            cells[flat] = x
        except JoinlabError:
            with naming(f"{path}.nonzero[{i}]"):  # the item's name, built on failure
                raise
    with naming(f"{path}.nonzero"):
        nums, den = sparse_form(size, cells)
    entries = [Fraction(0)] * size
    for j, x in cells.items():
        entries[j] = x
    return RawTensor(factors, tuple(entries), tuple(nums), den)


def data_to_joining(data, path: str = "tensor") -> JoiningTensor:
    """Decode and validate as a joining (marginals equal the factors)."""
    raw = data_to_raw(data, path)
    with naming(path):
        return JoiningTensor._from_form(
            raw.factors, raw.numerators, raw.denominator, raw.entries
        )


def skew_to_data(r: SkewProduct) -> dict:
    """Serializable description of a skew product."""
    return {
        "base_weights": [format_rational(w) for w in r.base.weights],
        "fiber_weights": [format_rational(w) for w in r.fiber.weights],
        "base_perm": list(r.base_map.perm),
        "cocycle": [list(a.perm) for a in r.cocycle],
    }
