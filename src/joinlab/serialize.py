"""Sparse JSON interchange for product measures.

A tensor file looks like

    {
      "factors": [["1/2", "1/2"], ["1/2", "1/2"]],
      "nonzero": [[[0, 0], "1/2"], [[1, 1], "1/2"]]
    }

with every rational written as an explicit "p/q" string and the nonzero
list sorted ascending by index tuple.  ``data_to_raw`` decodes into a
``joinings.RawTensor``, re-exported here, without imposing the joining
axioms, so that verification can report defects instead of refusing to
load.  Each distinct factor list is built once: a list of literal
strings equal to an earlier factor's reuses that factor's space, and any
other list is parsed literal by literal, so an error names its factor
and literal (``<path>.factors[i][j]``).  The items are checked a column
at a time: every item's shape, each axis's coordinate types and range,
the flat indices and their duplicates, and the literals, each distinct
one parsed once.  Only when one of these checks fails does it check the
items again one by one, so that the error names the first item at
fault, built only then.  The integer form is taken over the distinct
literals' values and scattered into the dense numerators; its size cap
still counts every entry.  The decoded tensor carries its support, the
nonzero cells the items listed, which every measure kernel reads, so
that no check lists them again.
"""

from __future__ import annotations

from itertools import compress
from operator import add

from .config import _check_keys, _parse_weights
from .errors import InvalidInputError, JoinlabError, naming
from .joinings import JoiningTensor, ProductMeasure, RawTensor
from .rationals import format_rational, parse_rational
from .spaces import (
    FiniteSpace,
    _offsets,
    integer_form,
    shape_of,
    space_size,
    split_cells,
)


def joining_to_data(v: ProductMeasure) -> dict:
    """Sparse dict form of a product-space measure, ready for json.dumps."""
    return {
        "factors": [
            [format_rational(w) for w in sp.weights] for sp in v.factors
        ],
        "nonzero": [[list(tup), format_rational(x)] for tup, x in v.nonzero()],
    }


def data_to_raw(data, path: str = "tensor") -> RawTensor:
    """The tensor a file's parsed JSON describes, no axiom imposed: factors
    from ``_decode_factors`` (each distinct list of strings built once),
    items checked by ``_decode_columns`` or, when a check fails, by
    ``_decode_items``, and the integer form with its support."""
    _check_keys(data, path, ("factors", "nonzero"))
    raw_factors = data["factors"]
    if not isinstance(raw_factors, list) or not raw_factors:
        raise InvalidInputError(f"{path}.factors: expected a nonempty list")
    factors = _decode_factors(raw_factors, f"{path}.factors")
    shape = shape_of(factors)
    with naming(f"{path}.factors"):
        size = space_size(shape)
    items = data["nonzero"]
    if not isinstance(items, list):
        raise InvalidInputError(f"{path}.nonzero: expected a list")
    literals = {}  # literal string -> value: a repeated literal is parsed once
    decoded = _decode_columns(items, shape, literals)
    if decoded is None:
        decoded = _decode_items(items, shape, literals, path)
    flat, texts = decoded
    distinct = list(dict.fromkeys(texts))  # each literal once, first met first
    with naming(f"{path}.nonzero"):
        scaled, den = integer_form([literals[t] for t in distinct], size)
    numerator = dict(zip(distinct, scaled))
    listed = list(map(numerator.__getitem__, texts))
    nums = [0] * size
    for j, n in zip(flat, listed):
        nums[j] = n
    # the items of nonzero value, in ascending cell order, are the support
    keep = sorted(compress(range(len(flat)), listed), key=flat.__getitem__)
    cells = [flat[j] for j in keep]
    support = cells, [listed[j] for j in keep], split_cells(shape, cells)
    return RawTensor._decoded(factors, tuple(nums), den, support)


def _decode_factors(raw_factors: list, path: str) -> tuple[FiniteSpace, ...]:
    """The factor spaces, each distinct list of literal strings built once:
    a list of strings equal to an earlier factor's takes that factor's
    space, and any other list is parsed literal by literal under its own
    name, ``<path>[i]``."""
    built = {}  # tuple of literal strings -> its space
    factors = []
    for i, raw in enumerate(raw_factors):
        key = tuple(raw) if type(raw) is list and set(map(type, raw)) == {str} else None
        space = built.get(key)
        if space is None:
            space = _parse_weights(raw, f"{path}[{i}]")
            if key is not None:
                built[key] = space
        factors.append(space)
    return tuple(factors)


def _decode_columns(items, shape, literals):
    """(flat indices, literals) of the items in their order, each check
    run over a whole column at once, or None when any check fails, so that
    ``_decode_items`` finds and names the first item at fault.  Every
    literal is parsed into ``literals``."""
    if not items:
        return [], []
    if {type(p) for p in items} != {list} or set(map(len, items)) != {2}:
        return None
    tups, texts = map(list, zip(*items))
    if {type(t) for t in tups} != {list} or set(map(len, tups)) != {len(shape)}:
        return None
    flat = [0] * len(items)
    for col, offsets, n in zip(zip(*tups), _offsets(shape), shape):
        if {type(t) for t in col} != {int} or min(col) < 0 or max(col) >= n:
            return None
        flat = list(map(add, flat, map(offsets.__getitem__, col)))
    if len(set(flat)) != len(flat) or {type(x) for x in texts} != {str}:
        return None
    try:
        for text in set(texts).difference(literals):
            literals[text] = parse_rational(text)
    except JoinlabError:
        return None
    return flat, texts


def _decode_items(items, shape, literals, path):
    """``_decode_columns`` item by item: the first item that fails a check
    raises under its own name, ``<path>.nonzero[i]``."""
    flat, texts = [], []
    seen = set()
    # per-coordinate tables, applied across an index by ``map``
    ints, ranges = (int,) * len(shape), [range(n) for n in shape]
    offsets = _offsets(shape)  # a coordinate's share in the flat index
    for i, pair in enumerate(items):
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
            j = sum(map(list.__getitem__, offsets, tup))
            if j in seen:
                raise InvalidInputError(f"duplicate index {tuple(tup)}")
            if not isinstance(value, str):  # a list or an object is unhashable
                parse_rational(value)  # refuses every non-string
            if value not in literals:
                literals[value] = parse_rational(value)
        except JoinlabError:
            with naming(f"{path}.nonzero[{i}]"):  # the item's name, built on failure
                raise
        seen.add(j)
        flat.append(j)
        texts.append(value)
    return flat, texts


def data_to_joining(data, path: str = "tensor") -> JoiningTensor:
    """Decode and validate as a joining (marginals equal the factors)."""
    raw = data_to_raw(data, path)
    with naming(path):
        return JoiningTensor._from_form(raw.factors, raw.numerators, raw.denominator)

