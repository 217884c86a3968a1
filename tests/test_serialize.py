"""Round trips and malformed-input behaviour for the JSON data layer."""

import json
from fractions import Fraction

import pytest

from joinlab import Automorphism, FiniteSpace, SkewProduct
from joinlab.errors import InvalidInputError, ResourceLimitError
from joinlab.joinings import JoiningTensor, product_joining
from joinlab.polytope import SIZE_CAP
from joinlab.serialize import (
    RawTensor,
    data_to_joining,
    data_to_raw,
    joining_to_data,
    parse_json,
    read_bytes,
    skew_to_data,
)


def parity_joining():
    space = FiniteSpace.uniform(2)
    q = Fraction(1, 4)
    values = {(0, 0, 0): q, (0, 1, 1): q, (1, 0, 1): q, (1, 1, 0): q}
    return JoiningTensor.from_nonzero((space,) * 3, values)


def test_joining_to_data_roundtrip():
    v = parity_joining()
    data = joining_to_data(v)
    assert data["factors"] == [["1/2", "1/2"]] * 3
    assert data["nonzero"] == [
        [[0, 0, 0], "1/4"],
        [[0, 1, 1], "1/4"],
        [[1, 0, 1], "1/4"],
        [[1, 1, 0], "1/4"],
    ]
    back = data_to_joining(data)
    assert back == v
    # JSON text survives a full dump/load cycle
    again = data_to_joining(json.loads(json.dumps(data)))
    assert again == v


def test_data_to_raw_allows_invalid_measures():
    data = {
        "factors": [["1/2", "1/2"]],
        "nonzero": [[[0], "3/4"]],
    }
    raw = data_to_raw(data)
    assert isinstance(raw, RawTensor)
    assert raw.entries == (Fraction(3, 4), Fraction(0))
    with pytest.raises(InvalidInputError):
        data_to_joining(data)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("factors"), "factors"),
        (lambda d: d.update(extra=1), "extra"),
        (lambda d: d.update(factors=[]), "factors"),
        (lambda d: d.update(factors=[["1/2", "1/3"]]), "factors[0]"),
        (lambda d: d.update(nonzero={}), "nonzero"),
        (lambda d: d.update(nonzero=[[[0, 0], "1/4"]]), "nonzero[0]"),
        (lambda d: d.update(nonzero=[[[2, 0, 0], "1/4"]]), "nonzero[0]"),
        (lambda d: d.update(nonzero=[[[True, 0, 0], "1/4"]]), "nonzero[0]"),
        (lambda d: d.update(nonzero=[[[0, 0, 0], "1/0"]]), "nonzero[0]"),
        (
            lambda d: d.update(
                nonzero=[[[0, 0, 0], "1/8"], [[0, 0, 0], "1/8"]]
            ),
            "duplicate",
        ),
    ],
)
def test_data_to_raw_malformed(mutate, fragment):
    data = joining_to_data(parity_joining())
    mutate(data)
    with pytest.raises(InvalidInputError) as err:
        data_to_raw(data)
    assert fragment in str(err.value)


def test_data_to_joining_reports_measure_violation():
    data = {
        "factors": [["1/2", "1/2"], ["1/2", "1/2"]],
        "nonzero": [[[0, 0], "1/2"], [[1, 0], "1/2"]],
    }
    with pytest.raises(InvalidInputError):
        data_to_joining(data)


def test_product_roundtrip_uneven_weights():
    s1 = FiniteSpace((Fraction(1, 3), Fraction(2, 3)))
    s2 = FiniteSpace.uniform(3)
    v = product_joining([s1, s2])
    assert data_to_joining(joining_to_data(v)) == v


def test_skew_to_data_structure():
    base = FiniteSpace.uniform(2)
    fiber = FiniteSpace((Fraction(1, 4), Fraction(3, 4)))
    swap = Automorphism(base, (1, 0))
    ident = Automorphism.identity(fiber)
    r = SkewProduct(base, fiber, swap, (ident, ident))
    data = skew_to_data(r)
    assert data == {
        "base_weights": ["1/2", "1/2"],
        "fiber_weights": ["1/4", "3/4"],
        "base_perm": [1, 0],
        "cocycle": [[0, 1], [0, 1]],
    }
    json.dumps(data)  # must be directly serialisable


def test_load_json_file(tmp_path):
    p = tmp_path / "v.json"
    p.write_text('{"a": 1}')
    assert parse_json(read_bytes(str(p)), str(p)) == {"a": 1}
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidInputError, match=r"bad\.json is not valid JSON"):
        parse_json(read_bytes(str(bad)), str(bad))
    with pytest.raises(InvalidInputError, match="^cannot read .*missing.json"):
        read_bytes(str(tmp_path / "missing.json"))


def test_raw_decode_caps_declared_shape_before_allocating():
    data = {"factors": [["1/2", "1/2"]] * 40, "nonzero": []}
    with pytest.raises(ResourceLimitError, match=r"big\.factors"):
        data_to_raw(data, path="big")
    # exactly at the cap still decodes
    at_cap = {"factors": [["1/2", "1/2"]] * 16, "nonzero": []}
    assert len(data_to_raw(at_cap).entries) == SIZE_CAP == 2**16


def test_raw_decode_refuses_an_oversized_integer_form_before_scaling():
    import tracemalloc

    from joinlab.spaces import FORM_BITS_CAP

    base = 10**99
    data = {
        "factors": [["1/2", "1/2"]] * 9,
        "nonzero": [
            [[(i >> (8 - b)) & 1 for b in range(9)], f"1/{base + 2 * i + 1}"]
            for i in range(512)
        ],
    }
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=r"big\.nonzero: 512 entries"):
            data_to_raw(data, path="big")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the scaled numerators alone would take FORM_BITS_CAP bits (8 MiB)
    assert peak < FORM_BITS_CAP // 8 // 4
    with pytest.raises(ResourceLimitError, match=r"big\.nonzero"):
        data_to_joining(data, path="big")


def test_decode_describes_an_unprintable_mass():
    # each literal is under the 4,300-digit limit; the total mass is not
    data = {
        "factors": [["1/2", "1/2"]],
        "nonzero": [[[0], "1/" + str(3**8000)], [[1], "1/" + str(7**5000)]],
    }
    with pytest.raises(
        InvalidInputError, match=r"tiny: total mass is a rational of 4226/8043 digits"
    ):
        data_to_joining(data, path="tiny")
