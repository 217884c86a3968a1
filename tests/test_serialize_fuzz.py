"""Fuzzing the tensor decoder: arbitrary JSON-shaped values, and
near-valid tensor documents with big and odd literals, may only raise the
package's own errors; generated joinings survive a round trip."""

from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from joinlab import FiniteSpace, JoiningTensor
from joinlab.errors import JoinlabError
from joinlab.serialize import data_to_joining, data_to_raw, joining_to_data

import tensor_oracle as oracle

# derandomized, so that a failure replays exactly and the run time is fixed
FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

ODD_LITERALS = (
    "1/2", "0", "-0/1", "+1/2", "1/3", "2/3", "-1/4", "1/2\n", " 1/2", "٣/4",
    "1e3", "1.5", "1/0", "0x10", "", "/", "1/2/3", "nan", "inf",
    "1" * 5000, "1/" + "7" * 5000, "9" * 4300 + "/" + "7" * 4300,
    "1/" + "3" * 200, str(2**200) + "/" + str(3**130), "1", "1/1",
    "1/" + str(3**8000), "1/" + str(7**5000),
)
BIG = 3**8000  # 3,818 digits, under the int-conversion limit
VALID_FACTORS = (["1"], ["1/2", "1/2"], ["1/3", "2/3"], [f"1/{BIG}", f"{BIG - 1}/{BIG}"])

json_scalars = (
    st.none() | st.booleans() | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True) | st.text(max_size=8) | st.sampled_from(ODD_LITERALS)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(("factors", "nonzero", "x")), children, max_size=3),
    max_leaves=12,
)
literals = st.sampled_from(ODD_LITERALS) | json_scalars


@st.composite
def tensor_documents(draw):
    """Documents with the right keys whose parts may be wrong anywhere."""
    factor = st.sampled_from(VALID_FACTORS) | st.lists(literals, min_size=1, max_size=3)
    factors = draw(st.lists(factor, min_size=1, max_size=3) | json_values)
    order = len(factors) if isinstance(factors, list) else 2
    index = st.lists(st.integers(-1, 3), min_size=order, max_size=order) | json_values
    pair = st.tuples(index, literals).map(list) | json_values
    return {"factors": factors, "nonzero": draw(st.lists(pair, max_size=6))}


def _decode_only_raises_package_errors(data):
    for decode in (data_to_raw, data_to_joining):
        try:
            decode(data)
        except JoinlabError:
            pass


@FUZZ
@given(json_values)
def test_decoder_survives_arbitrary_json(data):
    _decode_only_raises_package_errors(data)


@FUZZ
@given(tensor_documents())
def test_decoder_survives_near_valid_documents(data):
    _decode_only_raises_package_errors(data)


@st.composite
def joinings(draw):
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    size = 1
    for n in shape:
        size *= n
    parts = draw(st.lists(
        st.builds(Fraction, st.integers(0, 9), st.sampled_from((1, 2, 3, 7, 10**30))),
        min_size=size, max_size=size,
    ))
    assume(sum(parts) > 0)
    entries = [p / sum(parts) for p in parts]
    weights = [oracle.axis_sums(entries, shape, [c]) for c in range(len(shape))]
    assume(all(w > 0 for ws in weights for w in ws))
    return JoiningTensor(tuple(FiniteSpace(tuple(ws)) for ws in weights), tuple(entries))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(joinings())
def test_joining_data_round_trip(v):
    assert data_to_joining(joining_to_data(v)) == v
