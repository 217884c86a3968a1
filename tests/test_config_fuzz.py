"""Fuzzing the config parser: arbitrary JSON-shaped values, and near-valid
config documents with big, boolean and odd literals, may only raise the
package's own errors."""

import copy

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from joinlab.config import parse_config
from joinlab.errors import JoinlabError
from joinlab.spaces import SIZE_CAP

# derandomized, so that a failure replays exactly and the run time is fixed
FUZZ = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

SECTIONS = (
    "spaces", "automorphisms", "actions", "cocycles", "sets", "sequences", "objectives",
)
ODD_INTS = (-1, 0, True, False, 2**70, -(2**70), 10**12, SIZE_CAP + 1, 1.0, None, "2")
ODD_LITERALS = (
    "1/2", "1/3", "2/3", "1", "0", "-1/2", "1/0", "1.5", "1e3", " 1/2", "1/2\n",
    "٣/4", "", "/", "1" * 5000, "1/" + "7" * 5000, "1/" + str(3**8000),
    "1/" + str(7**5000), 2, 0.5, True, None,
)

json_scalars = (
    st.none() | st.booleans() | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True) | st.text(max_size=6) | st.sampled_from(ODD_LITERALS)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(SECTIONS + ("x",)), children, max_size=3),
    max_leaves=12,
)

# every section used and cross-referenced; documents are this one with a
# few parts replaced, dropped or added
VALID = {
    "spaces": {"a": {"uniform": 2}, "b": {"weights": ["1/3", "2/3"]}},
    "automorphisms": {"swap": {"space": "a", "perm": [1, 0]}},
    "actions": {"flip": {"space": "a", "perms": [[1, 0], [0, 1]]}},
    "cocycles": {"demo": {"base_map": "swap", "fiber": "b", "maps": [[0, 1], [0, 1]]}},
    "sets": {"top": {"space": "a", "atoms": [0]}},
    "sequences": {"times": [1, 2, 4]},
    "objectives": {"corner": {"entries": [[[0, 0], "1/1"], [[1, 1], "-1/2"]]}},
}
# copied, so that a later mutation cannot change the sampled constants
odd_values = st.sampled_from(
    ODD_INTS + ODD_LITERALS
    + ("a", "b", "swap", "flip", [1, 0], [0, 1, 1], [[1, 0]], {"uniform": 2}, {}, [])
).map(copy.deepcopy) | json_values


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


@st.composite
def config_documents(draw):
    """The valid document with one to three parts replaced, dropped, or
    given an extra key or item."""
    doc = copy.deepcopy(VALID)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        node = doc
        for key in path:
            node = node[key]
        how = draw(st.sampled_from(("replace", "drop", "extra")))
        if how == "extra" and isinstance(node, dict):
            node[draw(st.sampled_from(("x", "a", "space", "uniform")))] = draw(odd_values)
        elif how == "extra" and isinstance(node, list):
            node.append(draw(odd_values))
        elif path:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if how == "drop":
                del parent[path[-1]]
            else:
                parent[path[-1]] = draw(odd_values)
    return doc


def test_the_unmutated_document_parses():
    cfg = parse_config(copy.deepcopy(VALID))
    assert all(getattr(cfg, section) for section in SECTIONS)


def _parse_only_raises_package_errors(data):
    try:
        parse_config(data)
    except JoinlabError:
        pass


@FUZZ
@given(json_values)
def test_config_parser_survives_arbitrary_json(data):
    _parse_only_raises_package_errors(data)


@FUZZ
@given(config_documents())
def test_config_parser_survives_near_valid_documents(data):
    _parse_only_raises_package_errors(data)
