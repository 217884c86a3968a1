"""The report renderer against ``json.dumps`` (``report_oracle``), and the
report digest: SHA-256 over the argument vector and the raw input bytes,
the same whichever module provides the hash."""

import hashlib
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import report_oracle as oracle
from joinlab.report import input_digest, render_report

REPO = Path(__file__).resolve().parent.parent
ARGV = ("joining", "verify", "--file", "t.json")


def expected_digest(argv, data: bytes) -> str:
    framed = b"".join(arg.encode("utf-8") + b"\x00" for arg in argv)
    return hashlib.sha256(framed + b"\x01" + data).hexdigest()


@pytest.mark.parametrize(
    "data", [b"", b'{"factors": []}\n', bytes(range(256)) * 4096],
    ids=["empty", "small", "1MB"],
)
def test_input_digest_is_sha256(data):
    assert input_digest(ARGV, data) == expected_digest(ARGV, data)


def test_input_digest_falls_back_to_hashlib():
    # a None entry in sys.modules makes the import raise ImportError
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
        "import hashlib; from joinlab import report; "
        "assert report.sha256 is hashlib.sha256; "
        "print(report.input_digest(sys.argv[2:], bytes(range(256)) * 4096))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, str(REPO / "src"), *ARGV],
        capture_output=True, text=True, check=True,
    )
    data = bytes(range(256)) * 4096
    assert proc.stdout.strip() == expected_digest(ARGV, data) == input_digest(ARGV, data)


# -- rendering ----------------------------------------------------------------

PROPERTY = settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

# non-ASCII (astral and lone surrogates included), quote, backslash and
# control characters, which the ASCII escaper rewrites
texts = st.text(
    st.characters(blacklist_categories=())
    | st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f\u2028é€😀'),
    max_size=8,
)
leaves = (
    st.integers()
    | st.integers(-(10**80), 10**80)
    | st.booleans()
    | st.none()
    | st.fractions()
    | st.fractions(max_denominator=10**30)
    | texts
)


def containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.lists(st.integers(-(10**30), 10**30), max_size=6)
        | st.dictionaries(texts, children, max_size=5)
    )


payloads = st.dictionaries(texts, st.recursive(leaves, containers, max_leaves=20), max_size=5)


@PROPERTY
@given(payloads)
def test_render_report_matches_json_dumps(payload):
    assert render_report(payload) == oracle.render_report(payload)


def test_render_report_matches_json_dumps_on_empty_containers():
    for payload in ({}, {"a": []}, {"a": ()}, {"a": {}}, {"a": [[], {}, ()], "b": {"c": {}}}):
        assert render_report(payload) == oracle.render_report(payload)


class Opaque:
    pass


# a bad value or key anywhere in the tree: a float, a non-str key, or an
# object; the first met in insertion order is the one named
bad_leaves = st.floats(allow_nan=False) | st.builds(Opaque) | st.sampled_from([0.5, -0.0])
bad_keys = st.integers(-3, 3) | st.none() | st.tuples(st.integers(0, 2))


def bad_containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(texts, children, max_size=4)
        | st.dictionaries(bad_keys, children, min_size=1, max_size=1)
    )


bad_payloads = st.dictionaries(
    texts, st.recursive(leaves | bad_leaves, bad_containers, max_leaves=15), max_size=4
)


@PROPERTY
@given(bad_payloads)
def test_render_report_raises_as_json_dumps(payload):
    try:
        want = oracle.render_report(payload)
    except TypeError as exc:
        with pytest.raises(TypeError) as got:
            render_report(payload)
        assert str(got.value) == str(exc)
    else:
        assert render_report(payload) == want


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"x": [1, 2.5]}, "refusing to put a float in a report: 2.5"),
        ({"x": {3: "y"}}, "report keys must be strings, got 3"),
        ({"x": (Fraction(1, 2), Opaque())}, "cannot serialize Opaque into a report"),
    ],
    ids=["float", "key", "object"],
)
def test_render_report_refuses_what_json_dumps_refused(payload, message):
    with pytest.raises(TypeError) as old:
        oracle.render_report(payload)
    with pytest.raises(TypeError) as new:
        render_report(payload)
    assert str(new.value) == str(old.value) == message
