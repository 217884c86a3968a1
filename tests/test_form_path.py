"""Joining tensors built, decoded and checked in their integer form.

The invariance kernel reads only the nonzero cells; it is compared with
the dense oracle in ``tensor_oracle.py`` on mostly-zero raw entries, and
its reads, and those of the face sums, are counted on the k = 3 sum
joining.  The decoder is compared
with the ``Fraction`` decoder it replaced (``decode_oracle.py``) on sparse
files with repeated literals, explicit zeros, negative values and
malformed items; ``joining verify``'s mass and least entry, read from the
decoded support, are compared with the oracle's dense entries on empty,
full and signed supports.  The measure kernels take the decoded
``RawTensor`` and the validated ``JoiningTensor`` alike, and must agree on
both and with the oracle on the eta tensors and damaged files.
``_from_form`` is compared with the ``Fraction`` constructor, and both with
the oracle's validation messages.
"""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from joinlab import ActionGenerators, Automorphism, FiniteSpace, JoiningTensor, ProductMeasure
from joinlab.errors import InvalidInputError, JoinlabError, ResourceLimitError
from joinlab.joinings import (
    RawTensor,
    _axis_sums,
    _face_gap,
    diagonal_invariance_defect,
    face_independence_defect,
    marginal_defect,
)
from joinlab.serialize import data_to_joining, data_to_raw, joining_to_data
from joinlab.spaces import index_to_tuple, space_size, support_cells, tuple_to_index
from joinlab.torus import Z2kContext, full_action, triple_sum_joining

import decode_oracle
import tensor_oracle as oracle

# derandomized, so that a failure replays exactly and the run time is fixed
PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

# literals drawn with repeats: explicit zeros, negatives, integers, and
# non-canonical forms that parse to the same value as a canonical one
LITERALS = ("1/2", "1/3", "-1/6", "0/1", "0", "-0", "2/4", "5", "-2/7", "1/12", "+1/3")
BAD_VALUES = ([1], {}, None, 0.5, True, "1e0", "1/0", "1/2 ", "")


@st.composite
def small_shapes(draw):
    axes = draw(st.integers(1, 3))
    return tuple(draw(st.integers(1, 4)) for _ in range(axes))


@st.composite
def sparse_entries(draw, size):
    """Mostly-zero signed entries: at most half the cells carry a value."""
    cells = draw(st.dictionaries(
        st.integers(0, size - 1),
        st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6))),
        max_size=max(1, size // 2),
    ))
    return [cells.get(i, Fraction(0)) for i in range(size)]


# -- invariance on the support --------------------------------------------


def _raw(factors, numerators, denominator):
    """The unchecked tensor of an integer form, entries built from it."""
    entries = tuple(Fraction(n, denominator) for n in numerators)
    return RawTensor(tuple(factors), entries, numerators, denominator)


def test_invariance_counts_cells_that_move_onto_the_support():
    # x -> x + 1 mod 3 on (9, 2, 0): off the support, cell 2 moves onto the
    # 9 at cell 0; the pairs inside the support differ by 7 at most
    space = FiniteSpace.uniform(3)
    action = ActionGenerators(space, [Automorphism(space, (1, 2, 0))])
    assert diagonal_invariance_defect(_raw([space], [9, 2, 0], 1), action) == 9
    cycle = action.generators[0]
    assert oracle.invariance_defect([9, 2, 0], (3,), [cycle.perm]) == 9


def _plant_staircase(entries, shape, perm, start, step):
    """Zero the diagonal orbit of ``perm`` through flat index ``start`` and
    put step * (m, m - 1, ..., 1) on the m >= 2 cells after it: every step
    along the orbit inside the support is ``step``, while the zero before
    the top moves onto it, a gap of m * step."""
    orbit = [start]
    while True:
        tup = index_to_tuple(shape, orbit[-1])
        nxt = tuple_to_index(shape, [perm[t] for t in tup])
        if nxt == start:
            break
        orbit.append(nxt)
    if len(orbit) < 3:
        return
    for i in orbit:
        entries[i] = Fraction(0)
    top = len(orbit) - 1
    for i, cell in enumerate(orbit[1:top + 1]):
        entries[cell] = Fraction(step * (top - i))


@PROPERTY
@given(st.data())
def test_invariance_on_sparse_raw_entries_matches_oracle(data):
    atoms = data.draw(st.integers(1, 4))
    order = data.draw(st.integers(1, 3))
    shape = (atoms,) * order
    size = space_size(shape)
    entries = data.draw(sparse_entries(size))
    perms = data.draw(st.lists(st.permutations(range(atoms)), min_size=1, max_size=3))
    if data.draw(st.booleans()):
        # one generator, steps above any gap between the drawn entries
        perms = perms[:1]
        start = data.draw(st.integers(0, size - 1))
        _plant_staircase(entries, shape, perms[0], start, data.draw(st.integers(13, 20)))
    space = FiniteSpace.uniform(atoms)
    action = ActionGenerators(space, [Automorphism(space, tuple(p)) for p in perms])
    den = 12
    v = _raw((space,) * order, [int(x * den) for x in entries], den)
    want = oracle.invariance_defect(entries, shape, perms)
    assert diagonal_invariance_defect(v, action) == want


class CountingList(list):
    """A list that counts its index reads."""

    reads = 0

    def __getitem__(self, index):
        CountingList.reads += 1
        return super().__getitem__(index)


def test_invariance_reads_each_support_cell_once_per_generator():
    ctx = Z2kContext(3)
    v = triple_sum_joining(ctx)
    action = full_action(ctx)
    nonzero = sum(1 for x in v.numerators if x)
    assert nonzero == 512
    CountingList.reads = 0
    counted = _raw(v.factors, CountingList(v.numerators), v.denominator)
    assert diagonal_invariance_defect(counted, action) == 0
    assert CountingList.reads <= len(action.generators) * nonzero


def test_axis_sums_read_each_support_cell_once_per_face():
    v = triple_sum_joining(Z2kContext(3))
    nonzero = sum(1 for x in v.numerators if x)
    for coords in ((0,), (1, 3), (0, 1, 2), (1, 2, 3)):
        counted = _raw(v.factors, CountingList(v.numerators), v.denominator)
        CountingList.reads = 0
        got = _axis_sums(counted, coords)
        assert got == _axis_sums(v, coords)
        assert CountingList.reads <= nonzero


def test_sum_joining_equals_the_validated_tensor():
    for k in (1, 2, 3):
        ctx = Z2kContext(k)
        g = ctx.group_order
        entries = [Fraction(0)] * g**4
        for a in range(g):
            for b in range(g):
                for c in range(g):
                    entries[((a * g + b) * g + c) * g + (a ^ b ^ c)] = Fraction(1, g**3)
        want = JoiningTensor((ctx.space,) * 4, entries)
        got = triple_sum_joining(ctx)
        assert got == want and hash(got) == hash(want)
        assert got.entries == want.entries


# -- decode ---------------------------------------------------------------


def _outcome(decode, doc):
    try:
        raw = decode(doc, "t")
    except JoinlabError as exc:
        return type(exc), str(exc)
    return raw.numerators, raw.denominator, raw.entries


@st.composite
def sparse_documents(draw):
    shape = draw(small_shapes())
    size = space_size(shape)
    cells = draw(st.lists(st.integers(0, size - 1), unique=True, max_size=size))
    nonzero = [
        [list(index_to_tuple(shape, i)), draw(st.sampled_from(LITERALS))]
        for i in cells
    ]
    if nonzero and draw(st.booleans()):
        # one malformed item, anywhere in the list
        at = draw(st.integers(0, len(nonzero) - 1))
        kind = draw(st.sampled_from(("value", "range", "duplicate", "bool", "short")))
        tup = nonzero[at][0]
        if kind == "value":
            nonzero[at][1] = draw(st.sampled_from(BAD_VALUES))
        elif kind == "range":
            tup[-1] = draw(st.sampled_from((-1, shape[-1])))
        elif kind == "duplicate":
            nonzero.insert(at + 1, [list(tup), "1/2"])
        elif kind == "bool":
            tup[0] = True
        else:
            tup.pop()
    return {"factors": [["1/%d" % n] * n for n in shape], "nonzero": nonzero}


@PROPERTY
@given(sparse_documents())
def test_decode_matches_the_fraction_decoder(doc):
    assert _outcome(data_to_raw, doc) == _outcome(decode_oracle.data_to_raw, doc)


MALFORMED = {
    "value": lambda draw, item, shape: [item[0], draw(st.sampled_from(BAD_VALUES))],
    "range": lambda draw, item, shape: [
        item[0][:-1] + [draw(st.sampled_from((-1, shape[-1])))], item[1]],
    "bool": lambda draw, item, shape: [[True] + item[0][1:], item[1]],
    "float": lambda draw, item, shape: [[0.0] + item[0][1:], item[1]],
    "short": lambda draw, item, shape: [item[0][:-1], item[1]],
    "long": lambda draw, item, shape: [item[0] + [0], item[1]],
    "not a list": lambda draw, item, shape: [tuple(item[0]), item[1]],
    "triple": lambda draw, item, shape: item + ["1/2"],
    "pair as tuple": lambda draw, item, shape: tuple(item),
    "bare value": lambda draw, item, shape: item[1],
}


@st.composite
def near_valid_documents(draw):
    """Sparse documents whose items come in a drawn order, often with zero
    literals; some carry up to two malformed items or a duplicate."""
    shape = draw(small_shapes())
    size = space_size(shape)
    cells = draw(st.lists(st.integers(0, size - 1), unique=True, max_size=size))
    nonzero = [
        [list(index_to_tuple(shape, i)), draw(st.sampled_from(LITERALS))]
        for i in cells
    ]
    ats = draw(st.lists(st.integers(0, len(nonzero) - 1), unique=True, max_size=2)) \
        if nonzero else []
    copies = []
    for at in ats:
        kind = draw(st.sampled_from(sorted(MALFORMED) + ["duplicate"]))
        if kind == "duplicate":
            copies.append([list(nonzero[at][0]), "1/2"])
        else:
            nonzero[at] = MALFORMED[kind](draw, nonzero[at], shape)
    for item in copies:
        nonzero.insert(draw(st.integers(0, len(nonzero))), item)
    return {"factors": [["1/%d" % n] * n for n in shape], "nonzero": nonzero}


@PROPERTY
@given(near_valid_documents())
def test_bulk_decode_matches_the_fraction_decoder_and_lists_the_support(doc):
    want = _outcome(decode_oracle.data_to_raw, doc)
    assert _outcome(data_to_raw, doc) == want
    if not isinstance(want[0], type):  # decoded: its support is the cells'
        raw = data_to_raw(doc, "t")
        shape = tuple(map(len, doc["factors"]))
        assert raw.support == support_cells(shape, raw.numerators)


def test_decoded_support_of_unsorted_items_with_a_zero_literal():
    doc = {"factors": [["1/2", "1/2"], ["1/3", "1/3", "1/3"]],
           "nonzero": [[[1, 2], "1/3"], [[0, 1], "0/1"], [[1, 0], "-1/6"],
                       [[0, 0], "1/2"], [[0, 2], "0"], [[1, 1], "1/3"]]}
    raw = data_to_raw(doc)
    want = support_cells((2, 3), raw.numerators)
    assert raw.support == want
    assert want[0] == [0, 3, 4, 5]  # (0, 1) and (0, 2) hold zeros
    assert raw.numerators == (3, 0, 0, -1, 2, 2)


@st.composite
def signed_documents(draw):
    """Documents whose support is empty, full or drawn, with signed values
    and zero literals on the cells off a drawn support."""
    shape = draw(small_shapes())
    size = space_size(shape)
    kind = draw(st.sampled_from(("empty", "full", "drawn")))
    if kind == "empty":
        cells = []
    elif kind == "full":
        cells = list(range(size))
    else:
        cells = draw(st.lists(st.integers(0, size - 1), unique=True, max_size=size))
    nonzero = []
    for i in cells:
        value = draw(st.sampled_from(LITERALS))
        if kind == "full":
            value = draw(st.sampled_from(("1/2", "-1/6", "5", "1/12", "-2/7")))
        nonzero.append([list(index_to_tuple(shape, i)), value])
    return {"factors": [["1/%d" % n] * n for n in shape], "nonzero": nonzero}


@PROPERTY
@given(signed_documents())
def test_joining_verify_mass_and_min_entry_match_the_dense_entries(doc):
    from joinlab.cli import main
    from joinlab.rationals import format_rational

    dense = decode_oracle.data_to_raw(doc, "t")
    raw = data_to_raw(doc, "t")
    assert (raw, hash(raw), repr(raw)) == (dense, hash(dense), repr(dense))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["joining", "verify", "--file", path])
    report = json.loads(out.getvalue())
    assert code == (0 if report["pass"] else 1)
    assert report["mass"] == format_rational(sum(dense.entries))
    assert report["min_entry"] == format_rational(min(dense.entries))


@pytest.mark.parametrize("bad", BAD_VALUES, ids=repr)
def test_decode_refuses_a_bad_value_after_a_parsed_literal(bad):
    doc = {"factors": [["1/2", "1/2"]],
           "nonzero": [[[0], "1/2"], [[1], bad]]}
    want = _outcome(decode_oracle.data_to_raw, doc)
    assert want[0] is InvalidInputError
    assert _outcome(data_to_raw, doc) == want


def test_decode_form_cap_counts_every_entry():
    # one nonzero entry; its denominator fits a one-entry form, but not the
    # 65,536 numerators the tensor holds
    doc = {"factors": [["1/2", "1/2"]] * 16, "nonzero": [[[0] * 16, "1/" + "3" * 400]]}
    with pytest.raises(ResourceLimitError) as new:
        data_to_raw(doc, "t")
    with pytest.raises(ResourceLimitError) as old:
        decode_oracle.data_to_raw(doc, "t")
    assert str(new.value) == str(old.value)
    assert str(new.value).startswith("t.nonzero: 65536 entries over")


def test_repeated_literal_is_parsed_once():
    doc = {"factors": [["1/2", "1/2"]] * 2,
           "nonzero": [[[0, 0], "1/2"], [[1, 1], "1/2"]]}
    raw = data_to_raw(doc)
    assert raw.entries[0] is raw.entries[3]
    assert data_to_joining(doc).entries == raw.entries


# factor lists for 1-4 atoms: a canonical one, one spelled differently
# for the same weights, and one with a bad literal or a bad sum
FACTOR_LISTS = {
    n: (["1/%d" % n] * n, ["2/%d" % (2 * n)] * n, ["1/%d" % n] * (n - 1) + ["x"],
        ["1/%d" % (n + 1)] * n)
    for n in range(1, 5)
}


@st.composite
def repeated_factor_documents(draw):
    """Documents whose factor lists often repeat an earlier one; a bad list
    may sit at any position, also after a good list of its atom count."""
    shape = draw(small_shapes())
    factors = [list(draw(st.sampled_from(FACTOR_LISTS[n][:2]))) for n in shape]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(shape) - 1))
        factors[at] = list(draw(st.sampled_from(FACTOR_LISTS[shape[at]][2:])))
    size = space_size(shape)
    cells = draw(st.lists(st.integers(0, size - 1), unique=True, max_size=size))
    nonzero = [
        [list(index_to_tuple(shape, i)), draw(st.sampled_from(LITERALS))]
        for i in cells
    ]
    return {"factors": factors, "nonzero": nonzero}


@PROPERTY
@given(repeated_factor_documents())
def test_decode_of_repeated_factor_lists_matches_the_fraction_decoder(doc):
    want = _outcome(decode_oracle.data_to_raw, doc)
    assert _outcome(data_to_raw, doc) == want
    if not isinstance(want[0], type):
        raw = data_to_raw(doc, "t")
        assert raw.factors == decode_oracle.data_to_raw(doc, "t").factors
        assert raw.support == support_cells(raw.shape, raw.numerators)
        # an equal list of literals is built once
        built = {}
        for lst, sp in zip(doc["factors"], raw.factors):
            assert built.setdefault(tuple(lst), sp) is sp


def test_decode_names_a_bad_literal_in_a_later_factor_only():
    doc = {"factors": [["1/2", "1/2"], ["1/2", "1/2"], ["1/2", "1/x"]],
           "nonzero": [[[0, 0, 0], "1"]]}
    with pytest.raises(InvalidInputError) as info:
        data_to_raw(doc, "t")
    assert str(info.value) == "t.factors[2][1]: malformed rational literal: '1/x'"
    assert _outcome(data_to_raw, doc) == _outcome(decode_oracle.data_to_raw, doc)


# -- one kernel path for raw and checked tensors -------------------------

TENSORS = Path(__file__).resolve().parent / "golden" / "tensors"


def _tensor_document(name):
    if name == "eta_k2":
        return joining_to_data(triple_sum_joining(Z2kContext(2)))
    return json.loads((TENSORS / f"{name}.json").read_text())


@pytest.mark.parametrize("name", ["eta_k2", "eta_k3", "eta_k3_damaged", "damaged"])
def test_kernels_agree_on_raw_and_checked_tensors_and_the_oracle(name):
    doc = _tensor_document(name)
    raw = data_to_raw(doc)
    tensors = [raw]
    if not name.endswith("damaged"):
        tensors.append(data_to_joining(doc))
    entries, shape, factors = raw.entries, raw.shape, raw.factors
    action = full_action(Z2kContext(shape[0].bit_length() - 1))
    axes = range(len(shape))
    gaps = {
        coords: oracle.sup_distance(
            oracle.axis_sums(entries, shape, coords),
            oracle.product([factors[c].weights for c in coords]),
        )
        for m in range(1, len(shape) + 1)
        for coords in combinations(axes, m)
    }
    marginals = max(gaps[(c,)] for c in axes)
    invariance = oracle.invariance_defect(entries, shape, [g.perm for g in action.generators])
    for v in tensors:
        assert marginal_defect(v) == marginals
        assert {coords: _face_gap(v, coords) for coords in gaps} == gaps
        for m in range(1, len(shape)):
            assert face_independence_defect(v, m) == max(
                gaps[coords] for coords in combinations(axes, m)
            )
        assert diagonal_invariance_defect(v, action) == invariance
    if name == "eta_k3_damaged":  # the defects its golden report prints
        assert marginals == invariance == Fraction(3, 512)


# -- one validation path --------------------------------------------------


def _built(build):
    try:
        v = build()
    except InvalidInputError as exc:
        return "error", str(exc)
    return v, hash(v), v.entries, v.numerators, v.denominator


@PROPERTY
@given(st.data())
def test_from_form_equals_the_fraction_constructor(data):
    shape = data.draw(small_shapes())
    size = space_size(shape)
    weights = [[Fraction(1, n)] * n for n in shape]
    factors = tuple(FiniteSpace(tuple(ws)) for ws in weights)
    kind = data.draw(st.sampled_from(("measure", "joining", "raw", "length")))
    if kind == "length":
        size += data.draw(st.sampled_from((-1, 1)))
    den = data.draw(st.sampled_from((1, 2, 6, 12)))
    nums = data.draw(st.lists(st.integers(-2, 12), min_size=size, max_size=size))
    if kind == "measure":
        nums = [abs(n) for n in nums]
        den = sum(nums) or 1
    if kind == "joining":
        # the product measure, scaled by a common factor the form divides out
        scale = data.draw(st.integers(1, 5))
        nums = [scale] * size
        den = scale * size
    entries = [Fraction(n, den) for n in nums]
    for cls, joining in ((ProductMeasure, False), (JoiningTensor, True)):
        by_form = _built(lambda: cls._from_form(factors, nums, den))
        by_fractions = _built(lambda: cls(factors, entries))
        assert by_form == by_fractions
        if by_form[0] == "error" and kind != "length":
            assert by_form[1] == oracle.validation_error(weights, entries, joining)
        if by_form[0] != "error":
            assert oracle.validation_error(weights, entries, joining) is None
