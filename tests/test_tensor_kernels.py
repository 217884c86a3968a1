"""The flat-index integer tensor kernels against the slow oracle in
``tensor_oracle.py``.

Shapes have 1-4 axes of unequal atom counts and at most 64 entries;
entries carry mixed denominators, and raw entries (for the helpers that
accept them) may be negative.  The support kernels are also drawn on
empty, single-cell, sparse (at most one cell in eight) and full supports
of signed values.  Faces read from the two parts of the support's split
are also drawn on fixed shapes whose split cuts after no axis, after
some, or after every axis, up to (2, 3, 5, 7).  Every kernel result must
equal the oracle's exactly, and construction must raise the oracle's
message.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from joinlab import (
    ActionGenerators,
    Automorphism,
    FiniteSpace,
    InvalidInputError,
    JoiningTensor,
    PreconditionError,
    ProductMeasure,
    affine_combination,
    diagonal_invariance_defect,
    disintegrate,
    face_independence_defect,
    joining_from_operator,
    marginal,
    operator_from_joining,
    product_joining,
    push_joining,
    reassemble,
    sup_distance,
)
from joinlab.torus import Z2kContext, fourier_joining
from joinlab import joinings as joinings_module
from joinlab.joinings import RawTensor, _axis_sums, _face_gaps, integer_form
from joinlab.spaces import (
    flat_index_map,
    moved_index_map,
    projection_map,
    space_size,
    support_cells,
    support_map,
)

import tensor_oracle as oracle
from conftest import random_operator

# derandomized, so that a failure replays exactly and the run time is fixed
PROPERTY = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9, 12)


def face_gap(v, coords):
    """The kernel's sup-distance from v's marginal on ``coords`` to the
    product of those factors' weights."""
    return next(_face_gaps(v, [coords]))


@st.composite
def shapes(draw, min_axes=1, max_axes=4, min_atoms=2):
    axes = draw(st.integers(min_axes, max_axes))
    shape = []
    for _ in range(axes):
        room = 64 // space_size(shape)
        shape.append(draw(st.integers(min(min_atoms, room), min(5, room))))
    return tuple(shape)


def rationals(low, high):
    return st.builds(Fraction, st.integers(low, high), st.sampled_from(DENOMINATORS))


SIGNED, NONNEGATIVE, POSITIVE = rationals(-6, 6), rationals(0, 6), rationals(1, 6)


def raw_entries(size):
    return st.lists(SIGNED, min_size=size, max_size=size)


@st.composite
def measure_entries(draw, size):
    """Nonnegative entries of mass one with mixed denominators."""
    parts = draw(st.lists(NONNEGATIVE, min_size=size, max_size=size))
    total = sum(parts)
    assume(total > 0)
    return [p / total for p in parts]


@st.composite
def weight_lists(draw, shape):
    """Positive weights summing to one, one list per axis."""
    out = []
    for n in shape:
        parts = draw(st.lists(POSITIVE, min_size=n, max_size=n))
        out.append([p / sum(parts) for p in parts])
    return out


def spaces(weights):
    return tuple(FiniteSpace(tuple(ws)) for ws in weights)


def raw_tensor(factors, entries):
    """The unchecked tensor of ``entries`` on ``factors``, in integer form."""
    nums, den = integer_form(entries)
    return RawTensor(tuple(factors), tuple(entries), tuple(nums), den)


def coords_of(draw, order, min_size=1, max_size=None):
    return tuple(sorted(draw(st.sets(
        st.integers(0, order - 1), min_size=min_size, max_size=max_size or order
    ))))


@st.composite
def joinings(draw, min_axes=1):
    """A joining whose factors are the single-axis marginals of random
    entries (each must be positive)."""
    shape = draw(shapes(min_axes=min_axes))
    entries = draw(measure_entries(space_size(shape)))
    weights = [oracle.axis_sums(entries, shape, [c]) for c in range(len(shape))]
    assume(all(w > 0 for ws in weights for w in ws))
    return JoiningTensor(spaces(weights), tuple(entries))


@st.composite
def independent_over(draw, one_fiber=False):
    """(joining, base coords): the base marginal is the independent product
    of random base factors, each base tuple carrying a random conditional;
    with ``one_fiber`` the base is every coordinate but one."""
    shape = draw(shapes(min_axes=2))
    if one_fiber:
        skip = draw(st.integers(0, len(shape) - 1))
        base = tuple(c for c in range(len(shape)) if c != skip)
    else:
        base = coords_of(draw, len(shape), max_size=len(shape) - 1)
    fiber = [c for c in range(len(shape)) if c not in base]
    base_weights = draw(weight_lists([shape[c] for c in base]))
    fiber_size = space_size(shape[c] for c in fiber)
    conds = [
        draw(measure_entries(fiber_size))
        for _ in range(space_size(shape[c] for c in base))
    ]
    base_index = {b: i for i, b in enumerate(oracle.tuples([shape[c] for c in base]))}
    fiber_index = {f: i for i, f in enumerate(oracle.tuples([shape[c] for c in fiber]))}
    base_mass = oracle.product(base_weights)
    entries = []
    for tup in oracle.tuples(shape):
        b = base_index[tuple(tup[c] for c in base)]
        f = fiber_index[tuple(tup[c] for c in fiber)]
        entries.append(base_mass[b] * conds[b][f])
    weights = [oracle.axis_sums(entries, shape, [c]) for c in range(len(shape))]
    assume(all(w > 0 for ws in weights for w in ws))
    return JoiningTensor(spaces(weights), tuple(entries)), base


@PROPERTY
@given(st.data())
def test_flat_index_map_matches_oracle(data):
    shape = data.draw(shapes())
    per_axis = [
        data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
        for n in shape
    ]
    assert flat_index_map(shape, per_axis) == oracle.flat_index_map(shape, per_axis)
    perms = [data.draw(st.permutations(range(n))) for n in shape]
    moved = [
        oracle.tuples(shape).index(tuple(p[t] for p, t in zip(perms, tup)))
        for tup in oracle.tuples(shape)
    ]
    assert moved_index_map(shape, perms) == moved
    coords = coords_of(data.draw, len(shape))
    sub = [shape[c] for c in coords]
    projected = [
        oracle.tuples(sub).index(tuple(tup[c] for c in coords))
        for tup in oracle.tuples(shape)
    ]
    assert projection_map(shape, coords) == projected


def test_flat_index_map_rejects_mismatched_tables():
    with pytest.raises(InvalidInputError):
        flat_index_map((2, 3), [[0, 1], [0, 1]])


@PROPERTY
@given(st.data())
def test_integer_form_is_canonical(data):
    entries = data.draw(raw_entries(data.draw(st.integers(1, 64))))
    nums, den = integer_form(entries)
    assert den == lcm(*(x.denominator for x in entries))
    assert [Fraction(n, den) for n in nums] == entries


@PROPERTY
@given(st.data())
def test_axis_sums_on_raw_entries(data):
    shape = data.draw(shapes())
    entries = data.draw(raw_entries(space_size(shape)))
    coords = coords_of(data.draw, len(shape))
    v = raw_tensor([FiniteSpace.uniform(n) for n in shape], entries)
    got = _scaled(_axis_sums(v, coords), v.denominator)
    assert got == oracle.axis_sums(entries, shape, coords)
    # every axis in order: the entries themselves, a list like any other face
    every = range(len(shape))
    assert _axis_sums(v, every) == list(v.numerators)
    assert _scaled(_axis_sums(v, every), v.denominator) == \
        oracle.axis_sums(entries, shape, tuple(every))


@PROPERTY
@given(st.data())
def test_marginal_defect_on_raw_entries(data):
    shape = data.draw(shapes())
    entries = data.draw(raw_entries(space_size(shape)))
    weights = [data.draw(measure_entries(n)) for n in shape]
    assume(all(w > 0 for ws in weights for w in ws))
    factors = spaces(weights)
    want = max(
        abs(s - w)
        for c, sp in enumerate(factors)
        for s, w in zip(oracle.axis_sums(entries, shape, [c]), sp.weights)
    )
    assert face_independence_defect(raw_tensor(factors, entries), 1) == want


@PROPERTY
@given(st.data())
def test_marginal_matches_oracle(data):
    v = data.draw(joinings())
    coords = coords_of(data.draw, v.order)
    face = marginal(v, coords)
    assert isinstance(face, JoiningTensor)
    assert list(face.entries) == oracle.axis_sums(v.entries, v.shape, coords)
    plain = marginal(ProductMeasure(v.factors, v.entries), coords)
    assert type(plain) is ProductMeasure
    assert plain.entries == face.entries


@PROPERTY
@given(st.data())
def test_invariance_defect_on_raw_entries(data):
    atoms = data.draw(st.integers(1, 4))
    order = data.draw(st.integers(1, 3))
    shape = (atoms,) * order
    entries = data.draw(raw_entries(space_size(shape)))
    perms = data.draw(st.lists(st.permutations(range(atoms)), min_size=1, max_size=3))
    space = FiniteSpace.uniform(atoms)
    action = ActionGenerators(space, [Automorphism(space, tuple(p)) for p in perms])
    want = oracle.invariance_defect(entries, shape, perms)
    assert diagonal_invariance_defect(raw_tensor((space,) * order, entries), action) == want
    positive = [abs(x) + 1 for x in entries]
    v = ProductMeasure((space,) * order, tuple(x / sum(positive) for x in positive))
    assert diagonal_invariance_defect(v, action) == (
        oracle.invariance_defect(v.entries, shape, perms)
    )


NONZERO = SIGNED.filter(bool)


@st.composite
def supported_entries(draw, size):
    """Signed nonzero values on an empty, a single-cell, a sparse (at most
    one cell in eight) or a full support, zero elsewhere."""
    kind = draw(st.sampled_from(("empty", "single", "sparse", "full")))
    if kind == "full":
        cells = range(size)
    else:
        most = {"empty": 0, "single": 1, "sparse": size // 8}[kind]
        cells = draw(st.sets(
            st.integers(0, size - 1), min_size=min(most, 1), max_size=most
        ))
    values = {i: draw(NONZERO) for i in cells}
    return [values.get(i, Fraction(0)) for i in range(size)]


def _scaled(values, den):
    return [Fraction(x, den) for x in values]


@PROPERTY
@given(st.data())
def test_support_cells_match_oracle(data):
    shape = data.draw(shapes())
    entries = data.draw(supported_entries(space_size(shape)))
    nums, den = integer_form(entries)
    cells, values, split = support_cells(shape, nums)
    assert (cells, _scaled(values, den), split) == oracle.support(entries, shape)
    per_axis = [
        data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
        for n in shape
    ]
    dense = oracle.flat_index_map(shape, per_axis)
    assert support_map(split, per_axis) == [dense[i] for i in cells]


@PROPERTY
@given(st.data())
def test_face_kernels_on_sparse_supports(data):
    shape = data.draw(shapes())
    entries = data.draw(supported_entries(space_size(shape)))
    factors = spaces(data.draw(weight_lists(shape)))
    v = raw_tensor(factors, entries)
    coords = coords_of(data.draw, len(shape))
    want = oracle.axis_sums(entries, shape, coords)
    assert _scaled(_axis_sums(v, coords), v.denominator) == want
    product = oracle.product([factors[c].weights for c in coords])
    assert face_gap(v, coords) == oracle.sup_distance(want, product)
    marginals = max(
        oracle.sup_distance(oracle.axis_sums(entries, shape, [c]), sp.weights)
        for c, sp in enumerate(factors)
    )
    assert face_independence_defect(v, 1) == marginals


@PROPERTY
@given(st.data())
def test_invariance_defect_on_sparse_supports(data):
    atoms = data.draw(st.integers(1, 4))
    order = data.draw(st.integers(1, 3))
    shape = (atoms,) * order
    entries = data.draw(supported_entries(space_size(shape)))
    perms = data.draw(st.lists(st.permutations(range(atoms)), min_size=1, max_size=3))
    space = FiniteSpace.uniform(atoms)
    action = ActionGenerators(space, [Automorphism(space, tuple(p)) for p in perms])
    want = oracle.invariance_defect(entries, shape, perms)
    assert diagonal_invariance_defect(raw_tensor((space,) * order, entries), action) == want


def full_face_cases(draw):
    """Signed entries on non-uniform factors with an empty, a single-cell, a
    sparse, a full, or an every-cell-but-one support."""
    shape = draw(shapes())
    size = space_size(shape)
    factors = spaces(draw(weight_lists(shape)))
    if draw(st.booleans()):
        entries = draw(supported_entries(size))
    else:
        entries = [draw(NONZERO) for _ in range(size)]
        entries[draw(st.integers(0, size - 1))] = Fraction(0)
    return shape, factors, entries


def oracle_full_gap(shape, factors, entries):
    """Sup-distance from the entries to the product of the factors."""
    return oracle.sup_distance(entries, oracle.product([sp.weights for sp in factors]))


@PROPERTY
@given(st.data())
def test_full_face_gap_matches_oracle(data):
    shape, factors, entries = full_face_cases(data.draw)
    want = oracle_full_gap(shape, factors, entries)
    v = raw_tensor(factors, entries)
    assert face_independence_defect(v, len(shape)) == face_gap(v, range(len(shape))) == want


@pytest.mark.parametrize("kind", ["full", "all but one", "one cell", "empty"])
def test_full_face_gap_on_fixed_supports(kind):
    # two factors of three weight classes each; signed values
    factors = spaces([
        [Fraction(1, 6), Fraction(3, 6), Fraction(2, 6)],
        [Fraction(1, 8), Fraction(5, 8), Fraction(1, 8), Fraction(1, 8)],
    ])
    shape = (3, 4)
    rng = random.Random(kind)
    entries = [Fraction(rng.randint(-9, 9) or 1, 24) for _ in range(12)]
    if kind == "all but one":
        entries[5] = Fraction(0)  # the heaviest cell, (1, 1), of weight 15/48
    elif kind == "one cell":
        entries = [Fraction(0)] * 12
        entries[7] = Fraction(-1, 3)
    elif kind == "empty":
        entries = [Fraction(0)] * 12
    want = oracle_full_gap(shape, factors, entries)
    assert face_independence_defect(raw_tensor(factors, entries), 2) == want


def test_full_face_gap_finds_a_heavy_cell_off_the_support_past_the_heaviest():
    # the three heaviest cells, (1, 1), (2, 1) and (0, 1) at 15/48, 10/48
    # and 5/48, sit on the support at their own weight; the heaviest cells
    # off it are (1, 0), (1, 2) and (1, 3) at 3/48, and every support gap
    # is smaller
    factors = spaces([
        [Fraction(1, 6), Fraction(3, 6), Fraction(2, 6)],
        [Fraction(1, 8), Fraction(5, 8), Fraction(1, 8), Fraction(1, 8)],
    ])
    entries = [Fraction(0)] * 12
    entries[5], entries[9], entries[1] = Fraction(15, 48), Fraction(10, 48), Fraction(5, 48)
    entries[0] = Fraction(1, 48) + Fraction(1, 96)  # (0, 0) weighs 1/48
    assert face_independence_defect(raw_tensor(factors, entries), 2) == Fraction(3, 48)
    assert oracle_full_gap((3, 4), factors, entries) == Fraction(3, 48)


@PROPERTY
@given(st.data())
def test_sup_distance_matches_oracle(data):
    shape = data.draw(shapes())
    factors = spaces(data.draw(weight_lists(shape)))
    a = ProductMeasure(factors, tuple(data.draw(measure_entries(space_size(shape)))))
    b = ProductMeasure(factors, tuple(data.draw(measure_entries(space_size(shape)))))
    assert sup_distance(a, b) == oracle.sup_distance(a.entries, b.entries)
    assert sup_distance(a, a) == 0


@PROPERTY
@given(st.data())
def test_product_joining_matches_oracle(data):
    weights = data.draw(weight_lists(data.draw(shapes())))
    v = product_joining(spaces(weights))
    assert list(v.entries) == oracle.product(weights)


@PROPERTY
@given(independent_over())
def test_disintegrate_and_reassemble_match_oracle(case):
    v, base = case
    field = disintegrate(v, base)
    want = oracle.conditionals(v.entries, v.shape, base)
    assert [cond.entries for cond in field.assignment] == want
    assert reassemble(field, base) == v


@st.composite
def faced_measures(draw):
    """A measure of order >= 2: the product joining (every face
    independent), a joining with an independent base face, a joining from
    random entries (faces generally dependent), or a measure whose
    marginals miss its factors."""
    kind = draw(st.sampled_from(("product", "independent base", "joining", "measure")))
    if kind == "product":
        return product_joining(spaces(draw(weight_lists(draw(shapes(min_axes=2))))))
    if kind == "independent base":
        return draw(independent_over())[0]
    if kind == "joining":
        return draw(joinings(min_axes=2))
    shape = draw(shapes(min_axes=2))
    factors = spaces(draw(weight_lists(shape)))
    return ProductMeasure(factors, tuple(draw(measure_entries(space_size(shape)))))


def oracle_face_gap(v, coords):
    """Sup-distance between the marginal on ``coords`` and the product of
    those factors' weights, on Fraction entries."""
    return oracle.sup_distance(
        oracle.axis_sums(v.entries, v.shape, coords),
        oracle.product([v.factors[c].weights for c in coords]),
    )


@PROPERTY
@given(faced_measures())
def test_face_kernel_matches_oracle(v):
    axes = range(v.order)
    for m in range(1, v.order + 1):
        assert face_independence_defect(v, m) == max(
            oracle_face_gap(v, coords) for coords in combinations(axes, m)
        )
    for m in range(1, v.order):
        for base in combinations(axes, m):
            if oracle_face_gap(v, base):
                with pytest.raises(PreconditionError):
                    disintegrate(v, base)
            else:
                field = disintegrate(v, base)
                want = oracle.conditionals(v.entries, v.shape, base)
                assert [cond.entries for cond in field.assignment] == want


@PROPERTY
@given(independent_over(one_fiber=True))
def test_operator_from_joining_matches_oracle(case):
    v, rest = case
    distinguished = next(c for c in range(v.order) if c not in rest)
    op = operator_from_joining(v, distinguished)
    weights = [sp.weights for sp in v.factors]
    assert list(op.kernel) == oracle.operator_kernel(v.entries, weights, distinguished)
    rest_factors = [v.factors[c] for c in rest]
    assert joining_from_operator(op, rest_factors, distinguished) == v


@PROPERTY
@given(st.data())
def test_validation_messages_match_oracle(data):
    shape = data.draw(shapes())
    weights = data.draw(weight_lists(shape))
    size = space_size(shape)
    kind = data.draw(st.sampled_from(("raw", "measure", "own marginals")))
    if kind == "raw":
        entries = data.draw(raw_entries(size))
    else:
        entries = data.draw(measure_entries(size))
        if kind == "own marginals":
            weights = [oracle.axis_sums(entries, shape, [c]) for c in range(len(shape))]
            assume(all(w > 0 for ws in weights for w in ws))
    for cls, joining in ((ProductMeasure, False), (JoiningTensor, True)):
        want = oracle.validation_error(weights, entries, joining)
        if want is None:
            assert cls(spaces(weights), tuple(entries)).entries == tuple(entries)
        else:
            with pytest.raises(InvalidInputError) as info:
                cls(spaces(weights), tuple(entries))
            assert str(info.value) == want


@PROPERTY
@given(st.data())
def test_push_joining_matches_oracle(data):
    v = data.draw(joinings())
    # target spaces whose atom counts differ from the source's
    target_shape = []
    for _ in v.shape:
        room = 64 // space_size(target_shape)
        target_shape.append(data.draw(st.integers(1, min(5, room))))
    targets = spaces(data.draw(weight_lists(target_shape)))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    ops = [
        affine_combination(
            data.draw(NONNEGATIVE.filter(lambda c: c <= 1)),
            random_operator(rng, source, target),
            random_operator(rng, source, target),
        )
        for source, target in zip(v.factors, targets)
    ]
    trans = [
        oracle.transitions(op.kernel, op.source.weights, op.target.weights)
        for op in ops
    ]
    pushed = push_joining(v, ops)
    assert pushed.factors == targets
    assert list(pushed.entries) == oracle.markov_push(v.entries, v.shape, trans)


def _outcome(build):
    try:
        return "ok", tuple(build().entries)
    except InvalidInputError as exc:
        return "error", str(exc)


@PROPERTY
@given(st.data())
def test_fourier_joining_matches_oracle(data):
    k = data.draw(st.integers(1, 2))
    order = data.draw(st.integers(1, 6 // k))
    ctx = Z2kContext(k)
    keys = data.draw(st.sets(
        st.tuples(*[st.integers(0, 2**k - 1)] * order), max_size=6
    ))
    table = {key: data.draw(rationals(-3, 3)) / 3 for key in keys}
    table[(0,) * order] = Fraction(1)
    coefficients = {
        tuple(ctx.bits(a) for a in key): c for key, c in table.items()
    }
    entries = oracle.fourier_entries(k, order, table)
    negative = [i for i, x in enumerate(entries) if x < 0]
    if negative:
        tup = oracle.tuples([2**k] * order)[negative[0]]
        expected = "error", f"coefficients produce a negative entry at {tup}"
    else:
        expected = _outcome(lambda: JoiningTensor((ctx.space,) * order, entries))
    assert _outcome(lambda: fourier_joining(ctx, order, coefficients)) == expected


@st.composite
def one_weight_factors(draw, shape):
    """Factors on ``shape``: all uniform, or uniform and weighted mixed."""
    mixed = draw(st.booleans())
    weights = draw(weight_lists(shape))
    return tuple(
        FiniteSpace(tuple(ws)) if mixed and draw(st.booleans()) else FiniteSpace.uniform(n)
        for n, ws in zip(shape, weights)
    )


@PROPERTY
@given(st.data())
def test_face_gap_on_uniform_and_mixed_factors(data):
    # uniform factors take the one-weight comparison; a face with a
    # weighted factor compares every cell
    shape = data.draw(shapes())
    entries = data.draw(supported_entries(space_size(shape)))
    v = raw_tensor(data.draw(one_weight_factors(shape)), entries)
    axes = range(len(shape))
    for m in range(1, len(shape) + 1):
        for coords in combinations(axes, m):
            assert face_gap(v, coords) == oracle_face_gap(v, coords)
    for m in range(1, len(shape) + 1):
        assert face_independence_defect(v, m) == max(
            oracle_face_gap(v, coords) for coords in combinations(axes, m)
        )


SIXTH = Fraction(1, 6)

# entries on uniform factors of 2 and 3 atoms (one product weight, 1/6),
# the face, and the gap, each decided by one term of the comparison
ONE_WEIGHT_CASES = {
    "max term": ([Fraction(1, 2)] + [SIXTH] * 5, (0, 1), Fraction(1, 3)),
    "min term": (
        [Fraction(-1, 2)] + [SIXTH] * 4 + [Fraction(1, 3)], (0, 1), Fraction(2, 3)),
    "off-support term": ([Fraction(0)] + [SIXTH] * 5, (0, 1), SIXTH),
    "empty support": ([Fraction(0)] * 6, (0, 1), SIXTH),
    # every cell held, each within the 1/6 a missing cell would add
    "full support": (
        [Fraction(1, 4), Fraction(1, 12)] + [SIXTH] * 4, (0, 1), Fraction(1, 12)),
    "exact": ([SIXTH] * 6, (0, 1), Fraction(0)),
    # sums over the first axis against 1/3
    "max term, one axis": ([Fraction(1, 2)] + [SIXTH] * 5, (1,), Fraction(1, 3)),
    "min term, one axis": ([Fraction(-1, 2)] + [SIXTH] * 5, (1,), Fraction(2, 3)),
}


@pytest.mark.parametrize("name", sorted(ONE_WEIGHT_CASES))
def test_one_weight_gap_fixed_cases(name):
    entries, coords, want = ONE_WEIGHT_CASES[name]
    v = raw_tensor((FiniteSpace.uniform(2), FiniteSpace.uniform(3)), entries)
    assert oracle_face_gap(v, coords) == want
    assert face_gap(v, coords) == want


def test_face_gap_on_a_mixed_product_is_zero():
    # a uniform and a weighted factor: no face of their product has one
    # product weight, so none may be compared against 1/W
    factors = (FiniteSpace.uniform(2), FiniteSpace((SIXTH, Fraction(1, 3), Fraction(1, 2))))
    v = product_joining(factors)
    for coords in ((0,), (1,), (0, 1)):
        assert face_gap(v, coords) == 0
    # every entry at 1/12, the product denominator's one weight
    flat = raw_tensor(factors, [Fraction(1, 12)] * 6)
    assert face_gap(flat, (0, 1)) == oracle_face_gap(flat, (0, 1)) == Fraction(1, 6)


# -- faces read from the parts of the support's split ----------------------

# the split cuts after h axes: h = 0 at order 1 and where the leading axis
# outweighs the rest, h = order on one-atom axes, parts of unequal size
SPLIT_SHAPES = {
    (5,): 0, (9, 2): 0, (2, 9): 1, (1, 3): 1, (2, 2, 3): 1,
    (2, 3, 5, 7): 2, (1, 1, 1, 2): 3, (1, 1): 2,
}


def _signed_case(data, shape):
    """Signed values on an empty, single-cell, sparse or full support, on
    uniform, weighted or mixed factors."""
    entries = data.draw(supported_entries(space_size(shape)))
    return raw_tensor(data.draw(one_weight_factors(shape)), entries)


@pytest.mark.parametrize("shape", sorted(SPLIT_SHAPES), ids=str)
@settings(PROPERTY, max_examples=15)
@given(data=st.data())
def test_faces_from_split_parts_match_oracle(shape, data):
    v = _signed_case(data, shape)
    assert v.support[2][0] == SPLIT_SHAPES[shape]
    axes = range(len(shape))
    for m in range(1, len(shape) + 1):
        for coords in combinations(axes, m):
            want = oracle.axis_sums(v.entries, shape, coords)
            assert _scaled(_axis_sums(v, coords), v.denominator) == want
    for m in range(1, len(shape) + 1):
        assert face_independence_defect(v, m) == max(
            oracle_face_gap(v, coords) for coords in combinations(axes, m)
        )


@pytest.mark.parametrize("shape", sorted(SPLIT_SHAPES), ids=str)
@settings(PROPERTY, max_examples=15)
@given(data=st.data())
def test_marginal_and_joining_check_from_split_parts(shape, data):
    entries = [abs(x) for x in data.draw(supported_entries(space_size(shape)))]
    assume(any(entries))
    entries = [x / sum(entries) for x in entries]
    factors = data.draw(one_weight_factors(shape))
    v = ProductMeasure(factors, tuple(entries))
    for m in range(1, len(shape) + 1):
        for coords in combinations(range(len(shape)), m):
            assert list(marginal(v, coords).entries) == \
                oracle.axis_sums(entries, shape, coords)
    # the joining check names the first coordinate whose marginal misses
    # its factor, of any number that do
    weights = [sp.weights for sp in factors]
    want = oracle.validation_error(weights, entries, True)
    if want is None:
        assert JoiningTensor(factors, tuple(entries)).entries == tuple(entries)
    else:
        with pytest.raises(InvalidInputError) as info:
            JoiningTensor(factors, tuple(entries))
        assert str(info.value) == want


@pytest.mark.parametrize(
    "shape", [s for s in sorted(SPLIT_SHAPES) if sum(n > 1 for n in s) >= 2], ids=str
)
def test_joining_check_names_the_first_of_two_failing_coordinates(shape):
    # the product of weighted factors, checked against factors of which two
    # are uniform instead: both marginals miss, and the lower one is named
    weights = [[Fraction(t + 1, n * (n + 1) // 2) for t in range(n)] for n in shape]
    entries = tuple(oracle.product(weights))
    wide = [c for c, n in enumerate(shape) if n > 1]
    for pair in combinations(wide, 2):
        factors = tuple(
            FiniteSpace.uniform(len(ws)) if c in pair else FiniteSpace(tuple(ws))
            for c, ws in enumerate(weights)
        )
        with pytest.raises(InvalidInputError) as info:
            JoiningTensor(factors, entries)
        assert str(info.value) == oracle.validation_error(
            [sp.weights for sp in factors], entries, True
        )
        assert str(info.value).startswith(f"marginal onto coordinate {pair[0]} is ")


def _refuse_support_map(*args):
    raise AssertionError("a face inside one part went through support_map")


@pytest.mark.parametrize("shape", sorted(SPLIT_SHAPES), ids=str)
@settings(PROPERTY, max_examples=10)
@given(data=st.data())
def test_marginal_defect_sums_each_part_once_and_maps_no_cell(shape, data):
    v = _signed_case(data, shape)
    _, _, (h, high, low) = v.support
    passes = []  # one entry per sum over the support: which part it read
    real = joinings_module._sums_by

    def counted(size, index, values):
        if index is high or index is low:
            passes.append("high" if index is high else "low")
        return real(size, index, values)

    with mock.patch.object(joinings_module, "support_map", _refuse_support_map), \
            mock.patch.object(joinings_module, "_sums_by", counted):
        got = face_independence_defect(v, 1)
    assert got == max(oracle_face_gap(v, (c,)) for c in range(len(shape)))
    # a part with no axis (h = 0 or h = order) is not summed, and at order
    # 1 the one face is the full face, read from the support alone
    if len(shape) == 1:
        assert passes == []
    else:
        assert passes == ["high"] * (h > 0) + ["low"] * (h < len(shape))


@pytest.mark.parametrize("shape", sorted(SPLIT_SHAPES), ids=str)
@settings(PROPERTY, max_examples=10)
@given(data=st.data())
def test_face_defect_sums_each_part_once_and_maps_only_crossing_faces(shape, data):
    v = _signed_case(data, shape)
    _, _, (h, high, low) = v.support
    real_sums, real_map = joinings_module._sums_by, joinings_module.support_map
    for m in range(1, min(len(shape), 3)):
        faces = list(combinations(range(len(shape)), m))
        passes, maps = [], []  # which part each support sum read; mapped faces

        def counted(size, index, values):
            if index is high or index is low:
                passes.append("high" if index is high else "low")
            return real_sums(size, index, values)

        def mapped(split, per_axis):
            maps.append(per_axis)
            return real_map(split, per_axis)

        with mock.patch.object(joinings_module, "support_map", mapped), \
                mock.patch.object(joinings_module, "_sums_by", counted):
            got = face_independence_defect(v, m)
        assert got == max(oracle_face_gap(v, coords) for coords in faces)
        # each part holding a face is summed once, whatever its number of faces
        assert sorted(passes) == ["high"] * any(c[-1] < h for c in faces) + \
            ["low"] * any(c[0] >= h for c in faces)
        assert len(maps) == sum(c[0] < h <= c[-1] for c in faces)


@PROPERTY
@given(st.data())
def test_joining_check_maps_no_cell(data):
    kind = data.draw(st.sampled_from(("joining", "measure")))
    if kind == "joining":
        v = data.draw(joinings())
        factors, entries = v.factors, list(v.entries)
    else:
        shape = data.draw(shapes())
        factors = spaces(data.draw(weight_lists(shape)))
        entries = data.draw(measure_entries(space_size(shape)))
    want = oracle.validation_error([sp.weights for sp in factors], entries, True)
    with mock.patch.object(joinings_module, "support_map", _refuse_support_map):
        if want is None:
            built = JoiningTensor._from_form(factors, *integer_form(entries))
            assert list(built.entries) == entries
        else:
            with pytest.raises(InvalidInputError) as info:
                JoiningTensor._from_form(factors, *integer_form(entries))
            assert str(info.value) == want
