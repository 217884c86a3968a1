import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from joinlab import (
    Automorphism,
    FiniteSpace,
    InvalidInputError,
    ResourceLimitError,
    MeasurableSet,
    compose,
    halmos_distance,
    orbit_count,
    product_space,
)
from joinlab.spaces import (
    SIZE_CAP,
    embedding_map,
    flat_index_map,
    index_to_tuple,
    iter_tuples,
    moved_index_map,
    orbit_labels,
    projection_map,
    shape_of,
    space_size,
    tuple_to_index,
)

from conftest import random_automorphism, random_space


def test_space_weights_must_be_probability():
    FiniteSpace((Fraction(1, 3), Fraction(2, 3)))
    with pytest.raises(InvalidInputError):
        FiniteSpace((Fraction(1, 3), Fraction(1, 3)))
    with pytest.raises(InvalidInputError):
        FiniteSpace((Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(InvalidInputError):
        FiniteSpace(())
    with pytest.raises(InvalidInputError):
        FiniteSpace((0.5, 0.5))


def test_uniform_space():
    sp = FiniteSpace.uniform(4)
    assert sp.atom_count == 4
    assert all(w == Fraction(1, 4) for w in sp.weights)
    with pytest.raises(InvalidInputError):
        FiniteSpace.uniform(0)


def test_measurable_set_basics():
    sp = FiniteSpace((Fraction(1, 3), Fraction(2, 3)))
    a = MeasurableSet(sp, frozenset({0}))
    assert a.measure == Fraction(1, 3)
    assert a.complement().measure == Fraction(2, 3)
    assert a.intersect(a.complement()).measure == 0
    with pytest.raises(InvalidInputError):
        MeasurableSet(sp, frozenset({2}))


def test_automorphism_must_preserve_weights():
    sp = FiniteSpace((Fraction(1, 3), Fraction(2, 3)))
    with pytest.raises(InvalidInputError):
        Automorphism(sp, (1, 0))
    ident = Automorphism.identity(sp)
    assert ident.is_identity()


def test_automorphism_rejects_non_bijection():
    sp = FiniteSpace.uniform(3)
    with pytest.raises(InvalidInputError):
        Automorphism(sp, (0, 0, 1))
    with pytest.raises(InvalidInputError):
        Automorphism(sp, (0, 1))


def test_is_measure_preserving():
    # the constructor is the one permutation check: it keeps a weight
    # preserving permutation and refuses one that moves weight
    sp = FiniteSpace((Fraction(1, 3), Fraction(2, 3)))
    assert Automorphism(sp, (0, 1)).perm == (0, 1)
    with pytest.raises(InvalidInputError, match="^atom 0 .* different weight 2/3$"):
        Automorphism(sp, (1, 0))
    with pytest.raises(InvalidInputError, match=r"^not a permutation of 0\.\.1: \(0, 0\)$"):
        Automorphism(sp, (0, 0))


def test_automorphism_refuses_bools():
    # (True, False) == (1, 0), but a bool is not an atom: accepted, it
    # would be written to reports as [true, false]
    two = FiniteSpace.uniform(2)
    for perm in ((True, False), (0, True), (1.0, 0)):
        with pytest.raises(InvalidInputError) as err:
            Automorphism(two, perm)
        assert str(err.value) == f"not a permutation of 0..1: {perm}"


@given(st.permutations(list(range(6))), st.permutations(list(range(6))))
def test_compose_and_inverse(p, q):
    sp = FiniteSpace.uniform(6)
    a = Automorphism(sp, tuple(p))
    b = Automorphism(sp, tuple(q))
    ab = compose(a, b)
    for x in sp.atoms():
        assert ab(x) == a(b(x))
    assert compose(a, a.inverse()).is_identity()
    assert compose(a.inverse(), a).is_identity()


@given(
    st.permutations(list(range(5))),
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=-12, max_value=12),
)
def test_power_is_group_homomorphism(p, i, j):
    sp = FiniteSpace.uniform(5)
    a = Automorphism(sp, tuple(p))
    assert a.power(i + j).perm == compose(a.power(i), a.power(j)).perm
    assert a.power(-i).perm == a.power(i).inverse().perm


def test_image_preserves_measure():
    rng = random.Random(11)
    for _ in range(20):
        sp = random_space(rng, 7)
        a = random_automorphism(rng, sp)
        atoms = frozenset(x for x in sp.atoms() if rng.random() < 0.5)
        s = MeasurableSet(sp, atoms)
        assert a.image(s).measure == s.measure


def test_halmos_distance_frozen_example():
    sp = FiniteSpace.uniform(2)
    ident = Automorphism.identity(sp)
    swap = Automorphism(sp, (1, 0))
    assert halmos_distance(ident, swap) == Fraction(3, 2)
    assert halmos_distance(ident, ident) == 0
    assert halmos_distance(swap, swap) == 0


def test_halmos_metric_axioms_small():
    sp = FiniteSpace.uniform(4)
    rng = random.Random(3)
    for _ in range(25):
        autos = [random_automorphism(rng, sp) for _ in range(3)]
        a, b, c = autos
        dab = halmos_distance(a, b)
        assert dab == halmos_distance(b, a)
        assert (dab == 0) == (a.perm == b.perm)
        assert halmos_distance(a, c) <= dab + halmos_distance(b, c)


def test_orbit_count():
    sp = FiniteSpace.uniform(6)
    cycle = Automorphism(sp, (1, 2, 3, 4, 5, 0))
    assert orbit_count(cycle) == 1
    assert orbit_count(Automorphism.identity(sp)) == 6
    two_cycles = Automorphism(sp, (1, 0, 3, 2, 5, 4))
    assert orbit_count(two_cycles) == 3


def test_product_space_lexicographic():
    a = FiniteSpace((Fraction(1, 3), Fraction(2, 3)))
    b = FiniteSpace.uniform(2)
    prod = product_space([a, b])
    assert prod.weights == (
        Fraction(1, 6),
        Fraction(1, 6),
        Fraction(1, 3),
        Fraction(1, 3),
    )


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
@settings(max_examples=60)
def test_index_tuple_roundtrip(shape):
    shape = tuple(shape)
    seen = []
    for tup in iter_tuples(shape):
        idx = tuple_to_index(shape, tup)
        assert index_to_tuple(shape, idx) == tup
        seen.append(idx)
    assert seen == list(range(len(seen)))


def test_shape_of():
    a = FiniteSpace.uniform(2)
    b = FiniteSpace.uniform(3)
    assert shape_of([a, b, a]) == (2, 3, 2)


def test_iter_tuples_of_the_empty_shape_is_one_empty_tuple():
    assert list(iter_tuples(())) == [()]
    first = [(0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 0, 0)]
    assert list(iter_tuples((2, 1, 3)))[:4] == first


def test_space_size_names_the_shape_past_the_cap():
    assert space_size(()) == 1
    assert space_size((256, 256)) == SIZE_CAP
    with pytest.raises(ResourceLimitError, match=r"shape 1 x 257 x 257 exceeds the cap"):
        space_size((1, 257, 257))
    # stops at the first axis past the cap, whatever follows
    with pytest.raises(ResourceLimitError, match=r"shape (2 x ){16}2 x \.\.\. exceeds"):
        space_size([2] * 1000)


def test_product_space_is_capped():
    big = FiniteSpace.uniform(257)
    with pytest.raises(ResourceLimitError, match=r"257 x 257"):
        product_space([big, big])
    edge = FiniteSpace.uniform(256)
    assert product_space([edge, edge]).atom_count == SIZE_CAP
    with pytest.raises(ResourceLimitError, match=r"shape 65537 exceeds"):
        FiniteSpace.uniform(SIZE_CAP + 1)
    assert FiniteSpace.uniform(SIZE_CAP).atom_count == SIZE_CAP


def test_flat_index_maps_are_capped():
    with pytest.raises(ResourceLimitError, match=r"257 x 257"):
        flat_index_map((257, 257), [[0] * 257] * 2)
    shape = (2,) * 17
    with pytest.raises(ResourceLimitError):
        moved_index_map(shape, [[1, 0]] * 17)
    with pytest.raises(ResourceLimitError):
        projection_map(shape, (0,))
    with pytest.raises(ResourceLimitError):
        embedding_map(shape, tuple(range(17)))
    assert len(flat_index_map((256, 256), [[0] * 256] * 2)) == SIZE_CAP


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_orbit_labels_match_a_brute_force_closure(data):
    size = data.draw(st.integers(1, 30))
    # a few transpositions leave many orbits; a random permutation, few
    atom = st.integers(0, size - 1)
    swaps = st.lists(st.tuples(atom, atom), max_size=4)
    maps = []
    for pairs in data.draw(st.lists(swaps, max_size=3)):
        images = list(range(size))
        for a, b in pairs:
            images[a], images[b] = images[b], images[a]
        maps.append(images)
    maps += data.draw(st.lists(st.permutations(range(size)), max_size=1))
    # close each not yet seen point, in increasing order, under the maps
    orbit_of = {}
    count = 0
    for start in range(size):
        if start in orbit_of:
            continue
        orbit_of[start] = count
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for images in maps:
                if images[x] not in orbit_of:
                    orbit_of[images[x]] = count
                    frontier.append(images[x])
        count += 1
    assert orbit_labels(size, maps) == [orbit_of[i] for i in range(size)]
    if len(maps) == 1:
        auto = Automorphism(FiniteSpace.uniform(size), tuple(maps[0]))
        assert orbit_count(auto) == count


def sympy_orbit_labels(size, maps):
    """Orbit labels from sympy's orbit computation, numbered by each orbit's
    least point: an implementation independent of the stack walks above."""
    from sympy.combinatorics import Permutation, PermutationGroup

    gens = [Permutation(list(m)) for m in maps] or [Permutation(list(range(size)))]
    orbits = sorted(PermutationGroup(gens).orbits(), key=min)
    labels = [0] * size
    for label, orbit in enumerate(orbits):
        for x in orbit:
            labels[x] = label
    return labels


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_orbit_labels_match_sympy_orbits(data):
    size = data.draw(st.integers(1, 40))
    maps = data.draw(st.lists(st.permutations(range(size)), max_size=3))
    assert orbit_labels(size, maps) == sympy_orbit_labels(size, maps)


@pytest.mark.parametrize(
    "k, order, count", [(1, 2, None), (1, 4, None), (2, 2, None), (2, 3, 10), (3, 3, 20)]
)
def test_orbit_labels_of_z2k_diagonal_actions_match_sympy(k, order, count):
    from joinlab.torus import Z2kContext, full_action

    action = full_action(Z2kContext(k))
    shape = (action.space.atom_count,) * order
    maps = [moved_index_map(shape, (g.perm,) * order) for g in action.generators]
    size = space_size(shape)
    labels = orbit_labels(size, iter(maps))  # any iterable of maps, read once
    assert labels == sympy_orbit_labels(size, maps)
    if count is not None:  # the orbit counts of the polytope certificates
        assert max(labels) + 1 == count
