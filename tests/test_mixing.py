"""Higher-order mixing tests: correlations, offset sweeps and the offset
joining."""

import random
from fractions import Fraction

import pytest

from joinlab import (
    Automorphism,
    FiniteSpace,
    InvalidInputError,
    MeasurableSet,
    ResourceLimitError,
    correlation,
    diagonal_invariance_defect,
    ActionGenerators,
    marginal,
    mixing_deviation_sweep_detail,
    offset_joining,
)

from conftest import random_automorphism, random_space, random_subset


def cycle(space):
    n = space.atom_count
    return Automorphism(space, tuple((i + 1) % n for i in range(n)))


def full_set(space):
    return MeasurableSet(space, frozenset(space.atoms()))


def _offset_takers():
    """Each public function that reads an offset vector, as a call of the
    offsets alone on a 2-cycle."""
    space = FiniteSpace.uniform(2)
    t = cycle(space)
    sets = [full_set(space)] * 2
    return (
        lambda k: correlation(t, sets, k),
        lambda k: offset_joining(t, k),
    )


def test_offset_vector_validation():
    # one check serves every reader: a list reads as the tuple; an empty
    # vector, a bare int, a float and a nonpositive entry are refused
    for call in _offset_takers():
        assert call([1]) == call((1,))
        with pytest.raises(InvalidInputError, match="^offset vector must be nonempty$"):
            call(())
        for bad in ((0,), (-1, 2), (1.5,), 1, None):
            with pytest.raises(InvalidInputError) as err:
                call(bad)
            assert str(err.value) == f"offsets must be positive ints, got {bad!r}"


def test_offset_vector_refuses_bools():
    for call in _offset_takers():
        for bad in ((True,), (1, False), True):
            with pytest.raises(InvalidInputError) as err:
                call(bad)
            assert str(err.value) == f"offsets must be positive ints, got {bad!r}"

def test_correlation_full_sets_is_one():
    space = FiniteSpace.uniform(5)
    t = cycle(space)
    sets = [full_set(space)] * 3
    assert correlation(t, sets, (1, 2)) == 1


def test_correlation_frozen_four_cycle():
    space = FiniteSpace.uniform(4)
    t = cycle(space)
    a = MeasurableSet(space, frozenset({0, 1}))
    # A ^ S A = {1}, so the pair correlation at offset 1 is 1/4
    assert correlation(t, [a, a], (1,)) == Fraction(1, 4)
    # A ^ S^2 A is empty
    assert correlation(t, [a, a], (2,)) == 0


def test_correlation_identity_map_gives_intersection_mass():
    rng = random.Random(19)
    for _ in range(25):
        space = random_space(rng, 8)
        t = Automorphism.identity(space)
        sets = [random_subset(rng, space) for _ in range(3)]
        inter = sets[0].atoms & sets[1].atoms & sets[2].atoms
        expected = sum((space.weights[x] for x in inter), Fraction(0))
        assert correlation(t, sets, (1, 5)) == expected


def test_correlation_set_count_must_match():
    space = FiniteSpace.uniform(3)
    t = cycle(space)
    with pytest.raises(InvalidInputError):
        correlation(t, [full_set(space)] * 2, (1, 1))


def test_sweep_frozen_identity():
    space = FiniteSpace.uniform(2)
    t = Automorphism.identity(space)
    a = MeasurableSet(space, frozenset({0}))
    # mu(A ^ A) = 1/2 vs product 1/4: deviation 1/4 at every offset
    detail = mixing_deviation_sweep_detail(t, [a, a], 3)
    assert detail.max_deviation == Fraction(1, 4)
    assert detail.argmax_offsets == (1,)
    assert detail.product_value == Fraction(1, 4)


def test_sweep_empty_set_deviation_zero():
    space = FiniteSpace.uniform(2)
    t = cycle(space)
    empty = MeasurableSet(space, frozenset())
    a = full_set(space)
    detail = mixing_deviation_sweep_detail(t, [empty, a], 2)
    assert detail.max_deviation == 0
    assert detail.product_value == 0


def test_sweep_matches_brute_force():
    rng = random.Random(23)
    for _ in range(15):
        space = random_space(rng, 6)
        t = random_automorphism(rng, space)
        sets = [random_subset(rng, space) for _ in range(3)]
        k_range = 3
        product = Fraction(1)
        for a in sets:
            product *= a.measure
        best = None
        arg = None
        for k1 in range(1, k_range + 1):
            for k2 in range(1, k_range + 1):
                dev = abs(correlation(t, sets, (k1, k2)) - product)
                if best is None or dev > best:
                    best, arg = dev, (k1, k2)
        detail = mixing_deviation_sweep_detail(t, sets, k_range)
        assert detail.max_deviation == best
        assert detail.argmax_offsets == arg
        assert detail.product_value == product


def test_offset_joining_frozen_swap():
    space = FiniteSpace.uniform(2)
    swap = Automorphism(space, (1, 0))
    v = offset_joining(swap, (1, 1))
    assert v.value((0, 1, 0)) == Fraction(1, 2)
    assert v.value((1, 0, 1)) == Fraction(1, 2)
    assert v.value((0, 0, 0)) == 0


def test_offset_joining_marginals_and_invariance():
    rng = random.Random(29)
    for _ in range(20):
        space = random_space(rng, 6)
        t = random_automorphism(rng, space)
        offs = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        v = offset_joining(t, offs)
        for i in range(len(offs) + 1):
            got = marginal(v, (i,))
            assert got.entries == space.weights
        action = ActionGenerators(space, (t,))
        assert diagonal_invariance_defect(v, action) == 0


def test_offset_joining_pairs_with_correlation():
    rng = random.Random(31)
    for _ in range(20):
        space = random_space(rng, 6)
        t = random_automorphism(rng, space)
        offs = tuple(rng.randint(1, 3) for _ in range(2))
        sets = [random_subset(rng, space) for _ in range(3)]
        v = offset_joining(t, offs)
        mass = Fraction(0)
        for tup, x in v.nonzero():
            if all(z in a.atoms for z, a in zip(tup, sets)):
                mass += x
        assert mass == correlation(t, sets, offs)


def test_offset_joining_size_cap():
    space = FiniteSpace.uniform(17)
    t = cycle(space)
    with pytest.raises(ResourceLimitError):
        offset_joining(t, (1, 1, 1, 1))
