"""Skew-product cocycle tests: algebraic identities, frozen rigidity and
relative-mixing values, and the seed-deterministic sampler."""

import random
from fractions import Fraction

import pytest

from joinlab import (
    Automorphism,
    FiniteSpace,
    InvalidInputError,
    MeasurableSet,
    SkewProduct,
    as_automorphism,
    averaging_operator,
    coboundary_extension,
    cocycle_product,
    compose,
    dist_w,
    is_ergodic,
    koopman,
    relative_mixing_fraction,
    relative_product,
    relative_weak_mixing_average,
    rigidity_statistic,
    sample_random_extension,
)
from joinlab.skew import RigiditySequence

from conftest import random_automorphism, random_space


def random_skew(rng, max_base=5, max_fiber=5):
    base = random_space(rng, max_base)
    fiber = random_space(rng, max_fiber)
    maps = tuple(random_automorphism(rng, fiber) for _ in base.atoms())
    return SkewProduct(base, fiber, random_automorphism(rng, base), maps)


def cycle(space):
    n = space.atom_count
    return Automorphism(space, tuple((i + 1) % n for i in range(n)))


def product_skew(base, fiber):
    """S x Id as a skew product."""
    ident = Automorphism.identity(fiber)
    return SkewProduct(base, fiber, cycle(base), (ident,) * base.atom_count)


def test_cocycle_product_at_zero_is_identity():
    rng = random.Random(3)
    for _ in range(20):
        base = random_space(rng, 6, uniform=True)
        fiber = random_space(rng, 5)
        s = random_automorphism(rng, base)
        maps = tuple(random_automorphism(rng, fiber) for _ in base.atoms())
        r = SkewProduct(base, fiber, s, maps)
        for x in base.atoms():
            assert cocycle_product(r, x, 0).is_identity()


def test_cocycle_identity_random():
    rng = random.Random(7)
    for _ in range(40):
        base = random_space(rng, 7, uniform=True)
        fiber = random_space(rng, 6)
        s = random_automorphism(rng, base)
        maps = tuple(random_automorphism(rng, fiber) for _ in base.atoms())
        r = SkewProduct(base, fiber, s, maps)
        x = rng.randrange(base.atom_count)
        p = rng.randint(0, 12)
        q = rng.randint(0, 12)
        lhs = cocycle_product(r, x, p + q)
        sp_x = s.power(p).perm[x]
        rhs = compose(cocycle_product(r, sp_x, q), cocycle_product(r, x, p))
        assert lhs.perm == rhs.perm


def test_coboundary_telescopes():
    rng = random.Random(11)
    base = FiniteSpace.uniform(6)
    fiber = FiniteSpace.uniform(5)
    s = random_automorphism(rng, base)
    j_family = tuple(random_automorphism(rng, fiber) for _ in base.atoms())
    r = coboundary_extension(s, j_family)
    for x in base.atoms():
        for p in (0, 1, 3, 9):
            expected = compose(j_family[s.power(p).perm[x]].inverse(), j_family[x])
            assert cocycle_product(r, x, p).perm == expected.perm


def test_flattened_automorphism_matches_skew():
    base = FiniteSpace.uniform(3)
    fiber = FiniteSpace.uniform(2)
    swap = Automorphism(fiber, (1, 0))
    r = SkewProduct(base, fiber, cycle(base), (swap, swap, Automorphism.identity(fiber)))
    flat = as_automorphism(r)
    nf = fiber.atom_count
    for x in base.atoms():
        for y in range(nf):
            got = flat.perm[x * nf + y]
            want_x = r.base_map.perm[x]
            want_y = r.cocycle[x].perm[y]
            assert got == want_x * nf + want_y


def test_rigidity_statistic_frozen():
    # product extension over the four-cycle: the cocycle is always the
    # identity, so only the return-time condition matters
    base = FiniteSpace.uniform(4)
    fiber = FiniteSpace.uniform(2)
    r = product_skew(base, fiber)
    a = MeasurableSet(base, frozenset({0, 1}))
    assert rigidity_statistic(r, a, 2, [1, 4, 2]) == [Fraction(1, 4), Fraction(1, 2), 0]


def test_rigidity_statistic_validation():
    base = FiniteSpace.uniform(4)
    fiber = FiniteSpace.uniform(2)
    r = product_skew(base, fiber)
    wrong = MeasurableSet(fiber, frozenset({0}))
    with pytest.raises(InvalidInputError):
        rigidity_statistic(r, wrong, 2, [1])
    a = MeasurableSet(base, frozenset({0}))
    with pytest.raises(InvalidInputError):
        rigidity_statistic(r, a, 0, [1])
    with pytest.raises(InvalidInputError):
        rigidity_statistic(r, a, 2, [1, -1])


def test_rigidity_sequence_validation():
    assert RigiditySequence((1, 2, 5)).times == (1, 2, 5)
    with pytest.raises(InvalidInputError):
        RigiditySequence((2, 2))
    with pytest.raises(InvalidInputError):
        RigiditySequence((0, 1))
    with pytest.raises(InvalidInputError):
        RigiditySequence(())


def test_relative_mixing_fraction_frozen():
    base = FiniteSpace.uniform(4)
    fiber = FiniteSpace.uniform(2)
    r = product_skew(base, fiber)
    # identity cocycle sits at distance 1/2 from the averaging operator
    assert relative_mixing_fraction(r, 1, Fraction(2)) == 1
    assert relative_mixing_fraction(r, 1, Fraction(1)) == 1
    assert relative_mixing_fraction(r, 1, Fraction(1, 2)) == 0
    with pytest.raises(InvalidInputError):
        relative_mixing_fraction(r, 1, Fraction(0))
    with pytest.raises(InvalidInputError):
        relative_mixing_fraction(r, -1, Fraction(1))


def test_relative_mixing_fraction_is_a_threshold_on_the_smallest_fiber_weight():
    # every permutation's Koopman kernel is 1 - min w from the averaging
    # operator, so the statistic is all or nothing in eps
    rng = random.Random(11)
    for _ in range(150):
        r = random_skew(rng)
        threshold = 1 - min(r.fiber.weights)
        assert dist_w(koopman(random_automorphism(rng, r.fiber)),
                      averaging_operator(r.fiber)) == threshold
        p = rng.randint(0, 6)
        for eps in (threshold, threshold + Fraction(1, 97),
                    Fraction(rng.randint(1, 30), rng.randint(1, 20))):
            expected = 1 if eps > threshold else 0
            assert relative_mixing_fraction(r, p, eps) == expected


def test_relative_mixing_fraction_on_a_one_atom_fiber_is_full_mass():
    base, fiber = FiniteSpace.uniform(3), FiniteSpace.uniform(1)
    r = product_skew(base, fiber)
    assert relative_mixing_fraction(r, 2, Fraction(1, 10**9)) == 1


def test_relative_weak_mixing_average_frozen():
    base = FiniteSpace.uniform(2)
    fiber = FiniteSpace.uniform(2)
    r = product_skew(base, fiber)
    a = MeasurableSet(fiber, frozenset({0}))
    # C(x, p) A = A always, so every summand is (1/2 - 1/4)^2 = 1/16
    for n in (1, 2, 5):
        assert relative_weak_mixing_average(r, a, a, n) == Fraction(1, 16)
    other = FiniteSpace.uniform(3)
    with pytest.raises(InvalidInputError):
        relative_weak_mixing_average(r, MeasurableSet(other, frozenset({0})), a, 1)
    with pytest.raises(InvalidInputError):
        relative_weak_mixing_average(r, a, a, 0)


def test_relative_product_structure():
    base = FiniteSpace.uniform(2)
    fiber = FiniteSpace.uniform(2)
    swap = Automorphism(fiber, (1, 0))
    r = SkewProduct(base, fiber, Automorphism(base, (1, 0)), (swap, Automorphism.identity(fiber)))
    rp = relative_product(r)
    assert rp.space.atom_count == 8
    # (0, y, y') -> (1, swap y, swap y')
    assert rp.perm[0 * 4 + 0 * 2 + 0] == 1 * 4 + 1 * 2 + 1
    assert rp.perm[0 * 4 + 1 * 2 + 0] == 1 * 4 + 0 * 2 + 1
    # (1, y, y') -> (0, y, y')
    assert rp.perm[1 * 4 + 1 * 2 + 0] == 0 * 4 + 1 * 2 + 0


def test_is_ergodic():
    space = FiniteSpace.uniform(4)
    assert is_ergodic(cycle(space))
    assert not is_ergodic(Automorphism.identity(space))
    assert not is_ergodic(Automorphism(space, (1, 0, 3, 2)))


def test_sampler_seed_deterministic():
    base = FiniteSpace.uniform(5)
    fiber = FiniteSpace.uniform(4)
    s = cycle(base)
    for mode in ("iid-cocycle", "random-coboundary"):
        r1 = sample_random_extension(s, fiber, 42, mode)
        r2 = sample_random_extension(s, fiber, 42, mode)
        assert tuple(m.perm for m in r1.cocycle) == tuple(m.perm for m in r2.cocycle)
        r3 = sample_random_extension(s, fiber, 43, mode)
        assert r3.base_map.perm == s.perm
    with pytest.raises(InvalidInputError):
        sample_random_extension(s, fiber, 1, "surprise")
    with pytest.raises(InvalidInputError):
        sample_random_extension(s, fiber, "1", "iid-cocycle")


def test_sampler_coboundary_mode_telescopes():
    base = FiniteSpace.uniform(6)
    fiber = FiniteSpace.uniform(4)
    s = Automorphism(base, (2, 0, 1, 4, 5, 3))
    r = sample_random_extension(s, fiber, 9, "random-coboundary")
    # a coboundary cocycle composed around any full cycle of the base map
    # returns to the identity
    for x in base.atoms():
        period = 1
        cur = s.perm[x]
        while cur != x:
            cur = s.perm[cur]
            period += 1
        assert cocycle_product(r, x, period).is_identity()


def test_sampler_respects_fiber_weights():
    base = FiniteSpace.uniform(3)
    fiber = FiniteSpace((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    s = cycle(base)
    r = sample_random_extension(s, fiber, 7, "iid-cocycle")
    for m in r.cocycle:
        assert m.perm[0] == 0  # the unique heavy atom is fixed
