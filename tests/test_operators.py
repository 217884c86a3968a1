import random
import tracemalloc
from fractions import Fraction

import pytest

from joinlab import (
    Automorphism,
    FiniteSpace,
    InvalidInputError,
    MarkovOperator,
    ResourceLimitError,
    affine_combination,
    averaging_operator,
    compose,
    compose_operators,
    dist_w,
    identity_operator,
    koopman,
    operator_power,
)

from conftest import random_automorphism, random_operator, random_space
from joinlab.rationals import show

U2 = FiniteSpace.uniform(2)


def test_markov_operator_validation():
    half = Fraction(1, 2)
    MarkovOperator(U2, U2, ((half, half), (half, half)))
    with pytest.raises(InvalidInputError):
        MarkovOperator(U2, U2, ((half, half), (half, 0)))
    with pytest.raises(InvalidInputError):
        MarkovOperator(U2, U2, ((1, 0), (1, 0)))
    with pytest.raises(InvalidInputError):
        MarkovOperator(U2, U2, ((Fraction(3, 2), Fraction(-1, 2)), (half, half)))


THIRD = FiniteSpace((Fraction(1, 3), Fraction(2, 3)))


@pytest.mark.parametrize(
    "source, target, kernel, message",
    [
        # the first negative entry in row order, before any row sum
        (U2, U2, ((1, 0), (Fraction(3, 2), Fraction(-1, 4))),
         "negative kernel entry at [1][1]"),
        # the first row off one, before any column
        (U2, U2, ((1, 0), (Fraction(1, 3), Fraction(1, 6))),
         "row 1 sums to 1/2, expected 1"),
        # the first weighted column off its source weight
        (U2, THIRD, ((1, 0), (1, 0)),
         "weighted column 0 is 1, expected 1/2; "
         "operator does not intertwine the measures"),
        (THIRD, U2, ((Fraction(1, 4), Fraction(3, 4)), (Fraction(1, 2), Fraction(1, 2))),
         "weighted column 0 is 3/8, expected 1/3; "
         "operator does not intertwine the measures"),
    ],
    ids=["negative", "row", "column-target-weights", "column-source-weights"],
)
def test_markov_operator_messages(source, target, kernel, message):
    with pytest.raises(InvalidInputError) as err:
        MarkovOperator(source, target, kernel)
    assert str(err.value) == message


def fraction_check(source, target, kernel):
    """The operator's row and weighted column checks in ``Fraction``
    arithmetic: the message of the first that fails, or None."""
    for t, row in enumerate(kernel):
        for s, x in enumerate(row):
            if x < 0:
                return f"negative kernel entry at [{t}][{s}]"
        if sum(row) != 1:
            return f"row {t} sums to {show(sum(row))}, expected 1"
    for s in source.atoms():
        col = sum((target.weights[t] * kernel[t][s] for t in target.atoms()), Fraction(0))
        if col != source.weights[s]:
            return (f"weighted column {s} is {show(col)}, expected "
                    f"{show(source.weights[s])}; operator does not intertwine the measures")
    return None


def test_markov_operator_checks_match_fraction_arithmetic():
    rng = random.Random(23)
    messages = set()
    for _ in range(400):
        source, target = random_space(rng, 4), random_space(rng, 4)
        kernel = [list(row) for row in random_operator(rng, source, target).kernel]
        # move mass within a row (column off), across rows (row off), or
        # below zero; sometimes twice, so a later failure hides behind an
        # earlier one
        for _ in range(rng.choice((0, 1, 1, 2))):
            t, s = rng.randrange(target.atom_count), rng.randrange(source.atom_count)
            delta = Fraction(rng.randint(-3, 3), rng.randint(1, 6))
            kernel[t][s] += delta
            if rng.random() < 0.5:
                kernel[t][rng.randrange(source.atom_count)] -= delta
        want = fraction_check(source, target, kernel)
        messages.add(want.split(" ")[0] if want else None)
        if want is None:
            assert MarkovOperator(source, target, kernel).kernel == tuple(map(tuple, kernel))
        else:
            with pytest.raises(InvalidInputError) as err:
                MarkovOperator(source, target, kernel)
            assert str(err.value) == want
    assert messages == {None, "negative", "row", "weighted"}


def test_averaging_operator_frozen_examples():
    theta = averaging_operator(U2)
    assert theta.kernel == ((Fraction(1, 2),) * 2,) * 2
    assert compose_operators(theta, theta).kernel == theta.kernel

    skewed = FiniteSpace((Fraction(1, 3), Fraction(2, 3)))
    f = (Fraction(1), Fraction(0))
    kernel = averaging_operator(skewed).kernel
    out = tuple(sum(k * v for k, v in zip(row, f)) for row in kernel)
    assert out == (Fraction(1, 3), Fraction(1, 3))


def test_koopman_evaluates_by_composition():
    sp = FiniteSpace.uniform(4)
    rot = Automorphism(sp, (1, 2, 3, 0))
    f = tuple(Fraction(i) for i in range(4))
    out = tuple(sum(k * v for k, v in zip(row, f)) for row in koopman(rot).kernel)
    assert out == tuple(f[rot(x)] for x in sp.atoms())


def test_koopman_antihomomorphism():
    rng = random.Random(5)
    sp = FiniteSpace.uniform(5)
    for _ in range(20):
        a = random_automorphism(rng, sp)
        b = random_automorphism(rng, sp)
        lhs = koopman(compose(a, b))
        rhs = compose_operators(koopman(b), koopman(a))
        assert lhs.kernel == rhs.kernel


def test_affine_combination_frozen_example():
    mixed = affine_combination(
        Fraction(1, 2), identity_operator(U2), averaging_operator(U2)
    )
    q = Fraction(1, 4)
    assert mixed.kernel == ((3 * q, q), (q, 3 * q))
    with pytest.raises(InvalidInputError):
        affine_combination(Fraction(3, 2), identity_operator(U2), averaging_operator(U2))


def test_dist_w_basics():
    ident = identity_operator(U2)
    theta = averaging_operator(U2)
    assert dist_w(ident, theta) == Fraction(1, 2)
    assert dist_w(ident, ident) == 0
    rng = random.Random(9)
    sp = random_space(rng, 5)
    for _ in range(15):
        p = random_operator(rng, sp, sp)
        q = random_operator(rng, sp, sp)
        r = random_operator(rng, sp, sp)
        assert dist_w(p, q) == dist_w(q, p)
        assert dist_w(p, r) <= dist_w(p, q) + dist_w(q, r)


def test_operator_power_matches_repeated_composition():
    rng = random.Random(2)
    sp = FiniteSpace.uniform(3)
    p = random_operator(rng, sp, sp)
    acc = identity_operator(sp)
    for k in range(5):
        assert operator_power(p, k).kernel == acc.kernel
        acc = compose_operators(p, acc)
    with pytest.raises(InvalidInputError):
        operator_power(p, -1)


def test_compose_requires_matching_spaces():
    sp3 = FiniteSpace.uniform(3)
    with pytest.raises(InvalidInputError):
        compose_operators(identity_operator(U2), identity_operator(sp3))


def test_operator_kernels_are_capped_before_building():
    # a 257 x 257 kernel would hold 66,049 entries in 257 row tuples
    big = FiniteSpace.uniform(257)
    swap = Automorphism(big, (1, 0) + tuple(range(2, 257)))
    for build, arg in ((koopman, swap), (averaging_operator, big)):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=r"257 x 257"):
                build(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
    edge = FiniteSpace.uniform(256)
    assert len(averaging_operator(edge).kernel) == 256
