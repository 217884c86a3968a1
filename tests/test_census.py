"""A census of single-generator actions on uniform spaces.

Two actions by conjugate permutations of N uniform atoms have the same
certificate, and their conjugacy class is the cycle type, a partition of
N.  So one permutation per partition covers every single-generator action.
At order 3 with pairwise independence every one of them, on N = 2 to 6
atoms, reaches the face bound 1/N^2 - 1/N^3 = (N-1)/N^3, the farthest
any invariant joining with independent pairs lies from the product.  The
one exception is the transposition of two atoms, whose pairwise
independent joinings are all the product.
"""

from fractions import Fraction

import pytest

from joinlab import (
    ActionGenerators,
    Automorphism,
    FiniteSpace,
    PolytopeSpec,
    certify_triviality,
)


def _partitions(n: int, largest: int | None = None):
    """Every partition of ``n`` into parts of at most ``largest``, each
    listed once, its parts in falling order."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, n if largest is None else largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def _cycles(cycle_type) -> tuple[int, ...]:
    """A permutation of ``sum(cycle_type)`` atoms with that cycle type:
    each cycle shifts a run of consecutive atoms by one."""
    perm, start = [], 0
    for length in cycle_type:
        perm += [start + (i + 1) % length for i in range(length)]
        start += length
    return tuple(perm)


CENSUS = [(n, cycle_type) for n in range(2, 7) for cycle_type in _partitions(n)]


def test_the_census_lists_every_cycle_type_once():
    # p(2) + ... + p(6) = 2 + 3 + 5 + 7 + 11
    assert len(CENSUS) == len(set(CENSUS)) == 28
    assert all(sum(cycle_type) == n for n, cycle_type in CENSUS)


@pytest.mark.parametrize("n, cycle_type", CENSUS,
                         ids=[f"{n}-{'.'.join(map(str, c))}" for n, c in CENSUS])
def test_order3_pairwise_certificate_is_the_face_bound(n, cycle_type):
    space = FiniteSpace.uniform(n)
    action = ActionGenerators(space, (Automorphism(space, _cycles(cycle_type)),))
    cert = certify_triviality(PolytopeSpec(action, 3, 2))
    if cycle_type == (2,):
        assert (cert.trivial, cert.max_deviation) == (True, 0)
    else:
        assert (cert.trivial, cert.max_deviation) == (False, Fraction(n - 1, n**3))
