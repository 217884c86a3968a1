"""A census of single-generator actions on uniform spaces.

Two actions by conjugate permutations of N uniform atoms have the same
certificate, and their conjugacy class is the cycle type, a partition of
N.  So one permutation per partition covers every single-generator action.
At order n with m-wise independence no invariant joining lies farther
from the product than the face bound B = 1/N^m - 1/N^n.

At order 3 with pairwise independence every action on N = 2 to 7 atoms
reaches B = (N-1)/N^3.  The one exception is the transposition of two
atoms, whose pairwise independent joinings are all the product.  At order
4, on N = 2 to 4 atoms with m = 2 and m = 3, every action reaches B but
three at m = 2: the transposition and the identity on two atoms, and the
3-cycle on three.  The identity on 7 atoms at order 3 and on 4 atoms at
order 4 take seconds each and are left out; they reach B too.

Where the value is B, a proof needs no simplex.  Every entry of a point
of the polytope is at most the weight of its m-cell, so no point lies
farther than B from the product, and ``polytope._deviation_bound`` never
exceeds B.  An invariant joining with independent m-faces at distance B
from the product is a matching lower bound.  Three families give one:
the N-cycle at order 3 for odd N, uniform on z = (x + y)/2 mod N; the
identity on N atoms at order 3, uniform on the Cayley table z = x + y
mod N; and Z_2^k at order 4 with m = 3, where the witness is
``triple_sum_joining``.  At k = 4 this proves (4,4,3) = 15/65536, a value
the simplex takes seconds to reach.
"""

from fractions import Fraction

import pytest

from joinlab import (
    ActionGenerators,
    Automorphism,
    FiniteSpace,
    JoiningTensor,
    PolytopeSpec,
    Z2kContext,
    certify_triviality,
    diagonal_invariance_defect,
    face_independence_defect,
    full_action,
    triple_sum_joining,
)
from joinlab.polytope import _deviation_bound, _reduce
from joinlab.spaces import product_form


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


def _census(sizes, slow):
    """(N, cycle type) for every N of ``sizes`` and every partition of N
    other than the identity on ``slow`` atoms."""
    return [(n, cycle_type) for n in sizes for cycle_type in _partitions(n)
            if (n, cycle_type) != (slow, (1,) * slow)]


def _ids(cases):
    return [f"{n}-{'.'.join(map(str, c))}" for n, c in cases]


CENSUS = _census(range(2, 8), 7)
ORDER4_CENSUS = _census(range(2, 5), 4)


def test_the_census_lists_every_cycle_type_once():
    # p(2) + ... + p(7) - 1 = 2 + 3 + 5 + 7 + 11 + 15 - 1, and
    # p(2) + p(3) + p(4) - 1 = 2 + 3 + 5 - 1
    for cases, count in ((CENSUS, 42), (ORDER4_CENSUS, 9)):
        assert len(cases) == len(set(cases)) == count
        assert all(sum(cycle_type) == n for n, cycle_type in cases)


def _certificate(n, cycle_type, order, m):
    space = FiniteSpace.uniform(n)
    action = ActionGenerators(space, (Automorphism(space, _cycles(cycle_type)),))
    cert = certify_triviality(PolytopeSpec(action, order, m))
    return cert.trivial, cert.max_deviation


@pytest.mark.parametrize("n, cycle_type", CENSUS, ids=_ids(CENSUS))
def test_order3_pairwise_certificate_is_the_face_bound(n, cycle_type):
    cert = _certificate(n, cycle_type, 3, 2)
    if cycle_type == (2,):
        assert cert == (True, 0)
    else:
        assert cert == (False, Fraction(n - 1, n**3))


# (N, cycle type, m) -> the order-4 value where it is not the face bound
ORDER4_EXCEPTIONS = {
    (2, (2,), 2): Fraction(1, 16),
    (2, (1, 1), 2): Fraction(5, 48),
    (3, (3,), 2): Fraction(22, 405),
}


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n, cycle_type", ORDER4_CENSUS, ids=_ids(ORDER4_CENSUS))
def test_order4_certificate_is_the_face_bound(n, cycle_type, m):
    bound = Fraction(1, n**m) - Fraction(1, n**4)
    want = ORDER4_EXCEPTIONS.get((n, cycle_type, m), bound)
    assert _certificate(n, cycle_type, 4, m) == (False, want)


def _face_bound(spec) -> Fraction:
    """``_deviation_bound`` on ``spec``, read from its face rows alone."""
    red = _reduce(spec)
    nums, den = product_form((spec.action.space,) * spec.order)
    target = [0] * red.count
    for t, o in zip(nums, red.orbit):
        target[o] = t
    num, q = _deviation_bound(spec, red, target, den)
    return Fraction(num, q * den)


def _assert_proof(v, action, m, bound):
    """``v`` is an invariant joining with independent m-faces at distance
    ``bound`` from the product, and ``bound`` is the polytope's upper
    bound: together they prove that ``bound`` is its max_deviation."""
    assert diagonal_invariance_defect(v, action) == 0
    assert face_independence_defect(v, m) == 0
    assert face_independence_defect(v, v.order) == bound
    assert _face_bound(PolytopeSpec(action, v.order, m)) == bound


def _uniform_on(space, cells):
    """The joining uniform on ``cells``, triples of atoms of ``space``."""
    weight = Fraction(1, len(cells))
    return JoiningTensor.from_nonzero((space,) * 3, {cell: weight for cell in cells})


@pytest.mark.parametrize("n", range(3, 32, 2))
def test_odd_cycle_order3_proof_without_lp(n):
    space = FiniteSpace.uniform(n)
    action = ActionGenerators(space, (Automorphism(space, _cycles((n,))),))
    half = (n + 1) // 2  # the inverse of 2 mod n
    v = _uniform_on(space, [(x, y, (x + y) * half % n) for x in range(n) for y in range(n)])
    _assert_proof(v, action, 2, Fraction(n - 1, n**3))


@pytest.mark.parametrize("n", range(2, 17))
def test_identity_order3_proof_without_lp(n):
    space = FiniteSpace.uniform(n)
    action = ActionGenerators(space, (Automorphism.identity(space),))
    v = _uniform_on(space, [(x, y, (x + y) % n) for x in range(n) for y in range(n)])
    _assert_proof(v, action, 2, Fraction(n - 1, n**3))


@pytest.mark.parametrize("k", range(1, 5))
def test_z2k_order4_proof_without_lp(k):
    ctx = Z2kContext(k)
    bound = Fraction(1, 2 ** (3 * k)) - Fraction(1, 2 ** (4 * k))
    _assert_proof(triple_sum_joining(ctx), full_action(ctx), 3, bound)
    if k == 4:
        assert bound == Fraction(15, 65536)
