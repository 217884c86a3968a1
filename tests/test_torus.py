"""Tests for the uniform two-group systems: bit conventions, the symmetry
action, the order-4 sum joining, and the Fourier synthesis."""

import random
from fractions import Fraction

import pytest

from joinlab import (
    InvalidInputError,
    ResourceLimitError,
    Z2kContext,
    compose,
    diagonal_invariance_defect,
    face_independence_defect,
    fourier_joining,
    full_action,
    marginal,
    permutation_automorphism,
    product_joining,
    shift_automorphism,
    sup_distance,
    triple_sum_joining,
)

import tensor_oracle as oracle


def test_context_validation():
    for bad in (0, 5, -1, "2", 2.0):
        with pytest.raises(InvalidInputError):
            Z2kContext(bad)
    assert Z2kContext(4).group_order == 16


def test_context_refuses_a_bool():
    with pytest.raises(InvalidInputError, match="got True"):
        Z2kContext(True)

def test_bits_atom_roundtrip():
    for k in range(1, 5):
        ctx = Z2kContext(k)
        for atom in range(ctx.group_order):
            bits = ctx.bits(atom)
            assert len(bits) == k
            assert ctx.atom(bits) == atom
        # leading bit is the most significant
        assert ctx.atom((1,) + (0,) * (k - 1)) == 2 ** (k - 1)
    with pytest.raises(InvalidInputError):
        Z2kContext(2).bits(4)
    with pytest.raises(InvalidInputError):
        Z2kContext(2).atom((0, 2))


def test_permutation_automorphisms_compose_contravariantly():
    ctx = Z2kContext(3)
    rng = random.Random(5)
    for _ in range(20):
        sigma = list(range(3))
        tau = list(range(3))
        rng.shuffle(sigma)
        rng.shuffle(tau)
        t_sigma = permutation_automorphism(ctx, sigma)
        t_tau = permutation_automorphism(ctx, tau)
        # acting on coordinates by sigma then tau equals acting once by
        # the composite sigma o tau read right to left
        combined = permutation_automorphism(ctx, [sigma[tau[i]] for i in range(3)])
        assert compose(t_tau, t_sigma).perm == combined.perm


def test_shift_automorphisms_are_xor_involutions():
    ctx = Z2kContext(3)
    for alpha_atom in range(ctx.group_order):
        alpha = ctx.bits(alpha_atom)
        s = shift_automorphism(ctx, alpha)
        assert s.perm == tuple(x ^ alpha_atom for x in range(ctx.group_order))
        assert compose(s, s).is_identity()


def test_full_action_generator_count():
    for k in range(1, 5):
        gens = full_action(Z2kContext(k)).generators
        assert len(gens) == 2 * k - 1


def test_full_action_holds_the_contexts_one_space():
    for k in range(1, 5):
        ctx = Z2kContext(k)
        action = full_action(ctx)
        assert ctx.space is ctx.space
        assert action.space is ctx.space
        assert all(g.space is ctx.space for g in action.generators)
        # the space is derived from k, so it stays out of equality and repr
        assert ctx == Z2kContext(k) and hash(ctx) == hash(Z2kContext(k))
        assert repr(ctx) == f"Z2kContext(k={k})"


def test_triple_sum_joining_frozen_k1():
    ctx = Z2kContext(1)
    v = triple_sum_joining(ctx)
    support = {t for t, _ in v.nonzero()}
    assert support == {
        t
        for t in [(a, b, c, (a + b + c) % 2) for a in range(2) for b in range(2) for c in range(2)]
    }
    assert all(x == Fraction(1, 8) for _, x in v.nonzero())
    assert face_independence_defect(v, 3) == 0
    assert diagonal_invariance_defect(v, full_action(ctx)) == 0


def test_triple_sum_sup_distance_formula():
    for k in (1, 2):
        ctx = Z2kContext(k)
        v = triple_sum_joining(ctx)
        prod = product_joining([ctx.space] * 4)
        expected = Fraction(1, 2 ** (3 * k)) - Fraction(1, 2 ** (4 * k))
        assert sup_distance(v, prod) == expected


def test_fourier_joining_roundtrip():
    ctx = Z2kContext(1)
    coeffs = {
        ((0,), (0,), (0,)): Fraction(1),
        ((1,), (1,), (1,)): Fraction(1),
    }
    v = fourier_joining(ctx, 3, coeffs)
    # this is the parity measure
    assert dict(v.nonzero()) == {
        t: Fraction(1, 4)
        for t in [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    }
    for key, c in coeffs.items():
        assert oracle.character_coefficient(v.entries, 1, 3, [ctx.atom(a) for a in key]) == c
    assert oracle.character_coefficient(v.entries, 1, 3, (1, 0, 0)) == 0


def test_fourier_joining_requires_unit_mass_coefficient():
    ctx = Z2kContext(1)
    with pytest.raises(InvalidInputError):
        fourier_joining(ctx, 2, {((1,), (1,)): Fraction(1)})
    with pytest.raises(InvalidInputError):
        fourier_joining(
            ctx, 2, {((0,), (0,)): Fraction(1, 2), ((1,), (1,)): Fraction(1)}
        )


def test_fourier_joining_rejects_negative_entries():
    ctx = Z2kContext(1)
    with pytest.raises(InvalidInputError):
        fourier_joining(
            ctx,
            2,
            {((0,), (0,)): Fraction(1), ((1,), (1,)): Fraction(2)},
        )


def test_fourier_joining_rejects_duplicates_and_bad_keys():
    ctx = Z2kContext(1)
    with pytest.raises(InvalidInputError):
        fourier_joining(
            ctx,
            2,
            {((0,), (0,)): Fraction(1), ((1,),): Fraction(1, 2)},
        )
    with pytest.raises(ResourceLimitError):
        fourier_joining(Z2kContext(4), 5, {(((0,) * 4),) * 5: Fraction(1)})


def test_fourier_orbit_family_k2():
    # two orbit-summed coefficient families produce a pairwise independent
    # invariant joining distinct from the product
    ctx = Z2kContext(2)
    quarter = Fraction(1, 4)
    coeffs = {(((0, 0),) * 3): Fraction(1)}
    for trip in [
        ((1, 0), (0, 1), (1, 1)),
        ((0, 1), (1, 0), (1, 1)),
    ]:
        for key in _cyclic_orbit(trip):
            coeffs[key] = quarter
    v = fourier_joining(ctx, 3, coeffs)
    assert face_independence_defect(v, 2) == 0
    assert diagonal_invariance_defect(v, full_action(ctx)) == 0
    assert sup_distance(v, product_joining([ctx.space] * 3)) > 0


def _cyclic_orbit(trip):
    t = tuple(trip)
    return {t, t[1:] + t[:1], t[2:] + t[:2]}


def test_marginals_of_fourier_joining_are_uniform():
    ctx = Z2kContext(1)
    v = fourier_joining(
        ctx,
        3,
        {((0,), (0,), (0,)): Fraction(1), ((1,), (1,), (1,)): Fraction(1, 2)},
    )
    for i in range(3):
        got = marginal(v, (i,))
        assert dict(got.nonzero()) == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
