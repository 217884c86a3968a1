"""The integer form every ``FiniteSpace`` keeps, against the ``Fraction``
arithmetic in ``weights_oracle``: the form is the canonical one, product
weights are the ``Fraction`` products, and masses the ``Fraction`` sums.

Weights are drawn non-uniform, as positive parts over their total, so the
reduced denominators differ from atom to atom."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import weights_oracle as oracle
from joinlab import (
    FiniteSpace,
    JoiningTensor,
    MeasurableSet,
    product_joining,
    product_space,
)
from joinlab.spaces import integer_form

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)


@st.composite
def spaces(draw, max_atoms=5) -> FiniteSpace:
    parts = draw(st.lists(st.integers(1, 12), min_size=1, max_size=max_atoms))
    total = sum(parts)
    return FiniteSpace(tuple(Fraction(p, total) for p in parts))


@PROPERTY
@given(spaces(max_atoms=8))
def test_form_is_the_canonical_integer_form(space):
    assert (space.numerators, space.denominator) == integer_form(space.weights)


@PROPERTY
@given(st.lists(spaces(), min_size=1, max_size=3))
def test_product_weights_are_the_fraction_products(factors):
    prod = product_space(factors)
    assert prod.weights == oracle.product_weights(factors)
    assert (prod.numerators, prod.denominator) == integer_form(prod.weights)
    assert product_joining(factors).entries == prod.weights


@PROPERTY
@given(st.lists(spaces(), min_size=1, max_size=4))
def test_product_joining_equals_the_validated_tensor(factors):
    # product_joining skips validation: its tensor must be the one the
    # validating constructor builds from the same entries
    fast = product_joining(factors)
    checked = JoiningTensor(tuple(factors), fast.entries)
    assert type(fast) is JoiningTensor
    assert fast.factors == checked.factors
    assert fast.entries == checked.entries
    assert fast.numerators == checked.numerators
    assert fast.denominator == checked.denominator
    assert type(fast.numerators) is tuple and fast == checked


@PROPERTY
@given(spaces(), spaces(), spaces())
def test_three_factor_product_weights(a, b, c):
    assert product_space([a, b, c]).weights == oracle.product_weights([a, b, c])


@PROPERTY
@given(st.data())
def test_mass_is_the_fraction_sum(data):
    space = data.draw(spaces(max_atoms=8))
    atoms = data.draw(st.frozensets(st.sampled_from(range(space.atom_count))))
    assert space.mass(atoms) == oracle.mass(space, atoms)
    assert MeasurableSet(space, atoms).measure == oracle.mass(space, atoms)


def test_mass_of_no_atoms_is_zero():
    space = FiniteSpace(tuple(Fraction(p, 6) for p in (1, 2, 3)))
    assert space.mass(()) == oracle.mass(space, ()) == 0
    assert space.mass(range(3)) == 1
