"""The ``Fraction`` weight arithmetic of ``spaces`` before each space kept
an integer form, kept verbatim as an oracle: a product multiplies the
factors' ``Fraction`` weights, and a mass adds ``Fraction`` weights up."""

from fractions import Fraction


def product_weights(spaces) -> tuple[Fraction, ...]:
    """Weights of the product space, atoms in lexicographic order."""
    weights = [Fraction(1)]
    for sp in spaces:
        weights = [w * v for w in weights for v in sp.weights]
    return tuple(weights)


def mass(space, atoms) -> Fraction:
    """Total weight of the given atoms."""
    return sum((space.weights[a] for a in atoms), Fraction(0))
