"""Uniform Z_2^k systems: coordinate permutations, shifts, characters,
and the order-4 joining whose last coordinate is the sum of the first
three.

Atoms are bit-vectors (x_0, ..., x_{k-1}) in lexicographic order, so atom
index = sum of x_i * 2^(k-1-i); group addition is XOR of indices.  The
character attached to a bit-vector a is chi_a(x) = (-1)^(a.x).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction

from .errors import InvalidInputError, Value, require_int
from .joinings import JoiningTensor
from .rationals import as_fraction
from .spaces import (
    SIZE_CAP,  # also read as torus.SIZE_CAP
    ActionGenerators,
    Automorphism,
    FiniteSpace,
    flat_index_map,
    index_to_tuple,
    space_size,
    split_cells,
)

K_CAP = 4


class Z2kContext(Value):
    """Uniform measure on the group Z_2^k, 1 <= k <= 4.  ``space`` is built
    once, so every automorphism made from one context holds the same space
    object; it is derived from ``k`` and left out of equality, hash and
    repr."""

    __slots__ = ("k", "space")
    _fields = ("k",)

    def __init__(self, k: int):
        require_int(k, "k", 1, K_CAP)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "space", FiniteSpace.uniform(2**k))

    @property
    def group_order(self) -> int:
        return 2**self.k

    def bits(self, atom: int) -> tuple[int, ...]:
        if not isinstance(atom, int) or isinstance(atom, bool) or not 0 <= atom < 2**self.k:
            raise InvalidInputError(f"atom {atom} outside the group")
        return tuple((atom >> (self.k - 1 - i)) & 1 for i in range(self.k))

    def atom(self, bits: Sequence[int]) -> int:
        bits = tuple(bits)
        if len(bits) != self.k or any(
            not isinstance(b, int) or isinstance(b, bool) or b not in (0, 1) for b in bits
        ):
            raise InvalidInputError(f"need {self.k} bits, got {bits}")
        out = 0
        for b in bits:
            out = (out << 1) | b
        return out


def permutation_automorphism(ctx: Z2kContext, sigma: Sequence[int]) -> Automorphism:
    """Coordinate shuffle: component i of the image is x_{sigma(i)}.
    ``sigma`` must hold ints, never bools; any such shuffle permutes the
    uniform group, so the map is built unvalidated."""
    sigma = tuple(sigma)
    if not {*map(type, sigma)} <= {int} or sorted(sigma) != list(range(ctx.k)):
        raise InvalidInputError(f"sigma must permute 0..{ctx.k - 1}, got {sigma}")
    perm = []
    for a in range(ctx.group_order):
        x = ctx.bits(a)
        perm.append(ctx.atom(tuple(x[sigma[i]] for i in range(ctx.k))))
    return Automorphism._trusted(ctx.space, tuple(perm))


def shift_automorphism(ctx: Z2kContext, alpha: Sequence[int]) -> Automorphism:
    """Group translation x -> x + alpha (componentwise mod 2)."""
    a_idx = ctx.atom(alpha)
    perm = tuple(x ^ a_idx for x in range(ctx.group_order))
    return Automorphism(ctx.space, perm)


def full_action(ctx: Z2kContext) -> ActionGenerators:
    """Adjacent coordinate transpositions plus all basis shifts: the
    permutation-and-translation action used throughout the gallery.
    k - 1 + k generators; a single shift at k = 1."""
    gens = []
    for i in range(ctx.k - 1):
        sigma = list(range(ctx.k))
        sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
        gens.append(permutation_automorphism(ctx, sigma))
    for i in range(ctx.k):
        alpha = [0] * ctx.k
        alpha[i] = 1
        gens.append(shift_automorphism(ctx, alpha))
    return ActionGenerators(ctx.space, tuple(gens))


def triple_sum_joining(ctx: Z2kContext) -> JoiningTensor:
    """Order-4 self-joining supported on d = a + b + c: three independent
    coordinates and their sum.  Every 3-face marginal is the full product
    measure, yet the tensor sits at sup-distance
    2^(-3k) - 2^(-4k) from the order-4 product.  The g^3 support cells are
    listed with the entries, in ascending flat order as (a, b, c) runs
    lexicographically, so the kernels never scan the g^4 numerators for
    them."""
    g = ctx.group_order
    shape = (g,) * 4
    # each of the g^3 triples carries 1 / g^3
    cells = [
        ((a * g + b) * g + c) * g + (a ^ b ^ c)
        for a in range(g) for b in range(g) for c in range(g)
    ]
    numerators = [0] * g**4
    for i in cells:
        numerators[i] = 1
    support = cells, [1] * len(cells), split_cells(shape, cells)
    # a joining by construction (a, b and c are uniform, and so is d given
    # a and b), so no check runs here; ``eta`` reports the defects
    return JoiningTensor._decoded((ctx.space,) * 4, tuple(numerators), g**3, support)


def _parity_table(shape: Sequence[int], idx_key: Sequence[int]) -> list[int]:
    """sum_i a_i . t_i at every flat index t, one character index a_i per
    axis: its parity is the sign of prod_i chi_{a_i}(t_i)."""
    columns = [
        [bin(a & t).count("1") & 1 for t in range(n)] for a, n in zip(idx_key, shape)
    ]
    return flat_index_map(shape, columns)


def fourier_joining(
    ctx: Z2kContext,
    order: int,
    coefficients: Mapping[tuple, Fraction],
) -> JoiningTensor:
    """Tensor with prescribed character coefficients:

        v(t) = 2^(-order*k) * sum over keys a of c(a) * prod_i chi_{a_i}(t_i).

    Keys are tuples of bit-vectors, one per factor; the all-zero key must
    carry coefficient 1 (total mass).  Negative entries anywhere reject the
    coefficient family."""
    require_int(order, "order", 1)
    g = ctx.group_order
    shape = (g,) * order
    acc = [Fraction(0)] * space_size(shape)
    table: dict[tuple[int, ...], Fraction] = {}
    for key, c in coefficients.items():
        key = tuple(tuple(part) for part in key)
        if len(key) != order:
            raise InvalidInputError(f"key {key} does not have {order} characters")
        idx_key = tuple(ctx.atom(part) for part in key)
        if idx_key in table:
            raise InvalidInputError(f"duplicate coefficient key {key}")
        table[idx_key] = as_fraction(c)
    zero_idx = (0,) * order
    if table.get(zero_idx) != 1:
        raise InvalidInputError("the all-zero character tuple must have coefficient 1")
    for idx_key, c in table.items():
        acc = [
            x - c if p & 1 else x + c
            for x, p in zip(acc, _parity_table(shape, idx_key))
        ]
    norm = Fraction(1, len(acc))
    for idx, x in enumerate(acc):
        if x < 0:
            tup = index_to_tuple(shape, idx)
            raise InvalidInputError(f"coefficients produce a negative entry at {tup}")
    return JoiningTensor((ctx.space,) * order, tuple(norm * x for x in acc))
