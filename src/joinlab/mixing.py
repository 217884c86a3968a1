"""Multiple mixing statistics, exact on finite systems.

correlation measures mu(A_0 ^ S^{k_1} A_1 ^ S^{k_1+k_2} A_2 ^ ...) with
images of sets under powers; offset_joining packages the same data as a
graph-type self-joining so the two computations cross-check each other
exactly.  The relative variants run along a skew product's fibers.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate

from .errors import InvalidInputError, ResourceLimitError, Value, check, require_int
from .rationals import as_fraction
from .skew import SkewProduct, as_automorphism
from .spaces import (
    SIZE_CAP,  # also read as mixing.SIZE_CAP
    Automorphism,
    MeasurableSet,
    iter_tuples,
    perm_power,
    space_size,
)


def _offset_sums(k) -> list[int]:
    """The running sums K_i = k_1 + ... + k_i of the offsets ``k``, a
    nonempty tuple or list of positive ints, never bools."""
    if not isinstance(k, (tuple, list)) or not {*map(type, k)} <= {int} or min(k, default=1) < 1:
        raise InvalidInputError(f"offsets must be positive ints, got {k!r}")
    if not k:
        raise InvalidInputError("offset vector must be nonempty")
    return list(accumulate(k))


def _check_sets(t: Automorphism, sets: Sequence[MeasurableSet]) -> None:
    check(all(a.space == t.space for a in sets), "sets",
          "all sets must live on the automorphism's space")


def _meet(t: Automorphism, atom_sets: Sequence, sums: list[int]) -> set[int]:
    """A_0 ^ t^{K_1} A_1 ^ ... ^ t^{K_n} A_n for atom sets A_i and the
    running sums K_i of ``_offset_sums``; the walk stops once the meet is
    empty."""
    running = set(atom_sets[0])
    for big_k, atoms in zip(sums, atom_sets[1:]):
        if not running:
            break
        perm = t.power(big_k).perm
        running &= {perm[x] for x in atoms}
    return running


def correlation(t: Automorphism, sets: Sequence[MeasurableSet], k) -> Fraction:
    """mu(A_0 ^ S^{K_1} A_1 ^ ... ^ S^{K_n} A_n), K_i = k_1 + ... + k_i,
    where S^K A is the image of A under the K-th power."""
    _check_sets(t, sets)
    sums = _offset_sums(k)
    n = len(sums)
    check(len(sets) == n + 1, "k", f"need {n + 1} sets for {n} offsets, got {len(sets)}")
    return t.space.mass(_meet(t, [a.atoms for a in sets], sums))


class SweepResult(Value):
    """Worst deviation over the offset grid, with the first grid point
    attaining it (lexicographic order) and the target product value."""

    __slots__ = _fields = ("max_deviation", "argmax_offsets", "product_value")


def mixing_deviation_sweep_detail(
    t: Automorphism, sets: Sequence[MeasurableSet], k_range: int
) -> SweepResult:
    """max over offset vectors in {1..k_range}^n of
    |correlation - prod_i mu(A_i)|, with its first argmax.

    A correlation depends on each offset only modulo the order of t, and
    reducing an offset that way never makes a grid point lexicographically
    larger, so only {1..side}^n is scanned, side = min(k_range, order): the
    result, argmax included, is the one of the full grid.  That grid, and
    then its points times the atoms, are sized by ``space_size`` before any
    correlation is computed, so either one past ``SIZE_CAP`` raises
    ``ResourceLimitError``.

    The images t^K A_i that the grid reaches, i <= K <= i side, are
    computed once, at most ``order`` of them per set, so a grid point costs
    at most one set intersection per offset, and its deviation from the
    product value is compared in integers."""
    check(len(sets) >= 2, "sets", "need at least two sets")
    _check_sets(t, sets)
    require_int(k_range, "k_range", 1)
    target = math.prod((a.measure for a in sets), start=Fraction(1))
    n = len(sets) - 1
    order = t.order()
    side = min(k_range, order)
    shape = (side,) * n
    points = space_size(shape)
    atoms = t.space.atom_count
    try:
        space_size((points, atoms))
    except ResourceLimitError:
        raise ResourceLimitError(
            f"work of {points} points on {atoms} atoms exceeds the cap of "
            f"{SIZE_CAP} point-atom steps"
        ) from None
    # K_i = i + m with m the sum of the first i zero-based grid coordinates,
    # 0 <= m <= i (side - 1); images[i - 1][m] = t^(i + m) A_i, m mod order
    perm = t.perm
    images = []
    for i, a in enumerate(sets[1:], 1):
        shift = perm_power(perm, i % order)
        row = [frozenset(map(shift.__getitem__, a.atoms))]
        for _ in range(min(i * (side - 1), order - 1)):
            row.append(frozenset(map(perm.__getitem__, row[-1])))
        images.append(row)
    # |mass/D - tn/td| = |mass td - tn D| / (D td), compared as numerators
    nums, den = t.space.numerators, t.space.denominator
    tn, td = target.numerator * den, target.denominator
    first = sets[0].atoms
    best = -1
    best_k: tuple[int, ...] = ()
    for grid in iter_tuples(shape):
        running, m = first, 0
        for g, row in zip(grid, images):
            if not running:
                break
            m += g
            running = running & row[m % order]
        dev = abs(sum(map(nums.__getitem__, running)) * td - tn)
        if dev > best:
            best = dev
            best_k = tuple(g + 1 for g in grid)
    return SweepResult(Fraction(best, den * td), best_k, target)


def offset_joining(r: Automorphism, k) -> JoiningTensor:
    """Graph-type joining of order n+1 concentrated on the offset orbit:

        nu(z_0, ..., z_n) = lambda(z_0)  if z_i = R^{-K_i}(z_0) for all i,
                            0            otherwise,

    equivalently nu(C_0 x ... x C_n) = lambda(C_0 ^ R^{K_1} C_1 ^ ...),
    so pairing nu against indicator products reproduces ``correlation``
    exactly."""
    from .joinings import JoiningTensor  # only this builds a tensor; `mixing` loads none

    sums = _offset_sums(k)
    r_inv = r.inverse()
    inv_perms = [r_inv.power(big_k).perm for big_k in sums]
    values = {}
    for z0 in r.space.atoms():
        tup = (z0,) + tuple(p[z0] for p in inv_perms)
        values[tup] = r.space.weights[z0]
    return JoiningTensor.from_nonzero((r.space,) * (len(sums) + 1), values)


def fiber_projection(r: SkewProduct, f: Sequence) -> tuple[Fraction, ...]:
    """Conditional expectation onto the base:
    (pi f)(x) = sum_y f(x, y) mu_fiber(y), with f given on product atoms
    in (base, fiber) lexicographic order."""
    nb, nf = r.base.atom_count, r.fiber.atom_count
    if len(f) != nb * nf:
        raise InvalidInputError(f"need {nb * nf} values, got {len(f)}")
    vals = [as_fraction(x) for x in f]
    out = []
    for x in range(nb):
        acc = Fraction(0)
        for y in range(nf):
            acc += vals[x * nf + y] * r.fiber.weights[y]
        out.append(acc)
    return tuple(out)


def _lift_horizontal(r: SkewProduct, b: MeasurableSet) -> set[int]:
    nf = r.fiber.atom_count
    return {x * nf + y for x in r.base.atoms() for y in b.atoms}


def _lift_vertical(r: SkewProduct, a: MeasurableSet) -> set[int]:
    nf = r.fiber.atom_count
    return {x * nf + y for x in a.atoms for y in range(nf)}


def relative_mixing_deviation(
    r: SkewProduct, horizontal_sets: Sequence[MeasurableSet], k
) -> Fraction:
    """Squared L2(mu_base) deviation of the fiber projection of the
    indicator of H_0 ^ R^{K_1} H_1 ^ ... from the constant prod mu(B_i),
    where H_i = X x B_i.

    The squared distance is returned because it is always rational; the
    distance itself generally is not."""
    sums = _offset_sums(k)
    n = len(sums)
    check(len(horizontal_sets) == n + 1, "k",
          f"need {n + 1} sets for {n} offsets, got {len(horizontal_sets)}")
    check(all(b.space == r.fiber for b in horizontal_sets), "horizontal_sets",
          "horizontal sets must live on the fiber")
    lifts = [_lift_horizontal(r, b) for b in horizontal_sets]
    running = _meet(as_automorphism(r), lifts, sums)
    target = math.prod((b.measure for b in horizontal_sets), start=Fraction(1))
    nf = r.fiber.atom_count
    total = Fraction(0)
    for x in r.base.atoms():
        proj = r.fiber.mass(y for y in range(nf) if x * nf + y in running)
        total += r.base.weights[x] * (proj - target) ** 2
    return total


def mixed_set_correlation(
    r: SkewProduct,
    vertical_sets: Sequence[MeasurableSet],
    horizontal_sets: Sequence[MeasurableSet],
    k,
) -> Fraction:
    """lambda(V_0 ^ R^{K_1}(V_1 ^ H_1) ^ ... ^ R^{K_m}(V_m ^ H_m)) on the
    product space, with V_i vertical (a base set times the fiber) and H_i
    horizontal (the base times a fiber set)."""
    sums = _offset_sums(k)
    m = len(sums)
    check(len(vertical_sets) == m + 1 and len(horizontal_sets) == m, "k",
          f"need {m + 1} vertical and {m} horizontal sets for {m} offsets")
    check(all(a.space == r.base for a in vertical_sets), "vertical_sets",
          "vertical sets must live on the base")
    check(all(b.space == r.fiber for b in horizontal_sets), "horizontal_sets",
          "horizontal sets must live on the fiber")
    big = as_automorphism(r)
    cells = [_lift_vertical(r, vertical_sets[0])] + [
        _lift_vertical(r, a) & _lift_horizontal(r, b)
        for a, b in zip(vertical_sets[1:], horizontal_sets)
    ]
    return big.space.mass(_meet(big, cells, sums))
