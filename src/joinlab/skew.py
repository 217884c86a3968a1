"""Skew products over a finite base with automorphism-valued cocycles.

R(x, y) = (S x, R_x y) for a base automorphism S and one fiber automorphism
per base atom.  The cocycle product C(x, p) composes the fiber maps met
along the base orbit; rigidity and relative mixing statistics quantify how
C behaves in the Halmos metric and the weak operator distance.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .errors import InvalidInputError, PreconditionError, Value
from .rationals import as_fraction
from .spaces import (
    Automorphism,
    FiniteSpace,
    MeasurableSet,
    compose,
    halmos_numerator,
    orbit_count,
    perm_power,
    product_bounds,
    product_space,
)


class SkewProduct(Value):
    """(x, y) -> (base_map(x), cocycle[x](y)); always measure-preserving."""

    __slots__ = _fields = ("base", "fiber", "base_map", "cocycle")

    def __init__(
        self,
        base: FiniteSpace,
        fiber: FiniteSpace,
        base_map: Automorphism,
        cocycle: tuple[Automorphism, ...],
    ):
        cocycle = tuple(cocycle)
        if base_map.space != base:
            raise InvalidInputError("base map lives on a different space")
        if len(cocycle) != base.atom_count:
            raise InvalidInputError(
                f"need one fiber map per base atom ({base.atom_count}), "
                f"got {len(cocycle)}"
            )
        for x, r in enumerate(cocycle):
            if r.space != fiber:
                raise InvalidInputError(f"fiber map at base atom {x} lives elsewhere")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "fiber", fiber)
        object.__setattr__(self, "base_map", base_map)
        object.__setattr__(self, "cocycle", cocycle)


class RigiditySequence(Value):
    """Strictly increasing positive return times p_1 < p_2 < ..."""

    __slots__ = _fields = ("times",)

    def __init__(self, times: tuple[int, ...]):
        times = tuple(times)
        if not times:
            raise InvalidInputError("rigidity sequence must be nonempty")
        prev = 0
        for p in times:
            if not isinstance(p, int) or isinstance(p, bool) or p <= prev:
                raise InvalidInputError(
                    f"times must be strictly increasing positive ints, got {times}"
                )
            prev = p
        object.__setattr__(self, "times", times)


def as_automorphism(r: SkewProduct) -> Automorphism:
    """The skew product as an automorphism of base x fiber."""
    total = product_space([r.base, r.fiber])
    nf = r.fiber.atom_count
    # (x, y) sits at x nf + y; its image at S x nf + R_x y, in the same order
    perm = (
        sx * nf + ry for sx, rx in zip(r.base_map.perm, r.cocycle) for ry in rx.perm
    )
    return Automorphism._trusted(total, tuple(perm))


def cocycle_product(r: SkewProduct, x: int, p: int) -> Automorphism:
    """C(x, p) = R_{S^{p-1} x} o ... o R_{S x} o R_x, with C(x, 0) = Id.

    Satisfies C(x, p + q) = C(S^p x, q) o C(x, p).  The walk composes raw
    permutation tuples and stops when the base orbit of x closes after L
    steps; for p >= L it returns C(x, r) o C(x, L)^q with p = qL + r, the
    power by repeated squaring, so the cost is O(L + log q) compositions
    whatever the size of p."""
    if not 0 <= x < r.base.atom_count:
        raise InvalidInputError(f"base atom {x} out of range")
    if not isinstance(p, int) or p < 0:
        raise InvalidInputError(f"p must be a nonnegative int, got {p!r}")
    return Automorphism._trusted(r.fiber, _cocycle_perm(r, x, p))


def _cocycle_perm(r: SkewProduct, x: int, p: int) -> tuple[int, ...]:
    """The permutation tuple of ``cocycle_product(r, x, p)``, unchecked.
    At the top of each step, acc is C(x, step) and cur is S^step x."""
    if p == 0:
        return tuple(r.fiber.atoms())
    base = r.base_map.perm
    acc, cur = r.cocycle[x].perm, base[x]
    for step in range(1, p):
        if cur == x:
            q, rest = divmod(p, step)
            head = _cocycle_perm(r, x, rest)
            return tuple(map(head.__getitem__, perm_power(acc, q)))
        acc = tuple(map(r.cocycle[cur].perm.__getitem__, acc))
        cur = base[cur]
    return acc


def coboundary_extension(
    s: Automorphism, j_family: Sequence[Automorphism]
) -> SkewProduct:
    """Skew product with cocycle R_x = J_{S x}^{-1} o J_x, so that
    C(x, p) = J_{S^p x}^{-1} o J_x telescopes exactly."""
    j_family = tuple(j_family)
    if len(j_family) != s.space.atom_count:
        raise InvalidInputError("need one transfer map per base atom")
    fiber = j_family[0].space
    for j in j_family:
        if j.space != fiber:
            raise InvalidInputError("transfer maps live on different spaces")
    cocycle = tuple(
        compose(j_family[s.perm[x]].inverse(), j_family[x])
        for x in s.space.atoms()
    )
    return SkewProduct(s.space, fiber, s, cocycle)


def power_skew(s: Automorphism, t: Automorphism, n_fun: Sequence[int]) -> SkewProduct:
    """Cocycle R_x = t^{n(x)}; requires the exponent to integrate to zero,
    the finite obstruction to t-power cocycles being balanced along orbits."""
    n_fun = tuple(n_fun)
    if len(n_fun) != s.space.atom_count:
        raise InvalidInputError("need one exponent per base atom")
    for n in n_fun:
        if not isinstance(n, int):
            raise InvalidInputError(f"exponents must be ints, got {n!r}")
    total = sum(w * n for w, n in zip(s.space.numerators, n_fun))
    mean = Fraction(total, s.space.denominator)
    if mean != 0:
        raise PreconditionError(f"exponent has nonzero mean {mean}")
    cocycle = tuple(t.power(n) for n in n_fun)
    return SkewProduct(s.space, t.space, s, cocycle)


def rigidity_statistic(
    r: SkewProduct, a: MeasurableSet, n_param: int, p: int
) -> Fraction:
    """mu-mass of {x in A : S^p x in A and rho(C(x, p), Id) < 1/n_param}."""
    if a.space != r.base:
        raise InvalidInputError("set must live on the base")
    if not isinstance(n_param, int) or n_param < 1:
        raise InvalidInputError(f"n_param must be a positive int, got {n_param!r}")
    if not isinstance(p, int) or p < 0:
        raise InvalidInputError(f"p must be a nonnegative int, got {p!r}")
    return _rigidity_walk(r, a, n_param, (p,))[0]


def _rigidity_walk(
    r: SkewProduct, a: MeasurableSet, n_param: int, times: Sequence[int]
) -> list[Fraction]:
    """``rigidity_statistic(r, a, n_param, p)`` for every p of the
    nondecreasing nonnegative ``times``; the caller has checked that ``a``
    lives on the base and that ``n_param`` is a positive int.

    One walk per atom x of A extends C(x, p_i) to
    C(x, p_{i+1}) = C(S^{p_i} x, p_{i+1} - p_i) o C(x, p_i), so the cocycle
    products cost the gaps between the times, not the times themselves.
    Products stay permutation tuples, and rho(C, Id) < 1/n_param is tested
    as n_param * T < D 2^n on the integer T of ``halmos_numerator``."""
    num = r.fiber.numerators
    bound = r.fiber.denominator << len(num)
    ident = tuple(r.fiber.atoms())
    starts = tuple(a.atoms)
    where = list(starts)  # S^p x
    products = [ident] * len(starts)  # C(x, p)
    out, prev = [], 0
    for p in times:
        gap, prev = p - prev, p
        s_gap = perm_power(r.base_map.perm, gap)
        for i, y in enumerate(where):
            step = _cocycle_perm(r, y, gap)
            products[i] = tuple(map(step.__getitem__, products[i]))
            where[i] = s_gap[y]
        hits = (
            x
            for x, y, c in zip(starts, where, products)
            if y in a.atoms and n_param * halmos_numerator(num, c, ident) < bound
        )
        out.append(r.base.mass(hits))
    return out


def relative_mixing_fraction(r: SkewProduct, p: int, eps: Fraction) -> Fraction:
    """mu-mass of {x : dist_w(koopman(C(x, p)), averaging) < eps}.

    On a fiber of at least two atoms, the Koopman kernel of any permutation
    is at distance exactly 1 - min w from the averaging operator (its rows
    are unit vectors; the largest entrywise gap is 1 - w at the lightest
    atom), so the statistic is the full base mass when eps > 1 - min w and
    0 otherwise, whatever the cocycle or p.  On a one-atom fiber both
    operators are the identity and every eps gives full mass.  That closed
    form is what is computed; no kernel is built."""
    if not isinstance(p, int) or p < 0:
        raise InvalidInputError(f"p must be a nonnegative int, got {p!r}")
    eps = as_fraction(eps)
    if eps <= 0:
        raise InvalidInputError(f"eps must be positive, got {eps}")
    if r.fiber.atom_count == 1 or eps > 1 - min(r.fiber.weights):
        return Fraction(1)
    return Fraction(0)


def relative_weak_mixing_average(
    r: SkewProduct, a: MeasurableSet, b: MeasurableSet, n_horizon: int
) -> Fraction:
    """Exact value of

        integral over x of (1/N) sum_{p=1}^{N}
            (mu(C(x, p) A  intersect  B) - mu(A) mu(B))^2  d mu(x),

    the finite Cesaro average whose smallness witnesses relative weak mixing
    of the extension over its base.

    The walk from x tracks only S^p x and the image set C(x, p) A, summing
    measures as integers over the fiber's and base's common denominators.
    That pair evolves by a bijection, so it returns to (x, A) after some
    period P and the summands repeat; the walk adds the whole periods left
    at once, so it costs fewer than min(N + 1, 2P) steps per base atom,
    with P at most L ord C(x, L) for a base orbit of length L."""
    if a.space != r.fiber or b.space != r.fiber:
        raise InvalidInputError("sets must live on the fiber")
    if not isinstance(n_horizon, int) or n_horizon < 1:
        raise InvalidInputError(f"horizon must be a positive int, got {n_horizon!r}")
    num, den = r.fiber.numerators, r.fiber.denominator
    # numerator on B, 0 elsewhere: the hits of an image are one map-sum
    on_b = [0] * r.fiber.atom_count
    for y in b.atoms:
        on_b[y] = num[y]
    # (mu(C A ^ B) - mu(A) mu(B))^2 = (hits * den - target)^2 / den^4
    target = sum(num[y] for y in a.atoms) * sum(on_b)
    start = sorted(a.atoms)
    total = 0
    for x, weight in enumerate(r.base.numerators):
        images = start
        cur = x
        inner = step = 0
        while step < n_horizon:
            images = list(map(r.cocycle[cur].perm.__getitem__, images))
            cur = r.base_map.perm[cur]
            hits = sum(map(on_b.__getitem__, images))
            inner += (hits * den - target) ** 2
            step += 1
            if cur == x and a.atoms.issuperset(images):
                # back at (x, A) after one period: add the whole periods left
                periods = (n_horizon - step) // step
                inner += periods * inner
                step += periods * step
        total += weight * inner
    return Fraction(total, r.base.denominator * den**4 * n_horizon)


def relative_product(r: SkewProduct) -> Automorphism:
    """Fiber-square extension (x, y, y') -> (S x, R_x y, R_x y') on
    base x fiber x fiber; its ergodicity is relative weak mixing."""
    total = product_space([r.base, r.fiber, r.fiber])
    nf = r.fiber.atom_count
    # (x, y, y') sits at (x nf + y) nf + y'; its image at
    # (S x nf + R_x y) nf + R_x y', in the same order
    perm = (
        (sx * nf + ry) * nf + ry2
        for sx, rx in zip(r.base_map.perm, r.cocycle)
        for ry in rx.perm
        for ry2 in rx.perm
    )
    return Automorphism._trusted(total, tuple(perm))


def is_ergodic(a: Automorphism) -> bool:
    """Single orbit on atoms (orbit count equals one)."""
    return orbit_count(a) == 1


def fiber_square_ergodic(r: SkewProduct) -> bool:
    """Whether ``relative_product(r)`` is ergodic, without building it.
    The diagonal {y = y'} is invariant and of positive measure, so the
    fiber square is never ergodic over a fiber of two or more atoms; over
    one atom it is the skew product itself.  Its size is refused as
    building it would refuse it."""
    product_bounds([r.base, r.fiber, r.fiber])
    return r.fiber.atom_count == 1 and is_ergodic(as_automorphism(r))


def _random_preserving_permutation(rng, space: FiniteSpace) -> Automorphism:
    # Uniform over the weight-preserving subgroup: shuffle within weight
    # classes, keyed by the integer numerator and met in atom order.
    classes: dict[int, list[int]] = {}
    for i, w in enumerate(space.numerators):
        classes.setdefault(w, []).append(i)
    perm = [0] * space.atom_count
    for atoms in classes.values():
        shuffled = atoms[:]
        rng.shuffle(shuffled)
        for src, dst in zip(atoms, shuffled):
            perm[src] = dst
    return Automorphism(space, tuple(perm))


def sample_random_extension(
    s: Automorphism, fiber: FiniteSpace, seed: int, mode: str
) -> SkewProduct:
    """Seed-deterministic random skew product over base map ``s``.

    mode 'iid-cocycle': one independent weight-preserving fiber permutation
    per base atom.  mode 'random-coboundary': draw a transfer family J the
    same way and return its coboundary, a rigidity-friendly reference point.
    """
    if not isinstance(seed, int):
        raise InvalidInputError(f"seed must be an int, got {seed!r}")
    import random  # only `sample` draws; every other command starts without it

    rng = random.Random(seed)
    draws = [
        _random_preserving_permutation(rng, fiber) for _ in s.space.atoms()
    ]
    if mode == "iid-cocycle":
        return SkewProduct(s.space, fiber, s, tuple(draws))
    if mode == "random-coboundary":
        return coboundary_extension(s, draws)
    raise InvalidInputError(
        f"mode must be 'iid-cocycle' or 'random-coboundary', got {mode!r}"
    )
