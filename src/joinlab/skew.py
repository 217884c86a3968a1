"""Skew products over a finite base with automorphism-valued cocycles.

R(x, y) = (S x, R_x y) for a base automorphism S and one fiber automorphism
per base atom.  The cocycle product C(x, p) composes the fiber maps met
along the base orbit; rigidity and relative mixing statistics quantify how
C behaves in the Halmos metric and the weak operator distance.

Both statistics rest on C preserving the fiber weights.  The Halmos
distance to the identity is 2 sum over the atoms j that C moves of
nu_j 2^-j, since C maps its moved set onto itself.  With G_j = C(x_0, j)
along a base orbit x_0, ..., x_{L-1}, C(x_i, p) = G_{i+p} G_i^-1 and
G_{qL+r} = G_r o G_L^q, so C(x_i, p) moves y = G_i z exactly when
G_{i+p} z != G_i z, and mu(C(x_i, p) A intersect B) =
mu(G_i^-1 A intersect G_{i+p}^-1 B).  Both statistics, the orbit count
and ``cocycle_product`` all read the G_j from one prefix walk
(``_prefix_walk``) along whole base orbits.  Rigidity walks each base
orbit that meets its set once, L compositions besides powers of G_L.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import compress, islice, repeat
from operator import add, lt, mul, ne, sub

from .errors import InvalidInputError, PreconditionError, Value, check, require_int
from .rationals import as_fraction, format_rational
from .spaces import (
    Automorphism,
    FiniteSpace,
    _orbits,
    MeasurableSet,
    orbit_count,
    perm_power,
    product_bounds,
    product_space,
)


class SkewProduct(Value):
    """(x, y) -> (base_map(x), cocycle[x](y)); always measure-preserving.

    Each map's space is tested by identity first and compared by value
    only when it is another object, as a map checked in bulk by the
    config parser or drawn by ``sample_random_extension`` shares the one
    space object."""

    __slots__ = _fields = ("base", "fiber", "base_map", "cocycle")

    def __init__(
        self,
        base: FiniteSpace,
        fiber: FiniteSpace,
        base_map: Automorphism,
        cocycle: tuple[Automorphism, ...],
    ):
        cocycle = tuple(cocycle)
        if base_map.space is not base and base_map.space != base:
            raise InvalidInputError("base map lives on a different space")
        if len(cocycle) != base.atom_count:
            raise InvalidInputError(
                f"need one fiber map per base atom ({base.atom_count}), "
                f"got {len(cocycle)}"
            )
        for x, r in enumerate(cocycle):
            if r.space is not fiber and r.space != fiber:
                raise InvalidInputError(f"fiber map at base atom {x} lives elsewhere")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "fiber", fiber)
        object.__setattr__(self, "base_map", base_map)
        object.__setattr__(self, "cocycle", cocycle)


class RigiditySequence(Value):
    """Strictly increasing positive return times p_1 < p_2 < ...

    The times are checked at once: each type in their set of types must
    be an int subclass other than ``bool``, the first time positive and
    each less than the next."""

    __slots__ = _fields = ("times",)

    def __init__(self, times: tuple[int, ...]):
        times = tuple(times)
        if not times:
            raise InvalidInputError("rigidity sequence must be nonempty")
        if not (
            all(issubclass(t, int) and t is not bool for t in {*map(type, times)})
            and times[0] > 0
            and all(map(lt, times, times[1:]))
        ):
            raise InvalidInputError(
                f"times must be strictly increasing positive ints, got {times}"
            )
        object.__setattr__(self, "times", times)


def skew_to_data(r: SkewProduct) -> dict:
    """Serializable description of a skew product."""
    return {
        "base_weights": [format_rational(w) for w in r.base.weights],
        "fiber_weights": [format_rational(w) for w in r.fiber.weights],
        "base_perm": list(r.base_map.perm),
        "cocycle": [list(a.perm) for a in r.cocycle],
    }


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
    permutation tuples (``_prefix_walk``) and stops when the base orbit of
    x closes after L steps; for p >= L it returns C(x, r) o C(x, L)^q with
    p = qL + r, the power by repeated squaring, so the cost is
    O(L + log q) compositions whatever the size of p."""
    if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < r.base.atom_count:
        raise InvalidInputError(f"base atom {x} out of range")
    require_int(p, "p", 0)
    base, y, length = r.base_map.perm, r.base_map.perm[x], 1
    while y != x and length < p:
        y, length = base[y], length + 1
    walk = _prefix_walk(r, x)
    if length == p:
        return Automorphism._trusted(r.fiber, next(islice(walk, p, None)))
    q, rest = divmod(p, length)
    head = next(islice(walk, rest, None))
    g_l = next(islice(walk, length - rest - 1, None))
    return Automorphism._trusted(r.fiber, tuple(map(head.__getitem__, perm_power(g_l, q))))


def coboundary_extension(
    s: Automorphism, j_family: Sequence[Automorphism]
) -> SkewProduct:
    """Skew product with cocycle R_x = J_{S x}^{-1} o J_x, so that
    C(x, p) = J_{S^p x}^{-1} o J_x telescopes exactly.  Each inverse is
    built once, and each R_x is composed on the permutation tuples."""
    j_family = tuple(j_family)
    if len(j_family) != s.space.atom_count:
        raise InvalidInputError("need one transfer map per base atom")
    fiber = j_family[0].space
    for j in j_family:
        if j.space is not fiber and j.space != fiber:
            raise InvalidInputError("transfer maps live on different spaces")
    # the inverse of J_x lists the atoms in the order of their images
    atoms = range(fiber.atom_count)
    inverses = [sorted(atoms, key=j.perm.__getitem__) for j in j_family]
    cocycle = [
        Automorphism._trusted(fiber, tuple(map(inverses[sx].__getitem__, j.perm)))
        for sx, j in zip(s.perm, j_family)
    ]
    return SkewProduct(s.space, fiber, s, cocycle)


def power_skew(s: Automorphism, t: Automorphism, n_fun: Sequence[int]) -> SkewProduct:
    """Cocycle R_x = t^{n(x)}; requires the exponent to integrate to zero,
    the finite obstruction to t-power cocycles being balanced along orbits."""
    n_fun = tuple(n_fun)
    if len(n_fun) != s.space.atom_count:
        raise InvalidInputError("need one exponent per base atom")
    for n in n_fun:
        if not isinstance(n, int) or isinstance(n, bool):
            raise InvalidInputError(f"exponents must be ints, got {n!r}")
    total = sum(w * n for w, n in zip(s.space.numerators, n_fun))
    mean = Fraction(total, s.space.denominator)
    if mean != 0:
        raise PreconditionError(f"exponent has nonzero mean {mean}")
    cocycle = tuple(t.power(n) for n in n_fun)
    return SkewProduct(s.space, t.space, s, cocycle)


def _prefix_walk(r: SkewProduct, x: int) -> Iterator[tuple[int, ...]]:
    """The prefix products C(x, 0), C(x, 1), ... along the base orbit of
    ``x``, as permutation tuples: one composition each, without end."""
    g, base, cocycle = tuple(r.fiber.atoms()), r.base_map.perm, r.cocycle
    while True:
        yield g
        g = tuple(map(cocycle[x].perm.__getitem__, g))
        x = base[x]


def rigidity_statistic(
    r: SkewProduct, a: MeasurableSet, n_param: int, times: Sequence[int]
) -> list[Fraction]:
    """mu-mass of {x in A : S^p x in A and rho(C(x, p), Id) < 1/n_param}
    for each p of ``times``, in their order.  ``a``, ``n_param`` and each
    time are checked under the params "set", "n_param" and "p": every time
    a nonnegative int, never a bool.

    Along a base orbit x_0, ..., x_{L-1} with G_j = C(x_0, j),
    C(x_i, p) = G_{i+p} G_i^-1 and G_{qL+r} = G_r o G_L^q, so C(x_i, p)
    moves y = G_i z exactly when G_{i+p} z != G_i z, and no product or
    inverse is built per (start, time) pair.  A weight-preserving C maps
    the atoms it moves onto themselves, so rho(C, Id) = 2 sum over moved j
    of nu_j 2^-j: with the fiber's numerators num over D and n atoms,
    rho(C, Id) < 1/n_param is 4 n_param T < D 2^n for the integer sum T of
    num_y 2^(n-1-y) over the moved y, one C-level sum over w o G_i.

    Each base orbit that meets A is walked once from its least atom, taken
    as x_0, up to G_L; a pair counts only when S^p x_i is in A.  The times
    may come in any order: G_L^q is one composition from G_L^(q-1) when
    that is one of the two powers kept, and is rebuilt by ``perm_power``
    otherwise, so on nondecreasing times G_L^q and G_L^(q+1) are the only
    live powers.  Once some G_L^q is the identity, the orbit's counts
    repeat with period qL.  Per orbit that meets A that is L compositions
    besides the powers, and O(L n) memory."""
    check(a.space == r.base, "set", "set must live on the base")
    require_int(n_param, "n_param", 1)
    times = tuple(times)
    for p in times:
        require_int(p, "p", 0)
    num = r.fiber.numerators
    n = len(num)
    weights = [w << (n - 1 - j) for j, w in enumerate(num)]
    # 4 n_param T < D 2^n for the integer sum T, tested as T <= limit
    limit = ((r.fiber.denominator << n) - 1) // (4 * n_param)
    base_num, starts = r.base.numerators, a.atoms
    counted = [0] * len(times)  # base numerators of the counted starts
    for orbit in _orbits(r.base_map.perm):
        inside = [x in starts for x in orbit]
        if not any(inside):
            continue
        length = len(orbit)
        table = list(islice(_prefix_walk(r, orbit[0]), length + 1))
        rows = [  # (base numerator, i, G_i, w o G_i) at the starts
            (base_num[x], i, table[i], tuple(map(weights.__getitem__, table[i])))
            for i, x in enumerate(orbit) if inside[i]
        ]
        g_l = table[-1]
        powers = {}  # q -> G_L^q, the last two built
        cycle = 0  # qL once G_L^q = Id: then G_{j+qL} = G_j
        known = {}  # time -> this orbit's count, times taken mod cycle
        for k, p in enumerate(times):
            if cycle:
                p %= cycle
            total = known.get(p)
            if total is None:
                total = 0
                low, shift = divmod(p, length)
                for w, i, g, wg in rows:
                    j, q = i + shift, low
                    if j >= length:
                        j, q = j - length, q + 1
                    if not inside[j]:  # S^p x_i is not in A
                        continue
                    later = table[j]
                    if q:  # G_{qL+j} = G_j o G_L^q, and G_0 = Id
                        power = powers.get(q)
                        if power is None:
                            last = powers.get(q - 1)
                            power = (perm_power(g_l, q) if last is None
                                     else tuple(map(g_l.__getitem__, last)))
                            powers = {q - 1: last, q: power}
                            if power == table[0]:
                                cycle = q * length
                        later = map(later.__getitem__, power) if j else power
                    if sum(compress(wg, map(ne, later, g))) <= limit:
                        total += w
                known[p] = total
            counted[k] += total
    den = r.base.denominator
    return [Fraction(c, den) for c in counted]


def relative_mixing_fraction(r: SkewProduct, p: int, eps: Fraction) -> Fraction:
    """mu-mass of {x : dist_w(koopman(C(x, p)), averaging) < eps}.

    On a fiber of at least two atoms, the Koopman kernel of any permutation
    is at distance exactly 1 - min w from the averaging operator (its rows
    are unit vectors; the largest entrywise gap is 1 - w at the lightest
    atom), so the statistic is the full base mass when eps > 1 - min w and
    0 otherwise, whatever the cocycle or p.  On a one-atom fiber both
    operators are the identity and every eps gives full mass.  That closed
    form is what is computed, in integers from the smallest numerator of
    the fiber's integer form; no kernel is built."""
    require_int(p, "p", 0)
    eps = as_fraction(eps)
    check(eps > 0, "eps", f"eps must be positive, got {eps}")
    # eps > 1 - m / D for the lightest numerator m over D, in integers
    den = r.fiber.denominator
    light = min(r.fiber.numerators)
    if light == den or eps.numerator * den > (den - light) * eps.denominator:
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

    Along each base orbit x_0, ..., x_{L-1} the prefix products
    G_j = C(x_0, j) are built once, and each is kept only as the fiber
    bitmasks U_j = G_j^-1 A and V_j = G_j^-1 B.  C(x_i, p) = G_{i+p} G_i^-1
    preserves weights, so mu(C(x_i, p) A intersect B) is the sum over the
    fiber's weight classes c of w_c popcount(U_i & V_{i+p} & M_c), and the
    row of x_i over p is one C-level map chain.  The walk from x_i is back
    at (x_i, A) exactly when L divides p and U_{i+p} = U_i; the first such
    p is the row's period P, whose summands then repeat, so whole periods
    are added at once and the rest is summed from the start of the row.
    Sums are integers over the fiber's and base's common denominators.
    Per orbit this costs and holds a sequence of at most L + min(N, max P)
    bitmask pairs, one composition each, with P at most L ord C(x_0, L);
    the row of x_i then takes min(N, P) popcounts per weight class."""
    check(a.space == r.fiber, "a", "sets must live on the fiber")
    check(b.space == r.fiber, "b", "sets must live on the fiber")
    require_int(n_horizon, "horizon", 1)
    num, den = r.fiber.numerators, r.fiber.denominator
    n = len(num)
    bits = [1 << y for y in r.fiber.atoms()]
    # bit z of sum(bits[z] * code[G z]) is [G z in A] and bit n + z is
    # [G z in B]: U_j and V_j from one pass over G_j
    code = [(y in a.atoms) + ((y in b.atoms) << n) for y in r.fiber.atoms()]
    low = (1 << n) - 1
    # (mu(C A ^ B) - mu(A) mu(B))^2 = (hits - target)^2 / den^4, where hits
    # adds num_c den for each atom of C A ^ B, c its weight class
    target = sum(num[y] for y in a.atoms) * sum(num[y] for y in b.atoms)
    # (num_c den, mask M_c) for each weight class c
    classes = [(num[atoms[0]] * den, sum(map(bits.__getitem__, atoms)))
               for atoms in _weight_classes(r.fiber)]
    total = 0
    for orbit in _orbits(r.base_map.perm):
        length = len(orbit)
        last = length - 1 + n_horizon  # the largest index a row can need
        periods = [None] * length
        unclosed = length
        us, vs = [], []
        for j, g in zip(range(last + 1), _prefix_walk(r, orbit[0])):
            both = sum(map(mul, bits, map(code.__getitem__, g)))
            u = both & low
            us.append(u)
            vs.append(both >> n)
            i = j % length
            if j >= length and periods[i] is None and u == us[i]:
                periods[i] = j - i
                unclosed -= 1
                if not unclosed:
                    break
        for i, x in enumerate(orbit):
            k = min(n_horizon, periods[i] or n_horizon)
            later = vs[i + 1 : i + 1 + k]  # V_{i+1}, ..., V_{i+k}
            hits = repeat(0)
            for weight, mask in classes:
                met = map(int.bit_count, map((us[i] & mask).__and__, later))
                hits = map(add, hits, map(mul, met, repeat(weight)))
            row = list(map(pow, map(sub, hits, repeat(target)), repeat(2)))
            whole, rest = divmod(n_horizon, k)
            total += r.base.numerators[x] * (whole * sum(row) + sum(row[:rest]))
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


def skew_orbit_count(r: SkewProduct) -> int:
    """``orbit_count(as_automorphism(r))``, without building it.

    Over a base orbit of length L from x_0, every orbit of the skew
    product meets the fiber over x_0, and its points there are one cycle
    of the return map C(x_0, L), so the count is the sum over base orbits
    of the number of cycles of C(x_0, L): L compositions of fiber maps per
    base orbit instead of a map on base x fiber.  Its size is refused as
    building it would refuse it."""
    product_bounds([r.base, r.fiber])
    return sum(
        len(_orbits(next(islice(_prefix_walk(r, orbit[0]), len(orbit), None))))
        for orbit in _orbits(r.base_map.perm)
    )


def fiber_square_ergodic(r: SkewProduct) -> bool:
    """Whether ``relative_product(r)`` is ergodic, without building it.
    The diagonal {y = y'} is invariant and of positive measure, so the
    fiber square is never ergodic over a fiber of two or more atoms; over
    one atom it is the skew product itself, whose orbits
    ``skew_orbit_count`` counts.  Its size is refused as building it
    would refuse it."""
    product_bounds([r.base, r.fiber, r.fiber])
    return r.fiber.atom_count == 1 and skew_orbit_count(r) == 1


def _weight_classes(space: FiniteSpace) -> list[list[int]]:
    """The atoms of each weight class, keyed by the integer numerator, in
    atom order and classes in the order their first atom appears."""
    classes: dict[int, list[int]] = {}
    for i, w in enumerate(space.numerators):
        classes.setdefault(w, []).append(i)
    return list(classes.values())


def _random_preserving_permutation(
    rng, space: FiniteSpace, classes: list[list[int]]
) -> Automorphism:
    # Uniform over the weight-preserving subgroup: shuffle within each of
    # the space's ``_weight_classes``.  The shuffle preserves weights by
    # construction, so the map is trusted.
    perm = [0] * space.atom_count
    for atoms in classes:
        shuffled = atoms[:]
        rng.shuffle(shuffled)
        for src, dst in zip(atoms, shuffled):
            perm[src] = dst
    return Automorphism._trusted(space, tuple(perm))


def sample_random_extension(
    s: Automorphism, fiber: FiniteSpace, seed: int, mode: str
) -> SkewProduct:
    """Seed-deterministic random skew product over base map ``s``.

    mode 'iid-cocycle': one independent weight-preserving fiber permutation
    per base atom.  mode 'random-coboundary': draw a transfer family J the
    same way and return its coboundary, a rigidity-friendly reference point.
    """
    require_int(seed, "seed")
    check(mode in ("iid-cocycle", "random-coboundary"), "mode",
          f"mode must be 'iid-cocycle' or 'random-coboundary', got {mode!r}")
    import random  # only `sample` draws; every other command starts without it

    rng = random.Random(seed)
    classes = _weight_classes(fiber)
    draws = [
        _random_preserving_permutation(rng, fiber, classes)
        for _ in s.space.atoms()
    ]
    if mode == "iid-cocycle":
        return SkewProduct(s.space, fiber, s, tuple(draws))
    return coboundary_extension(s, draws)
