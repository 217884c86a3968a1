"""Finite measure spaces, their measure-preserving automorphisms, and
their finite products.

A space is a finite set of atoms {0, ..., n-1} carrying strictly positive
rational weights summing to one.  Automorphisms are weight-preserving
permutations; the Halmos metric makes the automorphism group a finite
metric space suitable for exact rigidity statistics.  Weight sums and
products run on each space's integer form, computed once at construction.

Products are laid out here and only here: atom tuples are ranked
lexicographically, last coordinate fastest; ``iter_tuples`` enumerates
them, ``flat_index_map`` and its derived maps turn them into flat
indices, and ``orbit_labels`` partitions them into orbits.  The dense maps
serve what needs every cell: the polytope's LP columns and orbits, and
tensors filled or moved cell by cell.  The measure kernels read only a
tensor's support: ``support_cells`` lists its nonzero cells once, each
cut by ``split_cells`` into its index on the leading and on the trailing
axes, and ``support_map`` sums per-axis tables over them as
``flat_index_map`` does over every cell, with one lookup per cell in
each part's own summed table.  ``weight_counts`` counts the product's
atoms of each product weight.  ``space_size``
is the one check against ``SIZE_CAP``; everything that builds a product
calls it first, so an oversized product raises ``ResourceLimitError``
before it is allocated.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import compress, product
from math import lcm
from operator import add

from .errors import InvalidInputError, ResourceLimitError, Value, require_int
from .rationals import as_fraction, show

# Largest dense tensor (product of atom counts) any layer builds.
SIZE_CAP = 65536

# Largest integer form of a tensor (entry count times the bit length of the
# common denominator) any layer builds; eta at k = 4 needs 65536 * 17 bits.
FORM_BITS_CAP = 2**26


def space_size(shape: Iterable[int]) -> int:
    """Number of atoms of a product of the given shape; raises
    ``ResourceLimitError`` naming the shape as soon as the running product
    passes ``SIZE_CAP``, before a caller allocates anything of that size."""
    shape = tuple(shape)
    size = 1
    for axis, n in enumerate(shape):
        size *= n
        if size > SIZE_CAP:
            shown = " x ".join(map(str, shape[: axis + 1]))
            more = " x ..." if axis + 1 < len(shape) else ""
            raise ResourceLimitError(
                f"shape {shown}{more} exceeds the cap of {SIZE_CAP} atoms"
            )
    return size


def check_form_bits(size: int, den: int) -> None:
    """Refuse an integer form of ``size`` numerators over ``den`` past
    ``FORM_BITS_CAP`` bits."""
    bits = den.bit_length()
    if size * bits > FORM_BITS_CAP:
        raise ResourceLimitError(
            f"{size} entries over a common denominator of {bits} bits exceed "
            f"the cap of {FORM_BITS_CAP} bits"
        )


def integer_form(
    entries: Sequence[Fraction], size: int | None = None
) -> tuple[tuple[int, ...], int]:
    """(numerators, denominator) with entries[i] == numerators[i] / denominator
    and the denominator the lcm of the entries' reduced denominators.

    The lcm is accumulated one distinct denominator at a time and checked
    against ``FORM_BITS_CAP`` at each step, so an oversized form raises
    ``ResourceLimitError`` before any numerator is scaled.  The check counts
    ``size`` numerators, default ``len(entries)``: a sparse tensor's form
    is taken over its nonzero values but fills all its entries."""
    dens = {x.denominator for x in entries}
    den = 1
    for d in dens:
        den = lcm(den, d)
        check_form_bits(len(entries) if size is None else size, den)
    scale = {d: den // d for d in dens}
    return tuple(x.numerator * scale[x.denominator] for x in entries), den


def _fractions(numerators: Sequence[int], den: int) -> tuple[Fraction, ...]:
    """numerators / den as Fractions, one object per distinct value."""
    memo = {n: Fraction(n, den) for n in set(numerators)}
    return tuple(map(memo.__getitem__, numerators))


class FiniteSpace(Value):
    """Finite probability space: atom i has weight ``weights[i]`` > 0.
    ``numerators`` and ``denominator`` are the integer form of ``weights``,
    derived at construction and left out of equality, hash and repr."""

    __slots__ = ("weights", "numerators", "denominator")
    _fields = ("weights",)

    def __init__(self, weights: tuple[Fraction, ...]):
        ws = tuple(as_fraction(w) for w in weights)
        object.__setattr__(self, "weights", ws)
        if not ws:
            raise InvalidInputError("a space needs at least one atom")
        nums, den = integer_form(ws)
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominator", den)
        for i, x in enumerate(nums):
            if x <= 0:
                raise InvalidInputError(
                    f"weight of atom {i} must be positive, got {show(ws[i])}"
                )
        if sum(nums) != den:
            raise InvalidInputError(
                f"weights must sum to 1, got {show(Fraction(sum(nums), den))}"
            )

    @classmethod
    def _trusted(cls, numerators: Sequence[int], denominator: int) -> "FiniteSpace":
        """Space built without validation from an integer form already known
        to be canonical, positive and summing to ``denominator``: derived
        from valid spaces (``product_form``) or uniform.  Every other caller
        goes through the validating constructor."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "weights", _fractions(numerators, denominator))
        object.__setattr__(obj, "numerators", tuple(numerators))
        object.__setattr__(obj, "denominator", denominator)
        return obj

    @property
    def atom_count(self) -> int:
        return len(self.weights)

    @classmethod
    def uniform(cls, n: int) -> "FiniteSpace":
        require_int(n, "atom count", 1)
        # n ones over n: canonical, positive, and within FORM_BITS_CAP
        # for any n under SIZE_CAP
        n = space_size((n,))
        return cls._trusted((1,) * n, n)

    def atoms(self) -> range:
        return range(len(self.weights))

    def mass(self, atoms: Iterable[int]) -> Fraction:
        """Total weight of the given atoms."""
        return Fraction(sum(map(self.numerators.__getitem__, atoms)), self.denominator)


class MeasurableSet(Value):
    """Subset of a space's atoms.

    The atoms are checked at once: their set of types must be ``{int}``,
    and their ``min`` and ``max`` must lie in the space.  When that test
    fails, each atom is checked in turn, so the error names the first bad
    atom the set yields, as a per-atom check would."""

    __slots__ = _fields = ("space", "atoms")

    def __init__(self, space: FiniteSpace, atoms: frozenset[int]):
        atoms = frozenset(atoms)
        n = space.atom_count
        if atoms and not (
            {*map(type, atoms)} == {int} and min(atoms) >= 0 and max(atoms) < n
        ):
            for a in atoms:
                if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < n:
                    raise InvalidInputError(f"atom {a!r} outside the space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "atoms", atoms)

    @property
    def measure(self) -> Fraction:
        return self.space.mass(self.atoms)

    def complement(self) -> "MeasurableSet":
        return MeasurableSet(
            self.space, frozenset(self.space.atoms()) - self.atoms
        )

    def intersect(self, other: "MeasurableSet") -> "MeasurableSet":
        if other.space != self.space:
            raise InvalidInputError("sets live on different spaces")
        return MeasurableSet(self.space, self.atoms & other.atoms)


class Automorphism(Value):
    """Measure-preserving permutation of a space's atoms.

    ``perm[i]`` is the image of atom i.  ``perm`` must hold ints, never
    bools, tested once over its set of types, and sort to 0..n-1.
    Weight preservation (weights[perm[i]] == weights[i]) is enforced at
    construction: on a uniform space (denominator equal to the atom count)
    every permutation preserves weights and nothing is looked up;
    otherwise the images' numerators are compared with the numerators in
    one comparison, and only when that fails are the atoms walked to name
    the first one that changes weight.
    """

    __slots__ = _fields = ("space", "perm")

    def __init__(self, space: FiniteSpace, perm: tuple[int, ...]):
        perm = tuple(perm)
        n = space.atom_count
        if (
            len(perm) != n
            or not all(issubclass(t, int) and t is not bool for t in {*map(type, perm)})
            or sorted(perm) != list(range(n))
        ):
            raise InvalidInputError(f"not a permutation of 0..{n - 1}: {perm}")
        ws, nums = space.weights, space.numerators
        if space.denominator != n and tuple(map(nums.__getitem__, perm)) != nums:
            for i, j in enumerate(perm):
                if nums[i] != nums[j]:
                    raise InvalidInputError(
                        f"atom {i} (weight {show(ws[i])}) maps to "
                        f"atom {j} of different weight {show(ws[j])}"
                    )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "perm", perm)

    @classmethod
    def _trusted(cls, space: FiniteSpace, perm: tuple[int, ...]) -> "Automorphism":
        """Automorphism built without validation, for a ``perm`` tuple already
        known to be a weight-preserving permutation of ``space``'s atoms:
        derived from valid ones (a composition, an inverse, a power, or a
        product map built from them), drawn by a shuffle within weight
        classes, a coordinate shuffle of a uniform Z_2^k, or checked in bulk
        by the config parser.  Every other caller goes through the
        validating constructor."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "space", space)
        object.__setattr__(obj, "perm", perm)
        return obj

    def __call__(self, atom: int) -> int:
        return self.perm[atom]

    @classmethod
    def identity(cls, space: FiniteSpace) -> "Automorphism":
        return cls._trusted(space, tuple(range(space.atom_count)))

    def inverse(self) -> "Automorphism":
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return Automorphism._trusted(self.space, tuple(inv))

    def power(self, k: int) -> "Automorphism":
        """k-th iterate by repeated squaring; negative k iterates the inverse."""
        base = self.perm if k >= 0 else self.inverse().perm
        return Automorphism._trusted(self.space, perm_power(base, abs(k)))

    def image(self, subset: MeasurableSet) -> MeasurableSet:
        if subset.space != self.space:
            raise InvalidInputError("set lives on a different space")
        return MeasurableSet(self.space, frozenset(self.perm[a] for a in subset.atoms))

    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.perm))

    def order(self) -> int:
        """Least k >= 1 with self^k the identity: the lcm of the cycle lengths."""
        return lcm(*map(len, _orbits(self.perm)))


def _orbits(perm: Sequence[int]) -> list[list[int]]:
    """The cycles of a permutation, each from its least atom in the order
    the permutation visits it, cycles by least atom."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if not seen[start]:
            cycle, x = [], start
            while not seen[x]:
                seen[x] = True
                cycle.append(x)
                x = perm[x]
            out.append(cycle)
    return out


def perm_power(perm: tuple[int, ...], k: int) -> tuple[int, ...]:
    """k-th iterate of a permutation tuple, k >= 0, by repeated squaring."""
    result = tuple(range(len(perm)))
    while k:
        if k & 1:
            result = tuple(map(perm.__getitem__, result))
        k >>= 1
        if k:
            perm = tuple(map(perm.__getitem__, perm))
    return result


def compose(a: Automorphism, b: Automorphism) -> Automorphism:
    """Composition a after b: atom x maps to a(b(x))."""
    if a.space != b.space:
        raise InvalidInputError("automorphisms live on different spaces")
    return Automorphism._trusted(a.space, tuple(map(a.perm.__getitem__, b.perm)))


class ActionGenerators(Value):
    """Finitely generated group action on one space."""

    __slots__ = _fields = ("space", "generators")

    def __init__(self, space: FiniteSpace, generators: tuple[Automorphism, ...]):
        generators = tuple(generators)
        if not generators:
            raise InvalidInputError("an action needs at least one generator")
        for g in generators:
            if g.space != space:
                raise InvalidInputError("generator lives on a different space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "generators", generators)


def halmos_distance(p: Automorphism, r: Automorphism) -> Fraction:
    """Weak-topology metric on the automorphism group.

    rho(P, R) = sum_{i=1..n} 2^{-i} (mu(P A_i symdiff R A_i)
                                     + mu(P^{-1} A_i symdiff R^{-1} A_i))
    with A_i the singleton {i-1}.  Zero exactly when P == R; the singleton
    family separates points, so this is a genuine metric.  Computed in
    integers by ``halmos_numerator``, reduced once by the one ``Fraction``
    built at the end."""
    if p.space != r.space:
        raise InvalidInputError("automorphisms live on different spaces")
    num = p.space.numerators
    return Fraction(
        halmos_numerator(num, p.perm, r.perm), p.space.denominator << len(num)
    )


def halmos_numerator(
    numerators: Sequence[int], p: Sequence[int], r: Sequence[int]
) -> int:
    """The integer T with rho(P, R) = T / (2^n D) for permutations ``p`` and
    ``r`` of n atoms weighing ``numerators`` over D.

    Atom j with p_j != r_j puts its brackets' mass on the singletons it
    meets: weight 2^(n-1-j) on num[p_j] + num[r_j] (the forward term of
    {j}), and num[j] at weights 2^(n-1-p_j) and 2^(n-1-r_j) (the inverse
    terms of {p_j} and {r_j}, whose preimages differ there).  Summing over
    j needs no inverse, and atoms with p_j == r_j add nothing."""
    num, top = numerators, len(numerators) - 1
    total = 0
    for j, (pj, rj) in enumerate(zip(p, r)):
        if pj != rj:
            total += ((num[pj] + num[rj]) << (top - j)) + num[j] * (
                (1 << (top - pj)) + (1 << (top - rj))
            )
    return total


def orbit_count(a: Automorphism) -> int:
    """Number of orbits of the cyclic group generated by ``a``."""
    return len(_orbits(a.perm))


def orbit_labels(size: int, maps: Iterable[Sequence[int]]) -> list[int]:
    """Orbit of every point 0..size-1 under the group generated by the
    permutations ``maps`` (each a list of images), orbits numbered 0, 1, ...
    by first appearance in index order.

    Each unlabelled point, in index order, starts a stack walk that labels
    everything its images reach; for permutations of a finite set that
    forward closure is the whole orbit."""
    maps = list(maps)
    labels = [-1] * size
    count = 0
    for start in range(size):
        if labels[start] >= 0:
            continue
        labels[start] = count
        stack = [start]
        while stack:
            x = stack.pop()
            for images in maps:
                y = images[x]
                if labels[y] < 0:
                    labels[y] = count
                    stack.append(y)
        count += 1
    return labels


# ---------------------------------------------------------------------------
# product structure
# ---------------------------------------------------------------------------

def product_bounds(spaces: Sequence[FiniteSpace]) -> tuple[int, int]:
    """(atom count, denominator) of the product of ``spaces``: the size is
    checked first, then every partial denominator, so an oversized product
    raises before a caller builds anything of its size."""
    if not spaces:
        raise InvalidInputError("product of zero spaces is undefined here")
    size = space_size(shape_of(spaces))
    den = 1
    for sp in spaces:
        den *= sp.denominator
        check_form_bits(size, den)
    return size, den


def product_form(spaces: Sequence[FiniteSpace]) -> tuple[list[int], int]:
    """Integer form of the product weights, atoms in lexicographic order: the
    factors' numerators multiply, and their denominators multiply to the lcm.
    ``product_bounds`` is checked before multiplying."""
    _, den = product_bounds(spaces)
    nums = [1]
    for sp in spaces:
        nums = [x * y for x in nums for y in sp.numerators]
    return nums, den


def weight_counts(spaces: Sequence[FiniteSpace]) -> tuple[dict[int, int], int]:
    """How many atoms of the product of ``spaces`` carry each product
    weight: {numerator: atom count} over the product's denominator.  The
    work is the number of distinct partial products, one for uniform
    factors; ``product_bounds`` is checked first."""
    _, den = product_bounds(spaces)
    counts = {1: 1}
    for sp in spaces:
        step: dict[int, int] = {}
        for n, k in Counter(sp.numerators).items():
            for w, c in counts.items():
                step[w * n] = step.get(w * n, 0) + c * k
        counts = step
    return counts, den


def product_space(spaces: Sequence[FiniteSpace]) -> FiniteSpace:
    """Product space; atoms are tuples in lexicographic order, weights multiply.
    ``product_form`` already gives the canonical, positive integer form
    summing to its denominator, so nothing is re-validated."""
    return FiniteSpace._trusted(*product_form(spaces))


def shape_of(spaces: Sequence[FiniteSpace]) -> tuple[int, ...]:
    return tuple(sp.atom_count for sp in spaces)


def tuple_to_index(shape: Sequence[int], tup: Sequence[int]) -> int:
    """Rank of an atom tuple in lexicographic order (last coordinate
    fastest); a coordinate that is not an int in range, a bool among
    them, is refused."""
    if len(tup) != len(shape):
        raise InvalidInputError(f"tuple {tup} does not match shape {shape}")
    idx = 0
    for n, t in zip(shape, tup):
        if type(t) is not int or not 0 <= t < n:
            raise InvalidInputError(f"coordinate {t} outside 0..{n - 1}")
        idx = idx * n + t
    return idx


def index_to_tuple(shape: Sequence[int], index: int) -> tuple[int, ...]:
    out = []
    for n in reversed(shape):
        out.append(index % n)
        index //= n
    if index:
        raise InvalidInputError("index outside the product space")
    return tuple(reversed(out))


def iter_tuples(shape: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All atom tuples in lexicographic order."""
    return product(*(range(n) for n in shape))


def flat_index_map(
    shape: Sequence[int], per_axis: Sequence[Sequence[int]]
) -> list[int]:
    """For every flat index of a tuple t, in lexicographic order, the sum
    over axes a of ``per_axis[a][t_a]``; built axis by axis."""
    if len(per_axis) != len(shape) or any(
        len(col) != n for col, n in zip(per_axis, shape)
    ):
        raise InvalidInputError(f"per-axis tables do not match shape {tuple(shape)}")
    space_size(shape)
    return _sum_table(per_axis)


def _sum_table(per_axis: Sequence[Sequence[int]]) -> list[int]:
    """``flat_index_map`` unchecked: the sum over axes a of
    ``per_axis[a][t_a]`` for every tuple t on the tables' shape."""
    out = [0]
    for col in per_axis:
        out = [m + c for m in out for c in col]
    return out


def _offsets(shape: Sequence[int]) -> list[list[int]]:
    """offsets[a][t] = t * stride_a, the share of coordinate a in a flat index."""
    out = []
    stride = 1
    for n in reversed(shape):
        out.append([t * stride for t in range(n)])
        stride *= n
    return out[::-1]


def moved_index_map(
    shape: Sequence[int], perms: Sequence[Sequence[int]]
) -> list[int]:
    """Flat index of (perms[0][t_0], ..., perms[-1][t_-1]) for every flat
    index of t."""
    return flat_index_map(
        shape, [[col[p] for p in perm] for col, perm in zip(_offsets(shape), perms)]
    )


def support_cells(
    shape: Sequence[int], numerators: Sequence[int]
) -> tuple[list[int], list[int], tuple[int, list[int], list[int]]]:
    """The support of ``numerators`` laid out on ``shape``: the flat indices
    of its nonzero cells (of either sign) in ascending order, their values,
    and the cells cut in two by ``split_cells``."""
    cells = list(compress(range(len(numerators)), numerators))
    return cells, list(compress(numerators, numerators)), split_cells(shape, cells)


def split_cells(
    shape: Sequence[int], cells: Sequence[int]
) -> tuple[int, list[int], list[int]]:
    """(h, high, low) for the listed flat indices: the shape is cut after
    its first h axes, as many as keep their atom count at most that of the
    rest, and ``high[k]`` and ``low[k]`` are the flat indices of the
    coordinates of ``cells[k]`` before and after the cut, each in its own
    part's shape."""
    high_size, low_size, h = 1, space_size(shape), 0
    while h < len(shape) and high_size * shape[h] <= low_size // shape[h]:
        high_size *= shape[h]
        low_size //= shape[h]
        h += 1
    return h, [i // low_size for i in cells], [i % low_size for i in cells]


def support_map(
    split: tuple[int, Sequence[int], Sequence[int]],
    per_axis: Sequence[Sequence[int]],
) -> list[int]:
    """For every cell k of a ``split_cells`` split, the sum over axes a of
    ``per_axis[a][t_a]`` at the cell's coordinates t: ``flat_index_map``
    on those cells.  Each part's tables are summed over the part's own
    shape, so each cell costs one lookup per part, whatever the number of
    axes."""
    h, high, low = split
    top, bottom = _sum_table(per_axis[:h]), _sum_table(per_axis[h:])
    return list(map(add, map(top.__getitem__, high), map(bottom.__getitem__, low)))


def projection_map(shape: Sequence[int], coords: Sequence[int]) -> list[int]:
    """Flat index of (t_c for c in coords) in the sub-shape on ``coords`` for
    every flat index of t."""
    return flat_index_map(shape, _projection_tables(shape, coords))


def _projection_tables(shape: Sequence[int], coords: Sequence[int]) -> list[list[int]]:
    """The per-axis tables of ``projection_map``: on each axis of ``coords``
    its offsets in the sub-shape on ``coords``, zeros on every other axis."""
    per_axis = [[0] * n for n in shape]
    for c, col in zip(coords, _offsets([shape[c] for c in coords])):
        per_axis[c] = col
    return per_axis


def embedding_map(shape: Sequence[int], coords: Sequence[int]) -> list[int]:
    """Flat index in ``shape`` of the tuple carrying s on ``coords`` and 0
    elsewhere, for every flat index of s in the sub-shape on ``coords``."""
    offsets = _offsets(shape)
    return flat_index_map([shape[c] for c in coords], [offsets[c] for c in coords])

