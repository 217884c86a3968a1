"""Joinings of finite measure spaces as exact dense tensors.

A joining of factors (X_1, mu_1), ..., (X_n, mu_n) is a probability
measure on the product whose single-coordinate marginals are the mu_i.
Entries are stored flat in lexicographic tuple order.  The module also
carries exact disintegration over a base and its inverse ``reassemble``,
the predual push of a joining through a tuple of operators, and the
pairing of Markov operators with joinings: an operator's kernel rows are
the conditionals of the disintegration over the face complementary to
the distinguished coordinate, and its joining is their ``reassemble``.
A dependent complementary face raises ``disintegrate``'s
``PreconditionError``; a distinguished marginal other than the factor's
weights fails the operator's weighted column check (``InvalidInputError``).

Every tensor is its integer form: Python-int numerators over one common
denominator.  ``RawTensor`` holds that form with no axiom imposed, as a
decoded file arrives, and owns what is read off it: the shape, the
``Fraction`` entries and the support, each built on first read and kept.
``ProductMeasure`` and ``JoiningTensor`` extend it with validation,
equality and the measure operations.  A measure's form is canonical, the
lcm of the entries' reduced denominators, computed once at construction;
the sign, mass and marginal checks run on it, and a command that reads
no entry builds no ``Fraction``.  A builder that already holds an
integer form (a marginal, a conditional or a sparse tensor, a decoded
file) constructs through ``_from_form``, which the ``Fraction`` constructor
also ends in, so both run one validation.  The form costs entries times
the bit length of the denominator; past ``FORM_BITS_CAP`` bits
construction raises ``ResourceLimitError`` before any numerator is
scaled.

The measure kernels (face sums, the marginal and face checks, the
invariance defect) take one tensor, raw or checked, and read only its
support: the nonzero cells, from ``spaces.support_cells``, with each
cell's flat index on the first h axes and on the rest (the split).  A
tensor lists its support once and every kernel shares it; a builder that
visits the cells anyway (the file decoder, ``torus.triple_sum_joining``)
hands the support over with the entries, and no scan of the numerators
runs.  Loops that need every cell (a full fill, a push, a
disintegration) walk the dense flat index maps of ``spaces`` instead.

Every face marginal is one sum and one comparison.  ``_face_sums`` sums
the support onto each face asked for: a face inside one half of the split
is projected from that half's dense sums, each half summed at most once
per call, and a face across the cut goes through ``spaces.support_map``.
``_gap`` compares the sums with the product weights: on uniform factors
every weight is 1/W, so only the largest and the smallest sum are
compared; otherwise each cell is compared with its own weight.  The
face on every axis is the tensor itself, whose cells off the support sit
at their product weight from it: ``_full_face_gap`` compares the support
cells by ``_gap`` and adds the heaviest product weight the support does
not fill, found by counting the cells of each weight
(``spaces.weight_counts``).

``diagonal_invariance_defect`` lists the moved support values per
generator and compares the list with the support's values first: a
generator that moves no value adds nothing and skips the off-support scan.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import gcd, lcm
from operator import mul, sub

from .errors import InvalidInputError, PreconditionError, Value, check, require_int
from .operators import MarkovOperator
from .rationals import as_fraction, show
from .spaces import (
    ActionGenerators,
    FiniteSpace,
    _fractions,
    _offsets,
    _projection_tables,
    _sum_table,
    embedding_map,
    index_to_tuple,
    integer_form,
    product_bounds,
    product_form,
    product_space,
    shape_of,
    space_size,
    support_cells,
    support_map,
    tuple_to_index,
    weight_counts,
)


class RawTensor(Value):
    """Tensor on a product of finite spaces in integer form, with no axiom
    imposed: entries[i] == numerators[i] / denominator, of either sign and
    any mass.  ``entries`` and ``support`` (``spaces.support_cells`` of the
    numerators) are built on first read unless given.  Only ``entries``
    among the derived fields is read by equality, hash and repr."""

    __slots__ = ("factors", "numerators", "denominator", "_entries", "_support")
    _fields = ("factors", "entries", "numerators", "denominator")

    def __init__(
        self,
        factors: tuple[FiniteSpace, ...],
        entries: tuple[Fraction, ...],
        numerators: tuple[int, ...],
        denominator: int,
    ):
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_entries", entries)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator)

    @classmethod
    def _decoded(cls, factors, numerators, denominator: int, support=None):
        """The tensor of an integer form, entries unbuilt and nothing
        checked, the one unchecked constructor: a decoded file, or on a
        measure class a measure by construction (the product weights, the
        order-4 sum joining).  ``support`` is kept when given and otherwise
        listed on first read."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "factors", factors)
        object.__setattr__(obj, "numerators", numerators)
        object.__setattr__(obj, "denominator", denominator)
        if support is not None:
            object.__setattr__(obj, "_support", support)
        return obj

    @property
    def shape(self) -> tuple[int, ...]:
        return shape_of(self.factors)

    @property
    def order(self) -> int:
        return len(self.factors)

    @property
    def size(self) -> int:
        return space_size(self.shape)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """The entries as ``Fraction``, one object per distinct value, built
        from the integer form on first read."""
        try:
            return self._entries
        except AttributeError:
            found = _fractions(self.numerators, self.denominator)
            object.__setattr__(self, "_entries", found)
            return found

    @property
    def support(self) -> tuple[list[int], list[int], tuple]:
        """``spaces.support_cells`` of the numerators, computed once."""
        try:
            return self._support
        except AttributeError:
            found = support_cells(self.shape, self.numerators)
            object.__setattr__(self, "_support", found)
            return found

    def value(self, tup: Sequence[int]) -> Fraction:
        return self.entries[tuple_to_index(self.shape, tup)]

    def nonzero(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """(tuple, value) pairs of the support in lexicographic order, one
        ``Fraction`` per distinct value."""
        cells, values, _ = self.support
        tuples = map(partial(index_to_tuple, self.shape), cells)
        return list(zip(tuples, _fractions(values, self.denominator)))


class ProductMeasure(RawTensor):
    """Probability measure on a product of finite spaces (mass one, entries
    nonnegative).  Marginals are unconstrained; conditional measures produced
    by disintegration live here.  ``numerators`` and ``denominator`` are
    its integer form, computed at construction and left out of repr.  The
    form is the measure: equality and hash read it."""

    __slots__ = ()
    _fields = ("factors", "entries")

    def __init__(self, factors: tuple[FiniteSpace, ...], entries: tuple[Fraction, ...]):
        entries = tuple(as_fraction(x) for x in entries)
        self._set_form(tuple(factors), *integer_form(entries), entries)

    @classmethod
    def _from_form(cls, factors, numerators, denominator: int):
        """Measure with entries ``numerators[i] / denominator`` (a positive
        denominator), checked exactly as the constructor checks entries.
        The form is divided by its gcd, so any common denominator will do,
        and the entries are built from it when first read."""
        obj = object.__new__(cls)
        obj._set_form(tuple(factors), numerators, denominator)
        return obj

    def _set_form(self, factors, numerators, denominator, entries=None) -> None:
        """Store the canonical form and the entries, then check them: the
        one validation path, which ``_from_form`` and the constructor share."""
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise InvalidInputError("a measure needs at least one factor")
        if len(numerators) != self.size:
            raise InvalidInputError(
                f"expected {self.size} entries, got {len(numerators)}"
            )
        if entries is None:
            common = gcd(denominator, *numerators)
            if common > 1:
                numerators = [n // common for n in numerators]
                denominator //= common
        else:
            object.__setattr__(self, "_entries", entries)
        object.__setattr__(self, "numerators", tuple(numerators))
        object.__setattr__(self, "denominator", denominator)
        self._check()

    def _check(self) -> None:
        """Raise unless the entries are nonnegative with mass one."""
        nums, den = self.numerators, self.denominator
        if min(nums) < 0:
            first = next(i for i, x in enumerate(nums) if x < 0)
            raise InvalidInputError(
                f"negative entry at {index_to_tuple(self.shape, first)}"
            )
        mass = sum(nums)
        if mass != den:
            raise InvalidInputError(
                f"total mass is {show(Fraction(mass, den))}, expected 1"
            )

    # The integer form is canonical, so comparing it compares the entries.
    def __eq__(self, other):
        if not isinstance(other, ProductMeasure):
            return NotImplemented
        return (
            self.factors == other.factors
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self):
        return hash((self.factors, self.numerators, self.denominator))


class JoiningTensor(ProductMeasure):
    """ProductMeasure whose every single-coordinate marginal equals the
    corresponding factor's weight vector."""

    __slots__ = ()

    def _check(self) -> None:
        """Raise unless the measure checks pass and every single-coordinate
        marginal is its factor's weights.  The marginals are read off the
        two halves of the support's split, each summed once
        (``_face_gaps``); the first coordinate in axis order whose marginal
        differs is named."""
        super()._check()
        gaps = _face_gaps(self, [(c,) for c in range(self.order)])
        coord = next((c for c, gap in enumerate(gaps) if gap), None)
        if coord is not None:
            got = _fractions(_axis_sums(self, (coord,)), self.denominator)
            raise InvalidInputError(
                f"marginal onto coordinate {coord} is {show(got)}, "
                f"expected the factor weights {show(self.factors[coord].weights)}"
            )

    @classmethod
    def from_nonzero(
        cls,
        factors: Sequence[FiniteSpace],
        values: Mapping[tuple[int, ...], Fraction],
    ) -> "JoiningTensor":
        factors = tuple(factors)
        shape = shape_of(factors)
        cells = {tuple_to_index(shape, t): as_fraction(x) for t, x in values.items()}
        return cls._from_form(factors, *sparse_form(space_size(shape), cells))


def sparse_form(size: int, cells: Mapping[int, Fraction]) -> tuple[list[int], int]:
    """Integer form of the ``size`` entries that hold ``cells[i]`` at each
    flat index i listed and zero elsewhere.  Only the listed values are
    scaled, but the ``FORM_BITS_CAP`` check counts all ``size`` entries."""
    nums, den = integer_form(tuple(cells.values()), size)
    out = [0] * size
    for i, n in zip(cells, nums):
        out[i] = n
    return out, den


def _axis_sums(v: RawTensor, coords) -> list[int]:
    """Integer sums of v's numerators over every coordinate outside
    ``coords``: the marginal's numerators over the same denominator, in the
    sub-shape's index order.  ``_face_sums`` of the one face."""
    return next(_face_sums(v, [coords]))


def _face_sums(v: RawTensor, faces):
    """``_axis_sums`` of each face in turn.  The support's split (h, high,
    low) cuts the axes after the first h.  A face inside one half is read
    from that half: the support values summed by the cells' flat index on
    it (``high`` or ``low``) into a dense array on its shape, at most once
    per call, then projected onto the face.  A face across the cut adds
    each support value into its projected cell (``spaces.support_map``)."""
    shape = v.shape
    _, values, split = v.support
    h, high, low = split
    halves = {}  # the dense sums of each half read so far, by its first axis
    for coords in faces:
        coords = tuple(coords)
        size = space_size(shape[c] for c in coords)
        if coords[0] < h <= coords[-1]:  # across the cut
            cells = support_map(split, _projection_tables(shape, coords))
            yield _sums_by(size, cells, values)
            continue
        first, part, index = (h, shape[h:], low) if coords[0] >= h else (0, shape[:h], high)
        if first not in halves:
            halves[first] = _sums_by(space_size(part), index, values)
        cells = _sum_table(_projection_tables(part, [c - first for c in coords]))
        yield _sums_by(size, cells, halves[first])


def _sums_by(size: int, index, values) -> list[int]:
    """out[j] = the sum of ``values[k]`` over every k with ``index[k] == j``,
    for j in range(size)."""
    out = [0] * size
    for j, x in zip(index, values):
        out[j] += x
    return out


def _face_gaps(v: RawTensor, faces):
    """The sup-distance from v's marginal on each face to the product of
    that face's factors' measures, in turn; v need not be a measure.  The
    face on every axis, whose marginal is the tensor, is read by
    ``_full_face_gap``; every other is summed by ``_face_sums`` and
    compared by ``_gap``."""
    faces = [tuple(c) for c in faces]
    whole = tuple(range(v.order))
    sums = _face_sums(v, [coords for coords in faces if coords != whole])
    for coords in faces:
        if coords == whole:
            yield _full_face_gap(v)
        else:
            yield _gap(next(sums), None, [v.factors[c] for c in coords], v.denominator)


def _gap(values, weights, factors, den: int) -> Fraction:
    """Sup-distance from the nonempty ``values`` over ``den`` to product
    weights of ``factors``: ``weights``, numerators over the product
    denominator W, one per value, or, when None, ``product_form``'s in
    index order.  When every factor is uniform (a canonical space's n
    positive numerators sum to its denominator, so they are all 1 exactly
    when the denominator is n), each product weight is 1/W and only the
    largest and the smallest value are compared; no weight is read."""
    if all(sp.denominator == sp.atom_count for sp in factors):
        _, w = product_bounds(factors)
        worst = max(w * max(values) - den, den - w * min(values))
    else:
        if weights is None:
            weights, w = product_form(factors)
        else:
            _, w = product_bounds(factors)
        worst = max(map(abs, map(sub, map(w.__mul__, values), map(den.__mul__, weights))))
    return Fraction(worst, den * w)


def _full_face_gap(v: RawTensor) -> Fraction:
    """``_face_gaps`` of the face on every axis, read from the support
    alone.  A cell off the support has numerator 0, so its gap is its
    product weight, whatever the tensor's values: the answer is the larger
    of ``_gap`` on the support and the heaviest product weight among the
    cells off it.  A cell of weight w lies off the support exactly when the
    support holds fewer cells of weight w than the product
    (``spaces.weight_counts``).  On uniform factors there is one weight and
    the support's values alone are compared; otherwise each support cell's
    weight is the product of its two halves' weights.  The work is the
    support, the product weights of the two halves and the distinct
    product weights."""
    factors = v.factors
    _, values, (h, high, low) = v.support
    counts, weight_den = weight_counts(factors)
    if len(counts) == 1:  # every factor uniform
        weights, held = None, dict.fromkeys(counts, len(values))
    else:
        top, bottom = (product_form(f)[0] if f else [1] for f in (factors[:h], factors[h:]))
        weights = list(map(mul, map(top.__getitem__, high), map(bottom.__getitem__, low)))
        held = Counter(weights)
    off = max((w for w, n in counts.items() if held[w] < n), default=0)
    gap = _gap(values, weights, factors, v.denominator) if values else Fraction(0)
    return max(gap, Fraction(off, weight_den))


def sup_distance(v: ProductMeasure, w: ProductMeasure) -> Fraction:
    """Largest absolute entrywise difference."""
    if v.factors != w.factors:
        raise InvalidInputError("measures live on different products")
    den = lcm(v.denominator, w.denominator)
    a, b = den // v.denominator, den // w.denominator
    best = max(abs(x * a - y * b) for x, y in zip(v.numerators, w.numerators))
    return Fraction(best, den)


def product_joining(factors: Sequence[FiniteSpace]) -> JoiningTensor:
    """Fully independent joining: entry at t is the product of the weights."""
    factors = tuple(factors)
    if not factors:
        raise InvalidInputError("a joining needs at least one factor")
    nums, den = product_form(factors)
    return JoiningTensor._decoded(factors, tuple(nums), den)


def _coords(coords, order: int, name: str, count: int | None = None) -> tuple[int, ...]:
    """``coords`` as a tuple, refused under ``name`` unless they are ints, never
    bools, strictly increasing, nonempty (``count`` of them) and in range."""
    coords = tuple(coords)
    ok = coords and all(isinstance(c, int) and not isinstance(c, bool) for c in coords)
    ok = ok and list(coords) == sorted(set(coords))
    if count is None:
        check(ok, name, f"{name} must be nonempty strictly increasing, got {coords}")
    else:
        check(ok and len(coords) == count, name, f"need {count} strictly increasing {name}")
    check(coords[0] >= 0 and coords[-1] < order, name, f"{name} {coords} outside 0..{order - 1}")
    return coords


def _position(position, order: int, what: str) -> None:
    """Refuse a ``position`` other than an int, never a bool, in 0..order - 1."""
    check(isinstance(position, int) and not isinstance(position, bool)
          and 0 <= position < order, "distinguished",
          f"distinguished {what} {position} out of range")


def marginal(v: ProductMeasure, coords: Sequence[int]) -> ProductMeasure:
    """Marginal onto the listed coordinates (strictly increasing order).

    Returns a JoiningTensor when called on one, since marginals of a joining
    are joinings of the selected factors.
    """
    coords = _coords(coords, v.order, "coords")
    sums = _axis_sums(v, coords)
    factors = tuple(v.factors[c] for c in coords)
    cls = JoiningTensor if isinstance(v, JoiningTensor) else ProductMeasure
    return cls._from_form(factors, sums, v.denominator)


def diagonal_invariance_defect(v: RawTensor, action: ActionGenerators) -> Fraction:
    """How far v is from invariance under the diagonal action: max over
    generators g and tuples t of |v(g t) - v(t)|; v need not be a measure.

    Only the support S (the nonzero cells) is read, and g t is computed
    only for t in S.  The values v(g t) are listed first: when the list
    equals the values of S, g moves no value of S, maps S onto itself and
    adds nothing.  Otherwise the gap is the largest |v(g t) - v(t)| on S
    or, off S, the largest |v(g t)|, nonzero only where g t lies in S but
    not in g(S)."""
    for sp in v.factors:
        if sp != action.space:
            raise InvalidInputError("every factor must equal the action's space")
    numerators = v.numerators
    cells, values, split = v.support
    offsets = _offsets(v.shape)
    best = 0
    for g in action.generators:
        images = support_map(split, [[col[p] for p in g.perm] for col in offsets])
        moved = list(map(numerators.__getitem__, images))  # n(g t), t in S
        if moved == values:
            continue
        hit = set(images)  # g(S)
        gap = max(max(map(abs, map(sub, moved, values))), max(
            (abs(x) for u, x in zip(cells, values) if u not in hit), default=0
        ))
        best = max(best, gap)
    return Fraction(best, v.denominator)


def face_independence_defect(v: RawTensor, m: int) -> Fraction:
    """Largest sup-distance between an m-face marginal and the corresponding
    product measure, over all m-subsets of coordinates; v need not be a
    measure.  At m = 1 it is the largest |marginal - weight| over every
    coordinate and atom; at m = v.order the one face is v itself, and the
    value is v's sup-distance to the product of its factors."""
    if not isinstance(m, int) or isinstance(m, bool) or not 1 <= m <= v.order:
        raise InvalidInputError(f"face order must satisfy 1 <= m <= {v.order}, got {m!r}")
    return max(_face_gaps(v, combinations(range(v.order), m)))


def operator_from_joining(v: ProductMeasure, distinguished: int) -> MarkovOperator:
    """Markov operator P from the distinguished factor to the product of the
    rest, defined by the pairing

        <P f, g>_{L2(rest)} = integral of f (x) g  d v,

    i.e. kernel[rest-tuple] is the conditional of the distinguished
    coordinate given the rest-tuple: ``disintegrate(v, rest)``, the
    disintegration over the complementary face.  A dependent complementary
    face raises its ``PreconditionError``; a distinguished marginal other
    than the factor's weights fails the operator's weighted column check
    (``InvalidInputError``)."""
    if v.order < 2:
        raise InvalidInputError("need at least two factors")
    _position(distinguished, v.order, "coordinate")
    field = disintegrate(v, [c for c in range(v.order) if c != distinguished])
    kernel = tuple(cond.entries for cond in field.assignment)
    return MarkovOperator(v.factors[distinguished], product_space(field.base_spaces), kernel)


def joining_from_operator(
    p: MarkovOperator,
    rest_factors: Sequence[FiniteSpace] | None = None,
    distinguished: int = 0,
) -> JoiningTensor:
    """Inverse of operator_from_joining: v(..., y, ...) with y at the
    distinguished position equals weight_target(rest-tuple) * kernel[rest][y],
    the ``reassemble`` over the complementary face of the field whose
    conditionals are p's kernel rows.  ``rest_factors`` names the
    factorisation of p's target (default: one factor) and the source factor
    is inserted at ``distinguished``; factors that do not multiply to the
    target or a position out of range raise ``InvalidInputError``."""
    if rest_factors is None:
        rest_factors = [p.target]
    rest_factors = tuple(rest_factors)
    if product_space(rest_factors) != p.target:
        raise InvalidInputError("rest_factors do not multiply to the operator's target")
    order = len(rest_factors) + 1
    _position(distinguished, order, "position")
    rows = tuple(ProductMeasure((p.source,), row) for row in p.kernel)
    field = EquivariantField(rest_factors, (p.source,), rows)
    return reassemble(field, [c for c in range(order) if c != distinguished])


def push_joining(v: ProductMeasure, ops: Sequence[MarkovOperator]) -> JoiningTensor:
    """Predual action of a tuple of Markov operators, one per coordinate.

    Coordinate i moves by the transition matrix
    trans(s -> t) = weight_target(t) * kernel[t][s] / weight_source(s),
    which is stochastic and carries mu_source to mu_target; in particular
    marginals stay correct and the result is again a joining.  The
    contraction runs one coordinate at a time, joining the offsets of the
    moved axis to those of the others through ``embedding_map``.
    """
    ops = tuple(ops)
    if len(ops) != v.order:
        raise InvalidInputError(f"need {v.order} operators, got {len(ops)}")
    for i, op in enumerate(ops):
        if op.source != v.factors[i]:
            raise InvalidInputError(f"operator {i} source does not match factor {i}")
    entries, shape = v.entries, v.shape
    for axis, op in enumerate(ops):
        trans = _transition_matrix(op)
        rest = tuple(c for c in range(len(shape)) if c != axis)
        pushed = shape[:axis] + (op.target.atom_count,) + shape[axis + 1:]
        out = [Fraction(0)] * space_size(pushed)
        sources = embedding_map(shape, (axis,))
        targets = embedding_map(pushed, (axis,))
        for r, r_out in zip(embedding_map(shape, rest), embedding_map(pushed, rest)):
            for s, row in zip(sources, trans):
                x = entries[r + s]
                if x:
                    for t, c in zip(targets, row):
                        if c:
                            out[r_out + t] += c * x
        entries, shape = out, pushed
    return JoiningTensor(tuple(op.target for op in ops), tuple(entries))


def _transition_matrix(op: MarkovOperator) -> list[list[Fraction]]:
    """trans[s][t]: mass flow from source atom s to target atom t."""
    ws, wt = op.source.weights, op.target.weights
    ns, nt = op.source.atom_count, op.target.atom_count
    return [
        [wt[t] * op.kernel[t][s] / ws[s] for t in range(nt)]
        for s in range(ns)
    ]


def product_convergence_trace(
    v: ProductMeasure,
    distinguished_rule: Callable[[int], MarkovOperator],
    fiber_rule: Callable[[int, int], MarkovOperator],
    j_max: int,
) -> tuple[Fraction, ...]:
    """Sup-distances to the fully independent joining after pushing v by
    (distinguished_rule(j), fiber_rule(1, j), ..., fiber_rule(n, j)) for
    j = 1..j_max.

    The trace tends to zero when the distinguished rule tends to the
    identity, every fiber rule tends to the averaging operator, and v's
    face on coordinates 1..n is independent.  That last hypothesis is the
    caller's precondition and is not checked: on any other tensor the
    trace is only a diagnostic."""
    if v.order < 2:
        raise InvalidInputError("need at least two factors")
    require_int(j_max, "j_max", 1)
    trace = []
    for j in range(1, j_max + 1):
        ops = [distinguished_rule(j)]
        ops.extend(fiber_rule(i, j) for i in range(1, v.order))
        p = push_joining(v, ops)
        trace.append(face_independence_defect(p, p.order))
    return tuple(trace)


# ---------------------------------------------------------------------------
# disintegration
# ---------------------------------------------------------------------------

class EquivariantField(Value):
    """Assignment of a fiber measure to every base tuple, stored in
    lexicographic base order.  Every assigned measure has mass one."""

    __slots__ = _fields = ("base_spaces", "fiber_spaces", "assignment")

    def __init__(
        self,
        base_spaces: tuple[FiniteSpace, ...],
        fiber_spaces: tuple[FiniteSpace, ...],
        assignment: tuple[ProductMeasure, ...],
    ):
        object.__setattr__(self, "base_spaces", tuple(base_spaces))
        object.__setattr__(self, "fiber_spaces", tuple(fiber_spaces))
        object.__setattr__(self, "assignment", tuple(assignment))
        if not self.base_spaces or not self.fiber_spaces:
            raise InvalidInputError("field needs base and fiber factors")
        expected = space_size(sp.atom_count for sp in self.base_spaces)
        if len(self.assignment) != expected:
            raise InvalidInputError(
                f"expected {expected} conditional measures, got {len(self.assignment)}"
            )
        for t in self.assignment:
            if t.factors != self.fiber_spaces:
                raise InvalidInputError(
                    "conditional measure factors do not match the fiber spaces"
                )


def disintegrate(v: ProductMeasure, base_coords: Sequence[int]) -> EquivariantField:
    """Exact disintegration over the marginal on ``base_coords``.

    Requires that marginal to be the independent product of the base factors,
    so every base tuple has positive mass and conditioning is plain division.
    """
    base_coords = _coords(base_coords, v.order, "base coords")
    fiber_coords = tuple(c for c in range(v.order) if c not in base_coords)
    if not fiber_coords:
        raise InvalidInputError("at least one fiber coordinate is required")
    if next(_face_gaps(v, [base_coords])):
        raise PreconditionError(
            "marginal onto the base is not the independent product measure"
        )
    nums = v.numerators
    base_factors = tuple(v.factors[c] for c in base_coords)
    fiber_factors = tuple(v.factors[c] for c in fiber_coords)
    fibers = embedding_map(v.shape, fiber_coords)
    # the conditional at base cell b is v's row at b over its positive mass
    rows = ([nums[b + f] for f in fibers] for b in embedding_map(v.shape, base_coords))
    conditionals = [ProductMeasure._from_form(fiber_factors, row, sum(row)) for row in rows]
    return EquivariantField(base_factors, fiber_factors, conditionals)


def reassemble(field: EquivariantField, base_coords: Sequence[int]) -> JoiningTensor:
    """Rebuild the joining whose disintegration over ``base_coords`` is the
    field, with base factors at those positions: v = mu_base x conditional."""
    m = len(field.base_spaces)
    order = m + len(field.fiber_spaces)
    base_coords = _coords(base_coords, order, "base coords", m)
    fiber_coords = tuple(c for c in range(order) if c not in base_coords)
    factors = [None] * order
    for c, sp in zip(base_coords, field.base_spaces):
        factors[c] = sp
    for c, sp in zip(fiber_coords, field.fiber_spaces):
        factors[c] = sp
    factors = tuple(factors)
    shape = tuple(sp.atom_count for sp in factors)
    fibers = embedding_map(shape, fiber_coords)
    entries = [Fraction(0)] * space_size(shape)
    for b, w, cond in zip(
        embedding_map(shape, base_coords),
        product_space(field.base_spaces).weights,
        field.assignment,
    ):
        for f, x in zip(fibers, cond.entries):
            entries[b + f] = w * x
    return JoiningTensor(factors, tuple(entries))
