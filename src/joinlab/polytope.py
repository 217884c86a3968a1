"""Joining polytopes: exact linear programming over invariant joinings.

For an action on one space, the polytope of order-n tensors with
nonnegative entries, diagonal invariance under every generator and fully
independent m-faces always contains the product measure.  An invariant
tensor is constant on each orbit of the diagonal action on index tuples,
so the LP has one variable per orbit and one row per m-face cell, with no
invariance rows (the standard orbit reduction of a symmetric LP).  The
product measure is strictly positive, so the polytope is that single
point exactly when the reduced system has full column rank; otherwise a
max and a min LP per orbit, in orbit order, find the farthest vertex.
That scan stops once its answer is final: when its best deviation
reaches a bound read off the face rows (an orbit counted c times in a
cell of weight w lies in [0, w / c]), or when the least orbit of the last
axis class has run both LPs (permuting the tensor axes maps the polytope
onto itself, so the orbits of a class share one range).  Either rule
stops a prefix of the full scan at its largest deviation, so the
certificate is the full scan's.  The scan runs in integers on the
solver's integer core: unit objectives, the product weights as integer
numerators over one denominator, vertices read from the basic rows as
(numerator, denominator) pairs, and sup-distances compared by
cross-multiplication.  Only the deviation becomes a ``Fraction``; the
winning vertex becomes a tensor in integer form.  Vertices come back as
full tensors and are re-verified through the joining defect checks, an
independent code path from the LP itself.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations, product
from math import lcm

from .errors import InvalidInputError, JoinlabInternalError, Value, check, require_int
from .joinings import (
    JoiningTensor,
    diagonal_invariance_defect,
    face_independence_defect,
)
from .rationals import as_fraction
from .simplex import RationalSimplex
from .spaces import (
    SIZE_CAP,  # also read as polytope.SIZE_CAP
    ActionGenerators,
    _offsets,
    _sum_table,
    check_form_bits,
    moved_index_map,
    orbit_labels,
    product_form,
    product_space,
    projection_map,
    space_size,
)

ORDER_CAP = 4


class PolytopeSpec(Value):
    """Order-n joining polytope of an action with independent m-faces."""

    __slots__ = _fields = ("action", "order", "independence")

    def __init__(self, action: ActionGenerators, order: int, independence: int):
        require_int(order, "order", 2, ORDER_CAP)
        check(isinstance(independence, int) and not isinstance(independence, bool)
              and 1 <= independence < order, "independence",
              f"independence must satisfy 1 <= m < {order}, got {independence!r}")
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "independence", independence)
        space_size(self.shape)

    @property
    def size(self) -> int:
        return space_size(self.shape)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.action.space.atom_count,) * self.order


class LpOutcome(Value):
    __slots__ = _fields = ("status", "optimum", "witness")


class TrivialityCertificate(Value):
    """trivial=True: the polytope is exactly {product measure}.  Otherwise
    ``witness`` is a vertex and ``max_deviation`` its sup-distance to the
    product measure."""

    __slots__ = _fields = ("trivial", "max_deviation", "witness")


class _Reduction(Value):
    """The polytope with one variable per orbit of the diagonal action on
    index tuples: ``orbit[idx]`` labels each coordinate, orbits numbered by
    first appearance in index order; ``rows``/``rhs`` pin every m-face cell
    to the product of its weights, each row counting how many of an
    orbit's tuples fall in the cell."""

    __slots__ = _fields = ("orbit", "count", "rows", "rhs")


def _reduce(spec: PolytopeSpec) -> _Reduction:
    shape, gens = spec.shape, spec.action.generators
    orbit = tuple(orbit_labels(
        spec.size, (moved_index_map(shape, (g.perm,) * spec.order) for g in gens)
    ))
    count = max(orbit) + 1
    m = spec.independence
    cell_weights = product_space((spec.action.space,) * m).weights
    rows: list[list[int]] = []
    rhs: list[Fraction] = []
    for coords in combinations(range(spec.order), m):
        face_rows = [[0] * count for _ in cell_weights]
        for cell, o in zip(projection_map(shape, coords), orbit):
            face_rows[cell][o] += 1
        rows.extend(face_rows)
        rhs.extend(cell_weights)
    return _Reduction(orbit, count, rows, rhs)


def _deviation_bound(
    spec: PolytopeSpec, red: _Reduction, target: list[int], den: int
) -> tuple[int, int]:
    """B, a bound on D times the sup-distance of every point of the polytope
    to the product measure, as (numerator, positive denominator); D is
    ``den`` and T_o = ``target[o]``.

    A face row where orbit o counts c > 0 tuples and the cell weighs w
    forces c * x_o <= w, entries being nonnegative, and x_o >= 0.  So the
    deviation of x_o from T_o / D is at most the larger of D * min(w / c)
    - T_o and T_o, in the units of 1 / D.  The rows of ``red`` run over
    the m-cells once per face, and a cell weighs its numerator over
    D / d^(n - m), for d the factor's denominator."""
    cell_nums, cell_den = product_form((spec.action.space,) * spec.independence)
    scale = den // cell_den
    by_weight: dict[int, list[list[int]]] = {}
    for r, row in enumerate(red.rows):
        by_weight.setdefault(cell_nums[r % len(cell_nums)], []).append(row)
    # the least w / c of each orbit as a pair; (1, 0) stands for no row yet,
    # and every orbit meets some cell of each face
    least = [(1, 0)] * red.count
    for w, rows in by_weight.items():
        for o, c in enumerate(map(max, zip(*rows))):
            if w * least[o][1] < least[o][0] * c:
                least[o] = (w, c)
    bound = (0, 1)
    for (w, c), t in zip(least, target):
        for num, q in ((scale * w - t * c, c), (t, 1)):
            if num * bound[1] > bound[0] * q:
                bound = (num, q)
    return bound


def _axis_classes(spec: PolytopeSpec, red: _Reduction) -> list[int]:
    """The axis class of every orbit, classes numbered 0, 1, ... by their
    least orbit.

    Permuting the n tensor axes maps the polytope onto itself: every m-face
    is pinned, the diagonal action commutes with it and the product target
    is symmetric.  So it maps each orbit onto one of the same range and
    target.  The classes are the orbits merged under the transpositions of
    neighbouring axes, each applied to every orbit's first flat index."""
    size = len(red.orbit)
    first = dict(zip(reversed(red.orbit), range(size - 1, -1, -1)))
    firsts = [first[o] for o in range(red.count)]
    axes = _offsets(spec.shape)
    swaps = []
    for a in range(spec.order - 1):
        moved = _sum_table([*axes[:a], axes[a + 1], axes[a], *axes[a + 2:]])
        swaps.append([red.orbit[moved[f]] for f in firsts])
    return orbit_labels(red.count, swaps)


def _as_tensor(
    spec: PolytopeSpec, red: _Reduction, vertex: list[tuple[int, int, int]]
) -> JoiningTensor:
    """The tensor of a ``RationalSimplex._vertex`` result, (orbit, numerator,
    positive denominator) per basic orbit and 0 off the basis, built in
    integer form over the lcm of the denominators and re-checked."""
    den = lcm(*(q for _, _, q in vertex))
    check_form_bits(spec.size, den)
    values = [0] * red.count
    for o, p, q in vertex:
        values[o] = p * (den // q)
    factors = (spec.action.space,) * spec.order
    tensor = JoiningTensor._from_form(factors, list(map(values.__getitem__, red.orbit)), den)
    # independent re-check through the joining module, not the LP
    if diagonal_invariance_defect(tensor, spec.action) != 0:
        raise JoinlabInternalError("LP vertex fails diagonal invariance")
    if face_independence_defect(tensor, spec.independence) != 0:
        raise JoinlabInternalError("LP vertex fails face independence")
    return tensor


def optimize(spec: PolytopeSpec, objective: Sequence, sense: str = "max") -> LpOutcome:
    """Optimise a linear functional of the tensor entries over the polytope.

    The functional is summed over each orbit and optimised over the orbit
    variables.  Deterministic: identical inputs produce identical vertices."""
    objective = [as_fraction(x) for x in objective]
    if len(objective) != spec.size:
        raise InvalidInputError(
            f"objective length {len(objective)} != tensor size {spec.size}"
        )
    red = _reduce(spec)
    folded = [Fraction(0)] * red.count
    for o, c in zip(red.orbit, objective):
        folded[o] += c
    solver = RationalSimplex(red.rows, red.rhs, red.count)
    sol = solver.solve_for(folded, sense)
    if sol.status != "optimal":
        return LpOutcome(sol.status, None, None)
    return LpOutcome("optimal", sol.value, _as_tensor(spec, red, solver._vertex()))


def certify_triviality(spec: PolytopeSpec) -> TrivialityCertificate:
    """Decide whether the polytope is exactly {product measure}.

    The product measure is feasible and strictly positive, so the polytope
    is that single point iff the orbit-reduced equality system has full
    column rank (``rank == orbits``); then no LP runs.  Otherwise it scans
    max and min of each orbit variable in orbit order (on one warm-started
    solver) and returns the optimum farthest from the product measure: the
    largest sup-distance U over the polytope is reached at one of these
    optima.  The scan stops as soon as its best deviation is U, by either
    of two rules:

    - bound: the best deviation reaches ``_deviation_bound``'s B, read off
      the face rows before any LP.  U <= B, so the best is U.
    - class: both LPs of the least orbit of the last axis class
      (``_axis_classes``) have run.  Every orbit of a class has the same
      range, so every range has been scanned.

    Either way the scan is a prefix of the full one, and a later vertex
    could only tie U, which the strict rule below ignores; the certificate
    is the full scan's.

    The scan stays in integers.  Each LP runs on the solver's integer core
    with a unit objective (its negation for the min).  The per-orbit targets
    are the product weights' numerators T_o over their denominator D, and
    the vertex is read from the basic rows as x_o = p / q, with x_o = 0 off
    the basis.  D times the deviation |x_o - T_o / D| is the quotient
    |p D - T_o q| / q, or T_o / 1 off the basis, kept as a (numerator,
    denominator) pair; pairs are compared by cross-multiplying.  A vertex
    wins only by a strictly larger deviation, so the first farthest vertex
    in scan order is the witness.  It is built in integer form by
    ``_as_tensor``, and a ``Fraction`` for ``max_deviation`` alone."""
    red = _reduce(spec)
    solver = RationalSimplex(red.rows, red.rhs, red.count)
    if solver.rank == red.count:
        return TrivialityCertificate(True, Fraction(0), None)
    if solver._infeasible:
        # the product measure is always feasible
        raise JoinlabInternalError("joining polytope reported infeasible")
    nums, den = product_form((spec.action.space,) * spec.order)
    target = [0] * red.count
    for t, o in zip(nums, red.orbit):
        target[o] = t
    bound_num, bound_den = _deviation_bound(spec, red, target, den)
    classes = _axis_classes(spec, red)
    last = classes.index(max(classes))  # the least orbit of the last class
    best, best_vertex = (0, 1), None
    for o, sign in product(range(last + 1), (1, -1)):  # max, then min
        unit = [0] * red.count
        unit[o] = sign
        solver._maximise(unit, 1)
        vertex = solver._vertex()
        basic = {v for v, _, _ in vertex}
        # an orbit off the basis is 0 there: its deviation is its target
        dev_num = max((t for u, t in enumerate(target) if u not in basic), default=0)
        dev_den = 1
        for v, p, q in vertex:
            d = abs(p * den - target[v] * q)
            if d * dev_den > dev_num * q:
                dev_num, dev_den = d, q
        if dev_num * best[1] > best[0] * dev_den:
            best, best_vertex = (dev_num, dev_den), vertex
            if dev_num * bound_den >= bound_num * dev_den:
                break
    if best_vertex is None:
        raise JoinlabInternalError(
            f"rank {solver.rank} < {red.count} orbits, yet every orbit range is a point"
        )
    witness = _as_tensor(spec, red, best_vertex)
    return TrivialityCertificate(False, Fraction(best[0], best[1] * den), witness)
