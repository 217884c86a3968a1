"""Joining polytopes: exact linear programming over invariant joinings.

For an action on one space, the polytope of order-n tensors with
nonnegative entries, diagonal invariance under every generator and fully
independent m-faces always contains the product measure.  An invariant
tensor is constant on each orbit of the diagonal action on index tuples,
so the LP has one variable per orbit and one row per m-face cell, with no
invariance rows (the standard orbit reduction of a symmetric LP).  The
product measure is strictly positive, so the polytope is that single
point exactly when the reduced system has full column rank; otherwise a
max and a min LP per orbit (2 * orbits LPs) find the farthest vertex.
That scan runs in integers on the solver's integer core: unit objectives,
the product weights as integer numerators over one denominator, vertices
read from the basic rows as (numerator, denominator) pairs, and
sup-distances compared by cross-multiplication.  Only the winning vertex
and its deviation become ``Fraction``s.  Vertices come back as full
tensors and are re-verified through the joining defect checks, an
independent code path from the LP itself.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations

from .errors import InvalidInputError, JoinlabInternalError, Value
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
        if not isinstance(order, int) or not 2 <= order <= ORDER_CAP:
            raise InvalidInputError(
                f"order must be an int in 2..{ORDER_CAP}, got {order!r}"
            )
        if not isinstance(independence, int) or not 1 <= independence < order:
            raise InvalidInputError(
                f"independence must satisfy 1 <= m < {order}, got {independence!r}"
            )
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

    def __init__(
        self, status: str, optimum: Fraction | None, witness: JoiningTensor | None
    ):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "optimum", optimum)
        object.__setattr__(self, "witness", witness)


class TrivialityCertificate(Value):
    """trivial=True: the polytope is exactly {product measure}.  Otherwise
    ``witness`` is a vertex and ``max_deviation`` its sup-distance to the
    product measure."""

    __slots__ = _fields = ("trivial", "max_deviation", "witness")

    def __init__(
        self, trivial: bool, max_deviation: Fraction, witness: JoiningTensor | None
    ):
        object.__setattr__(self, "trivial", trivial)
        object.__setattr__(self, "max_deviation", max_deviation)
        object.__setattr__(self, "witness", witness)


class _Reduction(Value):
    """The polytope with one variable per orbit of the diagonal action on
    index tuples: ``orbit[idx]`` labels each coordinate, orbits numbered by
    first appearance in index order; ``rows``/``rhs`` pin every m-face cell
    to the product of its weights, each row counting how many of an
    orbit's tuples fall in the cell."""

    __slots__ = _fields = ("orbit", "count", "rows", "rhs")

    def __init__(
        self,
        orbit: tuple[int, ...],
        count: int,
        rows: list[list[int]],
        rhs: list[Fraction],
    ):
        object.__setattr__(self, "orbit", orbit)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)

    def expand(self, values: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Full tensor entries from one value per orbit."""
        return tuple(values[o] for o in self.orbit)


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


def _as_tensor(spec: PolytopeSpec, solution: Sequence[Fraction]) -> JoiningTensor:
    factors = (spec.action.space,) * spec.order
    tensor = JoiningTensor(factors, tuple(solution))
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
    return LpOutcome("optimal", sol.value, _as_tensor(spec, red.expand(sol.solution)))


def certify_triviality(spec: PolytopeSpec) -> TrivialityCertificate:
    """Decide whether the polytope is exactly {product measure}.

    The product measure is feasible and strictly positive, so the polytope
    is that single point iff the orbit-reduced equality system has full
    column rank (``rank == orbits``); then no LP runs.  Otherwise it scans
    max and min of every orbit variable (2 * orbits LPs on one
    warm-started solver) and returns the optimum farthest from the product
    measure: the largest sup-distance over the polytope is reached at one
    of these optima.

    The scan stays in integers.  Each LP runs on the solver's integer core
    with a unit objective (its negation for the min).  The per-orbit targets
    are the product weights' numerators T_o over their denominator D, and
    the vertex is read from the basic rows as x_o = p / q, with x_o = 0 off
    the basis.  D times the deviation |x_o - T_o / D| is the quotient
    |p D - T_o q| / q, or T_o / 1 off the basis, kept as a (numerator,
    denominator) pair; pairs are compared by cross-multiplying.  An optimum
    equal to its orbit's target is skipped, and a vertex wins only by a
    strictly larger deviation, so the first farthest vertex in scan order
    is the witness.  ``Fraction``s are built for that vertex and
    ``max_deviation`` alone."""
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
    best, best_vertex = (0, 1), None
    unit = [0] * red.count
    for o in range(red.count):
        for sign in (1, -1):  # max, then min
            unit[o] = sign
            num, vden = solver._maximise(unit, 1)
            if sign * num * den == target[o] * vden:
                continue
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
        unit[o] = 0
    if best_vertex is None:
        raise JoinlabInternalError(
            f"rank {solver.rank} < {red.count} orbits, yet every orbit range is a point"
        )
    witness = _as_tensor(spec, red.expand(solver._point(best_vertex)))
    return TrivialityCertificate(False, Fraction(best[0], best[1] * den), witness)
