"""Full-coordinate formulation of the joining polytope, kept as the test
oracle for the orbit-reduced LP in ``joinlab.polytope``.

One LP variable per tensor coordinate.  Diagonal invariance is forced by a
chain of equalities along every cycle of every generator on index tuples;
then every m-face marginal is pinned to the product of the weights.  The
certificate scans max and min of every coordinate (2 * size LPs).

``fraction_certify`` is the orbit-reduced scan as it stood in ``Fraction``
arithmetic, a max and a min LP for every orbit with no early stop, kept
as the slow oracle of the integer scan in
``joinlab.polytope.certify_triviality``; its witness is built by the
``Fraction`` constructor of ``JoiningTensor``.
"""

from fractions import Fraction
from itertools import combinations

from joinlab.errors import JoinlabInternalError
from joinlab.joinings import JoiningTensor, product_joining
from joinlab.polytope import TrivialityCertificate, _reduce
from joinlab.simplex import RationalSimplex
from joinlab.spaces import index_to_tuple, tuple_to_index


def full_constraints(spec):
    """Equality rows over the tensor coordinates: generator chains first,
    then the m-face cells in index order."""
    shape = spec.shape
    n = spec.size
    weights = spec.action.space.weights
    tuples = [index_to_tuple(shape, idx) for idx in range(n)]
    rows, rhs = [], []
    zero, one = Fraction(0), Fraction(1)
    for g in spec.action.generators:
        perm = g.perm
        moved = [tuple_to_index(shape, tuple(perm[t] for t in tup)) for tup in tuples]
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            cur = moved[start]
            while cur != start:
                cycle.append(cur)
                seen[cur] = True
                cur = moved[cur]
            for a, b in zip(cycle, cycle[1:]):
                row = [zero] * n
                row[a] = one
                row[b] = -one
                rows.append(row)
                rhs.append(zero)
    m = spec.independence
    sub_shape = (spec.action.space.atom_count,) * m
    for coords in combinations(range(spec.order), m):
        face_rows = [[zero] * n for _ in range(spec.action.space.atom_count**m)]
        for idx, tup in enumerate(tuples):
            face_rows[tuple_to_index(sub_shape, [tup[c] for c in coords])][idx] = one
        for sub_idx, row in enumerate(face_rows):
            rows.append(row)
            target = Fraction(1)
            for s in index_to_tuple(sub_shape, sub_idx):
                target *= weights[s]
            rhs.append(target)
    return rows, rhs


def full_solver(spec):
    rows, rhs = full_constraints(spec)
    return RationalSimplex(rows, rhs, spec.size)


def full_certify(spec):
    """(trivial, max_deviation) from the coordinate scan over the full LP."""
    target = product_joining((spec.action.space,) * spec.order).entries
    solver = full_solver(spec)
    best = Fraction(0)
    objective = [Fraction(0)] * spec.size
    for coord in range(spec.size):
        objective[coord] = Fraction(1)
        for sense in ("max", "min"):
            sol = solver.solve_for(objective, sense)
            assert sol.status == "optimal"
            best = max(best, max(abs(a - b) for a, b in zip(sol.solution, target)))
        objective[coord] = Fraction(0)
    return best == 0, best


def full_optimum(spec, objective, sense):
    return full_solver(spec).solve_for(objective, sense).value


def fraction_certify(spec):
    """The orbit-reduced certificate with every LP read back through
    ``solve_for``: a ``Fraction`` vertex per LP, a ``Fraction`` product
    target per orbit, the sup-distance as a ``Fraction`` max, and the first
    vertex that strictly beats the best so far as the witness."""
    red = _reduce(spec)
    solver = RationalSimplex(red.rows, red.rhs, red.count)
    zero = Fraction(0)
    if solver.rank == red.count:
        return TrivialityCertificate(True, zero, None)
    product = product_joining((spec.action.space,) * spec.order).entries
    target = [zero] * red.count
    for idx, o in enumerate(red.orbit):
        target[o] = product[idx]
    best_dev = zero
    best_solution = None
    objective = [zero] * red.count
    for o in range(red.count):
        objective[o] = Fraction(1)
        for sense in ("max", "min"):
            sol = solver.solve_for(objective, sense)
            if sol.status != "optimal":
                # the product measure is always feasible
                raise JoinlabInternalError("joining polytope reported infeasible")
            dev = max(abs(a - b) for a, b in zip(sol.solution, target))
            if dev > best_dev:
                best_dev = dev
                best_solution = sol.solution
        objective[o] = zero
    if best_solution is None:
        raise JoinlabInternalError(
            f"rank {solver.rank} < {red.count} orbits, yet every orbit range is a point"
        )
    witness = JoiningTensor(
        (spec.action.space,) * spec.order, tuple(best_solution[o] for o in red.orbit)
    )
    return TrivialityCertificate(False, best_dev, witness)
