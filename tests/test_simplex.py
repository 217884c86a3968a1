"""LP core tests against an independent vertex-enumeration oracle.

The oracle solves max/min over {x >= 0 : Ax = b} by enumerating all basis
subsets with Gaussian elimination over Fractions, entirely separate from
the simplex implementation.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from joinlab import InvalidInputError, JoinlabError, RationalSimplex

from conftest import northwest_coupling


def _solve_square(a, b):
    """Gaussian elimination; returns None when singular."""
    n = len(a)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def _independent_rows(rows, rhs):
    """Row-reduce the augmented system and keep one row per pivot, so that
    redundant marginal constraints do not make every basis singular."""
    work = [list(r) + [b] for r, b in zip(rows, rhs)]
    n = len(rows[0])
    kept = []
    pivot_row = 0
    for col in range(n):
        piv = next(
            (r for r in range(pivot_row, len(work)) if work[r][col] != 0), None
        )
        if piv is None:
            continue
        work[pivot_row], work[piv] = work[piv], work[pivot_row]
        kept.append(list(work[pivot_row]))
        inv = Fraction(1) / work[pivot_row][col]
        work[pivot_row] = [x * inv for x in work[pivot_row]]
        for r in range(len(work)):
            if r != pivot_row and work[r][col] != 0:
                f = work[r][col]
                work[r] = [
                    x - f * y for x, y in zip(work[r], work[pivot_row])
                ]
        pivot_row += 1
    return [row[:-1] for row in kept], [row[-1] for row in kept]


def enumerate_vertices(rows, rhs, num_vars):
    """All basic feasible solutions of {x >= 0 : rows x = rhs}."""
    rows, rhs = _independent_rows(rows, rhs)
    m = len(rows)
    seen = set()
    out = []
    for basis in combinations(range(num_vars), m):
        a = [[rows[i][j] for j in basis] for i in range(m)]
        sol = _solve_square(a, rhs)
        if sol is None:
            continue
        if any(x < 0 for x in sol):
            continue
        full = [Fraction(0)] * num_vars
        for j, x in zip(basis, sol):
            full[j] = x
        key = tuple(full)
        if key not in seen:
            seen.add(key)
            out.append(full)
    return out


def oracle_optimum(rows, rhs, num_vars, objective, sense):
    best = None
    for v in enumerate_vertices(rows, rhs, num_vars):
        val = sum(c * x for c, x in zip(objective, v))
        if best is None:
            best = val
        elif sense == "max" and val > best:
            best = val
        elif sense == "min" and val < best:
            best = val
    return best


def transportation_lp(row_weights, col_weights):
    """Equality-form marginal constraints for a coupling matrix, flattened
    row-major; the last column constraint is redundant and kept on purpose
    to exercise presolve."""
    nr, nc = len(row_weights), len(col_weights)
    rows, rhs = [], []
    for i in range(nr):
        row = [Fraction(0)] * (nr * nc)
        for j in range(nc):
            row[i * nc + j] = Fraction(1)
        rows.append(row)
        rhs.append(row_weights[i])
    for j in range(nc):
        row = [Fraction(0)] * (nr * nc)
        for i in range(nr):
            row[i * nc + j] = Fraction(1)
        rows.append(row)
        rhs.append(col_weights[j])
    return rows, rhs, nr * nc


def test_transportation_corner_values():
    rw = [Fraction(1, 2), Fraction(1, 2)]
    cw = [Fraction(1, 3), Fraction(2, 3)]
    rows, rhs, n = transportation_lp(rw, cw)
    obj = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    res = RationalSimplex(rows, rhs, n).solve_for(obj, "max")
    assert res.status == "optimal"
    assert res.value == Fraction(1, 3)
    res_min = RationalSimplex(rows, rhs, n).solve_for(obj, "min")
    assert res_min.value == 0


def test_against_vertex_oracle_random():
    rng = random.Random(71)
    for _ in range(30):
        nr, nc = rng.randint(2, 3), rng.randint(2, 3)
        rparts = [rng.randint(1, 5) for _ in range(nr)]
        cparts = [rng.randint(1, 5) for _ in range(nc)]
        rw = [Fraction(p, sum(rparts)) for p in rparts]
        cw = [Fraction(p, sum(cparts)) for p in cparts]
        rows, rhs, n = transportation_lp(rw, cw)
        objective = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        for sense in ("max", "min"):
            got = RationalSimplex(rows, rhs, n).solve_for(objective, sense)
            want = oracle_optimum(rows, rhs, n, objective, sense)
            assert got.status == "optimal"
            assert got.value == want
            # the reported point must be feasible and attain the value
            for row, b in zip(rows, rhs):
                assert sum(c * x for c, x in zip(row, got.solution)) == b
            assert all(x >= 0 for x in got.solution)
            assert sum(
                c * x for c, x in zip(objective, got.solution)
            ) == want


def test_rank_counts_independent_rows():
    # 3 + 3 marginal rows of a 3x3 coupling: one is redundant
    third = [Fraction(1, 3)] * 3
    rows, rhs, n = transportation_lp(third, third)
    assert RationalSimplex(rows, rhs, n).rank == 5
    one = Fraction(1)
    assert RationalSimplex([[one, one]], [Fraction(-1)], 2).rank == 0


def test_infeasible_detected():
    one = Fraction(1)
    res = RationalSimplex([[one, one]], [Fraction(-1)], 2).solve_for([one, one], "max")
    assert res.status == "infeasible"
    # 0 = 1 after elimination
    res2 = RationalSimplex([[one, one], [one, one]], [one, Fraction(2)], 2).solve_for(
        [one, one], "max"
    )
    assert res2.status == "infeasible"


def test_unbounded_raises():
    one = Fraction(1)
    with pytest.raises(JoinlabError):
        RationalSimplex([[one, -one]], [Fraction(0)], 2).solve_for([one, Fraction(0)], "max")


@pytest.mark.parametrize(
    "entry, message",
    [(0.5, "float 0.5 rejected; pass an int, Fraction or 'p/q' string"),
     (True, "not a rational: True"),
     ("0.5", "malformed rational literal: '0.5'")],
)
def test_entries_go_through_as_fraction(entry, message):
    # a row, a right-hand side and an objective read their entries alike:
    # ints and Fractions as they are, anything else through as_fraction
    for call in (
        lambda: RationalSimplex([[entry, 1]], [1], 2),
        lambda: RationalSimplex([[1, 1]], [entry], 2),
        lambda: RationalSimplex([[1, 1]], [1], 2).solve_for([entry, 0]),
    ):
        with pytest.raises(InvalidInputError) as err:
            call()
        assert str(err.value) == message
    assert RationalSimplex([["1/2", 1]], ["1/2"], 2).solve_for(["1", 0]).value == 1


def test_degenerate_lp_terminates():
    # highly degenerate equality system: many bases map to the same vertex;
    # Bland's rule must terminate at the oracle optimum
    one = Fraction(1)
    zero = Fraction(0)
    rows = [
        [one, one, one, zero, zero, zero],
        [zero, zero, zero, one, one, one],
        [one, zero, zero, one, zero, zero],
    ]
    rhs = [one, one, one]
    objective = [one, Fraction(2), zero, Fraction(-1), zero, Fraction(3)]
    for sense in ("max", "min"):
        got = RationalSimplex(rows, rhs, 6).solve_for(objective, sense)
        want = oracle_optimum(rows, rhs, 6, objective, sense)
        assert got.status == "optimal"
        assert got.value == want


def test_zero_mass_rhs_degeneracy():
    one = Fraction(1)
    zero = Fraction(0)
    # x0 + x1 = 0 forces both to zero despite a favorable objective
    rows = [[one, one, zero], [zero, zero, one]]
    rhs = [zero, one]
    got = RationalSimplex(rows, rhs, 3).solve_for([one, one, zero], "max")
    assert got.status == "optimal"
    assert got.value == 0
    assert got.solution == (0, 0, 1)


def test_determinism_and_warm_start_values():
    rng = random.Random(73)
    rparts = [rng.randint(1, 4) for _ in range(3)]
    cparts = [rng.randint(1, 4) for _ in range(3)]
    rw = [Fraction(p, sum(rparts)) for p in rparts]
    cw = [Fraction(p, sum(cparts)) for p in cparts]
    rows, rhs, n = transportation_lp(rw, cw)

    objectives = [
        [Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(6)
    ]
    warm = RationalSimplex(rows, rhs, n)
    warm_values = [warm.solve_for(obj, "max").value for obj in objectives]
    cold_values = [
        RationalSimplex(rows, rhs, n).solve_for(obj, "max").value for obj in objectives
    ]
    assert warm_values == cold_values

    again = [RationalSimplex(rows, rhs, n).solve_for(obj, "max") for obj in objectives]
    first = [RationalSimplex(rows, rhs, n).solve_for(obj, "max") for obj in objectives]
    assert [r.solution for r in again] == [r.solution for r in first]
