"""The integer tableau of ``joinlab.simplex`` against the ``Fraction``
tableau it replaced (``simplex_oracle``).

Both run Bland's rule on the same rational tableau, so on every program
they must agree pivot for pivot: the rank, every status, value and
solution, the basis after each ``solve_for``, and each integer row divided
by its basic entry equals the oracle's row.  Programs have fractional and
negative coefficients and right-hand sides, repeated rows and scalar
multiples of rows, degenerate vertices (points with zero coordinates),
a perturbed right-hand side in a third of them (many then infeasible), and several
objectives per solver, mixing max and min, some of them unbounded.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import simplex_oracle as oracle
from joinlab import (
    JoinlabError,
    PolytopeSpec,
    RationalSimplex,
    Z2kContext,
    full_action,
)
from joinlab.polytope import _reduce

PROPERTY = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
scalars = st.sampled_from([1, 1, 2, -1, Fraction(1, 3), Fraction(-3, 2)])


@st.composite
def programs(draw):
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=4))
    if draw(st.booleans()):
        rows.append([Fraction(1)] * n)  # a total-mass row bounds the region
    # rhs from a point with zeros, so that vertices are degenerate; it is
    # mostly nonnegative, so that most programs are feasible
    point = draw(st.lists(st.sampled_from([0, 0, 1, Fraction(1, 2), 2, -1]), min_size=n, max_size=n))
    rhs = [sum((a * x for a, x in zip(row, point)), Fraction(0)) for row in rows]
    if draw(st.integers(0, 2)) == 0:
        rhs[draw(st.integers(0, len(rhs) - 1))] += draw(rationals)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        s = draw(scalars)
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, [s * a for a in rows[i]])
        rhs.insert(at, s * rhs[i])
    objectives = draw(st.lists(
        st.tuples(st.lists(rationals, min_size=n, max_size=n), st.sampled_from(["max", "min"])),
        min_size=1, max_size=4,
    ))
    return rows, rhs, n, objectives


def _outcome(solver, objective, sense):
    try:
        return solver.solve_for(objective, sense)
    except JoinlabError as exc:
        return type(exc), str(exc)


def _assert_same_tableau(new, old):
    assert new.rank == old.rank
    assert getattr(new, "_basis", None) == getattr(old, "_basis", None)
    if new.rank:
        for row, bv, expected in zip(new._rows, new._basis, old._rows):
            assert row[bv] > 0
            assert [Fraction(x, row[bv]) for x in row] == expected


@PROPERTY
@given(programs())
def test_integer_tableau_pivots_like_the_fraction_tableau(program):
    rows, rhs, n, objectives = program
    new = RationalSimplex(rows, rhs, n)
    old = oracle.RationalSimplex(rows, rhs, n)
    _assert_same_tableau(new, old)
    for objective, sense in objectives:
        assert _outcome(new, objective, sense) == _outcome(old, objective, sense)
        _assert_same_tableau(new, old)


def test_integer_tableau_on_a_joining_polytope():
    # a degenerate program of the size the coordinate scans solve: every
    # orbit variable maximised and minimised on one warm solver
    red = _reduce(PolytopeSpec(full_action(Z2kContext(3)), 3, 2))
    new = RationalSimplex(red.rows, red.rhs, red.count)
    old = oracle.RationalSimplex(red.rows, red.rhs, red.count)
    _assert_same_tableau(new, old)
    for o in range(red.count):
        unit = [Fraction(int(j == o)) for j in range(red.count)]
        for sense in ("max", "min"):
            assert new.solve_for(unit, sense) == old.solve_for(unit, sense)
            _assert_same_tableau(new, old)
