"""Exact rational primal simplex for equality-form linear programs.

Solves max c.x over {A x = b, x >= 0} on a dense tableau with Bland's
anti-cycling rule, so every run terminates and identical inputs pivot
identically.  The tableau persists, which makes re-solving the same
feasible region for many objectives (coordinate scans over a joining
polytope) cheap: phase 1 runs once, each new objective only reprices.
Each LP's final objective row, its reduced costs, stays until the next.

The arithmetic is integer and fraction-free (Edmonds; Bareiss).  Each
tableau row is a list of Python ints M_i standing for the rational row
M_i / M_i[basis[i]]: its denominator is its own basic entry, which stays
positive.  The objective row is a list of ints over one positive
denominator.  A pivot cross-multiplies rows and divides each result by the
gcd of its entries, so the rational tableau is exactly the one a
``Fraction`` tableau would hold, Bland's rule reads the same signs and
ratios, and every pivot, vertex and value is the same.  Every LP runs on
one integer core: ``_maximise`` takes an integer objective over a
denominator and returns the optimum as a (numerator, denominator) pair,
and ``_vertex`` reads the optimal point from the basic rows in the
package's integer form: one numerator per variable over one denominator.
``Fraction`` appears only where inputs are read and results are returned:
``solve_for`` reads a rational objective through ``spaces.integer_form``
and returns the point as ``spaces._fractions`` of the vertex, while a
caller that stays in integers, the certificate scan of
``joinlab.polytope``, calls the core directly.  Repeated input rows are
dropped before presolve; a repeat would reduce to zero there anyway.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

from .errors import InvalidInputError, JoinlabError, Value
from .rationals import as_fraction
from .spaces import _fractions, integer_form


class LpSolution(Value):
    """status 'optimal' carries the value and a basic optimal point;
    status 'infeasible' carries neither."""

    __slots__ = _fields = ("status", "value", "solution")


def _integer_row(values) -> tuple[list[int], int]:
    """``spaces.integer_form`` of the rational vector ``values``, numerators
    as a list; an entry ``as_fraction`` refuses, a float or a bool among
    them, raises ``InvalidInputError``."""
    nums, den = integer_form(
        [x if type(x) is int or type(x) is Fraction else as_fraction(x) for x in values]
    )
    return list(nums), den


def _lowest_terms(row: list[int], den: int) -> tuple[list[int], int]:
    """The vector row / den with the common factor of row and den removed."""
    g = gcd(den, *row)
    return (row, den) if g == 1 else ([x // g for x in row], den // g)


def _primitive(row: list[int]) -> list[int]:
    """``row`` divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _nonzeros(row: list[int]) -> list[tuple[int, int]]:
    return [(j, x) for j, x in enumerate(row) if x]


def _combine(a: int, row: list[int], f: int, pivot_nz) -> list[int]:
    """The primitive form of a*row - f*prow, where ``pivot_nz`` lists the
    nonzero (column, entry) pairs of prow: ``row`` with the column where
    prow holds a > 0 and row holds f eliminated.  Pivot rows are sparse, so
    only their nonzero columns are updated after scaling."""
    g = gcd(a, f)
    a, f = a // g, f // g
    new = [a * x for x in row] if a != 1 else row[:]
    for j, y in pivot_nz:
        new[j] -= f * y
    return _primitive(new)


class RationalSimplex:
    """Reusable solver over one feasible region {A x = b, x >= 0}.

    Repeated rows are dropped, the rest pre-reduced to full row rank
    (detecting inconsistency), then phase 1 builds a feasible basis with
    artificial variables.  Each solve_for(objective) warm-starts phase 2
    from the current basis.  ``rank`` is the number of independent rows
    left after presolve and phase 1 (0 when the region is empty); on a
    feasible region with a strictly positive point, ``rank == num_vars``
    means the region is that single point.

    Row i of the tableau is a primitive integer vector whose entry in
    column ``basis[i]`` is positive; the rational row is the vector divided
    by that entry.  The objective row ``_obj``, a reduced cost per column
    and then minus the value, is an integer vector over the positive
    denominator ``_den``; after an LP it is that LP's optimal row.
    """

    def __init__(self, rows: Sequence[Sequence], rhs: Sequence, num_vars: int):
        if num_vars < 1:
            raise InvalidInputError("LP needs at least one variable")
        self.num_vars = num_vars
        self._infeasible = False
        reduced = self._presolve(rows, rhs)
        if not self._infeasible:
            self._phase1(reduced)

    # -- construction ------------------------------------------------------

    def _presolve(self, rows, rhs):
        """Row-reduce [A | b] to an independent set; inconsistent rows mark
        the whole program infeasible: each kept row has a pivot column where
        every later kept row is eliminated.  Returns the kept rows as found,
        primitive integer vectors with a nonnegative rhs, each paired with
        the absolute value of its pivot entry."""
        n = self.num_vars
        reduced: list[tuple[list[int], int]] = []
        pivots: list[tuple[int, int, list]] = []  # (column, entry, nonzeros)
        seen: set[tuple[int, ...]] = set()
        for row, b in zip(rows, rhs):
            if len(row) != n:
                raise InvalidInputError(f"row length {len(row)} != {n}")
            if {*map(type, row)} <= {int} and type(b) in (int, Fraction):
                d = b.denominator  # an int row's lcm is the rhs denominator
                r = _primitive([x * d for x in row] + [b.numerator])
            else:
                r = _primitive(_integer_row([*row, b])[0])
            key = tuple(r)
            if key in seen:
                continue  # a repeat of an earlier row reduces to zero
            seen.add(key)
            for pcol, a, nz in pivots:
                f = r[pcol]
                if f:
                    r = _combine(a, r, f, nz)
            col = next((j for j in range(n) if r[j]), None)
            if col is None:
                if r[n]:
                    self._infeasible = True
                    return []
                continue  # redundant row
            if r[col] < 0:
                r = [-x for x in r]
            pivots.append((col, r[col], _nonzeros(r)))
            reduced.append((r if r[n] >= 0 else [-x for x in r], r[col]))
        return reduced

    def _phase1(self, reduced):
        """Feasible basis via artificial variables; drives them out after
        the auxiliary objective reaches zero.  An artificial still basic has
        a nonzero x entry to pivot on: its row is a nonzero combination y of
        the presolved rows, and a zero x part would give y^T A = 0 against
        presolve's independent rows."""
        n, m = self.num_vars, len(reduced)
        rows = []
        for i, (r, den) in enumerate(reduced):
            row = r[:n] + [0] * m + [r[n]]
            row[n + i] = den
            rows.append(row)
        self._rows = rows
        self._basis = [n + i for i in range(m)]
        # auxiliary objective: the sum of the rational rows, with reduced
        # cost 0 on the artificial columns
        den = lcm(*(d for _, d in reduced))
        total = [0] * (n + 1)
        for r, d in reduced:
            s = den // d
            total = [t + s * x for t, x in zip(total, r)]
        self._obj, self._den = _lowest_terms(total[:n] + [0] * m + [total[n]], den)
        self._bland()
        if self._obj[-1]:
            self._infeasible = True
            return
        for i in range(m - 1, -1, -1):
            if self._basis[i] >= n:
                self._pivot(i, next(j for j in range(n) if self._rows[i][j]))
        # drop the artificial columns
        self._rows = [_primitive(row[:n] + [row[-1]]) for row in self._rows]
        self._obj = self._obj[:n] + self._obj[-1:]

    # -- pivoting ----------------------------------------------------------

    def _pivot(self, piv_row: int, col: int):
        rows = self._rows
        prow = rows[piv_row]
        a = prow[col]
        if a < 0:
            a = -a
            prow = rows[piv_row] = [-x for x in prow]
        nz = _nonzeros(prow)
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != piv_row:
                rows[i] = _combine(a, row, f, nz)
        self._reprice(prow, col)
        self._basis[piv_row] = col

    def _reprice(self, row: list[int], col: int):
        """Eliminate column col from the objective with ``row``, which is
        positive there."""
        f = self._obj[col]
        if f:
            a = row[col]
            self._obj, self._den = _lowest_terms(
                [a * x - f * y for x, y in zip(self._obj, row)], self._den * a
            )

    def _bland(self):
        """Maximise the current objective row with Bland's rule: entering
        column is the smallest index with positive reduced cost, leaving row
        has the smallest ratio, ties to the smallest basic variable.  Row
        denominators cancel in a ratio rhs_i / a_iq, so the ratios are
        compared by cross-multiplying the integer entries."""
        basis = self._basis
        while True:
            obj = self._obj
            q = next((j for j in range(len(obj) - 1) if obj[j] > 0), None)
            if q is None:
                return
            best = None
            for i, row in enumerate(self._rows):
                a = row[q]
                if a > 0:
                    b = row[-1]
                    if best is None:
                        best, best_b, best_a = i, b, a
                        continue
                    lhs, rhs = b * best_a, best_b * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                        best, best_b, best_a = i, b, a
            if best is None:
                raise JoinlabError("objective unbounded on the feasible region")
            self._pivot(best, q)

    # -- integer core ------------------------------------------------------

    def _maximise(self, obj: list[int], den: int) -> tuple[int, int]:
        """The integer core of every LP: maximise the objective obj / den
        (``den`` > 0, one int per variable) from the current basis and
        return the optimum as (numerator, positive denominator).  The region
        must be feasible; the optimal vertex is left in the tableau for
        ``_vertex``, and its objective row in ``_obj``."""
        self._obj, self._den = [*obj, 0], den
        for row, bv in zip(self._rows, self._basis):
            self._reprice(row, bv)
        self._bland()
        return -self._obj[-1], self._den

    def _vertex(self) -> tuple[list[int], int]:
        """The current basic point in integer form, (numerators, positive
        denominator): x_bv = row[-1] / row[bv] on each basic row, over the
        lcm of the basic entries row[bv], and 0 off the basis."""
        pairs = list(zip(self._rows, self._basis))
        den = lcm(*(row[bv] for row, bv in pairs))
        x = [0] * self.num_vars
        for row, bv in pairs:
            x[bv] = row[-1] * (den // row[bv])
        return x, den

    # -- public API --------------------------------------------------------

    @property
    def rank(self) -> int:
        return 0 if self._infeasible else len(self._rows)

    def solve_for(self, objective: Sequence, sense: str = "max") -> LpSolution:
        """Optimise a new objective over the same region, warm-starting from
        the current basis."""
        if sense not in ("max", "min"):
            raise InvalidInputError(f"sense must be 'max' or 'min', got {sense!r}")
        if self._infeasible:
            return LpSolution("infeasible", None, None)
        if len(objective) != self.num_vars:
            raise InvalidInputError(
                f"objective length {len(objective)} != {self.num_vars}"
            )
        flip = sense == "min"
        obj, den = _integer_row(objective)
        value = Fraction(*self._maximise([-x for x in obj] if flip else obj, den))
        return LpSolution(
            "optimal", -value if flip else value, _fractions(*self._vertex())
        )

