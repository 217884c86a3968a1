"""The rational-tableau simplex that ``joinlab.simplex`` replaced, kept as an
independent oracle for the integer tableau.

Every entry is a ``Fraction`` and every pivot normalises the pivot row to a
leading 1, so this is the tableau the integer rows stand for.  Bland's rule
reads the same signs and ratios in both, so on every input the two must
agree on the rank, the status, the value, the solution and the basis.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from joinlab.errors import InvalidInputError, JoinlabError
from joinlab.simplex import LpSolution


def _scale(row, factor, zero):
    """row *= factor, skipping zeros."""
    for j, x in enumerate(row):
        if x != zero:
            row[j] = x * factor


def _axpy(target, source, factor, zero):
    """target -= factor * source, skipping zero source entries."""
    for j, s in enumerate(source):
        if s != zero:
            target[j] = target[j] - factor * s


def _pivot_all(rows, piv, col, zero, one):
    """Normalise rows[piv] at column col and eliminate that column from
    every other row."""
    prow = rows[piv]
    x = prow[col]
    if x != one:
        _scale(prow, one / x, zero)
        prow[col] = one
    for i, row in enumerate(rows):
        if i == piv:
            continue
        f = row[col]
        if f != zero:
            _axpy(row, prow, f, zero)
            row[col] = zero


class RationalSimplex:
    """Reusable solver over one feasible region {A x = b, x >= 0}.

    Rows are pre-reduced to full row rank (detecting inconsistency), then
    phase 1 builds a feasible basis with artificial variables.  Each
    solve_for(objective) warm-starts phase 2 from the current basis.
    ``rank`` is the number of independent rows left after presolve and
    phase 1 (0 when the region is empty); on a feasible region with a
    strictly positive point, ``rank == num_vars`` means the region is that
    single point.
    """

    def __init__(self, rows: Sequence[Sequence], rhs: Sequence, num_vars: int):
        if num_vars < 1:
            raise InvalidInputError("LP needs at least one variable")
        self._rat = Fraction
        self._zero = self._rat(0)
        self._one = self._rat(1)
        self.num_vars = num_vars
        self._infeasible = False
        reduced = self._presolve(rows, rhs)
        if not self._infeasible:
            self._phase1(reduced)

    # -- construction ------------------------------------------------------

    def _presolve(self, rows, rhs):
        """Row-reduce [A | b] to an independent set; inconsistent rows mark
        the whole program infeasible."""
        rat, zero, one = self._rat, self._zero, self._one
        n = self.num_vars
        reduced: list[list] = []
        pivot_cols: list[int] = []
        for row, b in zip(rows, rhs):
            if len(row) != n:
                raise InvalidInputError(f"row length {len(row)} != {n}")
            r = [rat(x) for x in row]
            r.append(rat(b))
            for prow, pcol in zip(reduced, pivot_cols):
                f = r[pcol]
                if f != zero:
                    _axpy(r, prow, f, zero)
                    r[pcol] = zero
            col = next((j for j in range(n) if r[j] != zero), None)
            if col is None:
                if r[n] != zero:
                    self._infeasible = True
                    return []
                continue  # redundant row
            if r[col] != one:
                _scale(r, one / r[col], zero)
                r[col] = one
            reduced.append(r)
            pivot_cols.append(col)
        for r in reduced:
            if r[n] < zero:
                _scale(r, -one, zero)
        return reduced

    def _phase1(self, reduced):
        """Feasible basis via artificial variables; drives them out after
        the auxiliary objective reaches zero."""
        zero, one = self._zero, self._one
        n, m = self.num_vars, len(reduced)
        width = n + m + 1
        rows = []
        for i, r in enumerate(reduced):
            row = r[:n] + [zero] * m + [r[n]]
            row[n + i] = one
            rows.append(row)
        self._rows = rows
        self._basis = [n + i for i in range(m)]
        self._ncols = n + m
        obj = [zero] * width
        for j in range(n):
            s = zero
            for row in rows:
                if row[j] != zero:
                    s = s + row[j]
            obj[j] = s
        s = zero
        for row in rows:
            s = s + row[-1]
        obj[-1] = s
        self._obj = obj
        self._bland()
        if -self._obj[-1] != zero:
            self._infeasible = True
            return
        for i in range(m - 1, -1, -1):
            if self._basis[i] < n:
                continue
            col = next((j for j in range(n) if self._rows[i][j] != zero), None)
            if col is None:
                del self._rows[i]
                del self._basis[i]
                continue
            self._pivot(i, col)
        # drop artificial columns
        self._rows = [row[:n] + [row[-1]] for row in self._rows]
        self._obj = None
        self._ncols = n

    # -- pivoting ----------------------------------------------------------

    def _pivot(self, piv_row: int, col: int):
        rows = self._rows + ([self._obj] if self._obj is not None else [])
        _pivot_all(rows, piv_row, col, self._zero, self._one)
        self._basis[piv_row] = col

    def _bland(self):
        """Maximise the current objective row with Bland's rule: entering
        column is the smallest index with positive reduced cost, leaving row
        has the smallest ratio, ties to the smallest basic variable."""
        zero = self._zero
        while True:
            obj = self._obj
            q = next((j for j in range(self._ncols) if obj[j] > zero), None)
            if q is None:
                return
            best = None
            for i, row in enumerate(self._rows):
                a = row[q]
                if a > zero:
                    key = (row[-1] / a, self._basis[i])
                    if best is None or key < best[0]:
                        best = (key, i)
            if best is None:
                raise JoinlabError("objective unbounded on the feasible region")
            self._pivot(best[1], q)

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
        rat, zero = self._rat, self._zero
        flip = sense == "min"
        c = [rat(x) if not flip else -rat(x) for x in objective]
        obj = c + [zero]
        for i, row in enumerate(self._rows):
            cb = c[self._basis[i]]
            if cb != zero:
                _axpy(obj, row, cb, zero)
        self._obj = obj
        self._bland()
        value = -self._obj[-1]
        self._obj = None
        x = [Fraction(0)] * self.num_vars
        for i, bv in enumerate(self._basis):
            v = self._rows[i][-1]
            x[bv] = Fraction(int(v.numerator), int(v.denominator))
        val = Fraction(int(value.numerator), int(value.denominator))
        if flip:
            val = -val
        return LpSolution("optimal", val, tuple(x))
