"""Markov operators between finite measure spaces.

An operator carries functions on its source space to functions on its
target space: (Pf)(t) = sum_s kernel[t][s] f(s).  Rows are probability
vectors and the weighted column condition
sum_t weight_target(t) kernel[t][s] = weight_source(s) makes P a
contraction intertwining the two measures.  Koopman operators of
automorphisms and the averaging operator onto constants are the two
extreme examples; convex mixtures of them model partial mixing.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InvalidInputError, Value, require_int
from .rationals import as_fraction, show
from .spaces import Automorphism, FiniteSpace, space_size


class MarkovOperator(Value):
    """kernel[t][s] is the coefficient of f(s) in (Pf)(t)."""

    __slots__ = _fields = ("source", "target", "kernel")

    def __init__(
        self,
        source: FiniteSpace,
        target: FiniteSpace,
        kernel: tuple[tuple[Fraction, ...], ...],
    ):
        rows = tuple(tuple(as_fraction(x) for x in row) for row in kernel)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "kernel", rows)
        ns, nt = source.atom_count, target.atom_count
        if len(rows) != nt or any(len(row) != ns for row in rows):
            raise InvalidInputError(
                f"kernel must be {nt}x{ns}, got {len(rows)} rows"
            )
        # in integers: a row over the lcm of its denominators, a weighted
        # column over the target's denominator times the lcm of its own
        for t, row in enumerate(rows):
            for s, x in enumerate(row):
                if x.numerator < 0:
                    raise InvalidInputError(f"negative kernel entry at [{t}][{s}]")
            den = lcm(*(x.denominator for x in row))
            total = sum(x.numerator * (den // x.denominator) for x in row)
            if total != den:
                raise InvalidInputError(
                    f"row {t} sums to {show(Fraction(total, den))}, expected 1"
                )
        wt, wt_den = target.numerators, target.denominator
        ws, ws_den = source.numerators, source.denominator
        for s, col in enumerate(zip(*rows)):
            den = lcm(*(x.denominator for x in col))
            total = sum(w * x.numerator * (den // x.denominator) for w, x in zip(wt, col))
            if total * ws_den != ws[s] * wt_den * den:
                raise InvalidInputError(
                    f"weighted column {s} is {show(Fraction(total, wt_den * den))}, "
                    f"expected {show(source.weights[s])}; "
                    "operator does not intertwine the measures"
                )


def koopman(t: Automorphism) -> MarkovOperator:
    """Composition operator of an automorphism: (Pf)(x) = f(t(x))."""
    n = t.space.atom_count
    space_size((n, n))
    zero, one = Fraction(0), Fraction(1)
    kernel = tuple(
        tuple(one if y == t.perm[x] else zero for y in range(n)) for x in range(n)
    )
    return MarkovOperator(t.space, t.space, kernel)


def identity_operator(space: FiniteSpace) -> MarkovOperator:
    return koopman(Automorphism.identity(space))


def averaging_operator(space: FiniteSpace) -> MarkovOperator:
    """Projection onto constants: every row equals the weight vector."""
    space_size((space.atom_count,) * 2)
    row = tuple(space.weights)
    return MarkovOperator(space, space, tuple(row for _ in space.atoms()))


def compose_operators(p: MarkovOperator, q: MarkovOperator) -> MarkovOperator:
    """p after q; requires p.source == q.target."""
    if p.source != q.target:
        raise InvalidInputError("inner spaces do not match")
    ns, nm, nt = q.source.atom_count, q.target.atom_count, p.target.atom_count
    kernel = tuple(
        tuple(
            sum((p.kernel[t][m] * q.kernel[m][s] for m in range(nm)), Fraction(0))
            for s in range(ns)
        )
        for t in range(nt)
    )
    return MarkovOperator(q.source, p.target, kernel)


def operator_power(p: MarkovOperator, k: int) -> MarkovOperator:
    """k-th power of a square operator, k >= 0."""
    if p.source != p.target:
        raise InvalidInputError("only square operators have powers")
    require_int(k, "power", 0)
    result = identity_operator(p.source)
    base = p
    while k:
        if k & 1:
            result = compose_operators(base, result)
        base = compose_operators(base, base)
        k >>= 1
    return result


def dist_w(p: MarkovOperator, q: MarkovOperator) -> Fraction:
    """Entrywise sup distance; the exact surrogate for weak-operator closeness
    on a fixed finite space."""
    if p.source != q.source or p.target != q.target:
        raise InvalidInputError("operators must share source and target")
    best = Fraction(0)
    for row_p, row_q in zip(p.kernel, q.kernel):
        for a, b in zip(row_p, row_q):
            d = abs(a - b)
            if d > best:
                best = d
    return best


def affine_combination(c: Fraction, p: MarkovOperator, q: MarkovOperator) -> MarkovOperator:
    """c*p + (1-c)*q with 0 <= c <= 1."""
    c = as_fraction(c)
    if not 0 <= c <= 1:
        raise InvalidInputError(f"coefficient must lie in [0, 1], got {c}")
    if p.source != q.source or p.target != q.target:
        raise InvalidInputError("operators must share source and target")
    kernel = tuple(
        tuple(c * a + (1 - c) * b for a, b in zip(row_p, row_q))
        for row_p, row_q in zip(p.kernel, q.kernel)
    )
    return MarkovOperator(p.source, p.target, kernel)

