"""Shared generators for the test suite.

Everything random is driven by explicit random.Random seeds so failures
replay exactly.  Couplings come from a northwest-corner fill over
shuffled atom orders, which is an independent construction from anything
in the package (exact marginals by telescoping, no solver involved).
"""

import os
import random
from fractions import Fraction
from pathlib import Path

from joinlab import (
    Automorphism,
    FiniteSpace,
    MarkovOperator,
    MeasurableSet,
    product_space,
)


# The subprocess tests run `python -m joinlab`, which finds the package
# through PYTHONPATH; a bare `pytest` puts src on sys.path only (pyproject's
# pythonpath), so the children get it here.
SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))
    )


def random_space(rng: random.Random, max_atoms: int, uniform=False) -> FiniteSpace:
    n = rng.randint(2, max_atoms)
    if uniform or rng.random() < 0.5:
        return FiniteSpace.uniform(n)
    parts = [rng.randint(1, 6) for _ in range(n)]
    total = sum(parts)
    return FiniteSpace(tuple(Fraction(p, total) for p in parts))


def random_automorphism(rng: random.Random, space: FiniteSpace) -> Automorphism:
    by_weight = {}
    for i, w in enumerate(space.weights):
        by_weight.setdefault(w, []).append(i)
    perm = [0] * space.atom_count
    for atoms in by_weight.values():
        images = atoms[:]
        rng.shuffle(images)
        for src, dst in zip(atoms, images):
            perm[src] = dst
    return Automorphism(space, tuple(perm))


def random_subset(rng: random.Random, space: FiniteSpace) -> MeasurableSet:
    atoms = frozenset(
        a for a in space.atoms() if rng.random() < 0.5
    )
    return MeasurableSet(space, atoms)


def northwest_coupling(rng: random.Random, row_weights, col_weights):
    """Exact nonnegative matrix with the given marginals: greedy fill over
    shuffled row and column orders."""
    rows = list(range(len(row_weights)))
    cols = list(range(len(col_weights)))
    rng.shuffle(rows)
    rng.shuffle(cols)
    remaining_row = list(row_weights)
    remaining_col = list(col_weights)
    matrix = [[Fraction(0)] * len(col_weights) for _ in row_weights]
    ri = ci = 0
    while ri < len(rows) and ci < len(cols):
        r, c = rows[ri], cols[ci]
        amount = min(remaining_row[r], remaining_col[c])
        matrix[r][c] = amount
        remaining_row[r] -= amount
        remaining_col[c] -= amount
        if remaining_row[r] == 0:
            ri += 1
        if remaining_col[c] == 0:
            ci += 1
    return matrix


def random_operator(
    rng: random.Random, source: FiniteSpace, target: FiniteSpace
) -> MarkovOperator:
    """Random Markov operator via a coupling of the two weight vectors:
    kernel[t][s] = coupling[s][t] / target_weight(t)."""
    coupling = northwest_coupling(rng, source.weights, target.weights)
    kernel = tuple(
        tuple(coupling[s][t] / target.weights[t] for s in source.atoms())
        for t in target.atoms()
    )
    return MarkovOperator(source, target, kernel)


def random_rest_operator(rng: random.Random, source: FiniteSpace, rest):
    """Operator from ``source`` into a product of ``rest`` factors."""
    return random_operator(rng, source, product_space(rest))
