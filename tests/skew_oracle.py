"""Slow reference implementations of the dynamics fast paths.

Each function is the straightforward computation the package used before
its fast path: one validated composition per step, ``Fraction`` sums, the
Koopman kernels compared entry by entry, the offset grid scanned in full.
They share no code with the fast paths beyond the validating
``Automorphism`` constructor, the set and operator types, and
``correlation``, which the sweep oracle calls on every unreduced offset.
"""

from fractions import Fraction

from joinlab import Automorphism, averaging_operator, correlation, dist_w, koopman


def compose(a: Automorphism, b: Automorphism) -> Automorphism:
    """a after b, re-validated."""
    return Automorphism(a.space, tuple(a.perm[j] for j in b.perm))


def inverse(a: Automorphism) -> Automorphism:
    inv = [0] * len(a.perm)
    for i, j in enumerate(a.perm):
        inv[j] = i
    return Automorphism(a.space, tuple(inv))


def order(a: Automorphism) -> int:
    """Least k >= 1 with a^k the identity, by composing until it returns."""
    power, k = a, 1
    while not power.is_identity():
        power, k = compose(a, power), k + 1
    return k


def cocycle_product(r, x: int, p: int) -> Automorphism:
    """C(x, p), one composition per step along the base orbit."""
    acc = Automorphism(r.fiber, tuple(range(r.fiber.atom_count)))
    cur = x
    for _ in range(p):
        acc = compose(r.cocycle[cur], acc)
        cur = r.base_map.perm[cur]
    return acc


def orbit_length(s: Automorphism, x: int) -> int:
    cur, length = s.perm[x], 1
    while cur != x:
        cur, length = s.perm[cur], length + 1
    return length


def cocycle_period(r, x: int) -> int:
    """L * ord C(x, L): p -> C(x, p) and p -> S^p x repeat with this period."""
    length = orbit_length(r.base_map, x)
    return length * order(cocycle_product(r, x, length))


def halmos_distance(p: Automorphism, r: Automorphism) -> Fraction:
    """The metric summed term by term in ``Fraction``."""
    w = p.space.weights
    p_inv, r_inv = inverse(p).perm, inverse(r).perm
    total = Fraction(0)
    for i, a in enumerate(p.space.atoms(), start=1):
        term = Fraction(0)
        if p.perm[a] != r.perm[a]:
            term += w[p.perm[a]] + w[r.perm[a]]
        if p_inv[a] != r_inv[a]:
            term += w[p_inv[a]] + w[r_inv[a]]
        if term:
            total += Fraction(1, 2**i) * term
    return total


def rigidity_statistic(r, a, n_param: int, p: int) -> Fraction:
    """Return mass with near-identity cocycle, every factor from the oracles."""
    ident = Automorphism(r.fiber, tuple(range(r.fiber.atom_count)))
    mass = Fraction(0)
    for x in a.atoms:
        cur = x
        for _ in range(p):
            cur = r.base_map.perm[cur]
        if cur in a.atoms and halmos_distance(
            cocycle_product(r, x, p), ident
        ) < Fraction(1, n_param):
            mass += r.base.weights[x]
    return mass


def relative_mixing_fraction(r, p: int, eps: Fraction) -> Fraction:
    """Mass of base atoms whose cocycle's Koopman kernel is within eps of
    the averaging operator, comparing the kernels entry by entry."""
    avg = averaging_operator(r.fiber)
    mass = Fraction(0)
    for x in r.base.atoms():
        if dist_w(koopman(cocycle_product(r, x, p)), avg) < eps:
            mass += r.base.weights[x]
    return mass


def relative_weak_mixing_average(r, a, b, n_horizon: int) -> Fraction:
    """The Cesaro average with one composition and one set image per step."""
    target = a.measure * b.measure
    total = Fraction(0)
    for x in r.base.atoms():
        acc = Automorphism(r.fiber, tuple(range(r.fiber.atom_count)))
        cur = x
        inner = Fraction(0)
        for _ in range(n_horizon):
            acc = compose(r.cocycle[cur], acc)
            cur = r.base_map.perm[cur]
            inner += (acc.image(a).intersect(b).measure - target) ** 2
        total += r.base.weights[x] * inner / n_horizon
    return total


def sweep(t: Automorphism, sets, k_range: int):
    """(max deviation, first argmax, product) over the full grid {1..K}^n."""
    target = Fraction(1)
    for a in sets:
        target *= a.measure
    best, best_k = Fraction(-1), ()
    grid = [()]
    for _ in sets[1:]:
        grid = [g + (k,) for g in grid for k in range(1, k_range + 1)]
    for offs in grid:
        dev = abs(correlation(t, sets, offs) - target)
        if dev > best:
            best, best_k = dev, offs
    return best, best_k, target


def random_preserving_permutation(rng, space) -> Automorphism:
    """A shuffle within each class of equal ``Fraction`` weight, classes in
    the order their first atom appears."""
    classes = {}
    for i, w in enumerate(space.weights):
        classes.setdefault(w, []).append(i)
    perm = [0] * space.atom_count
    for atoms in classes.values():
        shuffled = atoms[:]
        rng.shuffle(shuffled)
        for src, dst in zip(atoms, shuffled):
            perm[src] = dst
    return Automorphism(space, tuple(perm))
