"""The orbit-reduced joining polytope against the full-coordinate oracle.

Random weight-preserving actions with non-uniform weights (order 2-3, at
most 64 tensor entries) must give the same certificate, the same optima
and the same nullity as the full LP, whose nullity is taken from sympy's
exact rank rather than from the simplex.  The integer certificate scan
must also match ``fraction_certify``, the same scan in ``Fraction``
arithmetic and without its early stops, down to the witness.  The two
stops are checked against brute-force oracles: the deviation bound against
a direct minimum over the face rows in ``Fraction`` arithmetic, the axis
classes against every permutation of the axes applied to every orbit's
tuples, and the LPs each Z_2^k scan runs are counted.
"""

from fractions import Fraction
from itertools import permutations

import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from joinlab import (
    ActionGenerators,
    Automorphism,
    FiniteSpace,
    PolytopeSpec,
    Z2kContext,
    certify_triviality,
    diagonal_invariance_defect,
    face_independence_defect,
    full_action,
    optimize,
    product_joining,
    sup_distance,
)
from joinlab.polytope import _Reduction, _axis_classes, _deviation_bound, _reduce
from joinlab.simplex import RationalSimplex
from joinlab.spaces import index_to_tuple, product_form, tuple_to_index

from polytope_oracle import (
    fraction_certify,
    full_certify,
    full_constraints,
    full_optimum,
)

# derandomized, so that a failure replays exactly and the run time is fixed
PROPERTY = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def specs(draw):
    order = draw(st.integers(2, 3))
    atoms = draw(st.integers(2, 8 if order == 2 else 4))
    # two weight classes: non-uniform, yet each class admits nontrivial perms
    first, second = draw(st.lists(st.integers(1, 4), min_size=2, max_size=2, unique=True))
    split = draw(st.integers(1, atoms - 1))
    parts = [first] * split + [second] * (atoms - split)
    space = FiniteSpace(tuple(Fraction(p, sum(parts)) for p in parts))
    classes = {}
    for atom, p in enumerate(parts):
        classes.setdefault(p, []).append(atom)
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        perm = [0] * atoms
        for members in classes.values():
            for src, dst in zip(members, draw(st.permutations(members))):
                perm[src] = dst
        gens.append(Automorphism(space, tuple(perm)))
    m = draw(st.integers(1, order - 1))
    return PolytopeSpec(ActionGenerators(space, tuple(gens)), order, m)


def _check_witness(spec, cert):
    w = cert.witness
    assert diagonal_invariance_defect(w, spec.action) == 0
    assert face_independence_defect(w, spec.independence) == 0
    assert sup_distance(w, product_joining(w.factors)) == cert.max_deviation


@settings(PROPERTY, max_examples=12)
@given(specs())
def test_certificate_matches_full_lp(spec):
    cert = certify_triviality(spec)
    trivial, deviation = full_certify(spec)
    assert cert.trivial == trivial
    assert cert.max_deviation == deviation
    if not cert.trivial:
        _check_witness(spec, cert)


@PROPERTY
@given(specs(), st.data())
def test_optimum_matches_full_lp(spec, data):
    objective = data.draw(
        st.lists(st.integers(-3, 3), min_size=spec.size, max_size=spec.size)
    )
    objective = [Fraction(c) for c in objective]
    for sense in ("max", "min"):
        out = optimize(spec, objective, sense)
        assert out.status == "optimal"
        assert out.optimum == full_optimum(spec, objective, sense)
        assert sum(c * x for c, x in zip(objective, out.witness.entries)) == out.optimum


@PROPERTY
@given(specs())
def test_nullity_matches_exact_rank_of_full_system(spec):
    red = _reduce(spec)
    solver = RationalSimplex(red.rows, red.rhs, red.count)
    rows, _ = full_constraints(spec)
    full_nullity = spec.size - sympy.Matrix(rows).rank()
    assert red.count - solver.rank == full_nullity
    assert red.count - sympy.Matrix(red.rows).rank() == full_nullity


def test_small_z2k_certificates_match_full_lp():
    # includes the trivial instance, which random weighted actions miss
    for k, order, m in ((1, 3, 2), (1, 4, 2), (1, 4, 3)):
        spec = PolytopeSpec(full_action(Z2kContext(k)), order, m)
        cert = certify_triviality(spec)
        assert (cert.trivial, cert.max_deviation) == full_certify(spec)


def test_orbits_numbered_by_first_appearance():
    spec = PolytopeSpec(full_action(Z2kContext(2)), 3, 2)
    red = _reduce(spec)
    assert red.count == 10
    first = {}
    for idx, o in enumerate(red.orbit):
        first.setdefault(o, idx)
    assert sorted(first, key=first.get) == list(range(red.count))


def _count_lps(monkeypatch):
    """The list that every LP, solve_for's and the certificate scan's,
    appends to: each runs on ``RationalSimplex._maximise``."""
    calls = []
    maximise = RationalSimplex._maximise

    def counting(self, obj, den):
        calls.append(den)
        return maximise(self, obj, den)

    monkeypatch.setattr(RationalSimplex, "_maximise", counting)
    return calls


def test_rank_test_skips_every_lp_when_trivial(monkeypatch):
    calls = _count_lps(monkeypatch)
    assert certify_triviality(PolytopeSpec(full_action(Z2kContext(1)), 3, 2)).trivial
    assert calls == []
    spec = PolytopeSpec(full_action(Z2kContext(2)), 3, 2)
    assert not certify_triviality(spec).trivial
    # the bound rule ends the scan after its first LP (the full scan ran 20)
    assert len(calls) == 1 < 2 * _reduce(spec).count


def _assert_matches_fraction_scan(spec):
    cert, oracle = certify_triviality(spec), fraction_certify(spec)
    assert cert.trivial == oracle.trivial
    assert cert.max_deviation == oracle.max_deviation
    if oracle.witness is None:
        assert cert.witness is None
    else:
        assert cert.witness.entries == oracle.witness.entries


@PROPERTY
@given(specs())
def test_integer_scan_matches_fraction_scan(spec):
    _assert_matches_fraction_scan(spec)


def test_integer_scan_matches_fraction_scan_on_fixed_instances():
    # warm-started scans with non-unique optima: the witness depends on
    # the scan order and the strict tie rule
    for k, order, m in ((1, 4, 2), (1, 4, 3), (2, 3, 2), (3, 3, 2), (2, 4, 3)):
        _assert_matches_fraction_scan(PolytopeSpec(full_action(Z2kContext(k)), order, m))
    # identity actions on unequal weights.  At (2/3, 1/3), order 4, a
    # vertex's largest deviation sits on an orbit off the basis, where the
    # vertex is 0; at (2/9, 1/3, 1/3, 1/9), order 2, the certificate
    # depends on the min LPs
    for parts, order, m in (((6, 3), 4, 2), ((2, 3, 3, 1), 2, 1)):
        space = FiniteSpace(tuple(Fraction(p, sum(parts)) for p in parts))
        identity = Automorphism(space, tuple(range(len(parts))))
        spec = PolytopeSpec(ActionGenerators(space, (identity,)), order, m)
        _assert_matches_fraction_scan(spec)


def test_larger_z2k_certificates():
    # out of reach of the full-coordinate LP; the witnesses are re-checked
    # through the joining defects instead
    for (k, order, m), deviation in (
        ((3, 3, 2), Fraction(7, 512)),
        ((2, 4, 3), Fraction(3, 256)),
    ):
        spec = PolytopeSpec(full_action(Z2kContext(k)), order, m)
        cert = certify_triviality(spec)
        assert not cert.trivial
        assert cert.max_deviation == deviation
        _check_witness(spec, cert)


def _z2k_closed_form(k, order, m):
    """The Baseline fit of the largest deviation on the full Z_2^k action:
    (2^((n - m) k) - 1) / 2^(n k), and for order 4 with 3-independence the
    sum joining's 2^(-3k) - 2^(-4k) (the two agree there)."""
    if (order, m) == (4, 3):
        return Fraction(1, 2 ** (3 * k)) - Fraction(1, 2 ** (4 * k))
    return Fraction(2 ** ((order - m) * k) - 1, 2 ** (order * k))


def test_z2k_certificates_fit_the_closed_forms():
    for (k, order, m), deviation in (
        ((3, 3, 2), Fraction(7, 512)),
        ((4, 3, 2), Fraction(15, 4096)),
        ((2, 4, 2), Fraction(15, 256)),
        ((2, 4, 3), Fraction(3, 256)),
        ((3, 4, 2), Fraction(63, 4096)),
        ((4, 4, 2), Fraction(255, 65536)),
    ):
        assert _z2k_closed_form(k, order, m) == deviation
        spec = PolytopeSpec(full_action(Z2kContext(k)), order, m)
        cert = certify_triviality(spec)
        assert not cert.trivial
        assert cert.max_deviation == deviation
        _check_witness(spec, cert)


# (k, order, independence) of the full Z_2^k action: the instances of the
# benchmark's certify sequence first
Z2K = ((1, 3, 2), (1, 4, 2), (1, 4, 3), (2, 3, 2), (3, 3, 2), (2, 4, 2), (2, 4, 3))


def _z2k(k, order, m):
    return PolytopeSpec(full_action(Z2kContext(k)), order, m)


def _bound(spec):
    """The package's deviation bound as a ``Fraction``: B / D."""
    red = _reduce(spec)
    nums, den = product_form((spec.action.space,) * spec.order)
    target = [0] * red.count
    for t, o in zip(nums, red.orbit):
        target[o] = t
    num, q = _deviation_bound(red, target, den)
    return Fraction(num, q * den)


def bound_by_fractions(spec):
    """The largest over orbits o of max(min(w / c) - t_o, t_o), the min over
    the face rows where o counts c > 0 and the cell weighs w, read from
    ``_reduce``'s rows and right-hand sides in ``Fraction`` arithmetic."""
    red = _reduce(spec)
    product = product_joining((spec.action.space,) * spec.order).entries
    target = {o: product[idx] for idx, o in enumerate(red.orbit)}
    return max(
        max(min(w / row[o] for row, w in zip(red.rows, red.rhs) if row[o]) - t, t)
        for o, t in target.items()
    )


def classes_by_brute_force(spec):
    """The axis class of every orbit, classes numbered by their least
    orbit: every permutation of the n axes applied to every tuple of every
    orbit, each asserted to map the orbit into one orbit."""
    red = _reduce(spec)
    image = {}
    for idx, o in enumerate(red.orbit):
        t = index_to_tuple(spec.shape, idx)
        for perm in permutations(range(spec.order)):
            moved = red.orbit[tuple_to_index(spec.shape, [t[a] for a in perm])]
            assert image.setdefault((o, perm), moved) == moved
    label = [-1] * red.count
    count = 0
    for o in range(red.count):
        if label[o] < 0:
            for perm in permutations(range(spec.order)):
                label[image[o, perm]] = count
            count += 1
    return label


@PROPERTY
@given(specs())
def test_deviation_bound_matches_fraction_oracle(spec):
    assert _bound(spec) == bound_by_fractions(spec)


def test_deviation_bound_reads_each_rows_own_weight():
    # two cell weights, 4/9 and 1/9 among them: the bound must come from
    # each row's right-hand side, not from the row's position
    space = FiniteSpace((Fraction(2, 3), Fraction(1, 3)))
    spec = PolytopeSpec(ActionGenerators(space, (Automorphism.identity(space),)), 3, 2)
    red = _reduce(spec)
    nums, den = product_form((space,) * 3)
    target = [0] * red.count
    for t, o in zip(nums, red.orbit):
        target[o] = t
    flipped = _Reduction(red.orbit, red.count, red.rows[::-1], red.rhs[::-1])
    bound = _deviation_bound(red, target, den)
    assert _deviation_bound(flipped, target, den) == bound
    assert Fraction(bound[0], bound[1] * den) == bound_by_fractions(spec)


def test_deviation_bound_on_z2k():
    for k, order, m in Z2K:
        spec = _z2k(k, order, m)
        bound = _bound(spec)
        assert bound == bound_by_fractions(spec)
        deviation = certify_triviality(spec).max_deviation
        if (k, order, m) == (1, 4, 2):
            # the one loose bound: the class rule ends this scan
            assert bound == Fraction(3, 16) > deviation == Fraction(1, 16)
        elif deviation:
            assert bound == deviation


@PROPERTY
@given(specs())
def test_axis_classes_match_brute_force(spec):
    classes = _axis_classes(spec, _reduce(spec))
    assert classes == classes_by_brute_force(spec)
    # the class rule's premise: the orbits of a class share one range
    red = _reduce(spec)
    solver = RationalSimplex(red.rows, red.rhs, red.count)
    ranges = {}
    for o, c in enumerate(classes):
        unit = [Fraction(int(u == o)) for u in range(red.count)]
        extremes = tuple(solver.solve_for(unit, sense).value for sense in ("max", "min"))
        assert ranges.setdefault(c, extremes) == extremes


def test_axis_class_counts_on_z2k():
    # the class counts of the ROADMAP Baseline table; the independence
    # does not change the orbits
    for (k, order), count in (
        ((2, 3), 4), ((3, 3), 7), ((4, 3), 11), ((2, 4), 8), ((3, 4), 19),
    ):
        spec = _z2k(k, order, order - 1)
        classes = _axis_classes(spec, _reduce(spec))
        assert classes == classes_by_brute_force(spec)
        assert max(classes) + 1 == count


def test_early_stop_lp_counts(monkeypatch):
    calls = _count_lps(monkeypatch)
    lps = {}
    for inst in Z2K:
        calls.clear()
        certify_triviality(_z2k(*inst))
        lps[inst] = len(calls)
    # the full scan ran 2 * orbits: 0, 16, 16, 20, 40, 72, 72
    assert lps == {
        (1, 3, 2): 0, (1, 4, 2): 8, (1, 4, 3): 1, (2, 3, 2): 1,
        (3, 3, 2): 1, (2, 4, 2): 1, (2, 4, 3): 1,
    }
    # the benchmark's certify sequence, 52 LPs in the full scan
    assert sum(lps[inst] for inst in Z2K[:4]) == 10
