"""The orbit-reduced joining polytope against the full-coordinate oracle.

Random weight-preserving actions with non-uniform weights (order 2-3, at
most 64 tensor entries) must give the same certificate, the same optima
and the same nullity as the full LP, whose nullity is taken from sympy's
exact rank rather than from the simplex.  The integer certificate scan
must also match ``fraction_certify``, the same scan in ``Fraction``
arithmetic, down to the witness.
"""

from fractions import Fraction

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
from joinlab.polytope import _reduce
from joinlab.simplex import RationalSimplex

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


def test_rank_test_skips_every_lp_when_trivial(monkeypatch):
    # every LP, solve_for's and the certificate scan's, runs on _maximise
    calls = []
    maximise = RationalSimplex._maximise

    def counting(self, obj, den):
        calls.append(den)
        return maximise(self, obj, den)

    monkeypatch.setattr(RationalSimplex, "_maximise", counting)
    assert certify_triviality(PolytopeSpec(full_action(Z2kContext(1)), 3, 2)).trivial
    assert calls == []
    spec = PolytopeSpec(full_action(Z2kContext(2)), 3, 2)
    assert not certify_triviality(spec).trivial
    assert len(calls) == 2 * _reduce(spec).count == 20


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
    ):
        assert _z2k_closed_form(k, order, m) == deviation
        spec = PolytopeSpec(full_action(Z2kContext(k)), order, m)
        cert = certify_triviality(spec)
        assert not cert.trivial
        assert cert.max_deviation == deviation
        _check_witness(spec, cert)
