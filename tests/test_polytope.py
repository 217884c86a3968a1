"""Joining-polytope LP tests: frozen optima, certificates, and witnesses."""

from fractions import Fraction
from pathlib import Path

import pytest

from joinlab import (
    ActionGenerators,
    Automorphism,
    FiniteSpace,
    JoinlabInternalError,
    PolytopeSpec,
    RationalSimplex,
    ResourceLimitError,
    InvalidInputError,
    Z2kContext,
    certify_triviality,
    diagonal_invariance_defect,
    face_independence_defect,
    full_action,
    marginal,
    optimize,
    sup_distance,
    product_joining,
)
from joinlab.spaces import tuple_to_index


def trivial_action(n):
    space = FiniteSpace.uniform(n)
    return ActionGenerators(space, (Automorphism.identity(space),))


def test_parity_objective_frozen():
    # trivial action on two atoms, order 3, pairwise independence:
    # maximising the mass at (0,0,0) is achieved by the parity measure
    spec = PolytopeSpec(trivial_action(2), 3, 2)
    objective = [Fraction(0)] * spec.size
    objective[tuple_to_index(spec.shape, (0, 0, 0))] = Fraction(1)
    out = optimize(spec, objective)
    assert out.status == "optimal"
    assert out.optimum == Fraction(1, 4)
    # the product measure only reaches 1/8 there
    assert out.witness.value((0, 0, 0)) == Fraction(1, 4)
    parity = {
        t: Fraction(1, 4)
        for t in [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    }
    assert dict(out.witness.nonzero()) == parity
    # witness really lies in the polytope
    assert sum(out.witness.entries) == 1
    assert face_independence_defect(out.witness, 2) == 0

    low = optimize(spec, objective, sense="min")
    assert low.optimum == 0


def test_certify_z2_trivial_action_pairwise():
    # order 2 with 1-face (marginal) constraints only: the polytope contains
    # the diagonal, far from the product
    spec = PolytopeSpec(trivial_action(2), 2, 1)
    cert = certify_triviality(spec)
    assert not cert.trivial
    assert cert.max_deviation == Fraction(1, 4)
    w = cert.witness
    assert sum(w.entries) == 1
    assert face_independence_defect(w, 1) == 0
    assert sup_distance(w, product_joining([w.factors[0]] * 2)) == cert.max_deviation


def test_certify_full_action_k1_trivial():
    ctx_action = full_action(Z2kContext(1))
    spec = PolytopeSpec(ctx_action, 3, 2)
    cert = certify_triviality(spec)
    assert cert.trivial
    assert cert.max_deviation == 0
    assert cert.witness is None


def test_certify_witness_is_invariant_and_independent():
    spec = PolytopeSpec(trivial_action(2), 3, 2)
    cert = certify_triviality(spec)
    assert not cert.trivial
    w = cert.witness
    assert sum(w.entries) == 1
    assert face_independence_defect(w, 2) == 0
    assert diagonal_invariance_defect(w, spec.action) == 0
    prod = product_joining([w.factors[0]] * 3)
    assert sup_distance(w, prod) == cert.max_deviation
    assert cert.max_deviation > 0


def test_certify_deterministic():
    spec = PolytopeSpec(trivial_action(3), 2, 1)
    a = certify_triviality(spec)
    b = certify_triviality(spec)
    assert a.trivial == b.trivial
    assert a.max_deviation == b.max_deviation
    if a.witness is not None:
        assert a.witness.entries == b.witness.entries


def test_order_and_size_caps():
    with pytest.raises(InvalidInputError):
        PolytopeSpec(trivial_action(2), 5, 2)
    with pytest.raises(ResourceLimitError):
        PolytopeSpec(trivial_action(17), 4, 3)


def test_independence_range_validated():
    with pytest.raises(InvalidInputError):
        PolytopeSpec(trivial_action(2), 3, 0)
    with pytest.raises(InvalidInputError):
        PolytopeSpec(trivial_action(2), 3, 3)


def test_independence_refuses_a_bool():
    with pytest.raises(InvalidInputError, match="got True"):
        PolytopeSpec(trivial_action(2), 3, True)

def test_objective_length_validated():
    spec = PolytopeSpec(trivial_action(2), 2, 1)
    with pytest.raises(InvalidInputError):
        optimize(spec, [Fraction(1)] * 3)


def test_an_infeasible_solver_is_an_internal_fault(monkeypatch, capsys):
    # the product measure is always feasible, so a solver that reports the
    # region empty has a bug: optimize raises as certify_triviality does,
    # and the CLI exits 3 instead of reporting "infeasible"
    from joinlab import cli

    def infeasible(self, rows, rhs):
        self._infeasible = True
        return []

    monkeypatch.setattr(RationalSimplex, "_presolve", infeasible)
    spec = PolytopeSpec(trivial_action(2), 3, 2)
    with pytest.raises(JoinlabInternalError, match="reported infeasible"):
        optimize(spec, [Fraction(1)] * spec.size)
    config = Path(__file__).resolve().parent.parent / "configs" / "polytope_k1.json"
    code = cli.main(
        ["polytope", "--config", str(config), "--action", "trivial",
         "--order", "3", "--independence", "2", "--objective", "corner"]
    )
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ")


def test_optimize_minimum_of_diagonal_mass():
    # minimising the total diagonal mass over exchange-invariant couplings
    space = FiniteSpace.uniform(2)
    swap = Automorphism(space, (1, 0))
    spec = PolytopeSpec(ActionGenerators(space, (swap,)), 2, 1)
    objective = [Fraction(0)] * spec.size
    for x in range(2):
        objective[tuple_to_index(spec.shape, (x, x))] = Fraction(1)
    low = optimize(spec, objective, sense="min")
    assert low.status == "optimal"
    assert low.optimum == 0
    high = optimize(spec, objective, sense="max")
    assert high.optimum == 1
    # every reported witness satisfies all marginal constraints exactly
    for out in (low, high):
        for i in range(2):
            got = marginal(out.witness, (i,))
            assert dict(got.nonzero()) == {(x,): Fraction(1, 2) for x in range(2)}
