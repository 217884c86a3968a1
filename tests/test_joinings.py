import random
from fractions import Fraction

import pytest

from joinlab import (
    ActionGenerators,
    Automorphism,
    FiniteSpace,
    InvalidInputError,
    JoiningTensor,
    PreconditionError,
    ProductMeasure,
    averaging_operator,
    diagonal_invariance_defect,
    disintegrate,
    face_independence_defect,
    identity_operator,
    joining_from_operator,
    koopman,
    marginal,
    operator_from_joining,
    product_convergence_trace,
    product_joining,
    product_space,
    push_joining,
    reassemble,
    sup_distance,
)
from joinlab import joinings

import tensor_oracle as oracle
from conftest import (
    random_automorphism,
    random_operator,
    random_space,
)

U2 = FiniteSpace.uniform(2)
HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def graph_joining(a: Automorphism, order: int = 2) -> JoiningTensor:
    """v(x, a(x), a^2(x), ...) = mu(x); an independent construction used as
    a known joining throughout these tests."""
    values = {}
    for x in a.space.atoms():
        tup, cur = [x], x
        for _ in range(order - 1):
            cur = a.perm[cur]
            tup.append(cur)
        values[tuple(tup)] = a.space.weights[x]
    return JoiningTensor.from_nonzero((a.space,) * order, values)


def parity_joining() -> JoiningTensor:
    values = {
        (a, b, c): QUARTER
        for a in range(2)
        for b in range(2)
        for c in range(2)
        if (a + b + c) % 2 == 0
    }
    return JoiningTensor.from_nonzero((U2,) * 3, values)


def test_product_joining_entries():
    a = FiniteSpace((Fraction(1, 3), Fraction(2, 3)))
    v = product_joining([a, U2])
    assert v.value((0, 0)) == Fraction(1, 6)
    assert v.value((1, 1)) == Fraction(1, 3)
    assert sum(v.entries) == 1


def test_marginal_of_product_is_product():
    rng = random.Random(17)
    for _ in range(10):
        spaces = [random_space(rng, 4) for _ in range(3)]
        v = product_joining(spaces)
        for coords in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
            got = marginal(v, coords)
            want = product_joining([spaces[c] for c in coords])
            assert got == want


def test_joining_tensor_rejects_bad_marginals():
    with pytest.raises(InvalidInputError):
        JoiningTensor((U2, U2), (HALF, HALF, 0, 0))
    with pytest.raises(InvalidInputError):
        ProductMeasure((U2,), (HALF, HALF, HALF))
    with pytest.raises(InvalidInputError):
        ProductMeasure((U2, U2), (1, 0, 0, 0, 0))


def test_product_measure_mass_and_negativity():
    ProductMeasure((U2, U2), (1, 0, 0, 0))
    with pytest.raises(InvalidInputError):
        ProductMeasure((U2, U2), (2, -1, 0, 0))
    with pytest.raises(InvalidInputError):
        ProductMeasure((U2, U2), (HALF, HALF, HALF, HALF))


def test_diagonal_invariance_defect_parity_shift():
    v = parity_joining()
    flip = Automorphism(U2, (1, 0))
    action = ActionGenerators(U2, (flip,))
    assert diagonal_invariance_defect(v, action) == QUARTER
    ident_action = ActionGenerators(U2, (Automorphism.identity(U2),))
    assert diagonal_invariance_defect(v, ident_action) == 0


def test_face_independence_parity():
    v = parity_joining()
    assert face_independence_defect(v, 1) == 0
    assert face_independence_defect(v, 2) == 0
    assert sup_distance(v, product_joining(v.factors)) == Fraction(1, 8)


def test_face_independence_monotone():
    # zero defect at a face order forces zero defect at every smaller one
    prod4 = product_joining((U2,) * 4)
    for m in (1, 2, 3):
        assert face_independence_defect(prod4, m) == 0
    assert face_independence_defect(prod4, 4) == 0
    v = parity_joining()
    assert face_independence_defect(v, 2) == 0
    assert face_independence_defect(v, 1) == 0
    # the one face on every axis is v itself
    assert face_independence_defect(v, 3) == sup_distance(v, product_joining(v.factors))
    with pytest.raises(InvalidInputError):
        face_independence_defect(v, 4)
    with pytest.raises(InvalidInputError):
        face_independence_defect(v, 0)


def test_face_independence_refuses_a_bool_face_order():
    # True == 1 as an int, but a bool is not a face order
    with pytest.raises(InvalidInputError, match="got True"):
        face_independence_defect(parity_joining(), True)

def test_operator_from_joining_product_gives_averaging():
    sp = FiniteSpace((Fraction(1, 3), Fraction(2, 3)))
    v = product_joining([sp, sp])
    op = operator_from_joining(v, 0)
    assert op.kernel == averaging_operator(sp).kernel


def test_operator_from_joining_diagonal_gives_identity():
    diag = graph_joining(Automorphism.identity(U2), 2)
    op = operator_from_joining(diag, 0)
    assert op.kernel == identity_operator(U2).kernel


def test_joining_from_operator_examples():
    theta = averaging_operator(U2)
    assert joining_from_operator(theta) == product_joining([U2, U2])
    ident = koopman(Automorphism.identity(U2))
    assert joining_from_operator(ident) == graph_joining(
        Automorphism.identity(U2), 2
    )


def test_joining_from_operator_nonuniform_mass():
    sp = FiniteSpace((Fraction(1, 4), Fraction(3, 4)))
    v = joining_from_operator(averaging_operator(sp))
    assert v == product_joining([sp, sp])


def test_round_trip_operator_joining():
    rng = random.Random(31)
    for _ in range(25):
        source = random_space(rng, 4)
        rest = [random_space(rng, 3) for _ in range(rng.randint(1, 3))]
        op = random_operator(rng, source, product_space(rest))
        distinguished = rng.randrange(len(rest) + 1)
        v = joining_from_operator(op, rest, distinguished)
        assert operator_from_joining(v, distinguished).kernel == op.kernel
        assert joining_from_operator(
            operator_from_joining(v, distinguished), rest, distinguished
        ) == v


def test_operator_from_joining_checks_the_complement_then_the_marginal():
    # the complementary face is dependent: disintegration over it refuses
    diagonal = ProductMeasure((U2, U2, U2), (HALF, 0, 0, 0, 0, 0, 0, HALF))
    for v in (diagonal, ProductMeasure((U2, U2), (HALF, 0, HALF, 0))):
        with pytest.raises(PreconditionError, match="marginal onto the base"):
            operator_from_joining(v, 0)
    # the complement is independent but the distinguished marginal is not
    # the factor's weights: the operator's weighted column check refuses
    lopsided = ProductMeasure((U2, U2), (HALF, HALF, 0, 0))
    with pytest.raises(InvalidInputError, match=r"^weighted column 0 is 1, expected 1/2;"):
        operator_from_joining(lopsided, 0)


def test_conversions_go_through_disintegrate_and_reassemble(monkeypatch):
    calls = []
    for name in ("disintegrate", "reassemble"):
        real = getattr(joinings, name)
        monkeypatch.setattr(
            joinings, name,
            lambda *args, real=real, name=name: calls.append(name) or real(*args),
        )
    sp = FiniteSpace((Fraction(1, 3), Fraction(2, 3)))
    v = product_joining([U2, sp, U2])
    op = operator_from_joining(v, 1)
    assert calls == ["disintegrate"]
    assert joining_from_operator(op, [U2, U2], 1) == v
    assert calls == ["disintegrate", "reassemble"]


def test_push_by_koopman_is_inverse_image():
    rng = random.Random(41)
    for _ in range(10):
        sp = random_space(rng, 4)
        a = random_automorphism(rng, sp)
        b = random_automorphism(rng, sp)
        v = graph_joining(random_automorphism(rng, sp), 2)
        pushed = push_joining(v, [koopman(a), koopman(b)])
        direct = oracle.push(v.entries, v.shape, [a.inverse().perm, b.inverse().perm])
        assert list(pushed.entries) == direct


def test_push_preserves_invariance_for_commuting_maps():
    rng = random.Random(43)
    sp = FiniteSpace.uniform(4)
    for _ in range(10):
        g = random_automorphism(rng, sp)
        action = ActionGenerators(sp, (g,))
        v = graph_joining(g, 3)
        assert diagonal_invariance_defect(v, action) == 0
        pushed = push_joining(v, [koopman(g)] * 3)
        assert diagonal_invariance_defect(pushed, action) == 0


def test_push_rejects_wrong_operator_count():
    v = product_joining([U2, U2])
    with pytest.raises(InvalidInputError):
        push_joining(v, [identity_operator(U2)])


def test_convergence_trace_on_product_is_zero():
    v = product_joining((U2,) * 3)
    affine = averaging_operator(U2)
    trace = product_convergence_trace(
        v, lambda j: identity_operator(U2), lambda i, j: affine, 3
    )
    assert trace == (0, 0, 0)


def test_convergence_trace_standard_gate():
    # the diagonal's complement face is dependent: the trace still runs,
    # as a diagnostic
    diag = graph_joining(Automorphism.identity(U2), 3)
    trace = product_convergence_trace(
        diag,
        lambda j: identity_operator(U2),
        lambda i, j: averaging_operator(U2),
        2,
    )
    assert len(trace) == 2


def test_disintegrate_product_gives_product_conditionals():
    v = product_joining((U2,) * 3)
    field = disintegrate(v, (0,))
    for x in range(2):
        assert field.assignment[x] == product_joining((U2, U2))


def test_disintegrate_graph_base_rejected():
    # graph joining of the skew product swap x Id, flattened to (X, Y, X, Y):
    # the (0, 2) marginal is the graph of swap, not the product measure.
    swap = Automorphism(U2, (1, 0))
    values = {}
    for x in range(2):
        for y in range(2):
            values[(x, y, swap.perm[x], y)] = QUARTER
    graph_of_skew = JoiningTensor.from_nonzero((U2,) * 4, values)
    with pytest.raises(PreconditionError):
        disintegrate(graph_of_skew, (0, 2))


def test_disintegrate_reassemble_round_trip():
    rng = random.Random(53)
    for _ in range(10):
        sp = random_space(rng, 3)
        op = random_operator(rng, sp, sp)
        v = joining_from_operator(op)
        field = disintegrate(v, (0,))
        assert reassemble(field, (0,)) == v

        w = product_joining([sp, sp, sp])
        field3 = disintegrate(w, (0, 2))
        assert reassemble(field3, (0, 2)) == w


def test_marginal_validates_coords():
    v = product_joining([U2, U2])
    with pytest.raises(InvalidInputError):
        marginal(v, (1, 0))
    with pytest.raises(InvalidInputError):
        marginal(v, ())
    with pytest.raises(InvalidInputError):
        marginal(v, (0, 2))


def test_sup_distance_requires_same_shape():
    v = product_joining([U2, U2])
    w = product_joining([U2, U2, U2])
    with pytest.raises(InvalidInputError):
        sup_distance(v, w)
