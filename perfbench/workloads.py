"""Seeded inputs, argv sequences and exact expectations for each workload.

``build(name, seed, workdir)`` writes the workload's config and tensor
files under ``workdir`` and returns a ``Workload``: the argv lists the
benchmark feeds to ``python -m joinlab`` in order, each with a check that
compares the report against values known independently of the program
(closed forms, or an independent solver on a different formulation).

The seed changes content only (atom relabelings, objectives, cocycles,
sets), and only where the content leaves the cost of a pass unchanged:
sizes, group structure and the polytope instances are fixed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Callable

from joinlab import mixing, polytope, torus
from joinlab.joinings import (
    JoiningTensor,
    diagonal_invariance_defect,
    face_independence_defect,
    product_joining,
    sup_distance,
)
from joinlab.serialize import data_to_joining, joining_to_data
from joinlab.spaces import ActionGenerators, Automorphism, FiniteSpace, MeasurableSet

NAMES = ("certify", "optimize", "tensor", "dynamics")

# (k, order, independence) -> (trivial, max_deviation) for the full Z_2^k
# action.  The non-trivial values are the order-4 sum joining's
# 2^-3k - 2^-4k at k = 1 and the 3/64 vertex of the pairwise-independent
# order-3 polytope on Z_2^2.  The seed does not relabel these atoms:
# conjugating the action reorders the LP's columns, and Bland's rule then
# takes 212, 266 or 267 pivots on (2,3,2), depending on the relabeling.
CERTIFY = (
    ((1, 3, 2), True, Fraction(0)),
    ((1, 4, 2), False, Fraction(1, 16)),
    ((1, 4, 3), False, Fraction(1, 16)),
    ((2, 3, 2), False, Fraction(3, 64)),
)

SIX_WEIGHTS = tuple(Fraction(x) for x in ("1/10", "1/10", "1/5", "1/5", "1/5", "1/5"))
SIX_GENERATORS = ((1, 0, 3, 2, 4, 5), (0, 1, 4, 5, 2, 3))

ETA_K = 3
DYN_BASE, DYN_FIBER, DYN_SWEEP, DYN_HORIZON = 64, 8, 12, 64

Check = Callable[[dict], "str | None"]


@dataclass
class Step:
    """One CLI invocation: argv after ``python -m joinlab`` and its check.

    ``check`` returns None when the report is right, else a message."""

    argv: list[str]
    check: Check
    bytes_in: int = 0


@dataclass
class Workload:
    name: str
    seed: int
    steps: list[Step]
    # (what, value, cap) for every generated size the program caps
    sizes: list[tuple[str, int, int]]

    def cap_violations(self) -> list[str]:
        return [f"{what} = {value} > cap {cap}" for what, value, cap in self.sizes if value > cap]


def size_cap() -> int:
    """Smallest tensor-size cap any module declares."""
    return min(mod.SIZE_CAP for mod in (polytope, torus, mixing) if hasattr(mod, "SIZE_CAP"))


def build(name: str, seed: int, workdir: str) -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r} (choose from {', '.join(NAMES)})")
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    workload = Workload(name, seed, *globals()[f"_build_{name}"](rng, workdir))
    for step in workload.steps:
        step.bytes_in = sum(
            os.path.getsize(step.argv[i + 1])
            for i, arg in enumerate(step.argv)
            if arg in ("--config", "--file")
        )
    return workload


# -- helpers -----------------------------------------------------------------


def _write_json(workdir: str, filename: str, data) -> str:
    path = os.path.join(workdir, filename)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _conjugate(perm, relabel):
    """relabel o perm o relabel^-1: the same map on renamed atoms."""
    out = [0] * len(perm)
    for x, y in enumerate(perm):
        out[relabel[x]] = relabel[y]
    return tuple(out)


def _relabeling(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _z2k_generators(k: int) -> list[tuple[int, ...]]:
    return [g.perm for g in torus.full_action(torus.Z2kContext(k)).generators]


def _expect(report: dict, **fields) -> str | None:
    for key, want in fields.items():
        if report.get(key) != want:
            return f"{key} = {report.get(key)!r}, expected {want!r}"
    return None


def _witness_problem(report: dict, action: ActionGenerators, m: int) -> tuple[str | None, JoiningTensor | None]:
    """Decode a witness and re-check it through the public defects."""
    try:
        w = data_to_joining(report["witness"])
    except Exception as exc:  # any decode failure is a wrong report
        return f"witness does not decode as a joining: {exc}", None
    if diagonal_invariance_defect(w, action) != 0:
        return "witness is not invariant", None
    if face_independence_defect(w, m) != 0:
        return f"witness {m}-faces are not independent", None
    return None, w


# -- certify -----------------------------------------------------------------


def _build_certify(rng, workdir):
    spaces, actions, objects = {}, {}, {}
    for k in sorted({inst[0] for inst, _, _ in CERTIFY}):
        n = 2**k
        perms = _z2k_generators(k)
        spaces[f"g{k}"] = {"uniform": n}
        actions[f"full{k}"] = {"space": f"g{k}", "perms": [list(p) for p in perms]}
        space = FiniteSpace.uniform(n)
        objects[k] = ActionGenerators(space, tuple(Automorphism(space, p) for p in perms))
    cfg = _write_json(workdir, "certify.json", {"spaces": spaces, "actions": actions})
    steps, sizes = [], []
    for (k, order, m), trivial, deviation in CERTIFY:
        argv = ["polytope", "--config", cfg, "--action", f"full{k}", "--order", str(order),
                "--independence", str(m), "--certify"]
        steps.append(Step(argv, _certify_check(objects[k], m, trivial, deviation)))
        sizes += [("order", order, polytope.ORDER_CAP), ("tensor entries", 2 ** (k * order), size_cap())]
    return steps, sizes


def _certify_check(action, m, trivial, deviation) -> Check:
    def check(report):
        bad = _expect(report, trivial=trivial, max_deviation=_fmt(deviation))
        if bad or trivial:
            return bad or _expect(report, witness=None)
        bad, w = _witness_problem(report, action, m)
        if bad:
            return bad
        if sup_distance(w, product_joining(w.factors)) != deviation:
            return "witness sup-distance differs from max_deviation"
        return None

    return check


# -- optimize ----------------------------------------------------------------


def _build_optimize(rng, workdir):
    instances = [
        ("six", SIX_WEIGHTS, SIX_GENERATORS),
        ("z2", (Fraction(1, 4),) * 4, _z2k_generators(2)),
    ]
    order, m = 3, 2
    path = os.path.join(workdir, "optimize.json")
    cfg = {"spaces": {}, "actions": {}, "objectives": {}}
    steps, sizes = [], []
    for name, weights, gens in instances:
        n = len(weights)
        objective = {}
        while len(objective) < 3:
            objective[tuple(rng.randrange(n) for _ in range(order))] = rng.choice((-3, -2, -1, 1, 2, 3))
        cfg["spaces"][name] = {"weights": [_fmt(w) for w in weights]}
        cfg["actions"][name] = {"space": name, "perms": [list(g) for g in gens]}
        cfg["objectives"][name] = {"entries": [[list(t), str(c)] for t, c in sorted(objective.items())]}
        space = FiniteSpace(weights)
        action = ActionGenerators(space, tuple(Automorphism(space, g) for g in gens))
        optima = _reference_optima(weights, gens, order, m, objective)
        for sense in ("max", "min"):
            argv = ["polytope", "--config", path, "--action", name, "--order", str(order),
                    "--independence", str(m), "--objective", name]
            if sense == "min":
                argv.append("--minimize")
            steps.append(Step(argv, _optimize_check(action, m, objective, sense, optima[sense])))
        sizes += [("order", order, polytope.ORDER_CAP), ("tensor entries", n**order, size_cap())]
    _write_json(workdir, "optimize.json", cfg)
    return steps, sizes


def _reference_optima(weights, gens, order, m, objective) -> dict[str, float]:
    """Max and min of the objective by an independent solver (HiGHS, in
    floating point) on the orbit-reduced formulation: one variable per
    orbit of the diagonal action on index tuples, one row per m-face cell.
    The exact report must agree to 1e-9 and its witness must attain it."""
    from scipy.optimize import linprog

    n = len(weights)
    tuples = list(product(range(n), repeat=order))
    index = {t: i for i, t in enumerate(tuples)}
    parent = list(range(len(tuples)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        for i, t in enumerate(tuples):
            a, b = find(i), find(index[tuple(g[x] for x in t)])
            if a != b:
                parent[a] = b
    labels: dict[int, int] = {}
    orbit = [labels.setdefault(find(i), len(labels)) for i in range(len(tuples))]
    rows, rhs = [], []
    for coords in combinations(range(order), m):
        cells: dict[tuple, list[int]] = {}
        for t, o in zip(tuples, orbit):
            cells.setdefault(tuple(t[c] for c in coords), [0] * len(labels))[o] += 1
        for cell, row in sorted(cells.items()):
            target = Fraction(1)
            for a in cell:
                target *= weights[a]
            rows.append(row)
            rhs.append(float(target))
    cost = [0.0] * len(labels)
    for t, c in objective.items():
        cost[orbit[index[t]]] += c
    out = {}
    for sense, sign in (("max", -1.0), ("min", 1.0)):
        res = linprog([sign * c for c in cost], A_eq=rows, b_eq=rhs, bounds=(0, None), method="highs")
        if res.status != 0:
            raise RuntimeError(f"reference LP failed: {res.message}")
        out[sense] = sign * res.fun
    return out


def _optimize_check(action, m, objective, sense, reference: float) -> Check:
    def check(report):
        bad = _expect(report, status="optimal", sense=sense)
        if bad:
            return bad
        optimum = Fraction(report["optimum"])
        if abs(float(optimum) - reference) > 1e-9:
            return f"optimum {optimum} differs from the reference {reference!r}"
        bad, w = _witness_problem(report, action, m)
        if bad:
            return bad
        if sum(c * w.value(t) for t, c in objective.items()) != optimum:
            return "witness does not attain the reported optimum"
        return None

    return check


# -- tensor ------------------------------------------------------------------


def _build_tensor(rng, workdir):
    ctx = torus.Z2kContext(ETA_K)
    n = ctx.group_order
    relabel = _relabeling(rng, n)
    eta = torus.triple_sum_joining(ctx)
    moved = {tuple(relabel[x] for x in t): v for t, v in eta.nonzero()}
    tensor = JoiningTensor.from_nonzero(eta.factors, moved)
    tensor_path = _write_json(workdir, "eta.json", joining_to_data(tensor))
    perms = [_conjugate(g, relabel) for g in _z2k_generators(ETA_K)]
    cfg = _write_json(workdir, "tensor.json", {
        "spaces": {"g": {"uniform": n}},
        "actions": {"full": {"space": "g", "perms": [list(p) for p in perms]}},
    })
    sup = Fraction(1, 2 ** (3 * ETA_K)) - Fraction(1, 2 ** (4 * ETA_K))
    eta_check = lambda r: _expect(  # noqa: E731
        r, k=ETA_K, mass="1/1", edge_marginal_defect="0/1", three_face_defect="0/1",
        invariance_defect="0/1", sup_distance_to_product=_fmt(sup), **{"pass": True})
    verify_check = lambda r: _expect(  # noqa: E731
        r, mass="1/1", mass_defect="0/1", min_entry="0/1", marginal_defect="0/1",
        invariance_defect="0/1", **{"pass": True})
    steps = [
        Step(["eta", "--k", str(ETA_K), "--verify"], eta_check),
        Step(["joining", "verify", "--file", tensor_path, "--config", cfg, "--action", "full"],
             verify_check),
    ]
    sizes = [("k", ETA_K, torus.K_CAP), ("tensor entries", n**4, size_cap())]
    return steps, sizes


# -- dynamics ----------------------------------------------------------------


def _build_dynamics(rng, workdir):
    # one cycle through every base atom, in a seeded order: a random
    # permutation's cycle type would change how often S^p x returns to a
    # set, and with it the cost of the rigidity statistic
    order = _relabeling(rng, DYN_BASE)
    base_perm = [0] * DYN_BASE
    for i, x in enumerate(order):
        base_perm[x] = order[(i + 1) % DYN_BASE]
    maps = [_relabeling(rng, DYN_FIBER) for _ in range(DYN_BASE)]
    half = lambda n: sorted(rng.sample(range(n), n // 2))  # noqa: E731
    base_sets = {f"a{i}": half(DYN_BASE) for i in range(3)}
    fiber_sets = {"f0": half(DYN_FIBER), "f1": half(DYN_FIBER)}
    offsets = [rng.randint(1, DYN_SWEEP) for _ in range(2)]
    sample_seed = rng.randrange(2**31)
    cfg = _write_json(workdir, "dynamics.json", {
        "spaces": {"base": {"uniform": DYN_BASE}, "fiber": {"uniform": DYN_FIBER}},
        "automorphisms": {"s": {"space": "base", "perm": base_perm}},
        "cocycles": {"r": {"base_map": "s", "fiber": "fiber", "maps": maps}},
        "sets": {**{k: {"space": "base", "atoms": v} for k, v in base_sets.items()},
                 **{k: {"space": "fiber", "atoms": v} for k, v in fiber_sets.items()}},
        "sequences": {"long": list(range(1, DYN_HORIZON + 1)), "short": list(range(1, 9))},
    })
    sweep_want = _sweep_reference(base_perm, list(base_sets.values()), DYN_SWEEP)
    ok = lambda r: None  # noqa: E731  (repeat-identity is checked by the runner)
    common = ["--config", cfg]
    steps = [
        Step(["mixing", *common, "--automorphism", "s", "--sets", "a0,a1,a2",
              "--sweep", str(DYN_SWEEP)], lambda r: _expect(r, **sweep_want)),
        Step(["mixing", *common, "--automorphism", "s", "--sets", "a0,a1,a2",
              "--offsets", ",".join(map(str, offsets))], ok),
        Step(["cocycle", *common, "--cocycle", "r", "--stat", "rigidity", "--set", "a0",
              "--sequence", "long", "--n-param", "4"], ok),
        Step(["cocycle", *common, "--cocycle", "r", "--stat", "fraction",
              "--sequence", "short", "--eps", "1/2"], ok),
        Step(["cocycle", *common, "--cocycle", "r", "--stat", "average", "--fiber-set-a", "f0",
              "--fiber-set-b", "f1", "--horizon", str(DYN_HORIZON)], ok),
    ]
    for mode in ("iid-cocycle", "random-coboundary"):
        steps.append(Step(["sample", *common, "--base", "s", "--fiber", "fiber", "--seed",
                           str(sample_seed), "--mode", mode, "--analyze"], ok))
    return steps, []  # no tensor, polytope or Z_2^k input: no cap applies


def _sweep_reference(perm, atom_lists, k_range) -> dict:
    """The --sweep report fields, recomputed through the public
    ``correlation`` over the whole offset grid."""
    space = FiniteSpace.uniform(len(perm))
    t = Automorphism(space, tuple(perm))
    sets = [MeasurableSet(space, frozenset(a)) for a in atom_lists]
    target = Fraction(1)
    for a in sets:
        target *= a.measure
    best, best_k = Fraction(-1), None
    for offs in product(range(1, k_range + 1), repeat=len(sets) - 1):
        dev = abs(mixing.correlation(t, sets, offs) - target)
        if dev > best:
            best, best_k = dev, list(offs)
    return {"max_deviation": _fmt(best), "argmax_offsets": best_k, "product_value": _fmt(target)}
