"""The config objects checked all at once against per-entry oracles.

The maps of ``actions.*.perms`` and ``cocycles.*.maps``, checked all at
once by the config parser, against a per-entry oracle: each map checked
and built on its own through the validating ``Automorphism``.  A valid
document gives equal objects; a document with bad maps fails on the first
one, with the same error and message.  Set atoms, sequences and single
perms are checked at once by ``MeasurableSet``, ``RigiditySequence`` and
``Automorphism``; each must fail as the per-entry loop it replaced, with
the same exception type and message, also through ``parse_config``."""

import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from joinlab import (
    ActionGenerators,
    Automorphism,
    FiniteSpace,
    MeasurableSet,
    RigiditySequence,
    SkewProduct,
)
from joinlab.config import parse_config
from joinlab.errors import InvalidInputError, naming

PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def oracle_maps(space, raws, path):
    maps = []
    for i, raw in enumerate(raws):
        with naming(f"{path}[{i}]"):
            if (
                not isinstance(raw, list)
                or not raw
                or any(not isinstance(p, int) or isinstance(p, bool) for p in raw)
            ):
                raise InvalidInputError("expected a nonempty list of ints")
            maps.append(Automorphism(space, tuple(raw)))
    return tuple(maps)


def oracle_parse(doc):
    """(actions, cocycles) of ``doc``, their maps built one by one."""
    rest = parse_config({k: v for k, v in doc.items() if k not in ("actions", "cocycles")})
    actions, cocycles = {}, {}
    for name, raw in doc["actions"].items():
        space = rest.spaces[raw["space"]]
        gens = oracle_maps(space, raw["perms"], f"actions.{name}.perms")
        actions[name] = ActionGenerators(space, gens)
    for name, raw in doc["cocycles"].items():
        s, fiber = rest.automorphisms[raw["base_map"]], rest.spaces[raw["fiber"]]
        maps = oracle_maps(fiber, raw["maps"], f"cocycles.{name}.maps")
        cocycles[name] = SkewProduct(s.space, fiber, s, maps)
    return actions, cocycles


def outcome(parse, doc):
    try:
        return parse(doc)
    except InvalidInputError as exc:
        return type(exc), str(exc)


def bulk_parse(doc):
    cfg = parse_config(doc)
    return cfg.actions, cfg.cocycles


def preserving(draw, classes, n):
    perm = [0] * n
    for atoms in classes:
        for src, dst in zip(atoms, draw(st.permutations(atoms))):
            perm[src] = dst
    return perm


@st.composite
def documents(draw):
    """A uniform space ``u``, a two-class space ``w`` (atoms of weight 1/d
    and 2/d, interleaved), actions and cocycles on both, and the weight
    classes of each space, as atom lists."""
    nu, m = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    n1, n2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    nw = n1 + n2
    heavy = set(draw(st.permutations(range(nw)))[:n2])
    d = n1 + 2 * n2
    classes = {
        "u": [list(range(nu))],
        "w": [[i for i in range(nw) if i not in heavy], sorted(heavy)],
    }
    sizes = {"u": nu, "w": nw}
    doc = {
        "spaces": {
            "u": {"uniform": nu},
            "w": {"weights": [f"{2 if i in heavy else 1}/{d}" for i in range(nw)]},
            "base": {"uniform": m},
        },
        "automorphisms": {"s": {"space": "base", "perm": list(draw(st.permutations(range(m))))}},
        "actions": {},
        "cocycles": {},
    }
    for space in ("u", "w"):
        count = draw(st.integers(1, 3))
        doc["actions"][f"a{space}"] = {
            "space": space,
            "perms": [preserving(draw, classes[space], sizes[space]) for _ in range(count)],
        }
        doc["cocycles"][f"c{space}"] = {
            "base_map": "s",
            "fiber": space,
            "maps": [preserving(draw, classes[space], sizes[space]) for _ in range(m)],
        }
    return doc, classes


KINDS = ("bool", "string", "short", "repeat", "not a list", "weight")


def spoil(draw, doc, classes, kind):
    """Replace one drawn map of ``doc`` by a bad one of the given kind."""
    slots = [
        (section, name, key, i)
        for section, key in (("actions", "perms"), ("cocycles", "maps"))
        for name, raw in doc[section].items()
        for i, perm in enumerate(raw[key])
        if (kind != "weight" or name.endswith("w"))
        and (kind != "repeat" or isinstance(perm, list) and len(perm) > 1)
    ]
    section, name, key, i = draw(st.sampled_from(slots))
    raws = doc[section][name][key]
    perm = raws[i]
    if not isinstance(perm, list) or not perm:
        return  # already spoiled
    j = draw(st.integers(0, len(perm) - 1))
    if kind == "bool":
        perm[j] = draw(st.booleans())
    elif kind == "string":
        perm[j] = str(perm[j])
    elif kind == "short":
        perm.pop()
    elif kind == "repeat":
        k = draw(st.sampled_from([k for k in range(len(perm)) if k != j]))
        perm[j] = perm[k]
    elif kind == "not a list":
        raws[i] = draw(st.sampled_from([0, "0", None, {"0": 0}, tuple(perm)]))
    elif kind == "weight":
        light, heavy = classes[doc[section][name]["space" if section == "actions" else "fiber"]]
        a, b = draw(st.sampled_from(light)), draw(st.sampled_from(heavy))
        perm[a], perm[b] = perm[b], perm[a]


@PROPERTY
@given(documents())
def test_valid_documents_build_the_oracles_maps(drawn):
    doc, _ = drawn
    got = bulk_parse(doc)
    assert got == oracle_parse(doc)
    for gens in [a.generators for a in got[0].values()] + [c.cocycle for c in got[1].values()]:
        assert all(type(g.perm) is tuple for g in gens)


@pytest.mark.parametrize("kind", KINDS)
@settings(PROPERTY, max_examples=25)
@given(documents(), st.data())
def test_bad_maps_fail_as_the_per_entry_oracle(kind, drawn, data):
    # one bad map of each kind, and half the time a second of a drawn kind
    doc, classes = drawn
    spoil(data.draw, doc, classes, kind)
    if data.draw(st.booleans()):
        spoil(data.draw, doc, classes, data.draw(st.sampled_from(KINDS)))
    assert outcome(bulk_parse, doc) == outcome(oracle_parse, doc)


FIXED = {
    "spaces": {"u": {"uniform": 3}, "w": {"weights": ["1/4", "1/2", "1/4"]}},
    "automorphisms": {"s": {"space": "u", "perm": [1, 2, 0]}},
    "actions": {"a": {"space": "u", "perms": [[1, 0, 2], [0, 1, 2]]}},
    "cocycles": {"c": {"base_map": "s", "fiber": "w", "maps": [[2, 1, 0], [0, 1, 2], [0, 1, 2]]}},
}


@pytest.mark.parametrize(
    "section, name, key, i, bad, message",
    [
        ("actions", "a", "perms", 1, [0, True, 2], "actions.a.perms[1]: expected a nonempty list of ints"),
        ("actions", "a", "perms", 0, [0, "1", 2], "actions.a.perms[0]: expected a nonempty list of ints"),
        ("actions", "a", "perms", 1, [1, 0], "actions.a.perms[1]: not a permutation of 0..2: (1, 0)"),
        ("cocycles", "c", "maps", 2, [0, 0, 2], "cocycles.c.maps[2]: not a permutation of 0..2: (0, 0, 2)"),
        ("cocycles", "c", "maps", 1, (0, 1, 2), "cocycles.c.maps[1]: expected a nonempty list of ints"),
        ("cocycles", "c", "maps", 0, [1, 0, 2],
         "cocycles.c.maps[0]: atom 0 (weight 1/4) maps to atom 1 of different weight 1/2"),
    ],
    ids=["bool", "string", "short", "repeat", "not-a-list", "weight"],
)
def test_bad_map_message(section, name, key, i, bad, message):
    doc = {k: {n: dict(v) for n, v in t.items()} for k, t in FIXED.items()}
    doc[section][name][key] = [list(p) for p in FIXED[section][name][key]]
    doc[section][name][key][i] = bad
    assert outcome(bulk_parse, doc) == outcome(oracle_parse, doc) == (InvalidInputError, message)


def test_fixed_document_parses_as_the_oracle():
    actions, cocycles = bulk_parse(FIXED)
    assert (actions, cocycles) == oracle_parse(FIXED)
    assert cocycles["c"].fiber.weights == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))


# -- set atoms, sequences and single perms --------------------------------------


def oracle_set(space, atoms):
    """The atoms of ``MeasurableSet(space, atoms)``, each checked in turn."""
    atoms = frozenset(atoms)
    for a in atoms:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < space.atom_count:
            raise InvalidInputError(f"atom {a!r} outside the space")
    return atoms


def oracle_times(times):
    """The times of ``RigiditySequence(times)``, each checked in turn."""
    times = tuple(times)
    if not times:
        raise InvalidInputError("rigidity sequence must be nonempty")
    prev = 0
    for p in times:
        if not isinstance(p, int) or isinstance(p, bool) or p <= prev:
            raise InvalidInputError(
                f"times must be strictly increasing positive ints, got {times}"
            )
        prev = p
    return times


def oracle_perm(space, perm):
    """The perm of ``Automorphism(space, perm)``, each atom's type and
    weight checked in turn."""
    perm = tuple(perm)
    n = space.atom_count
    if (
        len(perm) != n
        or any(not isinstance(j, int) or isinstance(j, bool) for j in perm)
        or sorted(perm) != list(range(n))
    ):
        raise InvalidInputError(f"not a permutation of 0..{n - 1}: {perm}")
    ws = space.weights
    for i, j in enumerate(perm):
        if ws[i] != ws[j]:
            raise InvalidInputError(
                f"atom {i} (weight {ws[i]}) maps to atom {j} of different weight {ws[j]}"
            )
    return perm


class Atom(int):
    """An int subclass: the bulk type test of set atoms refuses it and the
    per-atom check then accepts it; the test of sequence times accepts it."""


SPACE5 = FiniteSpace.uniform(5)
PAIR = FiniteSpace.uniform(2)
WEIGHTED = FiniteSpace((Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)))


@pytest.mark.parametrize(
    "atoms",
    [[0, True], [False], [0, -1], [4, 5], [99], [1.0], [0, 2.5], [Atom(2), 3],
     [Atom(7)], [], [0, 1, 2, 3, 4], [10**30], [-(10**30), 2]],
    ids=["bool", "false", "negative", "out-of-range", "far", "float", "half",
         "int-subclass", "bad-int-subclass", "empty", "all", "huge", "huge-negative"],
)
def test_set_atoms_check_as_the_per_atom_oracle(atoms):
    assert outcome(lambda a: MeasurableSet(SPACE5, frozenset(a)).atoms, atoms) == \
        outcome(lambda a: oracle_set(SPACE5, a), atoms)


@PROPERTY
@given(st.lists(st.one_of(
    st.integers(-3, 8), st.booleans(), st.floats(-1, 6, allow_nan=False),
    st.integers(-(2**70), 2**70), st.builds(Atom, st.integers(-2, 7)),
)))
def test_drawn_set_atoms_check_as_the_per_atom_oracle(atoms):
    assert outcome(lambda a: MeasurableSet(SPACE5, frozenset(a)).atoms, atoms) == \
        outcome(lambda a: oracle_set(SPACE5, a), atoms)


@pytest.mark.parametrize(
    "times",
    [[], [0], [0, 1], [1, 1], [1, 3, 2], [1, True], [True, 2], [1, 2.0],
     [1, 10**40], [10**40, 10**40 + 1], [-(10**40)], [Atom(1), 2], [2, Atom(1)],
     [1, 2, 3]],
    ids=["empty", "zero", "zero-first", "repeat", "decrease", "bool", "bool-first",
         "float", "huge", "huge-pair", "huge-negative", "int-subclass",
         "int-subclass-decrease", "valid"],
)
def test_sequences_check_as_the_per_time_oracle(times):
    assert outcome(lambda t: RigiditySequence(tuple(t)).times, times) == \
        outcome(oracle_times, times)


@PROPERTY
@given(st.lists(st.one_of(
    st.integers(-2, 12), st.booleans(), st.integers(2**64, 2**64 + 3),
    st.builds(Atom, st.integers(0, 12)),
), max_size=6))
def test_drawn_sequences_check_as_the_per_time_oracle(times):
    # sorted half the time, so that valid sequences are drawn too
    times = sorted(times) if len(times) % 2 else times
    assert outcome(lambda t: RigiditySequence(tuple(t)).times, times) == \
        outcome(oracle_times, times)


@pytest.mark.parametrize(
    "space, perm",
    [(WEIGHTED, [1, 0, 2]), (WEIGHTED, [0, 2, 1]), (WEIGHTED, [2, 1, 0]),
     (WEIGHTED, [0, 1, 2]), (WEIGHTED, [0, 0, 2]), (SPACE5, [4, 3, 2, 1, 0]),
     (SPACE5, [0, 1, 2, 3]), (PAIR, [0, 1.0]), (PAIR, [0.0, 1]), (PAIR, [False, True]),
     (WEIGHTED, [0, 1.0, 2])],
    ids=["moves-0", "moves-1", "preserving", "identity", "repeat", "uniform", "short",
         "uniform-float", "uniform-float-first", "uniform-bools", "weighted-float"],
)
def test_single_perm_checks_as_the_per_atom_oracle(space, perm):
    assert outcome(lambda p: Automorphism(space, tuple(p)).perm, perm) == \
        outcome(lambda p: oracle_perm(space, p), perm)


SECTIONS = {
    "spaces": {"u": {"uniform": 5}, "w": {"weights": ["1/4", "1/2", "1/4"]}},
    "automorphisms": {"s": {"space": "w", "perm": [2, 1, 0]}},
    "sets": {"a": {"space": "u", "atoms": [0, 3]}},
    "sequences": {"t": [1, 2, 4]},
}


@pytest.mark.parametrize(
    "section, name, key, bad, message",
    [
        ("automorphisms", "s", "perm", [1, 0, 2],
         "automorphisms.s.perm: atom 0 (weight 1/4) maps to atom 1 of different weight 1/2"),
        ("automorphisms", "s", "perm", [0, 2, 1],
         "automorphisms.s.perm: atom 1 (weight 1/2) maps to atom 2 of different weight 1/4"),
        ("automorphisms", "s", "perm", [0, True, 2],
         "automorphisms.s.perm: expected a nonempty list of ints"),
        ("automorphisms", "s", "perm", [],
         "automorphisms.s.perm: expected a nonempty list of ints"),
        ("automorphisms", "s", "perm", [0, 1],
         "automorphisms.s.perm: not a permutation of 0..2: (0, 1)"),
        ("sets", "a", "atoms", [0, True], "sets.a.atoms: expected a list of ints"),
        ("sets", "a", "atoms", [1.0], "sets.a.atoms: expected a list of ints"),
        ("sets", "a", "atoms", [0, -1], "sets.a.atoms: atom -1 outside the space"),
        ("sets", "a", "atoms", [5], "sets.a.atoms: atom 5 outside the space"),
        ("sequences", "t", None, [],
         "sequences.t: rigidity sequence must be nonempty"),
        ("sequences", "t", None, [0, 1],
         "sequences.t: times must be strictly increasing positive ints, got (0, 1)"),
        ("sequences", "t", None, [2, 2],
         "sequences.t: times must be strictly increasing positive ints, got (2, 2)"),
        ("sequences", "t", None, [1, True],
         "sequences.t: times must be strictly increasing positive ints, got (1, True)"),
    ],
    ids=["perm-weight-0", "perm-weight-1", "perm-bool", "perm-empty", "perm-short",
         "set-bool", "set-float", "set-negative", "set-range", "seq-empty", "seq-zero",
         "seq-repeat", "seq-bool"],
)
def test_bad_config_entry_message(section, name, key, bad, message):
    doc = json.loads(json.dumps(SECTIONS))
    if key is None:
        doc[section][name] = bad
    else:
        doc[section][name][key] = bad
    assert outcome(parse_config, doc) == (InvalidInputError, message)


def test_valid_sections_build_the_validated_objects():
    cfg = parse_config(SECTIONS)
    assert cfg.automorphisms["s"] == Automorphism(cfg.spaces["w"], (2, 1, 0))
    assert type(cfg.automorphisms["s"].perm) is tuple
    assert cfg.sets["a"] == MeasurableSet(cfg.spaces["u"], frozenset({0, 3}))
    assert cfg.sequences["t"] == RigiditySequence((1, 2, 4))
