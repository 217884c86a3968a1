"""Config parsing: the happy path and every class of malformed input, with
error messages naming the offending field."""

from fractions import Fraction

import pytest

from joinlab.config import Config, load_config, parse_config
from joinlab.errors import InvalidInputError, ResourceLimitError
from joinlab.polytope import SIZE_CAP


def full_config_data():
    return {
        "spaces": {
            "pair": {"uniform": 2},
            "skewed": {"weights": ["1/3", "2/3"]},
        },
        "automorphisms": {"swap": {"space": "pair", "perm": [1, 0]}},
        "actions": {"flip": {"space": "pair", "perms": [[1, 0]]}},
        "cocycles": {
            "demo": {"base_map": "swap", "fiber": "pair", "maps": [[1, 0], [0, 1]]}
        },
        "sets": {"top": {"space": "pair", "atoms": [0]}},
        "sequences": {"times": [1, 2, 4]},
        "objectives": {"corner": {"entries": [[[0, 0], "1/1"]]}},
    }


def test_happy_path():
    cfg = parse_config(full_config_data())
    assert cfg.spaces["pair"].atom_count == 2
    assert cfg.spaces["skewed"].weights == (Fraction(1, 3), Fraction(2, 3))
    assert cfg.automorphisms["swap"].perm == (1, 0)
    assert cfg.actions["flip"].generators[0].perm == (1, 0)
    demo = cfg.cocycles["demo"]
    assert demo.base_map.perm == (1, 0)
    assert demo.cocycle[0].perm == (1, 0)
    assert cfg.sets["top"].atoms == frozenset({0})
    assert cfg.sequences["times"].times == (1, 2, 4)
    assert cfg.objectives["corner"] == (((0, 0), Fraction(1)),)


def test_empty_config_is_fine():
    cfg = parse_config({})
    assert isinstance(cfg, Config)
    assert cfg.spaces == {}


def test_lookup_names_known_entries():
    cfg = parse_config(full_config_data())
    assert cfg.lookup("spaces", "pair").atom_count == 2
    with pytest.raises(InvalidInputError) as err:
        cfg.lookup("automorphisms", "missing")
    msg = str(err.value)
    assert "unknown automorphism 'missing'" in msg
    assert "swap" in msg


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(extra_section={}), "extra_section"),
        (lambda d: d.update(spaces={"bad name!": {"uniform": 2}}), "invalid name"),
        # a `$` anchor would also match just before a final newline
        (lambda d: d.update(spaces={"b\n": {"uniform": 2}}), "invalid name 'b\\n'"),
        (
            lambda d: d.update(spaces={"x" * 64 + "\n": {"uniform": 2}}),
            "spaces: invalid name",
        ),
        (lambda d: d.update(spaces={"p": {}}), "spaces.p"),
        (
            lambda d: d.update(spaces={"p": {"uniform": 2, "weights": ["1/1"]}}),
            "exactly one",
        ),
        (lambda d: d.update(spaces={"p": {"uniform": 0}}), "spaces.p.uniform"),
        (lambda d: d.update(spaces={"p": {"uniform": True}}), "spaces.p.uniform"),
        (
            lambda d: d.update(spaces={"p": {"weights": ["1/2"]}}),
            "spaces.p.weights",
        ),
        (
            lambda d: d.update(
                automorphisms={"a": {"space": "nowhere", "perm": [0]}}
            ),
            "automorphisms.a.space",
        ),
        (
            lambda d: d.update(
                automorphisms={"a": {"space": "pair", "perm": [0, 0]}}
            ),
            "automorphisms.a.perm",
        ),
        (
            lambda d: d.update(
                automorphisms={"a": {"space": "skewed", "perm": [1, 0]}}
            ),
            "automorphisms.a.perm",
        ),
        (lambda d: d.update(actions={"f": {"space": "pair", "perms": []}}), "actions.f.perms"),
        (
            lambda d: d.update(
                cocycles={"c": {"base_map": "nope", "fiber": "pair", "maps": []}}
            ),
            "cocycles.c.base_map",
        ),
        (
            lambda d: d.update(
                cocycles={
                    "c": {"base_map": "swap", "fiber": "pair", "maps": [[1, 0]]}
                }
            ),
            "cocycles.c.maps",
        ),
        (lambda d: d.update(sets={"s": {"space": "pair", "atoms": [0, 5]}}), "sets.s.atoms"),
        (lambda d: d.update(sets={"s": {"space": "pair", "atoms": [True]}}), "sets.s.atoms"),
        (lambda d: d.update(sequences={"t": [3, 1]}), "sequences.t"),
        (lambda d: d.update(sequences={"t": "nope"}), "sequences.t"),
        # JSON true would otherwise run as time 1 and echo as true in reports
        (
            lambda d: d.update(sequences={"t": [True, 2]}),
            "sequences.t: times must be strictly increasing positive ints",
        ),
        (
            lambda d: d.update(objectives={"o": {"entries": []}}),
            "objectives.o.entries",
        ),
        (
            lambda d: d.update(
                objectives={"o": {"entries": [[[0], "1/2"], [[0], "1/3"]]}}
            ),
            "duplicate",
        ),
        (
            lambda d: d.update(objectives={"o": {"entries": [[[0], "0.5"]]}}),
            "objectives.o.entries[0]",
        ),
        (
            lambda d: d.update(objectives={"o": {"entries": [[[-1], "1/2"]]}}),
            "objectives.o.entries[0]",
        ),
    ],
)
def test_malformed_configs(mutate, fragment):
    data = full_config_data()
    mutate(data)
    with pytest.raises(InvalidInputError) as err:
        parse_config(data)
    assert fragment in str(err.value)


def test_longest_name_accepted():
    name = "x" * 64
    assert parse_config({"spaces": {name: {"uniform": 2}}}).spaces[name].atom_count == 2


def test_non_object_rejected():
    with pytest.raises(InvalidInputError):
        parse_config([1, 2])


def test_load_config_from_file(tmp_path):
    import json

    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(full_config_data()))
    cfg, blob = load_config(str(p))
    assert cfg.spaces["pair"].atom_count == 2
    assert blob == p.read_bytes()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidInputError, match=r"bad\.json is not valid JSON"):
        load_config(str(bad))
    with pytest.raises(InvalidInputError, match="^cannot read .*absent.json"):
        load_config(str(tmp_path / "absent.json"))


def test_uniform_space_over_cap_rejected_before_building():
    # 10**12 Fractions would exhaust memory; the cap must fire first
    with pytest.raises(ResourceLimitError, match=r"spaces\.huge\.uniform"):
        parse_config({"spaces": {"huge": {"uniform": 10**12}}})
    cfg = parse_config({"spaces": {"edge": {"uniform": SIZE_CAP}}})
    assert cfg.spaces["edge"].atom_count == SIZE_CAP

