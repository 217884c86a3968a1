"""Named-object configuration files for the command line tools.

A config is a JSON object with optional sections; every section maps
names to definitions, and later sections may refer to earlier ones:

    {
      "spaces": {"pair": {"uniform": 2}, "skewed": {"weights": ["1/3", "2/3"]}},
      "automorphisms": {"swap": {"space": "pair", "perm": [1, 0]}},
      "actions": {"flip": {"space": "pair", "perms": [[1, 0]]}},
      "cocycles": {"demo": {"base_map": "swap", "fiber": "pair",
                            "maps": [[1, 0], [0, 1]]}},
      "sets": {"top": {"space": "pair", "atoms": [0]}},
      "sequences": {"times": [1, 2, 4]},
      "objectives": {"corner": {"entries": [[[0, 0], "1/1"]]}}
    }

Malformed input raises InvalidInputError naming the offending field.

Every config object is checked at once rather than entry by entry:

- the maps of ``automorphisms.*.perm``, ``actions.*.perms`` and
  ``cocycles.*.maps`` (one fiber map per base atom in a cocycle): the
  entry types and the element types as sets of types, each map sorted
  against ``range(n)`` (which also fixes its length), and, on a weighted
  space, weight preservation as one comparison of the images' numerators
  with the numerators repeated; on a uniform space every permutation
  preserves weights.  The maps are then built unvalidated.
- the atoms of ``sets.*.atoms``, by ``MeasurableSet``: the set of their
  types, then their ``min``, then their ``max``.
- the times of ``sequences.*``, by ``RigiditySequence``: the set of their
  types, the first time positive, then each less than the next.  Its one
  message names the whole sequence, so no entry is checked again.

When a test on maps or set atoms fails, the entries are checked one by
one, maps through the validating ``Automorphism``, so the error names the
first bad entry with the same message as a per-entry parse.
"""

from __future__ import annotations

import re
from itertools import chain, repeat

from .errors import InvalidInputError, Value, naming
from .serialize import _check_keys, _parse_weights, parse_json, read_bytes
from .skew import RigiditySequence, SkewProduct
from .spaces import (
    ActionGenerators,
    Automorphism,
    FiniteSpace,
    MeasurableSet,
)
from .rationals import parse_rational

_NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")

_SECTIONS = (
    "spaces",
    "automorphisms",
    "actions",
    "cocycles",
    "sets",
    "sequences",
    "objectives",
)


class Config(Value):
    """All named objects defined by one config file, one dict per section,
    as ``parse_config`` builds them."""

    __slots__ = _fields = _SECTIONS

    def lookup(self, section: str, name: str):
        return _find(getattr(self, section), section[:-1], name)


def _find(table: dict, kind: str, name):
    if not isinstance(name, str) or name not in table:
        known = ", ".join(sorted(table)) or "none defined"
        raise InvalidInputError(f"unknown {kind} {name!r} (config has: {known})")
    return table[name]


def _section(data: dict, key: str) -> dict:
    raw = data.get(key, {})
    if not isinstance(raw, dict):
        raise InvalidInputError(f"{key}: expected an object of named entries")
    for name in raw:
        if not isinstance(name, str) or not _NAME.fullmatch(name):
            raise InvalidInputError(
                f"{key}: invalid name {name!r} (letters, digits, '_', '.', '-')"
            )
    return raw


def _build_automorphism(space: FiniteSpace, raw, path: str) -> Automorphism:
    """The automorphism of ``space`` given by ``raw``, the list at ``path``:
    built unvalidated once ``_bulk_valid`` passes, otherwise through the
    validating constructor, so a bad entry is named."""
    if _bulk_valid(space, [raw]):
        return Automorphism._trusted(space, tuple(raw))
    with naming(path):
        if (
            not isinstance(raw, list)
            or not raw
            or any(not isinstance(p, int) or isinstance(p, bool) for p in raw)
        ):
            raise InvalidInputError("expected a nonempty list of ints")
        return Automorphism(space, tuple(raw))


def _bulk_valid(space: FiniteSpace, raws: list) -> bool:
    """Whether every entry of ``raws`` is a list of plain ints that permutes
    ``space``'s atoms and preserves their weights, tested at once: the
    entry types and the element types as sets of types, each entry sorted
    against ``range(n)``, and, unless the space is uniform, the images'
    numerators against the numerators repeated, in one comparison."""
    nums = space.numerators
    return (
        {*map(type, raws)} == {list}
        and {*map(type, chain.from_iterable(raws))} == {int}
        and all(map(list(range(len(nums))).__eq__, map(sorted, raws)))
        and (
            space.denominator == len(nums)
            or list(map(nums.__getitem__, chain.from_iterable(raws)))
            == list(nums) * len(raws)
        )
    )


def _build_automorphisms(space: FiniteSpace, raws: list, path: str) -> tuple:
    """One automorphism of ``space`` per entry of ``raws``, the list at
    ``path``, built unvalidated once ``_bulk_valid`` passes; otherwise the
    entries are built one by one, so the first bad one is named."""
    if _bulk_valid(space, raws):
        return tuple(map(Automorphism._trusted, repeat(space), map(tuple, raws)))
    return tuple(
        _build_automorphism(space, raw, f"{path}[{i}]") for i, raw in enumerate(raws)
    )


def parse_config(data, origin: str = "config") -> Config:
    if not isinstance(data, dict):
        raise InvalidInputError(f"{origin}: expected a JSON object")
    extra = set(data) - set(_SECTIONS)
    if extra:
        raise InvalidInputError(f"{origin}: unknown sections {sorted(extra)}")

    spaces: dict[str, FiniteSpace] = {}
    for name, raw in _section(data, "spaces").items():
        path = f"spaces.{name}"
        _check_keys(raw, path, (), ("uniform", "weights"))
        if ("uniform" in raw) == ("weights" in raw):
            raise InvalidInputError(f"{path}: give exactly one of uniform, weights")
        if "uniform" in raw:
            with naming(f"{path}.uniform"):
                spaces[name] = FiniteSpace.uniform(raw["uniform"])
        else:
            spaces[name] = _parse_weights(raw["weights"], f"{path}.weights")

    def space_ref(raw, path: str) -> FiniteSpace:
        with naming(path):
            return _find(spaces, "space", raw)

    automorphisms: dict[str, Automorphism] = {}
    for name, raw in _section(data, "automorphisms").items():
        path = f"automorphisms.{name}"
        _check_keys(raw, path, ("space", "perm"))
        space = space_ref(raw["space"], f"{path}.space")
        automorphisms[name] = _build_automorphism(space, raw["perm"], f"{path}.perm")

    actions: dict[str, ActionGenerators] = {}
    for name, raw in _section(data, "actions").items():
        path = f"actions.{name}"
        _check_keys(raw, path, ("space", "perms"))
        space = space_ref(raw["space"], f"{path}.space")
        if not isinstance(raw["perms"], list) or not raw["perms"]:
            raise InvalidInputError(f"{path}.perms: expected a nonempty list")
        gens = _build_automorphisms(space, raw["perms"], f"{path}.perms")
        actions[name] = ActionGenerators(space, gens)

    cocycles: dict[str, SkewProduct] = {}
    for name, raw in _section(data, "cocycles").items():
        path = f"cocycles.{name}"
        _check_keys(raw, path, ("base_map", "fiber", "maps"))
        with naming(f"{path}.base_map"):
            base_map = _find(automorphisms, "automorphism", raw["base_map"])
        fiber = space_ref(raw["fiber"], f"{path}.fiber")
        if not isinstance(raw["maps"], list):
            raise InvalidInputError(f"{path}.maps: expected a list")
        if len(raw["maps"]) != base_map.space.atom_count:
            raise InvalidInputError(
                f"{path}.maps: need one fiber permutation per base atom "
                f"({base_map.space.atom_count}), got {len(raw['maps'])}"
            )
        maps = _build_automorphisms(fiber, raw["maps"], f"{path}.maps")
        cocycles[name] = SkewProduct(base_map.space, fiber, base_map, maps)

    sets: dict[str, MeasurableSet] = {}
    for name, raw in _section(data, "sets").items():
        path = f"sets.{name}"
        _check_keys(raw, path, ("space", "atoms"))
        space = space_ref(raw["space"], f"{path}.space")
        atoms = raw["atoms"]
        with naming(f"{path}.atoms"):
            # bool is a type of its own, so the set test refuses true/false
            if not isinstance(atoms, list) or not {*map(type, atoms)} <= {int}:
                raise InvalidInputError("expected a list of ints")
            sets[name] = MeasurableSet(space, frozenset(atoms))

    sequences: dict[str, RigiditySequence] = {}
    for name, raw in _section(data, "sequences").items():
        with naming(f"sequences.{name}"):
            if not isinstance(raw, list):
                raise InvalidInputError("expected a list of ints")
            sequences[name] = RigiditySequence(tuple(raw))

    objectives: dict[str, tuple] = {}
    for name, raw in _section(data, "objectives").items():
        path = f"objectives.{name}"
        _check_keys(raw, path, ("entries",))
        if not isinstance(raw["entries"], list) or not raw["entries"]:
            raise InvalidInputError(f"{path}.entries: expected a nonempty list")
        pairs = []
        seen = set()
        for i, pair in enumerate(raw["entries"]):
            with naming(f"{path}.entries[{i}]"):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise InvalidInputError("expected [index tuple, rational]")
                tup, value = pair
                if not isinstance(tup, list) or any(
                    not isinstance(t, int) or isinstance(t, bool) or t < 0
                    for t in tup
                ):
                    raise InvalidInputError("index must be a list of nonnegative ints")
                key = tuple(tup)
                if key in seen:
                    raise InvalidInputError(f"duplicate index {key}")
                seen.add(key)
                pairs.append((key, parse_rational(value)))
        objectives[name] = tuple(pairs)

    return Config(
        spaces, automorphisms, actions, cocycles, sets, sequences, objectives
    )


def load_config(path: str) -> tuple[Config, bytes]:
    """The validated config in the file at ``path``, and the bytes read,
    which a report's digest covers."""
    blob = read_bytes(path)
    return parse_config(parse_json(blob, path), origin=path), blob
