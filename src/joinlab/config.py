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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import InvalidInputError, ResourceLimitError
from .serialize import _check_keys, _parse_weights, load_json_file
from .skew import RigiditySequence, SkewProduct
from .spaces import (
    ActionGenerators,
    Automorphism,
    FiniteSpace,
    MeasurableSet,
)
from .rationals import parse_rational

_NAME = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")

_SECTIONS = (
    "spaces",
    "automorphisms",
    "actions",
    "cocycles",
    "sets",
    "sequences",
    "objectives",
)


@dataclass(frozen=True)
class Config:
    """All named objects defined by one config file."""

    spaces: dict = field(default_factory=dict)
    automorphisms: dict = field(default_factory=dict)
    actions: dict = field(default_factory=dict)
    cocycles: dict = field(default_factory=dict)
    sets: dict = field(default_factory=dict)
    sequences: dict = field(default_factory=dict)
    objectives: dict = field(default_factory=dict)

    def lookup(self, section: str, name: str):
        table = getattr(self, section)
        if name not in table:
            known = ", ".join(sorted(table)) or "none defined"
            raise InvalidInputError(
                f"unknown {section[:-1]} '{name}' (config has: {known})"
            )
        return table[name]


def _section(data: dict, key: str) -> dict:
    raw = data.get(key, {})
    if not isinstance(raw, dict):
        raise InvalidInputError(f"{key}: expected an object of named entries")
    for name in raw:
        if not isinstance(name, str) or not _NAME.match(name):
            raise InvalidInputError(
                f"{key}: invalid name {name!r} (letters, digits, '_', '.', '-')"
            )
    return raw


def _parse_perm(raw, path: str) -> tuple[int, ...]:
    if (
        not isinstance(raw, list)
        or not raw
        or any(not isinstance(p, int) or isinstance(p, bool) for p in raw)
    ):
        raise InvalidInputError(f"{path}: expected a nonempty list of ints")
    return tuple(raw)


def _build_automorphism(space: FiniteSpace, raw_perm, path: str) -> Automorphism:
    perm = _parse_perm(raw_perm, path)
    try:
        return Automorphism(space, perm)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


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
            n = raw["uniform"]
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise InvalidInputError(
                    f"{path}.uniform: expected a positive int, got {n!r}"
                )
            try:
                spaces[name] = FiniteSpace.uniform(n)
            except ResourceLimitError as exc:
                raise ResourceLimitError(f"{path}.uniform: {exc}") from exc
        else:
            spaces[name] = _parse_weights(raw["weights"], f"{path}.weights")

    def space_ref(raw, path: str) -> FiniteSpace:
        if not isinstance(raw, str) or raw not in spaces:
            known = ", ".join(sorted(spaces)) or "none defined"
            raise InvalidInputError(
                f"{path}: unknown space {raw!r} (config has: {known})"
            )
        return spaces[raw]

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
        gens = tuple(
            _build_automorphism(space, p, f"{path}.perms[{i}]")
            for i, p in enumerate(raw["perms"])
        )
        actions[name] = ActionGenerators(space, gens)

    cocycles: dict[str, SkewProduct] = {}
    for name, raw in _section(data, "cocycles").items():
        path = f"cocycles.{name}"
        _check_keys(raw, path, ("base_map", "fiber", "maps"))
        base_name = raw["base_map"]
        if not isinstance(base_name, str) or base_name not in automorphisms:
            known = ", ".join(sorted(automorphisms)) or "none defined"
            raise InvalidInputError(
                f"{path}.base_map: unknown automorphism {base_name!r} "
                f"(config has: {known})"
            )
        base_map = automorphisms[base_name]
        fiber = space_ref(raw["fiber"], f"{path}.fiber")
        if not isinstance(raw["maps"], list):
            raise InvalidInputError(f"{path}.maps: expected a list")
        if len(raw["maps"]) != base_map.space.atom_count:
            raise InvalidInputError(
                f"{path}.maps: need one fiber permutation per base atom "
                f"({base_map.space.atom_count}), got {len(raw['maps'])}"
            )
        maps = tuple(
            _build_automorphism(fiber, p, f"{path}.maps[{i}]")
            for i, p in enumerate(raw["maps"])
        )
        cocycles[name] = SkewProduct(base_map.space, fiber, base_map, maps)

    sets: dict[str, MeasurableSet] = {}
    for name, raw in _section(data, "sets").items():
        path = f"sets.{name}"
        _check_keys(raw, path, ("space", "atoms"))
        space = space_ref(raw["space"], f"{path}.space")
        atoms = raw["atoms"]
        if not isinstance(atoms, list) or any(
            not isinstance(a, int) or isinstance(a, bool) for a in atoms
        ):
            raise InvalidInputError(f"{path}.atoms: expected a list of ints")
        try:
            sets[name] = MeasurableSet(space, frozenset(atoms))
        except InvalidInputError as exc:
            raise InvalidInputError(f"{path}.atoms: {exc}") from exc

    sequences: dict[str, RigiditySequence] = {}
    for name, raw in _section(data, "sequences").items():
        path = f"sequences.{name}"
        if not isinstance(raw, list):
            raise InvalidInputError(f"{path}: expected a list of ints")
        try:
            sequences[name] = RigiditySequence(tuple(raw))
        except InvalidInputError as exc:
            raise InvalidInputError(f"{path}: {exc}") from exc

    objectives: dict[str, tuple] = {}
    for name, raw in _section(data, "objectives").items():
        path = f"objectives.{name}"
        _check_keys(raw, path, ("entries",))
        if not isinstance(raw["entries"], list) or not raw["entries"]:
            raise InvalidInputError(f"{path}.entries: expected a nonempty list")
        pairs = []
        seen = set()
        for i, pair in enumerate(raw["entries"]):
            where = f"{path}.entries[{i}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise InvalidInputError(f"{where}: expected [index tuple, rational]")
            tup, value = pair
            if not isinstance(tup, list) or any(
                not isinstance(t, int) or isinstance(t, bool) or t < 0 for t in tup
            ):
                raise InvalidInputError(
                    f"{where}: index must be a list of nonnegative ints"
                )
            key = tuple(tup)
            if key in seen:
                raise InvalidInputError(f"{where}: duplicate index {key}")
            seen.add(key)
            try:
                coeff = parse_rational(value)
            except InvalidInputError as exc:
                raise InvalidInputError(f"{where}: {exc}") from exc
            pairs.append((key, coeff))
        objectives[name] = tuple(pairs)

    return Config(
        spaces, automorphisms, actions, cocycles, sets, sequences, objectives
    )


def load_config(path: str) -> Config:
    """Read and validate a config file."""
    return parse_config(load_json_file(path), origin=path)
