"""Canonical JSON reports.

Reports are rendered with sorted keys, two-space indentation, and a
trailing newline, with every rational as an explicit "p/q" string, so a
repeated run over identical inputs is byte-identical.  Wall-clock timing
never belongs in a report; the command line prints it to stderr.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from fractions import Fraction

from .rationals import format_rational

# CPython's builtin SHA-256, as `random` takes `_sha512`: importing
# `hashlib` loads OpenSSL, the largest leaf of a cold start, to hash a
# few KB of arguments and input bytes.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256


def jsonable(value):
    """Recursively convert a report payload to plain JSON types.

    Fractions become "p/q" strings; tuples become lists.  Floats are
    refused so no inexact number can leak into a report."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing to put a float in a report: {value!r}")
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            out[key] = jsonable(item)
        return out
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def input_digest(argv: Sequence[str], config_bytes: bytes = b"") -> str:
    """Hex digest identifying one invocation: the argument vector plus the
    raw bytes of every file input, in order."""
    h = sha256()
    for arg in argv:
        h.update(arg.encode("utf-8"))
        h.update(b"\x00")
    h.update(b"\x01")
    h.update(config_bytes)
    return h.hexdigest()


def render_report(payload: dict) -> str:
    return json.dumps(jsonable(payload), sort_keys=True, indent=2) + "\n"
