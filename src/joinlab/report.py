"""Canonical JSON reports.

Reports are rendered with sorted keys, two-space indentation, and a
trailing newline, with every rational as an explicit "p/q" string, so a
repeated run over identical inputs is byte-identical.  Wall-clock timing
never belongs in a report; the command line prints it to stderr.

``render_report`` writes the text in one recursive pass.  The bytes are
those of ``json.dumps(payload, sort_keys=True, indent=2)`` over the
payload with Fractions as "p/q" strings and tuples as lists: keys and
strings go through ``encode_basestring_ascii``, the C escaper that
``json.encoder`` re-exports for ``ensure_ascii``, ints through
``int.__repr__``, and items are joined by ``,`` and a newline indented
two spaces per level.  With an indent, CPython's ``json.dumps`` leaves
its C encoder for the pure-Python ``_iterencode``, a generator step per
item, after a pass that converts the payload to plain JSON types; here a
list of plain ints, the bulk of a ``sample`` report, is one ``str.join``.
Floats are refused so no inexact number can leak into a report.  A dict's
items are written in insertion order and then sorted, so the error names
the first bad value or key in payload order.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .rationals import format_rational

# taken from `_json` itself: importing `json` would load its decoder,
# scanner and encoder for one C function
try:
    from _json import encode_basestring_ascii as _quote
except ImportError:
    from json.encoder import encode_basestring_ascii as _quote

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


def _write(value, pad: str) -> str:
    """``value`` as report JSON, with ``pad`` the indent of its own line."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, Fraction):
        return f'"{format_rational(value)}"'
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        raise TypeError(f"refusing to put a float in a report: {value!r}")
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        if {*map(type, value)} == {int}:
            items = map(int.__repr__, value)
        else:
            items = [_write(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        entries = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            entries.append((key, _write(item, inner)))
        entries.sort()
        items = [_quote(key) + ": " + text for key, text in entries]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
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
    return _write(payload, "") + "\n"
