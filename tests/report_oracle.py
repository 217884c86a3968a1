"""The report renderer before it wrote JSON in one pass, kept verbatim as
an oracle: ``jsonable`` converts the payload to plain JSON types, and
``json.dumps`` with sorted keys and a two-space indent renders it."""

import json
from fractions import Fraction

from joinlab.rationals import format_rational


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


def render_report(payload: dict) -> str:
    return json.dumps(jsonable(payload), sort_keys=True, indent=2) + "\n"
