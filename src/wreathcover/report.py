"""Deterministic report rendering: same inputs, byte-identical output.

The canonical form of a report is
``json.dumps(report, sort_keys=True, indent=2, separators=(",", ": "))``
plus a newline.  ``to_json`` writes exactly those bytes with its own small
recursive writer, because CPython 3.11's C encoder does not handle
``indent``: any indented ``json.dumps`` falls back to the generator-based
pure-Python encoder.  Strings and keys still go through the C-accelerated
``encode_basestring_ascii``.
"""

from __future__ import annotations

from json.encoder import INFINITY, encode_basestring_ascii as _quote


def to_json(report: dict) -> str:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    return _encode(report, "\n") + "\n"


def _encode(obj, newline: str) -> str:
    """``obj`` as indented JSON whose closing bracket follows ``newline``
    (a newline and the current indent)."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj in (INFINITY, -INFINITY):
            return "Infinity" if obj > 0 else "-Infinity"
        return float.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_encode(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # _quote raises TypeError on a key that is not a str
        items = [_quote(key) + ": " + _encode(obj[key], inner) for key in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def render_human(report: dict) -> str:
    """A compact human-readable rendering of a report dict."""
    lines: list[str] = []

    def walk(obj, prefix: str) -> None:
        if isinstance(obj, dict):
            for key in sorted(obj):
                walk(obj[key], f"{prefix}{key}.")
        elif isinstance(obj, list):
            if all(not isinstance(x, (dict, list)) for x in obj):
                lines.append(f"{prefix[:-1]}: {', '.join(str(x) for x in obj)}")
            else:
                for i, x in enumerate(obj):
                    walk(x, f"{prefix}{i}.")
        else:
            lines.append(f"{prefix[:-1]}: {obj}")

    walk(report, "")
    return "\n".join(lines) + "\n"
