"""Permutations at the I/O boundary.

A ``Perm`` is a validated image table: spec files and catalog generators
are parsed into it, ``GroupTable`` enumerates groups from it, and reports
print it.  Points are 0-indexed internally.  Cycle notation at the
boundary is 1-indexed with fixed points omitted, e.g. ``"(1 2 3)(4 5)"``.

All group arithmetic (products, inverses, element orders, cycle types)
happens on id arrays in ``groups``; ``Perm`` has none of it.
"""

from __future__ import annotations

import re
from typing import Iterable


class DegreeMismatchError(ValueError):
    """Operands act on point sets of different sizes."""


class Perm:
    """An immutable permutation stored as its image table."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(int(x) for x in images)
        n = len(imgs)
        if n < 1:
            raise ValueError("degree must be at least 1")
        if sorted(imgs) != list(range(n)):
            raise ValueError(f"images {imgs} are not a bijection on 0..{n - 1}")
        object.__setattr__(self, "images", imgs)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def from_cycles(cls, text: str, degree: int) -> "Perm":
        """Parse 1-indexed cycle notation, e.g. ``"(1 2 3)(4 5)"``."""
        return cls(_parse_cycle_images(text, degree))

    def cycles(self) -> list[tuple[int, ...]]:
        """The nontrivial disjoint cycles, each rotated to start at its
        minimum, sorted."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def to_cycle_string(self) -> str:
        """1-indexed cycle notation; identity prints as ``"()"``."""
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm[{self.to_cycle_string()}]"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_cycle_images(text: str, degree: int) -> list[int]:
    stripped = text.strip()
    if stripped in ("", "()"):
        return list(range(degree))
    consumed = _CYCLE_RE.sub("", stripped)
    if consumed.strip():
        raise ValueError(f"malformed cycle notation: {text!r}")
    images = list(range(degree))
    seen: set[int] = set()
    for body in _CYCLE_RE.findall(stripped):
        pts = [int(tok) for tok in body.split()]
        if not pts:
            continue
        for p in pts:
            if not 1 <= p <= degree:
                raise ValueError(f"point {p} out of range 1..{degree} in {text!r}")
            if p - 1 in seen:
                raise ValueError(f"point {p} repeated in {text!r}")
            seen.add(p - 1)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a - 1] = b - 1
    return images
