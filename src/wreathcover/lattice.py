"""Complete subgroup-lattice enumeration up to conjugacy.

Strategy: seed with the conjugacy classes of cyclic subgroups, then close
under joins of a known class representative with one cyclic subgroup, the
cyclic factor reduced to orbit representatives under the normalizer of the
representative.  Every non-cyclic subgroup H equals <K, c> for a maximal
subgroup K < H and any cyclic c not inside K, so the fixpoint is complete.
Joins whose closure grows past the largest proper divisor of |G| must be the
whole group and are aborted early.

The cyclic seeds cost no closures: one table of powers x^k over all of G
(one batched product per k below the largest element order) gives every
<x> at once.  Closures and conjugation orbits go level by level, one
batched id product or map gather per breadth-first level, and membership
tests against a representative use a boolean mask over G.

Feasible to group order ~10^4, which covers M11 (order 7920).  Results are
cached on disk keyed by the group's canonical hash.  A cache file is used
only if its hash and order match and every stored representative's members
are exactly the closure of its stored generators; anything else (an
unreadable file, a missing key, a malformed or truncated entry) is a miss,
and the lattice is enumerated again and the file rewritten.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .formulas import divisors, smallest_prime_factor
from .groups import (
    GroupTable,
    SubgroupClass,
    SubgroupHandle,
    _reduce_generators,
    conjugation_orbit,
    member_mask,
    normalizer,
    orbit_class,
    subgroup_closure,
    subgroup_from_set,
)

DEFAULT_ORDER_CAP = 10**4


class LatticeCapError(RuntimeError):
    """Group order exceeds the subgroup-enumeration cap."""


def all_subgroup_classes(
    g: GroupTable,
    cap: int = DEFAULT_ORDER_CAP,
    cache_dir: str | os.PathLike | None = None,
) -> list[SubgroupClass]:
    """Every subgroup of g up to conjugacy, complete and duplicate-free.

    Classes are sorted by (order, canonical key); the trivial subgroup and g
    itself are included.
    """
    if g.order > cap:
        raise LatticeCapError(f"group order {g.order} exceeds lattice cap {cap}")

    cached = _cache_load(g, cache_dir)
    if cached is not None:
        return cached

    classes = _enumerate_classes(g)
    _cache_store(g, classes, cache_dir)
    return classes


def _enumerate_classes(g: GroupTable) -> list[SubgroupClass]:
    classes: list[SubgroupClass] = []
    known: set[bytes] = set()  # the key of every conjugate of every class

    def register(h: SubgroupHandle) -> SubgroupClass:
        cls = orbit_class(g, h)
        known.update(c.canonical_key for c in cls.conjugates)
        classes.append(cls)
        return cls

    register(subgroup_from_set(g, [0], verify=False))

    # seed: cyclic subgroup classes; <x> is read off a table of powers,
    # one block of rows per element order, in order of (order, id).  An
    # element of degree <= 16 has order <= 140, which bounds the table.
    orders = g.element_orders()
    all_ids = np.arange(g.order, dtype=np.int64)
    powers = [np.zeros(g.order, dtype=np.int64)]  # powers[k][x] = x^k
    for _ in range(1, int(orders.max())):
        powers.append(g.mul_many(powers[-1], all_ids))
    powers = np.stack(powers)
    cyclic_classes: list[SubgroupClass] = []
    for n in np.unique(orders[1:]).tolist():
        xs = np.flatnonzero(orders == n)
        rows = np.sort(powers[:n, xs].T, axis=1)
        buf, width = rows.tobytes(), n * rows.itemsize
        for i, x in enumerate(xs.tolist()):
            if buf[i * width : (i + 1) * width] not in known:
                cyclic_classes.append(register(SubgroupHandle(g, rows[i], (x,))))

    order_divisors = divisors(g.order)
    max_proper = g.order // smallest_prime_factor(g.order) if g.order > 1 else 1

    for cls in classes:  # the list grows as joins find new classes
        rep = cls.representative
        if rep.size in (1, g.order):
            continue
        norm_gens = [x for x in _reduce_generators(g, normalizer(g, rep)) if x != 0]
        inside = member_mask(g, rep.member_ids)
        for cyc_cls in cyclic_classes:
            if cyc_cls.order == g.order:
                continue
            for cyc in _orbit_reps(g, cyc_cls, norm_gens):
                inter = int(np.count_nonzero(inside[cyc.member_ids]))
                if inter == cyc.size:
                    continue  # cyc lies inside rep
                if not _join_could_be_proper(
                    rep.size, cyc.size, inter, order_divisors, max_proper
                ):
                    continue
                joined = subgroup_closure(
                    g,
                    list(rep.generators) + list(cyc.generators),
                    abort_above=max_proper,
                )
                if joined is None:
                    continue  # join is the whole group
                if joined.canonical_key not in known:
                    register(joined)

    whole = SubgroupHandle(
        g, np.arange(g.order, dtype=np.int64), tuple(g.generator_ids)
    )
    if whole.canonical_key not in known:
        register(whole)

    return sorted(classes, key=lambda c: (c.order, c.conjugates[0].canonical_key))


def _orbit_reps(g: GroupTable, cyc_cls: SubgroupClass, elements: list[int]):
    """One representative per orbit of conjugation by ``elements`` on the
    subgroups of a class; deterministic (min canonical key first)."""
    reps = []
    visited: set[bytes] = set()
    for h in cyc_cls.conjugates:
        if h.canonical_key in visited:
            continue
        reps.append(h)
        visited.update(conjugation_orbit(g, h.member_ids, elements).keys)
    return reps


def _join_could_be_proper(
    h_size: int,
    c_size: int,
    inter: int,
    divisors: list[int],
    max_proper: int,
) -> bool:
    """Cheap Lagrange screen: the join of H and C, with |H∩C| = ``inter``,
    has an order that is a multiple of |H| and |C|, at least |H|*|C|/|H∩C|,
    and divides |G|; skip the closure if that forces it past the largest
    proper divisor."""
    lower = h_size * c_size // max(inter, 1)
    for d in divisors:
        if d > max_proper:
            break
        if d >= lower and d % h_size == 0 and d % c_size == 0:
            return True
    return False


def maximal_classes_from_lattice(
    g: GroupTable, classes: list[SubgroupClass]
) -> list[SubgroupClass]:
    """The maximal-subgroup classes: proper classes contained in no larger
    proper subgroup (checked against every conjugate)."""
    proper = [c for c in classes if c.order < g.order]
    stacked = [np.stack([h.member_ids for h in c.conjugates]) for c in proper]
    out = []
    for c in proper:
        inside = member_mask(g, c.representative.member_ids)
        # a conjugate of a larger class holds the representative when it
        # meets it in |rep| elements
        if not any(
            other.order > c.order
            and other.order % c.order == 0
            and (np.count_nonzero(inside[conjugates], axis=1) == c.order).any()
            for other, conjugates in zip(proper, stacked)
        ):
            out.append(c)
    return out


# -- disk cache -----------------------------------------------------------


def cache_directory(cache_dir: str | os.PathLike | None = None) -> Path:
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get("WREATHCOVER_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "wreathcover"


def _cache_path(g: GroupTable, cache_dir) -> Path:
    return cache_directory(cache_dir) / f"lattice-{g.canonical_hash()}.json"


def _cache_load(g: GroupTable, cache_dir) -> list[SubgroupClass] | None:
    path = _cache_path(g, cache_dir)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if data["group_hash"] != g.canonical_hash() or data["order"] != g.order:
            return None
        reps = [
            SubgroupHandle(
                g, np.array(entry["members"], dtype=np.int64), tuple(entry["generators"])
            )
            for entry in data["classes"]
        ]
        for h in reps:
            if not np.array_equal(subgroup_closure(g, h.generators).member_ids, h.member_ids):
                return None
    except (OSError, LookupError, TypeError, ValueError):
        # json's decode error is a ValueError
        return None
    classes = [orbit_class(g, h) for h in reps]
    classes.sort(key=lambda c: (c.order, c.conjugates[0].canonical_key))
    return classes


def _cache_store(g: GroupTable, classes: list[SubgroupClass], cache_dir) -> None:
    path = _cache_path(g, cache_dir)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "group_hash": g.canonical_hash(),
            "order": g.order,
            "classes": [
                {
                    "members": c.representative.member_ids.tolist(),
                    "generators": list(c.representative.generators),
                }
                for c in classes
            ],
        }
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except OSError:
        pass
