"""Complete subgroup-lattice enumeration up to conjugacy.

Strategy: seed with the conjugacy classes of cyclic subgroups, then close
under joins of a known class representative with one cyclic subgroup, the
cyclic factor reduced to orbit representatives under the normalizer of the
representative.  Every non-cyclic subgroup H equals <K, c> for a maximal
subgroup K < H and any cyclic c not inside K, so the fixpoint is complete.
Joins whose closure grows past the largest proper divisor of |G| must be the
whole group and are aborted early.

Feasible to group order ~10^4, which covers M11 (order 7920).  Results are
cached on disk keyed by the group's canonical hash; cached data is never used
without re-verifying that hash.
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

    # seed: cyclic subgroup classes
    orders = g.element_orders()
    cyclic_classes: list[SubgroupClass] = []
    for eid in np.argsort(orders, kind="stable").tolist():
        if eid == 0:
            continue
        h = subgroup_closure(g, [eid])
        if h.canonical_key not in known:
            cyclic_classes.append(register(h))

    order_divisors = divisors(g.order)
    max_proper = g.order // smallest_prime_factor(g.order) if g.order > 1 else 1

    for cls in classes:  # the list grows as joins find new classes
        rep = cls.representative
        if rep.size in (1, g.order):
            continue
        norm_gens = [x for x in _reduce_generators(g, normalizer(g, rep)) if x != 0]
        for cyc_cls in cyclic_classes:
            if cyc_cls.order == g.order:
                continue
            for cyc in _orbit_reps(g, cyc_cls, norm_gens):
                if np.isin(cyc.member_ids, rep.member_ids).all():
                    continue
                if not _join_could_be_proper(
                    rep.size, cyc, rep, order_divisors, max_proper
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
    cyc: SubgroupHandle,
    rep: SubgroupHandle,
    divisors: list[int],
    max_proper: int,
) -> bool:
    """Cheap Lagrange screen: the join order is a multiple of |H| at least
    |H|*|C|/|H∩C| and divides |G|; skip the closure if that forces it past
    the largest proper divisor."""
    inter = int(np.isin(cyc.member_ids, rep.member_ids).sum())
    lower = h_size * cyc.size // max(inter, 1)
    for d in divisors:
        if d > max_proper:
            break
        if d >= lower and d % h_size == 0 and d % cyc.size == 0:
            return True
    return False


def maximal_classes_from_lattice(
    g: GroupTable, classes: list[SubgroupClass]
) -> list[SubgroupClass]:
    """The maximal-subgroup classes: proper classes contained in no larger
    proper subgroup (checked against every conjugate)."""
    proper = [c for c in classes if c.order < g.order]
    out = []
    for c in proper:
        rep = c.representative
        dominated = False
        for other in proper:
            if other.order <= c.order or other.order % c.order != 0:
                continue
            for conj in other.conjugates:
                if np.isin(rep.member_ids, conj.member_ids).all():
                    dominated = True
                    break
            if dominated:
                break
        if not dominated:
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
    except (OSError, json.JSONDecodeError):
        return None
    if data.get("group_hash") != g.canonical_hash() or data.get("order") != g.order:
        return None
    classes = [
        orbit_class(
            g,
            SubgroupHandle(
                g, np.array(entry["members"], dtype=np.int64), tuple(entry["generators"])
            ),
        )
        for entry in data["classes"]
    ]
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
