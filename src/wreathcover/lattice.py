"""Complete subgroup-lattice enumeration up to conjugacy.

Strategy: seed with the conjugacy classes of cyclic subgroups, then close
under joins of a known class representative with one cyclic subgroup, the
cyclic factor reduced to orbit representatives under the normalizer of the
representative.  Every non-cyclic subgroup H equals <K, c> for a maximal
subgroup K < H and any cyclic c not inside K, so the fixpoint is complete.
The joins of one representative are closed together, in one batched
``subgroup_closures`` call, and read back in orbit-representative order.
A join that grows past the largest order a proper subgroup can have must be
the whole group, and is aborted.  That order is |G|/p, p the least prime
dividing |G|, or |G|/n0 when G is nonabelian simple, n0 the least n with
|G| dividing n!/2: a proper subgroup of index n gives G <= A_n (12 for A5,
24 for PSL(2,7), 720 for M11).  G is taken as simple when |G| is not prime
and the normal closure of every nontrivial cyclic class representative is
G; those closures are one batched ``closures`` call, each aborted past
|G|/p.  See ``groups`` for the batches and their memory budget.

The cyclic seeds cost no closures: one table of powers x^k over all of G
(one batched product per k below the largest element order) gives every
<x> at once.  The proper cyclic subgroups are then numbered class by class,
and one label array over G sends each element x to the number of <x>.
Conjugation by y permutes the numbers as i -> label[y^-1 gens[i] y], where
gens[i] generates subgroup i, so the orbits under a normalizer's generators
come from ``groups.orbit_minima`` over those permutations.  The
representatives are the numbers that keep their own label, ascending: the
first conjugate of each orbit in canonical-key order.

Membership tests against a representative use a boolean mask over G.

Feasible to group order ORDER_CAP = 10^4, which covers M11 (order 7920).
Results are cached, keyed by the group's canonical hash, only in a
directory the caller names.  A cache file is used only if its hash and
order match, every stored representative's members are exactly the closure
of its stored generators, and the cyclic classes account for every element
(each element generates one cyclic subgroup, and a cyclic subgroup of
order n has phi(n) generators).  The closure is checked inside the stored
members, at a cost of |H| products per generator: the members ascend, hold
the generators and the identity, the right product of each member with
each generator is a member, and one ``closures`` run over the members'
positions reaches them all from the identity.  Anything else (an
unreadable file, a missing key, a malformed or truncated entry, a missing
cyclic class) is a miss, and the lattice is enumerated again and the file
rewritten.  A missing non-cyclic class still passes these checks.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from . import InputError
from .formulas import euler_phi, smallest_prime_factor
from .groups import (
    GroupTable,
    SubgroupClass,
    SubgroupHandle,
    _acting_generators,
    _reduce_generators,
    closures,
    member_mask,
    normalizer,
    orbit_class,
    orbit_minima,
    sorted_positions,
    subgroup_closure,
    subgroup_closures,
)

ORDER_CAP = 10**4


def all_subgroup_classes(
    g: GroupTable, *, cache_dir: str | os.PathLike | None = None
) -> list[SubgroupClass]:
    """Every subgroup of g up to conjugacy, complete and duplicate-free.

    Classes are sorted by (order, canonical key); the trivial subgroup and g
    itself are included.  No file is touched unless ``cache_dir`` is named.
    """
    if g.order > ORDER_CAP:
        raise InputError(f"group order {g.order} exceeds lattice cap {ORDER_CAP}")
    if cache_dir is None:
        return _enumerate_classes(g)

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
        known.update(cls.keys)
        classes.append(cls)
        return cls

    register(subgroup_closure(g, []))

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

    gens, label = _number_cyclic(g, cyclic_classes)
    max_proper = _proper_order_bound(g, cyclic_classes)

    for cls in classes:  # the list grows as joins find new classes
        rep = cls.representative
        if rep.size in (1, g.order):
            continue
        norm_gens = [x for x in _reduce_generators(g, normalizer(g, rep)) if x != 0]
        reps = _orbit_reps(g, label, gens, norm_gens)
        # a join is skipped unclosed only when its cyclic factor lies inside
        # rep; a join aborted past max_proper is the whole group
        reps = reps[~member_mask(g, rep.member_ids)[gens[reps]]]
        joins = [rep.generators + (x,) for x in gens[reps].tolist()]
        for joined in subgroup_closures(g, joins, max_proper):
            if joined is not None and joined.canonical_key not in known:
                register(joined)

    whole = SubgroupHandle(
        g, np.arange(g.order, dtype=np.int64), tuple(g.generator_ids)
    )
    if whole.canonical_key not in known:
        register(whole)

    return sorted(classes, key=lambda c: (c.order, c.keys[0]))


def _proper_order_bound(g: GroupTable, cyclic_classes: list[SubgroupClass]) -> int:
    """An upper bound on the order of a proper subgroup of g: |G|/p, p the
    least prime dividing |G|, and |G|/n0 when g is nonabelian simple, n0
    the least n with |G| dividing n!/2 (a proper subgroup of index n gives
    G <= A_n).  g is nonabelian simple when |G| is not prime and the normal
    closure of every nontrivial cyclic class representative <c> is g.  That
    normal closure is the closure of {1, c} under y -> y*c and conjugation
    by each generator of g: the set is closed under conjugation, and so, by
    induction on how an element is reached, under products.  Each is
    aborted past |G|/p."""
    bound = g.order // smallest_prime_factor(g.order) if g.order > 1 else 1
    if bound == 1:  # trivial, or of prime order
        return 1
    conj = [g.conj_map(s) for s in _acting_generators(g)]
    starts = [c.representative.generators for c in cyclic_classes]
    maps = [[g.right_map(c), *conj] for (c,) in starts]
    if any(ids is not None for ids in closures(g.order, starts, maps, bound)):
        return bound
    n = 2
    while math.factorial(n) // 2 % g.order:
        n += 1
    return g.order // n


def _number_cyclic(
    g: GroupTable, cyclic_classes: list[SubgroupClass]
) -> tuple[np.ndarray, np.ndarray]:
    """The generators of the proper cyclic subgroups, numbered class by
    class in conjugate order, and the label over g that sends x to the
    number of <x> (0 for x outside them, the identity included)."""
    proper = [c for c in cyclic_classes if c.order < g.order]
    gens = np.array([x for c in proper for x in c.generator_images[:, 0].tolist()], dtype=np.int64)
    orders = g.element_orders()
    label = np.zeros(g.order, dtype=np.int64)
    for i, ids in enumerate(ids for c in proper for ids in c.members):
        label[ids[orders[ids] == ids.shape[0]]] = i
    return gens, label


def _orbit_reps(
    g: GroupTable, label: np.ndarray, gens: np.ndarray, elements: list[int]
) -> np.ndarray:
    """The least number in each orbit of conjugation by ``elements`` on the
    numbered subgroups (see ``_number_cyclic``), ascending."""
    moves = [label[g.conj_map(y)[gens]] for y in elements]
    least = orbit_minima(moves, gens.shape[0])
    return np.flatnonzero(least == np.arange(gens.shape[0]))


def maximal_classes_from_lattice(
    g: GroupTable, classes: list[SubgroupClass]
) -> list[SubgroupClass]:
    """The maximal-subgroup classes: proper classes contained in no larger
    proper subgroup (checked against every conjugate)."""
    proper = [c for c in classes if c.order < g.order]
    out = []
    for c in proper:
        inside = member_mask(g, c.representative.member_ids)
        # a conjugate of a larger class holds the representative when it
        # meets it in |rep| elements
        if not any(
            other.order > c.order
            and other.order % c.order == 0
            and (np.count_nonzero(inside[other.members], axis=1) == c.order).any()
            for other in proper
        ):
            out.append(c)
    return out


# -- disk cache -----------------------------------------------------------


def cache_directory(cache_dir: str | os.PathLike) -> Path:
    return Path(cache_dir)


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
        if not _members_are_closures(g, reps):
            return None
    except (OSError, LookupError, TypeError, ValueError, ArithmeticError):
        # json's decode error is a ValueError; an id past int64 is an
        # OverflowError, and an empty member list a ZeroDivisionError
        return None
    classes = [orbit_class(g, h) for h in reps]
    if not _cyclic_classes_count_elements(g, classes):
        return None
    classes.sort(key=lambda c: (c.order, c.keys[0]))
    return classes


def _members_are_closures(g: GroupTable, reps: list[SubgroupHandle]) -> bool:
    """Whether each handle's members are exactly the closure of its
    generators, checked inside the members: they ascend within g, hold the
    generators, are closed under right multiplication by each generator,
    and are all reached from the identity that way.  Holding the identity
    (which a handle checks) and the generators, and being closed, puts the
    closure inside the members; the last step puts the members inside it.

    Handle c's members take the positions after those of the handles
    before it, and the j-th map moves each handle's positions by its j-th
    generator, so one ``closures`` run from every handle's identity checks
    the last step for all handles at once.  Raises ValueError, TypeError
    or OverflowError on a malformed generator list."""
    n = sum(h.size for h in reps)
    maps: list[np.ndarray] = []
    starts: list[int] = []
    lo = 0
    for h in reps:
        ids = h.member_ids
        if ids.ndim != 1 or ids[-1] >= g.order or (np.diff(ids) <= 0).any():
            return False
        gens = sorted({int(x) for x in h.generators} - {0})
        if sorted_positions(ids, np.array(gens, dtype=np.int64)) is None:
            return False
        for j, x in enumerate(gens):
            at = sorted_positions(ids, g.mul_many(ids, x))
            if at is None:
                return False
            if j == len(maps):
                maps.append(np.arange(n))
            maps[j][lo : lo + ids.shape[0]] = lo + at
        starts.append(lo)
        lo += ids.shape[0]
    return not reps or closures(n, [starts], [maps], n)[0].shape[0] == n


def _cyclic_classes_count_elements(g: GroupTable, classes: list[SubgroupClass]) -> bool:
    """Whether sum(class_size * phi(n)) over the cyclic classes of order n
    equals the number of elements of order n, for every n.  A class is
    cyclic when some member of its representative has order |H|."""
    orders = g.element_orders()
    uncounted = np.bincount(orders)  # the number of elements of each order
    for cls in classes:
        if int(orders[cls.representative.member_ids].max()) == cls.order:
            uncounted[cls.order] -= cls.class_size * euler_phi(cls.order)
    return not uncounted.any()


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
