"""Fully enumerated finite permutation groups with id-level arithmetic.

A GroupTable assigns every element an id; ids are indices into the list of
image tables sorted lexicographically, so id 0 is always the identity and all
downstream artifacts are byte-stable across runs.  Groups here are small
enough for full enumeration; there is no stabilizer-chain machinery.

A product is computed by composing image rows, packing each row into an
integer key and searching the sorted key table; there is no Cayley table.
Composition convention (fixed project-wide): ``mul_many(a, b)`` applies
``b`` first and then ``a``, so row q of the product is ``a[b[q]]``, and a
product written left to right, ``x1 * x2 * ... * xk``, applies ``xk``
first.  The subgroup routines batch that arithmetic: ``subgroup_closure``
and ``conjugation_orbit`` handle a whole breadth-first level per gather,
and membership in a subgroup is a boolean mask over the group.

Cycle data comes from one vectorized pass over the image rows
(``cycle_lengths``): the length of the cycle through every point of every
element.  Element orders are the lcm of each row, and an element's cycle
type is its sorted row.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .perm import DegreeMismatchError, Perm


class ClosureBudgetError(RuntimeError):
    """Breadth-first closure exceeded its element-products budget."""


DEFAULT_PRODUCT_BUDGET = 10**7


# the place values of a packed key, for each degree up to 16
_PACK_WEIGHTS = [np.uint64(d) ** np.arange(d - 1, -1, -1, dtype=np.uint64) for d in range(17)]


def _pack(images: np.ndarray, degree: int) -> np.ndarray:
    """Pack image rows into integer keys whose numeric order is the
    lexicographic order of the rows.  Supports degree <= 16."""
    if degree > 16:
        raise ValueError("packed keys support degree <= 16 only")
    return images.astype(np.uint64) @ _PACK_WEIGHTS[degree]


class GroupTable:
    """A finite group enumerated as permutations on a fixed point set."""

    def __init__(self, images: np.ndarray, generator_ids: list[int], name: str | None = None):
        self.images = images  # (order, degree) uint8, rows sorted lexicographically
        self.order = int(images.shape[0])
        self.degree = int(images.shape[1])
        self.generator_ids = generator_ids
        self.name = name
        self._keys = _pack(images, self.degree)
        # argsort of each row is its inverse permutation
        inv_imgs = np.argsort(images, axis=1).astype(np.uint8)
        self.inv = self._lookup(_pack(inv_imgs, self.degree))
        self._cycle_lengths: Optional[np.ndarray] = None
        self._orders: Optional[np.ndarray] = None
        self._conj_maps: dict[int, np.ndarray] = {}
        self._hash: Optional[str] = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_generators(
        cls,
        generators: Sequence[Perm],
        name: str | None = None,
        product_budget: int = DEFAULT_PRODUCT_BUDGET,
    ) -> "GroupTable":
        """Enumerate the group generated by ``generators`` breadth-first."""
        if not generators:
            raise ValueError("need at least one generator")
        degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatchError("generators act on different point sets")
        gen_imgs = np.array([g.images for g in generators], dtype=np.uint8)
        identity = np.arange(degree, dtype=np.uint8).reshape(1, degree)
        seen: dict[int, int] = {}
        rows: list[np.ndarray] = []

        def absorb(block: np.ndarray) -> np.ndarray:
            keys = _pack(block, degree)
            fresh = []
            for i, k in enumerate(keys.tolist()):
                if k not in seen:
                    seen[k] = len(rows)
                    rows.append(block[i])
                    fresh.append(i)
            return block[fresh] if fresh else block[:0]

        frontier = absorb(np.vstack([identity, gen_imgs]))
        products = 0
        while frontier.shape[0]:
            batches = []
            for gi in gen_imgs:
                products += frontier.shape[0]
                if products > product_budget:
                    raise ClosureBudgetError(
                        f"closure exceeded {product_budget} products "
                        f"(at {len(rows)} elements)"
                    )
                batches.append(frontier[:, gi])
            frontier = absorb(np.vstack(batches))

        images = np.array(rows, dtype=np.uint8)
        order_idx = np.argsort(_pack(images, degree), kind="stable")
        images = images[order_idx]
        table = cls(images, [], name=name)
        table.generator_ids = [table.id_of(g) for g in generators]
        return table

    # -- id-level arithmetic ---------------------------------------------

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        ids = self._keys.searchsorted(keys)
        # a key past the last one is clipped onto it and so differs from it
        if (self._keys.take(ids, mode="clip") != keys).any():
            raise KeyError("permutation not in group")
        return ids.astype(np.int64)

    def id_of(self, p: Perm) -> int:
        if p.degree != self.degree:
            raise DegreeMismatchError(f"degree {p.degree} != group degree {self.degree}")
        row = np.array(p.images, dtype=np.uint8)
        return int(self._lookup(_pack(row.reshape(1, -1), self.degree))[0])

    def perm(self, eid: int) -> Perm:
        return Perm(self.images[eid].tolist())

    def mul_many(self, a_ids: np.ndarray, b_ids: np.ndarray) -> np.ndarray:
        """Pairwise products a*b (b applied first) over equal-length id
        arrays."""
        a_ids = np.asarray(a_ids, dtype=np.int64)
        b_ids = np.asarray(b_ids, dtype=np.int64)
        rows = np.take_along_axis(self.images[a_ids], self.images[b_ids], axis=1)
        return self._lookup(_pack(rows, self.degree))

    def mul_right(self, a_ids: np.ndarray, g: int) -> np.ndarray:
        """All products a*g for a in a_ids."""
        rows = self.images[np.asarray(a_ids, dtype=np.int64)][:, self.images[g]]
        return self._lookup(_pack(rows, self.degree))

    def mul_left(self, g: int, b_ids: np.ndarray) -> np.ndarray:
        """All products g*b for b in b_ids."""
        rows = self.images[g][self.images[np.asarray(b_ids, dtype=np.int64)]]
        return self._lookup(_pack(rows, self.degree))

    def conj_map(self, g: int) -> np.ndarray:
        """The full conjugation table x -> g^-1 x g as an id array."""
        if g not in self._conj_maps:
            all_ids = np.arange(self.order, dtype=np.int64)
            t = self.mul_left(int(self.inv[g]), all_ids)
            self._conj_maps[g] = self.mul_right(t, g)
        return self._conj_maps[g]

    # -- element statistics ----------------------------------------------

    def cycle_lengths(self) -> np.ndarray:
        """The (order, degree) array whose entry (x, q) is the length of the
        cycle of element x through point q.  Row x of ``power`` holds x^k;
        the k-th pass marks the points that x^k fixes for the first time,
        and then one gather over all rows gives x^(k+1)."""
        if self._cycle_lengths is None:
            images = self.images.astype(np.int64)
            lengths = np.zeros_like(images)
            power = images
            for k in range(1, self.degree + 1):
                lengths[(lengths == 0) & (power == np.arange(self.degree))] = k
                if lengths.all():
                    break
                power = np.take_along_axis(images, power, axis=1)
            self._cycle_lengths = lengths
        return self._cycle_lengths

    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            self._orders = np.lcm.reduce(self.cycle_lengths(), axis=1)
        return self._orders

    def elements_with_order(self, k: int) -> np.ndarray:
        if k < 1:
            raise ValueError("order must be >= 1")
        return np.flatnonzero(self.element_orders() == k).astype(np.int64)

    def elements_with_cycle_type(self, t: Sequence[int]) -> np.ndarray:
        target = tuple(sorted(int(x) for x in t))
        if sum(target) != self.degree:
            raise ValueError(f"cycle type {target} does not sum to degree {self.degree}")
        if target[0] < 1:
            return np.zeros(0, dtype=np.int64)  # no cycle has such a length
        # a cycle of length c contributes c points of length c to a row
        row = np.repeat(target, target)
        return np.flatnonzero((np.sort(self.cycle_lengths(), axis=1) == row).all(axis=1))

    # -- misc --------------------------------------------------------------

    def canonical_hash(self) -> str:
        if self._hash is None:
            h = hashlib.sha256()
            h.update(str(self.degree).encode())
            h.update(self.images.tobytes())
            self._hash = h.hexdigest()
        return self._hash

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"GroupTable({label}, order={self.order}, degree={self.degree})"


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup as a sorted element-id set plus generators."""

    parent: GroupTable = field(repr=False)
    member_ids: np.ndarray = field(repr=False)  # sorted int64
    generators: tuple[int, ...]
    label: str | None = None

    def __post_init__(self):
        if self.parent.order % self.size != 0:
            raise ValueError(
                f"subgroup size {self.size} does not divide group order {self.parent.order}"
            )
        if int(self.member_ids[0]) != 0:
            raise ValueError("subgroup does not contain the identity")

    @property
    def size(self) -> int:
        return int(self.member_ids.shape[0])

    @property
    def index(self) -> int:
        return self.parent.order // self.size

    @property
    def canonical_key(self) -> bytes:
        return self.member_ids.astype(np.int64).tobytes()

    def conjugate(self, g: int) -> "SubgroupHandle":
        cm = self.parent.conj_map(g)
        ids = np.sort(cm[self.member_ids])
        gens = tuple(int(cm[x]) for x in self.generators)
        return SubgroupHandle(self.parent, ids, gens, label=self.label)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubgroupHandle)
            and self.parent is other.parent
            and self.canonical_key == other.canonical_key
        )

    def __hash__(self) -> int:
        return hash(self.canonical_key)

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"SubgroupHandle(order={self.size}{tag})"


@dataclass
class SubgroupClass:
    """A conjugacy class of subgroups."""

    representative: SubgroupHandle
    conjugates: list[SubgroupHandle]

    @property
    def class_size(self) -> int:
        return len(self.conjugates)

    @property
    def order(self) -> int:
        return self.representative.size

    @property
    def label(self) -> str | None:
        return self.representative.label

    @property
    def base_label(self) -> str:
        """The label, or order<N> for an unlabeled class."""
        return self.label or f"order{self.order}"

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"SubgroupClass(order={self.order}, size={self.class_size}{tag})"


def subgroup_closure(
    g: GroupTable,
    gens: Iterable[int],
    label: str | None = None,
    abort_above: int | None = None,
) -> SubgroupHandle | None:
    """Smallest subgroup containing ``gens``, breadth-first: each level
    multiplies the whole frontier by every non-identity generator in one
    gather and one key lookup, with membership kept as a mask over g.

    Returns None if the closure grows past ``abort_above`` elements (used by
    the lattice enumeration to cut off joins that must generate the whole
    group).
    """
    gen_list = sorted({int(x) for x in gens})
    for x in gen_list:
        if not 0 <= x < g.order:
            raise ValueError(f"invalid element id {x}")
    member = np.zeros(g.order, dtype=bool)
    member[0] = True
    member[gen_list] = True
    frontier = np.flatnonzero(member)
    size = frontier.shape[0]
    bound = g.order if abort_above is None else abort_above
    gen_rows = g.images[[x for x in gen_list if x != 0]]
    while frontier.shape[0] and gen_rows.shape[0] and size <= bound:
        rows = g.images[frontier][:, gen_rows].reshape(-1, g.degree)
        fresh = np.zeros(g.order, dtype=bool)
        # sorted keys make the key search run forward through the table
        fresh[g._lookup(np.sort(_pack(rows, g.degree)))] = True
        fresh &= ~member
        member |= fresh
        frontier = np.flatnonzero(fresh)
        size += frontier.shape[0]
    if size > bound:
        return None
    return SubgroupHandle(g, np.flatnonzero(member), tuple(gen_list), label=label)


def subgroup_from_set(
    g: GroupTable, ids: Iterable[int], label: str | None = None, verify: bool = True
) -> SubgroupHandle:
    """Wrap an element-id set known (or verified) to be a subgroup."""
    arr = np.unique(np.fromiter((int(x) for x in ids), dtype=np.int64))
    gens = _reduce_generators(g, arr)
    if verify:
        h = subgroup_closure(g, gens)
        if h.size != arr.shape[0] or not np.array_equal(h.member_ids, arr):
            raise ValueError("element set is not closed under multiplication")
        return SubgroupHandle(g, arr, h.generators, label=label)
    return SubgroupHandle(g, arr, gens, label=label)


def _reduce_generators(g: GroupTable, ids: np.ndarray) -> tuple[int, ...]:
    """Greedy small generating set for the subgroup with the given elements."""
    target = ids.shape[0]
    gens: list[int] = []
    have = np.zeros(g.order, dtype=bool)
    have[0] = True
    for x in ids.tolist():
        if have[x]:
            continue
        gens.append(x)
        h = subgroup_closure(g, gens)
        if h.size == target:
            break
        have[h.member_ids] = True
    return tuple(gens)


def normalizer(g: GroupTable, h: SubgroupHandle) -> np.ndarray:
    """Sorted ids of the normalizer of h in g (vectorized over all of g)."""
    inside = member_mask(g, h.member_ids)
    mask = np.ones(g.order, dtype=bool)
    all_ids = np.arange(g.order, dtype=np.int64)
    for t in h.generators:
        if t == 0:
            continue
        lt = g.mul_many(g.inv[all_ids], np.full(g.order, t, dtype=np.int64))
        mask &= inside[g.mul_many(lt, all_ids)]
    return all_ids[mask]


def member_mask(g: GroupTable, ids: np.ndarray) -> np.ndarray:
    """The boolean mask over g of the given element ids."""
    mask = np.zeros(g.order, dtype=bool)
    mask[ids] = True
    return mask


def _acting_generators(g: GroupTable) -> list[int]:
    """The non-identity generators of g, in order ([0] for a trivial g):
    the elements whose conjugation maps walk a class of g."""
    return [x for x in g.generator_ids if x != 0] or [0]


@dataclass
class ConjugationOrbit:
    """An orbit of subgroups under conjugation by a list of elements, in
    breadth-first order from ``members[0]``.

    ``parent``/``via`` form the Schreier vector: member i > 0 is member
    ``parent[i]`` conjugated by element ``via[i]`` of the acting list.
    ``generators`` carries each member's generator images when asked for.
    """

    members: list[np.ndarray]  # sorted int64 ids
    keys: list[bytes]  # canonical keys of the members
    parent: list[int]
    via: list[int]
    generators: list[np.ndarray] | None


def conjugation_orbit(
    g: GroupTable,
    member_ids: np.ndarray,
    elements: Sequence[int],
    generators: Sequence[int] | None = None,
) -> ConjugationOrbit:
    """The orbit of the subgroup with the given sorted ids under
    conjugation by ``elements``, breadth-first, each member expanded by the
    elements in order.  Generator images are carried only when
    ``generators`` is given.

    The walk goes one level at a time: the whole frontier goes through the
    stacked conjugation maps in one gather and is sorted row by row, so a
    level's working set is frontier size x len(elements) x |H|."""
    maps = np.array([g.conj_map(x) for x in elements], dtype=np.int64)
    maps = maps.reshape(len(elements), g.order)
    k = maps.shape[0]
    via_rows = np.arange(k)[None, :, None]
    start = np.asarray(member_ids, dtype=np.int64)
    width = start.shape[0] * start.itemsize
    members, keys = [start], [start.tobytes()]
    seen = set(keys)
    parent, via = [-1], [-1]
    frontier = start[None, :]
    gens = None
    if generators is not None:
        gen_frontier = np.asarray(generators, dtype=np.int64)[None, :]
        gens = [gen_frontier[0]]
    lo = 0  # the index of the frontier's first member
    while frontier.shape[0]:
        # row r of a level is frontier member lo + r // k under element r % k
        level = np.sort(maps[via_rows, frontier[:, None, :]], axis=2)
        level = level.reshape(-1, start.shape[0])
        buf = level.tobytes()
        level_keys = [buf[i : i + width] for i in range(0, len(buf), width)]
        fresh = []
        for r, key in enumerate(level_keys):
            if key not in seen:
                seen.add(key)
                fresh.append(r)
        keys.extend(level_keys[r] for r in fresh)
        parent.extend(lo + r // k for r in fresh)
        via.extend(r % k for r in fresh)
        lo += frontier.shape[0]
        frontier = level[fresh]
        members.extend(frontier)
        if gens is not None:
            images = maps[via_rows, gen_frontier[:, None, :]]
            gen_frontier = images.reshape(level.shape[0], images.shape[2])[fresh]
            gens.extend(gen_frontier)
    return ConjugationOrbit(members, keys, parent, via, gens)


def orbit_class(g: GroupTable, h: SubgroupHandle) -> SubgroupClass:
    """The conjugacy class of h, conjugates in canonical-key order, each
    with its generators conjugated along (h itself is the representative)."""
    orbit = conjugation_orbit(g, h.member_ids, _acting_generators(g), h.generators)
    conjugates = [
        h
        if i == 0
        else SubgroupHandle(
            g, orbit.members[i], tuple(orbit.generators[i].tolist()), label=h.label
        )
        for i in sorted(range(len(orbit.keys)), key=lambda i: orbit.keys[i])
    ]
    return SubgroupClass(representative=h, conjugates=conjugates)


def conjugate_class(g: GroupTable, h: SubgroupHandle) -> SubgroupClass:
    """All distinct conjugates of h under g, checked against the
    orbit-stabilizer count |class| * |N_g(h)| = |g|."""
    cls = orbit_class(g, h)
    nsize = normalizer(g, h).shape[0]
    if cls.class_size * nsize != g.order:
        raise AssertionError(
            f"class size {cls.class_size} * normalizer {nsize} != group order {g.order}"
        )
    return cls


def class_conjugators(g: GroupTable, cls: SubgroupClass) -> dict[bytes, int]:
    """For each conjugate in the class, one element c with rep^c equal to
    it (c = identity for the representative)."""
    elements = np.asarray(_acting_generators(g), dtype=np.int64)
    orbit = conjugation_orbit(g, cls.representative.member_ids, elements)
    parent = np.asarray(orbit.parent, dtype=np.int64)
    via = np.asarray(orbit.via, dtype=np.int64)
    # rebuilt from the Schreier vector a level at a time: parents are
    # nondecreasing, so the members whose parents are done form a prefix
    conjugators = np.zeros(parent.shape[0], dtype=np.int64)
    done = 1
    while done < parent.shape[0]:
        end = int(np.searchsorted(parent, done))
        conjugators[done:end] = g.mul_many(
            conjugators[parent[done:end]], elements[via[done:end]]
        )
        done = end
    return dict(zip(orbit.keys, conjugators.tolist()))
