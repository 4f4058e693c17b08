"""Fully enumerated finite permutation groups with id-level arithmetic.

A GroupTable assigns every element an id; ids are indices into the list of
image tables sorted lexicographically, so id 0 is always the identity and all
downstream artifacts are byte-stable across runs.  Groups here are small
enough for full enumeration; there is no stabilizer-chain machinery.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .perm import DegreeMismatchError, Perm


class ClosureBudgetError(RuntimeError):
    """Breadth-first closure exceeded its element-products budget."""


DEFAULT_PRODUCT_BUDGET = 10**7


def _pack(images: np.ndarray, degree: int) -> np.ndarray:
    """Pack image rows into integer keys whose numeric order is the
    lexicographic order of the rows.  Supports degree <= 16."""
    if degree > 16:
        raise ValueError("packed keys support degree <= 16 only")
    weights = (np.uint64(degree) ** np.arange(degree - 1, -1, -1, dtype=np.uint64))
    return (images.astype(np.uint64) @ weights).astype(np.uint64)


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
        self._orders: Optional[np.ndarray] = None
        self._cycle_types: Optional[list[tuple[int, ...]]] = None
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
        ids = np.searchsorted(self._keys, keys)
        if np.any(ids >= self.order) or np.any(self._keys[ids] != keys):
            raise KeyError("permutation not in group")
        return ids.astype(np.int64)

    def id_of(self, p: Perm) -> int:
        if p.degree != self.degree:
            raise DegreeMismatchError(f"degree {p.degree} != group degree {self.degree}")
        row = np.array(p.images, dtype=np.uint8)
        return int(self._lookup(_pack(row.reshape(1, -1), self.degree))[0])

    def perm(self, eid: int) -> Perm:
        return Perm(self.images[eid].tolist())

    def mul(self, a: int, b: int) -> int:
        row = self.images[a][self.images[b]]
        return int(self._lookup(_pack(row.reshape(1, -1), self.degree))[0])

    def mul_many(self, a_ids: np.ndarray, b_ids: np.ndarray) -> np.ndarray:
        """Pairwise products (broadcast over equal-length id arrays)."""
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

    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            self._compute_cycle_data()
        return self._orders

    def cycle_types(self) -> list[tuple[int, ...]]:
        if self._cycle_types is None:
            self._compute_cycle_data()
        return self._cycle_types

    def _compute_cycle_data(self) -> None:
        orders = np.empty(self.order, dtype=np.int64)
        types: list[tuple[int, ...]] = []
        for eid in range(self.order):
            row = self.images[eid]
            seen = [False] * self.degree
            lengths = []
            for start in range(self.degree):
                if seen[start]:
                    continue
                ln = 1
                seen[start] = True
                j = int(row[start])
                while j != start:
                    seen[j] = True
                    ln += 1
                    j = int(row[j])
                lengths.append(ln)
            lengths.sort()
            types.append(tuple(lengths))
            orders[eid] = math.lcm(*lengths)
        self._orders = orders
        self._cycle_types = types

    def elements_with_order(self, k: int) -> np.ndarray:
        if k < 1:
            raise ValueError("order must be >= 1")
        return np.flatnonzero(self.element_orders() == k).astype(np.int64)

    def elements_with_cycle_type(self, t: Sequence[int]) -> np.ndarray:
        target = tuple(sorted(int(x) for x in t))
        if sum(target) != self.degree:
            raise ValueError(f"cycle type {target} does not sum to degree {self.degree}")
        types = self.cycle_types()
        return np.array([i for i in range(self.order) if types[i] == target], dtype=np.int64)

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

    def contains(self, eid: int) -> bool:
        i = int(np.searchsorted(self.member_ids, eid))
        return i < self.size and int(self.member_ids[i]) == eid

    def member_set(self) -> frozenset[int]:
        return frozenset(self.member_ids.tolist())

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
    """Smallest subgroup containing ``gens``.

    Returns None if the closure grows past ``abort_above`` elements (used by
    the lattice enumeration to cut off joins that must generate the whole
    group).
    """
    gen_list = sorted({int(x) for x in gens})
    for x in gen_list:
        if not 0 <= x < g.order:
            raise ValueError(f"invalid element id {x}")
    member = {0}
    member.update(gen_list)
    frontier = np.array(sorted(member), dtype=np.int64)
    all_ids = [frontier]
    gen_arr = [x for x in gen_list if x != 0]
    while frontier.shape[0]:
        new: set[int] = set()
        for x in gen_arr:
            prods = g.mul_right(frontier, x)
            for p in prods.tolist():
                if p not in member:
                    member.add(p)
                    new.add(p)
        if abort_above is not None and len(member) > abort_above:
            return None
        frontier = np.array(sorted(new), dtype=np.int64)
        if frontier.shape[0]:
            all_ids.append(frontier)
    ids = np.sort(np.concatenate(all_ids)) if len(all_ids) > 1 else all_ids[0]
    return SubgroupHandle(g, ids, tuple(gen_list), label=label)


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
    have = {0}
    for x in ids.tolist():
        if x in have:
            continue
        gens.append(x)
        have = subgroup_closure(g, gens).member_set()
        if len(have) == target:
            break
    return tuple(gens)


def normalizer(g: GroupTable, h: SubgroupHandle) -> np.ndarray:
    """Sorted ids of the normalizer of h in g (vectorized over all of g)."""
    mask = np.ones(g.order, dtype=bool)
    all_ids = np.arange(g.order, dtype=np.int64)
    for t in h.generators:
        if t == 0:
            continue
        lt = g.mul_many(g.inv[all_ids], np.full(g.order, t, dtype=np.int64))
        conj = g.mul_many(lt, all_ids)
        mask &= np.isin(conj, h.member_ids)
    return all_ids[mask]


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
    ``generators`` is given."""
    maps = [g.conj_map(x) for x in elements]
    start = np.asarray(member_ids, dtype=np.int64)
    members, keys = [start], [start.tobytes()]
    seen = set(keys)
    parent, via = [-1], [-1]
    gens = None if generators is None else [np.asarray(generators, dtype=np.int64)]
    for i, cur in enumerate(members):  # the list grows as the walk goes
        for j, cm in enumerate(maps):
            nxt = np.sort(cm[cur])
            key = nxt.tobytes()
            if key not in seen:
                seen.add(key)
                members.append(nxt)
                keys.append(key)
                parent.append(i)
                via.append(j)
                if gens is not None:
                    gens.append(cm[gens[i]])
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
    elements = _acting_generators(g)
    orbit = conjugation_orbit(g, cls.representative.member_ids, elements)
    # rebuilt from the Schreier vector: a parent comes before its children
    conjugators = [0]
    for p, j in zip(orbit.parent[1:], orbit.via[1:]):
        conjugators.append(g.mul(conjugators[p], elements[j]))
    return dict(zip(orbit.keys, conjugators))
