"""Fully enumerated finite permutation groups with id-level arithmetic.

A GroupTable assigns every element an id; ids are indices into the list of
image tables sorted lexicographically, so id 0 is always the identity and all
downstream artifacts are byte-stable across runs.  Groups here are small
enough for full enumeration; there is no stabilizer-chain machinery.

There is no Cayley table.  One row lookup, ``ids``, turns image rows back
into ids: it packs each row into an integer key, searches the keys in
ascending order in the sorted key table (``sorted_positions``) and
scatters the ids back to the rows.  One product, ``mul_many``, composes
image rows and looks them up; it pairs two id arrays elementwise, by one
flat gather from the image table at a*degree + b[q], or broadcasts a
single id on either side.  Composition convention (fixed project-wide):
``mul_many(a, b)`` applies ``b`` first and then ``a``, so row q of the
product is ``a[b[q]]``, and a product written left to right,
``x1 * x2 * ... * xk``, applies ``xk`` first.  The subgroup routines batch
that arithmetic, and membership in a subgroup is a boolean mask over the
group.

There is one closure kernel, ``closures``.  It works over any id space
0..n-1 with 0 in every set: the ids of a group (n = |G|), or the positions
of a subgroup's sorted members, as the lattice cache check uses it.  Each
of its rows is a start set and a list of id maps (right maps for a
subgroup; for a normal closure, conjugation maps too), and it takes all
rows breadth-first together: one level of every live row is one gather
through a flat (maps x rows x n) table into one flat (rows x n)
membership mask.  A row that passes the abort bound is dead, and its
frontier is dropped.  Rows go CLOSURE_BUDGET // n at a time (at least
one), so a batch holds at most max(CLOSURE_BUDGET, n) mask bytes and that
many narrow ints per map; no table grows with the number of rows.  It
reads rows and yields their results a batch at a time.
``subgroup_closures`` closes one generator set per row, and
``subgroup_closure`` is its one-row case.  The one conjugation orbit walk
is ``orbit_class``, which makes a ``SubgroupClass`` a level per gather.

The table caches two kinds of whole-group map per element, each made on
first use and kept as long as the table: ``right_map`` (y -> y*x, in the
narrowest unsigned type that holds an id) and ``conj_map`` (x -> g^-1 x g),
read off the right map of g by gathers; closures and the orbit walk step
through them.  It also keeps, as long as it lives, the coset-minimum row of
each subgroup that ``wreath.coset_minima`` has made (``coset_rows``, read
only, by canonical key): at most one row of |G| narrow ints per subgroup
asked for, which the pipelines bound by the summed sizes of the catalog's
maximal classes.  And it renders each element's cycle string at most once
(``cycle_string``), so it holds at most |G| strings; ``cycle_id`` reads a
canonical string back from them.

Cycle data comes from one vectorized pass over the image rows
(``cycle_lengths``): the length of the cycle through every point of every
element.  Element orders are the lcm of each row, and an element's cycle
type is its sorted row.  ``element_classes`` names each element's class by
its least id, from the one orbit routine ``orbit_minima``; how many members
of given subgroup classes hold x (``conjugates_holding``) is read off them.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import InputError
from .perm import Perm

PRODUCT_BUDGET = 10**7
# mask entries (rows x |G|) of one batch of ``closures``
CLOSURE_BUDGET = 2**15


# the place values of a packed key, for each degree up to 16
_PACK_WEIGHTS = [np.uint64(d) ** np.arange(d - 1, -1, -1, dtype=np.uint64) for d in range(17)]


def _pack(images: np.ndarray, degree: int) -> np.ndarray:
    """Pack image rows into integer keys whose numeric order is the
    lexicographic order of the rows.  Supports degree <= 16."""
    if degree > 16:
        raise InputError("packed keys support degree <= 16 only")
    return images.astype(np.uint64) @ _PACK_WEIGHTS[degree]


def sorted_positions(table: np.ndarray, queries: np.ndarray) -> np.ndarray | None:
    """The position of each query in the ascending array ``table``; None
    if one is not in it."""
    at = table.searchsorted(queries)
    # a query past the last entry is clipped onto it and so differs from it
    if (table.take(at, mode="clip") != queries).any():
        return None
    return at


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
        self.inv = self.ids(inv_imgs)
        self._cycle_lengths: Optional[np.ndarray] = None
        self._orders: Optional[np.ndarray] = None
        self._classes: Optional[np.ndarray] = None
        self._conj_maps: dict[int, np.ndarray] = {}
        self._right_maps: dict[int, np.ndarray] = {}
        # read-only coset-minimum rows by canonical key, kept by ``wreath.coset_minima``
        self.coset_rows: dict[bytes, np.ndarray] = {}
        self._cycle_strings: dict[int, str] = {}
        self._cycle_ids: dict[str, int] = {}
        self._hash: Optional[str] = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_generators(cls, generators: Sequence[Perm], name: str | None = None) -> "GroupTable":
        """Enumerate the group generated by ``generators`` breadth-first."""
        if not generators:
            raise InputError("need at least one generator")
        degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise ValueError("generators act on different point sets")
        if degree > 16:  # refused before the uint8 cast, which fails past 255
            raise InputError("packed keys support degree <= 16 only")
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
                if products > PRODUCT_BUDGET:
                    raise InputError(
                        f"closure exceeded {PRODUCT_BUDGET} products "
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

    def ids(self, rows: np.ndarray) -> np.ndarray:
        """The ids of the given (..., degree) image rows; KeyError if one is
        not in the group.  The keys are searched in ascending order, which
        walks the key table once, and the ids scattered back."""
        keys = _pack(rows, self.degree)
        flat = keys.reshape(-1)
        order = flat.argsort()
        found = sorted_positions(self._keys, flat[order])
        if found is None:
            raise KeyError("permutation not in group")
        ids = np.empty(flat.shape[0], dtype=np.int64)
        ids[order] = found
        # [()] makes a single row's id a scalar, as its key is
        return ids.reshape(keys.shape)[()]

    def id_of(self, p: Perm) -> int:
        """The id of p; InputError when p is not in the group."""
        if p.degree != self.degree:
            raise ValueError(f"degree {p.degree} != group degree {self.degree}")
        try:
            return int(self.ids(np.array([p.images], dtype=np.uint8))[0])
        except KeyError:
            raise InputError(
                f"permutation {p.to_cycle_string()} not in {self.name or 'the group'}"
            ) from None

    def perm(self, eid: int) -> Perm:
        return Perm(self.images[eid].tolist())

    def cycle_string(self, x: int) -> str:
        """Element x in cycle notation, rendered once per table."""
        text = self._cycle_strings.get(x)
        if text is None:
            text = self._cycle_strings[x] = self.perm(x).to_cycle_string()
            self._cycle_ids[text] = x
        return text

    def cycle_id(self, text: str) -> int:
        """The id of the element written as ``text`` in cycle notation
        (InputError when the text is bad or names no element).  The text is
        parsed unless it is the rendering that ``cycle_string`` keeps for
        its element; the table keeps that rendering, never another
        spelling."""
        x = self._cycle_ids.get(text)
        if x is None:
            x = self.id_of(Perm.from_cycles(text, self.degree))
            self.cycle_string(x)
        return x

    def mul_many(self, a_ids: np.ndarray | int, b_ids: np.ndarray | int) -> np.ndarray:
        """Products a*b (b applied first): pairwise over equal-length id
        arrays, or one array against a single id on either side."""
        a = np.asarray(a_ids, dtype=np.int64)
        b = self.images[np.asarray(b_ids, dtype=np.int64)]
        if a.ndim == 0 or b.ndim == 1:
            rows = self.images[a][..., b]
        else:  # row q of a*b is a[b[q]], one flat gather from the images
            rows = self.images.ravel()[a[:, None] * self.degree + b]
        return self.ids(rows)

    def conj_map(self, g: int) -> np.ndarray:
        """The full conjugation table x -> g^-1 x g as an id array, by
        gathers through ``right_map(g)``: g^-1 x = (x^-1 g)^-1."""
        if g not in self._conj_maps:
            right = self.right_map(g)
            self._conj_maps[g] = right[self.inv[right[self.inv]]].astype(np.int64)
        return self._conj_maps[g]

    def right_map(self, x: int) -> np.ndarray:
        """The full right-multiplication table y -> y*x as an id array in
        the narrowest unsigned type that holds an id."""
        if x not in self._right_maps:
            ids = self.mul_many(np.arange(self.order), x)
            self._right_maps[x] = ids.astype(np.min_scalar_type(self.order - 1))
        return self._right_maps[x]

    # -- element statistics ----------------------------------------------

    def cycle_lengths(self) -> np.ndarray:
        """The (order, degree) array whose entry (x, q) is the length of the
        cycle of element x through point q.  Row x of ``power`` holds x^k;
        the k-th pass marks the points that x^k fixes for the first time,
        and then one flat gather over all rows, at x*degree + x^k[q], gives
        x^(k+1)."""
        if self._cycle_lengths is None:
            rows = (np.arange(self.order) * self.degree)[:, None]
            lengths = np.zeros(self.images.shape, dtype=np.int64)
            power = self.images
            for k in range(1, self.degree + 1):
                lengths[(lengths == 0) & (power == np.arange(self.degree))] = k
                if lengths.all():
                    break
                power = self.images.ravel()[rows + power]
            self._cycle_lengths = lengths
        return self._cycle_lengths

    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            self._orders = np.lcm.reduce(self.cycle_lengths(), axis=1)
        return self._orders

    def element_classes(self) -> np.ndarray:
        """Each element's conjugacy class, named by its least id."""
        if self._classes is None:
            moves = [self.conj_map(x) for x in _acting_generators(self)]
            self._classes = orbit_minima(moves, self.order)
        return self._classes

    def elements_with_order(self, k: int) -> np.ndarray:
        if k < 1:
            raise InputError("order must be >= 1")
        return np.flatnonzero(self.element_orders() == k).astype(np.int64)

    def elements_with_cycle_type(self, t: Sequence[int]) -> np.ndarray:
        target = tuple(sorted(int(x) for x in t))
        if sum(target) != self.degree:
            raise InputError(f"cycle type {target} does not sum to degree {self.degree}")
        if target[0] < 1:
            raise InputError("cycle length must be >= 1")
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
        return SubgroupHandle(self.parent, ids, gens)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubgroupHandle)
            and self.parent is other.parent
            and self.canonical_key == other.canonical_key
        )

    def __hash__(self) -> int:
        return hash(self.canonical_key)

    def __repr__(self) -> str:
        return f"SubgroupHandle(order={self.size})"


@dataclass
class SubgroupClass:
    """A conjugacy class of subgroups, kept as its stacked conjugation
    orbit in canonical-key order: row i of ``members`` holds the sorted ids
    of conjugate i, row i of ``generator_images`` its generators,
    ``conjugators[i]`` maps the representative onto it and ``keys[i]`` is
    its canonical key."""

    representative: SubgroupHandle
    members: np.ndarray  # (class size, order) int64
    generator_images: np.ndarray  # (class size, number of generators) int64
    conjugators: np.ndarray  # int64
    keys: list[bytes]
    label: str | None = None  # the catalog's name; None for a lattice class

    @functools.cached_property
    def conjugates(self) -> list[SubgroupHandle]:
        """Each conjugate as a handle, made on first read; the one with
        the identity as conjugator is the representative itself."""
        g = self.representative.parent
        return [
            self.representative if c == 0 else SubgroupHandle(g, ids, tuple(gens))
            for ids, gens, c in zip(
                self.members, self.generator_images.tolist(), self.conjugators.tolist()
            )
        ]

    @property
    def class_size(self) -> int:
        return self.members.shape[0]

    @property
    def order(self) -> int:
        return self.representative.size

    @property
    def base_label(self) -> str:
        """The label, or order<N> for an unlabeled class."""
        return self.label or f"order{self.order}"

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"SubgroupClass(order={self.order}, size={self.class_size}{tag})"


def subgroup_closure(g: GroupTable, gens: Iterable[int]) -> SubgroupHandle:
    """Smallest subgroup containing ``gens``: the one-row case of
    ``subgroup_closures``."""
    return subgroup_closures(g, [gens], g.order)[0]


def subgroup_closures(
    g: GroupTable, gen_sets: Sequence[Iterable[int]], abort_above: int
) -> list[SubgroupHandle | None]:
    """The subgroup generated by each set, None where it has more than
    ``abort_above`` elements: one breadth-first ``closures`` run whose row
    for a set starts at the set and steps through the ``right_map`` of each
    of its non-identity elements."""
    sets = [sorted({int(x) for x in gens}) for gens in gen_sets]
    for x in (x for s in sets for x in s):
        if not 0 <= x < g.order:
            raise ValueError(f"invalid element id {x}")
    maps = [[g.right_map(x) for x in s if x != 0] for s in sets]
    return [
        None if ids is None else SubgroupHandle(g, ids, tuple(s))
        for s, ids in zip(sets, closures(g.order, sets, maps, abort_above))
    ]


def closures(
    n: int,
    starts: Iterable[Sequence[int]],
    maps: Iterable[Sequence[np.ndarray]],
    abort_above: int,
) -> Iterator[np.ndarray | None]:
    """For each row, the sorted ids of the smallest set that holds id 0 and
    the row's start and is closed under each of the row's maps (id arrays
    over the ids 0..n-1: those of a group, with 0 its identity, or the
    positions of a subgroup's sorted members); None for a row whose set has
    more than ``abort_above`` elements.  Rows are batched as the module
    docstring says, and ``starts`` and ``maps`` are read one batch ahead of
    the results; id x of row r sits at r*n + x in a batch's mask and
    tables, and row sizes are counted only once the largest could pass
    ``abort_above``."""
    step = max(1, CLOSURE_BUDGET // n)
    starts, maps = iter(starts), iter(maps)
    # a row without maps steps through the identity, and a row with fewer
    # maps than the widest repeats its last
    while batch := [list(m) or [np.arange(n)] for m in islice(maps, step)]:
        rows, width = len(batch), max(len(m) for m in batch)
        dtype = np.min_scalar_type(rows * n - 1)
        flat = np.array([[m[min(j, len(m) - 1)] for m in batch] for j in range(width)], dtype=dtype)
        if rows > 1:
            flat += (np.arange(rows, dtype=dtype) * n)[:, None]
        flat = flat.reshape(width, rows * n)
        member = np.zeros(rows * n, dtype=bool)
        member[::n] = True
        block = [r * n + np.asarray(s, dtype=np.int64) for r, s in enumerate(islice(starts, rows))]
        member[np.concatenate(block)] = True
        frontier = np.flatnonzero(member)
        top = frontier.shape[0]  # at least the size of the largest live row
        dead = np.zeros(rows, dtype=bool)
        while True:
            if top > abort_above:
                size = np.add.reduce(member.reshape(rows, n), axis=1)
                dead = size > abort_above
                frontier = frontier[~dead[frontier // n]]
                top = int(size[~dead].max(initial=0))
            if not frontier.shape[0]:
                break
            fresh = np.zeros(rows * n, dtype=bool)
            fresh[flat[:, frontier]] = True
            fresh &= ~member
            member |= fresh
            frontier = np.flatnonzero(fresh)
            top += frontier.shape[0]
        for r in range(rows):
            yield None if dead[r] else np.flatnonzero(member[r * n : (r + 1) * n])


def normalizer(g: GroupTable, h: SubgroupHandle) -> np.ndarray:
    """Sorted ids of the normalizer of h in g (vectorized over all of g)."""
    inside = member_mask(g, h.member_ids)
    mask = np.ones(g.order, dtype=bool)
    all_ids = np.arange(g.order, dtype=np.int64)
    for t in h.generators:
        if t == 0:
            continue
        mask &= inside[g.mul_many(g.right_map(t)[g.inv], all_ids)]
    return all_ids[mask]


def member_mask(g: GroupTable, ids: np.ndarray) -> np.ndarray:
    """The boolean mask over g of the given element ids."""
    mask = np.zeros(g.order, dtype=bool)
    mask[ids] = True
    return mask


def orbit_minima(moves: Sequence[np.ndarray], n: int) -> np.ndarray:
    """The least point in the orbit of each of 0..n-1 under the given
    permutations (id arrays): each pass lowers every point's least known
    point to its preimages', until a pass changes nothing."""
    least, last = np.arange(n), None
    while not np.array_equal(least, last):
        last = least.copy()
        for move in moves:
            np.minimum.at(least, move, last)
    return least


def conjugates_holding(g: GroupTable, classes: Sequence[SubgroupClass]) -> np.ndarray:
    """For every x in g, how many members of the given classes hold x: the
    sum of |x^g & M| * class size / |x^g| over them, M the representative
    (exact, since every conjugate of x lies in equally many members)."""
    labels = g.element_classes()
    held = np.zeros(g.order, dtype=np.int64)
    for c in classes:
        held += np.bincount(labels[c.representative.member_ids], minlength=g.order) * c.class_size
    return held[labels] // np.bincount(labels)[labels]


def _acting_generators(g: GroupTable) -> list[int]:
    """The non-identity generators of g, in order ([0] for a trivial g):
    the elements whose conjugation maps walk a class of g."""
    return [x for x in g.generator_ids if x != 0] or [0]


def orbit_class(g: GroupTable, h: SubgroupHandle, label: str | None = None) -> SubgroupClass:
    """The conjugacy class of h, with h as its representative: the orbit of
    h under conjugation by ``_acting_generators(g)``, each member with its
    generators conjugated along and its conjugator c (h^c is the member).

    The walk goes one level at a time: the whole frontier goes through the
    stacked conjugation maps in one gather and is sorted row by row, so a
    level's working set is frontier size x generators x |h|.  The fresh
    rows' generator images take one more gather through those maps, and
    their conjugators one through the right maps: element x takes
    conjugator c to c*x.  Each level's fresh rows stay one array; the
    levels are joined once and put in canonical-key order."""
    elements = _acting_generators(g)
    maps = np.array([g.conj_map(x) for x in elements], dtype=np.int64)
    rights = np.array([g.right_map(x) for x in elements])
    k = len(elements)
    via_rows = np.arange(k)[None, :, None]
    start = np.asarray(h.member_ids, dtype=np.int64)
    # a level's rows viewed as opaque items, whose tolist() is their keys
    row = np.dtype((np.void, start.shape[0] * start.itemsize))
    keys = [start.tobytes()]
    seen = set(keys)
    frontier = start[None, :]
    gen_frontier = np.asarray(h.generators, dtype=np.int64)[None, :]
    conj_frontier = np.zeros(1, dtype=np.int64)
    members, gens, conjugators = [frontier], [gen_frontier], [conj_frontier]
    while frontier.shape[0]:
        # row r of a level is frontier member r // k under element r % k
        level = np.sort(maps[via_rows, frontier[:, None, :]], axis=2)
        level = level.reshape(-1, start.shape[0])
        level_keys = level.view(row).ravel().tolist()
        fresh = []
        for r, key in enumerate(level_keys):
            if key not in seen:
                seen.add(key)
                fresh.append(r)
        keys.extend(level_keys[r] for r in fresh)
        parent, via = np.divmod(np.array(fresh, dtype=np.int64), k)
        frontier = level[fresh]
        gen_frontier = maps[via[:, None], gen_frontier[parent]]
        conj_frontier = rights[via, conj_frontier[parent]]
        members.append(frontier)
        gens.append(gen_frontier)
        conjugators.append(conj_frontier)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return SubgroupClass(
        h,
        np.concatenate(members)[order],
        np.concatenate(gens)[order],
        np.concatenate(conjugators)[order],
        [keys[i] for i in order],
        label,
    )


def conjugate_class(g: GroupTable, h: SubgroupHandle, label: str | None = None) -> SubgroupClass:
    """All distinct conjugates of h under g, checked against the
    orbit-stabilizer count |class| * |N_g(h)| = |g|."""
    cls = orbit_class(g, h, label)
    nsize = normalizer(g, h).shape[0]
    if cls.class_size * nsize != g.order:
        raise AssertionError(
            f"class size {cls.class_size} * normalizer {nsize} != group order {g.order}"
        )
    return cls
