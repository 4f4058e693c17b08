"""Arithmetic in G = S wr C_m and its covering subgroups.

Elements are (x_0, ..., x_{m-1}) shifted by gamma^k where gamma cycles the
m coordinates; the paper-facing 1..m subscripts map to 0..m-1 by i -> i-1,
and every subscript is reduced mod m.

Multiplication convention (pinned by the normalizer-oracle tests, do not
change independently):

    (x; k) * (y; j) = (z; k+j)   with   z[i] = x[i] * y[i+k]  (mod m)

Under this convention (x; k) normalizes M^{g_1} x ... x M^{g_m} exactly when
x[i-k] lies in g[i-k]^{-1} M g[i] for every i.  The opposite shift sign
satisfies the mirrored condition instead; the two agree at m = 2, so only
the m >= 3 oracle tests distinguish them.

That condition is the one membership model, and ``box_luts`` is its one
implementation.  At a fixed shift k it constrains each coordinate on its
own, so a product-type member is a box A_0 x ... x A_{m-1} with sides
A_a = g[a]^{-1} M g[a+k].  Two sides are cosets of M, A_0 = M g[k] and,
for k > 0, A_{m-k} = g[m-k]^{-1} M (at k = 0 both are M): ``box_luts``
reads them off the request's coset-minimum table and composes only the
others on image rows, so at m = 2, where the socle covers shift 0, cover
verification looks up no image row.  It stacks the sides of D members as
0/1 rows L[d, a, :].  The number of members containing a base tuple x is
sum_d prod_a L[d, a, x_a]: over the last two coordinates that is one matrix
product, and leading coordinates are fixed one value at a time, keeping
only the boxes that admit it (``box_coverage``, ``first_uncovered``).
|box_d & T| for a target mask T is one matrix product with the last sides
followed by one contraction per remaining coordinate
(``box_target_counts``).  Cover verification and explicit unbeatability
count this way and never build the |S|^m grid per member;
``product_type_mask`` reads one member's sides over a given grid.  The
ground truth for all of it, the normalizer of the explicit product subgroup
on n*m points, lives with the tests (``tests/oracles.py``).

The product-type family: over each member M of a cover of S there is one
product-type subgroup per tuple of m-1 right cosets of M, |S:M|^(m-1) of
them (``product_type_family``), and with the alpha(m) socle maximals they
number ``wreath_cover_upper_term``.  Coset minima come from one table per
request, ``coset_minima``: one batched pass over all members, whose rows
the family's coset representatives, a family file's descriptors and the
coset sides of ``box_luts`` all read.  The request passes it from call to
call and drops it when it returns; nothing caches it.  The constructive
cover, the explicit unbeatability family and its outsider sweep all come
from that generator.
A socle maximal is named by its prime r, a prime divisor of m: it is the
preimage of the index-r subgroup of C_m, the elements whose shift r divides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import InputError
from .cover import verify_cover_handles
from .formulas import alpha, prime_factors
from .groups import CLOSURE_BUDGET, GroupTable, SubgroupHandle, orbit_minima


@dataclass(frozen=True)
class WreathElement:
    """An m-tuple of base-group element ids plus a coordinate shift."""

    base: tuple[int, ...]
    shift: int

    def __post_init__(self):
        m = len(self.base)
        if not 0 <= self.shift < m:
            raise ValueError(f"shift {self.shift} not reduced mod {m}")


# EXPLICIT_CAP bounds m * |S|^m for every explicit request: a WreathContext
# is not made above it, so cover verification and explicit unbeatability
# fail there.  AUTO_EXPLICIT_LIMIT bounds it for an auto-mode unbeatability
# request, which is explicit up to it and symbolic above.
EXPLICIT_CAP = 10**8
AUTO_EXPLICIT_LIMIT = 10**7
# image rows composed, and table entries compared, at a time by ``box_luts``
ROW_CHUNK = 2**15
# a request's coset-minimum table: each member's row of right-coset minima
CosetMinima = dict[SubgroupHandle, np.ndarray]


def explicit_size(S: GroupTable, m: int) -> int:
    """m * |S|^m, the number of elements of S wr C_m."""
    return m * S.order**m


class WreathContext:
    """S wr C_m for a fixed enumerated S and exponent m, and the permit to
    enumerate it: the constructor refuses m < 1 (ValueError) and
    m * |S|^m > EXPLICIT_CAP (InputError), so no routine that takes a
    context checks either again."""

    def __init__(self, S: GroupTable, m: int):
        if m < 1:
            raise ValueError("m >= 1 required")
        size = explicit_size(S, m)
        if size > EXPLICIT_CAP:
            raise InputError(
                f"enumerating S wr C_m needs m*|S|^m = {size} <= {EXPLICIT_CAP}"
            )
        self.S = S
        self.m = m

    def base_grid(self) -> np.ndarray:
        """All |S|^m base tuples as an (|S|^m, m) id matrix, row-major."""
        o = self.S.order
        grids = np.meshgrid(*([np.arange(o)] * self.m), indexing="ij")
        return np.stack(grids, axis=-1).reshape(-1, self.m)


# -- product-type subgroups ---------------------------------------------------


@dataclass(frozen=True)
class ProductTypeDescriptor:
    """The normalizer of M x M^{g_2} x ... x M^{g_m}: a maximal subgroup M of
    S in the first slot plus m-1 coset labels (g_1 = identity implicitly).

    Coset entries are canonicalized to the minimum element id of M*g_i, so
    two descriptors denote the same subgroup exactly when they compare equal
    (M compares by its members, through ``SubgroupHandle``).
    ``product_type_family`` builds them in that form, and a descriptor read
    from outside takes its coset minima from M's row of ``coset_minima``.
    """

    M: SubgroupHandle
    cosets: tuple[int, ...]


def product_type_mask(
    ctx: WreathContext, d: ProductTypeDescriptor, base_grid: np.ndarray, shift: int
) -> np.ndarray:
    """Membership of the elements (base_grid[b]; shift) in one member, read
    off its ``box_luts`` sides, with a one-member ``coset_minima`` table
    made for the call.

    No pipeline calls it; it stays here because the benchmark's tracer
    wraps it, and the tests compare it with the normalizer oracle."""
    luts = box_luts(ctx, [d], shift, coset_minima([d.M]))[0] > 0  # row a: g[a]^{-1} M g[a+shift]
    mask = np.ones(base_grid.shape[0], dtype=bool)
    for a in range(ctx.m):
        mask &= luts[a][base_grid[:, a]]
    return mask


# -- counting over boxes --------------------------------------------------------


def box_luts(
    ctx: WreathContext,
    descriptors: Sequence[ProductTypeDescriptor],
    shift: int,
    minima: CosetMinima,
) -> np.ndarray:
    """The coordinate rows of every descriptor at one shift, stacked as a
    (D, m, |S|) float64 0/1 array: row (d, a) is g[a]^{-1} M g[a+shift].

    ``minima`` is the request's ``coset_minima`` table over the members.
    Two sides are cosets and come off it: a = 0 is the right coset
    M g[shift], the y with row[y] == row[g[shift]], and for shift > 0
    a = m - shift is g[a]^{-1} M, the y whose inverse lies in M g[a] (at
    shift 0 both are M).  They are written in blocks of ROW_CHUNK table
    entries, each descriptor's row compared with its coset's label, so a
    coset id need not be a minimum.  The other m - 2 sides (m - 1 at
    shift 0) are composed on image rows, ROW_CHUNK rows at a time, each
    by one flat gather from the image table, then packed and looked up."""
    S, m, n = ctx.S, ctx.m, ctx.S.order
    out = np.zeros((len(descriptors), m, n))
    if not descriptors:
        return out
    # the members' rows, one lookup per member object
    slots: dict[int, tuple[int, SubgroupHandle]] = {}
    row_of = np.array([slots.setdefault(id(d.M), (len(slots), d.M))[0] for d in descriptors])
    table = np.stack([minima[M] for _, M in slots.values()])
    gs = np.array([(0, *d.cosets) for d in descriptors])  # (D, m): g_0 = identity
    read = {0: (table, gs[:, shift])}
    if shift:
        read[m - shift] = (table[:, S.inv], gs[:, m - shift])
    step = max(1, ROW_CHUNK // n)
    for a, (labels, at) in read.items():
        coset = table[row_of, at]  # each descriptor's coset label
        for lo in range(0, len(descriptors), step):
            part = slice(lo, lo + step)
            np.equal(labels[row_of[part]], coset[part, None], out=out[part, a])
    composed = [a for a in range(1, m) if a + shift != m]
    if not composed:
        return out
    # one stacked row per (composed coordinate a, descriptor d, member x of d.M)
    sizes = [d.M.size for d in descriptors]
    owner = np.tile(np.repeat(np.arange(len(descriptors)), sizes), len(composed))
    coord = np.repeat(composed, sum(sizes))
    left = S.inv[gs[owner, coord]]
    right = gs[owner, (coord + shift) % m]
    x = np.tile(np.concatenate([d.M.member_ids for d in descriptors]), len(composed))
    # (g^{-1} x h)(q) = g^{-1}(x(h(q))): row y's entry p sits at y*degree + p,
    # and rows go in chunks that bound the gathers' index arrays
    images, degree = S.images.ravel(), S.degree
    ids = np.empty(x.shape[0], dtype=np.int64)
    for lo in range(0, x.shape[0], ROW_CHUNK):
        part = slice(lo, lo + ROW_CHUNK)
        rows = images[x[part, None] * degree + S.images[right[part]]]
        ids[part] = S.ids(images[left[part, None] * degree + rows])
    out[owner, coord, ids] = 1.0
    return out


def _count_blocks(luts: np.ndarray):
    """Yield the coverage counts sum_d prod_a luts[d, a, x_a] in row-major
    blocks over x: one GEMM per block of the last two coordinates, after
    fixing the leading ones and keeping only the boxes that admit them."""
    k = luts.shape[1]
    if k == 1:
        yield luts[:, 0].sum(axis=0)
    elif k == 2:
        yield luts[:, 0].T @ luts[:, 1]
    else:
        for x in range(luts.shape[2]):
            yield from _count_blocks(luts[luts[:, 0, x] > 0, 1:])


def box_coverage(luts: np.ndarray) -> np.ndarray:
    """For every base tuple in row-major order, the number of boxes that
    contain it (exact: float64 sums of 0/1 values far below 2^53)."""
    return np.concatenate([b.ravel() for b in _count_blocks(luts)]).astype(np.int64)


def first_uncovered(luts: np.ndarray) -> int | None:
    """The row-major index of the first base tuple in no box, or None;
    stops at the first block with a zero, never building the full grid."""
    offset = 0
    for block in _count_blocks(luts):
        first = int(block.argmin())  # the first least count, in row-major order
        if block.flat[first] == 0:
            return offset + first
        offset += block.size
    return None


def box_target_counts(luts: np.ndarray, target: np.ndarray) -> np.ndarray:
    """|box_d & T| for every box d, T a boolean mask over the row-major base
    grid: one GEMM with the last coordinate rows, then one contraction per
    remaining coordinate, in chunks of boxes to bound the working set."""
    D, m, n = luts.shape
    t = np.asarray(target, dtype=np.float64).reshape(n ** (m - 1), n)
    out = np.zeros(D, dtype=np.int64)
    chunk = max(1, (1 << 20) // n ** (m - 1))
    for lo in range(0, D, chunk):
        part = luts[lo : lo + chunk]
        acc = t @ part[:, m - 1].T  # (n^(m-1), d)
        for a in range(m - 2, -1, -1):
            acc = np.einsum("pxd,dx->pd", acc.reshape(-1, n, acc.shape[1]), part[:, a])
        out[lo : lo + chunk] = acc[0]
    return out


# -- the product-type family and the constructive cover ---------------------------


def coset_minima(members: Sequence[SubgroupHandle]) -> CosetMinima:
    """The coset-minimum table of subgroups of one S, keyed by member:
    entry x of M's row is the least id of the right coset M*x, in the
    narrowest unsigned type that holds an id.  A request makes one table,
    hands it to the family and to ``box_luts`` (which read their cosets
    and coset sides off it) and drops it when it returns; nothing keeps it
    beyond that.  M*x is the orbit of x under left multiplication by M's
    generators, so ``mul_many`` makes every generator's left map and one
    ``orbit_minima`` runs over the members side by side: point x of member
    r is r*|S| + x, and a member with fewer generators than the most steps
    through the identity.  As in ``groups.closures``, members go
    CLOSURE_BUDGET // |S| at a time, and so do the generators of one
    product of left maps, which bounds its temporaries."""
    if not members:
        return {}
    S = members[0].parent
    n = S.order
    step = max(1, CLOSURE_BUDGET // n)
    table = np.empty((len(members), n), dtype=np.min_scalar_type(n - 1))
    for lo in range(0, len(members), step):
        gens = [[x for x in M.generators if x != 0] for M in members[lo : lo + step]]
        rows = len(gens)
        owner = np.array([r for r, s in enumerate(gens) for _ in s], dtype=np.int64)
        slot = np.array([j for s in gens for j in range(len(s))], dtype=np.int64)
        flat = np.array([x for s in gens for x in s], dtype=np.int64)
        left = np.concatenate([
            S.mul_many(np.repeat(part, n), np.tile(np.arange(n), part.shape[0]))
            for part in np.split(flat, range(step, flat.shape[0], step))
        ])
        moves = np.tile(np.arange(rows * n), (max(map(len, gens)) or 1, 1))
        moves.reshape(-1, rows, n)[slot, owner] = left.reshape(-1, n) + owner[:, None] * n
        least = orbit_minima(list(moves), rows * n).reshape(rows, n)
        table[lo : lo + rows] = least - (np.arange(rows) * n)[:, None]
    return dict(zip(members, table))


def product_type_family(
    members: Sequence[SubgroupHandle], m: int, minima: CosetMinima
) -> list[ProductTypeDescriptor]:
    """Every product-type subgroup over each member M, in member order: one
    per tuple of m-1 right cosets of M, the tuples in lexicographic order of
    their ascending coset minima (already the canonical form), read off the
    request's ``coset_minima`` table, which ``box_luts`` reads again for
    the members' coset sides."""
    family = []
    for M in members:
        row = minima[M]
        reps = np.flatnonzero(row == np.arange(row.shape[0])).tolist()
        family.extend(ProductTypeDescriptor(M, c) for c in itertools.product(reps, repeat=m - 1))
    return family


def wreath_cover_upper_term(members: Sequence[SubgroupHandle], m: int) -> int:
    """The size of the family over the given members: alpha(m) socle
    maximals plus |S:M|^(m-1) product-type subgroups per member M."""
    return alpha(m) + sum(M.index ** (m - 1) for M in members)


def construct_product_cover(
    S: GroupTable, cover: Sequence[SubgroupHandle], m: int, minima: CosetMinima | None = None
) -> tuple[list[ProductTypeDescriptor], list[int]]:
    """The constructive covering family for S wr C_m from a covering of S:
    ``product_type_family`` over the cover plus the alpha(m) socle-containing
    maximals, named by their primes; ``wreath_cover_upper_term(cover, m)``
    subgroups in all.  ``minima`` is the request's ``coset_minima`` table
    over the cover, made here when not given.  The verified postcondition
    (at desk scale, via verify_wreath_cover) is that their union is all of
    S wr C_m."""
    ok, missing = verify_cover_handles(S, cover)
    if not ok:
        raise ValueError(f"family does not cover S: element id {missing} missed")
    if minima is None:
        minima = coset_minima(cover)
    return product_type_family(cover, m, minima), prime_factors(m)


def verify_wreath_cover(
    ctx: WreathContext,
    descriptors: Sequence[ProductTypeDescriptor],
    socle: Sequence[int],
    threads: int = 1,
    minima: CosetMinima | None = None,
) -> tuple[bool, WreathElement | None]:
    """Check that every element of S wr C_m lies in some family member;
    returns (ok, first uncovered witness in shift-major, row-major order).
    ``socle`` names the socle maximals by their primes.  Every shift not
    covered by a socle maximal is decided by counting boxes (see
    ``first_uncovered``).  ``minima`` is the request's ``coset_minima``
    table over the descriptors' members, made here when not given; at
    m = 2 the socle covers shift 0, and shift 1's sides all come off it.
    ``threads`` is accepted for compatibility and changes neither the work
    nor the result."""
    if minima is None:
        minima = coset_minima(list(dict.fromkeys(d.M for d in descriptors)))
    for shift in range(ctx.m):
        if any(shift % r == 0 for r in socle):
            continue  # covered by a socle-containing maximal
        idx = first_uncovered(box_luts(ctx, descriptors, shift, minima))
        if idx is not None:
            base = np.unravel_index(idx, (ctx.S.order,) * ctx.m)
            return False, WreathElement(tuple(int(x) for x in base), shift)
    return True, None
