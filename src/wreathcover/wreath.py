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

That condition is the one membership model.  At a fixed shift k it
constrains each coordinate on its own, so a product-type member is a box
A_0 x ... x A_{m-1} with sides A_a = g[a]^{-1} M g[a+k].  Two sides are
cosets of M, A_0 = M g[k] and, for k > 0, A_{m-k} = g[m-k]^{-1} M (at
k = 0 both are M).

Cover verification counts members.  At m = 2 every count is a count of
cosets and conjugates, and no box is built.  At shift 1 the member over M
on the coset M g holds (x0, x1; 1) exactly when M x0 = M g = M x1^{-1}, so
x0 x1 lies in M, and the rows x0 with the same cosets in the family share
one count over z = x0 x1 (``twisted_layer``); a row is read off the coset
table alone (``twisted_row``).  At shift 0 the member is M x M^g, and each
subgroup's conjugates are counted once (``strand_conjugates``).

At every other m the boxes do the counting.  ``box_luts`` reads the two
coset sides off the family's coset table and composes only the others on
image rows.  It stacks the sides of D members as 0/1 rows L[d, a, :].  The
number of members containing a base tuple x is sum_d prod_a L[d, a, x_a]:
over the last two coordinates that is one matrix product, and leading
coordinates are fixed one value at a time, keeping only the boxes that
admit them (``first_uncovered``), so the |S|^m grid is never built;
``product_type_mask`` reads the members' sides over a given grid.  The
ground truth for all of it, the normalizer of the explicit product
subgroup on n*m points, lives with the tests (``tests/oracles.py``), and
so do the box counts of an unbeatability target, the reference for
``unbeat``, which counts from element classes at every m and takes only
the permit and ``wreath_cover_upper_term`` from here.

A product-type family is one record, ``ProductTypeFamily``: its distinct
subgroups M, their ``coset_minima`` rows as one array, and for each member
the index of its subgroup and its m-1 coset minima.  Over each member M of
a cover of S there is one product-type subgroup per tuple of m-1 right
cosets of M, |S:M|^(m-1) of them (``product_type_family``), and with the
alpha(m) socle maximals they number ``wreath_cover_upper_term``.  A family
makes its coset table once, in one batched pass over the subgroups S has
no row for yet, and carries it: the family's coset representatives, a
family file's cosets, the m = 2 counts and the coset sides of ``box_luts``
all read it.  S keeps every row it has made, one per subgroup, so a later
family over the same subgroups in the same process makes none.  The
constructive cover comes from ``product_type_family``, and a family
file's reader makes its table the same way.
A socle maximal is named by its prime r, a prime divisor of m: it is the
preimage of the index-r subgroup of C_m, the elements whose shift r divides.
"""

from __future__ import annotations

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


# -- product-type subgroups ---------------------------------------------------


@dataclass(eq=False)
class ProductTypeFamily:
    """Product-type subgroups of S wr C_m, the normalizers of
    M x M^{g_2} x ... x M^{g_m}, and the coset table they are read off.

    Member d has M = subgroups[owner[d]] in the first slot (g_1 = identity
    implicitly) and cosets[d] = (g_2, ..., g_m), each the least id of its
    right coset M*g_i, so two members denote the same subgroup exactly when
    their subgroups and their cosets rows agree.  ``subgroups`` are
    distinct, and row r of ``minima`` is subgroups[r]'s ``coset_minima``
    row; the m = 2 counts and ``box_luts`` read the cosets off it.
    """

    subgroups: list[SubgroupHandle]
    minima: np.ndarray  # (len(subgroups), |S|)
    owner: np.ndarray  # (D,) int64
    cosets: np.ndarray  # (D, m - 1) int64


def product_type_mask(
    ctx: WreathContext, family: ProductTypeFamily, base_grid: np.ndarray, shift: int
) -> np.ndarray:
    """Membership of the elements (base_grid[b]; shift) in each member, as
    a (D, rows) boolean array read off the ``box_luts`` sides.

    No pipeline calls it; it stays here because the benchmark's tracer
    wraps it, and the tests compare it with the normalizer oracle."""
    luts = box_luts(ctx, family, shift) > 0  # row (d, a): g[a]^{-1} M g[a+shift]
    mask = np.ones((luts.shape[0], base_grid.shape[0]), dtype=bool)
    for a in range(ctx.m):
        mask &= luts[:, a][:, base_grid[:, a]]
    return mask


# -- counting over boxes --------------------------------------------------------


def box_luts(ctx: WreathContext, family: ProductTypeFamily, shift: int) -> np.ndarray:
    """The coordinate rows of every member at one shift, stacked as a
    (D, m, |S|) float64 0/1 array: row (d, a) is g[a]^{-1} M g[a+shift].

    Two sides are cosets and come off the family's ``minima``: a = 0 is
    the right coset M g[shift], the y with row[y] == row[g[shift]], and for
    shift > 0 a = m - shift is g[a]^{-1} M, the y whose inverse lies in
    M g[a] (at shift 0 both are M).  They are written in blocks of
    ROW_CHUNK table entries, each member's row compared with its coset's
    label, so a coset id need not be a minimum.  The other m - 2 sides
    (m - 1 at shift 0) are composed on image rows, ROW_CHUNK rows at a
    time, each by one flat gather from the image table, then packed and
    looked up."""
    S, m, n = ctx.S, ctx.m, ctx.S.order
    table, owner = family.minima, family.owner
    D = owner.shape[0]
    out = np.zeros((D, m, n))
    if not D:
        return out
    gs = np.pad(family.cosets, ((0, 0), (1, 0)))  # (D, m): g_0 = identity
    read = {0: (table, gs[:, shift])}
    if shift:
        read[m - shift] = (table[:, S.inv], gs[:, m - shift])
    step = max(1, ROW_CHUNK // n)
    for a, (labels, at) in read.items():
        coset = table[owner, at]  # each member's coset label
        for lo in range(0, D, step):
            part = slice(lo, lo + step)
            np.equal(labels[owner[part]], coset[part, None], out=out[part, a])
    composed = [a for a in range(1, m) if a + shift != m]
    if not composed:
        return out
    # one stacked row per (composed coordinate a, member d, element x of its M)
    sizes = np.array([M.size for M in family.subgroups])[owner]
    member = np.tile(np.repeat(np.arange(D), sizes), len(composed))
    coord = np.repeat(composed, sizes.sum())
    left = S.inv[gs[member, coord]]
    right = gs[member, (coord + shift) % m]
    elements = [M.member_ids for M in family.subgroups]
    x = np.tile(np.concatenate([elements[r] for r in owner.tolist()]), len(composed))
    # (g^{-1} x h)(q) = g^{-1}(x(h(q))): row y's entry p sits at y*degree + p,
    # and rows go in chunks that bound the gathers' index arrays
    images, degree = S.images.ravel(), S.degree
    ids = np.empty(x.shape[0], dtype=np.int64)
    for lo in range(0, x.shape[0], ROW_CHUNK):
        part = slice(lo, lo + ROW_CHUNK)
        rows = images[x[part, None] * degree + S.images[right[part]]]
        ids[part] = S.ids(images[left[part, None] * degree + rows])
    out[member, coord, ids] = 1.0
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


# -- m = 2 from coset and class counts -------------------------------------------


def twisted_layer(family: ProductTypeFamily, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How many members hold each element (x0, x1; 1) of S wr C_2, grouped
    by row.  (x0, x1; 1) lies in member (M, Mg) exactly when M x0 = Mg =
    M x1^{-1}, so the count is sum_M w_M(x0) [x0 x1 in M], w_M(x0) the
    number of members over M on the coset M x0.  Returns (weights, rows,
    counts): weights[r, x0] is w for subgroups[r], and the rows x0 with
    equal weights form one group whose count is counts[p, z] at z = x0 x1
    and whose least row is rows[p].  A family that holds each coset once
    has one group, and its count is the number of its subgroups holding z.
    Members are distinct, so every weight is 0 or 1: the rows are grouped
    by their weights packed into bits, and the counts, at most
    len(subgroups), are exact in the float64 product."""
    minima = family.minima.reshape(-1, n).astype(np.int64)
    held = np.bincount(
        family.owner * n + minima[family.owner, family.cosets[:, 0]],
        minlength=minima.size,
    )
    weights = np.take_along_axis(held.reshape(minima.shape), minima, axis=1)
    if (weights == weights[:, :1]).all():  # a whole family: no column sort
        rows = np.zeros(1, dtype=np.int64)
    else:
        bits = np.packbits(weights.astype(bool), axis=0).T.copy()  # one row per x0
        columns = bits.view(np.dtype((np.void, bits.shape[1]))).ravel()
        _, rows = np.unique(columns, return_index=True)
    counts = weights[:, rows].T.astype(np.float64) @ (minima == 0)
    return weights, rows, counts.astype(np.int64)


def twisted_row(S: GroupTable, family: ProductTypeFamily, weights: np.ndarray, x0: int) -> np.ndarray:
    """The count of ``twisted_layer`` along row x0, one entry per x1, read
    off the coset table: M x0 = M x1^{-1} and no product is formed."""
    minima = family.minima.reshape(-1, S.order)
    return weights[:, x0] @ (minima[:, S.inv] == minima[:, [x0]])


def strand_conjugates(S: GroupTable, family: ProductTypeFamily) -> np.ndarray:
    """At shift 0 of S wr C_2 member (M, Mg) is M x M^g, M^g = g^{-1} M g:
    entry (r, y) is the number of members over subgroups[r] whose M^g
    holds y, so sum_r [x0 in subgroups[r]] * entry (r, x1) members hold
    (x0, x1; 0)."""
    n, owner = S.order, family.owner
    size = len(family.subgroups) * n
    if not owner.shape[0]:
        return np.zeros((len(family.subgroups), n), dtype=np.int64)
    # one entry per (member, element of its M)
    sizes = np.array([M.size for M in family.subgroups])[owner]
    g = np.repeat(family.cosets[:, 0], sizes)
    x = np.concatenate([family.subgroups[r].member_ids for r in owner.tolist()])
    y = S.mul_many(S.mul_many(S.inv[g], x), g)
    return np.bincount(np.repeat(owner, sizes) * n + y, minlength=size).reshape(-1, n)


# -- the product-type family and the constructive cover ---------------------------


def coset_minima(members: Sequence[SubgroupHandle]) -> np.ndarray:
    """The coset-minimum table of subgroups of one S, one row per member in
    order: entry x of a member M's row is the least id of the right coset
    M*x, in the narrowest unsigned type that holds an id.  A family makes
    its table once, through ``product_type_family`` or a family file's
    reader, and carries it.  S keeps each row it has made, read only, in
    ``S.coset_rows`` by the subgroup's canonical key, so two handles of
    one subgroup share a row, only the missing rows are made, and the
    table returned is a fresh stack of the kept rows.  M*x is the orbit of
    x under left multiplication by M's generators, so ``mul_many`` makes
    every generator's left map and one ``orbit_minima`` runs over the
    missing subgroups side by side: point x of subgroup r is r*|S| + x,
    and one with fewer generators than the most steps through the
    identity.  As in ``groups.closures``, subgroups go CLOSURE_BUDGET //
    |S| at a time, and so do the generators of one product of left maps,
    which bounds its temporaries."""
    if not members:
        return np.empty((0, 0), dtype=np.uint8)
    S = members[0].parent
    n = S.order
    step = max(1, CLOSURE_BUDGET // n)
    keys = [M.canonical_key for M in members]
    missing = list({k: M for k, M in zip(keys, members) if k not in S.coset_rows}.items())
    for lo in range(0, len(missing), step):
        batch = missing[lo : lo + step]
        gens = [[x for x in M.generators if x != 0] for _, M in batch]
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
        table = (least - (np.arange(rows) * n)[:, None]).astype(np.min_scalar_type(n - 1))
        table.flags.writeable = False
        S.coset_rows.update(zip([k for k, _ in batch], table))
    return np.stack([S.coset_rows[k] for k in keys])


def product_type_family(members: Sequence[SubgroupHandle], m: int) -> ProductTypeFamily:
    """Every product-type subgroup over each of the distinct subgroups
    ``members``, in member order: one per tuple of m-1 right cosets of M,
    the tuples in lexicographic order of their ascending coset minima
    (already the canonical form), read off the ``coset_minima`` table that
    the family is made with and carries.  Member j of a subgroup with k
    cosets takes the m-1 base-k digits of j, most significant first, as
    indices into its ascending minima."""
    minima = coset_minima(members)
    is_min = minima == np.arange(minima.shape[1])
    k = is_min.sum(axis=1)
    reps = np.nonzero(is_min)[1]  # each row's minima, ascending, row after row
    per = k ** (m - 1)
    owner = np.repeat(np.arange(minima.shape[0]), per)
    j = np.arange(owner.shape[0]) - np.repeat(np.cumsum(per) - per, per)
    base, start = k[owner], (np.cumsum(k) - k)[owner]
    cosets = np.empty((owner.shape[0], m - 1), dtype=np.int64)
    for a in range(m - 1):
        cosets[:, a] = reps[start + j // base ** (m - 2 - a) % base]
    return ProductTypeFamily(list(members), minima, owner, cosets)


def wreath_cover_upper_term(members: Sequence[SubgroupHandle], m: int) -> int:
    """The size of the family over the given members: alpha(m) socle
    maximals plus |S:M|^(m-1) product-type subgroups per member M."""
    return alpha(m) + sum(M.index ** (m - 1) for M in members)


def construct_product_cover(
    S: GroupTable, cover: Sequence[SubgroupHandle], m: int
) -> tuple[ProductTypeFamily, list[int]]:
    """The constructive covering family for S wr C_m from a covering of S:
    ``product_type_family`` over the cover plus the alpha(m) socle-containing
    maximals, named by their primes; ``wreath_cover_upper_term(cover, m)``
    subgroups in all.  The verified postcondition (at desk scale, via
    verify_wreath_cover) is that their union is all of S wr C_m."""
    ok, missing = verify_cover_handles(S, cover)
    if not ok:
        raise ValueError(f"family does not cover S: element id {missing} missed")
    return product_type_family(cover, m), prime_factors(m)


def verify_wreath_cover(
    ctx: WreathContext, family: ProductTypeFamily, socle: Sequence[int], threads: int = 1
) -> tuple[bool, WreathElement | None]:
    """Check that every element of S wr C_m lies in some family member;
    returns (ok, first uncovered witness in shift-major, row-major order).
    ``socle`` names the socle maximals by their primes.  Every shift not
    covered by a socle maximal is decided by counting: at m = 2 from
    cosets and conjugates (``_verify_m2``), otherwise over boxes (see
    ``first_uncovered``).  ``threads`` is accepted for compatibility and
    changes neither the work nor the result."""
    if ctx.m == 2:
        return _verify_m2(ctx.S, family, socle)
    return _verify_boxes(ctx, family, socle)


def _verify_boxes(
    ctx: WreathContext, family: ProductTypeFamily, socle: Sequence[int]
) -> tuple[bool, WreathElement | None]:
    """``verify_wreath_cover`` over boxes, shift by shift: its path for
    m != 2, and the reference the m = 2 count path is tested against."""
    for shift in range(ctx.m):
        if any(shift % r == 0 for r in socle):
            continue  # covered by a socle-containing maximal
        idx = first_uncovered(box_luts(ctx, family, shift))
        if idx is not None:
            base = np.unravel_index(idx, (ctx.S.order,) * ctx.m)
            return False, WreathElement(tuple(int(x) for x in base), shift)
    return True, None


def _verify_m2(
    S: GroupTable, family: ProductTypeFamily, socle: Sequence[int]
) -> tuple[bool, WreathElement | None]:
    """``verify_wreath_cover`` at m = 2, from counts.  Shift 0, when no
    socle maximal covers it, goes through ``first_uncovered`` with one
    box per subgroup, its M against the ``strand_conjugates`` row.  At
    shift 1 a group of ``twisted_layer`` rows is covered when its count
    misses no z, and the first row that is not gives the witness along
    ``twisted_row``: no image row is looked up there."""
    n = S.order
    if 2 not in socle:
        inside = family.minima.reshape(-1, n) == 0  # x in subgroups[r]
        sides = np.stack([inside, strand_conjugates(S, family)], axis=1)
        idx = first_uncovered(sides.astype(np.float64))
        if idx is not None:
            return False, WreathElement(divmod(idx, n), 0)
    weights, rows, counts = twisted_layer(family, n)
    missed = rows[(counts == 0).any(axis=1)]
    if not missed.shape[0]:
        return True, None
    x0 = int(missed.min())
    x1 = int(np.argmin(twisted_row(S, family, weights, x0)))  # the first zero
    return False, WreathElement((x0, x1), 1)
