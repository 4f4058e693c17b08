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
A_0 x ... x A_{m-1} with sides A_a = g[a]^{-1} M g[a+k]: the y with
M g[a] y = M g[a+k], so every side is read off the cosets of M.

Cover verification settles a whole family from its subgroups alone.  A
shift k prime to m is one strand: walking a = 0, k, 2k, ... fixes each
coset M g[a+k] = M g[a] x[a] in turn, so (x; k) lies in a member over M
exactly when the strand product x_0 x_k x_2k ... lies in M, and then in
the one member on those cosets.  A family with every coset tuple over
each of its subgroups and the socle maximal of every prime of m (every
other shift lies in one) therefore covers S wr C_m exactly when its
subgroups cover S, the identity included.

Any other family, such as a family file with cosets or a socle line
missing, is checked over boxes.  ``box_luts`` reads every side off the
family's coset table, after one ``mul_many`` for the left maps
y -> g[a] y, and stacks the sides of D members as 0/1 rows L[d, a, :].
The number of members containing a base tuple x is
sum_d prod_a L[d, a, x_a]: over the last two coordinates that is one
matrix product, and leading coordinates are fixed one value at a time,
keeping only the boxes that admit them (``first_uncovered``), so the
|S|^m grid is never built; ``product_type_mask`` reads the members' sides
over a given grid.  The ground truth for all of it, the normalizer of the
explicit product subgroup on n*m points, lives with the tests
(``tests/oracles.py``), and so do the box counts of an unbeatability
target, the reference for ``unbeat``, which counts from element classes
at every m and takes only ``wreath_cover_upper_term`` from here.

A product-type family is one record, ``ProductTypeFamily``: its distinct
subgroups M, their ``coset_minima`` rows as one array, and for each member
the index of its subgroup and its m-1 coset minima.  Over each member M of
a cover of S there is one product-type subgroup per tuple of m-1 right
cosets of M, |S:M|^(m-1) of them (``product_type_family``), and with the
alpha(m) socle maximals they number ``wreath_cover_upper_term``.  A family
makes its coset table once, in one batched pass over the subgroups S has
no row for yet, and carries it: the family's coset representatives, a
family file's cosets and the sides of ``box_luts`` all read it.  S keeps
every row it has made, one per subgroup, so a later family over the same
subgroups in the same process makes none.  The constructive cover comes
from ``product_type_family``, and a family file's reader makes its table
the same way.
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


# EXPLICIT_CAP bounds m * |S|^m for the cover requests: a WreathContext is
# not made above it, so construct-cover and verify-cover refuse there.
# Explicit unbeatability counts from element classes and takes no context.
# AUTO_EXPLICIT_LIMIT bounds m * |S|^m for an auto-mode unbeatability
# request, which is explicit up to it and symbolic above.
EXPLICIT_CAP = 10**8
AUTO_EXPLICIT_LIMIT = 10**7


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
    row; ``box_luts`` reads the cosets off it.  Members are distinct too:
    ``product_type_family`` makes them so and ``parse_descriptor_lines``
    refuses a repeat, so ``verify_wreath_cover`` knows a family is whole
    from its count of members over each subgroup.
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
    (D, m, |S|) float64 0/1 array: row (d, a) is g[a]^{-1} M g[a+shift],
    the y with M g[a] y = M g[a+shift].  Each is read off the member's
    ``minima`` row, so a coset id need not be a minimum: side 0 (g[0] is
    the identity) compares the row as it is, and the others read it
    through the left maps y -> g y of their distinct g, one ``mul_many``."""
    S, m, n = ctx.S, ctx.m, ctx.S.order
    D = family.owner.shape[0]
    out = np.zeros((D, m, n))
    if not D:
        return out
    rows = family.minima[family.owner]  # (D, |S|): each member's coset labels
    gs = np.concatenate([np.zeros((D, 1), dtype=np.int64), family.cosets], axis=1)  # g_0 = identity
    labels = np.take_along_axis(rows, np.roll(gs, -shift, axis=1), axis=1)  # M g[a+shift]
    np.equal(rows, labels[:, :1], out=out[:, 0])
    if m == 1:
        return out
    g, at = np.unique(family.cosets, return_inverse=True)
    left = S.mul_many(np.repeat(g, n), np.tile(np.arange(n), g.shape[0])).reshape(-1, n)
    flat, start = rows.ravel(), (np.arange(D) * n)[:, None]  # row d starts at d*|S|
    for a, at_a in enumerate(at.reshape(D, m - 1).T, 1):
        np.equal(flat[start + left[at_a]], labels[:, a, None], out=out[:, a])
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
    ``socle`` names the socle maximals by their primes.  A whole family,
    |S:M|^(m-1) members over each subgroup M and the socle maximal of
    every prime of m, covers exactly when its subgroups cover S (see the
    module docstring); else (0, ..., 0, z; 1 mod m) is the first miss, z
    the least element in no subgroup.  Any other family goes through
    ``_verify_boxes``.  ``threads`` is accepted for compatibility and
    changes neither the work nor the result."""
    S, m = ctx.S, ctx.m
    members = np.bincount(family.owner, minlength=len(family.subgroups)).tolist()
    if set(prime_factors(m)) <= set(socle) and members == [
        M.index ** (m - 1) for M in family.subgroups
    ]:
        ok, z = verify_cover_handles(S, family.subgroups, np.arange(S.order))
        return ok, None if ok else WreathElement((0,) * (m - 1) + (z,), 1 % m)
    return _verify_boxes(ctx, family, socle)


def _verify_boxes(
    ctx: WreathContext, family: ProductTypeFamily, socle: Sequence[int]
) -> tuple[bool, WreathElement | None]:
    """``verify_wreath_cover`` over boxes, shift by shift: every shift
    that no socle maximal holds is counted by ``first_uncovered``.  It
    takes any family, and the tests check the whole-family path against
    it."""
    for shift in range(ctx.m):
        if any(shift % r == 0 for r in socle):
            continue  # covered by a socle-containing maximal
        idx = first_uncovered(box_luts(ctx, family, shift))
        if idx is not None:
            base = np.unravel_index(idx, (ctx.S.order,) * ctx.m)
            return False, WreathElement(tuple(int(x) for x in base), shift)
    return True, None
