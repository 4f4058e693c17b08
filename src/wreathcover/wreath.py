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
A_a = g[a]^{-1} M g[a+k].  ``box_luts`` stacks the sides of D members as
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
number ``wreath_cover_upper_term``.  The constructive cover, the explicit
unbeatability family and its outsider sweep all come from that generator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .cover import verify_cover_handles
from .formulas import alpha, prime_factors
from .groups import GroupTable, SubgroupHandle, _pack


@dataclass(frozen=True)
class WreathElement:
    """An m-tuple of base-group element ids plus a coordinate shift."""

    base: tuple[int, ...]
    shift: int

    def __post_init__(self):
        m = len(self.base)
        if not 0 <= self.shift < m:
            raise ValueError(f"shift {self.shift} not reduced mod {m}")


class WreathContext:
    """S wr C_m for a fixed enumerated S and exponent m."""

    def __init__(self, S: GroupTable, m: int):
        if m < 1:
            raise ValueError("m >= 1 required")
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
    two descriptors denote the same subgroup exactly when they compare equal.
    ``product_type_family`` builds them in that form; ``create`` canonicalizes
    arbitrary coset labels, for descriptors read from outside.
    """

    M: SubgroupHandle
    cosets: tuple[int, ...]

    @staticmethod
    def create(M: SubgroupHandle, cosets: Sequence[int]) -> "ProductTypeDescriptor":
        g = M.parent
        canon = tuple(int(g.mul_right(M.member_ids, int(c)).min()) for c in cosets)
        return ProductTypeDescriptor(M, canon)

    @property
    def m(self) -> int:
        return len(self.cosets) + 1

    def slot_gs(self) -> list[int]:
        return [0, *self.cosets]

    def key(self) -> tuple:
        return (self.M.canonical_key, self.cosets)

    def __eq__(self, other):
        return isinstance(other, ProductTypeDescriptor) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def product_type_mask(
    ctx: WreathContext, d: ProductTypeDescriptor, base_grid: np.ndarray, shift: int
) -> np.ndarray:
    """Membership of the elements (base_grid[b]; shift) in one member, read
    off its ``box_luts`` sides.

    No pipeline calls it; it stays here because the benchmark's tracer
    wraps it, and the tests compare it with the normalizer oracle and the
    box kernels with it."""
    luts = box_luts(ctx, [d], shift)[0] > 0  # row a: g[a]^{-1} M g[a+shift]
    mask = np.ones(base_grid.shape[0], dtype=bool)
    for a in range(ctx.m):
        mask &= luts[a][base_grid[:, a]]
    return mask


# -- counting over boxes --------------------------------------------------------


def box_luts(
    ctx: WreathContext, descriptors: Sequence[ProductTypeDescriptor], shift: int
) -> np.ndarray:
    """The coordinate rows of every descriptor at one shift, stacked as a
    (D, m, |S|) float64 0/1 array: row (d, a) is g[a]^{-1} M g[a+shift].
    Both multiplications are composed on image rows for all descriptors
    and coordinates at once, then packed and looked up once."""
    S, m = ctx.S, ctx.m
    out = np.zeros((len(descriptors), m, S.order))
    if not descriptors:
        return out
    for d in descriptors:
        if d.m != m:
            raise ValueError(f"descriptor is for m={d.m}, context m={m}")
    # one stacked row per (coordinate a, descriptor d, member x of d.M)
    member_ids = [d.M.member_ids for d in descriptors]
    sizes = [ids.shape[0] for ids in member_ids]
    owner = np.tile(np.repeat(np.arange(len(descriptors)), sizes), m)
    coord = np.repeat(np.arange(m), sum(sizes))
    gs = np.array([d.slot_gs() for d in descriptors])  # (D, m)
    left = S.inv[gs[owner, coord]]
    right = gs[owner, (coord + shift) % m]
    # (g^{-1} x h)(q) = g^{-1}(x(h(q))) on image rows
    rows = np.take_along_axis(
        np.tile(S.images[np.concatenate(member_ids)], (m, 1)), S.images[right], axis=1
    )
    rows = np.take_along_axis(S.images[left], rows, axis=1)
    out[owner, coord, S._lookup(_pack(rows, S.degree))] = 1.0
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
        zeros = np.flatnonzero(block.ravel() == 0)
        if zeros.shape[0]:
            return offset + int(zeros[0])
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


# -- socle-containing maximal subgroups ----------------------------------------


@dataclass(frozen=True)
class SocleMaximal:
    """The preimage of the index-r subgroup of C_m, r a prime divisor of m:
    contains exactly the elements whose shift is divisible by r."""

    r: int


def socle_maximals(m: int) -> list[SocleMaximal]:
    """One socle-containing maximal subgroup per prime divisor of m;
    alpha(m) of them."""
    if m < 1:
        raise ValueError("m >= 1 required")
    return [SocleMaximal(r) for r in prime_factors(m)]


# -- the product-type family and the constructive cover ---------------------------

# the largest m * |S|^m that explicit verification and unbeatability enumerate
EXPLICIT_CAP = 10**8


class CoverInputError(ValueError):
    """The supplied family does not cover the base group."""


def coset_representatives(M: SubgroupHandle) -> list[int]:
    """Deterministic right-coset representatives of M in its parent: the
    minimum element id of each coset M*g, ascending."""
    g = M.parent
    assigned = np.zeros(g.order, dtype=bool)
    reps = []
    for x in range(g.order):
        if assigned[x]:
            continue
        reps.append(x)
        assigned[g.mul_right(M.member_ids, x)] = True
    return reps


def product_type_family(
    members: Iterable[SubgroupHandle], m: int
) -> Iterator[ProductTypeDescriptor]:
    """Every product-type subgroup over each member M, in member order: one
    per tuple of m-1 right cosets of M, the tuples in lexicographic order of
    their ascending coset minima (already the canonical form)."""
    for M in members:
        reps = coset_representatives(M)
        for combo in itertools.product(reps, repeat=m - 1):
            yield ProductTypeDescriptor(M, combo)


def wreath_cover_upper_term(members: Sequence[SubgroupHandle], m: int) -> int:
    """The size of the family over the given members: alpha(m) socle
    maximals plus |S:M|^(m-1) product-type subgroups per member M."""
    return alpha(m) + sum(M.index ** (m - 1) for M in members)


def construct_product_cover(
    S: GroupTable, cover: Sequence[SubgroupHandle], m: int
) -> tuple[list[ProductTypeDescriptor], list[SocleMaximal]]:
    """The constructive covering family for S wr C_m from a covering of S:
    ``product_type_family`` over the cover plus the alpha(m) socle-containing
    maximals, ``wreath_cover_upper_term(cover, m)`` subgroups in all.  The
    verified postcondition (at desk scale, via verify_wreath_cover) is that
    their union is all of S wr C_m."""
    ok, missing = verify_cover_handles(S, cover)
    if not ok:
        raise CoverInputError(f"family does not cover S: element id {missing} missed")
    return list(product_type_family(cover, m)), socle_maximals(m)


def verify_wreath_cover(
    ctx: WreathContext,
    descriptors: Sequence[ProductTypeDescriptor],
    socle: Sequence[SocleMaximal],
    threads: int = 1,
) -> tuple[bool, WreathElement | None]:
    """Check that every element of S wr C_m lies in some family member;
    returns (ok, first uncovered witness in shift-major, row-major order).
    Requires m * |S|^m <= EXPLICIT_CAP.  Every shift not covered by a socle
    maximal is decided by counting boxes (see ``first_uncovered``).
    ``threads`` is accepted for compatibility and changes neither the work
    nor the result."""
    total = ctx.m * ctx.S.order**ctx.m
    if total > EXPLICIT_CAP:
        raise CoverInputError(
            f"exhaustive verification needs m*|S|^m = {total} <= {EXPLICIT_CAP}"
        )
    for shift in range(ctx.m):
        if any(shift % s.r == 0 for s in socle):
            continue  # covered by a socle-containing maximal
        idx = first_uncovered(box_luts(ctx, descriptors, shift))
        if idx is not None:
            base = np.unravel_index(idx, (ctx.S.order,) * ctx.m)
            return False, WreathElement(tuple(int(x) for x in base), shift)
    return True, None
