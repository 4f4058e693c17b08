"""Reference implementations that the tests compare the program with.

None of this is on a pipeline's path.  Each oracle computes its answer
another way than the code it checks:

* ``compose`` multiplies two ``Perm`` image tables directly, the reference
  for ``GroupTable.mul_many``;
* ``mul``, ``inv``, ``random_element``, ``perm_images`` and ``to_perm`` are
  the element arithmetic of S wr C_m and its imprimitive action on n*m
  points, for the homomorphism tests;
* ``product_subgroup_perm_keys`` and ``normalizes_product_subgroup`` decide
  membership in the normalizer of a product subgroup by conjugating its
  explicit element set, the ground truth for ``wreath.product_type_mask``
  and the box kernels;
* ``box_sides`` composes every side g[a]^{-1} M g[a+k] of a product-type
  member one element at a time, as ``Perm`` products named by
  ``GroupTable.id_of``, the reference for ``wreath.box_luts``, which reads
  the coset sides off a coset-minimum table and composes the rest;
* ``base_grid``, ``box_coverage``, ``box_target_counts``, ``target_masks``,
  ``member_label`` and ``box_counts`` count explicit unbeatability over
  the whole base grid: the target as masks, every member of the family and
  of the outsider sweep as a box, the reference for
  ``unbeat._class_counts``, which counts from element classes alone;
* ``coset_representatives`` and ``coset_minimum`` take one right coset
  M*x at a time as the product of M's members with x, the reference for
  ``wreath.coset_minima``, the family's representatives and the cosets
  read from a family file;
* ``sequential_orbit`` walks a conjugation orbit one member at a time, the
  reference for the level-by-level walk of ``groups.orbit_class``;
* ``orbit_reps_walk`` walks the conjugation orbit of one subgroup after
  another, the reference for the label propagation of
  ``lattice._orbit_reps``;
* ``exhaustive_min_cover`` is an unbounded iterative-deepening search, the
  reference for ``cover.sigma_exact``;
* ``LEMMA_SIDES`` maps each lemma of ``formulas.LEMMAS`` to its two sides
  computed with ``Fraction`` arithmetic, the reference for the checkers'
  integer pairs.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial
from typing import Optional, Sequence

import numpy as np

from wreathcover.formulas import (
    _an_order,
    _imprimitive_order,
    _smallest_divisor_above_2,
    alpha,
    is_prime,
    prime_factors,
    smallest_prime_factor,
)
from wreathcover.groups import (
    GroupTable,
    SubgroupClass,
    SubgroupHandle,
    _pack,
    conjugates_holding,
)
from wreathcover.perm import Perm
from wreathcover.unbeat import SeedInstance
from wreathcover.wreath import (
    ProductTypeFamily,
    WreathContext,
    WreathElement,
    _count_blocks,
    box_luts,
    product_type_family,
)


def compose(p: Perm, q: Perm) -> Perm:
    """Product applying ``q`` first, then ``p``."""
    return Perm(p.images[i] for i in q.images)


# -- S wr C_m element arithmetic --------------------------------------------


def mul(ctx: WreathContext, a: WreathElement, b: WreathElement) -> WreathElement:
    """(x; k) * (y; j) = (z; k+j) with z[i] = x[i] * y[i+k]."""
    m = ctx.m
    if len(a.base) != m or len(b.base) != m:
        raise ValueError("element does not match this wreath context")
    k = a.shift
    z = ctx.S.mul_many(np.array(a.base), np.roll(np.array(b.base), -k))
    return WreathElement(tuple(z.tolist()), (a.shift + b.shift) % m)


def inv(ctx: WreathContext, a: WreathElement) -> WreathElement:
    m, k = ctx.m, a.shift
    y = tuple(int(ctx.S.inv[a.base[(i - k) % m]]) for i in range(m))
    return WreathElement(y, (-k) % m)


def random_element(ctx: WreathContext, rng) -> WreathElement:
    base = tuple(int(rng.integers(0, ctx.S.order)) for _ in range(ctx.m))
    return WreathElement(base, int(rng.integers(0, ctx.m)))


def perm_images(ctx: WreathContext, bases: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Image rows, (B, n*m), of the elements (bases[b]; shifts[b]) in the
    imprimitive action on m blocks of S's points: block c maps to block
    c-k, the destination block applying its base coordinate (the unique
    direction making this a homomorphism for this mul)."""
    n, m = ctx.S.degree, ctx.m
    dest = (np.arange(m) - np.asarray(shifts)[:, None]) % m  # (B, m)
    coords = np.take_along_axis(np.asarray(bases, dtype=np.int64), dest, axis=1)
    rows = ctx.S.images[coords].astype(np.int64) + (dest * n)[:, :, None]
    return rows.reshape(dest.shape[0], n * m)


def to_perm(ctx: WreathContext, w: WreathElement) -> Perm:
    return Perm(perm_images(ctx, np.array([w.base]), np.array([w.shift]))[0].tolist())


# -- the normalizer oracle ----------------------------------------------------


def product_subgroup_perm_keys(
    ctx: WreathContext, M: SubgroupHandle, cosets: Sequence[int]
) -> np.ndarray:
    """Sorted packed keys of the explicit element set of
    M^{g_1} x ... x M^{g_m}, g = (identity, *cosets), realized on n*m
    points (n*m <= 16, else ValueError)."""
    S, m, n = ctx.S, ctx.m, ctx.S.degree
    slots = [S.conj_map(int(g))[M.member_ids] for g in (0, *cosets)]
    ids = np.stack(np.meshgrid(*slots, indexing="ij"), axis=-1).reshape(-1, m)
    # slot c's member acts on block c, points c*n .. c*n + n-1
    rows = S.images[ids].astype(np.int64) + (np.arange(m) * n)[:, None]
    return np.sort(_pack(rows.reshape(ids.shape[0], n * m), n * m))


def normalizes_product_subgroup(
    ctx: WreathContext, bases: np.ndarray, shifts: np.ndarray, subgroup_keys: np.ndarray
) -> np.ndarray:
    """Ground truth for product-type membership, for the elements
    (bases[b]; shifts[b]): conjugate the explicit element set H of the
    product subgroup by the explicit permutation of each element and compare
    as sets.  One boolean per element.  A fixed random sample of H is
    conjugated first: an element that moves a sampled member outside H is
    settled (False), and only the others conjugate all of H, in blocks that
    bound the working set."""
    N = ctx.S.degree * ctx.m
    rows = _unpack_keys(subgroup_keys, N)  # (K, N)
    sample = rows[np.random.default_rng(0).permutation(rows.shape[0])[:16]]
    w = perm_images(ctx, bases, shifts)  # (B, N)
    keep = np.concatenate([
        lo + np.flatnonzero(
            np.isin(_conjugate_keys(sample, w[lo : lo + 4096]), subgroup_keys).all(axis=1)
        )
        for lo in range(0, len(w), 4096)
    ])
    out = np.zeros(len(w), dtype=bool)
    step = max(1, (1 << 20) // rows.size)
    for lo in range(0, len(keep), step):
        idx = keep[lo : lo + step]
        conj = np.sort(_conjugate_keys(rows, w[idx]), axis=1)
        out[idx] = (conj == subgroup_keys).all(axis=1)
    return out


def _conjugate_keys(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Packed keys, (B, K), of w_b^-1 * p_k * w_b for image rows p (K, N)
    and w (B, N), applied pointwise: w_b^-1[p_k[w_b[j]]]."""
    B, N = w.shape
    w_inv = np.argsort(w, axis=1).ravel()
    p_w = rows.T[w] + (np.arange(B) * N)[:, None, None]  # (B, N, K): p_k[w_b[j]]
    conj = w_inv[p_w].transpose(0, 2, 1).reshape(-1, N)
    return _pack(conj, N).reshape(B, -1)


def _unpack_keys(keys: np.ndarray, degree: int) -> np.ndarray:
    out = np.empty((keys.shape[0], degree), dtype=np.int64)
    rem = keys.astype(np.uint64).copy()
    for pos in range(degree - 1, -1, -1):
        out[:, pos] = (rem % np.uint64(degree)).astype(np.int64)
        rem //= np.uint64(degree)
    return out


# -- conjugation orbits, one member at a time ------------------------------------


def sequential_orbit(g: GroupTable, member_ids: np.ndarray, elements: Sequence[int], generators):
    """The orbit of the subgroup with the given sorted ids and generators
    under conjugation by ``elements``, one member at a time, each expanded
    by the elements in order: its members, keys, generator images and
    conjugators in the order reached.  A member reached from one with
    conjugator c by element x has conjugator c*x."""
    maps = [g.conj_map(x) for x in elements]
    start = np.asarray(member_ids, dtype=np.int64)
    members, keys, conjugators = [start], [start.tobytes()], [0]
    gens = [np.asarray(generators, dtype=np.int64)]
    seen = set(keys)
    for i, cur in enumerate(members):
        for x, cm in zip(elements, maps):
            nxt = np.sort(cm[cur])
            if nxt.tobytes() not in seen:
                seen.add(nxt.tobytes())
                members.append(nxt)
                keys.append(nxt.tobytes())
                gens.append(cm[gens[i]])
                conjugators.append(int(g.mul_many(conjugators[i], x)))
    return members, keys, gens, conjugators


def orbit_reps_walk(g: GroupTable, cls: SubgroupClass, elements: Sequence[int]):
    """One representative per orbit of conjugation by ``elements`` on the
    subgroups of a class: the first conjugate in canonical-key order that
    no earlier orbit walk has visited."""
    reps = []
    visited: set[bytes] = set()
    for h in cls.conjugates:
        if h.canonical_key in visited:
            continue
        reps.append(h)
        visited.update(sequential_orbit(g, h.member_ids, elements, h.generators)[1])
    return reps


def box_sides(ctx: WreathContext, family: ProductTypeFamily, shift: int) -> np.ndarray:
    """The (D, m, |S|) 0/1 sides of the family's members at one shift: row
    (d, a) holds the ids of g[a]^{-1} x g[a+shift] over the members x of
    M = subgroups[owner[d]], g = (identity, *cosets[d]), each a ``Perm``
    product looked up by ``id_of``; the family's coset table is not read.
    A side is composed once per (M, g[a], g[a+shift])."""
    S, m = ctx.S, ctx.m
    sides: dict = {}
    out = np.zeros((len(family.owner), m, S.order))
    for i, (r, cosets) in enumerate(zip(family.owner.tolist(), family.cosets.tolist())):
        M, g = family.subgroups[r], (0, *cosets)
        for a in range(m):
            key = (r, g[a], g[(a + shift) % m])
            if key not in sides:
                left, right = S.perm(key[1]).images, S.perm(key[2])
                inverse = Perm(sorted(range(S.degree), key=left.__getitem__))
                sides[key] = [
                    S.id_of(compose(inverse, compose(S.perm(x), right)))
                    for x in M.member_ids.tolist()
                ]
            out[i, a, sides[key]] = 1.0
    return out


# -- explicit unbeatability over boxes ------------------------------------------


def base_grid(ctx: WreathContext) -> np.ndarray:
    """All |S|^m base tuples as an (|S|^m, m) id matrix, row-major."""
    o = ctx.S.order
    grids = np.meshgrid(*([np.arange(o)] * ctx.m), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, ctx.m)


def box_coverage(luts: np.ndarray) -> np.ndarray:
    """For every base tuple in row-major order, the number of boxes that
    contain it (exact: float64 sums of 0/1 values far below 2^53)."""
    return np.concatenate([b.ravel() for b in _count_blocks(luts)]).astype(np.int64)


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


def member_label(classes: Sequence[SubgroupClass], family: ProductTypeFamily, j: int) -> str:
    """Member j of the family over every conjugate of the classes, in class
    order, labelled ``base[i][c_2, ..., c_m]`` by its first slot, conjugate
    i of class base, and its coset minima."""
    i = int(family.owner[j])
    for cls in classes:
        if i < cls.class_size:
            return f"{cls.base_label}[{i}]{family.cosets[j].tolist()}"
        i -= cls.class_size
    raise IndexError(j)


def target_masks(inst: SeedInstance, grid: np.ndarray) -> dict[int, np.ndarray]:
    """The target set as boolean masks over the base grid, keyed by shift in
    ascending order: the twisted layer at shift 1 % m (the whole strand
    product in the seed) and, for each prime r dividing m, the strand layer
    at shift r % m (its two strand products in the seed elements of two
    different family classes)."""
    S, m, seed_lut = inst.S, inst.m, inst.in_seed

    def strand_product(step: int, t: int) -> np.ndarray:
        return functools.reduce(S.mul_many, grid[:, t::step].T)

    masks = {1 % m: seed_lut[strand_product(1, 0)]}
    class_unions = [(conjugates_holding(S, [cls]) > 0) & seed_lut for cls in inst.seed_classes]
    for r in prime_factors(m):
        p0, p1 = strand_product(r, 0), strand_product(r, 1)
        mask = np.zeros(grid.shape[0], dtype=bool)
        for a, lut_a in enumerate(class_unions):
            for b, lut_b in enumerate(class_unions):
                if a != b:
                    mask |= lut_a[p0] & lut_b[p1]
        masks[r % m] = mask  # r is prime, so r % m != 1
    return dict(sorted(masks.items()))


def box_counts(inst: SeedInstance, ctx: WreathContext, family: ProductTypeFamily) -> tuple:
    """Explicit unbeatability's counts over boxes and target masks, one
    pass over the target's shifts, ascending: at each, the family's target
    hits and coverage (the socle maximals add whole layers), the first U2
    and U3 witness rows, and the target hits of the outsider sweep, the
    product-type family over the maximal classes outside the family.
    Returns the member counts (products, then the socle maximals), the
    label of the first member with none, the target size, the witnesses
    and the largest outsider with its label: the reference for
    ``unbeat._class_counts``."""
    grid = base_grid(ctx)
    outside = inst.outside_classes()
    sweep = product_type_family([M for cls in outside for M in cls.conjugates], ctx.m)
    socle = prime_factors(ctx.m)
    n_products = len(family.owner)

    # products are counted as boxes, socle maximals as whole shift layers
    member_counts = np.zeros(n_products + len(socle), dtype=np.int64)
    outsider_counts = np.zeros(len(sweep.owner), dtype=np.int64)
    target_size = 0
    witnesses: dict[str, dict] = {}  # condition -> its first failing row
    for shift, tmask in target_masks(inst, grid).items():
        layer_size = int(tmask.sum())
        target_size += layer_size
        luts = box_luts(ctx, family, shift)
        member_counts[:n_products] += box_target_counts(luts, tmask)
        counts = box_coverage(luts)
        del luts  # the outsiders' rows come next; never hold both
        for j, r in enumerate(socle):
            if shift % r == 0:
                member_counts[n_products + j] += layer_size
                counts += 1
        for name, bad in (("U2", counts == 0), ("U3", counts > 1)):
            rows = np.flatnonzero(tmask & bad)
            if rows.shape[0] and name not in witnesses:
                witnesses[name] = {"shift": shift, "base": grid[rows[0]].tolist()}
        outsider_counts += box_target_counts(box_luts(ctx, sweep, shift), tmask)

    empty = None
    zeros = np.flatnonzero(member_counts == 0)
    if zeros.shape[0]:
        j = int(zeros[0])  # products first, then the socle maximals
        empty = (
            member_label(inst.seed_classes, family, j)
            if j < n_products
            else f"socle[{socle[j - n_products]}]"
        )
    outsider = (0, None)
    if outsider_counts.shape[0] and outsider_counts.max() > 0:
        best = int(np.argmax(outsider_counts))  # first maximum, in sweep order
        outsider = (int(outsider_counts[best]), member_label(outside, sweep, best))
    return member_counts, empty, target_size, witnesses, outsider


# -- right cosets, one at a time -----------------------------------------------


def coset_minimum(M: SubgroupHandle, x: int) -> int:
    """The least id of the right coset M*x, from all of its products."""
    return int(M.parent.mul_many(M.member_ids, int(x)).min())


def coset_representatives(M: SubgroupHandle) -> list[int]:
    """The least id of each right coset M*x, ascending: walk the ids in
    order and mark the whole coset of each one not marked yet."""
    g = M.parent
    assigned = np.zeros(g.order, dtype=bool)
    reps = []
    for x in range(g.order):
        if assigned[x]:
            continue
        reps.append(x)
        assigned[g.mul_many(M.member_ids, x)] = True
    return reps


# -- the exact-cover oracle ---------------------------------------------------


def exhaustive_min_cover(
    masks: Sequence[int], full_mask: int, max_size: int
) -> Optional[tuple[int, tuple[int, ...]]]:
    """Independent oracle: iterative-deepening exhaustive search over index
    subsets in lexicographic order.  Returns (size, indices) of a minimum
    cover of size <= max_size, or None if none exists.  No bounding beyond
    skipping candidates that add nothing."""
    n = len(masks)

    found: Optional[tuple[int, ...]] = None

    def dfs(start: int, remaining: int, acc: int, picked: list[int]) -> bool:
        nonlocal found
        if acc == full_mask:
            found = tuple(picked)
            return True
        if remaining == 0 or start >= n:
            return False
        for i in range(start, n):
            if masks[i] & ~acc == 0:
                continue
            picked.append(i)
            if dfs(i + 1, remaining - 1, acc | masks[i], picked):
                return True
            picked.pop()
        return False

    for k in range(1, max_size + 1):
        if dfs(0, k, 0, []):
            return k, found
    return None


# -- the lemma-side oracle ----------------------------------------------------
# Each lemma's two sides as Fraction expressions, the reference for the
# integer pairs that the checkers of ``formulas.LEMMAS`` return.


def min_target(n: int, m: int) -> Fraction:
    """The smallest certified family-member intersection count."""
    if n % 2 == 1:
        p = smallest_prime_factor(n)
        return Fraction(_imprimitive_order(n, p) ** m, 2 ** (m - 1) * n)
    if n % 4 == 0:
        h = n // 2
        return Fraction(
            factorial(h - 2)
            * factorial(h)
            * (Fraction(factorial(h - 1) * factorial(h + 1), 2) ** (m - 1))
        )
    h = n // 2
    return Fraction(factorial(h - 1) ** 2 * factorial(h) ** (2 * m - 2), 2 ** (m - 1))


def lemma_min_member(n: int, m: int):
    if n < 5 or m < 1:
        return None
    an = Fraction(_an_order(n))
    if n % 2 == 1:
        if is_prime(n):
            return None
        lhs = min_target(n, m)
        rhs = Fraction(2, n * (n - 2)) * an**m
    else:
        lhs = min_target(n, m)
        rhs = Fraction(4, 3 * (n - 1) * (n - 3)) * an**m
    return lhs, rhs


def lemma_diagonal(n: int, m: int):
    if m < 2 or n < 5:
        return None
    if n % 2 == 1:
        p = smallest_prime_factor(n)
        if is_prime(n) or p**3 > n:
            return None
    elif n % 4 == 0:
        if n <= 8:
            return None
    else:
        if n <= 10:
            return None
    lhs_sq = Fraction((1 + alpha(m)) ** 2) * Fraction(factorial(n), 2) ** m
    rhs_sq = min_target(n, m) ** 2
    return lhs_sq, rhs_sq


def lemma_divisor_monotone(n: int, a: int, b: int):
    if n < 8 or a > b or n % a or n % b:
        return None
    if a <= 1 or b >= n:
        return None
    if n % 2 == 0 and a != smallest_prime_factor(n):
        return None
    lhs = _imprimitive_order(n, a)
    rhs = _imprimitive_order(n, b)
    return lhs, rhs


def lemma_small_block(n: int):
    if n <= 10 or n % 2:
        return None
    a = _smallest_divisor_above_2(n)
    if a is None:
        return None
    lhs = n * _imprimitive_order(n, a)
    rhs = 2 * factorial(n // 2) ** 2
    return lhs, rhs


def lemma_imprimitive_product(n: int, m: int):
    if n <= 10 or n % 2 or m < 2:
        return None
    a = _smallest_divisor_above_2(n)
    if a is None:
        return None
    lhs = Fraction(1 + alpha(m)) * Fraction(_imprimitive_order(n, a), 2) ** m
    rhs = min_target(n, m)
    return lhs, rhs


def lemma_primitive_bound(n: int, m: int):
    if n <= 12 or m < 2:
        return None
    if n % 2 == 1:
        p = smallest_prime_factor(n)
        if is_prime(n) or p**3 > n:
            return None
    lhs = Fraction(1 + alpha(m)) * Fraction(13, 5) ** (n * m)
    rhs = min_target(n, m)
    return lhs, rhs


def lemma_power_of_two_vs_index(n: int):
    if n < 15 or n % 2 == 0 or is_prime(n):
        return None
    p = smallest_prime_factor(n)
    lhs = 2 ** (n - 1)
    rhs = Fraction(factorial(n), _imprimitive_order(n, p))
    return lhs, rhs


def lemma_power_of_two_vs_primitive(n: int, m: int):
    if n <= 12 or n % 2 == 0 or m < 2:
        return None
    lhs = Fraction(2) ** (n * m - 2) * Fraction(13, 5) ** (n * m)
    rhs = Fraction(factorial(n - 1) * factorial(n) ** (m - 1))
    return lhs, rhs


def lemma_power_of_two_vs_diagonal(n: int, m: int):
    if n <= 12 or n % 2 == 0 or m < 2:
        return None
    lhs_sq = 2 ** (2 * n * m - m - 4)
    rhs_sq = factorial(n - 1) ** 2 * factorial(n) ** (m - 2)
    return lhs_sq, rhs_sq


# lemma key -> its sides as exact values, or None outside the hypothesis
LEMMA_SIDES = {
    "min-member": lemma_min_member,
    "diagonal": lemma_diagonal,
    "divisor-monotone": lemma_divisor_monotone,
    "small-block": lemma_small_block,
    "imprimitive-product": lemma_imprimitive_product,
    "primitive-bound": lemma_primitive_bound,
    "power-vs-index": lemma_power_of_two_vs_index,
    "power-vs-primitive": lemma_power_of_two_vs_primitive,
    "power-vs-diagonal": lemma_power_of_two_vs_diagonal,
}
