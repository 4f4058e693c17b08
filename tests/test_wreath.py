import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wreathcover.formulas import alpha
from wreathcover.perm import Perm
from wreathcover.wreath import (
    ProductTypeDescriptor,
    SocleMaximal,
    WreathContext,
    WreathElement,
    box_coverage,
    box_luts,
    box_target_counts,
    construct_product_cover,
    coset_representatives,
    normalizes_product_subgroup,
    product_subgroup_perm_keys,
    product_type_contains,
    product_type_mask,
    socle_maximals,
    verify_wreath_cover,
)


@pytest.fixture(scope="module")
def ctx2(a5):
    return WreathContext(a5.table, 2)


@pytest.fixture(scope="module")
def ctx3(a5):
    return WreathContext(a5.table, 3)


def random_descriptors(cg, m, count, rng):
    out = []
    labels = sorted(cg.classes_by_label())
    for _ in range(count):
        cls = cg.classes_by_label()[labels[int(rng.integers(0, len(labels)))]]
        M = cls.conjugates[int(rng.integers(0, cls.class_size))]
        cosets = tuple(int(rng.integers(0, cg.table.order)) for _ in range(m - 1))
        out.append(ProductTypeDescriptor.create(M, cosets))
    return out


def test_identity_and_inverse(ctx2):
    e = ctx2.identity()
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = ctx2.random_element(rng)
        assert ctx2.mul(e, w) == w
        assert ctx2.mul(w, e) == w
        assert ctx2.mul(w, ctx2.inv(w)) == e
        assert ctx2.mul(ctx2.inv(w), w) == e


def test_realization_is_homomorphism(ctx2, ctx3):
    rng = np.random.default_rng(1)
    for ctx in (ctx2, ctx3):
        for _ in range(150):
            a, b = ctx.random_element(rng), ctx.random_element(rng)
            assert ctx.to_perm(ctx.mul(a, b)) == ctx.to_perm(a) * ctx.to_perm(b)


def test_square_of_shifted_element(ctx2, a5):
    # ((s, 1); shift 1)^2 accumulates the base product into each slot
    s = a5.table.id_of(Perm.from_cycles("(1 2 3 4 5)", 5))
    w = ctx2.element([s, 0], 1)
    sq = ctx2.mul(w, w)
    assert sq.shift == 0
    assert sq.base == (s, s)
    # and matches the 10-point permutation arithmetic
    assert ctx2.to_perm(sq) == ctx2.to_perm(w) * ctx2.to_perm(w)


def test_membership_trivialities(ctx2, a5):
    rng = np.random.default_rng(2)
    descs = random_descriptors(a5, 2, 5, rng)
    e = ctx2.identity()
    for d in descs:
        assert product_type_contains(ctx2, e, d)


def _oracle_agrees(ctx, d, ws):
    keys = product_subgroup_perm_keys(ctx, d)
    bases = np.array([w.base for w in ws])
    shifts = np.array([w.shift for w in ws])
    slow = normalizes_product_subgroup(ctx, bases, shifts, keys)
    return [product_type_contains(ctx, w, d) for w in ws] == slow.tolist()


def test_oracle_equivalence_sample_m2(ctx2, a5):
    rng = np.random.default_rng(3)
    descs = random_descriptors(a5, 2, 6, rng)
    for d in descs:
        assert _oracle_agrees(ctx2, d, [ctx2.random_element(rng) for _ in range(250)])


def test_oracle_equivalence_sample_m3(ctx3, a5):
    rng = np.random.default_rng(4)
    descs = random_descriptors(a5, 3, 4, rng)
    for d in descs:
        assert _oracle_agrees(ctx3, d, [ctx3.random_element(rng) for _ in range(120)])


def test_oracle_rejects_more_than_16_points(a5):
    # A5 wr C_4 acts on 20 points; 20^19 > 2^64, so packed keys would wrap
    M = a5.classes_by_label()["S3"].representative
    d = ProductTypeDescriptor.create(M, (0, 0, 0))
    with pytest.raises(ValueError, match="degree <= 16"):
        product_subgroup_perm_keys(WreathContext(a5.table, 4), d)


def test_membership_count_matches_coset_structure(ctx2, a5):
    # each shift layer of the normalizer has exactly |M|^m elements
    rng = np.random.default_rng(5)
    (d,) = random_descriptors(a5, 2, 1, rng)
    grid = ctx2.base_grid()
    for shift in (0, 1):
        assert int(product_type_mask(ctx2, d, grid, shift).sum()) == d.M.size**2


def test_mask_agrees_with_scalar_membership(ctx2, a5):
    rng = np.random.default_rng(6)
    (d,) = random_descriptors(a5, 2, 1, rng)
    grid = ctx2.base_grid()
    for shift in (0, 1):
        mask = product_type_mask(ctx2, d, grid, shift)
        idx = rng.integers(0, grid.shape[0], size=200)
        for i in idx.tolist():
            w = WreathElement(tuple(int(x) for x in grid[i]), shift)
            assert bool(mask[i]) == product_type_contains(ctx2, w, d)


def test_descriptor_canonicalization(ctx2, a5):
    g = a5.table
    cls = a5.classes_by_label()["A4"]
    M = cls.representative
    g2 = 17
    coset = g.mul_right(M.member_ids, g2)
    d1 = ProductTypeDescriptor.create(M, (g2,))
    d2 = ProductTypeDescriptor.create(M, (int(coset[3]),))
    assert d1 == d2 and hash(d1) == hash(d2)
    # different cosets give distinguishable subgroups
    other = next(
        x for x in range(g.order) if x not in set(coset.tolist())
    )
    d3 = ProductTypeDescriptor.create(M, (other,))
    assert d1 != d3
    grid = ctx2.base_grid()
    diff = product_type_mask(ctx2, d1, grid, 1) != product_type_mask(ctx2, d3, grid, 1)
    assert bool(diff.any())


def test_socle_maximals():
    assert socle_maximals(1) == []
    assert [s.r for s in socle_maximals(12)] == [2, 3]
    assert [s.r for s in socle_maximals(30)] == [2, 3, 5]
    s2 = SocleMaximal(2)
    assert s2.contains(WreathElement((0, 0, 0, 0), 2))
    assert not s2.contains(WreathElement((0, 0, 0, 0), 1))


def test_coset_representatives(a5):
    M = a5.classes_by_label()["D10"].representative
    reps = coset_representatives(M)
    assert len(reps) == 6
    assert reps[0] == 0
    seen = set()
    for r in reps:
        coset = frozenset(a5.table.mul_right(M.member_ids, r).tolist())
        assert coset not in seen
        seen.add(coset)


def test_construct_cover_m1_returns_family(a5):
    cover = [cls.representative for cls in a5.maximal_classes]
    # A4 + D10 + S3 representatives do not cover A5; pick the full classes
    cover = [h for cls in a5.maximal_classes for h in cls.conjugates]
    descs, socle = construct_product_cover(a5.table, cover, 1)
    assert len(descs) == len(cover) and socle == []


def test_construct_cover_counts_and_verify(a5, ctx2):
    cover = [h for cls in a5.maximal_classes for h in cls.conjugates]
    descs, socle = construct_product_cover(a5.table, cover, 2)
    assert len(descs) == sum(h.index for h in cover)
    assert len(socle) == alpha(2) == 1
    ok, witness = verify_wreath_cover(ctx2, descs, socle)
    assert ok and witness is None


def test_verify_cover_finds_witness(a5, ctx2):
    # a MINIMAL cover has no redundancy, so dropping any member uncovers
    from wreathcover.cover import build_instance, sigma_exact

    inst = build_instance(a5.table, a5.maximal_classes)
    cert = sigma_exact(inst)
    by_label = dict(zip(inst.labels, inst.handles))
    cover = [by_label[lab] for lab in cert.chosen]
    descs, socle = construct_product_cover(a5.table, cover, 2)
    ok, witness = verify_wreath_cover(ctx2, descs[1:], socle)
    assert not ok and witness is not None
    assert not any(product_type_contains(ctx2, witness, d) for d in descs[1:])
    assert product_type_contains(ctx2, witness, descs[0])


def test_non_covering_family_rejected(a5):
    from wreathcover.wreath import CoverInputError

    with pytest.raises(CoverInputError):
        construct_product_cover(a5.table, [a5.maximal_classes[0].representative], 2)


def test_thread_count_does_not_change_result(a5, ctx2):
    cover = [h for cls in a5.maximal_classes for h in cls.conjugates]
    descs, socle = construct_product_cover(a5.table, cover, 2)
    r1 = verify_wreath_cover(ctx2, descs, socle, threads=1)
    r4 = verify_wreath_cover(ctx2, descs, socle, threads=4)
    assert r1 == r4


# -- the box kernel against the grid masks ----------------------------------------


@pytest.fixture(scope="module")
def oracle_grid(a5, psl7):
    """Row-major base grids, built once per (group, m) and kept as uint8
    (PSL(2,7) at m = 3 has 4.7 million rows)."""
    groups = {"A5": a5, "PSL(2,7)": psl7}
    grids = {}

    def get(name, m):
        if (name, m) not in grids:
            ctx = WreathContext(groups[name].table, m)
            grids[name, m] = (ctx, ctx.base_grid().astype(np.uint8))
        return groups[name], grids[name, m]

    return get


def _min_cover(cg):
    from wreathcover.cover import build_instance, sigma_exact

    inst = build_instance(cg.table, cg.maximal_classes)
    by_label = dict(zip(inst.labels, inst.handles))
    return [by_label[lab] for lab in sigma_exact(inst).chosen]


@pytest.mark.parametrize(
    "group,m", [(g, m) for g in ("A5", "PSL(2,7)") for m in (1, 2, 3)]
)
@settings(max_examples=2, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    with_socle=st.booleans(),
    drop=st.integers(-1, 2),
)
@example(seed=0, with_socle=True, drop=0)  # the whole family: covered
@example(seed=1, with_socle=True, drop=1)  # one member short: a deep witness
def test_box_kernel_matches_masks(oracle_grid, group, m, seed, with_socle, drop):
    cg, (ctx, grid) = oracle_grid(group, m)
    rng = np.random.default_rng(seed)
    # the constructive family less `drop` random members (drop = -1: a
    # random part of it), plus random conjugates and cosets when drop != 0;
    # at most about 7e7 mask rows per shift
    family, _ = construct_product_cover(cg.table, _min_cover(cg), m)
    size = len(family) - drop if drop >= 0 else int(rng.integers(0, len(family) + 1))
    size = min(size, 7 * 10**7 // grid.shape[0])
    picked = sorted(rng.choice(len(family), size=size, replace=False).tolist())
    descs = [family[i] for i in picked]
    if drop:
        descs += random_descriptors(cg, m, int(rng.integers(0, 3)), rng)
    socle = socle_maximals(m) if with_socle else []

    expected_witness = None
    for shift in range(m):
        masks = [product_type_mask(ctx, d, grid, shift) for d in descs]
        counts = np.zeros(grid.shape[0], dtype=np.int64)
        for mask in masks:
            counts += mask
        luts = box_luts(ctx, descs, shift)
        assert np.array_equal(box_coverage(luts), counts)
        target = rng.random(grid.shape[0]) < rng.random()
        assert box_target_counts(luts, target).tolist() == [
            int((mask & target).sum()) for mask in masks
        ]
        if expected_witness is None and not any(shift % s.r == 0 for s in socle):
            zeros = np.flatnonzero(counts == 0)
            if zeros.shape[0]:
                row = tuple(int(x) for x in grid[zeros[0]])
                expected_witness = WreathElement(row, shift)
    ok, witness = verify_wreath_cover(ctx, descs, socle)
    assert witness == expected_witness and ok == (witness is None)


def test_a5_wr_c4_constructive_cover(a5, monkeypatch):
    # 60^4 base tuples per shift: verification counts boxes, never the grid
    def no_grid(self):
        raise AssertionError("verify_wreath_cover built the base grid")

    monkeypatch.setattr(WreathContext, "base_grid", no_grid)
    start = time.perf_counter()
    ctx4 = WreathContext(a5.table, 4)
    descs, socle = construct_product_cover(a5.table, _min_cover(a5), 4)
    assert (len(descs), [s.r for s in socle]) == (1796, [2])
    assert verify_wreath_cover(ctx4, descs, socle) == (True, None)
    # the minimal cover has no redundancy: dropping a member uncovers an
    # element that lies in that member and in no other
    ok, witness = verify_wreath_cover(ctx4, descs[1:], socle)
    assert not ok and witness.shift % 2 == 1
    assert product_type_contains(ctx4, witness, descs[0])
    assert not any(product_type_contains(ctx4, witness, d) for d in descs[1:])
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"A5 wr C_4 verification took {elapsed:.1f}s (budget 30s)"
