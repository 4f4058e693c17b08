import dataclasses
import json
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wreathcover.formulas import alpha, prime_factors
from wreathcover.groups import GroupTable, subgroup_closure
from wreathcover.perm import Perm
from wreathcover.pipelines import load_group
from wreathcover.wreath import (
    ProductTypeFamily,
    WreathContext,
    WreathElement,
    _verify_boxes,
    box_luts,
    construct_product_cover,
    coset_minima,
    product_type_family,
    product_type_mask,
    verify_wreath_cover,
)

from oracles import (
    base_grid,
    box_coverage,
    box_sides,
    box_target_counts,
    compose,
    coset_minimum,
    coset_representatives,
    inv,
    mul,
    normalizes_product_subgroup,
    product_subgroup_perm_keys,
    random_element,
    to_perm,
)


@pytest.fixture(scope="module")
def ctx2(a5):
    return WreathContext(a5.table, 2)


@pytest.fixture(scope="module")
def ctx3(a5):
    return WreathContext(a5.table, 3)


def family_of(members, m):
    """The family of the given (M, coset labels) members, in order, each
    coset label canonicalized off the family's table."""
    subgroups = list(dict.fromkeys(M for M, _ in members))
    minima = coset_minima(subgroups)
    owner = np.array([subgroups.index(M) for M, _ in members], dtype=np.int64)
    cosets = np.array([minima[r][list(c)] for r, (_, c) in zip(owner, members)], dtype=np.int64)
    return ProductTypeFamily(subgroups, minima, owner, cosets.reshape(len(members), m - 1))


def create(M, cosets):
    """The one-member family over M with the given coset labels."""
    return family_of([(M, cosets)], len(cosets) + 1)


def member(family, j):
    """Member j of a family as (M, its coset minima)."""
    return family.subgroups[family.owner[j]], tuple(family.cosets[j].tolist())


def take(family, keep):
    """The members ``keep`` (an index array or slice) of a family, on the
    same subgroups and coset table."""
    return dataclasses.replace(family, owner=family.owner[keep], cosets=family.cosets[keep])


def random_members(cg, m, count, rng):
    """(M, raw coset labels) of random members: a random conjugate of a
    random class, and random ids."""
    out = []
    labels = sorted(cg.classes_by_label())
    for _ in range(count):
        cls = cg.classes_by_label()[labels[int(rng.integers(0, len(labels)))]]
        M = cls.conjugates[int(rng.integers(0, cls.class_size))]
        cosets = tuple(int(rng.integers(0, cg.table.order)) for _ in range(m - 1))
        out.append((M, cosets))
    return out


def random_descriptors(cg, m, count, rng):
    """One-member families over ``random_members``."""
    return [create(M, cosets) for M, cosets in random_members(cg, m, count, rng)]


def test_identity_and_inverse(ctx2):
    e = WreathElement((0, 0), 0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = random_element(ctx2, rng)
        assert mul(ctx2, e, w) == w
        assert mul(ctx2, w, e) == w
        assert mul(ctx2, w, inv(ctx2, w)) == e
        assert mul(ctx2, inv(ctx2, w), w) == e


def test_realization_is_homomorphism(ctx2, ctx3):
    rng = np.random.default_rng(1)
    for ctx in (ctx2, ctx3):
        for _ in range(150):
            a, b = random_element(ctx, rng), random_element(ctx, rng)
            assert to_perm(ctx, mul(ctx, a, b)) == compose(to_perm(ctx, a), to_perm(ctx, b))


def test_square_of_shifted_element(ctx2, a5):
    # ((s, 1); shift 1)^2 accumulates the base product into each slot
    s = a5.table.id_of(Perm.from_cycles("(1 2 3 4 5)", 5))
    w = WreathElement((s, 0), 1)
    sq = mul(ctx2, w, w)
    assert sq.shift == 0
    assert sq.base == (s, s)
    # and matches the 10-point permutation arithmetic
    assert to_perm(ctx2, sq) == compose(to_perm(ctx2, w), to_perm(ctx2, w))


def test_membership_trivialities(ctx2, a5):
    rng = np.random.default_rng(2)
    descs = random_descriptors(a5, 2, 5, rng)
    identity_row = np.zeros((1, 2), dtype=np.int64)
    for d in descs:
        assert product_type_mask(ctx2, d, identity_row, 0).tolist() == [[True]]


def _masks(ctx, d, bases, shifts):
    """``product_type_mask`` of the elements (bases[b]; shifts[b]), one
    call per shift."""
    out = np.zeros(len(bases), dtype=bool)
    for shift in range(ctx.m):
        rows = shifts == shift
        out[rows] = product_type_mask(ctx, d, bases[rows], shift)[0]
    return out


def _oracle_agrees(ctx, d, ws):
    keys = product_subgroup_perm_keys(ctx, *member(d, 0))
    bases = np.array([w.base for w in ws])
    shifts = np.array([w.shift for w in ws])
    slow = normalizes_product_subgroup(ctx, bases, shifts, keys)
    return np.array_equal(_masks(ctx, d, bases, shifts), slow)


def test_oracle_equivalence_sample_m2(ctx2, a5):
    rng = np.random.default_rng(3)
    descs = random_descriptors(a5, 2, 6, rng)
    for d in descs:
        assert _oracle_agrees(ctx2, d, [random_element(ctx2, rng) for _ in range(250)])


def test_oracle_equivalence_sample_m3(ctx3, a5):
    rng = np.random.default_rng(4)
    descs = random_descriptors(a5, 3, 4, rng)
    for d in descs:
        assert _oracle_agrees(ctx3, d, [random_element(ctx3, rng) for _ in range(120)])


def test_oracle_rejects_more_than_16_points(a5):
    # A5 wr C_4 acts on 20 points; 20^19 > 2^64, so packed keys would wrap
    M = a5.classes_by_label()["S3"].representative
    with pytest.raises(ValueError, match="degree <= 16"):
        product_subgroup_perm_keys(WreathContext(a5.table, 4), M, (0, 0, 0))


def test_membership_count_matches_coset_structure(ctx2, a5):
    # each shift layer of the normalizer has exactly |M|^m elements
    rng = np.random.default_rng(5)
    (d,) = random_descriptors(a5, 2, 1, rng)
    grid = base_grid(ctx2)
    for shift in (0, 1):
        assert int(product_type_mask(ctx2, d, grid, shift).sum()) == d.subgroups[0].size ** 2


def test_grid_mask_agrees_with_normalizer_oracle(ctx2, a5):
    # the mask over the whole grid, read at sampled rows, against the
    # normalizer oracle at those rows
    rng = np.random.default_rng(6)
    (d,) = random_descriptors(a5, 2, 1, rng)
    grid = base_grid(ctx2)
    keys = product_subgroup_perm_keys(ctx2, *member(d, 0))
    for shift in (0, 1):
        mask = product_type_mask(ctx2, d, grid, shift)[0]
        idx = rng.integers(0, grid.shape[0], size=200)
        shifts = np.full(idx.shape[0], shift)
        assert np.array_equal(
            mask[idx], normalizes_product_subgroup(ctx2, grid[idx], shifts, keys)
        )


def test_descriptor_canonicalization(ctx2, a5):
    g = a5.table
    cls = a5.classes_by_label()["A4"]
    M = cls.representative
    g2 = 17
    coset = g.mul_many(M.member_ids, g2)
    d1 = create(M, (g2,))
    d2 = create(M, (int(coset[3]),))
    assert member(d1, 0) == member(d2, 0) == (M, (int(coset.min()),))
    # different cosets give distinguishable subgroups
    other = next(
        x for x in range(g.order) if x not in set(coset.tolist())
    )
    d3 = create(M, (other,))
    assert member(d1, 0) != member(d3, 0)
    grid = base_grid(ctx2)
    diff = product_type_mask(ctx2, d1, grid, 1) != product_type_mask(ctx2, d3, grid, 1)
    assert bool(diff.any())


def test_socle_maximals(a5):
    # the socle maximals are named by the primes dividing m
    cover = [h for cls in a5.maximal_classes for h in cls.conjugates]
    for m, primes in ((1, []), (2, [2]), (3, [3])):
        assert construct_product_cover(a5.table, cover, m)[1] == primes
    # a socle maximal holds exactly the shifts divisible by r: alone at
    # m = 4, index 2 covers shifts 0 and 2, and shift 1 is the first miss
    ctx4 = WreathContext(a5.table, 4)
    witness = WreathElement((0, 0, 0, 0), 1)
    assert verify_wreath_cover(ctx4, product_type_family([], 4), [2]) == (False, witness)


def test_coset_representatives(a5):
    M = a5.classes_by_label()["D10"].representative
    reps = product_type_family([M], 2).cosets[:, 0].tolist()
    assert len(reps) == 6
    assert reps[0] == 0
    seen = set()
    for r in reps:
        coset = frozenset(a5.table.mul_many(M.member_ids, r).tolist())
        assert coset not in seen
        seen.add(coset)


def test_construct_cover_m1_returns_family(a5):
    cover = [cls.representative for cls in a5.maximal_classes]
    # A4 + D10 + S3 representatives do not cover A5; pick the full classes
    cover = [h for cls in a5.maximal_classes for h in cls.conjugates]
    descs, socle = construct_product_cover(a5.table, cover, 1)
    assert len(descs.owner) == len(cover) and socle == []


def test_construct_cover_counts_and_verify(a5, ctx2):
    cover = [h for cls in a5.maximal_classes for h in cls.conjugates]
    descs, socle = construct_product_cover(a5.table, cover, 2)
    assert len(descs.owner) == sum(h.index for h in cover)
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
    ok, witness = verify_wreath_cover(ctx2, take(descs, slice(1, None)), socle)
    assert not ok and witness is not None
    row = np.array([witness.base])
    holds = product_type_mask(ctx2, descs, row, witness.shift)[:, 0]
    assert holds[0] and not holds[1:].any()


def test_non_covering_family_rejected(a5):
    with pytest.raises(ValueError, match="family does not cover S"):
        construct_product_cover(a5.table, [a5.maximal_classes[0].representative], 2)


def test_context_refuses_above_cap(m11):
    # the context is the permit to enumerate S wr C_m: M11 wr C_2 has
    # 2 * 7920^2 elements, above EXPLICIT_CAP
    with pytest.raises(ValueError, match=r"m\*\|S\|\^m = 125452800 <= 100000000$"):
        WreathContext(m11.table, 2)


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
            grids[name, m] = (ctx, base_grid(ctx).astype(np.uint8))
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
    D = len(family.owner)
    size = D - drop if drop >= 0 else int(rng.integers(0, D + 1))
    size = min(size, 7 * 10**7 // grid.shape[0])
    picked = sorted(rng.choice(D, size=size, replace=False).tolist())
    members = [member(family, i) for i in picked]
    if drop:
        members += random_members(cg, m, int(rng.integers(0, 3)), rng)
    descs = family_of(members, m)
    socle = prime_factors(m) if with_socle else []

    # the masks come from the oracle's composed sides, not from box_luts
    expected_witness = None
    for shift in range(m):
        masks = [
            np.logical_and.reduce([side[a][grid[:, a]] for a in range(m)])
            for side in box_sides(ctx, descs, shift) > 0
        ]
        counts = np.zeros(grid.shape[0], dtype=np.int64)
        for mask in masks:
            counts += mask
        luts = box_luts(ctx, descs, shift)
        assert np.array_equal(box_coverage(luts), counts)
        target = rng.random(grid.shape[0]) < rng.random()
        assert box_target_counts(luts, target).tolist() == [
            int((mask & target).sum()) for mask in masks
        ]
        if expected_witness is None and not any(shift % r == 0 for r in socle):
            zeros = np.flatnonzero(counts == 0)
            if zeros.shape[0]:
                row = tuple(int(x) for x in grid[zeros[0]])
                expected_witness = WreathElement(row, shift)
    ok, witness = verify_wreath_cover(ctx, descs, socle)
    assert witness == expected_witness and ok == (witness is None)


@pytest.mark.parametrize(
    "group,m",
    [("A5", m) for m in (1, 2, 3, 4)] + [("PSL(2,7)", m) for m in (1, 2, 3)] + [("A6", 2)],
)
def test_box_luts_match_composed_sides(group, m):
    # every side at every shift, against the oracle's Perm products: the
    # constructive family on its canonical cosets, the same members on raw
    # coset ids (a random element of each coset), and no member at all
    cg = load_group(group)
    g = cg.table
    ctx = WreathContext(g, m)
    family, _ = construct_product_cover(g, _min_cover(cg), m)
    rng = np.random.default_rng(m)
    def raw_id(M, c):
        return int(rng.choice(g.mul_many(M.member_ids, c)))

    members = [member(family, j) for j in range(len(family.owner))]
    raw_cosets = np.array([[raw_id(M, c) for c in cosets] for M, cosets in members], dtype=np.int64)
    raw = dataclasses.replace(family, cosets=raw_cosets.reshape(family.cosets.shape))
    assert m == 1 or not np.array_equal(raw.cosets, family.cosets)
    # the sides are read off the family's table: no per-table cache grows
    def cached():
        return [set(c) for c in (g._right_maps, g._conj_maps, g.coset_rows)]

    before = cached()
    for shift in range(m):
        expect = box_sides(ctx, family, shift)
        assert np.array_equal(box_luts(ctx, family, shift), expect), shift
        assert np.array_equal(box_luts(ctx, raw, shift), expect), shift
        assert box_luts(ctx, take(family, slice(0)), shift).shape == (0, m, g.order)
    assert cached() == before


@pytest.mark.parametrize("group", ["A5", "A6"])
def test_m2_verification_composes_no_side(group):
    # a whole family is settled from its subgroups at m = 2 and 3, so no
    # image row is looked up; a family one member short is checked over
    # boxes, whose left maps look rows up, and misses first at shift 1
    cg = load_group(group)

    def no_lookup(self, rows):
        raise AssertionError("verify_wreath_cover looked up an image row")

    for m in (2, 3) if group == "A5" else (2,):  # A6 wr C_3 is over the cap
        descs, socle = construct_product_cover(cg.table, _min_cover(cg), m)
        assert socle == [m]
        ctx = WreathContext(cg.table, m)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(GroupTable, "ids", no_lookup)
            assert verify_wreath_cover(ctx, descs, socle) == (True, None)
        ok, witness = verify_wreath_cover(ctx, take(descs, slice(1, None)), socle)
        assert not ok and witness.shift == 1


def test_constructive_covers_build_no_box(tmp_path, monkeypatch, capsys):
    # the constructive cover is a whole family, verified from its base
    # cover at every m: at m = 3 neither construct-cover nor verify-cover
    # of the family it writes builds a box side
    from wreathcover import wreath
    from wreathcover.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("a whole family was verified over boxes")

    monkeypatch.setattr(wreath, "box_luts", refuse)
    family = tmp_path / "a5.family"
    assert main(["construct-cover", "A5", "-m", "3", "--out", str(family)]) == 0
    assert main(["construct-cover", "PSL(2,7)", "-m", "3", "--json"]) == 0
    capsys.readouterr()
    assert main(["verify-cover", "A5", "-m", "3", "--family-file", str(family), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["covered"] is True


def test_a5_wr_c4_constructive_cover(a5):
    # 60^4 base tuples per shift: verification counts boxes, never the grid
    # (the program has no grid builder; ``oracles.base_grid`` is the tests')
    start = time.perf_counter()
    ctx4 = WreathContext(a5.table, 4)
    descs, socle = construct_product_cover(a5.table, _min_cover(a5), 4)
    assert (len(descs.owner), socle) == (1796, [2])
    assert verify_wreath_cover(ctx4, descs, socle) == (True, None)
    # the minimal cover has no redundancy: dropping a member uncovers an
    # element that lies in that member and in no other
    ok, witness = verify_wreath_cover(ctx4, take(descs, slice(1, None)), socle)
    assert not ok and witness.shift % 2 == 1
    row = np.array([witness.base])  # a one-row grid
    holds = product_type_mask(ctx4, descs, row, witness.shift)[:, 0]
    assert holds[0] and not holds[1:].any()
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"A5 wr C_4 verification took {elapsed:.1f}s (budget 30s)"


@st.composite
def _subgroup_batches(draw):
    """A group, two batches of its subgroups (closures of random
    generators, the trivial subgroup and the whole group among them) and
    coset labels."""
    g = load_group(draw(st.sampled_from(["A5", "PSL(2,7)", "A6"]))).table
    elements = st.integers(0, g.order - 1)
    gen_sets = st.one_of(
        st.just([]), st.just(list(g.generator_ids)), st.lists(elements, min_size=1, max_size=3)
    )
    batches = [
        [subgroup_closure(g, gens) for gens in draw(st.lists(gen_sets, min_size=1, max_size=6))]
        for _ in range(2)
    ]
    return g, *batches, draw(st.lists(elements, min_size=1, max_size=4))


def _coset_rows(members):
    """Each subgroup's coset-minimum row by canonical key, one right coset
    at a time."""
    rows = {}
    for M in members:
        row = rows.setdefault(M.canonical_key, np.empty(M.parent.order, dtype=np.int64))
        for rep in coset_representatives(M):
            row[M.parent.mul_many(M.member_ids, rep)] = rep
    return rows


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_subgroup_batches())
def test_coset_minima_match_one_coset_at_a_time(batch):
    # the batched table against the per-coset products: every coset of every
    # member, the family's representatives, and the rows at random labels;
    # then the batch again, all of it from the group's kept rows, and mixed
    # with a second batch, of which only the subgroups not kept are made
    g, members, more, labels = batch
    expect = _coset_rows(members + more)

    def check(table, batch):
        assert table.shape == (len(batch), g.order)
        assert np.array_equal(table, [expect[M.canonical_key] for M in batch])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(g, "coset_rows", {})
        cached = (set(g._right_maps), set(g._conj_maps))
        table = coset_minima(members)
        assert (set(g._right_maps), set(g._conj_maps)) == cached  # no per-table map is made
        check(table, members)  # one row per member, in order, repeats included
        distinct = list(dict.fromkeys(members))
        family = product_type_family(distinct, 2)
        for r, M in enumerate(distinct):
            row = family.minima[r]
            assert family.cosets[family.owner == r, 0].tolist() == coset_representatives(M)
            assert row[labels].tolist() == [coset_minimum(M, x) for x in labels]
        # one kept row per subgroup, read only, and none made again
        kept = dict(g.coset_rows)
        assert list(kept) == [M.canonical_key for M in distinct]
        assert not any(row.flags.writeable for row in kept.values())
        table[:] = 0  # the returned table is the caller's own
        check(coset_minima(members), members)
        mixed = [M for pair in zip(more, members) for M in pair]
        mixed += members[len(more) :] + more[len(members) :]
        check(coset_minima(mixed), mixed)
        assert all(g.coset_rows[key] is row for key, row in kept.items())
        assert set(g.coset_rows) == set(expect)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    case=st.sampled_from(
        [(g, m) for g in ("A5", "PSL(2,7)", "A6") for m in (1, 2, 3) if (g, m) != ("A6", 3)]
    ),
    seed=st.integers(0, 2**32 - 1),
    whole=st.booleans(),
    with_socle=st.booleans(),
)
@example(case=("A6", 2), seed=0, whole=False, with_socle=False)
def test_verification_matches_box_path(case, seed, whole, with_socle):
    # a family file, read back: a whole family over a random set of maximal
    # conjugates (none, some or all of them, so it may not cover S), or the
    # constructive family over random maximal classes with some lines
    # dropped (cosets missing) and lines of other classes' conjugates
    # added; the socle lines kept or dropped
    from wreathcover.pipelines import descriptor_lines, parse_descriptor_lines

    group, m = case
    cg = load_group(group)
    rng = np.random.default_rng(seed)
    classes = cg.maximal_classes
    if whole:
        keep = rng.choice([0.0, 0.5, 0.9, 1.0])
        picked = [M for cls in classes for M in cls.conjugates if rng.random() < keep]
        lines = descriptor_lines(cg, product_type_family(picked, m), prime_factors(m))
    else:
        picked = [cls for cls in classes if rng.random() < 0.5] or classes[:1]
        family = product_type_family([M for cls in picked for M in cls.conjugates], m)
        lines = descriptor_lines(cg, family, prime_factors(m))
        drop = rng.choice([0.0, 0.01, 0.1])
        lines = [line for line in lines if line.startswith("socle") or rng.random() >= drop]
        extra = product_type_family([M for cls in classes for M in cls.conjugates], m)
        lines += rng.choice(descriptor_lines(cg, extra, []), size=int(rng.integers(0, 4))).tolist()
    if not with_socle:
        lines = [line for line in lines if not line.startswith("socle")]
    family, socle = parse_descriptor_lines(cg, list(dict.fromkeys(lines)), m)
    ctx = WreathContext(cg.table, m)
    assert verify_wreath_cover(ctx, family, socle) == _verify_boxes(ctx, family, socle)
