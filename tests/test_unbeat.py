import dataclasses
import functools
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathcover.formulas import alpha, c2_value, euler_phi, prime_factors
from wreathcover import unbeat
from wreathcover.groups import GroupTable, member_mask
from wreathcover.lattice import all_subgroup_classes, maximal_classes_from_lattice
from wreathcover.perm import Perm
from wreathcover.cli import _split_labels
from wreathcover.cover import build_instance, sigma_exact
from wreathcover.pipelines import _verdict, load_group, parse_target_spec
from wreathcover.unbeat import (
    SeedInstance,
    check_definitely_unbeatable_group,
    check_definitely_unbeatable_symbolic,
    check_definitely_unbeatable_wreath,
    check_seed_conditions,
    diagonal_term,
    hit_cover_disjoint,
    theorem_bounds,
)
from wreathcover.wreath import (
    WreathContext,
    product_type_family,
    wreath_cover_upper_term,
)

from oracles import (
    base_grid,
    box_counts,
    compose,
    coset_minimum,
    exhaustive_min_cover,
    member_label,
    target_masks,
)


def _products(inst):
    """The family's product-type members over the seed classes, in order."""
    return product_type_family([h for cls in inst.seed_classes for h in cls.conjugates], inst.m)


def _m11_instance(m11, m):
    g = m11.table
    seed = np.concatenate([g.elements_with_order(8), g.elements_with_order(11)])
    bl = m11.classes_by_label()
    return SeedInstance(
        S=g,
        seed_ids=seed,
        seed_classes=[bl["M10"], bl["PSL(2,11)"]],
        m=m,
        maximal_classes=m11.maximal_classes,
    )


def _a5_instance(a5, m):
    g = a5.table
    seed = np.concatenate([g.elements_with_order(5), g.elements_with_order(3)])
    bl = a5.classes_by_label()
    return SeedInstance(
        S=g,
        seed_ids=seed,
        seed_classes=[bl["D10"], bl["S3"]],
        m=m,
        maximal_classes=a5.maximal_classes,
    )


def _psl11_instance(psl11, m):
    g = psl11.table
    seed = np.concatenate([g.elements_with_order(11), g.elements_with_order(6)])
    bl = psl11.classes_by_label()
    return SeedInstance(
        S=g,
        seed_ids=seed,
        seed_classes=[bl["11:5"], bl["D12"]],
        m=m,
        maximal_classes=psl11.maximal_classes,
    )


def _conjugacy_class(g, x):
    """The ids y^-1 x y over every y of g, one product per y."""
    return g.mul_many(g.mul_many(g.inv, x), np.arange(g.order))


@st.composite
def _set_checks(draw):
    """A seed instance on a group and whole maximal classes, which may be
    none, miss the seed, leave elements uncovered or hold one twice.  The
    seed is a union of element classes or an arbitrary set."""
    cg = load_group(draw(st.sampled_from(["A5", "PSL(2,7)", "A6"])))
    g = cg.table
    elements = st.integers(0, g.order - 1)
    if draw(st.booleans()):
        xs = draw(st.lists(elements, min_size=1, max_size=3))
        seed = np.concatenate([_conjugacy_class(g, x) for x in xs])
    else:
        seed = np.array(sorted(draw(st.sets(elements, min_size=1, max_size=40))))
    family = draw(st.lists(st.sampled_from(cg.maximal_classes), max_size=3,
                           unique_by=lambda c: c.label))
    return SeedInstance(S=g, seed_ids=seed, seed_classes=family, m=1,
                        maximal_classes=cg.maximal_classes)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_set_checks())
def test_hit_cover_disjoint_matches_sets(inst):
    hit, cover, disjoint = hit_cover_disjoint(inst)
    # the reference: Python sets of element ids, member by member
    members = [
        (f"{cls.base_label}[{i}]", h)
        for cls in inst.seed_classes
        for i, h in enumerate(cls.conjugates)
    ]
    target = inst.seed_ids.tolist()
    inter = [set(target) & set(h.member_ids.tolist()) for _, h in members]
    empty = [lab for (lab, _), s in zip(members, inter) if not s]
    hits = [sum(x in s for s in inter) for x in target]
    uncovered = [x for x, n in zip(target, hits) if n == 0]
    doubled = [x for x, n in zip(target, hits) if n > 1]
    assert (hit.name, hit.passed) == ("C1 every member meets the seed", not empty)
    assert hit.witness == ({"empty_members": empty[:5]} if empty else None)
    assert (cover.name, cover.passed) == ("C2 seed covered by the family", not uncovered)
    assert cover.witness == ({"uncovered_element": uncovered[0]} if uncovered else None)
    assert (disjoint.name, disjoint.passed) == ("C3 no seed element in two members", not doubled)
    assert disjoint.witness == ({"element": doubled[0]} if doubled else None)


@st.composite
def _seed_requests(draw):
    """A group, its seed ids (the elements of some orders, shuffled and with
    repeats), a subset of its maximal class labels in random order, and m."""
    cg = load_group(draw(st.sampled_from(["A5", "PSL(2,7)", "A6"])))
    g = cg.table
    orders = sorted(set(g.element_orders().tolist()) - {1})
    chosen = draw(st.lists(st.sampled_from(orders), min_size=1, unique=True))
    seed = np.concatenate([g.elements_with_order(k) for k in chosen])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = rng.permutation(np.concatenate([seed, rng.choice(seed, draw(st.integers(0, 5)))]))
    labels = draw(st.lists(st.sampled_from([c.label for c in cg.maximal_classes]),
                           min_size=1, unique=True))
    return cg, ids, labels, draw(st.sampled_from([1, 2, 3]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_seed_requests())
def test_seed_conditions_match_sets(case):
    cg, ids, labels, m = case
    g, by_label = cg.table, cg.classes_by_label()
    family = [by_label[lab] for lab in labels]
    inst = SeedInstance(S=g, seed_ids=ids, seed_classes=family, m=m,
                        maximal_classes=cg.maximal_classes)
    rep = check_seed_conditions(inst)
    # the reference: Python sets, each class counted over every conjugate
    seed = set(ids.tolist())
    assert inst.seed_ids.tolist() == sorted(seed)

    def per_member(cls):
        total = sum(len(seed & set(h.member_ids.tolist())) for h in cls.conjugates)
        assert total % cls.class_size == 0
        return total // cls.class_size

    assert rep.seed_counts == {
        "seed_size": len(seed),
        "per_class": {
            cls.base_label: {
                "per_member": per_member(cls),
                "class_total": per_member(cls) * cls.class_size,
                "member_order": cls.order,
                "class_size": cls.class_size,
                "index": cls.representative.index,
            }
            for cls in family
        },
    }
    outside = [c for c in cg.maximal_classes if c.label not in labels]
    if m == 1:
        assert rep.family_min == min(per_member(c) for c in family)
        assert (rep.outside_family_max, rep.cross_class_layer, rep.notes) == (0, 0, [])
        # the m = 1 verdict reads mu off the seed report and sweeps the
        # outside classes for nu
        du = check_definitely_unbeatable_group(inst, rep)
        assert du.member_min_count == min(per_member(c) for c in family)
        assert du.family_size == sum(c.class_size for c in family)
        assert du.outsider_max["count"] == max(map(per_member, outside), default=0)
        return
    b = [per_member(c) * c.order ** (m - 1) for c in outside]
    d = [per_member(c) * c.order ** (m - 1) for c in family]
    totals = [per_member(c) * c.class_size for c in family]
    b_max = max(b, default=0)
    b_label = outside[b.index(b_max)].label if b_max else None
    d_label = family[d.index(min(d))].label
    assert rep.outside_family_max == b_max
    assert rep.family_min == min(d)
    cross = (sum(totals) ** 2 - sum(t * t for t in totals)) * g.order ** (m - 2)
    assert rep.cross_class_layer == cross
    assert rep.notes[0].endswith(f"attained by {b_label!r}, family minimum by {d_label!r}")
    c5 = rep.conditions[-1]
    assert c5.passed == (max(rep.diagonal_bound, b_max) <= min(rep.cross_class_layer, min(d)))


def test_m11_seed_conditions_m2(m11):
    rep = check_seed_conditions(_m11_instance(m11, 2))
    assert rep.passed
    assert rep.diagonal_bound == 15840
    assert rep.outside_family_max == 5184  # 36 * 144
    assert rep.cross_class_layer == 2 * 132 * 180 * 120
    assert rep.family_min == 120 * 660


def test_m11_seed_conditions_generic_m(m11):
    from wreathcover.formulas import smallest_prime_factor

    for m in (3, 5, 10):
        rep = check_seed_conditions(_m11_instance(m11, m))
        assert rep.passed, m
        assert rep.outside_family_max == 36 * 144 ** (m - 1)
        assert rep.family_min == 120 * 660 ** (m - 1)
        assert rep.diagonal_bound == (1 + alpha(m)) * 7920 ** (
            m // smallest_prime_factor(m)
        )


def test_m11_family_size(m11):
    for m in (1, 2, 3):
        inst = _m11_instance(m11, m)
        expect = (alpha(m) if m >= 2 else 0) + 11**m + 12**m
        family = [h for cls in inst.seed_classes for h in cls.conjugates]
        assert wreath_cover_upper_term(family, m) == expect, m
        assert len(_products(inst).owner) + alpha(m) == expect, m


def test_m11_bounds_meet(m11):
    inst = _m11_instance(m11, 2)
    cover = [h for cls in inst.seed_classes for h in cls.conjugates]
    rep = check_definitely_unbeatable_symbolic(inst, check_seed_conditions(inst))
    bounds = theorem_bounds(inst, cover, rep)
    assert bounds.lower == bounds.upper == 266


def test_m11_explicit_m1(m11):
    inst = _m11_instance(m11, 1)
    rep = check_definitely_unbeatable_group(inst, check_seed_conditions(inst))
    assert rep.passed
    assert rep.certified_lower_bound == 23
    assert not rep.conditional
    assert rep.outsider_max == {"count": 36, "class": "M9:2"}


# every m = 1 verdict that passes in the sweep below: (group, seed, family,
# family size).  sigma(M11) = 23 is pinned elsewhere; PSL(2,11)'s 67 and
# PSL(2,13)'s 92 are Bryce, Fedri & Serena's p(p+1)/2 + 1.
M1_PASSING = [
    ("A5", "orders:5", ("D10",), 6),
    ("PSL(2,7)", "orders:4", ("S4",), 7),
    ("PSL(2,7)", "orders:4", ("S4'",), 7),
    ("PSL(2,7)", "orders:7", ("7:3",), 8),
    ("PSL(2,7)", "orders:3,4", ("S4",), 7),
    ("PSL(2,7)", "orders:3,4", ("S4'",), 7),
    ("PSL(2,7)", "orders:4,7", ("7:3", "S4"), 15),
    ("PSL(2,7)", "orders:4,7", ("7:3", "S4'"), 15),
    ("A6", "orders:5", ("A5",), 6),
    ("A6", "orders:5", ("PSL(2,5)",), 6),
    ("PSL(2,11)", "orders:6", ("D12",), 55),
    ("PSL(2,11)", "orders:11", ("11:5",), 12),
    ("PSL(2,11)", "orders:6,11", ("11:5", "D12"), 67),
    ("PSL(2,13)", "orders:7", ("D14",), 78),
    ("PSL(2,13)", "orders:13", ("13:6",), 14),
    ("PSL(2,13)", "orders:7,13", ("13:6", "D14"), 92),
]


def _subsets(items):
    """Every non-empty subset of items, in combinations order."""
    return itertools.chain.from_iterable(
        itertools.combinations(items, k) for k in range(1, len(items) + 1)
    )


def test_m1_verdict_matches_exact_cover_of_the_seed():
    # every seed of whole non-identity element orders against every family
    # of catalog maximal classes.  A passing verdict says no cover of the
    # seed by maximal subgroups is smaller than the family, so
    # branch-and-bound on the seed as a target must find exactly its size.
    verdicts, passing = 0, []
    for name in ("A5", "PSL(2,7)", "A6", "PSL(2,11)", "PSL(2,13)"):
        cg = load_group(name)
        g = cg.table
        for orders in _subsets(sorted(set(g.element_orders().tolist()) - {1})):
            spec = "orders:" + ",".join(map(str, orders))
            for family in _subsets(cg.maximal_classes):
                _, _, du = _verdict(cg, spec, list(family), 1, "auto")
                verdicts += 1
                if not du.passed:
                    continue
                passing.append((name, spec, tuple(c.label for c in family), du.family_size))
                cert = sigma_exact(build_instance(g, cg.maximal_classes, parse_target_spec(g, spec)))
                assert (cert.kind, cert.value) == ("exact-optimal", du.family_size), passing[-1]
    assert verdicts == 1549
    assert passing == M1_PASSING


def test_m1_verdict_needs_a_conjugation_closed_seed():
    # A5 with family A4, and the seed of the three involutions of the first
    # A4 plus one involution of each other A4 (81 seeds).  mu and nu count
    # seed elements in class representatives, which every conjugate shares
    # only when the seed is conjugation-closed; here C0 fails, and fewer
    # maximal subgroups than the family's 5 cover every such seed, so no
    # verdict may pass or certify a bound
    cg = load_group("A5")
    g = cg.table
    a4 = cg.classes_by_label()["A4"]
    involution = member_mask(g, g.elements_with_order(2))
    parts = [h.member_ids[involution[h.member_ids]].tolist() for h in a4.conjugates]
    handles = [set(h.member_ids.tolist()) for c in cg.maximal_classes for h in c.conjugates]
    for pick in itertools.product(*parts[1:]):
        seed = parts[0] + list(pick)
        inst = SeedInstance(S=g, seed_ids=np.array(seed), seed_classes=[a4], m=1,
                            maximal_classes=cg.maximal_classes)
        rep = check_seed_conditions(inst)
        du = check_definitely_unbeatable_group(inst, rep)
        assert not rep.conditions[0].passed
        assert du.conditions[0] == rep.conditions[0]
        assert (du.passed, du.certified_lower_bound) == (False, None)
        masks = [sum(1 << i for i, x in enumerate(seed) if x in h) for h in handles]
        size, _ = exhaustive_min_cover(masks, (1 << len(seed)) - 1, len(handles))
        assert size < du.family_size == 5


def test_psl11_pipeline_m5(psl11):
    inst = _psl11_instance(psl11, 5)
    rep = check_seed_conditions(inst)
    assert rep.passed
    assert rep.outside_family_max == 0
    assert rep.diagonal_bound == 2 * 660
    assert rep.family_min == euler_phi(6) * 12**4
    counts = rep.seed_counts["per_class"]
    assert counts["11:5"]["per_member"] == 10
    assert counts["D12"]["per_member"] == 2
    family = [h for cls in inst.seed_classes for h in cls.conjugates]
    assert wreath_cover_upper_term(family, 5) == c2_value(11, 5)[0]
    bounds = theorem_bounds(inst, family, check_definitely_unbeatable_symbolic(inst, rep))
    assert bounds.lower == bounds.upper == alpha(5) + 12**5 + 55**5


def test_psl11_condition5_fails_at_small_m(psl11):
    # the hypothesis needs every prime factor of m at least 5
    rep = check_seed_conditions(_psl11_instance(psl11, 2))
    c5 = [c for c in rep.conditions if c.name.startswith("C5")][0]
    assert not c5.passed


def test_single_class_fails_c4(psl11):
    g = psl11.table
    inst = SeedInstance(
        S=g,
        seed_ids=g.elements_with_order(11),
        seed_classes=[psl11.classes_by_label()["11:5"]],
        m=5,
        maximal_classes=psl11.maximal_classes,
    )
    rep = check_seed_conditions(inst)
    c4 = [c for c in rep.conditions if c.name.startswith("C4")][0]
    assert not c4.passed and not rep.passed


def test_seed_partition_across_classes(m11):
    # seed elements inside the class unions are disjoint across the two
    # non-conjugate classes
    inst = _m11_instance(m11, 2)
    unions = []
    for cls in inst.seed_classes:
        u = np.zeros(m11.table.order, dtype=bool)
        for h in cls.conjugates:
            u[h.member_ids] = True
        unions.append(inst.seed_ids[u[inst.seed_ids]])
    overlap = np.intersect1d(unions[0], unions[1])
    assert overlap.shape[0] == 0
    assert unions[0].shape[0] + unions[1].shape[0] == inst.seed_ids.shape[0]


def test_a5_surrogate_counts(a5):
    inst = _a5_instance(a5, 2)
    rep = check_seed_conditions(inst)
    assert all(c.passed for c in rep.conditions[:5])
    assert not rep.conditions[5].passed  # C5 honestly fails at this size
    assert (rep.diagonal_bound, rep.outside_family_max) == (120, 96)
    assert (rep.cross_class_layer, rep.family_min) == (960, 12)

    du = check_definitely_unbeatable_wreath(inst)
    by_name = {c.name.split()[0]: c for c in du.conditions}
    assert by_name["U1"].passed and by_name["U2"].passed and by_name["U3"].passed
    assert not by_name["U4"].passed
    assert du.target_size == 44 * 60 + 960
    assert du.member_min_count == 12
    assert du.outsider_max["count"] == 96


def test_a5_surrogate_member_counts_match_formulas(a5):
    from wreathcover.wreath import product_type_mask

    inst = _a5_instance(a5, 2)
    ctx = WreathContext(a5.table, 2)
    grid = base_grid(ctx)
    masks = target_masks(inst, grid)
    # product-type member counts equal seed-in-member times member order
    family = _products(inst)
    member_masks = {s: product_type_mask(ctx, family, grid, s) for s in masks}
    for j, r in enumerate(family.owner.tolist()):
        M = family.subgroups[r]
        expect = int(np.isin(inst.seed_ids, M.member_ids).sum()) * M.size
        got = sum(int((member_masks[s][j] & masks[s]).sum()) for s in masks)
        assert got == expect
    # the socle member count equals the ordered non-conjugate pair sum
    assert int(masks[0].sum()) == 960


def _target_oracle(inst):
    """The target set by its definition, one base tuple at a time in
    row-major order: at shift 1 % m the product of all m coordinates lies in
    the seed; at shift r % m, for each prime r dividing m, the products of
    the coordinates 0, r, 2r, ... and 1, 1 + r, ... lie in the seed
    elements of two different family classes.  Products come from a
    multiplication table built by ``oracles.compose``."""
    S, m = inst.S, inst.m
    perms = [S.perm(i) for i in range(S.order)]
    ids = {p.images: i for i, p in enumerate(perms)}
    table = [[ids[compose(p, q).images] for q in perms] for p in perms]
    seed = set(inst.seed_ids.tolist())
    unions = [
        seed & {x for h in cls.conjugates for x in h.member_ids.tolist()}
        for cls in inst.seed_classes
    ]

    def product(row, start, step):
        return functools.reduce(lambda a, b: table[a][b], row[start::step])

    rows = list(itertools.product(range(S.order), repeat=m))
    expect = {1 % m: [product(row, 0, 1) in seed for row in rows]}
    for r in prime_factors(m):
        expect[r % m] = [
            any(
                product(row, 0, r) in first and product(row, 1, r) in second
                for first, second in itertools.permutations(unions, 2)
            )
            for row in rows
        ]
    return expect, unions


@pytest.mark.parametrize("m", [2, 3])
def test_target_masks_match_definition(a5, m):
    g = a5.table
    bl = a5.classes_by_label()
    inst = SeedInstance(
        S=g,
        seed_ids=g.elements_with_order(3),
        seed_classes=[bl["A4"], bl["S3"]],
        m=m,
        maximal_classes=a5.maximal_classes,
    )
    expect, unions = _target_oracle(inst)
    # every element of order 3 lies in an A4 and in an S3, so an element
    # pair can qualify through both orders of the two classes
    assert unions[0] == unions[1] and len(unions[0]) == 20
    masks = target_masks(inst, base_grid(WreathContext(g, m)))
    assert list(masks) == sorted(expect)
    for shift, mask in masks.items():
        assert mask.tolist() == expect[shift], shift


@pytest.mark.parametrize("m", [1, 2, 3])
def test_product_type_members_are_canonical(a5, psl7, m):
    # coset representatives are coset minima, so the family's members are
    # exactly what the one-coset-at-a-time oracle canonicalizes them to, and
    # the family count is its length
    for cg in (a5, psl7):
        handles = [h for c in cg.maximal_classes for h in c.conjugates]
        family = product_type_family(handles, m)
        assert family.subgroups == handles
        members = list(zip(family.owner.tolist(), family.cosets.tolist()))
        expect = wreath_cover_upper_term(handles, m) - alpha(m)
        assert len(members) == len({(r, *c) for r, c in members}) == expect
        for r, cosets in members:
            assert cosets == [coset_minimum(handles[r], c) for c in cosets]


@pytest.mark.parametrize(
    "group, families, m, digest",
    [
        ("A5", "D10,S3", 2, "c6c62b4cb5eb6c32c99e99c5f877773349ba296cf0fc02c1bdd88740858ba1ba"),
        ("A5", "D10,S3", 3, "89c26c28e7d866c60986354d48650c0924520a5fe3179f6b19a58680286e7979"),
        ("PSL(2,7)", "7:3,S4", 2, "c72ba9e7fb2a7999a564f316de22361949615bc5649a6a92b5353de286b8c13c"),
    ],
)
def test_member_labels_are_pinned(group, families, m, digest):
    # every label of the family over the given classes and of the sweep over
    # the other maximal classes, joined by newlines in family order; the
    # golden reports name only a few of them
    cg = load_group(group)
    seed = [cg.classes_by_label()[label] for label in families.split(",")]
    outside = [cls for cls in cg.maximal_classes if cls not in seed]
    labels = []
    for classes in (seed, outside):
        family = product_type_family([M for cls in classes for M in cls.conjugates], m)
        labels += [member_label(classes, family, j) for j in range(len(family.owner))]
    assert hashlib.sha256("\n".join(labels).encode()).hexdigest() == digest


def test_mutation_breaks_cover_condition(a5):
    # the witness is the first failing row of the first failing shift; the
    # mutated family replaces the seed classes' products only, so the
    # outsider sweep is unchanged.  The check counts a whole family from
    # element classes, so a mutated family goes through the box reference
    pinned = {
        2: [("U2", [0, 18]), ("U3", [0, 18]), ("U2", [21, 38])],
        3: [("U2", [0, 0, 18]), ("U3", [0, 0, 18]), ("U2", [21, 0, 38])],
    }
    for m, expected in pinned.items():
        inst = _a5_instance(a5, m)
        ctx = WreathContext(a5.table, m)
        family = _products(inst)
        D = len(family.owner)
        mutations = [np.arange(1, D), np.append(np.arange(D), 0), np.arange(D - 1)]
        for keep, (name, base) in zip(mutations, expected):
            mutated = dataclasses.replace(family, owner=family.owner[keep], cosets=family.cosets[keep])
            witnesses = box_counts(inst, ctx, mutated)[3]
            assert name in witnesses
            assert witnesses[name] == {"shift": 1, "base": base}, (m, name)


def test_symbolic_certificate(psl11):
    inst = _psl11_instance(psl11, 5)
    rep = check_definitely_unbeatable_symbolic(inst, check_seed_conditions(inst))
    assert rep.passed
    assert rep.certified_lower_bound == c2_value(11, 5)[0]
    assert len(rep.assumptions) == 2
    assert rep.mode == "symbolic"


def test_symbolic_fails_when_seed_fails(psl11):
    inst = _psl11_instance(psl11, 2)
    rep = check_definitely_unbeatable_symbolic(inst, check_seed_conditions(inst))
    assert not rep.passed
    assert rep.certified_lower_bound is None


def test_diagonal_term_defensive_root():
    # (1 + alpha(m)) |S|^(m/l), l the smallest prime divisor of m
    assert diagonal_term(60, 2) == 2 * 60
    assert diagonal_term(60, 4) == 2 * 3600
    assert diagonal_term(60, 6) == 3 * 60**3


def test_theorem_bounds_m1(m11):
    inst = _m11_instance(m11, 1)
    cover = [h for cls in inst.seed_classes for h in cls.conjugates]
    certificate = check_definitely_unbeatable_group(inst, check_seed_conditions(inst))
    # the lower bound is the certificate's: 23 over the maximal outsiders
    bounds = theorem_bounds(inst, cover, certificate)
    assert bounds.upper == len(cover) == 23
    assert bounds.lower == bounds.family_size == 23
    # a passed but conditional certificate certifies nothing
    conditional = dataclasses.replace(certificate, conditional=True)
    assert conditional.passed and conditional.conditional
    assert conditional.certified_lower_bound is None
    assert "certified_lower_bound" not in conditional.to_dict()
    bounds = theorem_bounds(inst, cover, conditional)
    assert (bounds.lower, bounds.upper, bounds.family_size) == (0, 23, 23)
    # a cover that misses an element raises, at m = 1 as at m >= 2
    with pytest.raises(ValueError, match="cover does not cover S"):
        theorem_bounds(inst, cover[1:], conditional)


# -- class counts against the box reference -----------------------------------------


def _assert_counts_match_boxes(inst):
    """``_class_counts`` against ``oracles.box_counts`` over the whole
    family: every member's count (one per seed class, then the socle
    maximals), U1's first empty member, the target size, the U2 and U3
    witness rows and the largest outsider with its label."""
    members, *counted = unbeat._class_counts(inst)
    m = inst.m
    boxed, empty, *rest = box_counts(inst, WreathContext(inst.S, m), _products(inst))
    counts = [count for _, count in members]
    per_class = [cls.class_size * cls.representative.index ** (m - 1) for cls in inst.seed_classes]
    assert np.array_equal(np.repeat(counts, per_class + [1] * alpha(m)), boxed)
    assert next((label for label, count in members if count == 0), None) == empty
    assert counted == rest


@pytest.mark.parametrize(
    "group, spec, families",
    [
        # every element of order 3 lies in an A4 and in an S3
        ("A5", "orders:3", "A4,S3"),
        # the class unions overlap in the elements of order 3, and U3
        # fails at shift 0 first
        ("PSL(2,7)", "orders:7,3", "7:3,S4"),
        ("PSL(2,7)", "orders:7,4", "7:3,S4"),
        ("A6", "orders:3", "S4,S4'"),
        # U3 fails at shift 0 on base [16, 73]: the least x1 that pairs
        # with x0 = 16 in the target lies in no 3^2:4 that holds x0
        ("A6", "cycle-types:5,1/4,2/3,3", "PSL(2,5),3^2:4"),
    ],
)
def test_m2_class_counts_match_box_counts(group, spec, families):
    cg = load_group(group)
    by_label = cg.classes_by_label()
    inst = SeedInstance(
        S=cg.table,
        seed_ids=parse_target_spec(cg.table, spec),
        seed_classes=[by_label[label] for label in _split_labels(families)],
        m=2,
        maximal_classes=cg.maximal_classes,
    )
    _assert_counts_match_boxes(inst)


@functools.cache
def _small_group(name: str):
    """A group and its maximal classes: a catalog group, or a small group
    from its generators with maximal classes from its computed lattice,
    whose maximal subgroups may be normal."""
    if name in ("A5", "PSL(2,7)", "A6"):
        cg = load_group(name)
        return cg.table, cg.maximal_classes
    degree, cycles = {
        "S3": (3, ["(1 2 3)", "(1 2)"]),
        "A4": (4, ["(1 2 3)", "(1 2)(3 4)"]),
        "S4": (4, ["(1 2 3 4)", "(1 2)"]),
        "D8": (4, ["(1 2 3 4)", "(1 3)"]),
    }[name]
    g = GroupTable.from_generators([Perm.from_cycles(c, degree) for c in cycles], name=name)
    return g, maximal_classes_from_lattice(g, all_subgroup_classes(g))


# every (group, m) drawn: |S|^m is at most 331,776 base tuples per shift
_EXPONENTS = {"A5": 3, "PSL(2,7)": 2, "A6": 2, "S3": 6, "D8": 6, "A4": 4, "S4": 4}
_GROUP_EXPONENTS = [(name, m) for name, top in _EXPONENTS.items() for m in range(2, top + 1)]


@st.composite
def _instances(draw):
    """A group and an exponent m >= 2, a random family of maximal classes
    and a random union of element classes as seed."""
    name, m = draw(st.sampled_from(_GROUP_EXPONENTS))
    g, classes = _small_group(name)
    picked = draw(st.lists(st.integers(0, len(classes) - 1), min_size=1, unique=True))
    labels = g.element_classes()
    seed_classes = draw(st.lists(st.sampled_from(np.unique(labels).tolist()), min_size=1, unique=True))
    return SeedInstance(
        S=g,
        seed_ids=np.flatnonzero(np.isin(labels, seed_classes)),
        seed_classes=[classes[i] for i in picked],
        m=m,
        maximal_classes=classes,
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_instances())
def test_class_counts_match_box_counts_on_random_instances(inst):
    _assert_counts_match_boxes(inst)


def test_explicit_reports_build_no_box(monkeypatch):
    # explicit unbeatability counts from element classes at every m: no
    # box side, grid mask or coset table is made, and no group table keeps
    # a new coset row (the program has no base grid or target mask
    # builder; those are ``oracles``').  The constructive cover builds its
    # family's coset table, and at m = 2 verifies it from counts, with no
    # box side
    from wreathcover import pipelines, wreath
    from wreathcover.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("a report built a box or a coset table")

    monkeypatch.setattr(wreath, "box_luts", refuse)
    monkeypatch.setattr(wreath, "product_type_mask", refuse)
    assert main(["construct-cover", "PSL(2,7)", "-m", "2", "--json"]) in (0, 1)
    for module in (wreath, pipelines):
        monkeypatch.setattr(module, "coset_minima", refuse)
    tables = [pipelines.load_group(group).table for group in ("A5", "PSL(2,11)")]
    kept = [set(g.coset_rows) for g in tables]
    for argv in [
        "verify-c2 -p 11 -m 2",
        *[
            f"verify-unbeatable A5 --sigma-spec orders:5,3 --families D10,S3 -m {m} --mode explicit"
            for m in (2, 3, 4)
        ],
    ]:
        assert main([*argv.split(), "--json"]) in (0, 1), argv
    assert [set(g.coset_rows) for g in tables] == kept


@pytest.mark.parametrize("m", [2, 3])
def test_class_counts_refuse_an_open_seed(a5, m):
    # the target is a union of class pairs only for a seed closed under
    # conjugation; one element of order 5 is not
    inst = _a5_instance(a5, m)
    open_seed = dataclasses.replace(inst, seed_ids=inst.seed_ids[:1])
    with pytest.raises(ValueError, match="conjugation-closed seed"):
        check_definitely_unbeatable_wreath(open_seed)
