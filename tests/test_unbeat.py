import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathcover.formulas import alpha, c2_value, euler_phi
from wreathcover.lattice import all_subgroup_classes
from wreathcover.pipelines import load_group
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
    ProductTypeDescriptor,
    product_type_family,
    wreath_cover_upper_term,
)


def _products(inst):
    """The family's product-type members over the seed classes, in order."""
    return list(product_type_family([h for _, h in inst.members()], inst.m))


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


@st.composite
def _set_checks(draw):
    """A group, a sorted target in it and a list of maximal subgroups, which
    may be empty, miss the target, leave elements uncovered or repeat."""
    cg = load_group(draw(st.sampled_from(["A5", "PSL(2,7)"])))
    handles = [h for c in cg.maximal_classes for h in c.conjugates]
    target = draw(st.sets(st.integers(0, cg.table.order - 1), min_size=1, max_size=40))
    members = draw(st.lists(st.sampled_from(handles), max_size=8))
    return cg.table, np.array(sorted(target), dtype=np.int64), members


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_set_checks())
def test_hit_cover_disjoint_matches_sets(case):
    g, target, handles = case
    members = [(f"x[{i}]", h) for i, h in enumerate(handles)]
    (hit, cover, disjoint), sizes = hit_cover_disjoint(g, target, members, ("h", "c", "d"))
    # the reference: Python sets of element ids
    inter = [set(target.tolist()) & set(h.member_ids.tolist()) for h in handles]
    assert sizes.tolist() == [len(s) for s in inter]
    empty = [lab for (lab, _), s in zip(members, inter) if not s]
    hits = [sum(x in s for s in inter) for x in target.tolist()]
    uncovered = [x for x, n in zip(target.tolist(), hits) if n == 0]
    doubled = [x for x, n in zip(target.tolist(), hits) if n > 1]
    assert (hit.name, hit.passed) == ("h", not empty)
    assert hit.witness == ({"empty_members": empty[:5]} if empty else None)
    assert (cover.name, cover.passed) == ("c", not uncovered)
    assert cover.witness == ({"uncovered_element": uncovered[0]} if uncovered else None)
    assert (disjoint.name, disjoint.passed) == ("d", not doubled)
    assert disjoint.witness == ({"element": doubled[0]} if doubled else None)


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
        assert wreath_cover_upper_term([h for _, h in inst.members()], m) == expect, m
        assert len(_products(inst)) + alpha(m) == expect, m


def test_m11_bounds_meet(m11):
    inst = _m11_instance(m11, 2)
    cover = [h for cls in inst.seed_classes for h in cls.conjugates]
    bounds = theorem_bounds(inst, cover, check_definitely_unbeatable_symbolic(inst))
    assert bounds.lower == bounds.upper == 266


def test_m11_explicit_m1(m11, m11_lattice):
    inst = _m11_instance(m11, 1)
    members = [h for cls in inst.seed_classes for h in cls.conjugates]
    labels = [f"{cls.label}[{i}]" for cls in inst.seed_classes for i in range(cls.class_size)]
    rep = check_definitely_unbeatable_group(
        m11.table, inst.seed_ids, members, labels, all_classes=m11_lattice
    )
    assert rep.passed
    assert rep.certified_lower_bound == 23
    assert not rep.conditional
    assert rep.outsider_max["count"] == 36


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
    family = [h for _, h in inst.members()]
    assert wreath_cover_upper_term(family, 5) == c2_value(11, 5)[0]
    cover = [h for cls in inst.seed_classes for h in cls.conjugates]
    bounds = theorem_bounds(inst, cover, check_definitely_unbeatable_symbolic(inst, rep))
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
    from wreathcover.unbeat import _TargetMasks
    from wreathcover.wreath import WreathContext, product_type_mask

    inst = _a5_instance(a5, 2)
    ctx = WreathContext(a5.table, 2)
    grid = ctx.base_grid()
    tm = _TargetMasks(inst, ctx, grid)
    # product-type member counts equal seed-in-member times member order
    for d in _products(inst):
        expect = int(np.isin(inst.seed_ids, d.M.member_ids).sum()) * d.M.size
        got = sum(
            int((product_type_mask(ctx, d, grid, s) & tm.masks[s]).sum())
            for s in tm.masks
        )
        assert got == expect
    # the socle member count equals the ordered non-conjugate pair sum
    assert int(tm.masks[0].sum()) == 960


@pytest.mark.parametrize("m", [1, 2, 3])
def test_product_type_members_are_canonical(a5, psl7, m):
    # coset representatives are coset minima, so the generator's
    # descriptors are exactly what create() canonicalizes them to, and the
    # family count is the generator's length
    for cg in (a5, psl7):
        handles = [h for c in cg.maximal_classes for h in c.conjugates]
        members = list(product_type_family(handles, m))
        expect = wreath_cover_upper_term(handles, m) - alpha(m)
        assert len(members) == len(set(members)) == expect
        for d in members:
            made = ProductTypeDescriptor.create(d.M, d.cosets)
            assert d.key() == made.key() and d == made


def test_mutation_breaks_cover_condition(a5):
    inst = _a5_instance(a5, 2)
    family = [(f"p{i}", d) for i, d in enumerate(_products(inst))]
    du = check_definitely_unbeatable_wreath(inst, family=family[1:])
    u2 = [c for c in du.conditions if c.name.startswith("U2")][0]
    assert not u2.passed and u2.witness is not None


def test_symbolic_certificate(psl11):
    inst = _psl11_instance(psl11, 5)
    rep = check_definitely_unbeatable_symbolic(inst)
    assert rep.passed
    assert rep.certified_lower_bound == c2_value(11, 5)[0]
    assert len(rep.assumptions) == 2
    assert rep.mode == "symbolic"


def test_symbolic_fails_when_seed_fails(psl11):
    inst = _psl11_instance(psl11, 2)
    rep = check_definitely_unbeatable_symbolic(inst)
    assert not rep.passed
    assert rep.certified_lower_bound is None


def test_diagonal_term_defensive_root():
    # (1 + alpha(m)) |S|^(m/l), l the smallest prime divisor of m
    assert diagonal_term(60, 2) == 2 * 60
    assert diagonal_term(60, 4) == 2 * 3600
    assert diagonal_term(60, 6) == 3 * 60**3


def test_theorem_bounds_m1(m11, m11_lattice):
    inst = _m11_instance(m11, 1)
    cover = [h for cls in inst.seed_classes for h in cls.conjugates]
    labels = [lab for lab, _ in inst.members()]
    certificate = check_definitely_unbeatable_group(
        m11.table, inst.seed_ids, cover, labels, all_classes=m11_lattice
    )
    # the lower bound is the certificate's: 23 over the whole lattice
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
