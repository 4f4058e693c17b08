import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathcover import InputError, catalog, groups
from wreathcover.groups import (
    GroupTable,
    SubgroupHandle,
    conjugate_class,
    normalizer,
    orbit_class,
    subgroup_closure,
)
from wreathcover.perm import Perm
from wreathcover.pipelines import load_group

from oracles import compose, sequential_orbit


@pytest.fixture(scope="module")
def a5():
    return GroupTable.from_generators(
        [Perm.from_cycles("(1 2 3 4 5)", 5), Perm.from_cycles("(1 2 3)", 5)], name="A5"
    )


@pytest.fixture(scope="module")
def m11():
    return GroupTable.from_generators(
        [
            Perm.from_cycles("(1 2 3 4 5 6 7 8 9 10 11)", 11),
            Perm.from_cycles("(3 7 11 8)(4 10 5 6)", 11),
        ],
        name="M11",
    )


def test_a5_order_and_orbit_stabilizer(a5):
    # A5 is sharply enough transitive that |A5| = 5*4*3 by orbit-stabilizer
    assert a5.order == 5 * 4 * 3
    assert a5.perm(0) == Perm(range(5))


def test_m11_order(m11):
    assert m11.order == 7920


def test_cyclic_c3():
    g = GroupTable.from_generators([Perm.from_cycles("(1 2 3)", 3)])
    assert g.order == 3
    assert (g.element_orders() == g.order).any()  # cyclic


def test_identity_is_id_zero(a5):
    assert a5.perm(0) == Perm(range(5))
    assert int(a5.inv[0]) == 0


def test_mul_matches_perm_composition(a5):
    rng = np.random.default_rng(5)
    a, b = rng.integers(0, a5.order, size=(50, 2)).T
    for x, y, z in zip(a.tolist(), b.tolist(), a5.mul_many(a, b).tolist()):
        assert a5.perm(z) == compose(a5.perm(x), a5.perm(y))


def test_inverse_table(a5):
    ids = np.arange(a5.order)
    assert not a5.mul_many(ids, a5.inv[ids]).any()
    assert not a5.mul_many(a5.inv[ids], ids).any()


def test_element_orders_divide_group_order(a5):
    orders = a5.element_orders()
    assert all(a5.order % int(k) == 0 for k in orders)
    # partition: order-k counts sum to |G|
    assert sum(int((orders == k).sum()) for k in set(orders.tolist())) == a5.order


def test_elements_with_order(a5, m11):
    assert a5.elements_with_order(1).tolist() == [0]
    assert len(a5.elements_with_order(5)) == 24
    assert len(a5.elements_with_order(3)) == 20
    assert len(a5.elements_with_order(2)) == 15
    assert len(m11.elements_with_order(8)) == 1980
    assert len(m11.elements_with_order(11)) == 1440


def test_elements_with_cycle_type(a5):
    assert len(a5.elements_with_cycle_type([5])) == 24
    assert a5.elements_with_cycle_type([1, 1, 1, 1, 1]).tolist() == [0]
    with pytest.raises(ValueError):
        a5.elements_with_cycle_type([4])


def test_subgroup_closure_trivial(a5):
    h = subgroup_closure(a5, [0])
    assert h.size == 1


def test_subgroup_closure_d10(a5):
    c5 = a5.id_of(Perm.from_cycles("(1 2 3 4 5)", 5))
    inv2 = a5.id_of(Perm.from_cycles("(2 5)(3 4)", 5))
    # the involution inverts the 5-cycle, so the closure is dihedral of order 10
    assert a5.conj_map(inv2)[c5] == a5.inv[c5]
    h = subgroup_closure(a5, [c5, inv2])
    assert h.size == 10


def test_subgroup_closure_brute_force_cross_check(a5):
    # brute-force closure oracle on plain python sets
    c5 = a5.id_of(Perm.from_cycles("(1 2 3 4 5)", 5))
    inv2 = a5.id_of(Perm.from_cycles("(2 5)(3 4)", 5))
    members = {0, c5, inv2}
    changed = True
    while changed:
        changed = False
        for a in list(members):
            for b in list(members):
                p = a5.id_of(compose(a5.perm(a), a5.perm(b)))
                if p not in members:
                    members.add(p)
                    changed = True
    h = subgroup_closure(a5, [c5, inv2])
    assert set(h.member_ids.tolist()) == members


def test_conjugate_class_sizes(a5):
    a4 = subgroup_closure(
        a5, [a5.id_of(Perm.from_cycles("(1 2 3)", 5)), a5.id_of(Perm.from_cycles("(1 2)(3 4)", 5))]
    )
    assert a4.size == 12
    cls = conjugate_class(a5, a4)
    assert cls.class_size == 5
    whole = subgroup_closure(a5, a5.generator_ids)
    assert whole.size == a5.order
    assert conjugate_class(a5, whole).class_size == 1


def test_class_conjugators_and_conjugate_generators(a5):
    s3 = subgroup_closure(
        a5, [a5.id_of(Perm.from_cycles("(1 2 3)", 5)), a5.id_of(Perm.from_cycles("(1 2)(4 5)", 5))]
    )
    cls = conjugate_class(a5, s3)
    assert len(cls.conjugates) == len(cls.conjugators) == 10
    for h, c in zip(cls.conjugates, cls.conjugators):
        # the conjugator maps the representative onto h, and h's carried
        # generators generate h
        assert s3.conjugate(c) == h
        assert np.array_equal(subgroup_closure(a5, h.generators).member_ids, h.member_ids)


def test_normalizer_and_centralizer(a5):
    c5 = subgroup_closure(a5, [a5.id_of(Perm.from_cycles("(1 2 3 4 5)", 5))])
    n = normalizer(a5, c5)
    assert n.shape[0] == 10  # N(C5) = D10 in A5
    x = a5.id_of(Perm.from_cycles("(1 2 3 4 5)", 5))
    assert sum(int(a5.conj_map(g)[x] == x) for g in range(a5.order)) == 5


@pytest.mark.parametrize("name", ["A5", "PSL(2,7)", "A6"])
def test_conj_map_matches_its_definition(name):
    # x -> g^-1 x g by the one product, for every g: a map composed in the
    # wrong order, x -> g x g^-1, fails here
    g = catalog.load(name).table
    all_ids = np.arange(g.order)
    for x in range(g.order):
        conj = g.conj_map(x)
        assert conj.dtype == np.int64
        assert np.array_equal(conj, g.mul_many(g.mul_many(g.inv[x], all_ids), x))


def test_lagrange_violation_rejected(a5):
    with pytest.raises(ValueError):
        SubgroupHandle(a5, np.arange(7), ())


def test_budget_cap(monkeypatch):
    monkeypatch.setattr(groups, "PRODUCT_BUDGET", 100)
    with pytest.raises(InputError, match="closure exceeded 100 products"):
        GroupTable.from_generators(
            [
                Perm.from_cycles("(1 2 3 4 5 6 7 8 9 10 11)", 11),
                Perm.from_cycles("(3 7 11 8)(4 10 5 6)", 11),
            ]
        )


def test_generator_degree_mismatch():
    with pytest.raises(ValueError):
        GroupTable.from_generators([Perm(range(3)), Perm(range(4))])


def test_deterministic_ids(m11):
    other = GroupTable.from_generators(
        [
            Perm.from_cycles("(1 2 3 4 5 6 7 8 9 10 11)", 11),
            Perm.from_cycles("(3 7 11 8)(4 10 5 6)", 11),
        ]
    )
    assert other.canonical_hash() == m11.canonical_hash()
    assert np.array_equal(other.images, m11.images)


def test_mul_many_matches_scalar(a5):
    rng = np.random.default_rng(17)
    a = rng.integers(0, a5.order, size=200)
    b = rng.integers(0, a5.order, size=200)
    prods = a5.mul_many(a, b)
    for x, y, z in zip(a.tolist(), b.tolist(), prods.tolist()):
        # a single id broadcasts on either side
        assert a5.mul_many([x], y).tolist() == a5.mul_many(x, [y]).tolist() == [z]


def test_ids_of_rows_in_any_order(a5):
    # one 1-D row packs to a scalar key, and its id is a scalar
    assert a5.ids(a5.images[7]) == 7 and np.ndim(a5.ids(a5.images[7])) == 0
    # an unsorted batch with repeats, against one id_of per row
    rows = a5.images[[41, 3, 59, 3, 0, 41, 12]]
    assert a5.ids(rows).tolist() == [a5.id_of(Perm(r.tolist())) for r in rows]
    # a batch holding one non-member is refused, whether its key falls
    # between the table's keys (a transposition in A5) or above the largest
    odd = np.array([1, 0, 2, 3, 4], dtype=np.uint8)
    with pytest.raises(KeyError):
        a5.ids(np.vstack([rows, odd]))
    c3 = GroupTable.from_generators([Perm.from_cycles("(1 2 3)", 5)])
    above = np.array([4, 3, 2, 1, 0], dtype=np.uint8)
    assert groups._pack(above, 5) > groups._pack(c3.images, 5).max()
    with pytest.raises(KeyError):
        c3.ids(np.vstack([c3.images[::-1], above]))


# -- property tests against independent references ------------------------


@functools.lru_cache(maxsize=None)
def _table(name: str) -> GroupTable:
    if name == "S5":  # the S5 spec file's generators
        gens = [Perm.from_cycles("(1 2 3 4 5)", 5), Perm.from_cycles("(1 2)", 5)]
        return GroupTable.from_generators(gens, name="S5")
    return catalog.load(name).table


PROPERTY_GROUPS = ("A5", "PSL(2,7)", "S5")


@st.composite
def _group_and_ids(draw, max_ids=3):
    g = _table(draw(st.sampled_from(PROPERTY_GROUPS)))
    ids = draw(st.lists(st.integers(0, g.order - 1), max_size=max_ids))
    return g, ids


def _perm_closure(perms: list[Perm], degree: int) -> set[tuple[int, ...]]:
    """The group generated by ``perms``, by composing Perms until nothing
    new appears (no packed keys, no id lookups)."""
    members = {Perm(range(degree))} | set(perms)
    frontier = list(members)
    while frontier:
        fresh = []
        for a in frontier:
            for b in perms:
                c = compose(a, b)
                if c not in members:
                    members.add(c)
                    fresh.append(c)
        frontier = fresh
    return {p.images for p in members}


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_group_and_ids(), st.integers(0, 200))
def test_subgroup_closure_matches_perm_closure(group_and_ids, abort_above):
    g, ids = group_and_ids
    expected = _perm_closure([g.perm(x) for x in ids], g.degree)
    h = subgroup_closure(g, ids)
    assert {tuple(g.images[x].tolist()) for x in h.member_ids} == expected
    assert h.generators == tuple(sorted(set(ids)))
    assert list(h.member_ids) == sorted(h.member_ids.tolist())
    capped = groups.subgroup_closures(g, [ids], abort_above)[0]
    if len(expected) > abort_above:
        assert capped is None
    else:
        assert np.array_equal(capped.member_ids, h.member_ids)
    # every right map the table holds is y -> y*x in the narrowest type,
    # and a repeated closure reads the maps that the first one made
    all_ids = np.arange(g.order)
    assert {x for x in h.generators if x != 0} <= set(g._right_maps)
    for x, right in g._right_maps.items():
        assert right.dtype == np.min_scalar_type(g.order - 1)
        assert np.array_equal(right, g.mul_many(all_ids, x))
    made = len(g._right_maps)
    assert np.array_equal(subgroup_closure(g, ids).member_ids, h.member_ids)
    assert len(g._right_maps) == made


@st.composite
def _generator_sets(draw):
    """A group, generator sets in it (the group's own generators first, then
    random sets with empty ones, the identity and repeats), an abort bound
    and a batch budget of one row, three rows or the module's."""
    g = _table(draw(st.sampled_from(["A5", "PSL(2,7)", "A6"])))
    ids = st.lists(st.integers(0, g.order - 1), max_size=3)
    sets = [g.generator_ids, *draw(st.lists(ids, min_size=1, max_size=12))]
    # a bound that some row reaches exactly, or any bound
    sizes = [subgroup_closure(g, ids).size for ids in sets]
    bound = draw(st.one_of(st.sampled_from(sizes), st.integers(0, g.order)))
    budget = draw(st.sampled_from([1, 3 * g.order, groups.CLOSURE_BUDGET]))
    return g, sets, bound, budget


def _same_closures(got, expected):
    assert len(got) == len(expected)
    for h, e in zip(got, expected):
        assert (h is None) == (e is None)
        if e is not None:
            assert np.array_equal(h.member_ids, e.member_ids)
            assert h.generators == e.generators


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_generator_sets())
def test_batched_closures_match_one_at_a_time(case):
    g, sets, bound, budget = case
    expected = [groups.subgroup_closures(g, [s], bound)[0] for s in sets]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "CLOSURE_BUDGET", budget)
        got = groups.subgroup_closures(g, sets, bound)
    _same_closures(got, expected)


def _first_level_past(g, ids, bound):
    """The breadth-first level at which the closure of ``ids`` first holds
    more than ``bound`` elements (level 0 is the identity and ``ids``), or
    None if it never does; by composing Perms."""
    perms = [g.perm(x) for x in ids]
    members = {Perm(range(g.degree))} | set(perms)
    frontier, level = list(members), 0
    while len(members) <= bound:
        if not frontier:
            return None
        frontier = [c for c in {compose(a, b) for a in frontier for b in perms} if c not in members]
        members.update(frontier)
        level += 1
    return level


def test_batched_rows_abort_at_different_levels(monkeypatch):
    # in A6, the group and its A5 and 3^2:4 pass 24 elements at different
    # levels, while S4 reaches exactly 24 and a cyclic group of order 5
    # stays below; a budget of two rows a batch splits them across batches
    cg = catalog.load("A6")
    g = cg.table
    by_label = cg.classes_by_label()
    sets = [g.generator_ids] + [
        by_label[label].representative.generators for label in ("A5", "3^2:4", "S4")
    ]
    sets.append(g.elements_with_order(5)[:1])
    bound = 24
    levels = [_first_level_past(g, s, bound) for s in sets]
    assert len(set(levels[:3])) == 3 and None not in levels[:3] and levels[3:] == [None, None]
    expected = [groups.subgroup_closures(g, [s], bound)[0] for s in sets]
    assert [h is None for h in expected] == [x is not None for x in levels]
    assert expected[3].size == bound
    monkeypatch.setattr(groups, "CLOSURE_BUDGET", 2 * g.order)
    _same_closures(groups.subgroup_closures(g, sets, bound), expected)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_group_and_ids())
def test_normalizer_is_the_stabilizer_under_conjugation(group_and_ids):
    g, ids = group_and_ids
    h = subgroup_closure(g, ids)
    expected = [y for y in range(g.order) if h.conjugate(y) == h]
    assert normalizer(g, h).tolist() == expected


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_group_and_ids())
def test_conjugation_orbit_matches_sequential_walk(group_and_ids):
    g, ids = group_and_ids
    h = subgroup_closure(g, ids)
    cls = orbit_class(g, h)
    members, keys, gens, conjugators = sequential_orbit(
        g, h.member_ids, groups._acting_generators(g), h.generators
    )
    order = sorted(range(len(keys)), key=keys.__getitem__)
    assert [m.tolist() for m in cls.members] == [members[i].tolist() for i in order]
    assert cls.keys == [keys[i] for i in order]
    assert [x.tolist() for x in cls.generator_images] == [gens[i].tolist() for i in order]
    assert cls.conjugators.tolist() == [conjugators[i] for i in order]
    assert cls.representative is h
    for c, conj in zip(cls.conjugates, cls.conjugators, strict=True):
        assert h.conjugate(conj) == c


@pytest.mark.parametrize("name", ["A5", "PSL(2,7)", "A6", "PSL(2,11)", "PSL(2,13)", "M11"])
def test_cycle_data_matches_sympy(name):
    # an independent oracle for the vectorized cycle data: sympy's own
    # cycle decomposition of every element
    from sympy.combinatorics import Permutation

    g = catalog.load(name).table
    orders = g.element_orders()
    by_type: dict[tuple[int, ...], list[int]] = {}
    for eid, row in enumerate(g.images.tolist()):
        p = Permutation(row)
        assert int(orders[eid]) == p.order()
        cycle_type = tuple(sorted(n for n, k in p.cycle_structure.items() for _ in range(k)))
        by_type.setdefault(cycle_type, []).append(eid)
    assert sum(map(len, by_type.values())) == g.order
    for cycle_type, ids in by_type.items():
        assert g.elements_with_cycle_type(cycle_type).tolist() == ids


@pytest.mark.parametrize("name", ["A5", "PSL(2,7)", "A6", "PSL(2,11)"])
def test_element_classes_match_sympy(name):
    # an independent oracle: sympy's conjugacy classes of the group on the
    # same generators.  Labels closed under conjugation by the generators,
    # with as many classes of each size as sympy finds, are the classes.
    from sympy.combinatorics import Permutation, PermutationGroup

    g = load_group(name).table
    labels = g.element_classes()
    assert (labels <= np.arange(g.order)).all() and (labels[labels] == labels).all()
    for x in g.generator_ids:
        conjugated = g.mul_many(g.mul_many(g.inv[x], np.arange(g.order)), x)
        assert (labels[conjugated] == labels).all()
    sympy_group = PermutationGroup([Permutation(g.images[x].tolist()) for x in g.generator_ids])
    assert sorted(np.bincount(labels)[np.unique(labels)].tolist()) == sorted(
        len(c) for c in sympy_group.conjugacy_classes()
    )


# the maximal classes on whose cosets S acts 2-transitively (ATLAS)
TWO_TRANSITIVE = {
    "A5": {"A4", "D10"},
    "PSL(2,7)": {"7:3", "S4", "S4'"},
    "A6": {"A5", "PSL(2,5)", "3^2:4"},
    "PSL(2,11)": {"11:5", "A5", "A5'"},
    "PSL(2,13)": {"13:6"},
    "M11": {"M10", "PSL(2,11)"},
}


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_holder_counts_are_permutation_characters(name):
    # a maximal subgroup M of a simple S is its own normalizer, so the
    # holder count of M's class is the permutation character 1_M^S: it sums
    # to |S| (Burnside's count, one orbit), and its squares sum to rank * |S|,
    # 2|S| exactly when S acts 2-transitively on the cosets of M
    cg = load_group(name)
    S = cg.table
    for cls in cg.maximal_classes:
        held = groups.conjugates_holding(S, [cls])
        assert int(held.sum()) == S.order, cls.label
        squares = int((held**2).sum())
        assert (squares == 2 * S.order) == (cls.label in TWO_TRANSITIVE[name]), cls.label
        assert squares >= 2 * S.order, cls.label
