import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathcover import catalog
from wreathcover.groups import (
    ClosureBudgetError,
    GroupTable,
    class_conjugators,
    conjugate_class,
    conjugation_orbit,
    normalizer,
    orbit_class,
    subgroup_closure,
    subgroup_from_set,
)
from wreathcover.perm import DegreeMismatchError, Perm

from oracles import compose


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
    whole = subgroup_from_set(a5, range(a5.order), verify=False)
    assert conjugate_class(a5, whole).class_size == 1


def test_class_conjugators_and_conjugate_generators(a5):
    s3 = subgroup_closure(
        a5, [a5.id_of(Perm.from_cycles("(1 2 3)", 5)), a5.id_of(Perm.from_cycles("(1 2)(4 5)", 5))]
    )
    cls = conjugate_class(a5, s3)
    conj = class_conjugators(a5, cls)
    assert sorted(conj) == [h.canonical_key for h in cls.conjugates]
    assert len(cls.conjugates) == 10
    for h in cls.conjugates:
        # the conjugator maps the representative onto h, and h's carried
        # generators generate h
        assert s3.conjugate(conj[h.canonical_key]) == h
        assert np.array_equal(subgroup_closure(a5, h.generators).member_ids, h.member_ids)


def test_normalizer_and_centralizer(a5):
    c5 = subgroup_closure(a5, [a5.id_of(Perm.from_cycles("(1 2 3 4 5)", 5))])
    n = normalizer(a5, c5)
    assert n.shape[0] == 10  # N(C5) = D10 in A5
    x = a5.id_of(Perm.from_cycles("(1 2 3 4 5)", 5))
    assert sum(int(a5.conj_map(g)[x] == x) for g in range(a5.order)) == 5


def test_subgroup_from_set_rejects_non_subgroup(a5):
    with pytest.raises(ValueError):
        subgroup_from_set(a5, [0, 1, 2, 3])


def test_lagrange_violation_rejected(a5):
    with pytest.raises(ValueError):
        subgroup_from_set(a5, range(7), verify=False)


def test_budget_cap():
    with pytest.raises(ClosureBudgetError):
        GroupTable.from_generators(
            [
                Perm.from_cycles("(1 2 3 4 5 6 7 8 9 10 11)", 11),
                Perm.from_cycles("(3 7 11 8)(4 10 5 6)", 11),
            ],
            product_budget=100,
        )


def test_generator_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
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
        assert a5.mul_right([x], y).tolist() == a5.mul_left(x, [y]).tolist() == [z]


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
    capped = subgroup_closure(g, ids, abort_above=abort_above)
    if len(expected) > abort_above:
        assert capped is None
    else:
        assert np.array_equal(capped.member_ids, h.member_ids)


def _sequential_orbit(g, member_ids, elements, generators=None):
    """One member at a time, each expanded by the elements in order: the
    Schreier-vector walk that ``conjugation_orbit`` does level by level."""
    maps = [g.conj_map(x) for x in elements]
    start = np.asarray(member_ids, dtype=np.int64)
    members, keys, parent, via = [start], [start.tobytes()], [-1], [-1]
    gens = None if generators is None else [np.asarray(generators, dtype=np.int64)]
    seen = set(keys)
    for i, cur in enumerate(members):
        for j, cm in enumerate(maps):
            nxt = np.sort(cm[cur])
            if nxt.tobytes() not in seen:
                seen.add(nxt.tobytes())
                members.append(nxt)
                keys.append(nxt.tobytes())
                parent.append(i)
                via.append(j)
                if gens is not None:
                    gens.append(cm[gens[i]])
    return members, keys, parent, via, gens


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_group_and_ids(), st.lists(st.integers(0, 10**6), max_size=4), st.booleans())
def test_conjugation_orbit_matches_sequential_walk(group_and_ids, acting, carry):
    g, ids = group_and_ids
    h = subgroup_closure(g, ids)
    elements = [x % g.order for x in acting]
    generators = h.generators if carry else None
    orbit = conjugation_orbit(g, h.member_ids, elements, generators)
    members, keys, parent, via, gens = _sequential_orbit(g, h.member_ids, elements, generators)
    assert [m.tolist() for m in orbit.members] == [m.tolist() for m in members]
    assert orbit.keys == keys
    assert orbit.parent == parent
    assert orbit.via == via
    if carry:
        assert [x.tolist() for x in orbit.generators] == [x.tolist() for x in gens]
    else:
        assert orbit.generators is None
    cls = orbit_class(g, h)
    conjugators = class_conjugators(g, cls)
    assert sorted(conjugators) == [c.canonical_key for c in cls.conjugates]
    for c in cls.conjugates:
        assert h.conjugate(conjugators[c.canonical_key]) == c


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
