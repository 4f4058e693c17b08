import numpy as np
import pytest

from wreathcover.groups import (
    ClosureBudgetError,
    GroupTable,
    class_conjugators,
    conjugate_class,
    normalizer,
    subgroup_closure,
    subgroup_from_set,
)
from wreathcover.perm import DegreeMismatchError, Perm


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
    assert a5.perm(0).is_identity()


def test_m11_order(m11):
    assert m11.order == 7920


def test_cyclic_c3():
    g = GroupTable.from_generators([Perm.from_cycles("(1 2 3)", 3)])
    assert g.order == 3
    assert (g.element_orders() == g.order).any()  # cyclic


def test_identity_is_id_zero(a5):
    assert a5.perm(0) == Perm.identity(5)
    assert int(a5.inv[0]) == 0


def test_mul_matches_perm_composition(a5):
    rng = np.random.default_rng(5)
    ids = rng.integers(0, a5.order, size=(50, 2))
    for a, b in ids.tolist():
        expected = a5.perm(a) * a5.perm(b)
        assert a5.perm(a5.mul(a, b)) == expected


def test_inverse_table(a5):
    for eid in range(a5.order):
        assert a5.mul(eid, int(a5.inv[eid])) == 0


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
                p = a5.mul(a, b)
                if p not in members:
                    members.add(p)
                    changed = True
    h = subgroup_closure(a5, [c5, inv2])
    assert h.member_set() == members


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
        GroupTable.from_generators([Perm.identity(3), Perm.identity(4)])


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
        assert a5.mul(x, y) == z
