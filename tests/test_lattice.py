import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathcover import InputError, catalog, lattice
from wreathcover.groups import GroupTable, normalizer, subgroup_closure, subgroup_closures
from wreathcover.lattice import (
    all_subgroup_classes,
    maximal_classes_from_lattice,
)
from wreathcover.formulas import smallest_prime_factor
from wreathcover.perm import Perm
from wreathcover.pipelines import load_group

from oracles import orbit_reps_walk


def test_a5_has_nine_classes(a5, _cache_dir):
    classes = all_subgroup_classes(a5.table, cache_dir=_cache_dir)
    assert [(c.order, c.class_size) for c in classes] == [
        (1, 1),
        (2, 15),
        (3, 10),
        (4, 5),
        (5, 6),
        (6, 10),
        (10, 6),
        (12, 5),
        (60, 1),
    ]


def _two_generator_subgroups(g):
    """The canonical key of every subgroup generated by one or two
    elements, closed in one batch."""
    sets = [[x] for x in range(g.order)]
    sets += [[x, y] for x in range(g.order) for y in range(x + 1, g.order)]
    return {h.canonical_key for h in subgroup_closures(g, sets, g.order)}


def test_a5_lattice_against_two_generator_oracle(a5, _cache_dir):
    # every subgroup of A5 is generated by at most two elements, so closing
    # all pairs enumerates the full lattice independently
    g = a5.table
    subgroups = _two_generator_subgroups(g)
    classes = all_subgroup_classes(g, cache_dir=_cache_dir)
    assert {key for c in classes for key in c.keys} == subgroups
    assert len(subgroups) == 59


@pytest.mark.parametrize("relabel", [False, True], ids=["as-given", "relabelled"])
@pytest.mark.parametrize(
    "name, degree, generators, count",
    [
        ("S5", 5, ["(1 2 3 4 5)", "(1 2)"], 156),
        ("PSL(2,7)", 7, ["(1 2 3 4 5 6 7)", "(1 2)(3 6)"], 179),
    ],
    ids=["S5", "PSL(2,7)"],
)
def test_lattice_against_two_generator_oracle(name, degree, generators, count, relabel):
    # every subgroup of S5 and of PSL(2,7) is generated by at most two
    # elements; a random relabelling of the points, as the benchmark's
    # seeds make, gives the same group with other ids
    if relabel:
        points = np.random.default_rng(7).permutation(degree) + 1
        assert (points != np.arange(1, degree + 1)).any()
        generators = [
            re.sub(r"\d+", lambda m: str(points[int(m.group()) - 1]), gen) for gen in generators
        ]
    g = GroupTable.from_generators([Perm.from_cycles(s, degree) for s in generators], name=name)
    subgroups = _two_generator_subgroups(g)
    assert {key for c in all_subgroup_classes(g) for key in c.keys} == subgroups
    assert len(subgroups) == count


def test_cyclic_group_has_divisor_classes(_cache_dir):
    c3 = GroupTable.from_generators([Perm.from_cycles("(1 2 3)", 3)])
    classes = all_subgroup_classes(c3, cache_dir=_cache_dir)
    assert [(c.order, c.class_size) for c in classes] == [(1, 1), (3, 1)]

    c12 = GroupTable.from_generators([Perm.from_cycles("(1 2 3 4 5 6 7 8 9 10 11 12)", 12)])
    classes = all_subgroup_classes(c12, cache_dir=_cache_dir)
    assert [c.order for c in classes] == [1, 2, 3, 4, 6, 12]


def test_m11_lattice_complete(m11, m11_lattice):
    assert len(m11_lattice) == 39
    assert sum(c.class_size for c in m11_lattice) == 8651
    # contains the M9:2-sized class
    assert any(c.order == 144 for c in m11_lattice)
    # class sizes satisfy Lagrange against normalizers (checked at build);
    # orders all divide the group order
    assert all(m11.table.order % c.order == 0 for c in m11_lattice)


def test_m11_maximal_classes_match_catalog(m11, m11_lattice):
    maxes = maximal_classes_from_lattice(m11.table, m11_lattice)
    found = sorted((c.order, c.class_size) for c in maxes)
    expected = sorted((c.order, c.class_size) for c in m11.maximal_classes)
    assert found == expected
    # element-set identity, not just numerology
    lattice_keys = {c.representative.canonical_key for c in maxes}
    for cls in m11.maximal_classes:
        assert any(
            h.canonical_key in lattice_keys for h in cls.conjugates
        ), cls.label


def test_catalog_maximality_verified_by_lattice(_cache_dir):
    # C5's outside maximum ranges over the catalog's maximal list, so each
    # built-in list must be exactly the lattice's maximal classes (M11 has
    # its own test)
    for name in ("A5", "A6", "PSL(2,7)", "PSL(2,11)", "PSL(2,13)"):
        cg = load_group(name)
        lattice = all_subgroup_classes(cg.table, cache_dir=_cache_dir)
        maxes = maximal_classes_from_lattice(cg.table, lattice)
        lattice_keys = {c.representative.canonical_key for c in maxes}
        assert len(maxes) == len(cg.maximal_classes), name
        for cls in cg.maximal_classes:
            assert any(h.canonical_key in lattice_keys for h in cls.conjugates), (name, cls.label)


def test_cap_enforced(m11, monkeypatch):
    monkeypatch.setattr(lattice, "ORDER_CAP", 100)
    with pytest.raises(InputError, match="exceeds lattice cap 100"):
        all_subgroup_classes(m11.table)


def test_cache_roundtrip(tmp_path, a5):
    first = all_subgroup_classes(a5.table, cache_dir=tmp_path)
    second = all_subgroup_classes(a5.table, cache_dir=tmp_path)
    assert [(c.order, c.class_size) for c in first] == [
        (c.order, c.class_size) for c in second
    ]
    keys_first = [c.conjugates[0].canonical_key for c in first]
    keys_second = [c.conjugates[0].canonical_key for c in second]
    assert keys_first == keys_second


def test_cache_rejects_wrong_group(tmp_path, a5, psl7):
    all_subgroup_classes(a5.table, cache_dir=tmp_path)
    # a different group must not read A5's cache entry
    classes = all_subgroup_classes(psl7.table, cache_dir=tmp_path)
    assert sum(c.class_size for c in classes) > 59
    assert classes[-1].order == psl7.table.order


@pytest.mark.parametrize("name", ["A5", "PSL(2,7)", "A6"])
def test_classes_keep_their_orbits_as_arrays(name, tmp_path):
    cg = catalog.load(name)
    cold = all_subgroup_classes(cg.table, cache_dir=tmp_path)
    for cls in [*cg.maximal_classes, *cold]:
        rep = cls.representative
        assert all(a < b for a, b in zip(cls.keys, cls.keys[1:])), cls
        for i, h in enumerate(cls.conjugates):
            expected = rep.conjugate(cls.conjugators[i])
            assert h == expected and h.generators == expected.generators
            assert h.canonical_key == cls.keys[i]
            assert np.array_equal(h.member_ids, cls.members[i])
            assert list(h.generators) == cls.generator_images[i].tolist()
    # a warm read on a fresh table builds no conjugate's handle, and no
    # right map but those of the group's generators
    spec = catalog.BUILTIN_SPECS[name]
    table = GroupTable.from_generators([Perm.from_cycles(s, spec.degree) for s in spec.generators])
    warm = all_subgroup_classes(table, cache_dir=tmp_path)
    assert [c.keys for c in warm] == [c.keys for c in cold]
    assert all("conjugates" not in c.__dict__ for c in warm)
    assert set(table._right_maps) == set(table.generator_ids)


# groups that are not built-ins: degree and generators
SPEC_GENERATORS = {
    "S5": (5, ["(1 2 3 4 5)", "(1 2)"]),  # the S5 spec file's
    "S6": (6, ["(1 2 3 4 5 6)", "(1 2)"]),
    "S4": (4, ["(1 2 3 4)", "(1 2)"]),
    "C6": (6, ["(1 2 3 4 5 6)"]),
    "C7": (7, ["(1 2 3 4 5 6 7)"]),
}


@functools.lru_cache(maxsize=None)
def _lattice(name: str):
    """The group and its subgroup classes, enumerated with every join
    aborted only past |G|/p, so that they do not rest on the join cap."""
    if name in SPEC_GENERATORS:
        degree, gens = SPEC_GENERATORS[name]
        g = GroupTable.from_generators([Perm.from_cycles(s, degree) for s in gens], name=name)
    else:
        g = catalog.load(name).table
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_proper_order_bound", lambda g, _: g.order // smallest_prime_factor(g.order))
        return g, all_subgroup_classes(g)


def _cyclic_classes(name: str):
    """The group and its cyclic subgroup classes, in lattice order."""
    g, classes = _lattice(name)
    orders = g.element_orders()
    return g, [
        c
        for c in classes
        if c.order > 1 and int(orders[c.representative.member_ids].max()) == c.order
    ]


@pytest.mark.parametrize(
    "name, bound",
    [
        # nonabelian simple: |G|/n0, n0 the least n with |G| dividing n!/2
        ("A5", 12),
        ("PSL(2,7)", 24),
        ("A6", 60),
        ("PSL(2,11)", 60),
        # not simple: |G|/p, p the least prime dividing |G|
        ("S5", 60),
        ("S6", 360),
        ("S4", 12),
        ("C6", 3),
        ("C7", 1),
    ],
)
def test_proper_order_bound(name, bound):
    # the join cap holds only for nonabelian simple groups, which a lattice
    # enumerated without the cap names independently: no class of one
    # member is normal and proper, and |G| is not prime
    g, classes = _lattice(name)
    _, cyclic = _cyclic_classes(name)
    assert lattice._proper_order_bound(g, cyclic) == bound
    normal = [c for c in classes if c.class_size == 1 and 1 < c.order < g.order]
    simple = not normal and len(classes) > 2
    assert simple == (bound < g.order // smallest_prime_factor(g.order))
    # every proper subgroup fits under the bound, and in these simple
    # groups the largest reaches it
    largest = max(c.order for c in classes if c.order < g.order)
    assert largest <= bound and (largest == bound or not simple)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["A5", "S5", "PSL(2,7)", "A6"]), st.data())
def test_cyclic_orbit_reps_match_orbit_walk(name, data):
    # the label propagation picks, class by class, the same representatives
    # in the same order as walking each unvisited conjugate's orbit
    g, classes = _cyclic_classes(name)
    acting = data.draw(st.lists(st.integers(0, g.order - 1), max_size=3))
    # the empty list, the identity and repeated elements included
    elements = acting + data.draw(st.sampled_from([[], [0], acting]))
    gens, label = lattice._number_cyclic(g, classes)
    cyclic = [h for c in classes for h in c.conjugates]
    assert gens.tolist() == [h.generators[0] for h in cyclic]
    assert np.array_equal(label[gens], np.arange(len(cyclic)))
    found = [cyclic[i] for i in lattice._orbit_reps(g, label, gens, elements).tolist()]
    expected = [h for c in classes for h in orbit_reps_walk(g, c, elements)]
    assert [h.canonical_key for h in found] == [h.canonical_key for h in expected]


@pytest.mark.parametrize("name", ["A5", "S5", "PSL(2,7)", "A6"])
def test_normalizer_generators_generate_the_normalizer(name, monkeypatch):
    # the generators grow from the representative's own, and close to its
    # normalizer; a self-normalizing representative computes none
    g, classes = _lattice(name)
    computed = []
    monkeypatch.setattr(lattice, "normalizer", lambda g, h: computed.append(h) or normalizer(g, h))
    self_normalizing = 0
    for cls in classes:
        rep = cls.representative
        computed.clear()
        gens = lattice._normalizer_generators(g, cls)
        expected = normalizer(g, rep)
        assert np.array_equal(subgroup_closure(g, gens).member_ids, expected), cls
        assert gens[: len(rep.generators)] == list(rep.generators)
        self_normalizing += expected.shape[0] == rep.size
        assert computed == ([] if expected.shape[0] == rep.size else [rep])
    assert self_normalizing > 1  # the whole group and a proper class
