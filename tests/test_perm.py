"""Perm at the I/O boundary, and the group arithmetic built on it.

``Perm`` only parses, validates and prints; products, inverses, element
orders and cycle types are ``GroupTable``'s, on element ids.  The tests of
the composition convention and of the element statistics therefore go
through a ``GroupTable`` of the permutations concerned.
"""

import random

import numpy as np
import pytest

from wreathcover.groups import GroupTable
from wreathcover.perm import DegreeMismatchError, Perm

from oracles import compose


def _group(degree, *cycles):
    return GroupTable.from_generators([Perm.from_cycles(c, degree) for c in cycles])


def _mul(g, p, q):
    """p * q computed by ``mul_many`` on element ids."""
    return g.perm(int(g.mul_many([g.id_of(p)], [g.id_of(q)])[0]))


S5 = ("(1 2 3 4 5)", "(1 2)")


def test_identity_composition():
    g = _group(5, *S5)
    p = Perm.from_cycles("(1 2 3)(4 5)", 5)
    e = Perm(range(5))
    assert _mul(g, e, p) == p
    assert _mul(g, p, e) == p


def test_inverse_composition():
    g = _group(5, *S5)
    p = Perm.from_cycles("(1 4 2 5 3)", 5)
    p_inv = g.perm(int(g.inv[g.id_of(p)]))
    assert _mul(g, p, p_inv) == Perm(range(5))
    assert _mul(g, p_inv, p) == Perm(range(5))


def test_three_cycle_square():
    # hand evaluation: (1 2 3) applied twice sends 1->3, 3->2, 2->1
    p = Perm.from_cycles("(1 2 3)", 3)
    assert _mul(_group(3, "(1 2 3)"), p, p) == Perm.from_cycles("(1 3 2)", 3)


def test_composition_convention_pinned():
    # mul_many(p, q) applies q FIRST: with p = (1 2), q = (2 3),
    # point 3 -> q -> 2 -> p -> 1.  The other convention would give 3 -> 2.
    p = Perm.from_cycles("(1 2)", 3)
    q = Perm.from_cycles("(2 3)", 3)
    r = _mul(_group(3, "(1 2)", "(2 3)"), p, q)
    assert r.images[2] == 0  # 0-indexed: point 3 lands on point 1
    assert r == Perm.from_cycles("(1 2 3)", 3) == compose(p, q)


def test_order_values():
    for degree, cycles, order in (
        (4, "()", 1),
        (11, "(1 2 3 4 5 6 7 8 9 10 11)", 11),
        (5, "(1 2)(3 4 5)", 6),
    ):
        g = _group(degree, cycles)
        p = Perm.from_cycles(cycles, degree)
        assert int(g.element_orders()[g.id_of(p)]) == order
    # direct powering oracle
    q = p
    k = 1
    while q != Perm(range(5)):
        q = compose(q, p)
        k += 1
    assert k == 6


def test_cycle_type_and_parity():
    g = _group(5, "(1 2 3 4 5)")
    assert g.elements_with_cycle_type([1, 1, 1, 1, 1]).tolist() == [0]
    assert g.id_of(Perm.from_cycles("(1 2 3 4 5)", 5)) in g.elements_with_cycle_type([5])
    p = Perm.from_cycles("(1 2 3)(4 5 6 7 8 9 10 11 12 13 14)", 14)
    g = GroupTable.from_generators([p])
    # the powers p^k with k prime to 33 keep the type: phi(33) = 20 of them
    ids = g.elements_with_cycle_type([3, 11])
    assert g.id_of(p) in ids and len(ids) == 20
    # the parity the cycle data gives, (degree - cycles) mod 2 with each
    # point counting 1/length of a cycle, against a transposition count
    lengths = g.cycle_lengths()[g.id_of(p)]
    cycles = round(float((1.0 / lengths).sum()))
    assert (14 - cycles) % 2 == sum(len(c) - 1 for c in p.cycles()) % 2 == 0


def test_associativity_exhaustive_degree_3():
    g = _group(3, "(1 2)", "(1 2 3)")
    a, b, c = (x.ravel() for x in np.meshgrid(*[np.arange(g.order)] * 3, indexing="ij"))
    assert np.array_equal(g.mul_many(g.mul_many(a, b), c), g.mul_many(a, g.mul_many(b, c)))


def test_associativity_random_degree_8():
    g = _group(8, "(1 2 3 4 5 6 7 8)", "(1 2)")
    rng = np.random.default_rng(11)
    a, b, c = rng.integers(0, g.order, size=(3, 100))
    assert np.array_equal(g.mul_many(g.mul_many(a, b), c), g.mul_many(a, g.mul_many(b, c)))


def test_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        _group(3, "(1 2 3)").id_of(Perm(range(4)))


def test_cycle_string_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(1, 12)
        a = list(range(n))
        rng.shuffle(a)
        p = Perm(a)
        assert Perm.from_cycles(p.to_cycle_string(), n) == p
    assert Perm(range(6)).to_cycle_string() == "()"


def test_parser_rejects_bad_input():
    with pytest.raises(ValueError):
        Perm.from_cycles("(1 2)(2 3)", 4)  # repeated point
    with pytest.raises(ValueError):
        Perm.from_cycles("(0 1)", 4)  # 1-indexed only
    with pytest.raises(ValueError):
        Perm.from_cycles("(1 5)", 4)  # out of range
    with pytest.raises(ValueError):
        Perm.from_cycles("1 2 3", 4)  # no parens


def test_invalid_images():
    with pytest.raises(ValueError):
        Perm([0, 0, 1])
    with pytest.raises(ValueError):
        Perm([])
