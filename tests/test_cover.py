import json
import sys
from functools import reduce
from operator import or_
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathcover import InputError, cover
from wreathcover.cover import (
    build_instance,
    sigma_exact,
    sigma_greedy,
    verify_cover,
    verify_cover_handles,
)
from wreathcover.groups import GroupTable
from wreathcover.lattice import all_subgroup_classes, maximal_classes_from_lattice
from wreathcover.perm import Perm
from wreathcover.pipelines import load_group, parse_target_spec

from oracles import exhaustive_min_cover


@pytest.fixture(scope="module")
def a5_instance(a5):
    return build_instance(a5.table, a5.maximal_classes)


def test_sigma_a5(a5_instance):
    cert = sigma_exact(a5_instance)
    assert cert.kind == "exact-optimal"
    assert cert.value == 10
    assert cert.lower_bound["value"] == 10
    ok, _ = verify_cover(a5_instance, cert.chosen)
    assert ok


def test_sigma_a5_against_exhaustive_oracle(a5_instance):
    found = exhaustive_min_cover(a5_instance.masks, a5_instance.full_mask, 10)
    assert found is not None and found[0] == 10


def test_sigma_greedy_at_least_optimal(a5_instance):
    greedy = sigma_greedy(a5_instance)
    assert greedy.kind == "upper-bound"
    assert greedy.value >= 10
    ok, _ = verify_cover(a5_instance, greedy.chosen)
    assert ok


def test_single_candidate_target(a5, a5_instance):
    # a target inside one proper subgroup has a one-member cover
    d10 = a5.classes_by_label()["D10"].representative
    inst = build_instance(a5.table, a5.maximal_classes, d10.member_ids)
    cert = sigma_exact(inst)
    assert cert.value == 1


def test_empty_target(a5):
    inst = build_instance(a5.table, a5.maximal_classes, np.array([0]))
    cert = sigma_exact(inst)
    assert cert.kind == "empty" and cert.value == 0


def test_target_monotone(a5):
    rng = np.random.default_rng(23)
    g = a5.table
    for _ in range(5):
        big = rng.choice(np.arange(1, g.order), size=30, replace=False)
        small = rng.choice(big, size=12, replace=False)
        v_small = sigma_exact(build_instance(g, a5.maximal_classes, small)).value
        v_big = sigma_exact(build_instance(g, a5.maximal_classes, big)).value
        assert v_small <= v_big


def test_conjugation_invariance(a5):
    rng = np.random.default_rng(29)
    g = a5.table
    target = rng.choice(np.arange(1, g.order), size=25, replace=False)
    base = sigma_exact(build_instance(g, a5.maximal_classes, target)).value
    for _ in range(4):
        s = int(rng.integers(1, g.order))
        conj = g.conj_map(s)[target]
        v = sigma_exact(build_instance(g, a5.maximal_classes, conj)).value
        assert v == base


def test_candidate_order_does_not_matter(a5):
    inst1 = build_instance(a5.table, a5.maximal_classes)
    inst2 = build_instance(a5.table, list(reversed(a5.maximal_classes)))
    assert sigma_exact(inst1).value == sigma_exact(inst2).value == 10


def test_sigma_psl27(psl7):
    inst = build_instance(psl7.table, psl7.maximal_classes)
    cert = sigma_exact(inst)
    assert cert.value == 15
    ok, _ = verify_cover(inst, cert.chosen)
    assert ok


def test_sigma_m11(m11):
    inst = build_instance(m11.table, m11.maximal_classes)
    cert = sigma_exact(inst)
    assert cert.value == 23
    # the optimum uses the eleven M10s and twelve PSL(2,11)s
    chosen_classes = sorted({lab.split("[")[0] for lab in cert.chosen})
    assert chosen_classes == ["M10", "PSL(2,11)"]


def test_m11_cover_from_two_classes(m11):
    handles = [
        h
        for lab in ("M10", "PSL(2,11)")
        for h in m11.classes_by_label()[lab].conjugates
    ]
    ok, witness = verify_cover_handles(m11.table, handles)
    assert ok and witness is None


def test_removing_member_breaks_cover(a5, a5_instance):
    cert = sigma_exact(a5_instance)
    ok, witness = verify_cover(a5_instance, cert.chosen[1:])
    assert not ok
    assert witness is not None
    # the witness is an element of the removed subgroup only; for a dropped
    # D10 it has order 5
    removed = cert.chosen[0]
    idx = a5_instance.labels.index(removed)
    assert witness in a5_instance.handles[idx].member_ids


def test_cyclic_group_infeasible(_cache_dir):
    c6 = GroupTable.from_generators([Perm.from_cycles("(1 2 3 4 5 6)", 6)], name="C6")
    classes = maximal_classes_from_lattice(
        c6, all_subgroup_classes(c6, cache_dir=_cache_dir)
    )
    inst = build_instance(c6, classes)
    cert = sigma_exact(inst)
    assert cert.kind == "infeasible"
    assert cert.witness is not None
    assert "cyclic" in cert.notes[0]


def test_psl27_oracle(psl7):
    inst = build_instance(psl7.table, psl7.maximal_classes)
    found = exhaustive_min_cover(inst.masks, inst.full_mask, 15)
    assert found is not None and found[0] == 15


def _stack_depth() -> int:
    """The caller's recursion depth as the interpreter counts it: the least
    recursion limit under which a call two frames above the caller
    succeeds, less two."""
    old = sys.getrecursionlimit()
    limit = 1
    try:
        while True:
            try:
                sys.setrecursionlimit(limit)
                (lambda: None)()  # two frames above the caller
                return limit - 2
            except RecursionError:
                limit += 1
    finally:
        sys.setrecursionlimit(old)


def test_search_runs_in_constant_stack_depth():
    # the search keeps its own stack: eight frames above the caller
    # suffice, where one frame per search level needs eleven here
    cg = load_group("A6")
    inst = build_instance(
        cg.table, cg.maximal_classes, parse_target_spec(cg.table, "cycle-types:2,4")
    )
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 8)
    try:
        cert = sigma_exact(inst)
    finally:
        sys.setrecursionlimit(old)
    assert cert.kind == "exact-optimal"
    assert verify_cover(inst, cert.chosen)[0]


def _a6_instance(spec):
    cg = load_group("A6")
    return build_instance(cg.table, cg.maximal_classes, parse_target_spec(cg.table, spec))


def _assert_node_cap_is_exact(inst, nodes, monkeypatch):
    """The search passes with NODE_CAP at its node count and raises one
    node below it."""
    assert sigma_exact(inst).lower_bound["nodes"] == nodes
    monkeypatch.setattr(cover, "NODE_CAP", nodes)
    assert sigma_exact(inst).lower_bound["nodes"] == nodes
    monkeypatch.setattr(cover, "NODE_CAP", nodes - 1)
    with pytest.raises(InputError, match=f"branch-and-bound exceeded {nodes - 1} nodes"):
        sigma_exact(inst)


def test_node_cap_is_exact(psl7, monkeypatch):
    inst = build_instance(
        psl7.table, psl7.maximal_classes, parse_target_spec(psl7.table, "orders:3")
    )
    _assert_node_cap_is_exact(inst, 1617, monkeypatch)


def test_node_cap_is_exact_on_repeated_sets(monkeypatch):
    # most of this search's nodes are counted from stored subtrees, so the
    # cap falls inside a skipped subtree
    _assert_node_cap_is_exact(_a6_instance("orders:3"), 38256, monkeypatch)


def _bitscan_greedy(masks, full):
    """The greedy cover by one popcount per candidate per step: the first
    candidate of largest gain wins."""
    covered, chosen = 0, []
    while covered != full:
        gains = [(m & ~covered).bit_count() for m in masks]
        if max(gains) == 0:
            return None
        chosen.append(gains.index(max(gains)))
        covered |= masks[chosen[-1]]
    return chosen


def _bitscan_search(masks, full, greedy):
    """The branch-and-bound by per-bit scans, one call per node: the
    search sigma_exact must make node for node.  Universe position 0 is the
    top bit, so the packing takes the top uncovered bit, and the branch
    element is the highest of the least-covered uncovered bits.  Returns
    [value, chosen, nodes]."""
    nbits = full.bit_length()
    coverers = [[i for i, m in enumerate(masks) if m >> e & 1] for e in range(nbits)]
    union = [reduce(or_, (masks[i] for i in c), 0) for c in coverers]
    forced = sorted({c[0] for c in coverers if len(c) == 1})
    best = [len(greedy), tuple(sorted(greedy)), 0]

    def visit(chosen, covered):
        best[2] += 1
        if covered == full:
            if len(chosen) < best[0]:
                best[:2] = len(chosen), tuple(sorted(chosen))
            return
        uncovered = rest = full & ~covered
        packing = 0
        while rest:
            rest &= ~union[rest.bit_length() - 1]
            packing += 1
        if len(chosen) + packing >= best[0]:
            return
        e = -min((len(coverers[e]), -e) for e in range(nbits) if uncovered >> e & 1)[1]
        for _, i in sorted((-(masks[i] & uncovered).bit_count(), i) for i in coverers[e]):
            visit(chosen + [i], covered | masks[i])

    visit(forced, reduce(or_, (masks[i] for i in forced), 0))
    return best


@st.composite
def _random_instances(draw, max_target):
    cg = load_group(draw(st.sampled_from(["A5", "PSL(2,7)"])))
    g = cg.table
    classes = draw(
        st.lists(st.sampled_from(cg.maximal_classes), min_size=1, max_size=3, unique_by=id)
    )
    target = draw(
        st.lists(
            st.integers(1, g.order - 1),
            min_size=1,
            max_size=min(max_target, g.order - 1),
            unique=True,
        )
    )
    return build_instance(g, classes, np.array(target, dtype=np.int64))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_random_instances(max_target=30))
def test_exact_and_greedy_match_oracles(inst):
    cert = sigma_exact(inst)
    greedy = sigma_greedy(inst)
    found = exhaustive_min_cover(inst.masks, inst.full_mask, len(inst.masks))
    if found is None:
        assert cert.kind == greedy.kind == "infeasible"
        return
    assert cert.kind == "exact-optimal" and cert.value == found[0]
    assert verify_cover(inst, cert.chosen)[0]
    order = _bitscan_greedy(inst.masks, inst.full_mask)
    assert greedy.chosen == [inst.labels[i] for i in order]
    assert cert.lower_bound["greedy_seed"] == len(order)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_random_instances(max_target=30), st.data())
def test_cover_checks_match_set_union(inst, data):
    # the reference: each candidate's elements as a set, no bitmask
    universe = inst.universe_ids.tolist()
    members = dict(zip(inst.labels, (set(h.member_ids.tolist()) for h in inst.handles)))

    def first_missed(labels):
        union = set().union(*(members[lab] for lab in labels))
        return next((x for x in universe if x not in union), None)

    # the mask layout the search reads: bit nbits - 1 - e of a mask is set
    # exactly when universe element e is a member
    nbits = inst.universe_size
    for lab, m in zip(inst.labels, inst.masks):
        assert m >> nbits == 0
        assert [m >> (nbits - 1 - e) & 1 for e in range(nbits)] == [
            int(x in members[lab]) for x in universe
        ]
    nowhere = first_missed(inst.labels)
    for cert in (sigma_exact(inst), sigma_greedy(inst)):
        assert (cert.kind == "infeasible") == (nowhere is not None)
        if nowhere is not None:
            assert cert.witness["uncovered_element"] == nowhere
    labels = data.draw(st.lists(st.sampled_from(inst.labels), unique=True))
    missed = first_missed(labels)
    assert verify_cover(inst, labels) == (missed is None, missed)
    assert verify_cover(inst, []) == (False, universe[0])
    assert verify_cover_handles(inst.group, []) == (False, 1)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_random_instances(max_target=10**3))
def test_search_matches_bitscan_search(inst):
    cert = sigma_exact(inst)
    order = _bitscan_greedy(inst.masks, inst.full_mask)
    if order is None:
        assert cert.kind == "infeasible"
        return
    value, chosen, nodes = _bitscan_search(inst.masks, inst.full_mask, order)
    assert cert.value == value and cert.lower_bound["nodes"] == nodes
    assert cert.chosen == [inst.labels[i] for i in chosen]
    assert cert.lower_bound["greedy_seed"] == len(order)


def test_search_matches_bitscan_search_on_psl213(monkeypatch):
    # 79,915 nodes, the longest search checked against the reference; the
    # reference itself runs once, on the benchmark-targets probe row below
    cg = load_group("PSL(2,13)")
    inst = build_instance(
        cg.table, cg.maximal_classes, parse_target_spec(cg.table, "orders:6")
    )
    _assert_node_cap_is_exact(inst, 79915, monkeypatch)


_BNB_TARGETS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "bnb_targets.json").read_text()
)
_REFERENCE_SEARCHES = [
    (e["group"], e["target"], e["sigma"])
    for e in [e for choice in _BNB_TARGETS["choices"] for e in choice] + _BNB_TARGETS["probes"]
] + [("A5", None, 10), ("PSL(2,7)", None, 15), ("PSL(2,11)", None, 67), ("PSL(2,13)", None, 92),
      ("M11", None, 23)]


@pytest.mark.parametrize(
    "group, target, sigma",
    _REFERENCE_SEARCHES,
    ids=[f"{g}-{t or 'whole'}" for g, t, _ in _REFERENCE_SEARCHES],
)
def test_search_matches_bitscan_search_on_benchmark_targets(group, target, sigma):
    # every seeded target and probe of the bnb workload, and every whole
    # catalog group but A6 (554,032 nodes), against the reference node for
    # node.  A6's orders:3, orders:4 and cycle-types:1,1,2,2 count 58%, 53%
    # and 11% of their nodes from stored subtrees without walking them.
    # Under the first two, some uncovered sets are expanded under more than
    # one limit, which the table keys apart
    cg = load_group(group)
    spec = None if target is None else parse_target_spec(cg.table, target)
    inst = build_instance(cg.table, cg.maximal_classes, spec)
    cert = sigma_exact(inst)
    order = _bitscan_greedy(inst.masks, inst.full_mask)
    value, chosen, nodes = _bitscan_search(inst.masks, inst.full_mask, order)
    assert cert.value == value and cert.lower_bound["nodes"] == nodes
    assert cert.chosen == [inst.labels[i] for i in chosen]
    assert value == sigma
