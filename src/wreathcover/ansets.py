"""Standard target sets and subgroup families for alternating groups.

Case split on n (at least 5, not an odd prime):

* n odd: target = n-cycles; family = the imprimitive block stabilizers
  with p blocks, p the smallest prime divisor of n.
* n divisible by 4: target = (i, n-i)-cycles for odd i below n/2; family =
  the i-set stabilizers for those i.
* n = 2 mod 4: target additionally includes the (n/2, n/2)-cycles and the
  family additionally includes the halves stabilizer.

Descriptors are symbolic (cycle types and class labels); materialization
into an enumerated A_n is practical for small n only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formulas import factorial, is_prime, smallest_prime_factor
from .groups import (
    GroupTable,
    SubgroupClass,
    SubgroupHandle,
    conjugate_class,
    subgroup_from_set,
)
from .perm import Perm


@dataclass(frozen=True)
class FamilyClassDescriptor:
    kind: str  # "intransitive" | "imprimitive" | "halves"
    param: int  # the i-set size, the block count p, or 2 for halves
    label: str


@dataclass
class AnStandardSets:
    n: int
    case: str  # "odd" | "doubly-even" | "singly-even"
    target_cycle_types: list[tuple[int, ...]]
    family: list[FamilyClassDescriptor]


def an_standard_sets(n: int) -> AnStandardSets:
    """The case-split target cycle types and family class descriptors."""
    if n < 5:
        raise ValueError("n >= 5 required")
    if n % 2 == 1:
        if is_prime(n):
            raise ValueError(f"n={n} is an odd prime: no imprimitive family exists")
        p = smallest_prime_factor(n)
        return AnStandardSets(
            n=n,
            case="odd",
            target_cycle_types=[(n,)],
            family=[FamilyClassDescriptor("imprimitive", p, f"imprimitive[{p}]")],
        )
    if n % 4 == 0:
        odds = [i for i in range(1, n // 2, 2)]
        return AnStandardSets(
            n=n,
            case="doubly-even",
            target_cycle_types=[tuple(sorted((i, n - i))) for i in odds],
            family=[
                FamilyClassDescriptor("intransitive", i, f"intransitive[{i}]")
                for i in odds
            ],
        )
    odds_target = [i for i in range(1, n // 2 + 1, 2)]
    odds_family = [i for i in range(1, n // 2, 2)]
    return AnStandardSets(
        n=n,
        case="singly-even",
        target_cycle_types=[tuple(sorted((i, n - i))) for i in odds_target],
        family=[
            FamilyClassDescriptor("intransitive", i, f"intransitive[{i}]")
            for i in odds_family
        ]
        + [FamilyClassDescriptor("halves", 2, "halves")],
    )


def alternating_group(n: int, product_budget: int = 10**7) -> GroupTable:
    """A_n on n points from a 3-cycle and a long even cycle."""
    if n < 3:
        raise ValueError("n >= 3 required")
    if n % 2 == 1:
        long_cycle = Perm(list(range(1, n)) + [0])
    else:
        long_cycle = Perm([0] + list(range(2, n)) + [1])
    three = Perm([1, 2, 0] + list(range(3, n)))
    return GroupTable.from_generators(
        [long_cycle, three], name=f"A{n}", product_budget=product_budget
    )


def _symmetric_block_generators(blocks: list[list[int]], n: int) -> list[Perm]:
    """Generators of the direct product of symmetric groups on the given
    blocks, plus nothing across blocks."""
    gens = []
    for blk in blocks:
        if len(blk) >= 2:
            images = list(range(n))
            images[blk[0]], images[blk[1]] = blk[1], blk[0]
            gens.append(Perm(images))
        if len(blk) >= 3:
            images = list(range(n))
            for a, b in zip(blk, blk[1:] + blk[:1]):
                images[a] = b
            gens.append(Perm(images))
    return gens


def _block_permuting_generators(blocks: list[list[int]], n: int) -> list[Perm]:
    """Pointwise block swap (first two blocks) and block cycle."""
    gens = []
    k = len(blocks)
    if k >= 2:
        images = list(range(n))
        for a, b in zip(blocks[0], blocks[1]):
            images[a], images[b] = b, a
        gens.append(Perm(images))
    if k >= 3:
        images = list(range(n))
        for j in range(k):
            for a, b in zip(blocks[j], blocks[(j + 1) % k]):
                images[a] = b
        gens.append(Perm(images))
    return gens


def _even_part_in(an: GroupTable, full_group: GroupTable, expected_order: int, label: str) -> SubgroupHandle:
    ids = []
    for eid in range(full_group.order):
        p = full_group.perm(eid)
        if p.parity() == 0:
            ids.append(an.id_of(p))
    if len(ids) != expected_order:
        raise AssertionError(
            f"{label}: even part has {len(ids)} elements, expected {expected_order}"
        )
    return subgroup_from_set(an, ids, label=label, verify=False)


def materialize_family_class(
    an: GroupTable, desc: FamilyClassDescriptor
) -> SubgroupClass:
    """Build the standard representative of a family class inside an
    enumerated A_n and return its full conjugacy class."""
    n = an.degree
    if desc.kind == "intransitive":
        i = desc.param
        blocks = [list(range(i)), list(range(i, n))]
        gens = _symmetric_block_generators(blocks, n)
        expected = factorial(i) * factorial(n - i) // 2
    elif desc.kind == "imprimitive":
        p = desc.param
        size = n // p
        blocks = [list(range(j * size, (j + 1) * size)) for j in range(p)]
        gens = _symmetric_block_generators(blocks, n) + _block_permuting_generators(
            blocks, n
        )
        expected = factorial(size) ** p * factorial(p) // 2
    elif desc.kind == "halves":
        size = n // 2
        blocks = [list(range(size)), list(range(size, n))]
        gens = _symmetric_block_generators(blocks, n) + _block_permuting_generators(
            blocks, n
        )
        expected = factorial(size) ** 2 * 2 // 2
    else:
        raise ValueError(f"unknown family kind {desc.kind}")
    full = GroupTable.from_generators(gens, name=desc.label)
    handle = _even_part_in(an, full, expected, desc.label)
    return conjugate_class(an, handle)


def target_ids(an: GroupTable, sets: AnStandardSets) -> np.ndarray:
    """Element ids of the target set in an enumerated A_n."""
    parts = [an.elements_with_cycle_type(t) for t in sets.target_cycle_types]
    return np.unique(np.concatenate(parts))

