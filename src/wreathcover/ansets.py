"""Standard target sets and subgroup families for alternating groups.

Case split on n (at least 5, not an odd prime):

* n odd: target = n-cycles; family = the imprimitive block stabilizers
  with p blocks, p the smallest prime divisor of n.
* n divisible by 4: target = (i, n-i)-cycles for odd i below n/2; family =
  the i-set stabilizers for those i.
* n = 2 mod 4: target additionally includes the (n/2, n/2)-cycles and the
  family additionally includes the halves stabilizer.

Every family member is the stabilizer in A_n of a block system: the
i-set stabilizer of blocks of sizes i and n-i, the imprimitive stabilizer
of p blocks of size n/p, and the halves stabilizer of two blocks of size
n/2.  Descriptors are symbolic (cycle types and class labels);
materialization reads each standard representative off the image rows of
an enumerated A_n (an element belongs when the image of every block lies
inside one block), which is practical for small n only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formulas import factorial, is_prime, smallest_prime_factor
from .groups import (
    GroupTable,
    SubgroupClass,
    conjugate_class,
    member_mask,
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


def alternating_group(n: int) -> GroupTable:
    """A_n on n points from a 3-cycle and a long even cycle."""
    if n < 3:
        raise ValueError("n >= 3 required")
    if n % 2 == 1:
        long_cycle = Perm(list(range(1, n)) + [0])
    else:
        long_cycle = Perm([0] + list(range(2, n)) + [1])
    three = Perm([1, 2, 0] + list(range(3, n)))
    return GroupTable.from_generators([long_cycle, three], name=f"A{n}")


def _block_stabilizer(an: GroupTable, sizes: list[int]) -> np.ndarray:
    """Sorted ids of the elements of A_n that map every block into one
    block, the blocks consecutive runs of points of the given sizes: one
    pass over A_n's image rows compares the block of each point's image
    with the block of the image of its block's first point."""
    block = np.repeat(np.arange(len(sizes), dtype=np.uint8), sizes)
    first = np.repeat(np.cumsum([0, *sizes[:-1]]), sizes)
    image_block = block[an.images]
    return np.flatnonzero((image_block == image_block[:, first]).all(axis=1))


def materialize_family_class(
    an: GroupTable, desc: FamilyClassDescriptor
) -> SubgroupClass:
    """Build the standard representative of a family class inside an
    enumerated A_n, the stabilizer of its block system, and return its
    full conjugacy class."""
    n = an.degree
    if desc.kind == "intransitive":
        i = desc.param
        sizes = [i, n - i]
        expected = factorial(i) * factorial(n - i) // 2
    elif desc.kind in ("imprimitive", "halves"):
        p = desc.param  # halves: 2 blocks
        sizes = [n // p] * p
        expected = factorial(n // p) ** p * factorial(p) // 2
    else:
        raise ValueError(f"unknown family kind {desc.kind}")
    ids = _block_stabilizer(an, sizes)
    if ids.shape[0] != expected:
        raise AssertionError(
            f"{desc.label}: block stabilizer has {ids.shape[0]} elements, "
            f"expected {expected}"
        )
    handle = subgroup_from_set(an, ids, label=desc.label)
    return conjugate_class(an, handle)


def target_ids(an: GroupTable, sets: AnStandardSets) -> np.ndarray:
    """Element ids of the target set in an enumerated A_n."""
    parts = [an.elements_with_cycle_type(t) for t in sets.target_cycle_types]
    # the union as one mask over A_n: flatnonzero gives sorted, distinct ids
    return np.flatnonzero(member_mask(an, np.concatenate(parts)))

