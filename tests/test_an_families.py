"""The A_n family representatives against a point-by-point block check."""

import pytest

from wreathcover.ansets import alternating_group, an_standard_sets, materialize_family_class

from oracles import maps_blocks_into_blocks


def _blocks(n: int, kind: str, param: int) -> list[list[int]]:
    """The standard block system of a family class: an i-set and its
    complement, or param consecutive blocks of equal size."""
    if kind == "intransitive":
        return [list(range(param)), list(range(param, n))]
    size = n // param
    return [list(range(j * size, (j + 1) * size)) for j in range(param)]


@pytest.mark.parametrize("n", [6, 8, 9])
def test_family_representatives_are_block_stabilizers(n):
    an = alternating_group(n)
    for desc in an_standard_sets(n).family:
        blocks = _blocks(n, desc.kind, desc.param)
        expected = [
            eid for eid in range(an.order) if maps_blocks_into_blocks(an.perm(eid), blocks)
        ]
        rep = materialize_family_class(an, desc).representative
        assert rep.member_ids.tolist() == expected, desc.label
