"""Exact and greedy minimal covers by subgroups, with certificates.

Element sets are bitmasks over the (identity-free) universe, so the inner
loops are integer AND/OR/popcount.  ``build_instance`` keeps, besides each
candidate's mask, one incidence index: the covering candidates of every
element in ascending candidate order, with their offsets.  The masks are
packed once, from the universe positions of every candidate's members, and
the coverers come from one stable sort of those positions, cast to the
smallest integer type that holds them (numpy sorts keys of 16 bits or fewer
by radix); no dense candidates x elements matrix is built.  A mask holds
universe position e at bit nbits - 1 - e, the order the search reads.  The
greedy cover keeps the gains in a heap of upper bounds: gains only fall,
so only the top is recounted.

The branch-and-bound solver seeds with the greedy value, forces the
candidates that alone cover some element, and branches on a least-covered
uncovered element, taking the lowest such position.  It finds that element
from buckets: one mask per distinct coverer count, in ascending order, so
the choice is the lowest position in the first bucket that meets the
uncovered set.  It prunes with a disjoint element packing: repeatedly take
the lowest uncovered position and drop everything its coverers cover.  The
instance's masks hold position 0 at the top bit, so the lowest position in
a mask is read off its bit length.  Each element's coverers, and the
complement of their union, are list entries made on first use and read as
``table[k] or make(k)``: no stored entry is falsy, as a complement of
non-negative masks is negative and every element has a coverer once the
greedy cover succeeds.

The search keeps its own stack, so the interpreter's recursion limit does
not bound its depth.  It visits nodes depth first, children by decreasing
gain, then by candidate.  An expansion counts every child, takes each
one's bound in branch order and sorts only the children the bound keeps.
That stacks what sorting all and then pruning would, since a child's bound
depends only on its uncovered set and ``best_value - depth``, and no two
children share a candidate.  Everything is deterministic: candidates are
ordered canonically and all tie-breaks are lexicographic.

At the last level, where ``best_value - depth`` is 1, a child is stacked
only if it covers everything left, and the least such candidate would be
popped next as the new best.  So that node stacks nothing: it counts its
children and takes the first candidate that contains the uncovered set, if
any, as the new best.

The stack runs each expanded node's subtree contiguously.  While that
subtree finds no better cover, best_value is fixed inside it, and every
decision there, which children are stacked and which popped nodes the
bound prunes, depends only on the node's uncovered set and on
``best_value - depth``.  So ``sigma_exact`` keeps, for one call, the node
count of every subtree that ended with best_value unchanged, keyed by that
pair, and a node that meets a stored key adds the count instead of walking
the subtree again.  ``nodes`` does not change, as a stored count is the
walk's count, and neither does the point where ``NODE_CAP`` raises: the
count only grows, so the walk passes the cap at some step exactly when the
sum passes it.  The table holds at most one entry per expanded node, so
``NODE_CAP`` bounds it too.

One cover check: ``verify_cover_handles`` answers every "does this family
cover the target?" from the members' element ids, over one ``member_mask``.
``verify_cover`` is its front for candidate labels, the greedy cover's
check is the instance's feasibility test, and the product-type construction
checks its input with it; no answer is read off the search's bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from heapq import heapify, heappop, heapreplace
from operator import or_
from typing import Optional, Sequence

import numpy as np

from . import InputError
from .groups import GroupTable, SubgroupClass, SubgroupHandle, member_mask

NODE_CAP = 5_000_000


@dataclass
class CoverInstance:
    """A set-cover instance over element ids of an enumerated group."""

    group: GroupTable
    universe_ids: np.ndarray  # sorted element ids, identity excluded
    labels: list[str]
    masks: list[int]  # universe position e at bit nbits - 1 - e
    handles: list[SubgroupHandle]
    full_mask: int
    # the incidence index: the covering candidates of every element, ascending,
    # element e's at coverers[coverer_start[e] : coverer_start[e + 1]]
    coverers: np.ndarray
    coverer_start: np.ndarray

    @property
    def universe_size(self) -> int:
        return int(self.universe_ids.shape[0])


@dataclass
class CoverCertificate:
    """Result of a cover computation: the chosen family plus its warrant."""

    kind: str  # exact-optimal | upper-bound | infeasible | empty
    value: int
    chosen: list[str]
    universe_size: int
    lower_bound: Optional[dict] = None
    witness: Optional[dict] = None
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "value": self.value,
            "chosen": list(self.chosen),
            "universe_size": self.universe_size,
        }
        if self.lower_bound is not None:
            out["lower_bound"] = self.lower_bound
        if self.witness is not None:
            out["witness"] = self.witness
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def build_instance(
    g: GroupTable,
    classes: Sequence[SubgroupClass],
    target_ids: Optional[np.ndarray] = None,
) -> CoverInstance:
    """Candidates are every conjugate of every given class, deduplicated,
    labeled CLASS[i] in canonical conjugate order; classes that share a
    label (unlabeled classes of equal order) are numbered on from one
    another.  The universe is the target (or all of g) minus the identity;
    a trivial g keeps it, which no proper subgroup holds (g is cyclic)."""
    if target_ids is None:
        universe = np.arange(min(1, g.order - 1), g.order, dtype=np.int64)
    else:
        universe = np.unique(np.asarray(target_ids, dtype=np.int64))
        universe = universe[universe != 0]
    labels, handles, members, sizes = [], [], [np.zeros(0, np.int64)], []
    seen: set[bytes] = set()
    next_index: dict[str, int] = {}
    for cls in classes:
        base = cls.base_label
        start = next_index.get(base, 0)
        next_index[base] = start + cls.class_size
        # the class's stored keys and member rows; no handle is keyed again
        fresh = []
        for i, key in enumerate(cls.keys):
            if key not in seen:
                seen.add(key)
                fresh.append(i)
        labels.extend(f"{base}[{start + i}]" for i in fresh)
        handles.extend(cls.conjugates[i] for i in fresh)
        members.append(cls.members[fresh].ravel())
        sizes += [cls.order] * len(fresh)
    pos_of = np.full(g.order, -1, dtype=np.int64)
    pos_of[universe] = np.arange(universe.shape[0])
    pos = pos_of[np.concatenate(members)]
    owner = np.repeat(np.arange(len(handles)), sizes)
    inside = pos >= 0
    pos, owner = pos[inside], owner[inside]
    nbits = universe.shape[0]
    # a stable sort keeps each element's coverers ascending; numpy runs it
    # as a radix sort on keys of 16 bits or fewer
    by_element = np.argsort(pos.astype(np.min_scalar_type(nbits)), kind="stable")
    coverer_start = np.zeros(nbits + 1, dtype=np.int64)
    np.cumsum(np.bincount(pos, minlength=nbits), out=coverer_start[1:])
    return CoverInstance(
        group=g,
        universe_ids=universe,
        labels=labels,
        masks=_bit_rows(owner, nbits - 1 - pos, len(handles), nbits),
        handles=handles,
        full_mask=(1 << nbits) - 1,
        coverers=owner[by_element],
        coverer_start=coverer_start,
    )


def _bit_rows(rows: np.ndarray, bits: np.ndarray, nrows: int, nbits: int) -> list[int]:
    """The rows of a sparse 0/1 matrix as int masks: row r has bit bits[j]
    for each entry j with rows[j] == r."""
    width = (nbits + 7) // 8
    cells = np.zeros(nrows * width, dtype=np.uint8)
    np.bitwise_or.at(cells, rows * width + (bits >> 3), (1 << (bits & 7)).astype(np.uint8))
    raw = cells.tobytes()
    return [int.from_bytes(raw[r * width : (r + 1) * width], "little") for r in range(nrows)]


def _greedy_cover(instance: CoverInstance) -> tuple[list[int], Optional[int]]:
    """Repeatedly take the first candidate of largest gain, until none adds
    an element.  Gains only fall, so a heap of (-gain, candidate) keeps each
    candidate's gain as last counted, an upper bound: the top is taken when
    a recount confirms it, and put back with its new gain otherwise.
    Returns the picks and, when they leave the universe uncovered, the
    smallest uncovered element: no candidate holds it, so the instance is
    infeasible."""
    masks = instance.masks
    heap = [(-m.bit_count(), i) for i, m in enumerate(masks)]
    heapify(heap)
    uncovered, chosen = instance.full_mask, []
    while heap and heap[0][0]:
        negated, i = heap[0]
        gain = (masks[i] & uncovered).bit_count()
        if gain == -negated:
            heappop(heap)
            chosen.append(i)
            uncovered &= ~masks[i]
        else:
            heapreplace(heap, (-gain, i))
    _, missing = verify_cover_handles(
        instance.group, [instance.handles[i] for i in chosen], instance.universe_ids
    )
    return chosen, missing


def sigma_greedy(instance: CoverInstance) -> CoverCertificate:
    """Greedy max-coverage upper bound; deterministic tie-break by canonical
    candidate order."""
    if instance.universe_size == 0:
        return CoverCertificate("empty", 0, [], 0, notes=["empty target"])
    chosen, missing = _greedy_cover(instance)
    if missing is not None:
        return _infeasible_certificate(instance, missing)
    return CoverCertificate(
        kind="upper-bound",
        value=len(chosen),
        chosen=[instance.labels[i] for i in chosen],
        universe_size=instance.universe_size,
    )


def _infeasible_certificate(instance: CoverInstance, witness_id: int) -> CoverCertificate:
    g = instance.group
    notes = []
    order_of_witness = int(g.element_orders()[witness_id])
    if order_of_witness == g.order:
        notes.append(
            "group is cyclic: no proper-subgroup cover exists, sigma undefined"
        )
    return CoverCertificate(
        kind="infeasible",
        value=-1,
        chosen=[],
        universe_size=instance.universe_size,
        witness={"uncovered_element": witness_id, "element_order": order_of_witness},
        notes=notes,
    )


def sigma_exact(instance: CoverInstance) -> CoverCertificate:
    """Optimal cover via branch-and-bound; the certificate carries the
    search statistics as the matching-lower-bound warrant."""
    if instance.universe_size == 0:
        return CoverCertificate("empty", 0, [], 0, notes=["empty target"])
    greedy, missing = _greedy_cover(instance)
    if missing is not None:
        return _infeasible_certificate(instance, missing)

    full = instance.full_mask

    # static per-element data: the number of covering candidates of each
    # element, and, keyed by nbits - e and made on first use, element e's
    # covering candidates in ascending order and the complement of their
    # union.  The lowest position of a nonzero mask x is nbits - x.bit_length()
    nbits, masks = instance.universe_size, instance.masks
    by_element, start = instance.coverers, instance.coverer_start
    counts = np.diff(start)
    coverers: list = [None] * (nbits + 1)
    anti_union = [0] * (nbits + 1)

    def coverers_of(k: int) -> list[int]:
        made = coverers[k] = by_element[start[nbits - k] : start[nbits - k + 1]].tolist()
        return made

    def anti_union_of(k: int) -> int:
        made = anti_union[k] = ~reduce(or_, [masks[i] for i in coverers_of(k)])
        return made

    # elements by coverer count, least covered first
    levels = np.unique(counts)
    buckets = _bit_rows(
        np.searchsorted(levels, counts), nbits - 1 - np.arange(nbits), len(levels), nbits
    )

    # root unit propagation: elements with a unique covering candidate
    forced = np.unique(by_element[start[:-1][counts == 1]]).tolist()
    forced_mask = 0
    for i in forced:
        forced_mask |= masks[i]

    anti_mask = [~m for m in masks]

    def packing(uncovered: int, limit: int) -> int:
        """A disjoint packing of uncovered elements, no two in one
        candidate, counted up to limit: each takes one more candidate."""
        count = 0
        while uncovered and count < limit:
            uncovered &= anti_union[k := uncovered.bit_length()] or anti_union_of(k)
            count += 1
        return count

    def cover_of(path) -> tuple[int, ...]:
        """The forced candidates and those on path, ascending."""
        chosen = list(forced)
        while path is not None:
            chosen.append(path[0])
            path = path[1]
        return tuple(sorted(chosen))

    best_value, best_chosen = len(greedy), tuple(sorted(greedy))
    # a node: (number of candidates chosen, uncovered mask, the candidates
    # chosen after the forced ones as nested (candidate, parent) pairs, and
    # its bound: the number chosen plus its packing).  A node is counted
    # when it is made.  One whose bound already reaches best_value is not
    # stacked: best_value can only fall before its turn would come.  Below
    # an expanded node's children lies the end of its subtree: (its key,
    # the node count before its children, best_value then).
    depth, uncovered = len(forced), full ^ forced_mask
    stack = [(depth, uncovered, None, depth + packing(uncovered, best_value - depth))]
    nodes = 1
    # the node counts of the subtrees that ended without a better cover,
    # by (uncovered mask, limit)
    exhausted: dict[tuple[int, int], int] = {}
    while stack:
        entry = stack.pop()
        if len(entry) == 3:
            key, before, best_before = entry
            if best_value == best_before:
                exhausted[key] = nodes - before
            continue
        depth, uncovered, path, bound = entry
        if bound >= best_value:
            continue
        if not uncovered:
            best_value, best_chosen = depth, cover_of(path)
            continue
        depth += 1
        # a child is stacked when its packing is below limit
        limit = best_value - depth
        key = (uncovered, limit)
        below = exhausted.get(key)
        if below is not None:
            nodes += below
            if nodes > NODE_CAP:
                raise InputError(f"branch-and-bound exceeded {NODE_CAP} nodes")
            continue
        for bucket in buckets:
            low = uncovered & bucket
            if low:
                break
        branch = coverers[k := low.bit_length()] or coverers_of(k)
        nodes += len(branch)
        if nodes > NODE_CAP:
            raise InputError(f"branch-and-bound exceeded {NODE_CAP} nodes")
        if limit == 1:
            # only a child that covers everything left is stacked, and the
            # least such candidate would be popped next as the new best
            for i in branch:
                if not uncovered & anti_mask[i]:
                    best_value, best_chosen = depth, cover_of((i, path))
                    break
            continue
        stack.append((key, nodes - len(branch), best_value))
        # the kept children by decreasing gain, then by candidate; the first
        # is stacked last.  No two share a candidate, so rest is never compared
        kept = []
        for i in branch:
            # the packing, inlined: left stays nonzero when it stops at limit
            p, left = 0, (rest := uncovered & anti_mask[i])
            while left:
                p += 1
                if p >= limit:
                    break
                left &= anti_union[k := left.bit_length()] or anti_union_of(k)
            if not left:
                kept.append((rest.bit_count(), i, rest, p))
        kept.sort(reverse=True)
        for _, i, rest, p in kept:
            stack.append((depth, rest, (i, path), depth + p))

    return CoverCertificate(
        kind="exact-optimal",
        value=best_value,
        chosen=[instance.labels[i] for i in best_chosen],
        universe_size=instance.universe_size,
        lower_bound={
            "method": "branch-and-bound exhaustion",
            "value": best_value,
            "nodes": nodes,
            "greedy_seed": len(greedy),
            "forced_candidates": len(forced),
        },
    )


def verify_cover(
    instance: CoverInstance, chosen_labels: Sequence[str]
) -> tuple[bool, Optional[int]]:
    """``verify_cover_handles`` over the instance's universe for the
    candidates of the given labels (KeyError for an unknown label)."""
    handle = dict(zip(instance.labels, instance.handles))
    unknown = [lab for lab in chosen_labels if lab not in handle]
    if unknown:
        raise KeyError(f"unknown candidate label {unknown[0]!r}")
    return verify_cover_handles(
        instance.group, [handle[lab] for lab in chosen_labels], instance.universe_ids
    )


def verify_cover_handles(
    g: GroupTable,
    handles: Sequence[SubgroupHandle],
    target_ids: Optional[np.ndarray] = None,
) -> tuple[bool, Optional[int]]:
    """Check that the union of the subgroups covers a sorted target (every
    non-identity element by default); on failure returns the smallest
    uncovered element id."""
    if target_ids is None:
        target_ids = np.arange(1, g.order, dtype=np.int64)
    ids = np.concatenate([np.zeros(0, np.int64), *(h.member_ids for h in handles)])
    covered = member_mask(g, ids)
    missing = target_ids[~covered[target_ids]]
    if missing.shape[0]:
        return False, int(missing[0])
    return True, None
