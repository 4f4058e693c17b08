"""Exact and greedy minimal covers by subgroups, with certificates.

Element sets are bitmasks over the (identity-free) universe, so the inner
loops are integer AND/OR/popcount.  ``build_instance`` keeps, besides each
candidate's mask, the sparse incidence: the universe positions of every
candidate's members.  All masks are packed from it at once, and the
per-element data of the search (the covering candidates of each element,
in ascending candidate order, and their number) come from one stable sort
of it; no dense candidates x elements matrix is built.

The branch-and-bound solver seeds with the greedy value, forces the
candidates that alone cover some element, and branches on a least-covered
uncovered element, taking the lowest such position.  It finds that element
from buckets: one mask per distinct coverer count, in ascending order, so
the choice is the lowest position in the first bucket that meets the
uncovered set.  It prunes with a disjoint element packing: repeatedly take
the lowest uncovered position and drop everything its coverers cover.  The
complement of each element's coverer union is built the first time the
packing reaches that element.  The search's own masks hold position 0 at
the top bit, so the lowest position in a mask is read off its bit length.

The search keeps its own stack, so the interpreter's recursion limit does
not bound its depth.  It visits nodes depth first, children by decreasing
gain, then by candidate.  A child's bound is taken when it is made, and a
child that the bound already prunes is counted but never stacked.
Everything is deterministic: candidates are ordered canonically and all
tie-breaks are lexicographic.

One cover check: ``verify_cover_handles`` answers every "does this family
cover the target?" from the members' element ids, over one ``member_mask``.
``verify_cover`` is its front for candidate labels, the greedy cover's
check is the instance's feasibility test, and the product-type construction
checks its input with it; no answer is read off the search's bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
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
    masks: list[int]
    handles: list[SubgroupHandle]
    full_mask: int
    # the sparse incidence: the universe positions of every candidate's
    # members, candidate by candidate, and the candidate of each entry
    member_pos: np.ndarray
    member_owner: np.ndarray

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
    another.  The universe is the target (or all of g) minus the identity."""
    if target_ids is None:
        universe = np.arange(1, g.order, dtype=np.int64)
    else:
        universe = np.unique(np.asarray(target_ids, dtype=np.int64))
        universe = universe[universe != 0]
    labels, handles = [], []
    seen: set[bytes] = set()
    next_index: dict[str, int] = {}
    for cls in classes:
        base = cls.base_label
        start = next_index.get(base, 0)
        next_index[base] = start + cls.class_size
        for i, h in enumerate(cls.conjugates, start):
            if h.canonical_key in seen:
                continue
            seen.add(h.canonical_key)
            labels.append(f"{base}[{i}]")
            handles.append(h)
    pos_of = np.full(g.order, -1, dtype=np.int64)
    pos_of[universe] = np.arange(universe.shape[0])
    pos = pos_of[np.concatenate([np.zeros(0, np.int64), *(h.member_ids for h in handles)])]
    sizes = np.array([h.size for h in handles], dtype=np.int64)
    owner = np.repeat(np.arange(len(handles)), sizes)
    inside = pos >= 0
    pos, owner = pos[inside], owner[inside]
    return CoverInstance(
        group=g,
        universe_ids=universe,
        labels=labels,
        masks=_bit_rows(owner, pos, len(handles), universe.shape[0]),
        handles=handles,
        full_mask=(1 << universe.shape[0]) - 1,
        member_pos=pos,
        member_owner=owner,
    )


def _bit_rows(rows: np.ndarray, bits: np.ndarray, nrows: int, nbits: int) -> list[int]:
    """The rows of a sparse 0/1 matrix as int masks: row r has bit bits[j]
    for each entry j with rows[j] == r."""
    width = (nbits + 7) // 8
    cells = np.zeros(nrows * width, dtype=np.uint8)
    np.bitwise_or.at(cells, rows * width + (bits >> 3), (1 << (bits & 7)).astype(np.uint8))
    raw = cells.tobytes()
    return [int.from_bytes(raw[r * width : (r + 1) * width], "little") for r in range(nrows)]


class _Lazy(dict):
    """A table whose entries are made on first lookup, by ``make(key)``."""

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _greedy_cover(instance: CoverInstance) -> tuple[list[int], Optional[int]]:
    """Repeatedly take the first candidate of largest gain, until none adds
    an element.  The gains are kept as a vector: a pick lowers each
    candidate's gain by the number of its elements the pick newly covers.
    Returns the picks and, when they leave the universe uncovered, the
    smallest uncovered element: no candidate holds it, so the instance is
    infeasible."""
    pos, owner = instance.member_pos, instance.member_owner
    gain = np.bincount(owner, minlength=len(instance.masks))
    covered = np.zeros(instance.universe_size, dtype=bool)
    fresh = np.zeros(instance.universe_size, dtype=bool)
    chosen = []
    while True:
        best = int(gain.argmax())
        if gain[best] == 0:
            _, missing = verify_cover_handles(
                instance.group, [instance.handles[i] for i in chosen], instance.universe_ids
            )
            return chosen, missing
        chosen.append(best)
        new = pos[owner == best]
        new = new[~covered[new]]
        covered[new] = fresh[new] = True
        gain -= np.bincount(owner[fresh[pos]], minlength=gain.shape[0])
        fresh[new] = False


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

    # static per-element data: the covering candidates of element e are
    # by_element[start[e]:start[e + 1]], in ascending candidate order
    nbits = instance.universe_size
    pos, owner = instance.member_pos, instance.member_owner
    counts = np.bincount(pos, minlength=nbits)
    by_element = owner[np.argsort(pos, kind="stable")]
    start = np.zeros(nbits + 1, dtype=np.int64)
    np.cumsum(counts, out=start[1:])
    coverers = _Lazy(lambda e: by_element[start[e] : start[e + 1]].tolist())

    # the search's masks hold position e at bit nbits - 1 - e: the lowest
    # position of a nonzero mask x is then nbits - x.bit_length()
    masks = _bit_rows(owner, nbits - 1 - pos, len(instance.masks), nbits)
    # keyed by nbits - e: the complement of the union of e's coverers
    anti_union = _Lazy(lambda k: ~reduce(or_, [masks[i] for i in coverers[nbits - k]]))

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
            uncovered &= anti_union[uncovered.bit_length()]
            count += 1
        return count

    best_value, best_chosen = len(greedy), tuple(sorted(greedy))
    # a node: (number of candidates chosen, uncovered mask, the candidates
    # chosen after the forced ones as nested (candidate, parent) pairs, and
    # its bound: the number chosen plus its packing).  A node is counted
    # when it is made.  One whose bound already reaches best_value is not
    # stacked: best_value can only fall before its turn would come.
    depth, uncovered = len(forced), full ^ forced_mask
    stack = [(depth, uncovered, None, depth + packing(uncovered, best_value - depth))]
    nodes = 1
    while stack:
        depth, uncovered, path, bound = stack.pop()
        if bound >= best_value:
            continue
        if not uncovered:
            best_value = depth
            chosen = list(forced)
            while path is not None:
                chosen.append(path[0])
                path = path[1]
            best_chosen = tuple(sorted(chosen))
            continue
        for bucket in buckets:
            low = uncovered & bucket
            if low:
                break
        # children by decreasing gain, then by candidate; the first is
        # stacked last
        options = sorted(
            [
                ((uncovered & anti_mask[i]).bit_count(), i)
                for i in coverers[nbits - low.bit_length()]
            ]
        )
        nodes += len(options)
        if nodes > NODE_CAP:
            raise InputError(f"branch-and-bound exceeded {NODE_CAP} nodes")
        depth += 1
        for _, i in reversed(options):
            rest = uncovered & anti_mask[i]
            bound = depth + packing(rest, best_value - depth)
            if bound < best_value:
                stack.append((depth, rest, (i, path), bound))

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
