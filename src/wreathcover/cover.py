"""Exact and greedy minimal covers by subgroups, with certificates.

Element sets are bitmasks over the (identity-free) universe, so the inner
loops are integer AND/OR/popcount.  The branch-and-bound solver branches on
a least-covered element, seeds with the greedy value, and prunes with two
sound lower bounds: ceil(uncovered / best-single-coverage) and a disjoint
element packing.  Everything is deterministic: candidates are ordered
canonically and all tie-breaks are lexicographic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .groups import GroupTable, SubgroupClass, SubgroupHandle


class CoverCapError(RuntimeError):
    """Problem size exceeds the configured cap."""


@dataclass
class CoverInstance:
    """A set-cover instance over element ids of an enumerated group."""

    group: GroupTable
    universe_ids: np.ndarray  # sorted element ids, identity excluded
    labels: list[str]
    masks: list[int]
    handles: list[SubgroupHandle]
    full_mask: int

    @property
    def universe_size(self) -> int:
        return int(self.universe_ids.shape[0])

    def mask_of_ids(self, ids: Iterable[int]) -> int:
        pos = np.searchsorted(self.universe_ids, np.asarray(list(ids), dtype=np.int64))
        mask = 0
        for p, e in zip(pos.tolist(), ids):
            if p < self.universe_size and int(self.universe_ids[p]) == e:
                mask |= 1 << p
        return mask

    def uncovered_ids(self, mask: int) -> list[int]:
        missing = self.full_mask & ~mask
        out = []
        while missing:
            low = missing & -missing
            out.append(int(self.universe_ids[low.bit_length() - 1]))
            missing ^= low
        return out


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
    pos_of_id = {int(e): i for i, e in enumerate(universe.tolist())}
    labels, masks, handles = [], [], []
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
            mask = 0
            for e in h.member_ids.tolist():
                p = pos_of_id.get(e)
                if p is not None:
                    mask |= 1 << p
            labels.append(f"{base}[{i}]")
            masks.append(mask)
            handles.append(h)
    return CoverInstance(
        group=g,
        universe_ids=universe,
        labels=labels,
        masks=masks,
        handles=handles,
        full_mask=(1 << universe.shape[0]) - 1,
    )


def _greedy_order(instance: CoverInstance, covered: int) -> list[int]:
    chosen = []
    masks = instance.masks
    while covered != instance.full_mask:
        best_idx, best_gain = -1, 0
        for i, m in enumerate(masks):
            gain = (m & ~covered).bit_count()
            if gain > best_gain:
                best_idx, best_gain = i, gain
        if best_idx < 0:
            return chosen  # infeasible; caller detects non-full coverage
        chosen.append(best_idx)
        covered |= masks[best_idx]
    return chosen


def sigma_greedy(instance: CoverInstance) -> CoverCertificate:
    """Greedy max-coverage upper bound; deterministic tie-break by canonical
    candidate order."""
    if instance.universe_size == 0:
        return CoverCertificate("empty", 0, [], 0, notes=["empty target"])
    feasible, witness = _feasibility(instance)
    if not feasible:
        return _infeasible_certificate(instance, witness)
    chosen = _greedy_order(instance, 0)
    return CoverCertificate(
        kind="upper-bound",
        value=len(chosen),
        chosen=[instance.labels[i] for i in chosen],
        universe_size=instance.universe_size,
    )


def _feasibility(instance: CoverInstance) -> tuple[bool, Optional[int]]:
    union = 0
    for m in instance.masks:
        union |= m
    if union == instance.full_mask:
        return True, None
    missing = instance.full_mask & ~union
    low = missing & -missing
    return False, int(instance.universe_ids[low.bit_length() - 1])


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


@dataclass
class _SearchState:
    nodes: int = 0
    best_value: int = 0
    best_chosen: tuple[int, ...] = ()


def sigma_exact(
    instance: CoverInstance,
    node_cap: int = 5_000_000,
) -> CoverCertificate:
    """Optimal cover via branch-and-bound; the certificate carries the
    search statistics as the matching-lower-bound warrant."""
    if instance.universe_size == 0:
        return CoverCertificate("empty", 0, [], 0, notes=["empty target"])
    feasible, witness = _feasibility(instance)
    if not feasible:
        return _infeasible_certificate(instance, witness)

    masks = instance.masks
    ncand = len(masks)
    greedy = _greedy_order(instance, 0)

    # static per-element data: covering candidates and their union
    nbits = instance.universe_size
    coverers: list[list[int]] = [[] for _ in range(nbits)]
    for i, m in enumerate(masks):
        mm = m
        while mm:
            low = mm & -mm
            coverers[low.bit_length() - 1].append(i)
            mm ^= low
    cover_union = [0] * nbits
    for e in range(nbits):
        u = 0
        for i in coverers[e]:
            u |= masks[i]
        cover_union[e] = u

    # root unit propagation: elements with a unique covering candidate
    forced = sorted({coverers[e][0] for e in range(nbits) if len(coverers[e]) == 1})
    forced_mask = 0
    for i in forced:
        forced_mask |= masks[i]

    state = _SearchState(best_value=len(greedy), best_chosen=tuple(sorted(greedy)))

    def packing_bound(uncovered: int) -> int:
        count = 0
        rest = uncovered
        while rest:
            low = rest & -rest
            rest &= ~cover_union[low.bit_length() - 1]
            count += 1
        return count

    full = instance.full_mask

    def branch_element(uncovered: int) -> int:
        best_e, best_n = -1, 1 << 60
        mm = uncovered
        while mm:
            low = mm & -mm
            e = low.bit_length() - 1
            n = len(coverers[e])
            if n < best_n:
                best_e, best_n = e, n
            mm ^= low
        return best_e

    def recurse(chosen: list[int], covered: int) -> None:
        state.nodes += 1
        if state.nodes > node_cap:
            raise CoverCapError(f"branch-and-bound exceeded {node_cap} nodes")
        if covered == full:
            if len(chosen) < state.best_value:
                state.best_value = len(chosen)
                state.best_chosen = tuple(sorted(chosen))
            return
        uncovered = full & ~covered
        if len(chosen) + packing_bound(uncovered) >= state.best_value:
            return
        e = branch_element(uncovered)
        options = []
        for i in coverers[e]:
            gain = (masks[i] & uncovered).bit_count()
            if gain:
                options.append((-gain, i))
        options.sort()
        for _, i in options:
            chosen.append(i)
            recurse(chosen, covered | masks[i])
            chosen.pop()

    recurse(list(forced), forced_mask)

    chosen_labels = [instance.labels[i] for i in state.best_chosen]
    return CoverCertificate(
        kind="exact-optimal",
        value=state.best_value,
        chosen=chosen_labels,
        universe_size=instance.universe_size,
        lower_bound={
            "method": "branch-and-bound exhaustion",
            "value": state.best_value,
            "nodes": state.nodes,
            "greedy_seed": len(greedy),
            "forced_candidates": len(forced),
        },
    )


def verify_cover(
    instance: CoverInstance, chosen_labels: Sequence[str]
) -> tuple[bool, Optional[int]]:
    """Check the chosen candidates cover the universe; on failure returns
    the smallest uncovered element id."""
    index = {lab: i for i, lab in enumerate(instance.labels)}
    covered = 0
    for lab in chosen_labels:
        if lab not in index:
            raise KeyError(f"unknown candidate label {lab!r}")
        covered |= instance.masks[index[lab]]
    if covered == instance.full_mask:
        return True, None
    return False, instance.uncovered_ids(covered)[0]


def verify_cover_handles(
    g: GroupTable,
    handles: Sequence[SubgroupHandle],
    target_ids: Optional[np.ndarray] = None,
) -> tuple[bool, Optional[int]]:
    """Direct union check for explicit subgroup handles over a target."""
    if target_ids is None:
        target_ids = np.arange(1, g.order, dtype=np.int64)
    covered = np.zeros(g.order, dtype=bool)
    for h in handles:
        covered[h.member_ids] = True
    missing = [int(e) for e in target_ids.tolist() if not covered[e]]
    if missing:
        return False, missing[0]
    return True, None


def exhaustive_min_cover(
    masks: Sequence[int], full_mask: int, max_size: int
) -> Optional[tuple[int, tuple[int, ...]]]:
    """Independent oracle: iterative-deepening exhaustive search over index
    subsets in lexicographic order.  Returns (size, indices) of a minimum
    cover of size <= max_size, or None if none exists.  No bounding beyond
    skipping candidates that add nothing."""
    n = len(masks)

    found: Optional[tuple[int, ...]] = None

    def dfs(start: int, remaining: int, acc: int, picked: list[int]) -> bool:
        nonlocal found
        if acc == full_mask:
            found = tuple(picked)
            return True
        if remaining == 0 or start >= n:
            return False
        for i in range(start, n):
            if masks[i] & ~acc == 0:
                continue
            picked.append(i)
            if dfs(i + 1, remaining - 1, acc | masks[i], picked):
                return True
            picked.pop()
        return False

    for k in range(1, max_size + 1):
        if dfs(0, k, 0, []):
            return k, found
    return None
