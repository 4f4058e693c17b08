"""Lower-bound certificates for covering numbers of S wr C_m.

Two layers, and one verdict: a request's definite-unbeatability report is
derived once (``pipelines`` picks its mode), and ``theorem_bounds`` prints
its lower bound from that report's ``certified_lower_bound``, never from a
check of its own.  Membership in S is read off ``groups.member_mask``.

* Seed conditions C0-C5 on a pair (seed element set, conjugation-closed
  family of maximal subgroup classes).  C0-C4 are finite set checks; C5 is
  a four-term exact-integer comparison whose terms bound how much of the
  constructed target any outsider subgroup can capture.

* Definite unbeatability of a family H on a target set: H hits the target,
  covers it, no target element lies in two members, and no proper subgroup
  outside H meets the target in more elements than any member does.  When
  that holds the covering number of the target equals |H| exactly, which
  lower-bounds the covering number of the whole group.

The family H of S wr C_m is the product-type family over the seed
classes' members plus the socle maximals; ``wreath.product_type_family``
generates it and ``wreath.wreath_cover_upper_term`` counts it.

Explicit mode enumerates the target and checks everything by counting over
boxes (the group, or m * |S|^m up to ``wreath.EXPLICIT_CAP``); its outsider
sweep is the same generator over the maximal classes outside the family.
Symbolic mode certifies the first three conditions by the constructive
coset argument and the fourth by the C5 arithmetic; it assumes the
trichotomy that a maximal subgroup of S wr C_m contains the socle, is of
product type, or is of diagonal type, and says so in the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .cover import verify_cover_handles
from .formulas import alpha, smallest_prime_factor
from .groups import GroupTable, SubgroupClass, SubgroupHandle, member_mask
from .wreath import (
    EXPLICIT_CAP,
    ProductTypeDescriptor,
    WreathContext,
    box_coverage,
    box_luts,
    box_target_counts,
    product_type_family,
    socle_maximals,
    wreath_cover_upper_term,
)

TRICHOTOMY_ASSUMPTION = (
    "assumes every maximal subgroup of S wr C_m contains the socle, is of "
    "product type, or is of diagonal type (folklore; not re-derived here)"
)
SCHEMA_ASSUMPTION = (
    "hit/cover/disjointness of the constructed family certified by the "
    "constructive coset argument, not by element enumeration at this scale"
)


@dataclass
class SeedInstance:
    """A seed element set and a conjugation-closed family of maximal
    subgroup classes of S, with the wreath exponent m."""

    S: GroupTable
    seed_ids: np.ndarray  # sorted element ids, conjugation-closed
    seed_classes: list[SubgroupClass]
    m: int
    maximal_classes: list[SubgroupClass]  # all maximal classes of S

    def __post_init__(self):
        self.seed_ids = np.unique(np.asarray(self.seed_ids, dtype=np.int64))
        if self.seed_ids.shape[0] == 0:
            raise ValueError("seed set is empty")
        if self.m < 1:
            raise ValueError("m >= 1 required")

    def members(self) -> list[tuple[str, SubgroupHandle]]:
        """Every family member as (label, handle), labels ``base[i]``."""
        return [
            (f"{cls.base_label}[{i}]", h)
            for cls in self.seed_classes
            for i, h in enumerate(cls.conjugates)
        ]

    def outside_classes(self) -> list[SubgroupClass]:
        keys = {c.representative.canonical_key for c in self.seed_classes}
        return [c for c in self.maximal_classes if c.representative.canonical_key not in keys]


@dataclass
class ConditionResult:
    name: str
    passed: bool
    detail: str = ""
    witness: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {"condition": self.name, "passed": self.passed}
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class SeedConditionReport:
    conditions: list[ConditionResult]
    diagonal_bound: int  # (1 + alpha(m)) |S|^(m/l)
    outside_family_max: int  # max over maximal classes outside the family
    cross_class_layer: int  # ordered non-conjugate pair sum times |S|^(m-2)
    family_min: int  # min over family members
    seed_counts: dict
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "conditions": [c.to_dict() for c in self.conditions],
            "arithmetic": {
                "diagonal_bound": str(self.diagonal_bound),
                "outside_family_max": str(self.outside_family_max),
                "cross_class_layer": str(self.cross_class_layer),
                "family_min": str(self.family_min),
            },
            "seed_counts": self.seed_counts,
            "notes": list(self.notes),
        }


def _seed_is_conjugation_closed(S: GroupTable, seed: np.ndarray) -> bool:
    lut = member_mask(S, seed)
    for g in S.generator_ids:
        if not lut[S.conj_map(g)[seed]].all():
            return False
    return True


def diagonal_term(S_order: int, m: int) -> int:
    """(1 + alpha(m)) |S|^(m/l), l the smallest prime divisor of m (an exact
    integer, since l | m)."""
    return (1 + alpha(m)) * S_order ** (m // smallest_prime_factor(m))


def hit_cover_disjoint(
    S: GroupTable,
    target: np.ndarray,
    members: Sequence[tuple[str, SubgroupHandle]],
    names: tuple[str, str, str],
) -> tuple[list[ConditionResult], np.ndarray]:
    """The three set conditions of a family of subgroups of S on a sorted
    target: every member meets it, the members cover it, and no target
    element lies in two members.  Returns the results under the given names
    and the number of target elements in each member."""
    ids = np.concatenate([np.zeros(0, np.int64), *(h.member_ids for _, h in members)])
    owner = np.repeat(np.arange(len(members)), [h.size for _, h in members])
    inside = member_mask(S, target)[ids]
    sizes = np.bincount(owner[inside], minlength=len(members))
    empty = [lab for (lab, _), n in zip(members, sizes) if n == 0]
    count = np.bincount(ids[inside], minlength=S.order)[target]
    uncovered = target[count == 0]
    doubled = target[count > 1]
    hit, cover, disjoint = names
    return [
        ConditionResult(
            hit,
            not empty,
            witness={"empty_members": empty[:5]} if empty else None,
        ),
        ConditionResult(
            cover,
            uncovered.shape[0] == 0,
            witness={"uncovered_element": int(uncovered[0])}
            if uncovered.shape[0]
            else None,
        ),
        ConditionResult(
            disjoint,
            doubled.shape[0] == 0,
            witness={"element": int(doubled[0])} if doubled.shape[0] else None,
        ),
    ], sizes


def check_seed_conditions(inst: SeedInstance) -> SeedConditionReport:
    """Evaluate conditions C0-C5 exhaustively with exact arithmetic."""
    S, seed, m = inst.S, inst.seed_ids, inst.m
    in_seed = member_mask(S, seed)
    results: list[ConditionResult] = []
    notes: list[str] = []

    # C0: the family is closed under conjugation (it is built from whole
    # classes; re-verify the class orbits and the seed's closure).
    c0_ok = _seed_is_conjugation_closed(S, seed)
    results.append(
        ConditionResult(
            "C0 conjugation-closed",
            c0_ok,
            "family consists of whole conjugacy classes; seed set checked "
            "against the group generators",
        )
    )

    # C1-C3: every member meets the seed, the family covers it, no seed
    # element lies in two members
    c13, _ = hit_cover_disjoint(
        S,
        seed,
        inst.members(),
        (
            "C1 every member meets the seed",
            "C2 seed covered by the family",
            "C3 no seed element in two members",
        ),
    )
    results.extend(c13)

    # C4: at least two non-conjugate classes
    results.append(
        ConditionResult(
            "C4 at least two classes",
            len(inst.seed_classes) >= 2,
            detail=f"{len(inst.seed_classes)} classes",
        )
    )

    # C5: the four-term arithmetic (m >= 2)
    class_totals: list[int] = []
    seed_counts: dict = {"seed_size": int(seed.shape[0]), "per_class": {}}
    for cls in inst.seed_classes:
        rep_count = int(in_seed[cls.representative.member_ids].sum())
        total = rep_count * cls.class_size
        class_totals.append(total)
        seed_counts["per_class"][cls.base_label] = {
            "per_member": rep_count,
            "class_total": total,
            "member_order": cls.order,
            "class_size": cls.class_size,
            "index": cls.representative.index,
        }

    if m >= 2:
        a_term = diagonal_term(S.order, m)
        b_term = 0
        b_attained = None
        for cls in inst.outside_classes():
            cnt = int(in_seed[cls.representative.member_ids].sum())
            val = cnt * cls.order ** (m - 1)
            if val > b_term:
                b_term, b_attained = val, cls.label
        t_sum = sum(class_totals)
        c_term = (t_sum**2 - sum(t * t for t in class_totals)) * S.order ** (m - 2)
        d_term, d_attained = None, None
        for cls in inst.seed_classes:
            cnt = seed_counts["per_class"][cls.base_label]["per_member"]
            val = cnt * cls.order ** (m - 1)
            if d_term is None or val < d_term:
                d_term, d_attained = val, cls.label
        five_ok = max(a_term, b_term) <= min(c_term, d_term)
        results.append(
            ConditionResult(
                "C5 arithmetic",
                five_ok,
                detail=(
                    f"max(diagonal={a_term}, outside={b_term}) vs "
                    f"min(cross={c_term}, family_min={d_term})"
                ),
                witness=None
                if five_ok
                else {
                    "max_side": str(max(a_term, b_term)),
                    "min_side": str(min(c_term, d_term)),
                },
            )
        )
        notes.append(
            "outside-family maximum ranges over maximal-subgroup classes not "
            "in the family (the shape the product-type bound applies to); "
            f"attained by {b_attained!r}, family minimum by {d_attained!r}"
        )
    else:
        a_term = b_term = c_term = 0
        d_term = min(
            seed_counts["per_class"][cls.base_label]["per_member"]
            for cls in inst.seed_classes
        )
        results.append(
            ConditionResult(
                "C5 arithmetic",
                True,
                detail="m=1: no wreath layer, condition vacuous",
            )
        )

    return SeedConditionReport(
        conditions=results,
        diagonal_bound=a_term,
        outside_family_max=b_term,
        cross_class_layer=c_term,
        family_min=d_term if d_term is not None else 0,
        seed_counts=seed_counts,
        notes=notes,
    )


# -- definite unbeatability ---------------------------------------------------


@dataclass
class UnbeatabilityReport:
    mode: str  # explicit-group | explicit-wreath | symbolic
    conditions: list[ConditionResult]
    family_size: int
    target_size: Optional[int] = None
    member_min_count: Optional[int] = None
    outsider_max: Optional[dict] = None
    assumptions: list[str] = field(default_factory=list)
    conditional: bool = False

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    @property
    def certified_lower_bound(self) -> Optional[int]:
        """sigma(target) = |family| <= sigma(X) when all conditions pass and
        none of them rests on a partial sweep; None otherwise."""
        return self.family_size if self.passed and not self.conditional else None

    def to_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "passed": self.passed,
            "conditions": [c.to_dict() for c in self.conditions],
            "family_size": str(self.family_size),
            "assumptions": list(self.assumptions),
            "conditional": self.conditional,
        }
        if self.target_size is not None:
            out["target_size"] = self.target_size
        if self.member_min_count is not None:
            out["member_min_count"] = self.member_min_count
        if self.outsider_max is not None:
            out["outsider_max"] = self.outsider_max
        if self.certified_lower_bound is not None:
            out["certified_lower_bound"] = str(self.certified_lower_bound)
        return out


def check_definitely_unbeatable_group(
    S: GroupTable,
    target_ids: np.ndarray,
    family: Sequence[SubgroupHandle],
    family_labels: Sequence[str],
    all_classes: Sequence[SubgroupClass],
) -> UnbeatabilityReport:
    """Explicit m=1 mode: the family lives inside S itself and every
    condition is a finite set check.  The outsider sweep runs over every
    proper class of the subgroup lattice, so the certificate is
    unconditional."""
    target = np.unique(np.asarray(target_ids, dtype=np.int64))
    results, sizes = hit_cover_disjoint(
        S,
        target,
        list(zip(family_labels, family, strict=True)),
        (
            "U1 every member meets the target",
            "U2 target covered",
            "U3 no target element in two members",
        ),
    )

    member_min = int(sizes.min()) if sizes.shape[0] else 0
    in_target = member_mask(S, target)
    family_keys = {h.canonical_key for h in family}
    outsider_max, outsider_label = 0, None
    for cls in all_classes:
        if cls.order == S.order:
            continue
        if cls.representative.canonical_key in family_keys:
            # the family is conjugation-closed in our uses, so one key
            # matching means the whole class is inside the family
            continue
        cnt = int(in_target[cls.representative.member_ids].sum())
        if cnt > outsider_max:
            outsider_max = cnt
            outsider_label = cls.base_label
    results.append(
        ConditionResult(
            "U4 outsiders dominated",
            outsider_max <= member_min,
            detail=f"max outsider {outsider_max} ({outsider_label}) vs member min {member_min}",
            witness=None
            if outsider_max <= member_min
            else {"outsider": outsider_label, "count": outsider_max, "member_min": member_min},
        )
    )

    return UnbeatabilityReport(
        mode="explicit-group",
        conditions=results,
        family_size=len(family),
        target_size=int(target.shape[0]),
        member_min_count=member_min,
        outsider_max={"count": outsider_max, "class": outsider_label},
        assumptions=[],
    )


def _labelled_products(
    classes: Sequence[SubgroupClass], m: int
) -> list[tuple[str, ProductTypeDescriptor]]:
    """The product-type family over every conjugate of the given classes,
    each member labelled ``base[i][c_2, ..., c_m]`` by its first slot and
    its coset minima."""
    return [
        (f"{cls.base_label}[{i}]{list(d.cosets)}", d)
        for cls in classes
        for i, M in enumerate(cls.conjugates)
        for d in product_type_family([M], m)
    ]


class _TargetMasks:
    """Per-shift boolean masks of the target set over the base grid."""

    def __init__(self, inst: SeedInstance, ctx: WreathContext, grid: np.ndarray):
        S, m = inst.S, inst.m
        self.masks: dict[int, np.ndarray] = {}
        seed_lut = member_mask(S, inst.seed_ids)

        def strand_product_column(step: int, t: int) -> np.ndarray:
            cols = [(t + j * step) % m for j in range(m // step)]
            acc = grid[:, cols[0]].astype(np.int64)
            for c in cols[1:]:
                acc = S.mul_many(acc, grid[:, c])
            return acc

        # twisted layer: shift 1, whole-product in the seed
        self.masks[1 % m] = seed_lut[strand_product_column(1, 0)]

        # strand layer: one prime shift per prime divisor of m
        if m >= 2:
            class_unions = [
                member_mask(S, np.concatenate([h.member_ids for h in cls.conjugates]))
                & seed_lut
                for cls in inst.seed_classes
            ]
            for s in socle_maximals(m):
                r = s.r
                p0 = strand_product_column(r, 0)
                p1 = strand_product_column(r, 1)
                mask = np.zeros(grid.shape[0], dtype=bool)
                for a, lut_a in enumerate(class_unions):
                    for b, lut_b in enumerate(class_unions):
                        if a == b:
                            continue
                        mask |= lut_a[p0] & lut_b[p1]
                self.masks[r % m] = mask  # r is prime, so r % m != 1

    def total(self) -> int:
        return int(sum(int(m.sum()) for m in self.masks.values()))


def check_definitely_unbeatable_wreath(
    inst: SeedInstance,
    family: Optional[Sequence[tuple[str, ProductTypeDescriptor]]] = None,
) -> UnbeatabilityReport:
    """Explicit wreath mode (m * |S|^m <= EXPLICIT_CAP): enumerate the
    target and verify all four conditions by counting.  The family is the
    given (label, descriptor) product-type members, by default those over
    the seed classes, plus the socle maximals.  The outsider sweep runs over
    every product-type subgroup built on maximal classes outside the family;
    diagonal-type subgroups contribute their size bound only and make the
    verdict conditional if they alone decide the comparison."""
    S, m = inst.S, inst.m
    total = m * S.order**m
    if total > EXPLICIT_CAP:
        raise ValueError(f"explicit mode needs m*|S|^m = {total} <= {EXPLICIT_CAP}")
    ctx = WreathContext(S, m)
    grid = ctx.base_grid()
    if family is None:
        family = _labelled_products(inst.seed_classes, m)
    products = [d for _, d in family]
    socle = socle_maximals(m)
    labels = [lab for lab, _ in family] + [f"socle[{s.r}]" for s in socle]
    n_products = len(products)

    tmasks = _TargetMasks(inst, ctx, grid)
    results: list[ConditionResult] = []

    # member hits and per-shift coverage counts on the target, products
    # counted as boxes, socle maximals as whole shift layers
    member_counts = np.zeros(len(labels), dtype=np.int64)
    per_shift_counts = {}
    for shift, tmask in tmasks.masks.items():
        luts = box_luts(ctx, products, shift)
        member_counts[:n_products] += box_target_counts(luts, tmask)
        counts = box_coverage(luts)
        for j, s in enumerate(socle):
            if shift % s.r == 0:
                member_counts[n_products + j] += int(tmask.sum())
                counts += 1
        per_shift_counts[shift] = counts
    empty = np.flatnonzero(member_counts == 0)
    empty_witness = labels[int(empty[0])] if empty.shape[0] else None
    results.append(
        ConditionResult(
            "U1 every member meets the target",
            empty_witness is None,
            witness={"empty_member": empty_witness} if empty_witness else None,
        )
    )

    uncovered_witness = None
    doubled_witness = None
    for shift in sorted(tmasks.masks):
        tmask = tmasks.masks[shift]
        counts = per_shift_counts[shift]
        bad0 = np.flatnonzero(tmask & (counts == 0))
        if bad0.shape[0] and uncovered_witness is None:
            uncovered_witness = {
                "shift": shift,
                "base": [int(x) for x in grid[bad0[0]]],
            }
        bad2 = np.flatnonzero(tmask & (counts > 1))
        if bad2.shape[0] and doubled_witness is None:
            doubled_witness = {
                "shift": shift,
                "base": [int(x) for x in grid[bad2[0]]],
            }
    results.append(
        ConditionResult(
            "U2 target covered",
            uncovered_witness is None,
            witness=uncovered_witness,
        )
    )
    results.append(
        ConditionResult(
            "U3 no target element in two members",
            doubled_witness is None,
            witness=doubled_witness,
        )
    )

    member_min = int(member_counts.min()) if labels else 0

    # outsider sweep: product types over classes outside the family
    sweep = _labelled_products(inst.outside_classes(), m)
    outsider_labels = [lab for lab, _ in sweep]
    outsiders = [d for _, d in sweep]
    outsider_counts = np.zeros(len(outsiders), dtype=np.int64)
    for shift, tmask in tmasks.masks.items():
        outsider_counts += box_target_counts(box_luts(ctx, outsiders, shift), tmask)
    outsider_max, outsider_label = 0, None
    if outsiders and outsider_counts.max() > 0:
        best = int(np.argmax(outsider_counts))  # first maximum, in sweep order
        outsider_max, outsider_label = int(outsider_counts[best]), outsider_labels[best]

    diag_bound = diagonal_term(S.order, m)
    u4_by_count = outsider_max <= member_min
    u4_by_diag = diag_bound <= member_min
    u4_ok = u4_by_count and u4_by_diag
    detail = (
        f"max outsider product-type count {outsider_max} ({outsider_label}), "
        f"diagonal size bound {diag_bound}, member min {member_min}"
    )
    witness = None
    if not u4_by_count:
        witness = {
            "outsider": outsider_label,
            "count": outsider_max,
            "member_min": member_min,
        }
    elif not u4_by_diag:
        witness = {
            "outsider": "diagonal-type (size bound, not an exhibited subgroup)",
            "bound": str(diag_bound),
            "member_min": member_min,
        }
    results.append(ConditionResult("U4 outsiders dominated", u4_ok, detail, witness))

    return UnbeatabilityReport(
        mode="explicit-wreath",
        conditions=results,
        family_size=len(labels),
        target_size=tmasks.total(),
        member_min_count=member_min,
        outsider_max={"count": outsider_max, "member": outsider_label},
        assumptions=[TRICHOTOMY_ASSUMPTION],
        conditional=u4_by_count and not u4_by_diag,
    )


def check_definitely_unbeatable_symbolic(
    inst: SeedInstance, seed_report: Optional[SeedConditionReport] = None
) -> UnbeatabilityReport:
    """Symbolic mode for m >= 2: seed conditions C0-C4 certify the hit,
    cover and disjointness conditions through the constructive coset
    argument; C5's arithmetic certifies outsider domination through the
    maximal-subgroup trichotomy."""
    if inst.m < 2:
        raise ValueError("symbolic mode needs m >= 2")
    if seed_report is None:
        seed_report = check_seed_conditions(inst)
    results = []
    # the seed report lists C0-C4, then C5
    *base, c5 = seed_report.conditions
    base_ok = all(c.passed for c in base)
    for name in ("U1 every member meets the target", "U2 target covered", "U3 no target element in two members"):
        results.append(
            ConditionResult(
                name,
                base_ok,
                detail="certified by the constructive coset argument from C0-C4",
            )
        )
    results.append(
        ConditionResult(
            "U4 outsiders dominated",
            c5.passed,
            detail=c5.detail,
            witness=c5.witness,
        )
    )
    return UnbeatabilityReport(
        mode="symbolic",
        conditions=results,
        family_size=wreath_cover_upper_term([h for _, h in inst.members()], inst.m),
        assumptions=[SCHEMA_ASSUMPTION, TRICHOTOMY_ASSUMPTION],
        conditional=False,
    )


# -- main theorem bound assembly ------------------------------------------------


@dataclass
class WreathBounds:
    lower: int
    upper: int
    family_size: int

    def to_dict(self) -> dict:
        return {
            "lower": str(self.lower),
            "upper": str(self.upper),
            "family_term": str(self.family_size),
            "cover_term": str(self.upper),
        }


def theorem_bounds(
    inst: SeedInstance,
    cover_handles: Sequence[SubgroupHandle],
    certificate: UnbeatabilityReport,
) -> WreathBounds:
    """Lower and upper bounds for sigma(S wr C_m): the lower bound is the
    certificate's certified lower bound (0 when it certifies none), the
    upper bound ``wreath_cover_upper_term`` over a verified covering of S
    (ValueError when it does not cover)."""
    ok, missing = verify_cover_handles(inst.S, cover_handles)
    if not ok:
        raise ValueError(f"cover does not cover S: element {missing} missed")
    upper = wreath_cover_upper_term(cover_handles, inst.m)
    return WreathBounds(certificate.certified_lower_bound or 0, upper, certificate.family_size)
