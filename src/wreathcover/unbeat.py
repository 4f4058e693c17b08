"""Lower-bound certificates for covering numbers of S wr C_m.

Two layers, and one verdict: a request's definite-unbeatability report is
derived once (``pipelines`` picks its mode), and ``theorem_bounds`` prints
its lower bound from that report's ``certified_lower_bound``, never from a
check of its own.  The seed is one mask over S, ``SeedInstance.in_seed``,
built once when the instance is made; every condition reads it.
``SeedInstance.class_hits`` counts seed elements in a class representative
(mu, nu, C5; C1 reads each class's stacked members); ``conjugates_holding``,
how many members hold each element, gives C2, C3 and the strand layer's unions.

* Seed conditions C0-C5 on a pair (seed element set, conjugation-closed
  family of maximal subgroup classes).  C0-C4 are finite set checks; C5 is
  a four-term exact-integer comparison whose terms bound how much of the
  constructed target any outsider subgroup can capture.

* Definite unbeatability of a family H on a target set: H hits the target,
  covers it, no target element lies in two members, and no maximal
  subgroup outside H meets the target in more elements than the least
  member does.  When that holds the covering number of the target equals
  |H| exactly, which lower-bounds the covering number of the whole group.

The family H of S wr C_m is the product-type family over the seed
classes' members plus the socle maximals.  ``wreath.product_type_family``
makes its product-type part as one ``wreath.ProductTypeFamily`` record,
which carries its own coset table, and ``wreath.wreath_cover_upper_term``
counts it.

U4 is that last condition, one rule at every m.  At m = 1 the target is
the seed, so U1-U3 are C1-C3, read off the seed report with the member
minimum mu; U4 sweeps the maximal classes outside H for the largest seed
count nu, and nu <= mu gives sigma(S) >= |H|: (1) a minimal cover of S can
be taken of maximal subgroups; (2) each member of H it leaves out leaves at
least mu seed elements uncovered, which no other member holds (C3); (3)
each maximal subgroup outside H covers at most nu <= mu of them.
Every certificate needs the catalog's maximal list complete; ``pipelines``
makes a verdict on a spec file's unchecked list conditional.
At m >= 2 explicit mode enumerates the target in a
``wreath.WreathContext`` and checks everything by counting over boxes.  It
makes one pass over the target's shifts, ascending: at each it counts the
family's target hits and coverage (the socle maximals add whole layers),
keeps the first U2 and U3 witness rows, then counts the target hits of the
outsider sweep, a second record from the same generator over the maximal
classes outside the family.  A member is an index into its record, and
only the members a report names, the first empty member (U1) and the
largest outsider (U4), get a label.
Symbolic mode certifies the first three conditions by the constructive
coset argument and the fourth by the C5 arithmetic; it assumes the
trichotomy that a maximal subgroup of S wr C_m contains the socle, is of
product type, or is of diagonal type, and says so in the certificate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import InputError
from .cover import verify_cover_handles
from .formulas import alpha, prime_factors, smallest_prime_factor
from .groups import GroupTable, SubgroupClass, SubgroupHandle, conjugates_holding, member_mask
from .wreath import (
    ProductTypeFamily,
    WreathContext,
    box_coverage,
    box_luts,
    box_target_counts,
    product_type_family,
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
U_NAMES = (
    "U1 every member meets the target",
    "U2 target covered",
    "U3 no target element in two members",
    "U4 outsiders dominated",
)


@dataclass
class SeedInstance:
    """A seed element set and a family of whole conjugacy classes of maximal
    subgroups of S, read class by class, with the wreath exponent m.  The
    seed is given as element ids in any order, repeats allowed; the instance
    keeps it as one mask over S, ``in_seed``, and as that mask's sorted ids."""

    S: GroupTable
    seed_ids: np.ndarray  # sorted, distinct element ids, conjugation-closed
    seed_classes: list[SubgroupClass]
    m: int
    maximal_classes: list[SubgroupClass]  # all maximal classes of S
    in_seed: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.in_seed = member_mask(self.S, np.asarray(self.seed_ids, dtype=np.int64))
        self.seed_ids = np.flatnonzero(self.in_seed)
        if self.seed_ids.shape[0] == 0:
            raise InputError("seed set is empty")
        if self.m < 1:
            raise ValueError("m >= 1 required")

    def outside_classes(self) -> list[SubgroupClass]:
        keys = {c.representative.canonical_key for c in self.seed_classes}
        return [c for c in self.maximal_classes if c.representative.canonical_key not in keys]

    def class_hits(self, classes: Sequence[SubgroupClass]) -> list[int]:
        """The number of seed elements in each class's representative; the
        seed is conjugation-closed, so every conjugate has the same count."""
        return [int(self.in_seed[c.representative.member_ids].sum()) for c in classes]


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


def diagonal_term(S_order: int, m: int) -> int:
    """(1 + alpha(m)) |S|^(m/l), l the smallest prime divisor of m (an exact
    integer, since l | m)."""
    return (1 + alpha(m)) * S_order ** (m // smallest_prime_factor(m))


def hit_cover_disjoint(inst: SeedInstance) -> list[ConditionResult]:
    """Conditions C1-C3 of the family on the seed: every member meets it (one
    read of each class's stacked ``members``), the members cover it, and no
    seed element lies in two members (each seed element's holder count is 1)."""
    empty = [
        f"{cls.base_label}[{i}]"
        for cls in inst.seed_classes
        for i in np.flatnonzero(~inst.in_seed[cls.members].any(axis=1)).tolist()
    ]
    seed = inst.seed_ids
    count = conjugates_holding(inst.S, inst.seed_classes)[seed]
    uncovered, doubled = seed[count == 0], seed[count > 1]
    return [
        ConditionResult(
            "C1 every member meets the seed",
            not empty,
            witness={"empty_members": empty[:5]} if empty else None,
        ),
        ConditionResult(
            "C2 seed covered by the family",
            uncovered.shape[0] == 0,
            witness={"uncovered_element": int(uncovered[0])}
            if uncovered.shape[0]
            else None,
        ),
        ConditionResult(
            "C3 no seed element in two members",
            doubled.shape[0] == 0,
            witness={"element": int(doubled[0])} if doubled.shape[0] else None,
        ),
    ]


def check_seed_conditions(inst: SeedInstance) -> SeedConditionReport:
    """Evaluate conditions C0-C5 exhaustively with exact arithmetic."""
    S, seed, m, in_seed = inst.S, inst.seed_ids, inst.m, inst.in_seed
    notes: list[str] = []

    # C0: the family is closed under conjugation (it is built from whole
    # classes); so is the seed when each element's class label agrees.
    results = [
        ConditionResult(
            "C0 conjugation-closed",
            bool((in_seed == in_seed[S.element_classes()]).all()),
            "family consists of whole conjugacy classes; seed set checked "
            "against the group generators",
        )
    ]

    # C1-C3: every member meets the seed, the family covers it, no seed
    # element lies in two members
    results.extend(hit_cover_disjoint(inst))

    # C4: at least two non-conjugate classes
    results.append(
        ConditionResult(
            "C4 at least two classes",
            len(inst.seed_classes) >= 2,
            detail=f"{len(inst.seed_classes)} classes",
        )
    )

    # C5: the four-term arithmetic (m >= 2)
    hits = inst.class_hits(inst.seed_classes)
    class_totals = [n * cls.class_size for n, cls in zip(hits, inst.seed_classes)]
    seed_counts: dict = {
        "seed_size": int(seed.shape[0]),
        "per_class": {
            cls.base_label: {
                "per_member": n,
                "class_total": total,
                "member_order": cls.order,
                "class_size": cls.class_size,
                "index": cls.representative.index,
            }
            for n, total, cls in zip(hits, class_totals, inst.seed_classes)
        },
    }

    if m >= 2:
        a_term = diagonal_term(S.order, m)
        # the attained labels are the first maximum and minimum in class order
        outside = inst.outside_classes()
        b_vals = [n * cls.order ** (m - 1) for n, cls in zip(inst.class_hits(outside), outside)]
        b_term = max(b_vals, default=0)
        b_attained = outside[b_vals.index(b_term)].label if b_term else None
        t_sum = sum(class_totals)
        c_term = (t_sum**2 - sum(t * t for t in class_totals)) * S.order ** (m - 2)
        d_vals = [n * cls.order ** (m - 1) for n, cls in zip(hits, inst.seed_classes)]
        d_term = min(d_vals)
        d_attained = inst.seed_classes[d_vals.index(d_term)].label
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
        d_term = min(hits)
        results.append(
            ConditionResult("C5 arithmetic", True, "m=1: no wreath layer, condition vacuous")
        )

    return SeedConditionReport(
        conditions=results,
        diagonal_bound=a_term,
        outside_family_max=b_term,
        cross_class_layer=c_term,
        family_min=d_term,
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
        none rests on a partial sweep or unchecked list; None otherwise."""
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
    inst: SeedInstance, seed_report: SeedConditionReport
) -> UnbeatabilityReport:
    """Explicit m=1 mode: the family lives inside S itself and the target
    is the seed, so U1-U3 are the seed report's C1-C3 under their U names
    and the member minimum mu is its ``family_min``.  U4 holds when nu, the
    largest seed count of a maximal class outside the family, is at most
    mu; then sigma(S) >= |family|, since a minimal cover can be taken of
    maximal subgroups, each member it leaves out leaves at least mu seed
    elements that no other member holds (C3), and each outsider covers at
    most nu <= mu of them.  mu and nu are counts on class representatives,
    which every conjugate shares only when the seed is conjugation-closed,
    so a failed C0 is listed first and fails the verdict."""
    # the seed report lists C0, then C1-C3
    c0, *c1_to_c3 = seed_report.conditions[:4]
    results = [replace(c, name=name) for c, name in zip(c1_to_c3, U_NAMES)]
    if not c0.passed:
        results.insert(0, c0)

    member_min = seed_report.family_min
    outsiders = inst.outside_classes()
    hits = inst.class_hits(outsiders)
    outsider_max = max(hits, default=0)
    # the first maximum in class order
    outsider_label = outsiders[hits.index(outsider_max)].base_label if outsider_max else None
    results.append(
        ConditionResult(
            U_NAMES[3],
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
        family_size=sum(cls.class_size for cls in inst.seed_classes),
        target_size=int(inst.seed_ids.shape[0]),
        member_min_count=member_min,
        outsider_max={"count": outsider_max, "class": outsider_label},
    )


def _member_label(classes: Sequence[SubgroupClass], family: ProductTypeFamily, j: int) -> str:
    """Member j of the family over every conjugate of the classes, in class
    order, labelled ``base[i][c_2, ..., c_m]`` by its first slot, conjugate
    i of class base, and its coset minima.  Only the members a report
    names are labelled."""
    i = int(family.owner[j])
    for cls in classes:
        if i < cls.class_size:
            return f"{cls.base_label}[{i}]{family.cosets[j].tolist()}"
        i -= cls.class_size
    raise IndexError(j)


def _target_masks(inst: SeedInstance, grid: np.ndarray) -> dict[int, np.ndarray]:
    """The target set as boolean masks over the base grid, keyed by shift in
    ascending order: the twisted layer at shift 1 % m (the whole strand
    product in the seed) and, for each prime r dividing m, the strand layer
    at shift r % m (its two strand products in the seed elements of two
    different family classes)."""
    S, m, seed_lut = inst.S, inst.m, inst.in_seed

    def strand_product(step: int, t: int) -> np.ndarray:
        return functools.reduce(S.mul_many, grid[:, t::step].T)

    masks = {1 % m: seed_lut[strand_product(1, 0)]}
    class_unions = [(conjugates_holding(S, [cls]) > 0) & seed_lut for cls in inst.seed_classes]
    for r in prime_factors(m):
        p0, p1 = strand_product(r, 0), strand_product(r, 1)
        mask = np.zeros(grid.shape[0], dtype=bool)
        for a, lut_a in enumerate(class_unions):
            for b, lut_b in enumerate(class_unions):
                if a != b:
                    mask |= lut_a[p0] & lut_b[p1]
        masks[r % m] = mask  # r is prime, so r % m != 1
    return dict(sorted(masks.items()))


def check_definitely_unbeatable_wreath(inst: SeedInstance) -> UnbeatabilityReport:
    """Explicit wreath mode: enumerate the target in S wr C_m (the
    ``WreathContext`` refuses m * |S|^m above ``EXPLICIT_CAP``) and verify
    all four conditions by counting.  The family is the product-type
    members over the seed classes plus the socle maximals.  The outsider
    sweep runs over every product-type subgroup built on maximal classes
    outside the family; diagonal-type subgroups contribute their size bound
    only and make the verdict conditional if they alone decide the
    comparison."""
    S, m = inst.S, inst.m
    ctx = WreathContext(S, m)
    grid = ctx.base_grid()
    outside = inst.outside_classes()
    family = product_type_family([M for cls in inst.seed_classes for M in cls.conjugates], m)
    sweep = product_type_family([M for cls in outside for M in cls.conjugates], m)
    socle = prime_factors(m)
    n_products = len(family.owner)

    # products are counted as boxes, socle maximals as whole shift layers
    member_counts = np.zeros(n_products + len(socle), dtype=np.int64)
    outsider_counts = np.zeros(len(sweep.owner), dtype=np.int64)
    target_size = 0
    witnesses: dict[str, dict] = {}  # condition -> its first failing row
    for shift, tmask in _target_masks(inst, grid).items():
        layer_size = int(tmask.sum())
        target_size += layer_size
        luts = box_luts(ctx, family, shift)
        member_counts[:n_products] += box_target_counts(luts, tmask)
        counts = box_coverage(luts)
        del luts  # the outsiders' rows come next; never hold both
        for j, r in enumerate(socle):
            if shift % r == 0:
                member_counts[n_products + j] += layer_size
                counts += 1
        for name, bad in (("U2", counts == 0), ("U3", counts > 1)):
            rows = np.flatnonzero(tmask & bad)
            if rows.shape[0] and name not in witnesses:
                witnesses[name] = {"shift": shift, "base": grid[rows[0]].tolist()}
        outsider_counts += box_target_counts(box_luts(ctx, sweep, shift), tmask)

    empty = np.flatnonzero(member_counts == 0)
    empty_witness = None
    if empty.shape[0]:
        j = int(empty[0])  # products first, then the socle maximals
        empty_witness = (
            _member_label(inst.seed_classes, family, j)
            if j < n_products
            else f"socle[{socle[j - n_products]}]"
        )
    member_min = int(member_counts.min()) if member_counts.shape[0] else 0
    outsider_max, outsider_label = 0, None
    if outsider_counts.shape[0] and outsider_counts.max() > 0:
        best = int(np.argmax(outsider_counts))  # first maximum, in sweep order
        outsider_max = int(outsider_counts[best])
        outsider_label = _member_label(outside, sweep, best)

    diag_bound = diagonal_term(S.order, m)
    u4_by_count = outsider_max <= member_min
    u4_by_diag = diag_bound <= member_min
    detail = (
        f"max outsider product-type count {outsider_max} ({outsider_label}), "
        f"diagonal size bound {diag_bound}, member min {member_min}"
    )
    witness = None
    if not u4_by_count:
        witness = {"outsider": outsider_label, "count": outsider_max, "member_min": member_min}
    elif not u4_by_diag:
        witness = {
            "outsider": "diagonal-type (size bound, not an exhibited subgroup)",
            "bound": str(diag_bound),
            "member_min": member_min,
        }
    u1, u2, u3, u4 = U_NAMES
    results = [
        ConditionResult(
            u1,
            empty_witness is None,
            witness={"empty_member": empty_witness} if empty_witness else None,
        ),
        ConditionResult(u2, "U2" not in witnesses, witness=witnesses.get("U2")),
        ConditionResult(u3, "U3" not in witnesses, witness=witnesses.get("U3")),
        ConditionResult(u4, u4_by_count and u4_by_diag, detail, witness),
    ]
    return UnbeatabilityReport(
        mode="explicit-wreath",
        conditions=results,
        family_size=member_counts.shape[0],
        target_size=target_size,
        member_min_count=member_min,
        outsider_max={"count": outsider_max, "member": outsider_label},
        assumptions=[TRICHOTOMY_ASSUMPTION],
        conditional=u4_by_count and not u4_by_diag,
    )


def check_definitely_unbeatable_symbolic(
    inst: SeedInstance, seed_report: SeedConditionReport
) -> UnbeatabilityReport:
    """Symbolic mode for m >= 2: seed conditions C0-C4 certify the hit,
    cover and disjointness conditions through the constructive coset
    argument; C5's arithmetic certifies outsider domination through the
    maximal-subgroup trichotomy."""
    if inst.m < 2:
        raise ValueError("symbolic mode needs m >= 2")
    results = []
    # the seed report lists C0-C4, then C5
    *base, c5 = seed_report.conditions
    base_ok = all(c.passed for c in base)
    for name in U_NAMES[:3]:
        results.append(
            ConditionResult(
                name,
                base_ok,
                detail="certified by the constructive coset argument from C0-C4",
            )
        )
    results.append(
        ConditionResult(
            U_NAMES[3],
            c5.passed,
            detail=c5.detail,
            witness=c5.witness,
        )
    )
    return UnbeatabilityReport(
        mode="symbolic",
        conditions=results,
        family_size=wreath_cover_upper_term(
            [h for cls in inst.seed_classes for h in cls.conjugates], inst.m
        ),
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
    (InputError when it does not cover)."""
    ok, missing = verify_cover_handles(inst.S, cover_handles)
    if not ok:
        raise InputError(f"cover does not cover S: element {missing} missed")
    upper = wreath_cover_upper_term(cover_handles, inst.m)
    return WreathBounds(certificate.certified_lower_bound or 0, upper, certificate.family_size)
