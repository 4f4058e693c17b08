"""End-to-end verification pipelines wiring the modules together.

These back the CLI subcommands and the acceptance suite: exact covering
numbers, one table of wreath theorems (M11 and the PSL(2,p) family, each a
group, a seed set, a two-class family and a closed form) verified by one
runner, constructive covers with serialized certificates, and inequality
sweeps.  Every report is a plain dict of deterministic content, rendered to
canonical JSON by report.py.

Each wreath request derives its seed instance, seed report and
unbeatability verdict once, in one call of ``_verdict``; the certificate it
prints and the bounds (``unbeat.theorem_bounds``, which also verifies the
cover) both read that one report.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import InputError, catalog, formulas
from .cover import build_instance, sigma_exact, sigma_greedy, verify_cover
from .groups import GroupTable, SubgroupClass, member_mask
from .lattice import ORDER_CAP, all_subgroup_classes, maximal_classes_from_lattice
from .unbeat import (
    SeedConditionReport,
    SeedInstance,
    UnbeatabilityReport,
    check_definitely_unbeatable_group,
    check_definitely_unbeatable_symbolic,
    check_definitely_unbeatable_wreath,
    check_seed_conditions,
    theorem_bounds,
)
from .wreath import (
    AUTO_EXPLICIT_LIMIT,
    ProductTypeFamily,
    WreathContext,
    construct_product_cover,
    coset_minima,
    explicit_size,
    verify_wreath_cover,
    wreath_cover_upper_term,
)


MAXIMAL_LIST_ASSUMPTION = "assumes the spec file lists every maximal class of S (unchecked)"


@functools.lru_cache(maxsize=None)
def load_group(source: str) -> catalog.CatalogGroup:
    return catalog.load(source)


_TARGET_RE = re.compile(r"orders:\d+(,\d+)*|cycle-types:\d+(,\d+)*(/\d+(,\d+)*)*")


def parse_target_spec(g: GroupTable, spec: str) -> np.ndarray:
    """Target element sets: ``orders:8,11`` or ``cycle-types:9/3,3,3``
    (types separated by '/', lengths by ',')."""
    if not _TARGET_RE.fullmatch(spec):
        raise InputError(f"bad target spec {spec!r} (orders:... or cycle-types:...)")
    kind, _, payload = spec.partition(":")
    if kind == "orders":
        parts = [g.elements_with_order(int(x)) for x in payload.split(",")]
    else:
        parts = [
            g.elements_with_cycle_type([int(x) for x in t.split(",")])
            for t in payload.split("/")
        ]
    # the union as one mask over g: flatnonzero gives sorted, distinct ids
    return np.flatnonzero(member_mask(g, np.concatenate(parts)))


def _maximal_classes(cg: catalog.CatalogGroup, cache_dir=None) -> list[SubgroupClass]:
    if cg.maximal_classes:
        return cg.maximal_classes
    lattice = all_subgroup_classes(cg.table, cache_dir=cache_dir)
    return maximal_classes_from_lattice(cg.table, lattice)


def catalog_report(source: str) -> dict:
    """A group's generators and its verified maximal classes."""
    cg = load_group(source)
    return {
        "group": cg.spec.name,
        "order": cg.table.order,
        "degree": cg.table.degree,
        "generators": list(cg.spec.generators),
        "maximal_classes": [
            {
                "label": c.label,
                "order": c.order,
                "class_size": c.class_size,
                "index": c.representative.index,
            }
            for c in cg.maximal_classes
        ],
        "verified": True,
        "passed": True,
    }


def sigma_report(
    source: str,
    target_spec: Optional[str] = None,
    method: str = "exact",
    cache_dir=None,
) -> dict:
    """sigma(G) or sigma of a target subset, by branch-and-bound or greedy,
    over the full pool of maximal subgroups."""
    cg = load_group(source)
    g = cg.table
    if g.order > ORDER_CAP:
        raise InputError(f"group order {g.order} exceeds cap {ORDER_CAP}")
    target = parse_target_spec(g, target_spec) if target_spec else None
    inst = build_instance(g, _maximal_classes(cg, cache_dir), target)
    cert = sigma_exact(inst) if method == "exact" else sigma_greedy(inst)
    report = {
        "group": cg.spec.name,
        "group_order": g.order,
        "target": target_spec or "all",
        "method": method,
        "certificate": cert.to_dict(),
    }
    if cert.kind in ("exact-optimal", "upper-bound"):
        ok, witness = verify_cover(inst, cert.chosen)
        report["verified"] = ok
        if not ok:
            report["uncovered_witness"] = witness
    return report


# -- wreath covering-number pipelines -----------------------------------------


def _classes_by_labels(
    cg: catalog.CatalogGroup, labels: Sequence[str]
) -> list[SubgroupClass]:
    if not labels:
        raise InputError("no class labels given")
    by_label = cg.classes_by_label()
    missing = [lab for lab in labels if lab not in by_label]
    if missing:
        raise InputError(f"unknown class labels {missing}; have {sorted(by_label)}")
    repeated = sorted({lab for i, lab in enumerate(labels) if lab in labels[:i]})
    if repeated:
        raise InputError(f"duplicate class labels {repeated}")
    return [by_label[lab] for lab in labels]


def _verdict(
    cg: catalog.CatalogGroup,
    seed_spec: str,
    family: list[SubgroupClass],
    m: int,
    mode: str,
) -> tuple[SeedInstance, SeedConditionReport, UnbeatabilityReport]:
    """The one verdict on a request's family of resolved classes: its seed
    instance, the seed conditions C0-C5 and definite unbeatability, each
    computed once.  At m = 1 the verdict reads U1-U3 off the seed report and
    sweeps the maximal classes outside the family for U4.  At m >= 2,
    ``explicit`` enumerates S wr C_m (InputError above ``EXPLICIT_CAP``), and
    ``auto`` is explicit while ``explicit_size`` <= ``AUTO_EXPLICIT_LIMIT``
    and symbolic, from the seed report, above.  A spec file's maximal list
    is checked by nothing, so a verdict on one is conditional on it."""
    inst = SeedInstance(
        S=cg.table,
        seed_ids=parse_target_spec(cg.table, seed_spec),
        seed_classes=family,
        m=m,
        maximal_classes=cg.maximal_classes,
    )
    seed_rep = check_seed_conditions(inst)
    if m == 1:
        du = check_definitely_unbeatable_group(inst, seed_rep)
    elif mode == "explicit" or explicit_size(cg.table, m) <= AUTO_EXPLICIT_LIMIT:
        du = check_definitely_unbeatable_wreath(inst)
    else:
        du = check_definitely_unbeatable_symbolic(inst, seed_rep)
    if cg.spec != catalog.BUILTIN_SPECS.get(cg.spec.name):
        du = replace(du, assumptions=[*du.assumptions, MAXIMAL_LIST_ASSUMPTION], conditional=True)
    return inst, seed_rep, du


def _certificate(
    cg: catalog.CatalogGroup,
    inst: SeedInstance,
    seed_spec: str,
    seed_rep: SeedConditionReport,
    du: UnbeatabilityReport,
) -> dict:
    """The verdict reported with the seed conditions it rests on."""
    return {
        "group": cg.spec.name,
        "m": inst.m,
        "seed": seed_spec,
        "family": [cls.label for cls in inst.seed_classes],
        "seed_conditions": seed_rep.to_dict(),
        "unbeatability": du.to_dict(),
        "passed": du.passed,
    }


def unbeatable_report(
    source: str,
    seed_spec: str,
    family_labels: Sequence[str],
    m: int,
    mode: str = "auto",
) -> dict:
    """The full certificate pipeline: seed conditions, then definite
    unbeatability in explicit or symbolic mode."""
    cg = load_group(source)
    inst, seed_rep, du = _verdict(cg, seed_spec, _classes_by_labels(cg, family_labels), m, mode)
    return _certificate(cg, inst, seed_spec, seed_rep, du)


def wreath_bounds_report(
    source: str,
    seed_spec: str,
    family_labels: Sequence[str],
    m: int,
    cover_labels: Optional[Sequence[str]] = None,
) -> dict:
    """Lower/upper bounds for sigma(S wr C_m): certified family size vs the
    constructive cover count.  Both label lists are resolved before any
    verdict work, the family's first."""
    cg = load_group(source)
    family = _classes_by_labels(cg, family_labels)
    cover_classes = family if cover_labels is None else _classes_by_labels(cg, cover_labels)
    cover = [h for cls in cover_classes for h in cls.conjugates]
    inst, _, du = _verdict(cg, seed_spec, family, m, "auto")
    bounds = theorem_bounds(inst, cover, du)
    return {
        "group": cg.spec.name,
        "m": m,
        "family": list(family_labels),
        "cover": [cls.label for cls in cover_classes],
        "bounds": bounds.to_dict(),
        "passed": bounds.lower > 0 and bounds.lower <= bounds.upper,
    }


@dataclass(frozen=True)
class Theorem:
    """An exact covering number of S wr C_m: the family of maximal classes
    over a seed element set is definitely unbeatable, and its constructive
    cover count equals the closed form.  ``family`` maps each class label to
    the seed count of one member; ``closed_form(m)`` returns the value and
    any outside-hypothesis warnings."""

    group: str
    order: int
    seed_spec: str
    family: dict[str, int]
    closed_form: Callable[[int], tuple[int, list[str]]]


# sigma(M11 wr C_m) = alpha(m) + 11^m + 12^m; m = 1 is sigma(M11) = 23
# (Holmes 2006).  An M10 holds 2 classes of 90 elements of order 8, a
# PSL(2,11) the 11^2 - 1 elements of order 11.
M11_THEOREM = Theorem(
    group="M11",
    order=7920,
    seed_spec="orders:8,11",
    family={"M10": 180, "PSL(2,11)": 120},
    closed_form=lambda m: (formulas.c1_value(m), []),
)


def psl_theorem(p: int) -> Theorem:
    """sigma(PSL(2,p) wr C_m) = alpha(m) + (p+1)^m + (p(p-1)/2)^m over the
    point stabilizers p:(p-1)/2 and the dihedral groups D(p+1); m = 1 is
    Bryce, Fedri & Serena 1999."""
    if p < 11:
        # the closed form's own hypothesis, checked before any group loads
        raise InputError(f"p={p} outside hypothesis (prime >= 11 required)")
    name = f"PSL(2,{p})"
    if name not in catalog.BUILTIN_SPECS:
        raise InputError(f"no built-in catalog for {name}")
    return Theorem(
        group=name,
        order=p * (p * p - 1) // 2,
        seed_spec=f"orders:{p},{(p + 1) // 2}",
        family={
            f"{p}:{(p - 1) // 2}": p - 1,
            f"D{p + 1}": formulas.euler_phi((p + 1) // 2),
        },
        closed_form=functools.partial(formulas.c2_value, p),
    )


def theorem_report(thm: Theorem, m: int) -> dict:
    """Verify one wreath theorem at m: the seed conditions, the
    unbeatability certificate, the cover of S and the bounds, each computed
    once (a cover that fails raises).  It passes when the lower and upper
    bounds both equal the closed form; the bounds are reported at m >= 2."""
    cg = load_group(thm.group)
    g = cg.table
    if g.order != thm.order:
        raise ValueError(f"{thm.group} has order {g.order}, expected {thm.order}")
    family = _classes_by_labels(cg, list(thm.family))
    inst, seed_rep, du = _verdict(cg, thm.seed_spec, family, m, "auto")
    value, warnings = thm.closed_form(m)
    per_class = seed_rep.seed_counts["per_class"]
    counts = {lab: per_class[lab]["per_member"] for lab in thm.family}
    bounds = theorem_bounds(inst, [h for cls in family for h in cls.conjugates], du)
    report: dict = {
        "group": thm.group,
        "m": m,
        "order": g.order,
        "formula_value": str(value),
        "warnings": warnings,
        "seed_per_member": counts,
        "expected_seed_per_member": dict(thm.family),
        "certificate": _certificate(cg, inst, thm.seed_spec, seed_rep, du),
        "cover_verified": True,  # theorem_bounds raises on a failing cover
        # a nonzero lower bound is a passed, unconditional certificate
        "passed": counts == thm.family and bounds.lower == bounds.upper == value,
    }
    if m >= 2:
        report["bounds"] = bounds.to_dict()
    return report


# verify-c1 and verify-c2: pick the row, run it
def m11_report(m: int) -> dict:
    return theorem_report(M11_THEOREM, m)


def psl_report(p: int, m: int) -> dict:
    return theorem_report(psl_theorem(p), m)


# -- constructive covers and their certificates ---------------------------------


def descriptor_lines(
    cg: catalog.CatalogGroup, family: ProductTypeFamily, socle: Sequence[int]
) -> list[str]:
    """Serialize a wreath covering family: one line per member,
    product-type{...} or socle{r} for each socle maximal's prime r.  Each
    run of members over one subgroup shares its line head, and each
    element is rendered once per group table (``GroupTable.cycle_string``)."""
    g = cg.table
    # every maximal conjugate's class label and conjugator, by its key
    found = {
        key: (cls.label, c)
        for cls in cg.maximal_classes
        for key, c in zip(cls.keys, cls.conjugators.tolist())
    }
    lines = []
    members = zip(family.owner.tolist(), family.cosets.tolist())
    for r, run in itertools.groupby(members, key=lambda member: member[0]):
        key = family.subgroups[r].canonical_key
        if key not in found:
            raise ValueError("descriptor subgroup is not in the maximal catalog")
        label, conj = found[key]
        conj = g.cycle_string(conj)
        head = f"product-type{{group={cg.spec.name}, class={label}, conj={conj}, cosets=["
        lines.extend(head + ", ".join(map(g.cycle_string, cosets)) + "]}" for _, cosets in run)
    for r in socle:
        lines.append(f"socle{{{r}}}")
    return lines


# group and class names may hold commas (PSL(2,7)), so the fields are split
# at the literal ", class=", ", conj=" and ", cosets=[" separators
_PRODUCT_RE = re.compile(
    r"product-type\{group=(.+?), class=(.+?), conj=(.+?), cosets=\[(.*)\]\}"
)
_SOCLE_RE = re.compile(r"socle\{(\d+)\}")
# one cycle string as ``Perm.to_cycle_string`` writes it
_CYCLES_RE = re.compile(r"\(\)|(?:\(\d+(?: \d+)*\))+")


def parse_descriptor_lines(
    cg: catalog.CatalogGroup, lines: Sequence[str], m: int
) -> tuple[ProductTypeFamily, list[int]]:
    """Read a serialized family back: (the product-type family, socle
    primes).  Lines are parsed up to the first bad one.  A cycle string
    as ``descriptor_lines`` writes it is looked up in the group table
    (``GroupTable.cycle_id``), any other is parsed, and each (class, conj)
    is conjugated once.  The family's subgroups are the distinct
    conjugates named, and its cosets are canonicalized from its coset
    table; repeated members are then refused in line order, before the bad
    line's error."""
    g = cg.table
    by_label = cg.classes_by_label()
    subgroups = {}  # (class, conj) -> the conjugate it names
    entries = []  # (line, socle prime) or (line, ((class, conj), coset ids))
    failure = None
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if pm := _PRODUCT_RE.fullmatch(line):
                gname, label, conj_str, cosets_str = pm.groups()
                if gname != cg.spec.name:
                    raise InputError(f"descriptor group {gname} != {cg.spec.name}")
                if label not in by_label:
                    raise InputError(f"unknown class label {label!r}")
                if not _CYCLES_RE.fullmatch(conj_str):
                    raise InputError(f"{line!r}: conj must be one cycle string")
                key = (label, g.cycle_id(conj_str))
                if key not in subgroups:
                    subgroups[key] = by_label[label].representative.conjugate(key[1])
                tokens = cosets_str.split(", ") if cosets_str else []
                if len(tokens) != m - 1 or not all(map(_CYCLES_RE.fullmatch, tokens)):
                    raise InputError(f"{line!r}: cosets must be {m - 1} cycle strings joined by ', '")
                entries.append((line, (key, [g.cycle_id(tok) for tok in tokens])))
            elif sm := _SOCLE_RE.fullmatch(line):
                r = int(sm.group(1))
                if r not in formulas.prime_factors(m):
                    raise InputError(f"{line!r}: {r} is not a prime divisor of m = {m}")
                entries.append((line, r))
            else:
                raise InputError(f"unparseable descriptor line: {line!r}")
        except InputError as exc:
            failure = exc
            break
    # one row per subgroup: two (class, conj) names may name one conjugate
    rows: dict = {}
    row_of = {key: rows.setdefault(M, len(rows)) for key, M in subgroups.items()}
    minima = coset_minima(list(rows))
    owner, cosets, socle = [], [], []
    seen: set = set()  # every member as (row, *coset minima), and every socle prime
    for line, entry in entries:
        if isinstance(entry, int):
            member = entry
            socle.append(member)
        else:
            key, ids = entry
            r = row_of[key]
            member = (r, *minima[r][ids].tolist())
            owner.append(r)
            cosets.append(member[1:])
        if member in seen:
            raise InputError(f"{line!r}: names a member of an earlier line again")
        seen.add(member)
    if failure is not None:
        raise failure
    owner = np.array(owner, dtype=np.int64)
    cosets = np.array(cosets, dtype=np.int64).reshape(owner.shape[0], m - 1)
    return ProductTypeFamily(list(rows), minima, owner, cosets), socle


def construct_cover_report(source: str, m: int, cover_method: str = "exact") -> dict:
    """Build the constructive covering family of S wr C_m from a minimal
    (or greedy) cover of S and verify it exhaustively, which needs a
    ``WreathContext`` (InputError above ``EXPLICIT_CAP``)."""
    cg = load_group(source)
    ctx = WreathContext(cg.table, m)
    if not cg.maximal_classes:
        # member lines name catalog classes; fail before the lattice work
        raise InputError(
            f"{cg.spec.name} has no catalog maximal classes; covering-family "
            "lines need catalog class labels (give maximal_classes in the "
            "spec file)"
        )
    g = cg.table
    inst = build_instance(g, cg.maximal_classes)
    cert = sigma_exact(inst) if cover_method == "exact" else sigma_greedy(inst)
    if cert.kind not in ("exact-optimal", "upper-bound"):
        raise InputError(f"no covering of {source}: {cert.kind}")
    label_to_handle = dict(zip(inst.labels, inst.handles))
    N = [label_to_handle[lab] for lab in cert.chosen]
    family, socle = construct_product_cover(g, N, m)
    ok, witness = verify_wreath_cover(ctx, family, socle)
    report = {
        "group": cg.spec.name,
        "m": m,
        "base_cover": cert.to_dict(),
        "family_count": len(family.owner) + len(socle),
        "expected_count": wreath_cover_upper_term(N, m),
        "members": descriptor_lines(cg, family, socle),
        "verified": ok,
    }
    if witness is not None:
        report["uncovered_witness"] = {"base": list(witness.base), "shift": witness.shift}
    report["passed"] = ok and report["family_count"] == report["expected_count"]
    return report


def verify_cover_report(
    source: str,
    m: int,
    member_lines: Sequence[str],
) -> dict:
    """Check a serialized wreath covering family against every element."""
    cg = load_group(source)
    ctx = WreathContext(cg.table, m)
    family, socle = parse_descriptor_lines(cg, member_lines, m)
    ok, witness = verify_wreath_cover(ctx, family, socle)
    report = {
        "group": cg.spec.name,
        "m": m,
        "members": len(family.owner) + len(socle),
        "covered": ok,
    }
    if witness is not None:
        report["uncovered_witness"] = {"base": list(witness.base), "shift": witness.shift}
    report["passed"] = ok
    return report


def inequality_report(lemma: str, n_range: range, m_range: Optional[range]) -> dict:
    """One lemma sweep (m over ``formulas.M_RANGE`` unless given); an unknown
    lemma, an m range for a lemma without m, or a range without cases is refused."""
    try:
        row = formulas.lemma_row(lemma)
    except KeyError as exc:
        raise InputError(*exc.args) from None
    if row.arity != "nm" and m_range is not None:
        raise InputError(f"lemma {row.key} takes --n-range only")
    m_range = formulas.M_RANGE if m_range is None else m_range
    try:
        report = formulas.inequality_suite(lemma, n_range, m_range)
    except ValueError as exc:
        raise InputError(*exc.args) from None
    if not report.cases_checked:
        where = f"n in {n_range.start}..{n_range.stop - 1}"
        if row.arity == "nm":
            where += f" and m in {m_range.start}..{m_range.stop - 1}"
        raise InputError(f"lemma {row.key} has no case with {where}")
    return report.to_dict()


def _fraction(v) -> str:
    return f"{v.numerator}/{v.denominator}"


def _c2(p: int, m: int) -> dict:
    value, warnings = formulas.c2_value(p, m)
    return {"value": str(value), "warnings": warnings}


def _f_ratio(n: int, m: int) -> dict:
    v = formulas.f_ratio(n, m)
    return {"value": _fraction(v), "value_float": float(v)}


def _stirling(n: int) -> dict:
    lo, hi = formulas.stirling_bounds(n)
    return {"lower": _fraction(lo), "upper": _fraction(hi)}


# closed form -> (the parameters it needs, its report fields from them)
FORMULAS: dict[str, tuple[tuple[str, ...], Callable[..., dict]]] = {
    "alpha": (("m",), lambda m: {"value": str(formulas.alpha(m))}),
    "c1": (("m",), lambda m: {"value": str(formulas.c1_value(m))}),
    "c2": (("p", "m"), _c2),
    "main2": (("n", "m"), lambda n, m: {"value": str(formulas.main2_value(n, m))}),
    "main2-lower": (
        ("n", "m"),
        lambda n, m: {"value": _fraction(formulas.main2_lower_bound(n, m))},
    ),
    "f-ratio": (("n", "m"), _f_ratio),
    "stirling": (("n",), _stirling),
}


def formula_report(name: str, **params) -> dict:
    """Evaluate one closed form, full decimal expansion (refused outside
    its domain, and with a parameter it does not take)."""
    if name not in FORMULAS:
        raise InputError(f"unknown formula {name!r}")
    needs, evaluate = FORMULAS[name]
    missing = [f"-{k}" for k in needs if params.get(k) is None]
    if missing:
        raise InputError(f"formula {name} needs {' and '.join(missing)}")
    if any(v is not None and k not in needs for k, v in params.items()):
        raise InputError(f"formula {name} takes {' and '.join(f'-{k}' for k in needs)}")
    out: dict = {"formula": name, "params": {k: params[k] for k in needs}}
    try:
        out.update(evaluate(*(params[k] for k in needs)))
    except ValueError as exc:
        raise InputError(*exc.args) from None
    out["passed"] = True
    return out
