"""End-to-end verification pipelines wiring the modules together.

These back the CLI subcommands and the acceptance suite: exact covering
numbers, one table of wreath theorems (M11 and the PSL(2,p) family, each a
group, a seed set, a two-class family and a closed form) verified by one
runner, constructive covers with serialized certificates, and inequality
sweeps.  Every report is a plain dict of deterministic content, rendered to
canonical JSON by report.py.

Each wreath request derives its unbeatability verdict once, in
``_unbeatability``; the certificate it prints and the bounds
(``unbeat.theorem_bounds``, which also verifies the cover) both read that
one report.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import catalog, formulas
from .cover import build_instance, sigma_exact, sigma_greedy, verify_cover
from .groups import GroupTable, SubgroupClass, class_conjugators
from .lattice import all_subgroup_classes, maximal_classes_from_lattice
from .perm import Perm
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
    EXPLICIT_CAP,
    ProductTypeDescriptor,
    SocleMaximal,
    WreathContext,
    construct_product_cover,
    verify_wreath_cover,
    wreath_cover_upper_term,
)


class PipelineError(RuntimeError):
    pass


@functools.lru_cache(maxsize=None)
def load_group(source: str) -> catalog.CatalogGroup:
    return catalog.load(source)


def parse_target_spec(g: GroupTable, spec: str) -> np.ndarray:
    """Target element sets: ``orders:8,11`` or ``cycle-types:9/3,3,3``
    (types separated by '/', lengths by ',')."""
    kind, _, payload = spec.partition(":")
    if kind == "orders" and payload:
        parts = [int(x) for x in payload.split(",")]
        ids = [g.elements_with_order(k) for k in parts]
        return np.unique(np.concatenate(ids))
    if kind == "cycle-types" and payload:
        out = []
        for t in payload.split("/"):
            lengths = [int(x) for x in t.split(",")]
            out.append(g.elements_with_cycle_type(lengths))
        return np.unique(np.concatenate(out))
    raise PipelineError(f"bad target spec {spec!r} (orders:... or cycle-types:...)")


def _maximal_classes(cg: catalog.CatalogGroup, cache_dir=None) -> list[SubgroupClass]:
    if cg.maximal_classes:
        return cg.maximal_classes
    lattice = all_subgroup_classes(cg.table, cache_dir=cache_dir)
    return maximal_classes_from_lattice(cg.table, lattice)


def sigma_report(
    source: str,
    target_spec: Optional[str] = None,
    method: str = "exact",
    cap: int = 10**4,
    cache_dir=None,
) -> dict:
    """sigma(G) or sigma of a target subset, by branch-and-bound or greedy,
    over the full pool of maximal subgroups."""
    cg = load_group(source)
    g = cg.table
    if g.order > cap:
        raise PipelineError(f"group order {g.order} exceeds cap {cap}")
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
    by_label = cg.classes_by_label()
    missing = [lab for lab in labels if lab not in by_label]
    if missing:
        raise PipelineError(f"unknown class labels {missing}; have {sorted(by_label)}")
    return [by_label[lab] for lab in labels]


def _seed_instance(
    cg: catalog.CatalogGroup,
    seed_spec: str,
    family_labels: Sequence[str],
    m: int,
) -> SeedInstance:
    return SeedInstance(
        S=cg.table,
        seed_ids=parse_target_spec(cg.table, seed_spec),
        seed_classes=_classes_by_labels(cg, family_labels),
        m=m,
        maximal_classes=cg.maximal_classes,
    )


def _unbeatability(
    cg: catalog.CatalogGroup,
    inst: SeedInstance,
    seed_rep: Optional[SeedConditionReport] = None,
    mode: str = "auto",
    cache_dir=None,
) -> UnbeatabilityReport:
    """The one verdict on a request's family: definite unbeatability.  At
    m = 1 the check is explicit in S, its outsider sweep over the subgroup
    lattice (LatticeCapError above the lattice cap).  At m >= 2,
    ``explicit`` enumerates S wr C_m and fails (PipelineError) when
    m * |S|^m exceeds ``EXPLICIT_CAP``, and ``auto`` is explicit while
    m * |S|^m <= 10^7 and symbolic, from the seed conditions, above."""
    m = inst.m
    if m == 1:
        members = inst.members()
        return check_definitely_unbeatable_group(
            cg.table,
            inst.seed_ids,
            [h for _, h in members],
            [lab for lab, _ in members],
            all_classes=all_subgroup_classes(cg.table, cache_dir=cache_dir),
        )
    total = m * cg.table.order**m
    if mode == "explicit" and total > EXPLICIT_CAP:
        raise PipelineError(f"explicit mode needs m*|S|^m = {total} <= {EXPLICIT_CAP}")
    if mode == "explicit" or total <= 10**7:
        return check_definitely_unbeatable_wreath(inst)
    return check_definitely_unbeatable_symbolic(inst, seed_rep)


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
    cache_dir=None,
) -> dict:
    """The full certificate pipeline: seed conditions, then definite
    unbeatability in explicit or symbolic mode."""
    cg = load_group(source)
    inst = _seed_instance(cg, seed_spec, family_labels, m)
    seed_rep = check_seed_conditions(inst)
    du = _unbeatability(cg, inst, seed_rep, mode, cache_dir)
    return _certificate(cg, inst, seed_spec, seed_rep, du)


def wreath_bounds_report(
    source: str,
    seed_spec: str,
    family_labels: Sequence[str],
    m: int,
    cover_labels: Optional[Sequence[str]] = None,
    cache_dir=None,
) -> dict:
    """Lower/upper bounds for sigma(S wr C_m): certified family size vs the
    constructive cover count."""
    cg = load_group(source)
    inst = _seed_instance(cg, seed_spec, family_labels, m)
    cover_classes = (
        _classes_by_labels(cg, cover_labels) if cover_labels else inst.seed_classes
    )
    cover = [h for cls in cover_classes for h in cls.conjugates]
    bounds = theorem_bounds(inst, cover, _unbeatability(cg, inst, cache_dir=cache_dir))
    return {
        "group": cg.spec.name,
        "m": m,
        "family": list(family_labels),
        "cover": list(cover_labels or family_labels),
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
    name = f"PSL(2,{p})"
    if name not in catalog.BUILTIN_SPECS:
        raise PipelineError(f"no built-in catalog for {name}")
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


def theorem_report(thm: Theorem, m: int, cache_dir=None) -> dict:
    """Verify one wreath theorem at m: the seed conditions, the
    unbeatability certificate, the cover of S and the bounds, each computed
    once (a cover that fails raises).  It passes when the lower and upper
    bounds both equal the closed form; the bounds are reported at m >= 2."""
    cg = load_group(thm.group)
    g = cg.table
    if g.order != thm.order:
        raise PipelineError(f"{thm.group} has order {g.order}, expected {thm.order}")
    inst = _seed_instance(cg, thm.seed_spec, list(thm.family), m)
    seed_rep = check_seed_conditions(inst)
    value, warnings = thm.closed_form(m)
    per_class = seed_rep.seed_counts["per_class"]
    counts = {lab: per_class[lab]["per_member"] for lab in thm.family}
    cover = [h for _, h in inst.members()]
    du = _unbeatability(cg, inst, seed_rep, cache_dir=cache_dir)
    bounds = theorem_bounds(inst, cover, du)
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
def m11_report(m: int, cache_dir=None) -> dict:
    return theorem_report(M11_THEOREM, m, cache_dir)


def psl_report(p: int, m: int, cache_dir=None) -> dict:
    return theorem_report(psl_theorem(p), m, cache_dir)


# -- constructive covers and their certificates ---------------------------------


def descriptor_lines(
    cg: catalog.CatalogGroup,
    descriptors: Sequence[ProductTypeDescriptor],
    socle: Sequence[SocleMaximal],
) -> list[str]:
    """Serialize a wreath covering family: one line per member,
    product-type{...} or socle{r}."""
    g = cg.table
    conj_by_class: dict[str, dict[bytes, int]] = {}
    class_of_key: dict[bytes, str] = {}
    for cls in cg.maximal_classes:
        cmap = class_conjugators(g, cls)
        conj_by_class[cls.label] = cmap
        for key in cmap:
            class_of_key[key] = cls.label
    lines = []
    for d in descriptors:
        key = d.M.canonical_key
        label = class_of_key.get(key)
        if label is None:
            raise PipelineError("descriptor subgroup is not in the maximal catalog")
        conj = conj_by_class[label][key]
        cosets = ", ".join(g.perm(c).to_cycle_string() for c in d.cosets)
        lines.append(
            f"product-type{{group={cg.spec.name}, class={label}, "
            f"conj={g.perm(conj).to_cycle_string()}, cosets=[{cosets}]}}"
        )
    for s in socle:
        lines.append(f"socle{{{s.r}}}")
    return lines


# group and class names may hold commas (PSL(2,7)), so the fields are split
# at the literal ", class=", ", conj=" and ", cosets=[" separators
_PRODUCT_RE = re.compile(
    r"product-type\{group=(.+?), class=(.+?), conj=(.+?), cosets=\[(.*)\]\}"
)
_SOCLE_RE = re.compile(r"socle\{(\d+)\}")


def parse_descriptor_lines(
    cg: catalog.CatalogGroup, lines: Sequence[str], m: int
) -> tuple[list[ProductTypeDescriptor], list[SocleMaximal]]:
    g = cg.table
    by_label = cg.classes_by_label()
    descriptors, socle = [], []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        pm = _PRODUCT_RE.fullmatch(line)
        if pm:
            gname, label, conj_str, cosets_str = pm.groups()
            if gname != cg.spec.name:
                raise PipelineError(f"descriptor group {gname} != {cg.spec.name}")
            if label not in by_label:
                raise PipelineError(f"unknown class label {label!r}")
            conj = g.id_of(Perm.from_cycles(conj_str.strip(), g.degree))
            M = by_label[label].representative.conjugate(conj)
            coset_ids = []
            for tok in re.findall(r"\([^)]*\)(?:\([^)]*\))*|\(\)", cosets_str):
                coset_ids.append(g.id_of(Perm.from_cycles(tok, g.degree)))
            if len(coset_ids) != m - 1:
                raise PipelineError(
                    f"descriptor has {len(coset_ids)} cosets, expected {m - 1}"
                )
            descriptors.append(ProductTypeDescriptor.create(M, coset_ids))
            continue
        sm = _SOCLE_RE.fullmatch(line)
        if sm:
            socle.append(SocleMaximal(int(sm.group(1))))
            continue
        raise PipelineError(f"unparseable descriptor line: {line!r}")
    return descriptors, socle


def construct_cover_report(source: str, m: int, cover_method: str = "exact") -> dict:
    """Build the constructive covering family of S wr C_m from a minimal
    (or greedy) cover of S and verify it exhaustively, which needs
    m * |S|^m <= ``EXPLICIT_CAP`` (PipelineError above it)."""
    cg = load_group(source)
    ctx = WreathContext(cg.table, m)
    if not cg.maximal_classes:
        # member lines name catalog classes; fail before the lattice work
        raise PipelineError(
            f"{cg.spec.name} has no catalog maximal classes; covering-family "
            "lines need catalog class labels (give maximal_classes in the "
            "spec file)"
        )
    g = cg.table
    total = m * g.order**m
    if total > EXPLICIT_CAP:
        raise PipelineError(f"cover verification needs m*|S|^m = {total} <= {EXPLICIT_CAP}")
    inst = build_instance(g, cg.maximal_classes)
    cert = sigma_exact(inst) if cover_method == "exact" else sigma_greedy(inst)
    if cert.kind not in ("exact-optimal", "upper-bound"):
        raise PipelineError(f"no covering of {source}: {cert.kind}")
    label_to_handle = dict(zip(inst.labels, inst.handles))
    N = [label_to_handle[lab] for lab in cert.chosen]
    descriptors, socle = construct_product_cover(g, N, m)
    ok, witness = verify_wreath_cover(ctx, descriptors, socle)
    report = {
        "group": cg.spec.name,
        "m": m,
        "base_cover": cert.to_dict(),
        "family_count": len(descriptors) + len(socle),
        "expected_count": wreath_cover_upper_term(N, m),
        "members": descriptor_lines(cg, descriptors, socle),
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
    descriptors, socle = parse_descriptor_lines(cg, member_lines, m)
    ctx = WreathContext(cg.table, m)
    ok, witness = verify_wreath_cover(ctx, descriptors, socle)
    report = {
        "group": cg.spec.name,
        "m": m,
        "members": len(descriptors) + len(socle),
        "covered": ok,
    }
    if witness is not None:
        report["uncovered_witness"] = {"base": list(witness.base), "shift": witness.shift}
    report["passed"] = ok
    return report


def inequality_report(lemma: str, n_range: range, m_range: range) -> dict:
    """One lemma sweep; a sweep in which no case lies is a usage error."""
    try:
        row = formulas.lemma_row(lemma)
    except KeyError as exc:
        raise PipelineError(*exc.args) from None
    report = formulas.inequality_suite(lemma, n_range, m_range)
    if not report.cases_checked:
        where = f"n in {n_range.start}..{n_range.stop - 1}"
        if row.arity == "nm":
            where += f" and m in {m_range.start}..{m_range.stop - 1}"
        raise PipelineError(f"lemma {row.key} has no case with {where}")
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
    """Evaluate one closed form, full decimal expansion."""
    if name not in FORMULAS:
        raise PipelineError(f"unknown formula {name!r}")
    needs, evaluate = FORMULAS[name]
    missing = [f"-{k}" for k in needs if params.get(k) is None]
    if missing:
        raise PipelineError(f"formula {name} needs {' and '.join(missing)}")
    out: dict = {"formula": name, "params": {k: v for k, v in params.items() if v is not None}}
    out.update(evaluate(*(params[k] for k in needs)))
    out["passed"] = True
    return out
