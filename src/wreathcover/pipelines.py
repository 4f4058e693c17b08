"""End-to-end verification pipelines wiring the modules together.

These back the CLI subcommands and the acceptance suite: group data
reproduction, exact covering numbers, wreath covering-number pipelines for
the Mathieu group and the PSL(2,p) family, constructive covers with
serialized certificates, and inequality sweeps.  Every report is a plain
dict of deterministic content, rendered to canonical JSON by report.py.
"""

from __future__ import annotations

import functools
import re
from typing import Optional, Sequence

import numpy as np

from . import catalog, formulas
from .cover import (
    CoverCertificate,
    build_instance,
    sigma_exact,
    sigma_greedy,
    verify_cover_handles,
)
from .groups import GroupTable, SubgroupClass, class_conjugators
from .lattice import LatticeCapError, all_subgroup_classes, maximal_classes_from_lattice
from .perm import Perm
from .unbeat import (
    SeedInstance,
    check_definitely_unbeatable_group,
    check_definitely_unbeatable_symbolic,
    check_definitely_unbeatable_wreath,
    check_seed_conditions,
    build_target_family,
    theorem_bounds,
)
from .wreath import (
    ProductTypeDescriptor,
    SocleMaximal,
    WreathContext,
    construct_product_cover,
    socle_maximals,
    verify_wreath_cover,
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
        from .cover import verify_cover

        ok, witness = verify_cover(inst, cert.chosen)
        report["verified"] = ok
        if not ok:
            report["uncovered_witness"] = witness
    return report


# -- wreath covering-number pipelines -----------------------------------------


def _seed_instance(
    cg: catalog.CatalogGroup,
    seed_spec: str,
    family_labels: Sequence[str],
    m: int,
) -> SeedInstance:
    g = cg.table
    by_label = cg.classes_by_label()
    missing = [lab for lab in family_labels if lab not in by_label]
    if missing:
        raise PipelineError(f"unknown class labels {missing}; have {sorted(by_label)}")
    return SeedInstance(
        S=g,
        seed_ids=parse_target_spec(g, seed_spec),
        seed_classes=[by_label[lab] for lab in family_labels],
        m=m,
        maximal_classes=cg.maximal_classes,
    )


def unbeatable_report(
    source: str,
    seed_spec: str,
    family_labels: Sequence[str],
    m: int,
    mode: str = "auto",
    explicit_cap: int = 10**8,
    cache_dir=None,
) -> dict:
    """The full certificate pipeline: seed conditions, then definite
    unbeatability in explicit or symbolic mode."""
    cg = load_group(source)
    inst = _seed_instance(cg, seed_spec, family_labels, m)
    report: dict = {
        "group": cg.spec.name,
        "m": m,
        "seed": seed_spec,
        "family": list(family_labels),
    }
    seed_rep = check_seed_conditions(inst)
    report["seed_conditions"] = seed_rep.to_dict()
    if m == 1:
        members = [h for cls in inst.seed_classes for h in cls.conjugates]
        labels = [
            f"{cls.label}[{i}]"
            for cls in inst.seed_classes
            for i in range(cls.class_size)
        ]
        try:
            lattice = all_subgroup_classes(cg.table, cache_dir=cache_dir)
        except LatticeCapError:
            lattice = None
        du = check_definitely_unbeatable_group(
            cg.table,
            inst.seed_ids,
            members,
            labels,
            all_classes=lattice,
            maximal_classes=cg.maximal_classes,
        )
    else:
        total = m * cg.table.order**m
        use_explicit = mode == "explicit" or (mode == "auto" and total <= 10**7)
        if use_explicit and total <= explicit_cap:
            du = check_definitely_unbeatable_wreath(inst, element_cap=explicit_cap)
        else:
            du = check_definitely_unbeatable_symbolic(inst, seed_rep)
    report["unbeatability"] = du.to_dict()
    report["passed"] = du.passed
    return report


def wreath_bounds_report(
    source: str,
    seed_spec: str,
    family_labels: Sequence[str],
    m: int,
    cover_labels: Optional[Sequence[str]] = None,
) -> dict:
    """Lower/upper bounds for sigma(S wr C_m): certified family size vs the
    constructive cover count."""
    cg = load_group(source)
    inst = _seed_instance(cg, seed_spec, family_labels, m)
    by_label = cg.classes_by_label()
    cover_classes = (
        [by_label[lab] for lab in cover_labels] if cover_labels else inst.seed_classes
    )
    cover = [h for cls in cover_classes for h in cls.conjugates]
    bounds = theorem_bounds(inst, cover)
    return {
        "group": cg.spec.name,
        "m": m,
        "family": list(family_labels),
        "cover": list(cover_labels or family_labels),
        "bounds": bounds.to_dict(),
        "passed": bounds.lower > 0 and bounds.lower <= bounds.upper,
    }


def m11_report(m: int, cache_dir=None) -> dict:
    """The Mathieu-group pipeline: catalog data reproduction plus the exact
    covering number of M11 wr C_m = alpha(m) + 11^m + 12^m."""
    cg = load_group("M11")
    g = cg.table
    report: dict = {"group": "M11", "m": m, "order": g.order}
    assert g.order == 7920

    o8 = g.elements_with_order(8)
    o11 = g.elements_with_order(11)
    per_class = {}
    for cls in cg.maximal_classes:
        rep = cls.representative
        per_class[cls.label] = {
            "order": cls.order,
            "class_size": cls.class_size,
            "order8_per_member": int(np.isin(o8, rep.member_ids).sum()),
            "order11_per_member": int(np.isin(o11, rep.member_ids).sum()),
        }
    report["maximal_classes"] = per_class

    def exactly_once(cls_label: str, element_ids: np.ndarray) -> bool:
        cls = cg.classes_by_label()[cls_label]
        total = 0
        union: set[int] = set()
        for h in cls.conjugates:
            hit = element_ids[np.isin(element_ids, h.member_ids)]
            total += int(hit.shape[0])
            union.update(int(x) for x in hit.tolist())
        return total == len(union) == element_ids.shape[0]

    report["order8_unique_to_one_M10"] = exactly_once("M10", o8)
    report["order11_unique_to_one_PSL"] = exactly_once("PSL(2,11)", o11)

    ub = unbeatable_report(
        "M11", "orders:8,11", ["M10", "PSL(2,11)"], m, cache_dir=cache_dir
    )
    report["certificate"] = ub

    value = formulas.c1_value(m)
    report["formula_value"] = str(value)
    if m == 1:
        cover = [
            h
            for lab in ("M10", "PSL(2,11)")
            for h in cg.classes_by_label()[lab].conjugates
        ]
        ok, missing = verify_cover_handles(g, cover)
        report["cover_verified"] = ok
        lower = ub["unbeatability"].get("certified_lower_bound")
        report["passed"] = (
            ok
            and lower is not None
            and int(lower) == len(cover) == value
            and report["order8_unique_to_one_M10"]
            and report["order11_unique_to_one_PSL"]
        )
    else:
        bounds = wreath_bounds_report("M11", "orders:8,11", ["M10", "PSL(2,11)"], m)
        report["bounds"] = bounds["bounds"]
        report["passed"] = (
            ub["passed"]
            and int(bounds["bounds"]["lower"]) == value
            and int(bounds["bounds"]["upper"]) == value
            and report["order8_unique_to_one_M10"]
            and report["order11_unique_to_one_PSL"]
        )
    return report


def psl_report(p: int, m: int, cache_dir=None) -> dict:
    """The PSL(2,p) pipeline: alpha(m) + (p+1)^m + (p(p-1)/2)^m with the
    point-stabilizer and dihedral families."""
    name = f"PSL(2,{p})"
    if name not in catalog.BUILTIN_SPECS:
        raise PipelineError(f"no built-in catalog for {name}")
    cg = load_group(name)
    g = cg.table
    assert g.order == p * (p * p - 1) // 2
    borel = f"{p}:{(p - 1) // 2}"
    dihedral = f"D{p + 1}"
    family = [borel, dihedral]
    seed_spec = f"orders:{p},{(p + 1) // 2}"
    value, warnings = formulas.c2_value(p, m)
    report: dict = {
        "group": name,
        "m": m,
        "order": g.order,
        "formula_value": str(value),
        "warnings": warnings,
    }
    inst = _seed_instance(cg, seed_spec, family, m)
    counts = {
        cls.label: int(np.isin(inst.seed_ids, cls.representative.member_ids).sum())
        for cls in inst.seed_classes
    }
    report["seed_per_member"] = counts
    report["expected_seed_per_member"] = {
        borel: p - 1,
        dihedral: formulas.euler_phi((p + 1) // 2),
    }

    cover = [h for cls in inst.seed_classes for h in cls.conjugates]
    ok, missing = verify_cover_handles(g, cover)
    report["cover_verified"] = ok

    ub = unbeatable_report(name, seed_spec, family, m, cache_dir=cache_dir)
    report["certificate"] = ub
    if m == 1:
        lower = ub["unbeatability"].get("certified_lower_bound")
        report["passed"] = ok and lower is not None and int(lower) == len(cover) == value
    else:
        bounds = wreath_bounds_report(name, seed_spec, family, m)
        report["bounds"] = bounds["bounds"]
        report["passed"] = (
            ok
            and ub["passed"]
            and counts == report["expected_seed_per_member"]
            and int(bounds["bounds"]["lower"]) == value
            and int(bounds["bounds"]["upper"]) == value
        )
    return report


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


def construct_cover_report(
    source: str,
    m: int,
    cover_method: str = "exact",
    verify: bool = True,
    element_cap: int = 10**8,
) -> dict:
    """Build the constructive covering family of S wr C_m from a minimal
    (or greedy) cover of S; verify exhaustively at desk scale."""
    cg = load_group(source)
    if not cg.maximal_classes:
        # member lines name catalog classes; fail before the lattice work
        raise PipelineError(
            f"{cg.spec.name} has no catalog maximal classes; covering-family "
            "lines need catalog class labels (give maximal_classes in the "
            "spec file)"
        )
    g = cg.table
    inst = build_instance(g, cg.maximal_classes)
    cert = sigma_exact(inst) if cover_method == "exact" else sigma_greedy(inst)
    if cert.kind not in ("exact-optimal", "upper-bound"):
        raise PipelineError(f"no covering of {source}: {cert.kind}")
    label_to_handle = dict(zip(inst.labels, inst.handles))
    N = [label_to_handle[lab] for lab in cert.chosen]
    descriptors, socle = construct_product_cover(g, N, m)
    report = {
        "group": cg.spec.name,
        "m": m,
        "base_cover": cert.to_dict(),
        "family_count": len(descriptors) + len(socle),
        "expected_count": formulas.alpha(m) + sum(h.index ** (m - 1) for h in N),
        "members": descriptor_lines(cg, descriptors, socle),
    }
    total = m * g.order**m
    if verify and total <= element_cap and m >= 1:
        ctx = WreathContext(g, m)
        ok, witness = verify_wreath_cover(ctx, descriptors, socle, element_cap=element_cap)
        report["verified"] = ok
        if witness is not None:
            report["uncovered_witness"] = {
                "base": list(witness.base),
                "shift": witness.shift,
            }
    else:
        report["verified"] = None
    report["passed"] = report["family_count"] == report["expected_count"] and (
        report["verified"] is not False
    )
    return report


def verify_cover_report(
    source: str,
    m: int,
    member_lines: Sequence[str],
    element_cap: int = 10**8,
) -> dict:
    """Check a serialized wreath covering family against every element."""
    cg = load_group(source)
    descriptors, socle = parse_descriptor_lines(cg, member_lines, m)
    ctx = WreathContext(cg.table, m)
    ok, witness = verify_wreath_cover(ctx, descriptors, socle, element_cap=element_cap)
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


def inequality_report(lemma: str, n_range, m_range=(2, 3, 4, 5)) -> dict:
    rep = formulas.inequality_suite(lemma, n_range, m_range)
    out = rep.to_dict()
    out["passed"] = rep.passed
    return out


def formula_report(name: str, **params) -> dict:
    """Evaluate one closed form, full decimal expansion."""
    out: dict = {"formula": name, "params": {k: v for k, v in params.items() if v is not None}}
    n, m, p = params.get("n"), params.get("m"), params.get("p")
    if name == "alpha":
        out["value"] = str(formulas.alpha(m))
    elif name == "c1":
        out["value"] = str(formulas.c1_value(m))
    elif name == "c2":
        value, warnings = formulas.c2_value(p, m)
        out["value"] = str(value)
        out["warnings"] = warnings
    elif name == "main2":
        out["value"] = str(formulas.main2_value(n, m))
    elif name == "main2-lower":
        v = formulas.main2_lower_bound(n, m)
        out["value"] = f"{v.numerator}/{v.denominator}"
    elif name == "f-ratio":
        v = formulas.f_ratio(n, m)
        out["value"] = f"{v.numerator}/{v.denominator}"
        out["value_float"] = float(v)
    elif name == "stirling":
        lo, hi = formulas.stirling_bounds(n)
        out["lower"] = f"{lo.numerator}/{lo.denominator}"
        out["upper"] = f"{hi.numerator}/{hi.denominator}"
    else:
        raise PipelineError(f"unknown formula {name!r}")
    out["passed"] = True
    return out
