"""Span recording from outside the program, for the traced run.

``Tracer.install()`` replaces each public function listed in ``TARGETS``
with a wrapper that records a span (name, start, end, parent, request id,
plus counters taken from the arguments or the result).  The wrapper goes
into every ``wreathcover`` module namespace that holds the function, so
``lattice.subgroup_closure`` is wrapped as well as ``groups.subgroup_closure``.
Hot per-element methods such as ``GroupTable.mul`` are not wrapped.  Spans
stay in memory until ``dump()``.

The traced run is single-threaded: the parent of a span is the innermost
open span.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path


def _grid_rows(args, kwargs) -> int:
    grid = kwargs.get("base_grid", args[2] if len(args) > 2 else None)
    return int(grid.shape[0])


def _cache_listing(args, kwargs) -> list[str]:
    from wreathcover.lattice import cache_directory

    cache_dir = kwargs.get("cache_dir", args[2] if len(args) > 2 else None)
    path = cache_directory(cache_dir)
    return sorted(os.listdir(path)) if path.is_dir() else []


def _lattice_done(rec, args, kwargs, result) -> None:
    # a cold call enumerates the lattice and stores a new cache file; a
    # warm call only reads one
    if _cache_listing(args, kwargs) != rec.pop("listing"):
        rec["name"] = "lattice.enumerate"
        rec["classes"] = len(result)
    else:
        rec["name"] = "lattice.cache_load"


def _nodes(rec, args, kwargs, result) -> None:
    rec["nodes"] = int((result.lower_bound or {}).get("nodes", 0))


# (module, attribute, span name, hook before the call, hook after it)
TARGETS = [
    ("groups", "subgroup_closure", "groups.closure", None,
     lambda rec, a, k, r: rec.update(aborted=r is None)),
    ("groups", "normalizer", "groups.normalizer", None, None),
    ("groups", "GroupTable.from_generators", "groups.from_generators", None, None),
    ("groups", "conjugate_class", "groups.conjugate_class", None, None),
    ("catalog", "load", "catalog.load", None, None),
    ("lattice", "all_subgroup_classes", "lattice.all_subgroup_classes",
     lambda rec, a, k: rec.update(listing=_cache_listing(a, k)), _lattice_done),
    ("lattice", "maximal_classes_from_lattice", "lattice.maximal", None, None),
    ("cover", "build_instance", "cover.build_instance", None, None),
    ("cover", "sigma_exact", "cover.sigma_exact", None, _nodes),
    ("cover", "sigma_greedy", "cover.sigma_greedy", None, None),
    ("wreath", "construct_product_cover", "wreath.construct", None, None),
    ("wreath", "verify_wreath_cover", "wreath.verify_cover", None, None),
    ("wreath", "product_type_mask", "wreath.mask",
     lambda rec, a, k: rec.update(rows=_grid_rows(a, k)), None),
    ("unbeat", "check_definitely_unbeatable_wreath", "unbeat.explicit_wreath", None,
     lambda rec, a, k, r: rec.update(target_size=int(r.target_size or 0))),
    ("unbeat", "check_definitely_unbeatable_group", "unbeat.explicit_group", None, None),
    ("unbeat", "check_seed_conditions", "unbeat.seed_conditions", None, None),
    ("unbeat", "check_definitely_unbeatable_symbolic", "unbeat.symbolic", None, None),
    ("unbeat", "theorem_bounds", "unbeat.theorem_bounds", None, None),
    ("formulas", "inequality_suite", "formulas.inequality", None,
     lambda rec, a, k, r: rec.update(cases=int(r.cases_checked))),
    ("pipelines", "descriptor_lines", "pipelines.descriptor_lines", None, None),
    ("report", "to_json", "report.to_json", None,
     lambda rec, a, k, r: rec.update(bytes=len(r.encode("utf-8")))),
] + [
    ("pipelines", name, "pipelines.report", None, None)
    for name in (
        "sigma_report", "unbeatable_report", "wreath_bounds_report", "m11_report",
        "psl_report", "construct_cover_report", "verify_cover_report",
        "inequality_report", "formula_report",
    )
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.request = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, before, after):
        def traced(*args, **kwargs):
            rec = {"name": name, "parent": self._stack[-1] if self._stack else None,
                   "request": self.request}
            if before:
                before(rec, args, kwargs)
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
            if after:
                after(rec, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("wreathcover.")]
        for mod_name, attr, name, before, after in TARGETS:
            home = sys.modules[f"wreathcover.{mod_name}"]
            if "." in attr:  # a classmethod
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, classmethod(self._wrap(name, orig.__func__, before, after)))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(name, orig, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _self_time(spans: list[dict], idx: int, children: dict[int, list[int]]) -> float:
    rec = spans[idx]
    inner = sum(spans[c]["end"] - spans[c]["start"] for c in children.get(idx, ()))
    return rec["end"] - rec["start"] - inner


def layer_metrics(spans: list[dict], requests: list[str]) -> dict[str, float]:
    """Per-layer totals over the spans of the given request ids."""
    wanted = set(requests)
    children: dict[int, list[int]] = {}
    for i, rec in enumerate(spans):
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append(i)
    time_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    count: dict[str, int] = {}
    pipeline_self = 0.0
    for i, rec in enumerate(spans):
        if rec["request"] not in wanted:
            continue
        name = rec["name"]
        time_s[name] = time_s.get(name, 0.0) + rec["end"] - rec["start"]
        calls[name] = calls.get(name, 0) + 1
        for key in ("nodes", "rows", "classes", "cases", "bytes", "target_size"):
            if key in rec:
                count[key] = count.get(key, 0) + rec[key]
        if rec.get("aborted"):
            count["aborted"] = count.get("aborted", 0) + 1
        if name == "pipelines.report":
            pipeline_self += _self_time(spans, i, children)

    def t(name):
        return time_s.get(name, 0.0)

    def rate(num, name):
        return num / t(name) if t(name) > 0 else 0.0

    closure_calls = calls.get("groups.closure", 0)
    return {
        "groups.closure_calls": closure_calls,
        "groups.closure_s": t("groups.closure"),
        "groups.closure_abort_ratio": count.get("aborted", 0) / closure_calls if closure_calls else 0.0,
        "groups.normalizer_calls": calls.get("groups.normalizer", 0),
        "groups.normalizer_s": t("groups.normalizer"),
        "groups.from_generators_s": t("groups.from_generators"),
        "groups.conjugate_class_s": t("groups.conjugate_class"),
        "catalog.load_s": t("catalog.load"),
        "lattice.enumerate_s": t("lattice.enumerate"),
        "lattice.classes": count.get("classes", 0),
        "lattice.maximal_s": t("lattice.maximal"),
        "lattice.cache_load_s": t("lattice.cache_load"),
        "cover.build_instance_s": t("cover.build_instance"),
        "cover.sigma_exact_s": t("cover.sigma_exact"),
        "cover.bnb_nodes": count.get("nodes", 0),
        "cover.nodes_per_s": rate(count.get("nodes", 0), "cover.sigma_exact"),
        "cover.sigma_greedy_s": t("cover.sigma_greedy"),
        "wreath.construct_s": t("wreath.construct"),
        "wreath.verify_cover_s": t("wreath.verify_cover"),
        "wreath.mask_calls": calls.get("wreath.mask", 0),
        "wreath.mask_rows": count.get("rows", 0),
        "wreath.mask_rows_per_s": rate(count.get("rows", 0), "wreath.mask"),
        "unbeat.explicit_wreath_s": t("unbeat.explicit_wreath"),
        "unbeat.target_size": count.get("target_size", 0),
        "unbeat.explicit_group_s": t("unbeat.explicit_group"),
        "unbeat.seed_conditions_s": t("unbeat.seed_conditions"),
        "unbeat.symbolic_s": t("unbeat.symbolic"),
        "unbeat.theorem_bounds_s": t("unbeat.theorem_bounds"),
        "formulas.inequality_s": t("formulas.inequality"),
        "formulas.cases_checked": count.get("cases", 0),
        "pipelines.self_s": pipeline_self,
        "pipelines.descriptor_lines_s": t("pipelines.descriptor_lines"),
        "report.to_json_s": t("report.to_json"),
        "report.bytes": count.get("bytes", 0),
    }


# metrics of set-up work, taken from the traced set-up instead of the passes
SETUP_METRICS = ("groups.from_generators_s", "groups.conjugate_class_s", "catalog.load_s")


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
