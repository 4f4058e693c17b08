"""Command-line interface.

One command per invocation; exit 0 on success/pass, 1 on a verification
failure (the report carries a machine-checkable witness), 2 on usage or
resource errors.  Reports are byte-reproducible for identical inputs
regardless of --threads.
"""

from __future__ import annotations

import argparse
import sys

from . import formulas, pipelines
from .catalog import BUILTIN_NAMES, CatalogError
from .cover import CoverCapError
from .groups import ClosureBudgetError
from .lattice import LatticeCapError
from .report import render_human, to_json


def _parse_range(text: str) -> range:
    lo, _, hi = text.partition("..")
    if not hi:
        raise argparse.ArgumentTypeError(f"range must be a..b, got {text!r}")
    return range(int(lo), int(hi) + 1)


def _split_labels(text: str) -> list[str]:
    """Split a comma-separated label list, ignoring commas inside parens
    (labels like PSL(2,11) stay whole)."""
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur.append(ch)
    if cur:
        out.append("".join(cur).strip())
    return [x for x in out if x]


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subparser from clobbering a flag given before the
    # subcommand; missing attributes get defaults in main()
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit canonical JSON",
    )
    common.add_argument(
        "--threads",
        type=int,
        default=argparse.SUPPRESS,
        help="accepted for compatibility; changes neither the work nor the output",
    )
    common.add_argument(
        "--cache-dir",
        default=argparse.SUPPRESS,
        help="subgroup-lattice cache directory",
    )
    parser = argparse.ArgumentParser(
        prog="wreathcover",
        parents=[common],
        description=(
            "Covering numbers of finite simple groups and their wreath "
            "products with cyclic groups, with exact certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("sigma", help="minimal cover of a group or target subset")
    p.add_argument("group", help=f"built-in name ({', '.join(BUILTIN_NAMES)}) or spec file")
    p.add_argument("--target", default=None, help="orders:8,11 or cycle-types:9/3,3,3")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="method", action="store_const", const="exact")
    mode.add_argument("--greedy", dest="method", action="store_const", const="greedy")
    p.set_defaults(method="exact")
    p.add_argument("--cap", type=int, default=10**4, help="group order cap")

    p = add_parser("catalog", help="load and verify a group catalog")
    p.add_argument("group")

    p = add_parser("construct-cover", help="build the wreath covering family")
    p.add_argument("group")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--cover-method", choices=("exact", "greedy"), default="exact")
    p.add_argument("--out", default=None, help="write the member lines to a file")

    p = add_parser("verify-cover", help="verify a serialized covering family")
    p.add_argument("group")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--family-file", required=True)

    p = add_parser("verify-unbeatable", help="definite-unbeatability certificate")
    p.add_argument("group")
    p.add_argument("--sigma-spec", required=True, help="orders:... or cycle-types:...")
    p.add_argument("--families", required=True, help="comma-separated class labels")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--mode", choices=("auto", "explicit"), default="auto")

    p = add_parser("verify-c1", help="the M11 wreath pipeline")
    p.add_argument("-m", type=int, required=True)

    p = add_parser("verify-c2", help="the PSL(2,p) wreath pipeline")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-m", type=int, required=True)

    p = add_parser("wreath-bounds", help="lower/upper bounds for sigma(S wr C_m)")
    p.add_argument("group")
    p.add_argument("--sigma-spec", required=True)
    p.add_argument("--families", required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--cover", default=None, help="cover class labels (default: families)")

    p = add_parser("formula", help="evaluate a closed form, full decimals")
    p.add_argument("name", choices=tuple(pipelines.FORMULAS))
    p.add_argument("-n", type=int, default=None)
    p.add_argument("-m", type=int, default=None)
    p.add_argument("-p", type=int, default=None)

    p = add_parser("check-inequalities", help="exact range sweep of a lemma")
    p.add_argument("--lemma", required=True, help=f"one of {', '.join(formulas.lemma_ids())} (aliases accepted)")
    p.add_argument("--n-range", type=_parse_range, required=True, metavar="a..b")
    p.add_argument("--m-range", type=_parse_range, default=formulas.M_RANGE, metavar="c..d")

    return parser


def run(args: argparse.Namespace) -> tuple[dict, int]:
    cmd = args.command
    if cmd == "sigma":
        report = pipelines.sigma_report(
            args.group, args.target, args.method, args.cap, cache_dir=args.cache_dir
        )
        ok = report["certificate"]["kind"] in ("exact-optimal", "upper-bound", "empty")
        ok = ok and report.get("verified", True) is not False
        return report, 0 if ok else 1
    if cmd == "catalog":
        cg = pipelines.load_group(args.group)
        report = {
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
        return report, 0
    if cmd == "construct-cover":
        report = pipelines.construct_cover_report(
            args.group, args.m, cover_method=args.cover_method
        )
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write("\n".join(report["members"]) + "\n")
        return report, 0 if report["passed"] else 1
    if cmd == "verify-cover":
        with open(args.family_file, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        report = pipelines.verify_cover_report(args.group, args.m, lines)
        return report, 0 if report["passed"] else 1
    if cmd == "verify-unbeatable":
        report = pipelines.unbeatable_report(
            args.group,
            args.sigma_spec,
            _split_labels(args.families),
            args.m,
            mode=args.mode,
            cache_dir=args.cache_dir,
        )
        return report, 0 if report["passed"] else 1
    if cmd == "verify-c1":
        report = pipelines.m11_report(args.m, cache_dir=args.cache_dir)
        return report, 0 if report["passed"] else 1
    if cmd == "verify-c2":
        report = pipelines.psl_report(args.p, args.m, cache_dir=args.cache_dir)
        return report, 0 if report["passed"] else 1
    if cmd == "wreath-bounds":
        report = pipelines.wreath_bounds_report(
            args.group,
            args.sigma_spec,
            _split_labels(args.families),
            args.m,
            cover_labels=_split_labels(args.cover) if args.cover else None,
            cache_dir=args.cache_dir,
        )
        return report, 0 if report["passed"] else 1
    if cmd == "formula":
        report = pipelines.formula_report(args.name, n=args.n, m=args.m, p=args.p)
        return report, 0
    if cmd == "check-inequalities":
        report = pipelines.inequality_report(args.lemma, args.n_range, args.m_range)
        return report, 0 if report["passed"] else 1
    raise AssertionError(f"unhandled command {cmd}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for key, value in (("json", False), ("threads", 1), ("cache_dir", None)):
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        report, status = run(args)
    except (
        CatalogError,
        pipelines.PipelineError,
        LatticeCapError,
        ClosureBudgetError,
        CoverCapError,
        FileNotFoundError,
        KeyError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = to_json(report) if args.json else render_human(report)
    sys.stdout.write(out)
    return status


if __name__ == "__main__":
    sys.exit(main())
