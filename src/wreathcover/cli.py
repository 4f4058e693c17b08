"""Command-line interface.

One command per invocation.  The exit status is 0 when the report passed,
1 when a check failed (the report carries a machine-checkable witness),
and 2 when the input is refused: an argparse error, an ``InputError``
(malformed, unknown, or over a cap), or an ``OSError`` on a named file.
Any other exception is a bug and propagates with its traceback.  Reports
are byte-reproducible for identical inputs regardless of --threads.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import InputError, formulas, pipelines
from .catalog import BUILTIN_NAMES
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


def _construct_cover(args: argparse.Namespace) -> dict:
    report = pipelines.construct_cover_report(args.group, args.m, cover_method=args.cover_method)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(report["members"]) + "\n")
    return report


def _verify_cover(args: argparse.Namespace) -> dict:
    # a bad byte becomes U+FFFD, and its line then fails to parse
    with open(args.family_file, "r", encoding="utf-8", errors="replace") as fh:
        return pipelines.verify_cover_report(args.group, args.m, fh.readlines())


def _status(report: dict) -> int:
    """0 when the report passed, else 1.  A sigma report has no ``passed``
    field: it passes when its certificate is a cover that verified, or the
    target is empty."""
    if "passed" in report:
        return 0 if report["passed"] else 1
    ok = report["certificate"]["kind"] in ("exact-optimal", "upper-bound", "empty")
    return 0 if ok and report.get("verified", True) is not False else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process.  Each subcommand binds ``report`` to
    a function of the parsed arguments that looks its pipeline up at call
    time, so a wrapper put on a ``pipelines`` function later still runs."""
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
        help="subgroup-lattice cache (none unless given); read only by sigma on a spec file without maximal classes",
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
    p.set_defaults(
        method="exact",
        report=lambda a: pipelines.sigma_report(
            a.group, a.target, a.method, cache_dir=a.cache_dir
        ),
    )

    p = add_parser("catalog", help="load and verify a group catalog")
    p.add_argument("group")
    p.set_defaults(report=lambda a: pipelines.catalog_report(a.group))

    p = add_parser("construct-cover", help="build the wreath covering family")
    p.add_argument("group")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--cover-method", choices=("exact", "greedy"), default="exact")
    p.add_argument("--out", default=None, help="write the member lines to a file")
    p.set_defaults(report=_construct_cover)

    p = add_parser("verify-cover", help="verify a serialized covering family")
    p.add_argument("group")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--family-file", required=True)
    p.set_defaults(report=_verify_cover)

    p = add_parser("verify-unbeatable", help="definite-unbeatability certificate")
    p.add_argument("group")
    p.add_argument("--sigma-spec", required=True, help="orders:... or cycle-types:...")
    p.add_argument("--families", required=True, help="comma-separated class labels")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--mode", choices=("auto", "explicit"), default="auto")
    p.set_defaults(
        report=lambda a: pipelines.unbeatable_report(
            a.group, a.sigma_spec, _split_labels(a.families), a.m, a.mode
        )
    )

    p = add_parser("verify-c1", help="the M11 wreath pipeline")
    p.add_argument("-m", type=int, required=True)
    p.set_defaults(report=lambda a: pipelines.m11_report(a.m))

    p = add_parser("verify-c2", help="the PSL(2,p) wreath pipeline")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.set_defaults(report=lambda a: pipelines.psl_report(a.p, a.m))

    p = add_parser("wreath-bounds", help="lower/upper bounds for sigma(S wr C_m)")
    p.add_argument("group")
    p.add_argument("--sigma-spec", required=True)
    p.add_argument("--families", required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--cover", default=None, help="cover class labels (default: families)")
    p.set_defaults(
        report=lambda a: pipelines.wreath_bounds_report(
            a.group, a.sigma_spec, _split_labels(a.families), a.m,
            _split_labels(a.cover) if a.cover else None
        )
    )

    p = add_parser("formula", help="evaluate a closed form, full decimals")
    p.add_argument("name", choices=tuple(pipelines.FORMULAS))
    p.add_argument("-n", type=int, default=None)
    p.add_argument("-m", type=int, default=None)
    p.add_argument("-p", type=int, default=None)
    p.set_defaults(report=lambda a: pipelines.formula_report(a.name, n=a.n, m=a.m, p=a.p))

    p = add_parser("check-inequalities", help="exact range sweep of a lemma")
    p.add_argument("--lemma", required=True, help=f"one of {', '.join(formulas.lemma_ids())} (aliases accepted)")
    p.add_argument("--n-range", type=_parse_range, required=True, metavar="a..b")
    p.add_argument("--m-range", type=_parse_range, default=None, metavar="c..d")
    p.set_defaults(report=lambda a: pipelines.inequality_report(a.lemma, a.n_range, a.m_range))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact integers in a report may pass CPython's 4300-digit str() limit
    sys.set_int_max_str_digits(0)
    for key, value in (("json", False), ("cache_dir", None)):
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        if getattr(args, "m", None) is not None and args.m < 1:
            raise InputError("m >= 1 required")
        report = args.report(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = to_json(report) if args.json else render_human(report)
    sys.stdout.write(out)
    return _status(report)
