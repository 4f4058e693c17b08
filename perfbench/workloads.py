"""The four benchmark workloads, generated from a seed.

Every workload is a closed loop: one client sends one request at a time
through ``wreathcover.cli.main`` and waits for the report before sending the
next.  A pass is one run over the workload's request list; the list is fixed
for a seed, so every pass repeats the same requests.  The program sees only
the argv lists built here (plus the spec and family files they name).

Every request of a timed pass takes about 0.1 s or less, so a 10 s run
holds 20 to 65 samples of each.  Longer requests (the lattices of
PSL(2,11) and A7, ``sigma A6 --exact``, ``sigma PSL(2,13) --exact --target
orders:6``, the A5 wr C_3 family and its pinned verdict) are probes: the
traced run (``--trace 1``) runs each once, gates it and checks its pinned
count, and the timed runs leave them out.  On a shared 2-core host even
the fastest of dozens of runs of a 0.3 s request still follows the host's
slow spells: over five seeds run back to back, the quartile spread of
solve_s was 0.12 to 0.18 of its median with the multi-second requests,
0.08 to 0.15 with the 0.3 s ones, and 0.03 to 0.05 without them.

Why each workload exists:

* ``lattice``: ``sigma <spec> --greedy`` on A5, S5 and PSL(2,7) (probes:
  PSL(2,11) and A7) given as spec files without maximal classes, each from
  an empty cache directory, so each request enumerates its group's subgroup
  lattice (9, 19, 15; probes 16 and 40 classes) and derives the maximal
  classes from it.
  Subgroup closure, normalizer and lattice joins do almost all the work;
  exact cover and wreath code do none.  The seed relabels every group's
  points.
* ``bnb``: ``sigma --exact`` on every built-in group (probe: A6) plus seeded
  ``--target`` subsets from ``bnb_targets.json``, whose alternatives take
  the same search, so every seed does the same B&B work.  Branch-and-bound
  does almost all the work; the lattice does none, because the catalog's
  maximal classes are used.
* ``wreath``: constructive covers of A5 wr C_2, A6 wr C_2 (greedy base) and
  PSL(2,7) wr C_2, re-verification of the A5 family file, and explicit
  unbeatability of A5 wr C_2 with a pinned failing verdict; the probes do
  the same for A5 wr C_3 (317 members, the verdict pinned by ROADMAP.md).
  ``product_type_mask`` over |S|^m grids does the work; the lattice does none
  and branch-and-bound little.
* ``theorems``: the M11 and PSL(2,p) pipelines for seeded m, wreath bounds,
  every lemma sweep over the ranges the test suite pins, closed forms, and
  ``verify-c1 -m 1`` against a warm M11 lattice cache, filled once per run
  before the timed set-ups.
  Symbolic mode, closed forms and cache reads: the same unbeat, lattice and
  pipeline code as ``wreath`` and ``lattice``, used differently, so work
  moved from assumption into computation, or cache verification, shows here.

Menu exclusions, all measured on a 2-core x86 box with Python 3.11:

* ``verify-c2 -p 13 -m 2`` takes 296 s: auto mode picks explicit, and U4
  fails because m = 2 is outside the theorem.
* ``construct-cover PSL(2,7) -m 3`` takes 223 s.
* ``verify-c2 -p 7`` exits 2 with ``error: 'D8'``, because the PSL(2,7)
  catalog has no D8 class (a defect of the program, left as it is).
* ``verify-c2 -p 11 -m 1`` fails U4: the order-11 cyclic outsider meets 10
  seed elements against D12's 2.
* ``formula main2`` requires n = 2 (mod 4); other n exit 2.
* ``sigma A7 --exact`` hits the branch-and-bound node cap.
* ``verify-c1 -m 1`` from a cold cache (M11's lattice, about 11 s) is
  neither a ``lattice`` request nor a probe: it is too long for the first
  and would double the traced run for the second.  M11's lattice is still
  enumerated once per ``theorems`` run, and its time is printed there.
* ``sigma --greedy`` on A6 or S6 spec files derives maximal classes from
  the lattice whose greedy cover does not verify (``verified: false``,
  with an uncovered witness), so they are not ``lattice`` requests (a
  defect of the program, left as it is).
* ``verify-cover`` of the A6 family exits 2: ``parse_descriptor_lines``
  cannot read ``class=PSL(2,5)``, whose label holds a comma (a defect of the
  program, left as it is).  Only the A5 family file is re-verified.
* ``sigma --target`` subsets whose search takes more than about 0.1 s are
  left out of the menu: PSL(2,11) ``orders:2`` (402,234 nodes) and
  ``orders:5``, M11 ``orders:3`` and ``orders:5`` (0.5 to 1.7 s each);
  PSL(2,13) ``orders:2`` and ``orders:3`` and M11 ``orders:2`` exit 2 at
  the node cap.  PSL(2,13) ``orders:6`` (79,915 nodes, 0.28 s) is a probe.

Deterministic counts that the traced run reproduces, from the re-anchor in
ROADMAP.md, are pinned on their requests (``Request.pin``): 554,032 B&B nodes
for ``sigma A6 --exact``, 70 for ``sigma M11 --exact``, and 40 lattice classes
for A7; the other lattice groups pin their known class counts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("lattice", "bnb", "wreath", "theorems")

# group -> B&B nodes of its full sigma --exact, pinned for the traced run
PINNED_NODES = {"A6": 554_032, "M11": 70}

# m with smallest prime factor >= 5, where the PSL(2,p) theorem applies
SPF5_M = [m for m in range(5, 50) if all(m % q for q in (2, 3))]


@dataclass
class Request:
    """One CLI call and what the gate expects of its report."""

    argv: list[str]
    check: str
    expect: dict = field(default_factory=dict)
    cold_cache: bool = False  # empty the cache directory before every call
    pin: tuple[str, int] | None = None  # (per-layer counter, value) the trace must show
    label: str = ""


@dataclass
class Workload:
    name: str
    requests: list[Request]
    groups: list[str]  # catalog groups (or spec files) set-up loads
    fill_lattice: list[str] = field(default_factory=list)  # set-up lattice fills
    # requests of several seconds each, run once per traced run only: a
    # timed run fits too few of them to read through a shared host's slow
    # spells, but their pinned counts and verdicts must still hold
    probes: list[Request] = field(default_factory=list)


def build(name: str, seed: int, tmp: Path) -> Workload:
    """The request list for one workload and seed; ``tmp`` receives the spec
    and family files that the requests read or write."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; have {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    workload = globals()[f"_{name}"](rng, tmp)
    prefix = f"{tmp}/"
    for req in workload.requests + workload.probes:
        req.label = " ".join(word.replace(prefix, "") for word in req.argv)
    return workload


# cold lattices: (name, degree, generators as lists of cycles, subgroup
# classes)
LATTICE_GROUPS = [
    ("A5", 5, [[(1, 2, 3, 4, 5)], [(1, 2, 3)]], 9),
    ("S5", 5, [[(1, 2, 3, 4, 5)], [(1, 2)]], 19),
    ("PSL(2,7)", 7, [[(1, 2, 3, 4, 5, 6, 7)], [(1, 2), (3, 6)]], 15),
    ("PSL(2,11)", 12, [[tuple(range(1, 12))], [(1, 12), (2, 11), (3, 6), (4, 8), (5, 9), (7, 10)]], 16),
    ("A7", 7, [[(1, 2, 3, 4, 5, 6, 7)], [(1, 2, 3)]], 40),
]
# the lattice probes: PSL(2,11) takes about 0.33 s, A7 about 3.3 s
LATTICE_PROBES = ("PSL(2,11)", "A7")


def _lattice(rng: random.Random, tmp: Path) -> Workload:
    requests, probes, specs = [], [], []
    for name, degree, gens, classes in LATTICE_GROUPS:
        points = list(range(1, degree + 1))
        rng.shuffle(points)
        cycles = [
            "".join("(" + " ".join(str(points[x - 1]) for x in cycle) + ")" for cycle in gen)
            for gen in gens
        ]
        spec = tmp / f"{name}.yaml"
        spec.write_text(f"name: {name}\ndegree: {degree}\ngenerators: {json.dumps(cycles)}\n")
        req = Request(
            ["sigma", str(spec), "--greedy"],
            "sigma_greedy",
            {"group": name},
            cold_cache=True,
            pin=("lattice.classes", classes),
        )
        if name in LATTICE_PROBES:
            probes.append(req)
        else:
            requests.append(req)
            specs.append(str(spec))
    rng.shuffle(requests)
    return Workload("lattice", requests, specs, probes=probes)


def load_bnb_targets() -> dict:
    """``choices``: lists of equal-search targets, one taken per pass;
    ``probes``: targets run once per traced run."""
    with open(HERE / "bnb_targets.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _target(entry: dict) -> Request:
    return Request(
        ["sigma", entry["group"], "--exact", "--target", entry["target"]],
        "sigma_exact",
        {"group": entry["group"], "sigma": entry["sigma"]},
    )


def _bnb(rng: random.Random, tmp: Path) -> Workload:
    groups = ["A5", "PSL(2,7)", "A6", "PSL(2,11)", "PSL(2,13)", "M11"]
    requests = [
        Request(
            ["sigma", g, "--exact"],
            "sigma_exact",
            {"group": g},
            pin=("cover.bnb_nodes", PINNED_NODES[g]) if g in PINNED_NODES else None,
        )
        for g in groups
    ]
    # sigma A6 --exact (554,032 nodes, about 2 s) is a probe
    probes = [requests.pop(groups.index("A6"))]
    menu = load_bnb_targets()
    requests += [_target(rng.choice(choice)) for choice in menu["choices"]]
    probes += [_target(entry) for entry in menu["probes"]]
    rng.shuffle(requests)
    return Workload("bnb", requests, groups, probes=probes)


# the wreath workload's constructive covers: (group, m, base cover method)
WREATH_FAMILIES = [("A5", 2, "exact"), ("A6", 2, "greedy"), ("PSL(2,7)", 2, "exact")]


def _construct(group: str, m: int, method: str, out: Path | None = None) -> Request:
    argv = ["construct-cover", group, "-m", str(m)]
    if method != "exact":
        argv += ["--cover-method", method]
    if out:
        argv += ["--out", str(out)]
    return Request(argv, "construct_cover", {"group": group, "m": m, "method": method})


def _a5_checks(m: int, family: Path) -> list[Request]:
    """Re-verify the A5 wr C_m family file, and explicit unbeatability of
    A5 wr C_m with D10 and S3, whose verdict is pinned."""
    return [
        Request(
            ["verify-cover", "A5", "-m", str(m), "--family-file", str(family)],
            "verify_cover",
            {"m": m},
        ),
        Request(
            [
                "verify-unbeatable", "A5", "--sigma-spec", "orders:5,3",
                "--families", "D10,S3", "-m", str(m), "--mode", "explicit",
            ],
            "unbeatable_a5",
            {"m": m},
        ),
    ]


def _wreath(rng: random.Random, tmp: Path) -> Workload:
    family = tmp / "A5-m2.family"
    construct = [
        _construct(g, m, method, family if g == "A5" else None)
        for g, m, method in WREATH_FAMILIES
    ]
    verify = _a5_checks(2, family)
    rng.shuffle(construct)
    rng.shuffle(verify)
    # A5 wr C_3 (317 members; about 3 s for each request) is a probe
    m3 = tmp / "A5-m3.family"
    probes = [_construct("A5", 3, "exact", m3), *_a5_checks(3, m3)]
    return Workload("wreath", construct + verify, ["A5", "A6", "PSL(2,7)"], probes=probes)


# lemma -> (n range, m range or None), as the test suite pins them
LEMMA_RANGES = {
    "small-block": ("11..60", None),
    "divisor-monotone": ("8..64", None),
    "power-vs-index": ("15..98", None),
    "min-member": ("5..60", "2..5"),
    "diagonal": ("5..60", "2..5"),
    "imprimitive-product": ("5..60", "2..5"),
    "primitive-bound": ("5..60", "2..5"),
    "power-vs-primitive": ("5..60", "2..5"),
    "power-vs-diagonal": ("5..60", "2..5"),
}


def _theorems(rng: random.Random, tmp: Path) -> Workload:
    requests = []
    for m in rng.sample(range(2, 13), 6):
        requests.append(Request(["verify-c1", "-m", str(m)], "verify_c1", {"m": m}))
    for p in (11, 13):
        for m in rng.sample(SPF5_M, 3):
            requests.append(
                Request(["verify-c2", "-p", str(p), "-m", str(m)], "verify_c2", {"p": p, "m": m})
            )
    bounds = [
        ("M11", "orders:8,11", "M10,PSL(2,11)", rng.randrange(2, 13)),
        ("PSL(2,11)", "orders:11,6", "11:5,D12", rng.choice(SPF5_M)),
        ("PSL(2,13)", "orders:13,7", "13:6,D14", rng.choice(SPF5_M)),
    ]
    for group, seed_spec, families, m in bounds:
        requests.append(
            Request(
                ["wreath-bounds", group, "--sigma-spec", seed_spec,
                 "--families", families, "-m", str(m)],
                "wreath_bounds",
                {"group": group, "m": m},
            )
        )
    for lemma, (n_range, m_range) in LEMMA_RANGES.items():
        argv = ["check-inequalities", "--lemma", lemma, "--n-range", n_range]
        if m_range:
            argv += ["--m-range", m_range]
        requests.append(Request(argv, "inequalities", {"lemma": lemma}))
    m = rng.randrange(2, 10**6)
    requests.append(Request(["formula", "alpha", "-m", str(m)], "formula", {"alpha": m}))
    m = rng.randrange(1, 40)
    requests.append(Request(["formula", "c1", "-m", str(m)], "formula", {"c1": m}))
    p, m = rng.choice((11, 13)), rng.choice(SPF5_M)
    requests.append(
        Request(["formula", "c2", "-p", str(p), "-m", str(m)], "formula", {"c2": [p, m]})
    )
    n = rng.choice(range(14, 63, 4))
    requests.append(
        Request(["formula", "main2", "-n", str(n), "-m", "1"], "formula", {"main2": n})
    )
    requests.append(Request(["verify-c1", "-m", "1"], "verify_c1", {"m": 1}))
    rng.shuffle(requests)
    return Workload("theorems", requests, ["M11", "PSL(2,11)", "PSL(2,13)"], ["M11"])
