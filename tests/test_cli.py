import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wreathcover.cli import main


def run_cli(args, capsys):
    status = main(args)
    out = capsys.readouterr().out
    return status, out


def run_json(args, capsys):
    status, out = run_cli([*args, "--json"], capsys)
    return status, json.loads(out)


def test_sigma_a5(capsys, _cache_dir):
    status, report = run_json(["sigma", "A5", "--exact"], capsys)
    assert status == 0
    assert report["certificate"]["value"] == 10
    assert report["verified"] is True


def test_sigma_greedy(tmp_path, capsys):
    status, report = run_json(["sigma", "A5", "--greedy"], capsys)
    assert status == 0
    assert report["certificate"]["kind"] == "upper-bound"
    # A6 from a spec file: its maximal classes come from the lattice, two
    # unlabeled classes of each of the orders 60 and 24
    spec = tmp_path / "a6.yaml"
    spec.write_text('name: A6\ndegree: 6\ngenerators: ["(1 2 3 4 5)", "(4 5 6)"]\n')
    status, report = run_json(["sigma", str(spec), "--greedy"], capsys)
    chosen = report["certificate"]["chosen"]
    assert status == 0 and report["verified"] is True
    assert len(chosen) == len(set(chosen)) == report["certificate"]["value"]


def test_sigma_target(capsys):
    status, report = run_json(["sigma", "A5", "--target", "orders:5"], capsys)
    assert status == 0
    assert report["certificate"]["value"] == 6  # the six D10s are forced
    # A5 has no element of order 7: the target is empty, and so is its cover
    status, report = run_json(["sigma", "A5", "--greedy", "--target", "orders:7"], capsys)
    assert status == 0
    assert report["certificate"]["kind"] == "empty" and report["certificate"]["value"] == 0


def test_catalog_command(capsys):
    status, report = run_json(["catalog", "M11"], capsys)
    assert status == 0
    assert report["order"] == 7920
    assert len(report["maximal_classes"]) == 5


def test_formula_commands(capsys):
    status, report = run_json(["formula", "c1", "-m", "3"], capsys)
    assert status == 0 and report["value"] == str(1 + 11**3 + 12**3)
    status, report = run_json(["formula", "main2", "-n", "14", "-m", "1"], capsys)
    assert status == 0 and report["value"] == "4096"
    status, report = run_json(["formula", "f-ratio", "-n", "16", "-m", "2"], capsys)
    assert status == 0 and 0 < report["value_float"] < 1
    status, report = run_json(["formula", "stirling", "-n", "10"], capsys)
    assert status == 0


def test_check_inequalities(capsys):
    status, report = run_json(
        ["check-inequalities", "--lemma", "sec13-1", "--n-range", "15..98"], capsys
    )
    assert status == 0
    assert report["passed"] and report["cases_checked"] == 23


def test_verify_c1_m2(capsys, _cache_dir):
    status, report = run_json(["verify-c1", "-m", "2"], capsys)
    assert status == 0
    assert report["passed"]
    assert report["formula_value"] == "266"


def test_reports_print_integers_past_4300_digits(capsys, _cache_dir):
    # CPython refuses str() of an int above 4300 digits unless the limit is
    # lifted; c1(1104) is the first verify-c1 value whose C5 terms pass it
    from wreathcover.formulas import c1_value

    status, report = run_json(["verify-c1", "-m", "1104"], capsys)
    assert status == 0 and report["formula_value"] == str(c1_value(1104))
    status, report = run_json(["formula", "c1", "-m", "4000"], capsys)
    assert status == 0 and report["value"] == str(c1_value(4000))
    assert len(report["value"]) == 4317


def test_verify_c2(capsys, _cache_dir):
    status, report = run_json(["verify-c2", "-p", "11", "-m", "5"], capsys)
    assert status == 0 and report["passed"]


def test_theorem_reports_share_one_shape(capsys, _cache_dir):
    # M11 and PSL(2,p) run through one theorem runner: same report keys
    for m in ("1", "2"):
        _, c1 = run_json(["verify-c1", "-m", m], capsys)
        _, c2 = run_json(["verify-c2", "-p", "11", "-m", m], capsys)
        assert set(c1) == set(c2), m
        assert ("bounds" in c1) == (m != "1")
    assert c1["seed_per_member"] == c1["expected_seed_per_member"] == {
        "M10": 180,
        "PSL(2,11)": 120,
    }


def test_theorem_runner_checks_seed_conditions_once(capsys, monkeypatch):
    from wreathcover import pipelines, unbeat

    calls = []
    check = unbeat.check_seed_conditions

    def counted(inst):
        calls.append(inst.m)
        return check(inst)

    # unbeat's own name too: theorem_bounds re-checks when not handed a report
    for module in (pipelines, unbeat):
        monkeypatch.setattr(module, "check_seed_conditions", counted)
    for argv in (["verify-c1", "-m", "2"], ["verify-c2", "-p", "11", "-m", "5"]):
        calls.clear()
        status, _ = run_json(argv, capsys)
        assert status == 0 and len(calls) == 1, argv


def test_group_verdict_reads_the_seed_check(capsys, monkeypatch):
    # at m = 1 the target is the seed, so U1-U3 are C1-C3: one set check
    from wreathcover import unbeat

    calls = []
    check = unbeat.hit_cover_disjoint

    def counted(*args):
        calls.append(1)
        return check(*args)

    monkeypatch.setattr(unbeat, "hit_cover_disjoint", counted)
    status, _ = run_json(["verify-c1", "-m", "1"], capsys)
    assert status == 0 and len(calls) == 1


def test_theorem_runner_verifies_the_cover_once(capsys, monkeypatch, _cache_dir):
    from wreathcover import cover, unbeat

    calls = []
    verify = cover.verify_cover_handles

    def counted(*args, **kwargs):
        calls.append(1)
        return verify(*args, **kwargs)

    # theorem_bounds is the one caller, at m = 1 as at m >= 2
    for module in (unbeat, cover):
        monkeypatch.setattr(module, "verify_cover_handles", counted)
    for argv in (
        ["verify-c1", "-m", "1"],
        ["verify-c1", "-m", "2"],
        ["verify-c2", "-p", "11", "-m", "5"],
    ):
        calls.clear()
        status, _ = run_json(argv, capsys)
        assert status == 0 and len(calls) == 1, argv


# two-class families: for m <= 3, the PSL(2,p) families pass at m = 1 only
# (PSL(2,11)'s and PSL(2,13)'s again from m = 5), M11's at every m, and
# A5's at none
VERDICT_FAMILIES = [
    ("A5", "orders:5,3", "D10,S3"),
    ("PSL(2,7)", "orders:7,4", "7:3,S4"),
    ("PSL(2,11)", "orders:11,6", "11:5,D12"),
    ("PSL(2,13)", "orders:13,7", "13:6,D14"),
    ("M11", "orders:8,11", "M10,PSL(2,11)"),
]


@pytest.mark.parametrize(
    "group, seed, families", VERDICT_FAMILIES, ids=[row[0] for row in VERDICT_FAMILIES]
)
def test_bounds_certify_exactly_when_unbeatable(group, seed, families, capsys, _cache_dir):
    # wreath-bounds prints the verdict verify-unbeatable reports, and no other
    for m in ("1", "2", "3"):
        argv = [group, "--sigma-spec", seed, "--families", families, "-m", m]
        status, bounds = run_json(["wreath-bounds", *argv], capsys)
        _, cert = run_json(["verify-unbeatable", *argv], capsys)
        certified = int(bounds["bounds"]["lower"]) > 0
        assert certified == cert["passed"] == (status == 0), (group, m)


@pytest.mark.parametrize("m, lower", [("2", "266"), ("12", "12054528824979")])
def test_explicit_and_auto_certify_m11_alike(m, lower, capsys):
    # explicit unbeatability counts from element classes, so it needs no
    # enumeration permit: it runs where the cover requests refuse (M11 wr
    # C_2 is over the cap) and certifies what auto's symbolic mode does
    argv = ["verify-unbeatable", "M11", "--sigma-spec", "orders:8,11",
            "--families", "M10,PSL(2,11)", "-m", m]
    verdicts = []
    for mode in ("explicit", "auto"):
        status, report = run_json([*argv, "--mode", mode], capsys)
        assert status == 0, mode
        verdicts.append(report["unbeatability"])
    assert [v["mode"] for v in verdicts] == ["explicit-wreath", "symbolic"]
    assert [v["certified_lower_bound"] for v in verdicts] == [lower, lower]


def test_verify_unbeatable_failure_exit_code(capsys, _cache_dir):
    status, report = run_json(
        [
            "verify-unbeatable",
            "A5",
            "--sigma-spec",
            "orders:5,3",
            "--families",
            "D10,S3",
            "-m",
            "2",
        ],
        capsys,
    )
    assert status == 1  # U4 fails at this scale; witness embedded
    u4 = [c for c in report["unbeatability"]["conditions"] if c["condition"].startswith("U4")][0]
    assert u4["witness"] is not None


def test_no_m1_request_reads_the_lattice(capsys, monkeypatch, tmp_path):
    # the m = 1 verdict sweeps the catalog's maximal classes, so its reports
    # are the same when the subgroup lattice cannot be had at all
    from wreathcover import lattice, pipelines

    a5_s3 = ["verify-unbeatable", "A5", "--sigma-spec", "orders:3", "--families", "S3", "-m", "1"]
    requests = [
        ["verify-c1", "-m", "1"],
        ["verify-c2", "-p", "11", "-m", "1"],
        ["verify-c2", "-p", "13", "-m", "1"],
        ["wreath-bounds", "M11", "--sigma-spec", "orders:8,11", "--families", "M10,PSL(2,11)",
         "-m", "1"],
        a5_s3,
    ]
    plain = [run_cli([*argv, "--json"], capsys) for argv in requests]
    assert [status for status, _ in plain] == [0, 0, 0, 0, 1]
    # a lattice cache without its A4 class once made the A5/S3 request pass;
    # A4 is a maximal class, so U4 still fails on it, 8 against 2
    lattice.all_subgroup_classes(pipelines.load_group("A5").table, cache_dir=tmp_path)
    [path] = tmp_path.glob("lattice-*.json")
    data = json.loads(path.read_text())
    data["classes"] = [e for e in data["classes"] if len(e["members"]) != 12]
    path.write_text(json.dumps(data))
    assert run_cli([*a5_s3, "--json", "--cache-dir", str(tmp_path)], capsys) == plain[-1]
    assert path.read_text() == json.dumps(data)  # neither read nor rebuilt
    u4 = json.loads(plain[-1][1])["unbeatability"]["conditions"][3]
    assert u4["witness"] == {"outsider": "A4", "count": 8, "member_min": 2}

    def unavailable(*args, **kwargs):
        raise AssertionError("the subgroup lattice was read")

    for module in (lattice, pipelines):
        monkeypatch.setattr(module, "all_subgroup_classes", unavailable)
    assert [run_cli([*argv, "--json"], capsys) for argv in requests] == plain


def _write_spec(path, spec, name):
    path.write_text(
        json.dumps(
            {
                "name": name,
                "degree": spec.degree,
                "generators": list(spec.generators),
                "maximal_classes": [
                    {
                        "label": c.label,
                        "generators": list(c.generators),
                        "expected_order": c.expected_order,
                        "expected_class_size": c.expected_class_size,
                    }
                    for c in spec.maximal_classes
                ],
            }
        )
    )
    return str(path)


def test_spec_file_maximal_list_makes_the_verdict_conditional(tmp_path, capsys):
    from wreathcover.catalog import BUILTIN_SPECS, GroupSpec, MaximalClassSpec
    from wreathcover.pipelines import MAXIMAL_LIST_ASSUMPTION

    # S4 listing only its two classes of C2 as maximal: the sweep finds no
    # outsider, but sigma(S4) = 4, not 9, so the file's list certifies nothing
    s4 = GroupSpec(
        "S4",
        4,
        ("(1 2 3 4)", "(1 2)"),
        (
            MaximalClassSpec("T", ("(1 2)",), 2, 6),
            MaximalClassSpec("D", ("(1 2)(3 4)",), 2, 3),
        ),
    )
    s4_file = _write_spec(tmp_path / "s4.yaml", s4, "S4")
    status, report = run_json(
        ["verify-unbeatable", s4_file, "--sigma-spec", "orders:2", "--families", "T,D", "-m", "1"],
        capsys,
    )
    du = report["unbeatability"]
    assert status == 0 and du["passed"] and du["outsider_max"]["count"] == 0
    assert du["conditional"] and du["assumptions"] == [MAXIMAL_LIST_ASSUMPTION]
    assert "certified_lower_bound" not in du

    # the same holds at m = 2, where wreath-bounds then has no lower bound;
    # a file repeating a built-in's data is that built-in's checked list
    m11 = BUILTIN_SPECS["M11"]
    bounds = ["--sigma-spec", "orders:8,11", "--families", "M10,PSL(2,11)", "-m", "2"]
    for name, expected in (("M11 copy", (1, 0)), ("M11", (0, 266))):
        source = _write_spec(tmp_path / f"{name}.yaml", m11, name)
        status, report = run_json(["wreath-bounds", source, *bounds], capsys)
        assert (status, int(report["bounds"]["lower"])) == expected


def test_construct_and_verify_cover_roundtrip(tmp_path, capsys, _cache_dir):
    # PSL(2,7)'s lines hold commas inside group=PSL(2,7)
    for group, count in (("A5", 57), ("PSL(2,7)", 114)):
        fam = tmp_path / "family.txt"
        status, report = run_json(
            ["construct-cover", group, "-m", "2", "--out", str(fam)], capsys
        )
        assert status == 0 and report["verified"] is True
        assert report["family_count"] == count
        status, report = run_json(
            ["verify-cover", group, "-m", "2", "--family-file", str(fam)], capsys
        )
        assert status == 0 and report["covered"] is True
        # corrupt the family: drop a product-type line
        lines = fam.read_text().splitlines()
        removed = [ln for ln in lines if ln.startswith("product-type")][0]
        fam.write_text("\n".join(ln for ln in lines if ln != removed) + "\n")
        status, report = run_json(
            ["verify-cover", group, "-m", "2", "--family-file", str(fam)], capsys
        )
        assert status == 1 and report["covered"] is False
        assert "uncovered_witness" in report


@pytest.mark.parametrize(
    "group, m, method",
    [("A5", 2, "exact"), ("PSL(2,7)", 2, "exact"), ("A6", 2, "greedy"), ("A5", 3, "exact")],
)
def test_descriptor_lines_read_back(group, m, method):
    # the written family parses back to the constructed one: its subgroups,
    # coset table and members, in order
    import numpy as np

    from wreathcover.cover import build_instance, sigma_exact, sigma_greedy
    from wreathcover.pipelines import descriptor_lines, load_group, parse_descriptor_lines
    from wreathcover.wreath import construct_product_cover

    cg = load_group(group)
    inst = build_instance(cg.table, cg.maximal_classes)
    cert = (sigma_exact if method == "exact" else sigma_greedy)(inst)
    by_label = dict(zip(inst.labels, inst.handles))
    cover = [by_label[lab] for lab in cert.chosen]
    family, socle = construct_product_cover(cg.table, cover, m)
    parsed, parsed_socle = parse_descriptor_lines(cg, descriptor_lines(cg, family, socle), m)
    assert parsed.subgroups == family.subgroups and parsed_socle == socle
    for field in ("minima", "owner", "cosets"):
        assert np.array_equal(getattr(parsed, field), getattr(family, field)), field


def test_verify_cover_reads_the_a6_family(tmp_path, capsys):
    # the greedy A6 family names class=PSL(2,5), whose label holds a comma
    fam = tmp_path / "a6.family"
    argv = ["construct-cover", "A6", "-m", "2", "--cover-method", "greedy", "--out", str(fam)]
    assert main(argv) == 0
    assert "class=PSL(2,5)," in fam.read_text()
    capsys.readouterr()
    status, report = run_json(["verify-cover", "A6", "-m", "2", "--family-file", str(fam)], capsys)
    assert (status, report["covered"], report["members"]) == (0, True, 145)


def test_group_tables_keep_bounded_memos(tmp_path, capsys, monkeypatch):
    # on fresh group tables, the constructive covers (exact and greedy
    # base) and their families read back keep one coset row per catalog
    # maximal subgroup at most, and only canonical cycle strings, one per
    # element at most; a family file with every cycle written another way
    # reads back to the same report and keeps no string of its own
    import functools
    import re

    from wreathcover import catalog, pipelines

    monkeypatch.setattr(pipelines, "load_group", functools.cache(catalog.load))
    rotate = functools.partial(re.sub, r"\((\d+) (\d+(?: \d+)*)\)", r"(\2 \1)")
    for group in catalog.BUILTIN_SPECS:
        m = "1" if group == "M11" else "2"  # M11 wr C_2 is over the explicit cap
        for method in ("exact", "greedy"):
            fam = tmp_path / f"{method}.family"
            argv = ["construct-cover", group, "-m", m, "--cover-method", method, "--out", str(fam)]
            assert main(argv) == 0
            verify = ["verify-cover", group, "-m", m, "--family-file", str(fam), "--json"]
            capsys.readouterr()
            assert main(verify) == 0
            report = capsys.readouterr().out
            lines = fam.read_text()
            assert rotate(lines) != lines
            fam.write_text(rotate(lines))
            assert main(verify) == 0 and capsys.readouterr().out == report
        cg = pipelines.load_group(group)
        g = cg.table
        maximal = {key for cls in cg.maximal_classes for key in cls.keys}
        assert 0 < len(g.coset_rows) <= len(maximal) == sum(c.class_size for c in cg.maximal_classes)
        assert set(g.coset_rows) <= maximal, group
        assert 0 < len(g._cycle_ids) == len(g._cycle_strings) <= g.order
        assert all(g.perm(x).to_cycle_string() == text for text, x in g._cycle_ids.items())


def test_socle_lines_must_name_socle_maximals(tmp_path, capsys, _cache_dir):
    # socle{r} is a maximal subgroup of S wr C_m only for a prime r dividing m
    fam = tmp_path / "family.txt"
    assert main(["construct-cover", "A5", "-m", "2", "--out", str(fam)]) == 0
    lines = fam.read_text().splitlines()
    assert lines[-1] == "socle{2}"
    capsys.readouterr()
    for family in (["socle{1}"], [*lines[:-1], "socle{3}"], [*lines[:-1], "socle{4}"], ["socle{0}"]):
        fam.write_text("\n".join(family) + "\n")
        assert main(["verify-cover", "A5", "-m", "2", "--family-file", str(fam)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {family[-1]!r}: "), captured.err


@pytest.fixture(scope="module")
def a5_m2_family(tmp_path_factory):
    """The lines of the 57-member A5 wr C_2 covering family."""
    fam = tmp_path_factory.mktemp("family") / "a5-m2.txt"
    assert main(["construct-cover", "A5", "-m", "2", "--out", str(fam), "--json"]) == 0
    return fam.read_text().splitlines()


def _refused_family(tmp_path, capsys, lines, bad):
    """verify-cover on the given lines exits 2, naming the line ``bad``."""
    fam = tmp_path / "family.txt"
    fam.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify-cover", "A5", "-m", "2", "--family-file", str(fam)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad!r}: "), captured.err


@pytest.mark.parametrize("cosets", ["junk, ()", "() xyz", "", "(), ()", "()x", "(1 2 3),()"])
def test_cosets_field_is_exactly_the_cycle_strings(cosets, a5_m2_family, tmp_path, capsys):
    # at m = 2 the field is one cycle string; anything around it is refused
    # rather than skipped
    first, *rest = a5_m2_family
    bad = first[: first.index("cosets=[")] + f"cosets=[{cosets}]}}"
    _refused_family(tmp_path, capsys, [bad, *rest], bad)


@pytest.mark.parametrize("conj", [" ", "()()", "( )"])
def test_conj_field_is_exactly_one_cycle_string(conj, a5_m2_family, tmp_path, capsys):
    # Perm.from_cycles reads each of these as the identity; the field is
    # refused unless it is one cycle string as the lines are written
    first, *rest = a5_m2_family
    bad = first[: first.index("conj=")] + f"conj={conj}" + first[first.index(", cosets=[") :]
    _refused_family(tmp_path, capsys, [bad, *rest], bad)


def test_comment_and_blank_lines_are_skipped(a5_m2_family, tmp_path, capsys):
    # a family file may carry '#' comments and blank lines between members
    fam = tmp_path / "family.txt"
    fam.write_text("\n".join(a5_m2_family) + "\n")
    argv = ["verify-cover", "A5", "-m", "2", "--family-file", str(fam)]
    capsys.readouterr()
    plain = run_json(argv, capsys)
    assert plain[0] == 0 and plain[1]["covered"] is True
    fam.write_text("\n".join(["# A5 wr C_2", *a5_m2_family[:3], "", *a5_m2_family[3:]]) + "\n")
    assert run_json(argv, capsys) == plain


def test_repeated_member_line_is_refused(a5_m2_family, tmp_path, capsys):
    # a member named twice would be counted twice: a repeated line, a
    # repeated socle prime, and a product-type line whose coset entry is
    # another element of the same coset are all refused
    from wreathcover.pipelines import load_group, parse_descriptor_lines

    g = load_group("A5").table
    first = a5_m2_family[0]
    family, _ = parse_descriptor_lines(load_group("A5"), [first], 2)
    (coset,) = family.cosets.tolist()[0]
    other = int(g.mul_many(family.subgroups[0].member_ids, coset)[-1])
    assert other != coset
    same = first[: first.index("cosets=[")] + f"cosets=[{g.perm(other).to_cycle_string()}]}}"
    for extra in (first, "socle{2}", same):
        _refused_family(tmp_path, capsys, [*a5_m2_family, extra], extra)


def test_member_named_through_two_conjugators_is_refused(tmp_path, capsys):
    # (3 4 5) lies in the A4 representative, so both lines name one
    # subgroup on one coset: members are told apart by subgroup, not by
    # their (class, conj) names
    from wreathcover.perm import Perm
    from wreathcover.pipelines import load_group

    A4 = load_group("A5").classes_by_label()["A4"].representative
    assert A4.conjugate(A4.parent.id_of(Perm.from_cycles("(3 4 5)", 5))) == A4
    lines = [
        "product-type{group=A5, class=A4, conj=(), cosets=[()]}",
        "product-type{group=A5, class=A4, conj=(3 4 5), cosets=[()]}",
    ]
    _refused_family(tmp_path, capsys, lines, lines[1])


@pytest.mark.parametrize("command", ["verify-unbeatable", "wreath-bounds"])
def test_empty_family_exits_2(command, capsys):
    # an empty label list is a usage error at every m, not a failed check;
    # an empty --cover list too, rather than a fall back to the families
    label_args = [["--families", ","]]
    if command == "wreath-bounds":
        label_args.append(["--families", "D10,S3", "--cover", ","])
    for labels in label_args:
        for m in ("1", "2"):
            argv = [command, "A5", "--sigma-spec", "orders:5", *labels, "-m", m]
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: no class labels given\n", argv


def test_cache_missing_a_cyclic_class_is_rebuilt(tmp_path, capsys):
    # sigma on a spec file without maximal classes reads them off the
    # lattice.  S3's C3 is a cyclic maximal class, so a cache file without
    # it leaves the elements of order 3 uncovered; the element count by
    # order exposes the gap and the lattice is rebuilt.
    spec = tmp_path / "s3.yaml"
    spec.write_text('name: S3\ndegree: 3\ngenerators: ["(1 2 3)", "(1 2)"]\n')
    argv = ["sigma", str(spec), "--greedy", "--json", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    clean = capsys.readouterr()
    assert json.loads(clean.out)["certificate"]["value"] == 4
    [path] = tmp_path.glob("lattice-*.json")
    data = json.loads(path.read_text())
    data["classes"] = [e for e in data["classes"] if len(e["members"]) != 3]
    path.write_text(json.dumps(data))
    assert main(argv) == 0
    assert capsys.readouterr() == clean


# spec files of cyclic groups, the trivial group among them: sigma is
# undefined, so every request is refused as infeasible (exit 1); an empty
# target set is not a cyclic group and keeps the empty cover
CYCLIC_SPECS = [
    ('name: C5\ndegree: 5\ngenerators: ["(1 2 3 4 5)"]\n', [], "infeasible", 1),
    ('name: trivial\ndegree: 3\ngenerators: ["(1)"]\n', [], "infeasible", 1),
    ('name: trivial\ndegree: 3\ngenerators: ["(1)"]\n', ["--greedy"], "infeasible", 1),
    ('name: trivial\ndegree: 3\ngenerators: ["(1)"]\n', ["--target", "orders:1"], "empty", 0),
]


@pytest.mark.parametrize("spec, options, kind, status", CYCLIC_SPECS)
def test_cyclic_spec_file_is_refused(spec, options, kind, status, tmp_path, capsys):
    path = tmp_path / "cyclic.yaml"
    path.write_text(spec)
    code, report = run_json(["sigma", str(path), *options], capsys)
    cert = report["certificate"]
    assert code == status
    assert cert["kind"] == kind
    if kind == "infeasible":
        assert cert["value"] == -1
        assert cert["notes"] == ["group is cyclic: no proper-subgroup cover exists, sigma undefined"]
    else:
        assert cert["value"] == 0


def test_malformed_spec_files_exit_2(tmp_path, capsys):
    for data in (
        b'name: A5\ndegree: 5\ngenerators: ["(1 2 3 4 5)", "(1 2 3)"\n',
        b"name: A5\ndegree: 5\ngenerators: 5\n",
        b"name: A5\xff\ndegree: 5\n",  # not UTF-8
    ):
        spec = tmp_path / "bad.yaml"
        spec.write_bytes(data)
        assert main(["sigma", str(spec), "--greedy"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: group file {spec} "), captured.err


def test_usage_errors_exit_2(capsys, tmp_path, monkeypatch):
    assert main(["verify-c2", "-p", "9", "-m", "5"]) == 2
    capsys.readouterr()
    assert main(["check-inequalities", "--lemma", "bogus", "--n-range", "5..6"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown lemma 'bogus'; known: ")
    # a sweep in which no case lies is a usage error, not a failed lemma
    assert main(["check-inequalities", "--lemma", "small-block", "--n-range", "1..5"]) == 2
    assert capsys.readouterr().err == "error: lemma small-block has no case with n in 1..5\n"
    argv = ["check-inequalities", "--lemma", "diagonal", "--n-range", "5..9", "--m-range", "3..2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: lemma diagonal has no case with n in 5..9 and m in 3..2\n"
    )
    # a closed form without one of its parameters names the missing flag
    for argv, flag in (
        (["formula", "alpha"], "-m"),
        (["formula", "c2", "-m", "5"], "-p"),
        (["formula", "main2", "-n", "14"], "-m"),
        (["formula", "f-ratio", "-n", "16"], "-m"),
        (["formula", "stirling"], "-n"),
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"error: formula {argv[1]} needs {flag}\n"
    # the PSL(2,p) closed form needs p >= 11: a smaller p is refused with
    # that hypothesis before any group is loaded
    from wreathcover import pipelines

    with monkeypatch.context() as patch:
        patch.setattr(pipelines, "load_group", None)
        assert main(["verify-c2", "-p", "7", "-m", "2"]) == 2
    assert capsys.readouterr().err == "error: p=7 outside hypothesis (prime >= 11 required)\n"
    # cover labels go through the same lookup as family labels, and both
    # are resolved before any verdict work; an unknown family label is
    # named first
    seed_checks = []
    check = pipelines.check_seed_conditions
    monkeypatch.setattr(
        pipelines, "check_seed_conditions", lambda inst: seed_checks.append(inst) or check(inst)
    )
    argv = ["wreath-bounds", "M11", "--sigma-spec", "orders:8,11",
            "--families", "M10,PSL(2,11)", "--cover", "Foo", "-m", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "'Foo'" in err and "'M10'" in err
    argv = ["wreath-bounds", "PSL(2,13)", "--sigma-spec", "orders:13,7",
            "--families", "13:6,D14", "-m", "2", "--cover", "Bar"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: unknown class labels ['Bar']; ")
    argv[argv.index("13:6,D14")] = "Foo"
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: unknown class labels ['Foo']; ")
    assert seed_checks == []
    # a label given twice names one class once: a usage error, for the
    # family and for the cover
    for argv in (
        ["verify-unbeatable", "A5", "--sigma-spec", "orders:5", "--families", "D10,D10",
         "-m", "1"],
        ["wreath-bounds", "A5", "--sigma-spec", "orders:5,3", "--families", "D10,S3",
         "--cover", "D10,S3,D10,A4", "-m", "2"],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == "error: duplicate class labels ['D10']\n", argv
    # a spec file without maximal classes cannot name its family members,
    # so construct-cover refuses before it enumerates the lattice
    spec = tmp_path / "a5.yaml"
    spec.write_text('name: A5\ndegree: 5\ngenerators: ["(1 2 3 4 5)", "(1 2 3)"]\n')
    cache = tmp_path / "cache"
    cache.mkdir()
    argv = ["construct-cover", str(spec), "-m", "2", "--cache-dir", str(cache)]
    assert main(argv) == 2
    assert "catalog class labels" in capsys.readouterr().err
    assert list(cache.iterdir()) == []
    # the cap still bounds the family construct-cover prints, so it refuses
    # above it
    assert main(["construct-cover", "M11", "-m", "3", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "m*|S|^m = 1490379264000 <= 100000000" in captured.err
    with pytest.raises(SystemExit) as exc:
        main(["construct-cover", "A5", "-m", "2", "--no-verify"])
    assert exc.value.code == 2
    # a range is a..b, not one number
    with pytest.raises(SystemExit) as exc:
        main(["check-inequalities", "--lemma", "small-block", "--n-range", "11"])
    assert exc.value.code == 2
    assert "range must be a..b, got '11'" in capsys.readouterr().err
    # sigma's order cap is the one constant lattice.ORDER_CAP, not an option
    with pytest.raises(SystemExit) as exc:
        main(["sigma", "A5", "--cap", "100"])
    assert exc.value.code == 2
    # symbolic mode is auto's choice above 10^7, not a user's
    argv = ["verify-unbeatable", "A5", "--sigma-spec", "orders:5,3",
            "--families", "D10,S3", "-m", "2", "--mode", "symbolic"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


_A5_GENERATORS = 'generators: ["(1 2 3 4 5)", "(1 2 3)"]\n'
# the files a refused request names, written into its temporary directory
_REFUSED_FILES = {
    "bad-point.yaml": 'name: A5\ndegree: 5\ngenerators: ["(1 2 3 4 9)", "(1 2 3)"]\n',
    "no-generators.yaml": "name: A5\ndegree: 5\ngenerators: []\n",
    "degree-17.yaml": "name: C17\ndegree: 17\ngenerators: [\"(%s)\"]\n"
    % " ".join(str(i) for i in range(1, 18)),
    "degree-300.yaml": 'name: big\ndegree: 300\ngenerators: ["(1 300)", "(1 2 3)"]\n',
    "odd-class.yaml": "name: A5\ndegree: 5\n" + _A5_GENERATORS + "maximal_classes:\n"
    '  - {label: X, generators: ["(1 2)"], expected_order: 2, expected_class_size: 10}\n',
    "list-name.yaml": "name: [1, 2]\ndegree: 5\n" + _A5_GENERATORS,
    "list-label.yaml": "name: A5\ndegree: 5\n" + _A5_GENERATORS + "maximal_classes:\n"
    '  - {label: [1, 2], generators: ["(1 2 3)"], expected_order: 3, expected_class_size: 10}\n',
    "conj-odd.txt": "product-type{group=A5, class=D10, conj=(1 2), cosets=[()]}\n",
    "conj-point.txt": "product-type{group=A5, class=D10, conj=(1 9), cosets=[()]}\n",
    "not-utf8.txt": b"\xff socle{2}\n",
    "group-a6.txt": "product-type{group=A6, class=D10, conj=(), cosets=[()]}\n",
    "class-q8.txt": "product-type{group=A5, class=Q8, conj=(), cosets=[()]}\n",
    "list.yaml": "- 1\n- 2\n",
    "no-degree.yaml": "name: A5\n" + _A5_GENERATORS,
    "bare-class.yaml": "name: A5\ndegree: 5\n" + _A5_GENERATORS + 'maximal_classes: ["A4"]\n',
    "string-classes.yaml": "name: A5\ndegree: 5\n" + _A5_GENERATORS + 'maximal_classes: "A4"\n',
    "mapping-classes.yaml": "name: A5\ndegree: 5\n" + _A5_GENERATORS
    + "maximal_classes: {label: A4}\n",
    "a4-size-4.yaml": "name: A5\ndegree: 5\n" + _A5_GENERATORS + "maximal_classes:\n"
    '  - {label: A4, generators: ["(1 2 3)", "(1 2)(3 4)"], expected_order: 12,'
    " expected_class_size: 4}\n",
}
# one request per input boundary, and its stderr line ({dir} is the
# request's temporary directory).  m = 0 fails before any search, with the
# message every command gives, and an exact search fails at the node cap.
REFUSED = [
    (["sigma", "NoSuchGroup"],
     "unknown group 'NoSuchGroup'; built-ins: A5, A6, PSL(2,7), PSL(2,11), PSL(2,13), M11"),
    (["sigma", "A5", "--target", "orders:x"],
     "bad target spec 'orders:x' (orders:... or cycle-types:...)"),
    (["sigma", "A5", "--target", "orders:0"], "order must be >= 1"),
    (["sigma", "A5", "--target", "cycle-types:2,2"],
     "cycle type (2, 2) does not sum to degree 5"),
    (["sigma", "A5", "--target", "cycle-types:0,5"], "cycle length must be >= 1"),
    (["sigma", "PSL(2,13)", "--exact", "--target", "orders:2"],
     "branch-and-bound exceeded 5000000 nodes"),
    (["verify-unbeatable", "A5", "--sigma-spec", "orders:7", "--families", "D10,S3", "-m", "2"],
     "seed set is empty"),
    (["verify-c1", "-m", "0"], "m >= 1 required"),
    (["construct-cover", "A5", "-m", "0"], "m >= 1 required"),
    (["formula", "alpha", "-m", "0"], "m >= 1 required"),
    (["formula", "c2", "-p", "11", "-m", "5", "-n", "99"], "formula c2 takes -p and -m"),
    (["wreath-bounds", "A5", "--sigma-spec", "orders:5,3", "--families", "D10,S3", "-m", "2",
      "--cover", "D10"],
     "cover does not cover S: element 1 missed"),
    (["verify-cover", "A5", "-m", "2", "--family-file", "{dir}/conj-odd.txt"],
     "permutation (1 2) not in A5"),
    (["verify-cover", "A5", "-m", "2", "--family-file", "{dir}/conj-point.txt"],
     "point 9 out of range 1..5 in '(1 9)'"),
    (["verify-cover", "A5", "-m", "2", "--family-file", "{dir}/not-utf8.txt"],
     "unparseable descriptor line: '\ufffd socle{2}'"),
    (["verify-cover", "A5", "-m", "2", "--family-file", "{dir}/missing.txt"],
     "[Errno 2] No such file or directory: '{dir}/missing.txt'"),
    (["verify-cover", "A5", "-m", "2", "--family-file", "{dir}/group-a6.txt"],
     "descriptor group A6 != A5"),
    (["verify-cover", "A5", "-m", "2", "--family-file", "{dir}/class-q8.txt"],
     "unknown class label 'Q8'"),
    (["verify-c2", "-p", "17", "-m", "1"], "no built-in catalog for PSL(2,17)"),
    (["formula", "main2", "-n", "15", "-m", "1"], "n=15 is not congruent to 2 mod 4"),
    (["formula", "main2", "-n", "-2", "-m", "1"], "n >= 1 required"),
    (["formula", "main2-lower", "-n", "0", "-m", "1"], "n >= 1 required"),
    (["formula", "main2-lower", "-n", "-3", "-m", "1"], "n >= 1 required"),
    (["formula", "stirling", "-n", "0"], "n >= 1 required"),
    (["formula", "f-ratio", "-n", "0", "-m", "1"], "n >= 1 required"),
    (["check-inequalities", "--lemma", "divisor-monotone", "--n-range", "0..9"],
     "n must be positive"),
    # a lemma in n alone refuses an m range rather than ignore it
    (["check-inequalities", "--lemma", "small-block", "--n-range", "11..20", "--m-range", "2..3"],
     "lemma small-block takes --n-range only"),
    (["check-inequalities", "--lemma", "12.1", "--n-range", "8..64", "--m-range", "2..5"],
     "lemma divisor-monotone takes --n-range only"),
    (["check-inequalities", "--lemma", "power-vs-index", "--n-range", "15..98", "--m-range",
      "2..2"],
     "lemma power-vs-index takes --n-range only"),
    (["catalog", "{dir}/bad-point.yaml"], "point 9 out of range 1..5 in '(1 2 3 4 9)'"),
    (["catalog", "{dir}/no-generators.yaml"], "need at least one generator"),
    (["catalog", "{dir}/degree-17.yaml"], "packed keys support degree <= 16 only"),
    (["catalog", "{dir}/degree-300.yaml"], "packed keys support degree <= 16 only"),
    (["catalog", "{dir}/odd-class.yaml"], "permutation (1 2) not in A5"),
    (["catalog", "{dir}/list-name.yaml"],
     "group file {dir}/list-name.yaml gives name [1, 2], not a string"),
    (["catalog", "{dir}/list-label.yaml"],
     "group file {dir}/list-label.yaml gives label [1, 2], not a string"),
    (["catalog", "{dir}/list.yaml"], "group file {dir}/list.yaml is not a mapping"),
    (["catalog", "{dir}/no-degree.yaml"], "group file {dir}/no-degree.yaml missing key 'degree'"),
    (["catalog", "{dir}/bare-class.yaml"],
     "group file {dir}/bare-class.yaml gives maximal class 'A4', not a mapping"),
    (["catalog", "{dir}/string-classes.yaml"],
     "group file {dir}/string-classes.yaml gives maximal_classes 'A4', not a list"),
    (["catalog", "{dir}/mapping-classes.yaml"],
     "group file {dir}/mapping-classes.yaml gives maximal_classes {'label': 'A4'}, not a list"),
    (["catalog", "{dir}/a4-size-4.yaml"], "A5/A4: class size 5, catalog records 4"),
]


@pytest.mark.parametrize("argv, message", REFUSED, ids=[" ".join(a) for a, _ in REFUSED])
def test_refused_input_exits_2(argv, message, tmp_path, capsys):
    for name, data in _REFUSED_FILES.items():
        (tmp_path / name).write_bytes(data.encode() if isinstance(data, str) else data)
    assert main([arg.replace("{dir}", str(tmp_path)) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.replace('{dir}', str(tmp_path))}\n"


def test_bug_is_not_a_usage_error(monkeypatch):
    # only refused input exits 2; an error anywhere else is a bug and
    # propagates with its traceback
    from wreathcover import pipelines

    def broken(*args, **kwargs):
        raise KeyError("a bug")

    def also_broken(*args, **kwargs):
        raise ValueError("another bug")

    monkeypatch.setattr(pipelines, "sigma_exact", broken)
    monkeypatch.setattr(pipelines, "check_seed_conditions", also_broken)
    with pytest.raises(KeyError, match="a bug"):
        main(["sigma", "A5"])
    argv = ["verify-unbeatable", "A5", "--sigma-spec", "orders:5", "--families", "D10", "-m", "1"]
    with pytest.raises(ValueError, match="another bug"):
        main(argv)


def test_no_cache_directory_touches_no_file(tmp_path, monkeypatch, capsys):
    # without --cache-dir no lattice file is read or written: not under
    # HOME, not under XDG_CACHE_HOME, and not where the removed
    # WREATHCOVER_CACHE variable points
    from wreathcover import lattice, pipelines

    home, env_cache, named = (tmp_path / d for d in ("home", "env-cache", "named"))
    for d in (home, env_cache, named):
        d.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    monkeypatch.setenv("WREATHCOVER_CACHE", str(env_cache))
    spec = tmp_path / "a5.yaml"
    spec.write_text("name: A5\ndegree: 5\n" + _A5_GENERATORS)
    argv = ["sigma", str(spec), "--greedy", "--json"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    lattice.all_subgroup_classes(pipelines.load_group("A5").table)
    assert list(home.iterdir()) == list(env_cache.iterdir()) == []
    assert main([*argv, "--cache-dir", str(named)]) == 0
    assert capsys.readouterr() == plain
    assert len(list(named.iterdir())) == 1


def test_cache_dir_naming_a_file_is_a_miss(tmp_path, capsys):
    # a --cache-dir that is a regular file can be neither read nor written:
    # the lattice is enumerated in memory and the file is left as it was
    regular = tmp_path / "cache"
    regular.write_text("not a directory")
    spec = tmp_path / "a5.yaml"
    spec.write_text("name: A5\ndegree: 5\n" + _A5_GENERATORS)
    status, report = run_json(["sigma", str(spec), "--cache-dir", str(regular)], capsys)
    assert status == 0 and report["certificate"]["value"] == 10
    assert regular.read_text() == "not a directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a5.yaml", "cache"]


def test_package_runs_as_a_module():
    # ``python -m wreathcover`` from a checkout, with only src/ on the path
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "wreathcover", "catalog", "A5", "--json"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["group"] == "A5"


def test_human_rendering(capsys):
    status, out = run_cli(["formula", "c1", "-m", "2"], capsys)
    assert status == 0
    assert "value: 266" in out
