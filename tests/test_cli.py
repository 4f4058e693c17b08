import io
import json
import sys

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


# two-class families: for m <= 3, PSL(2,7)'s passes at m = 1 only, M11's at
# every m, and the others' at none (PSL(2,11)'s and PSL(2,13)'s from m = 5)
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


def test_lattice_cap_at_m1_exits_2(capsys, monkeypatch):
    # m = 1 certifies over the whole subgroup lattice; above the lattice cap
    # there is no certificate, and the request fails instead of passing on
    # the maximal classes alone
    from wreathcover import pipelines
    from wreathcover.lattice import LatticeCapError

    def capped(g, **kwargs):
        raise LatticeCapError(f"group order {g.order} exceeds lattice cap 1000")

    monkeypatch.setattr(pipelines, "all_subgroup_classes", capped)
    argv = ["M11", "--sigma-spec", "orders:8,11", "--families", "M10,PSL(2,11)", "-m", "1"]
    for command in ("verify-unbeatable", "wreath-bounds"):
        assert main([command, *argv, "--json"]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: group order 7920 exceeds lattice cap 1000\n"


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


def test_usage_errors_exit_2(capsys, tmp_path, monkeypatch):
    assert main(["sigma", "NoSuchGroup"]) == 2
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
    # the PSL(2,7) catalog has no D8 class for the PSL(2,p) family
    assert main(["verify-c2", "-p", "7", "-m", "2"]) == 2
    assert "'D8'" in capsys.readouterr().err
    # cover labels go through the same lookup as family labels
    argv = ["wreath-bounds", "M11", "--sigma-spec", "orders:8,11",
            "--families", "M10,PSL(2,11)", "--cover", "Foo", "-m", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "'Foo'" in err and "'M10'" in err
    # a spec file without maximal classes cannot name its family members,
    # so construct-cover refuses before it enumerates the lattice
    spec = tmp_path / "a5.yaml"
    spec.write_text('name: A5\ndegree: 5\ngenerators: ["(1 2 3 4 5)", "(1 2 3)"]\n')
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("WREATHCOVER_CACHE", str(cache))
    argv = ["construct-cover", str(spec), "-m", "2", "--cache-dir", str(cache)]
    assert main(argv) == 2
    assert "catalog class labels" in capsys.readouterr().err
    assert list(cache.iterdir()) == []
    # explicit mode above the enumeration cap fails instead of going symbolic
    argv = ["verify-unbeatable", "M11", "--sigma-spec", "orders:8,11",
            "--families", "M10,PSL(2,11)", "-m", "2", "--mode", "explicit"]
    assert main(argv) == 2
    assert "m*|S|^m = 125452800 <= 100000000" in capsys.readouterr().err
    # construct-cover always verifies its family, so it refuses above the cap
    assert main(["construct-cover", "M11", "-m", "3", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "m*|S|^m = 1490379264000 <= 100000000" in captured.err
    with pytest.raises(SystemExit) as exc:
        main(["construct-cover", "A5", "-m", "2", "--no-verify"])
    assert exc.value.code == 2
    # symbolic mode is auto's choice above 10^7, not a user's
    argv = ["verify-unbeatable", "A5", "--sigma-spec", "orders:5,3",
            "--families", "D10,S3", "-m", "2", "--mode", "symbolic"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()
    # m = 0 fails before any search, with the message every command gives
    for argv in (["construct-cover", "A5", "-m", "0"], ["formula", "alpha", "-m", "0"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err == "error: m >= 1 required\n" and captured.out == "", argv


def test_json_byte_determinism_across_threads(capsys, _cache_dir):
    outputs = []
    for threads in ("1", "4"):
        status, out = run_cli(
            ["construct-cover", "A5", "-m", "2", "--threads", threads, "--json"],
            capsys,
        )
        assert status == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_human_rendering(capsys):
    status, out = run_cli(["formula", "c1", "-m", "2"], capsys)
    assert status == 0
    assert "value: 266" in out
