import numpy as np
import pytest

from wreathcover import InputError, catalog
from wreathcover.perm import Perm
from wreathcover.pipelines import load_group


def test_builtin_names():
    assert set(catalog.BUILTIN_NAMES) == {
        "A5",
        "A6",
        "PSL(2,7)",
        "PSL(2,11)",
        "PSL(2,13)",
        "M11",
    }


@pytest.mark.parametrize(
    "name,order,classes",
    [
        ("A5", 60, {("A4", 12, 5), ("D10", 10, 6), ("S3", 6, 10)}),
        (
            "A6",
            360,
            {
                ("A5", 60, 6),
                ("PSL(2,5)", 60, 6),
                ("3^2:4", 36, 10),
                ("S4", 24, 15),
                ("S4'", 24, 15),
            },
        ),
        ("PSL(2,7)", 168, {("7:3", 21, 8), ("S4", 24, 7), ("S4'", 24, 7)}),
        (
            "PSL(2,11)",
            660,
            {("11:5", 55, 12), ("D12", 12, 55), ("A5", 60, 11), ("A5'", 60, 11)},
        ),
        (
            "PSL(2,13)",
            1092,
            {("13:6", 78, 14), ("D14", 14, 78), ("D12", 12, 91), ("A4", 12, 91)},
        ),
        (
            "M11",
            7920,
            {
                ("M10", 720, 11),
                ("PSL(2,11)", 660, 12),
                ("M9:2", 144, 55),
                ("S5", 120, 66),
                ("M8:S3", 48, 165),
            },
        ),
    ],
)
def test_catalog_loads_and_verifies(name, order, classes):
    cg = catalog.load(name)
    assert cg.table.order == order
    assert {(c.label, c.order, c.class_size) for c in cg.maximal_classes} == classes


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_order_matches_schreier_sims(name):
    # an independent oracle for the enumeration and its key lookup:
    # sympy's Schreier-Sims order of the same generators
    from sympy.combinatorics import Permutation, PermutationGroup

    spec = catalog.BUILTIN_SPECS[name]
    gens = [Perm.from_cycles(s, spec.degree) for s in spec.generators]
    expected = PermutationGroup([Permutation(list(p.images)) for p in gens]).order()
    assert load_group(name).table.order == expected


def test_m11_reference_counts(m11):
    g = m11.table
    o8 = g.elements_with_order(8)
    o11 = g.elements_with_order(11)
    expected = {
        "M10": (180, 0),
        "PSL(2,11)": (0, 120),
        "M9:2": (36, 0),
        "S5": (0, 0),
        "M8:S3": (12, 0),
    }
    for cls in m11.maximal_classes:
        rep = cls.representative
        got = (
            int(np.isin(o8, rep.member_ids).sum()),
            int(np.isin(o11, rep.member_ids).sum()),
        )
        assert got == expected[cls.label], cls.label


def test_m10_is_point_stabilizer_sized(m11):
    # M10 occurs as a one-point stabilizer in the natural degree-11 action
    m10 = m11.classes_by_label()["M10"].representative
    fixed = [
        pt
        for pt in range(11)
        if all(int(m11.table.images[e][pt]) == pt for e in m10.member_ids.tolist())
    ]
    assert len(fixed) == 1


def test_psl213_a4_vs_d12_distinguished(catalog_group=None):
    cg = catalog.load("PSL(2,13)")
    orders = {}
    for cls in cg.maximal_classes:
        if cls.order == 12:
            rep = cls.representative
            elt_orders = sorted(
                set(int(cg.table.element_orders()[e]) for e in rep.member_ids.tolist())
            )
            orders[cls.label] = elt_orders
    assert orders["D12"] == [1, 2, 3, 6]
    assert orders["A4"] == [1, 2, 3]


def test_unknown_name_rejected():
    with pytest.raises(InputError):
        catalog.load("M12")


def test_bad_catalog_data_rejected(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        """
name: A5broken
degree: 5
generators:
  - "(1 2 3 4 5)"
  - "(1 2 3)"
maximal_classes:
  - label: A4
    generators: ["(3 4 5)", "(2 3)(4 5)"]
    expected_order: 13
    expected_class_size: 5
""",
        encoding="utf-8",
    )
    with pytest.raises(InputError, match="order"):
        catalog.load(str(bad))


def test_group_file_roundtrip(tmp_path):
    spec = tmp_path / "a5.yaml"
    spec.write_text(
        """
name: MyA5
degree: 5
generators:
  - "(1 2 3 4 5)"
  - "(1 2 3)"
maximal_classes:
  - label: A4
    generators: ["(3 4 5)", "(2 3)(4 5)"]
    expected_order: 12
    expected_class_size: 5
""",
        encoding="utf-8",
    )
    cg = catalog.load(str(spec))
    assert cg.table.order == 60
    assert cg.maximal_classes[0].label == "A4"
    assert cg.maximal_classes[0].class_size == 5


def test_catalog_reload_deterministic(m11):
    again = catalog.load("M11")
    assert again.table.canonical_hash() == m11.table.canonical_hash()
    for c1, c2 in zip(again.maximal_classes, m11.maximal_classes):
        assert c1.representative.canonical_key == c2.representative.canonical_key


def test_repeated_class_label_rejected(tmp_path, capsys):
    # A4 and D10 both labelled X: a later X would shadow the earlier one in
    # every lookup by label, so the file is refused before any group loads
    import json

    from wreathcover.cli import main

    a5 = catalog.BUILTIN_SPECS["A5"]
    labels = {"A4": "X", "D10": "X"}
    spec = tmp_path / "a5-twice.yaml"
    spec.write_text(json.dumps({
        "name": "A5",
        "degree": a5.degree,
        "generators": list(a5.generators),
        "maximal_classes": [
            {"label": labels.get(c.label, c.label), "generators": list(c.generators),
             "expected_order": c.expected_order, "expected_class_size": c.expected_class_size}
            for c in a5.maximal_classes
        ],
    }))
    with pytest.raises(InputError, match=r"repeats maximal class labels \['X'\]"):
        catalog.parse_group_file(spec)
    for argv in (["catalog", str(spec)],
                 ["verify-unbeatable", str(spec), "--sigma-spec", "orders:5,3",
                  "--families", "X,S3", "-m", "1"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: group file {spec} repeats maximal class labels ['X']\n"


_A5_SPEC = """name: A5
degree: 5
generators: ["(1 2 3 4 5)", "(1 2 3)"]
maximal_classes:
  - {label: A4, generators: ["(3 4 5)", "(2 3)(4 5)"], expected_order: 12, expected_class_size: 5}
"""


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("degree: 5", "degree: 5.9", "gives degree 5.9, not an int"),
        ("degree: 5", "degree: true", "gives degree True, not an int"),
        ('generators: ["(1 2 3 4 5)", "(1 2 3)"]', 'generators: "(1 2 3 4 5)"',
         "gives generators '(1 2 3 4 5)', not a list of strings"),
        ('generators: ["(1 2 3 4 5)", "(1 2 3)"]', 'generators: ["(1 2 3 4 5)", 7]',
         "gives generators ['(1 2 3 4 5)', 7], not a list of strings"),
        ('generators: ["(3 4 5)", "(2 3)(4 5)"]', 'generators: "(3 4 5)"',
         "gives generators '(3 4 5)', not a list of strings"),
        ("expected_order: 12", "expected_order: 12.7", "gives expected_order 12.7, not an int"),
        ("expected_class_size: 5", "expected_class_size: 5.2",
         "gives expected_class_size 5.2, not an int"),
    ],
)
def test_spec_numbers_and_lists_are_checked_not_cast(tmp_path, capsys, old, new, message):
    # a float or a bool is no int and a string is no list: each was once
    # cast (5.9 to 5, true to 1) or read one character at a time
    from wreathcover.cli import main

    spec = tmp_path / "a5.yaml"
    assert old in _A5_SPEC
    spec.write_text(_A5_SPEC.replace(old, new, 1), encoding="utf-8")
    assert main(["catalog", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: group file {spec} {message}\n"
    spec.write_text(_A5_SPEC, encoding="utf-8")
    assert main(["catalog", str(spec)]) == 0
