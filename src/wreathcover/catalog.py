"""Built-in group catalog and the group spec file loader.

Generators are shipped as cycle-notation data, never as bare orders; every
load re-enumerates the group and re-verifies each maximal class's order and
class size against the recorded values, so transcription errors in the data
raise ``InputError`` at load time, as do an unknown name and a spec file
that does not parse.

Maximality and completeness of the catalog classes are trusted data here:
the test suite checks the built-in lists against the subgroup lattice, and
nothing checks a spec file's, so a verdict on one is conditional on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import InputError
from .groups import GroupTable, SubgroupClass, conjugate_class, subgroup_closure
from .perm import Perm


@dataclass(frozen=True)
class MaximalClassSpec:
    label: str
    generators: tuple[str, ...]
    expected_order: int
    expected_class_size: int


@dataclass(frozen=True)
class GroupSpec:
    name: str
    degree: int
    generators: tuple[str, ...]
    maximal_classes: tuple[MaximalClassSpec, ...]


@dataclass
class CatalogGroup:
    """An enumerated group plus its verified maximal-subgroup classes."""

    spec: GroupSpec
    table: GroupTable
    maximal_classes: list[SubgroupClass]

    def classes_by_label(self) -> dict[str, SubgroupClass]:
        return {c.label: c for c in self.maximal_classes}


BUILTIN_SPECS: dict[str, GroupSpec] = {
    "A5": GroupSpec(
        name="A5",
        degree=5,
        generators=("(1 2 3 4 5)", "(1 2 3)"),
        maximal_classes=(
            MaximalClassSpec("A4", ("(3 4 5)", "(2 3)(4 5)"), 12, 5),
            MaximalClassSpec("D10", ("(2 3)(4 5)", "(1 2)(3 4)"), 10, 6),
            MaximalClassSpec("S3", ("(2 3)(4 5)", "(1 2)(4 5)"), 6, 10),
        ),
    ),
    "A6": GroupSpec(
        name="A6",
        degree=6,
        generators=("(1 2 3 4 5)", "(4 5 6)"),
        maximal_classes=(
            MaximalClassSpec("A5", ("(3 4)(5 6)", "(2 5 3)"), 60, 6),
            MaximalClassSpec("PSL(2,5)", ("(3 4)(5 6)", "(1 2 3)(4 5 6)"), 60, 6),
            MaximalClassSpec("3^2:4", ("(3 4)(5 6)", "(1 4)(2 5 3 6)"), 36, 10),
            MaximalClassSpec("S4", ("(3 4)(5 6)", "(1 3 2)"), 24, 15),
            MaximalClassSpec("S4'", ("(3 4)(5 6)", "(1 6 3)(2 4 5)"), 24, 15),
        ),
    ),
    "PSL(2,7)": GroupSpec(
        name="PSL(2,7)",
        degree=8,
        generators=("(1 2 3 4 5 6 7)", "(1 8)(2 7)(3 4)(5 6)"),
        maximal_classes=(
            MaximalClassSpec("7:3", ("(3 7 8)(4 6 5)", "(2 3 5)(4 7 6)"), 21, 8),
            MaximalClassSpec(
                "S4", ("(2 3 5)(4 7 6)", "(1 2)(3 4)(5 7)(6 8)"), 24, 7
            ),
            MaximalClassSpec(
                "S4'", ("(2 4 8)(3 6 7)", "(1 2)(3 4)(5 7)(6 8)"), 24, 7
            ),
        ),
    ),
    "PSL(2,11)": GroupSpec(
        name="PSL(2,11)",
        degree=12,
        generators=("(1 2 3 4 5 6 7 8 9 10 11)", "(1 12)(2 11)(3 6)(4 8)(5 9)(7 10)"),
        maximal_classes=(
            MaximalClassSpec(
                "11:5",
                ("(3 4 10 11 7)(5 12 9 6 8)", "(2 9 3 8 4)(6 7 10 11 12)"),
                55,
                12,
            ),
            MaximalClassSpec(
                "D12",
                (
                    "(1 2)(3 5)(4 8)(6 10)(7 12)(9 11)",
                    "(1 5)(2 11)(3 7)(4 12)(6 8)(9 10)",
                ),
                12,
                55,
            ),
            MaximalClassSpec(
                "A5",
                (
                    "(1 2)(3 5)(4 8)(6 10)(7 12)(9 11)",
                    "(1 8 5)(2 4 10)(3 9 11)(6 7 12)",
                ),
                60,
                11,
            ),
            MaximalClassSpec(
                "A5'",
                (
                    "(1 2)(3 5)(4 8)(6 10)(7 12)(9 11)",
                    "(1 10 11)(2 6 8)(3 5 9)(4 12 7)",
                ),
                60,
                11,
            ),
        ),
    ),
    "PSL(2,13)": GroupSpec(
        name="PSL(2,13)",
        degree=14,
        generators=(
            "(1 2 3 4 5 6 7 8 9 10 11 12 13)",
            "(1 14)(2 13)(3 7)(4 5)(8 12)(10 11)",
        ),
        maximal_classes=(
            MaximalClassSpec(
                "13:6",
                (
                    "(3 6)(4 12)(5 9)(7 11)(8 14)(10 13)",
                    "(2 4 3)(6 11 9)(7 14 12)(8 13 10)",
                ),
                78,
                14,
            ),
            MaximalClassSpec(
                "D14",
                (
                    "(3 6)(4 12)(5 9)(7 11)(8 14)(10 13)",
                    "(1 14)(2 4)(3 9)(6 12)(7 8)(11 13)",
                ),
                14,
                78,
            ),
            MaximalClassSpec(
                "D12",
                (
                    "(3 6)(4 12)(5 9)(7 11)(8 14)(10 13)",
                    "(1 14)(2 5)(4 11)(6 7)(8 9)(10 13)",
                ),
                12,
                91,
            ),
            MaximalClassSpec(
                "A4",
                (
                    "(3 6)(4 12)(5 9)(7 11)(8 14)(10 13)",
                    "(1 10 11)(2 13 7)(4 6 12)(5 9 8)",
                ),
                12,
                91,
            ),
        ),
    ),
    "M11": GroupSpec(
        name="M11",
        degree=11,
        generators=("(1 2 3 4 5 6 7 8 9 10 11)", "(3 7 11 8)(4 10 5 6)"),
        maximal_classes=(
            MaximalClassSpec(
                "M10", ("(4 10)(5 8)(6 7)(9 11)", "(1 4 6 3)(7 10 8 9)"), 720, 11
            ),
            MaximalClassSpec(
                "PSL(2,11)",
                ("(4 10)(5 8)(6 7)(9 11)", "(1 3 11)(2 6 4)(8 9 10)"),
                660,
                12,
            ),
            MaximalClassSpec(
                "M9:2", ("(4 10)(5 8)(6 7)(9 11)", "(1 11 7 6)(2 3 10 9)"), 144, 55
            ),
            MaximalClassSpec(
                "S5", ("(4 10)(5 8)(6 7)(9 11)", "(1 3 6 9)(2 10 5 4)"), 120, 66
            ),
            MaximalClassSpec(
                "M8:S3",
                ("(4 10)(5 8)(6 7)(9 11)", "(1 8 5)(2 4 11)(3 7 9)"),
                48,
                165,
            ),
        ),
    ),
}

BUILTIN_NAMES = tuple(BUILTIN_SPECS)


def parse_group_file(path: str | Path) -> GroupSpec:
    """Load a group spec file (YAML: name, degree, generators,
    optional maximal_classes with label/generators/expected_order/
    expected_class_size).  yaml is imported here, as only a spec file
    needs it."""
    import yaml

    # a byte stream: yaml decodes it, and a bad byte is a YAMLError
    with open(path, "rb") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise InputError(f"group file {path} is not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"group file {path} is not a mapping")

    # checked, not cast: 5.9 and true are no degree, a string no generator
    # or class list, and a list no name, label or class
    def whole(entry: dict, key: str) -> int:
        if type(entry[key]) is not int:
            raise InputError(f"group file {path} gives {key} {entry[key]!r}, not an int")
        return entry[key]

    def text(entry: dict, key: str) -> str:
        if type(entry[key]) is not str:
            raise InputError(f"group file {path} gives {key} {entry[key]!r}, not a string")
        return entry[key]

    def cycle_strings(entry: dict) -> tuple[str, ...]:
        value = entry["generators"]
        if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
            raise InputError(f"group file {path} gives generators {value!r}, not a list of strings")
        return tuple(value)

    def class_list(value) -> list:
        if value is not None and not isinstance(value, list):
            raise InputError(f"group file {path} gives maximal_classes {value!r}, not a list")
        return value or []

    def mapping(entry) -> dict:
        if not isinstance(entry, dict):
            raise InputError(f"group file {path} gives maximal class {entry!r}, not a mapping")
        return entry

    try:
        name = text(data, "name")
        degree = whole(data, "degree")
        generators = cycle_strings(data)
        classes = [
            MaximalClassSpec(
                label=text(entry, "label"),
                generators=cycle_strings(entry),
                expected_order=whole(entry, "expected_order"),
                expected_class_size=whole(entry, "expected_class_size"),
            )
            for entry in map(mapping, class_list(data.get("maximal_classes")))
        ]
    except KeyError as exc:
        raise InputError(f"group file {path} missing key {exc}") from exc
    labels = [c.label for c in classes]
    repeated = sorted({lab for lab in labels if labels.count(lab) > 1})
    if repeated:
        raise InputError(f"group file {path} repeats maximal class labels {repeated}")
    return GroupSpec(name, degree, generators, tuple(classes))


def resolve_spec(source: str) -> GroupSpec:
    """A built-in name, or a path to a group spec file."""
    if source in BUILTIN_SPECS:
        return BUILTIN_SPECS[source]
    p = Path(source)
    if p.exists():
        return parse_group_file(p)
    raise InputError(
        f"unknown group {source!r}; built-ins: {', '.join(BUILTIN_NAMES)}"
    )


def load(source: str) -> CatalogGroup:
    """Load and verify a catalog group (built-in name or spec file path).
    Every call enumerates the group again; ``pipelines.load_group`` is the
    cache."""
    spec = resolve_spec(source)
    gens = [Perm.from_cycles(s, spec.degree) for s in spec.generators]
    table = GroupTable.from_generators(gens, name=spec.name)
    classes = []
    for mc in spec.maximal_classes:
        ids = [table.id_of(Perm.from_cycles(s, spec.degree)) for s in mc.generators]
        handle = subgroup_closure(table, ids)
        if handle.size != mc.expected_order:
            raise InputError(
                f"{spec.name}/{mc.label}: generators give order {handle.size}, "
                f"catalog records {mc.expected_order}"
            )
        cls = conjugate_class(table, handle, mc.label)
        if cls.class_size != mc.expected_class_size:
            raise InputError(
                f"{spec.name}/{mc.label}: class size {cls.class_size}, "
                f"catalog records {mc.expected_class_size}"
            )
        classes.append(cls)
    return CatalogGroup(spec=spec, table=table, maximal_classes=classes)
