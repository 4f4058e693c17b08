import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wreathcover.report import render_human, to_json

# keys and strings: non-ASCII, quotes, backslashes and control characters
_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\n\té \U0001f600'),
        st.characters(max_codepoint=0x2FFF),
    ),
    max_size=8,
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    # longer than 4,300 digits: str() refuses them under the default limit
    st.integers(min_value=1, max_value=3).map(lambda k: -k * 7**6000),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e300, float("nan"), float("inf"), float("-inf")]),
    _TEXT,
)
_REPORTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(_TEXT, _REPORTS, max_size=5))
@example({
    'k\u00e9y "q" \\ \x01\n': [-0.0, 1e300, float("nan"), float("inf"), -(10**5000)],
    "flags": (True, False, None, 0, 1),
    "empty": [{}, [], ()],
})
def test_to_json_matches_indented_json_dumps(report):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expect = json.dumps(report, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
        assert to_json(report) == expect
    finally:
        sys.set_int_max_str_digits(limit)


def test_to_json_refuses_a_non_str_key():
    with pytest.raises(TypeError):
        to_json({"a": {1: "x"}})
    with pytest.raises(TypeError):
        to_json({"a": [1, {2}]})


def test_render_human_flattens_a_report():
    # keys dotted and sorted level by level, a list holding a dict or a list
    # indexed, a list of scalars joined by ", ", and an empty list printed
    # with nothing after its key
    report = {
        "b": {"z": 1, "a": [{"passed": True, "condition": "C0"}, {"condition": "C1"}]},
        "a": [3, "x", None],
        "c": [],
        "d": {"e": [], "f": [1, {"k": 2}], "g": [[1, 2], [3]]},
    }
    assert render_human(report) == (
        "a: 3, x, None\n"
        "b.a.0.condition: C0\n"
        "b.a.0.passed: True\n"
        "b.a.1.condition: C1\n"
        "b.z: 1\n"
        "c: \n"
        "d.e: \n"
        "d.f.0: 1\n"
        "d.f.1.k: 2\n"
        "d.g.0: 1, 2\n"
        "d.g.1: 3\n"
    )


def test_render_human_is_the_default_output(capsys):
    from wreathcover.cli import main

    assert main(["verify-c1", "-m", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 67
    assert lines[0] == "certificate.family: M10, PSL(2,11)"
    assert lines[-1] == "warnings: "
    for line in (
        "certificate.seed_conditions.conditions.0.condition: C0 conjugation-closed",
        "certificate.seed_conditions.conditions.5.passed: True",
        "certificate.seed_conditions.notes: ",
        "certificate.unbeatability.assumptions: ",
        "certificate.unbeatability.outsider_max.class: M9:2",
        "expected_seed_per_member.PSL(2,11): 120",
        "formula_value: 23",
    ):
        assert line in lines
    keys = [line.split(": ", 1)[0] for line in lines]
    assert keys == sorted(keys)
