import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wreathcover.report import to_json

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
