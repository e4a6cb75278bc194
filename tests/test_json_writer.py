"""The CLI's JSON writer against ``json.dumps(indent=2, sort_keys=True)``.

Every command prints its JSON through the writer, so any byte it gets wrong
shows in the output; the standard library encoder is the oracle.
"""

import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

from statindex.cli import _json_text  # noqa: E402

FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072e-308,
                     1e-320, 1.7976931348623157e308, 1e16, 1e-7]),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    FLOATS,
    st.text(),
    st.text(alphabet="éÿ☃\U0001f600\"\\/\b\f\n\r\t\x00\x1f\x7f"),
)
KEYS = st.one_of(st.text(), st.text(alphabet="ä☃\"\\\n\t"))


def _nested(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(FLOATS, max_size=6),
        st.dictionaries(KEYS, children, max_size=6),
    )


VALUES = st.recursive(SCALARS, _nested, max_leaves=40)


def _dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


@settings(max_examples=150, deadline=None)
@given(VALUES)
def test_writer_matches_json_dumps(value):
    assert _json_text(value) == _dumps(value)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(), SCALARS, max_size=5),
       st.dictionaries(st.floats(allow_nan=False), SCALARS, max_size=5))
def test_number_keys_are_converted_as_json_does(int_keyed, float_keyed):
    assert _json_text(int_keyed) == _dumps(int_keyed)
    assert _json_text(float_keyed) == _dumps(float_keyed)


@pytest.mark.parametrize("value", [
    {None: 1},
    {False: 0.5},
    {True: [1.0, math.inf]},
    {math.nan: "x"},
    {"a": (1.0, 2.5), "b": ((), (None, "x"))},
])
def test_literal_keys_and_tuples(value):
    assert _json_text(value) == _dumps(value)


@pytest.mark.parametrize("value", [
    {"a": object()},
    [1.0, {1, 2}],
    {(1, 2): 3},
    {"a": 1, 2: "b"},
    {None: 1, True: 2},
])
def test_rejects_what_json_rejects(value):
    with pytest.raises(TypeError) as ours:
        _json_text(value)
    with pytest.raises(TypeError) as theirs:
        _dumps(value)
    assert str(ours.value) == str(theirs.value)
