"""The CLI's JSON writer against ``json.dumps(indent=2, sort_keys=True)``.

Every command prints its JSON through the writer, so any byte it gets wrong
shows in the output; the standard library encoder is the oracle.
"""

import json
import math
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

from statindex.cli import _RECORD_SLICE, _json_text, main  # noqa: E402
from statindex.statmech import (  # noqa: E402
    LevelSystem, LevelTable, correspondence_check, grand_ensemble,
)

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


# Lists of dicts that share one set of str keys and hold only floats, the
# shape of the stats per-level arrays; VALUES almost never generates one.
# Written as a LevelTable, they go through one row template per table.
RECORD_KEYS = st.one_of(KEYS, st.text(alphabet="ab%s\"\\é☃\U0001f600\n", max_size=4))
RECORDS = st.lists(RECORD_KEYS, min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: st.lists(st.fixed_dictionaries({key: FLOATS for key in keys}),
                          min_size=1, max_size=8)
)


@settings(max_examples=150, deadline=None)
@given(RECORDS)
def test_records_match_json_dumps(records):
    assert _json_text(records) == _dumps(records)
    nested = {"per_level": records}
    assert _json_text(nested) == _dumps(nested)
    assert _json_text({"per_level": _table(records)}) == _dumps(nested)


def _table(records, step=3):
    """``records`` as a ``LevelTable`` of ``step`` records a slice."""
    keys = tuple(sorted(records[0]))
    return LevelTable(keys, len(records), lambda: (
        tuple([record[key] for record in records[at:at + step]] for key in keys)
        for at in range(0, len(records), step)))


class _Float(float):
    def __repr__(self):
        return "not json"


@pytest.mark.parametrize("records", [
    [{"a": 1.0, "b": 2.0}, {"a": 3.0}],
    [{"a": 1.0, "b": 2.0}, {"a": 3.0, "c": 4.0}],
    [{"a": 1.0}, {"a": 3.0, "b": 4.0}],
    [{"a": 1.0, "b": 2.0}, {"a": 3.0, "b": 4}],
    [{"a": 1.0, "b": 2.0}, {"a": 3.0, "b": True}],
    [{"a": 1.0}, {"a": _Float(2.5)}],
    [{"a": _Float(2.5)}, {"a": 1.0}],
    [{}],
    [{"a": 1.0}, {}],
    [{"a": 1.0}, None],
    [{"a": 1.0}, [1.0]],
    [{1: 1.0}, {1: 2.0}],
    [{"a": "x"}, {"a": 1.0}],
    [[{"a": 1.0}, {"a": -0.0}]],
])
def test_near_records_fall_back(records):
    assert _json_text(records) == _dumps(records)


@pytest.mark.parametrize("at", [_RECORD_SLICE - 1, _RECORD_SLICE, 2 * _RECORD_SLICE])
@pytest.mark.parametrize("misfit", [{"a": 1}, {"b": 1.0}], ids=["int", "other-key"])
def test_records_misfit_in_a_later_slice_falls_back(at, misfit):
    records = [{"a": i / 7} for i in range(2 * _RECORD_SLICE + 1)]
    assert _json_text(records) == _dumps(records)
    records[at] = misfit
    assert _json_text(records) == _dumps(records)


def test_records_sort_keys_of_every_item():
    records = [{"b": 1.0, "a%s": math.inf}, {"a%s": math.nan, "b": 5e-324}]
    assert _json_text(records) == _dumps(records)
    assert _json_text(_table(records, 1)) == _dumps(records)


@pytest.mark.parametrize("check", [[], ["--check-correspondence"]], ids=["plain", "check"])
def test_large_stats_json_is_json_dumps(tmp_path, capsys, check):
    rng = random.Random(10)
    levels = [rng.uniform(-5.0, 20.0) for _ in range(10**4)]
    levels[4321] = -800.0  # its per-level Xi is Infinity
    data = {"levels": levels, "mu": 0.25, "beta": 1.5, "statistics": "FD"}
    path = tmp_path / "levels.json"
    path.write_text(json.dumps(data))
    assert main(["--format", "json", "stats", str(path)] + check) == 0
    out = capsys.readouterr().out
    system = LevelSystem.from_json_dict(data)
    report = grand_ensemble(system)
    payload = report.to_json_dict()
    if check:
        payload["correspondence"] = correspondence_check(system, ensemble=report).to_json_dict()
    assert "Infinity" in out
    assert out == _dumps(payload) + "\n"
