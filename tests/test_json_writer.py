"""The CLI's JSON writer gives the bytes of ``json.dumps(sort_keys=True,
indent=2)`` on every JSON tree, and refuses what it cannot write."""

import contextlib
import io
import json
from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronflow.cli import _emit

TEXT = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé \U0001f600')),
    max_size=8,
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**200, max_value=2**260),
    st.integers(min_value=-(2**260), max_value=-(2**200)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324]),
    TEXT,
)
TREES = st.recursive(
    SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.dictionaries(TEXT, kids, max_size=5),
        st.lists(st.one_of(st.integers(), st.integers(min_value=2**200), st.booleans()), max_size=6),
        st.lists(TEXT, max_size=6),
        st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=6),
    ),
    max_leaves=40,
)


def emitted(payload) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(payload)
    return out.getvalue()


@settings(max_examples=400, deadline=None)
@given(TREES)
def test_writer_matches_json_dumps(tree):
    assert emitted(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


def test_writer_nested_empties_and_tuples():
    tree = {"a": {}, "b": [], "c": [[], {}, ()], "d": ({"e": ()},), "": [{"": {}}]}
    assert emitted(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


def test_writer_subclasses_of_json_types():
    class Key(str):
        pass

    class Big(int):
        def __repr__(self):
            return "not json"

    class Real(float):
        def __repr__(self):
            return "not json"

    tree = OrderedDict([(Key("b"), [Big(7), Real(0.5), Key("v")]), ("a", Big(-3)), ("c", IntEnum("E", "X").X)])
    assert emitted(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"
    assert emitted(Big(2)) == "2\n"


@pytest.mark.parametrize("bad", [{1: 2}, {"a": {None: 1}}, {("a",): 1}, {"a": {1, 2}}, [Fraction(1, 2)], b"x"])
def test_writer_refuses_non_str_keys_and_unknown_types(bad):
    with pytest.raises(TypeError):
        emitted(bad)
