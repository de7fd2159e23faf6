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


@pytest.mark.parametrize("bad", [{1: 2}, {"a": {None: 1}}, {("a",): 1}, {"a": {1, 2}}, [Fraction(1, 2)], b"x",
                                 [{"a": 1}] * 8 + [{1: 2}], [{"a": 1}] * 8 + [{"a": Fraction(1, 2)}]])
def test_writer_refuses_non_str_keys_and_unknown_types(bad):
    with pytest.raises(TypeError):
        emitted(bad)


# -- lists of flat records, which the writer hands to json's C encoder


class Key(str):
    pass


# text that looks like the separators and record boundaries the C path
# rewrites: a raw newline or quote inside a string is escaped, so none of
# these may be taken for a boundary
RECORD_TEXT = st.one_of(
    TEXT,
    st.sampled_from(["}", "{", ",", ":", '"', "\\", "\n", "\x00\x01\x1f", "é", "\U0001f600", "},\n  {",
                     "},\n    {", '": ', "}, {", "\n  },\n  {\n    "]),
)
RECORD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**200, max_value=2**260),
    st.integers(min_value=-(2**260), max_value=-(2**200)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]),
    RECORD_TEXT,
)
RECORDS = st.dictionaries(RECORD_TEXT, RECORD_VALUES, min_size=1, max_size=5)
# a record with one str-subclass key or value, which keeps the recursive path
SUBCLASSED = RECORDS.flatmap(lambda r: st.sampled_from([
    {Key(k) if n == 0 else k: v for n, (k, v) in enumerate(r.items())},
    {k: Key(v) if n == 0 and isinstance(v, str) else v for n, (k, v) in enumerate(r.items())},
]))
NOT_RECORDS = st.one_of(st.just({}), SCALARS, SUBCLASSED, st.lists(SCALARS, max_size=2),
                        st.dictionaries(RECORD_TEXT, st.lists(SCALARS, max_size=2), min_size=1, max_size=2))
RECORD_LISTS = st.one_of(
    st.lists(RECORDS, max_size=14),
    st.lists(RECORDS, min_size=8, max_size=14).map(tuple),
    st.lists(st.one_of(RECORDS, RECORDS, RECORDS, NOT_RECORDS), max_size=14),
)


@st.composite
def nested_record_lists(draw):
    """A list of records under 0 to 3 levels of lists and dicts."""
    x = draw(RECORD_LISTS)
    for _ in range(draw(st.integers(0, 3))):
        x = draw(st.sampled_from([[x], (x, 0), {"r": x, "a": [x]}, {"z": [x, {}]}]))
    return x


@settings(max_examples=400, deadline=None)
@given(nested_record_lists())
def test_writer_matches_json_dumps_on_record_lists(tree):
    assert emitted(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


def _encode_calls(monkeypatch, payload) -> int:
    """The number of ``_encode`` calls that writing ``payload`` makes, the
    recursive ones included."""
    from kronflow import cli

    calls = 0
    encode = cli._encode

    def counting(*args):
        nonlocal calls
        calls += 1
        encode(*args)

    with monkeypatch.context() as m:
        m.setattr(cli, "_encode", counting)
        emitted(payload)
    return calls


def test_writer_routes_flat_record_lists_to_one_call(monkeypatch):
    records = [{"op": "swap", "pass": k, "i": 1, "j": k + 2} for k in range(9)]
    assert _encode_calls(monkeypatch, records) == 1
    # a str-subclass value, an empty record, a nested value or an item that
    # is not a dict keeps the recursive path
    for odd in ({"op": Key("swap")}, {}, {"op": [1]}, 5, [1], OrderedDict(op="x")):
        tree = records + [odd]
        assert _encode_calls(monkeypatch, tree) > 10
        assert emitted(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("top", [1000, 10**6])
def test_reduce_payload_writes_its_trail_in_one_call(monkeypatch, top):
    """A 30-entry nu's trail, however many steps it has, costs the writer one
    ``_encode`` call: the number of calls does not grow with the trail."""
    import random

    from kronflow.exact_linalg import IntVecFin
    from kronflow.resonance_reduction import reduce_vector

    rng = random.Random(top)
    nu = IntVecFin.from_list([rng.choice((-1, 1)) * rng.randint(1, top) for _ in range(30)])
    payload = reduce_vector(nu).to_json()
    payload["input"] = nu.to_json()
    steps = payload.pop("steps")
    assert len(steps) > 100
    without = _encode_calls(monkeypatch, payload)
    payload["steps"] = steps
    assert _encode_calls(monkeypatch, payload) == without + 1
    assert emitted(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"
