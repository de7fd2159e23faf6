"""CLI contract under mutated input: the README specs (one of each kind, plus
the bo spec with declared generators) and the README polynomial have values
swapped for another JSON type or fields dropped, then go through
``classify``, ``resonance``, ``bo`` and ``average`` in-process.  Whatever the
input, the exit code is 0, 1 or 2, nothing escapes as a traceback, and every
exit 1 comes with an ``error:`` line."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from kronflow.cli import main

README_SPECS = [
    {"kind": "finite", "terms": [{"1": "1"}, {"sqrt2": "1"}, {"1": "1/3"}]},
    {"kind": "solenoid", "generator": "1", "a": {"prefix": [1, 2], "tail": {"constant": 2}}},
    {"kind": "bo", "beta": {"name": "beta", "kind": "opaque"},
     "s": {"prefix": ["1/3"], "tail": {"c": "1/2", "r": "1/2"}}},
    {"kind": "bo", "generators": [{"name": "b", "kind": "opaque"}], "beta": "b",
     "s": {"prefix": ["1/3"], "tail": {"c": "1/2", "r": "1/2"}}},
    {"kind": "product", "components": [{"free": "1"}, {"qa": {"prefix": [1], "tail": {"constant": 2}}}]},
]
README_POLY = {"terms": [{"const": "3"}, {"cos": {"1": 1, "2": -1}, "scale": "2"}]}

# small values of every JSON type: a swap changes a value's type, never the size of the request
SWAPS = [None, True, 0, 2, 1.5, "x", "1/2", [], ["x"], {}, {"x": 1}]
DROP = object()


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutate(data, doc, max_mutations):
    for _ in range(data.draw(st.integers(0, max_mutations))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        op = data.draw(st.sampled_from(SWAPS + [DROP]))
        if not path:  # the document itself: dropping it leaves null
            doc = copy.deepcopy(None if op is DROP else op)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if op is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(op)
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_contract_under_mutated_readme_specs(data):
    spec = _mutate(data, copy.deepcopy(data.draw(st.sampled_from(README_SPECS))), 3)
    poly = _mutate(data, copy.deepcopy(README_POLY), 2)
    command = data.draw(st.sampled_from(["classify", "resonance", "bo", "average"]))
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "spec.json"
        spec_path.write_text(json.dumps(spec))
        argv = [command, str(spec_path), "--depth", "4"]
        if command == "average":
            poly_path = Path(tmp) / "poly.json"
            poly_path.write_text(json.dumps(poly))
            argv += ["--poly", str(poly_path)]
        code, err = _run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert any(line.startswith("error:") for line in err.splitlines())
