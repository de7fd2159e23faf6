"""Exit 1 with one exact ``error:`` line and no traceback, for each input a
validation rule names: sequence rules, builtin generator names, empty or
malformed flags, unreadable or over-nested files, an unwritable ``--out``
and a product component with both ``free`` and ``qa``; the same for a usage
error, which argparse alone would end with its usage banner and exit 2.
Also: exact integers past CPython's 4300-digit str conversion limit are read
and written, and the limit is left as it was."""

import contextlib
import io
import json
import re
import sys

import pytest

from kronflow.cli import main
from kronflow.errors import ValidationError
from kronflow.frequency import SigmaSequence, parse_frequency_spec

DEEP = "[" * 100_000 + "]" * 100_000
RECURSION = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
FINITE = '{"kind": "finite", "terms": [{"1": "1"}, {"sqrt2": "1"}]}'

# files written under tmp_path before each case; "@name" in an argv entry or a
# message stands for the path of file "name" (absent names are never written)
FILES = {
    "finite": FINITE.encode(),
    "not_utf8": b"\xff\xfe{}",
    "deep": DEEP.encode(),
    "sqrt_junk": b'{"kind": "finite", "terms": [{"sqrtx": "1"}]}',
    "pi_junk": b'{"kind": "finite", "terms": [{"pi^x": "1"}]}',
    "free_and_qa": b'{"kind": "product", "components": [{"free": "1", "qa": {"prefix": [1], "tail": {"constant": 2}}}]}',
}


def _member(a):
    return ["solenoid", "member", "--a", a, "--theta", "1/2,1/4"]


CASES = {
    # SigmaSequence rules
    "entry <= 1 after a_1": (_member("1,1"), "sequence entries after a_1 must exceed 1"),
    "constant tail <= 1": (
        _member('{"prefix": [1], "tail": {"constant": 1}}'), "constant tail needs a single value > 1"),
    "empty periodic tail": (_member('{"prefix": [1], "tail": {"periodic": []}}'), "periodic tail needs values > 1"),
    "unknown tail": (_member('{"prefix": [1], "tail": "squares"}'), "unknown sequence tail 'squares'"),
    "malformed tail": (_member('{"prefix": [1], "tail": {"linear": 2}}'), "malformed sequence tail {'linear': 2}"),
    # builtin generator names
    "sqrt<junk>": (["classify", "@sqrt_junk"], "generator name 'sqrtx' is not builtin"),
    "pi^<junk>": (["classify", "@pi_junk"], "generator name 'pi^x' is not builtin"),
    # empty and malformed flags
    "empty --nu": (["reduce", "--nu", ","], "--nu is empty"),
    "empty --a": (_member(","), "--a is empty"),
    "empty --theta": (["solenoid", "member", "--a", "1,2", "--theta", ","], "--theta is empty"),
    "malformed --a JSON": (_member('{"prefix": '), "--a JSON is malformed: Expecting value: line 1 column 11 (char 10)"),
    "member without --theta": (["solenoid", "member", "--a", "1,2"], "solenoid member needs --theta"),
    "coords without --theta": (["solenoid", "coords", "--a", "1,2"], "solenoid coords needs --theta"),
    "times without --tau": (["solenoid", "times", "--a", "1,2", "--digits", "1"], "solenoid times needs --tau"),
    # unreadable files: not UTF-8, nested past the recursion limit, missing
    "spec not UTF-8": (["classify", "@not_utf8"], f"@not_utf8 is not valid JSON: {NOT_UTF8}"),
    "--poly not UTF-8": (["average", "@finite", "--poly", "@not_utf8"], f"@not_utf8 is not valid JSON: {NOT_UTF8}"),
    "bo spec not UTF-8": (["bo", "@not_utf8"], f"@not_utf8 is not valid JSON: {NOT_UTF8}"),
    "spec nested 100000 deep": (["resonance", "@deep"], f"@deep is not valid JSON: {RECURSION}"),
    "--poly nested 100000 deep": (["average", "@finite", "--poly", "@deep"], f"@deep is not valid JSON: {RECURSION}"),
    "--a nested 100000 deep": (_member('{"prefix": ' + DEEP + "}"), f"--a JSON is malformed: {RECURSION}"),
    "missing spec": (["classify", "@missing"], "cannot read file @missing: [Errno 2] No such file or directory: '@missing'"),
    # --out that cannot be written
    "--out in a missing directory": (
        ["simulate", "@finite", "--t1", "1", "--steps", "2", "--out", "@missing/traj.csv"],
        "cannot write @missing/traj.csv: [Errno 2] No such file or directory: '@missing/traj.csv'",
    ),
    "--out onto a directory": (
        ["simulate", "@finite", "--t1", "1", "--steps", "2", "--out", "@dir"],
        "cannot write @dir: [Errno 21] Is a directory: '@dir'",
    ),
    # a product component carries exactly one of 'free' and 'qa'
    "free and qa": (["classify", "@free_and_qa"], "subgroup spec needs exactly one of 'free' or 'qa'"),
}


@pytest.mark.parametrize("argv, message", list(CASES.values()), ids=list(CASES))
def test_validation_error_is_one_exact_line(tmp_path, capsys, argv, message):
    for name, data in FILES.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "dir").mkdir()

    def at(text):
        for name in [*FILES, "missing", "dir"]:
            text = text.replace("@" + name, str(tmp_path / name))
        return text

    before = sorted(tmp_path.rglob("*"))
    code = main([at(arg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.splitlines()[-1] == "error: " + at(message)
    assert sorted(tmp_path.rglob("*")) == before  # a failed --out leaves no file


# argparse's own message for each usage error, as main prints it after "error: "
USAGE_ERRORS = {
    "malformed --precision": (["--precision", "abc", "classify", "S"], "argument --precision: invalid int value: 'abc'"),
    "malformed --depth": (["classify", "S", "--depth", "x"], "argument --depth: invalid int value: 'x'"),
    "missing --t1": (["simulate", "S", "--steps", "3", "--out", "O"], "the following arguments are required: --t1"),
    "unknown subcommand": (["nosuch"], "argument command: invalid choice: 'nosuch' (choose from 'classify', "
                           "'resonance', 'reduce', 'reduce-flow', 'simulate', 'average', 'equidistribution', "
                           "'solenoid', 'bo', 'iso')"),
    "no subcommand": ([], "the following arguments are required: command"),
}


@pytest.mark.parametrize("argv, message", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_usage_error_is_a_validation_error(capsys, argv, message):
    """Exit 1 (returned, not raised) with one ``error:`` line: no usage banner,
    no traceback, nothing on stdout."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.splitlines() == ["error: " + message]
    assert "usage:" not in captured.err and "Traceback" not in captured.err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: kron classify")


@pytest.mark.parametrize("kind", ["increment", "odd_indexed_primes"])
def test_parameterless_tails_reject_parameters(kind):
    # no spec reaches this: a string tail carries no parameters
    with pytest.raises(ValidationError, match=f"^{kind} tail takes no parameters$"):
        SigmaSequence((1,), kind, (2,))


def test_library_spec_string_nested_too_deep_is_validation_error():
    with pytest.raises(ValidationError, match="^spec is not valid JSON: maximum recursion depth"):
        parse_frequency_spec(DEEP)


# -- exact integers past the 4300-digit str conversion limit

FACTORIAL = '{"prefix": [1], "tail": "increment"}'


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _loads(text):
    # the test's own json.loads meets the same limit the CLI lifts
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.loads(text)
    finally:
        sys.set_int_max_str_digits(limit)


def test_factorial_reduce_flow_past_4300_digits(tmp_path, capsys):
    """N! has more than 4300 digits from N = 1560 on; the entries 1700!/j! of
    the depth-1700 transform used to stop the JSON writer with a ValueError."""
    limit = sys.get_int_max_str_digits()
    spec = tmp_path / "factorial.json"
    spec.write_text('{"kind": "solenoid", "a": ' + FACTORIAL + "}")
    code, out = _run(["reduce-flow", str(spec), "--depth", "1700"])
    assert code == 0, capsys.readouterr().err
    doc = _loads(out)
    assert doc["depth"] == 1700
    assert re.search(r"\d{4301}", out)  # an entry of more than 4300 digits
    assert sys.get_int_max_str_digits() == limit


def test_factorial_times_member_round_trip_past_4300_digits(capsys):
    """``times`` writes a target whose angles have denominators up to 1700!,
    and ``member`` reads them back at depth 1700."""
    limit = sys.get_int_max_str_digits()
    digits = ",".join(str(j // 2) for j in range(2, 1701))
    code, out = _run(["solenoid", "times", "--a", FACTORIAL, "--tau", "1/3", "--digits", digits])
    assert code == 0, capsys.readouterr().err
    target = _loads(out)["target"]
    assert len(target) == 1700 and max(map(len, target)) > 4300
    code, out = _run(["solenoid", "member", "--a", FACTORIAL, "--theta", ",".join(target)])
    assert code == 0 and json.loads(out) == {"depth": 1700, "member": True, "verdict": "member at depth 1700"}
    assert sys.get_int_max_str_digits() == limit
