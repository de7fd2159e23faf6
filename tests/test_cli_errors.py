"""Exit 1 with one exact ``error:`` line and no traceback, for each input a
validation rule names: sequence rules, builtin generator names, empty or
malformed flags, unreadable or over-nested files, an unwritable ``--out``
and a product component with both ``free`` and ``qa``; the same for a usage
error, which argparse alone would end with its usage banner and exit 2.
Also: exact integers past CPython's 4300-digit str conversion limit are read
and written, and the limit is left as it was; a reduction with more passes
than a list holds is exit 2 with one ``unsupported structure:`` line."""

import contextlib
import io
import json
import re
import sys

import pytest

from kronflow.cli import _COMMANDS, _OPTIONS, main
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
    # a key that is not one of its object's fields: each was ignored, with exit 0
    "generater": b'{"kind": "solenoid", "generater": "sqrt2", "a": {"prefix": [1], "tail": {"constant": 2}}}',
    "bta": b'{"kind": "bo", "bta": "pi", "s": {"prefix": ["1/3"], "tail": {"c": "1/2", "r": "1/2"}}}',
    "two_tails": b'{"kind": "solenoid", "a": {"prefix": [1], "tail": {"constant": 2, "periodic": [3]}}}',
    "sequence_key": b'{"kind": "solenoid", "a": {"prefix": [1], "tail": "increment", "tial": "increment"}}',
    "action_key": b'{"kind": "bo", "s": {"prefix": ["1/3"], "sufix": []}}',
    "cr_key": b'{"kind": "bo", "s": {"prefix": [], "tail": {"c": "1", "r": "1/2", "q": "3"}}}',
    "declaration_key": b'{"kind": "finite", "generators": [{"name": "b", "kind": "opaque", "vale": "1"}], "terms": [{"b": "1"}]}',
    "component_key": b'{"kind": "product", "components": [{"free": "1", "fre": "2"}]}',
    # each kind without the field it needs
    "no_terms": b'{"kind": "finite"}',
    "no_a": b'{"kind": "solenoid", "generator": "sqrt2"}',
    "no_s": b'{"kind": "bo", "beta": "pi"}',
    "no_components": b'{"kind": "product"}',
    "t3": b'{"kind": "finite", "terms": [{"1": "1"}, {"sqrt2": "1"}, {"sqrt3": "1"}]}',
    "resonant": b'{"kind": "finite", "terms": [{"1": "1"}, {"1": "1"}]}',
    # coefficients past a double's range (10^400), and near its top (10^308)
    "huge_const": json.dumps({"terms": [{"const": "1" + "0" * 400}]}).encode(),
    "huge_cos": json.dumps({"terms": [{"cos": {"1": 1}, "scale": "1" + "0" * 400}]}).encode(),
    "cos": b'{"terms": [{"cos": {"1": 1}}]}',
    "cos_diff": b'{"terms": [{"cos": {"1": -1, "2": 1}}]}',
    "two_cos": json.dumps({"terms": [{"cos": {"1": 1}, "scale": "1" + "0" * 308},
                                     {"cos": {"2": 1}, "scale": "1" + "0" * 308}]}).encode(),
    "const_and_resonant": json.dumps({"terms": [{"const": "1" + "0" * 308},
                                                {"cos": {"1": 1, "2": -1}, "scale": "1" + "0" * 308}]}).encode(),
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
    # an empty or blank entry among others: each was dropped, shifting the later entries
    "empty --nu entry": (["reduce", "--nu", "4,,6"], "--nu entry 2 is empty"),
    "blank --nu entry": (["equidistribution", "@finite", "--nu", "1, ", "--depth", "2"], "--nu entry 2 is empty"),
    "empty --a entry": (_member("1,,2,2"), "--a entry 2 is empty"),
    "empty --theta entry": (["solenoid", "member", "--a", "1,2", "--theta", "1/4,,5/8"], "--theta entry 2 is empty"),
    "trailing --theta comma": (["solenoid", "coords", "--a", "1,2", "--theta", "1/4,5/8,"], "--theta entry 3 is empty"),
    "empty --theta0 entry": (
        ["simulate", "@finite", "--t1", "1", "--steps", "2", "--depth", "3", "--theta0", "0,,0,0", "--out", "@dir/t.csv"],
        "--theta0 entry 2 is empty"),
    "empty --digits entry": (["solenoid", "times", "--a", "1,2", "--tau", "1/4", "--digits", "1,,2"],
                             "--digits entry 2 is empty"),
    "malformed --a JSON":(_member('{"prefix": '), "--a JSON is malformed: Expecting value: line 1 column 11 (char 10)"),
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
    # a spec object takes its own fields only
    "misspelt generator": (["classify", "@generater"], "solenoid spec has no field 'generater'"),
    "misspelt beta": (["resonance", "@bta"], "bo spec has no field 'bta'"),
    "constant and periodic tail": (["classify", "@two_tails"], "constant tail has no field 'periodic'"),
    "sequence key": (["reduce-flow", "@sequence_key"], "sequence has no field 'tial'"),
    "--a key": (_member('{"prefix": [1, 2], "tail": "increment", "x": 1}'), "sequence has no field 'x'"),
    "action sequence key": (["bo", "@action_key"], "action sequence has no field 'sufix'"),
    "geometric tail key": (["classify", "@cr_key"], "geometric tail has no field 'q'"),
    "declaration key": (["classify", "@declaration_key"], "generator declaration has no field 'vale'"),
    "component key": (["classify", "@component_key"], "subgroup spec has no field 'fre'"),
    # each kind needs its own first field
    "finite without terms": (["classify", "@no_terms"], "finite spec needs field 'terms'"),
    "solenoid without a": (["resonance", "@no_a"], "solenoid spec needs field 'a'"),
    "bo without s": (["bo", "@no_s"], "bo spec needs field 's'"),
    "product without components": (["reduce-flow", "@no_components"], "product spec needs field 'components'"),
    # float work past a double's range: each ended in a traceback or printed Infinity, which is not JSON
    "const past a double": (["average", "@t3", "--poly", "@huge_const", "--depth", "3"],
                            "a polynomial coefficient is beyond a double's range"),
    "cos scale past a double": (["average", "@t3", "--poly", "@huge_cos", "--depth", "3"],
                                "a polynomial coefficient is beyond a double's range"),
    "w T underflows": (["equidistribution", "@t3", "--nu=-1,1,0", "--T", "5e-324", "--depth", "3"],
                       "smallest nonzero |omega . nu| T underflows to 0; widen the window T"),
    "average w T underflows": (["average", "@t3", "--poly", "@cos_diff", "--T", "1", "5e-324", "--depth", "3"],
                               "smallest nonzero |omega . nu| T underflows to 0; widen the window T"),
    "infinite bound": (["equidistribution", "@t3", "--nu=1,0,0", "--T", "5e-324", "--depth", "3"],
                       "decay bound 2 |a| / (T |omega . nu|) must be finite, got inf"),
    "infinite envelope term": (["average", "@t3", "--poly", "@cos", "--T", "1e-310", "--depth", "3"],
                               "decay bound 2 |a| / (T |omega . nu|) must be finite, got inf"),
    "infinite envelope sum": (["average", "@t3", "--poly", "@two_cos", "--T", "1.5", "--depth", "3"],
                              "envelope must be finite, got inf"),
    "infinite value": (["average", "@resonant", "--poly", "@const_and_resonant", "--depth", "2"],
                       "time average must be finite, got inf"),
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
    # a value that begins with "-" and is not a negative number reads as an option; --nu=-1,2 is read
    "--nu value starting with -": (["reduce", "--nu", "-1,2"], "argument --nu: expected one argument"),
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


# a value for each required option and positional that a "--flag=--" case
# holds besides its flag; the files need not exist, the usage error comes first
REQUIRED = {"--nu": "1,2", "--t1": "1", "--steps": "3", "--out": "O", "--poly": "P", "--a": "1,2"}
POSITIONALS = {"spec": "S", "spec1": "S", "spec2": "S", "solenoid_op": "member"}


def _dash_dash_cases():
    """(argv, flag): ``--flag=--`` for each top-level option and for each
    option of each subcommand, with the subcommand's other required options
    present."""
    for flag in _OPTIONS:
        yield [f"{flag}=--", "reduce", "--nu", "4,6"], flag
    for name, (_, _, positionals, options) in _COMMANDS.items():
        head = [name, *(POSITIONALS[dest] for dest in positionals)]
        for flag in options:
            others = [token for other, keywords in options.items() if keywords.get("required") and other != flag
                      for token in (other, REQUIRED[other])]
            yield [*head, *others, f"{flag}=--"], flag


DASH_DASH = [*_dash_dash_cases(), (["classify", "S", "--dep=--"], "--depth"),
             (["equidistribution", "S", "--nu", "1", "--nu=--"], "--nu")]


@pytest.mark.parametrize("argv, flag", DASH_DASH, ids=[" ".join(argv) for argv, _ in DASH_DASH])
def test_dash_dash_value_is_a_missing_value(capsys, argv, flag):
    """argparse drops the "--" of ``--flag=--`` and stores ``[]`` (or appends
    it to an ``append`` list): exit 1 with argparse's own words for a missing
    value, naming the declared flag even for an abbreviation, and no version
    header."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    wanted = "at least one argument" if flag == "--T" else "one argument"
    assert captured.err.splitlines() == [f"error: argument {flag}: expected {wanted}"]


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


def test_reduce_with_more_passes_than_a_list_holds_is_unsupported(capsys):
    """``--nu 10^38 - 1,3`` asks for one subtract run of (10^38 - 1) // 3
    passes, more than ``sys.maxsize``: exit 2 with one ``unsupported
    structure:`` line naming the count, where the literal ``pass_sums`` list
    ended in an OverflowError traceback."""
    code = main(["reduce", "--nu", "9" * 38 + ",3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.splitlines()[-1] == (
        f"unsupported structure: the reduction has at least {(10**38 - 1) // 3} passes, "
        f"more than a list of pass sums holds ({sys.maxsize})")


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


# -- one number under one generator name

R2 = {"name": "r2", "kind": "sqrt_prime", "param": 2}
SAME_NUMBER = {
    "r2 next to the builtin sqrt2": (
        {"generators": [R2], "terms": [{"r2": "1"}, {"sqrt2": "-1"}]}, "generators 'r2' and 'sqrt2' are the same number"),
    "the builtin sqrt2 first": (
        {"generators": [R2], "terms": [{"sqrt2": "1"}, {"r2": "1"}]}, "generators 'r2' and 'sqrt2' are the same number"),
    "sqrt2 declared as sqrt 3": (
        {"generators": [{"name": "sqrt2", "kind": "sqrt_prime", "param": 3}], "terms": [{"sqrt2": "1"}, {"sqrt3": "1"}]},
        "generators 'sqrt2' and 'sqrt3' are the same number"),
    "a second unit": (
        {"generators": [{"name": "one", "kind": "rational_unit", "param": 7}], "terms": [{"1": "1"}, {"one": "1"}]},
        "generators '1' and 'one' are the same number"),
    "a name declared twice": (
        {"generators": [{"name": "b", "kind": "opaque"}, {"name": "b", "kind": "sqrt_prime", "param": 5}],
         "terms": [{"b": "1"}, {"1": "1"}]}, "generator 'b' is declared twice"),
}


@pytest.mark.parametrize("spec, message", list(SAME_NUMBER.values()), ids=list(SAME_NUMBER))
def test_one_number_under_two_generator_names_is_rejected(tmp_path, capsys, spec, message):
    """Declared generators are taken as independent of each other, so one
    number under two names would hide the relation e_1 + e_2 or e_1 - e_2."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "finite", **spec}))
    code = main(["resonance", str(path), "--depth", "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.splitlines()[-1] == "error: " + message


def test_opaque_generators_stay_trusted_as_declared(tmp_path, capsys):
    value = "1.41421356237309504880168872420969807856967187537694"
    gens = [{"name": n, "kind": "opaque", "value": value} for n in ("b", "c")]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "finite", "generators": gens, "terms": [{"b": "1"}, {"c": "-1"}]}))
    code, out = _run(["resonance", str(path), "--depth", "2"])
    assert code == 0 and json.loads(out)["rank"] == 0


# -- one depth rule for simulate, average and equidistribution

T3 = '{"kind": "finite", "terms": [{"1": "1"}, {"sqrt2": "1"}, {"sqrt3": "1"}]}'


def _float_argv(tmp_path, command):
    spec, poly = tmp_path / "t3.json", tmp_path / "cos3.json"
    spec.write_text(T3)
    poly.write_text('{"terms": [{"cos": {"3": 1}}]}')
    extra = {"simulate": ["--t1", "10", "--steps", "4", "--out", str(tmp_path / "t.csv")],
             "average": ["--poly", str(poly)], "equidistribution": ["--nu=0,0,1"]}[command]
    return [command, str(spec), *extra]


@pytest.mark.parametrize("command", ["simulate", "average", "equidistribution"])
def test_theta0_must_match_the_depth(tmp_path, capsys, command):
    """--theta0 has exactly as many entries as the depth, --depth clamped to
    the finite vector's length, in all three float subcommands."""
    argv = _float_argv(tmp_path, command)
    for flags, depth, point in ((["--depth", "2", "--theta0", "0,0,0"], 2, 3),
                                (["--depth", "8", "--theta0", ",".join("0" * 8)], 3, 8)):
        code = main(argv + flags)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "", flags
        assert captured.err.splitlines()[-1] == f"error: depth {depth} does not match point depth {point}"


@pytest.mark.parametrize("command", ["simulate", "average", "equidistribution"])
def test_depth_past_a_finite_vector_clamps_with_and_without_theta0(tmp_path, capsys, command):
    argv = _float_argv(tmp_path, command)
    runs = []
    for flags in (["--depth", "3"], ["--depth", "8"], ["--depth", "8", "--theta0", "0,0,0"]):
        code, out = _run(argv + flags)
        assert code == 0, capsys.readouterr().err
        runs.append((out, (tmp_path / "t.csv").read_text() if command == "simulate" else None))
    assert runs[1] == runs[0] and runs[2] == runs[0]
