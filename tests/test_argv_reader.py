"""``cli._read_argv`` against argparse.  Both read the one grammar
``cli._COMMANDS``: for every argv the reader returns None (argparse then
reads it) or a namespace whose ``vars()`` equal those of
``build_parser().parse_args(argv)``.  A draw from a subcommand's grammar
mixes exact options, ``=`` forms, abbreviations, ``-h``, ``--``, values
such as ``-3``, ``-1e3``, ``-`` and the empty string, repeated options,
positionals between options, ``--precision`` before and after the
subcommand and a token that is not a ``str``; a draw made only of the forms
the reader reads must be read.  Every argv the benchmark serves (its three
workloads at seeds 301-303) is read without argparse, and ``main()`` with
no argument reads ``sys.argv[1:]`` the same way."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronflow import cli
from kronflow.cli import _COMMANDS, _OPTIONS, _read_argv, build_parser

ROOT = Path(__file__).resolve().parent.parent
PARSER = build_parser()

# values of each option type: those the reader reads after the flag, then
# those it declines or argparse rejects (some of which an "=" form reads)
VALUES = {
    int: (["0", "3", "16", " 7", "+5", "1_0"], ["-3", "x", "", "1.5"]),
    float: (["1", "2.5", "1e3", "nan", "+1"], ["-1e3", "-5", "x", ""]),
    str: (["4,6", "a.json", "", "a=b", "1/2,3/4", "a b"], ["-1,2", "--", "-", "-3", "-h"]),
}
# tokens the reader never reads: each one leaves the argv to argparse
NOISE = [["-h"], ["--help"], ["--"], ["-"], [""], ["-3"], ["-1e3"], ["--precision", "80"], ["--precision=80"], [3],
         [None]]


def _converts(keywords: dict, text: str) -> bool:
    try:
        value = keywords.get("type", str)(text)
    except ValueError:
        return False
    return value in keywords.get("choices", [value])


def _text(draw, good: list, bad: list) -> str:
    return draw(st.sampled_from(bad if draw(st.integers(0, 4)) == 0 else good))


def _option(draw, flag: str, keywords: dict) -> tuple[list, bool]:
    """One use of an option, and whether the reader reads it."""
    values = (keywords["choices"], ["bad", "-3"]) if "choices" in keywords else VALUES[keywords.get("type", str)]
    many = keywords.get("nargs") == "+"
    form = draw(st.sampled_from(["next"] * 4 + ["eq"] * 3 + ["bare"] + (["abbrev"] if len(flag) > 3 else [])))
    if form == "eq":
        text = _text(draw, *values)
        return [f"{flag}={text}"], not many and text != "--" and _converts(keywords, text)
    if form == "bare":
        return [flag], False
    if form == "abbrev":
        return [flag[:draw(st.integers(3, len(flag) - 1))], _text(draw, *values)], False
    texts = [_text(draw, *values) for _ in range(draw(st.integers(1, 3 if many else 1)))]
    return [flag, *texts], all(not t.startswith("-") and _converts(keywords, t) for t in texts)


@st.composite
def _argv(draw, command: str) -> tuple[list, bool]:
    """An argv of ``command`` drawn from its grammar, and whether every part
    of it is a form the reader reads."""
    _, _, positionals, options = _COMMANDS[command]
    items = []
    for keywords in positionals.values():
        text = _text(draw, keywords.get("choices", ["S", "a b.json", "x=y", ""]), ["bad", "-3", "-"])
        items.append(([text], not text.startswith("-") and _converts(keywords, text)))
    for flag, keywords in options.items():
        uses = draw(st.sampled_from([0, 1, 1, 1, 2] if keywords.get("required") else [0, 0, 1, 2]))
        items += [_option(draw, flag, keywords) for _ in range(uses)]
        if keywords.get("required") and not uses:
            items.append(([], False))
    items += [(draw(st.sampled_from(NOISE)), False) for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])))]
    items = draw(st.permutations(items))
    # a "+" option also takes the positional after it
    swallows = any(tokens and options.get(tokens[0], {}).get("nargs") == "+" and after
                   and isinstance(after[0], str) and not after[0].startswith("-")
                   for (tokens, _), (after, _) in zip(items, items[1:]))
    head = [_option(draw, flag, keywords) for flag, keywords in _OPTIONS.items()
            for _ in range(draw(st.sampled_from([0, 0, 1, 2])))]
    name = draw(st.sampled_from([command] * 12 + ["nosuch", command + "x"]))
    head.append(([name], name == command))
    parts = head + items
    return [token for tokens, _ in parts for token in tokens], not swallows and all(clean for _, clean in parts)


def _fields(namespace) -> dict[str, str]:
    # by repr, so that a nan --T value equals itself and 3 differs from 3.0
    return {dest: repr(value) for dest, value in vars(namespace).items()}


def _check(argv: list) -> object:
    read = _read_argv(argv)
    if read is not None:
        assert _fields(read) == _fields(PARSER.parse_args(argv)), argv
    return read


@pytest.mark.parametrize("command", list(_COMMANDS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reader_matches_argparse_on_the_grammar(command, data):
    argv, clean = data.draw(_argv(command))
    read = _check(argv)
    assert read is not None or not clean, argv


TOKENS = sorted({*_COMMANDS, *_OPTIONS, *(flag for _, _, _, options in _COMMANDS.values() for flag in options),
                 "member", "times", "S", *(t for good, bad in VALUES.values() for t in good + bad)})


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(TOKENS) | st.text(max_size=3), max_size=8))
def test_reader_matches_argparse_on_random_tokens(argv):
    _check(argv)


DECLINED = {
    "a value starting with -": ["reduce", "--nu", "-1,2"],
    "a negative --t0": ["simulate", "S", "--t1", "1", "--steps", "2", "--out", "o", "--t0", "-1e3"],
    "a -- value": ["reduce", "--nu=--"],
    "--T=": ["average", "S", "--poly", "p", "--T=1"],
    "an abbreviation": ["classify", "S", "--dep", "3"],
    "--": ["classify", "--", "S"],
    "--help": ["classify", "--help"],
    "--precision after the subcommand": ["classify", "S", "--precision", "80"],
    "a missing required option": ["simulate", "S", "--t1", "1", "--out", "o"],
    "a third positional": ["iso", "a", "b", "c"],
    "a choice not declared": ["solenoid", "member2", "--a", "1,2"],
    "a token that is not a str": ["reduce", "--nu", 4],
    "no subcommand": ["--precision", "80"],
}


@pytest.mark.parametrize("argv", list(DECLINED.values()), ids=list(DECLINED))
def test_reader_declines(argv):
    assert _read_argv(argv) is None


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["kron", "reduce", "--nu", "4,6"])
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("argparse read a well-formed argv"))
    assert cli.main() == 0
    assert json.loads(capsys.readouterr().out)["gcd"] == 2


# every kron argv of the benchmark's request lists, built in a fresh
# interpreter with perfbench on its path; prints the count read and the
# argvs the reader declined
SERVED = """
import json, sys, tempfile
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
from kronflow.cli import _read_argv
read, declined = 0, []
with tempfile.TemporaryDirectory() as tmp:
    for workload in workloads.WORKLOADS:
        for seed in (301, 302, 303):
            for request in workloads.build(workload, seed, Path(tmp))[0]:
                if request.argv is not None:
                    ok = _read_argv(request.argv) is not None
                    read += ok
                    declined += [] if ok else [request.argv]
print(json.dumps([read, declined]))
"""


def test_every_served_argv_is_read_without_argparse():
    proc = subprocess.run([sys.executable, "-c", SERVED, str(ROOT / "src"), str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    read, declined = json.loads(proc.stdout)
    assert declined == [] and read > 300
