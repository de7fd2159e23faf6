"""The README's CLI block, run in-process on the README's example finite spec:
every line of a spec-taking subcommand (``classify``, ``resonance``,
``reduce-flow``, ``simulate``, ``iso``) exits 0 and prints JSON, whatever
depth it asks for.  Every line of the block is read by ``cli._read_argv``,
without argparse."""

import json
import re
import shlex
from pathlib import Path

import pytest

from kronflow.cli import _read_argv, main

README = Path(__file__).resolve().parent.parent / "README.md"
SUBCOMMANDS = ("classify", "resonance", "reduce-flow", "simulate", "iso")


def _cli_lines() -> list[list[str]]:
    block = re.search(r"^## CLI\n.*?```sh\n(.*?)```", README.read_text(), re.S | re.M).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in lines if argv and argv[0] == "kron"]


def _finite_spec() -> dict:
    line = next(line for line in README.read_text().splitlines() if line.startswith('{"kind": "finite"'))
    return json.loads(line)


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_readme_cli_line_exits_zero(subcommand, tmp_path, monkeypatch, capsys):
    spec = json.dumps(_finite_spec())
    for name in ("spec.json", "spec1.json", "spec2.json"):
        (tmp_path / name).write_text(spec)
    monkeypatch.chdir(tmp_path)
    lines = [argv for argv in _cli_lines() if argv[0] == subcommand]
    assert lines, f"README shows no `kron {subcommand}` line"
    for argv in lines:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, (argv, captured.err)
        json.loads(captured.out)


def test_readme_cli_lines_are_read_without_argparse():
    lines = _cli_lines()
    assert len(lines) == 12
    assert [argv for argv in lines if _read_argv(argv) is None] == []
