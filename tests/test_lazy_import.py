"""Each library loads only where it is used: ``import kronflow``,
``kronflow.cli`` and ``kronflow.dynamics`` leave numpy, mpmath and ``csv``
(which the package does not use) out of ``sys.modules``; the exact
subcommands load neither numpy nor mpmath, the closed-form averages
(``average``, ``equidistribution``) load mpmath alone, and ``simulate`` loads
both.  The three imports and every subcommand also leave out
``dataclasses``, and all but ``simulate`` (whose numpy loads it) the
``inspect`` it imports: the package's records are ``__slots__`` classes,
and only ``minimality_probe`` loads its dataclass ``ProbeResult``.
None of the three imports, nor ``kron reduce`` read by ``cli._read_argv``,
loads ``argparse``: only a usage error or ``--help`` builds its parser.
Every float name of the package (``kronflow._DYNAMICS_EXPORTS``) still
resolves to the ``kronflow.dynamics`` object, and a removed name raises
AttributeError."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import contextlib, io, sys
import {module}
if "{module}" == "kronflow.cli":
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert kronflow.cli.main(["reduce", "--nu", "4,6,10"]) == 0
for name in ("numpy", "mpmath", "csv", "argparse", "dataclasses", "inspect"):
    assert name not in sys.modules, name + " loaded"

import kronflow
from kronflow import flow, TrigPolynomial, minimality_probe
import kronflow.dynamics as dynamics
assert flow is dynamics.flow
assert TrigPolynomial is dynamics.TrigPolynomial
assert minimality_probe is dynamics.minimality_probe
for name in sorted(kronflow._DYNAMICS_EXPORTS):
    assert getattr(kronflow, name) is getattr(dynamics, name), name
for name in ("no_such_name", "resonance_witness", "ClosureDescriptor", "bo_orbit_closure"):
    try:
        getattr(kronflow, name)
    except AttributeError:
        pass
    else:
        raise SystemExit("kronflow." + name + " resolved")
"""

# one call of every subcommand in one interpreter, the float ones last;
# argv[1:] are the paths of a finite spec, a bo spec, a polynomial and a CSV
SUBCOMMANDS = """
import contextlib, io, sys
import kronflow.cli

spec, bo, poly, out = sys.argv[1:]


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert kronflow.cli.main(list(argv)) == 0, argv


def loaded(names=("mpmath", "numpy", "dataclasses")):
    return [name for name in names if name in sys.modules]


run("classify", spec, "--depth", "2")
run("resonance", spec, "--depth", "2")
run("reduce", "--nu", "4,6,10")
run("reduce-flow", spec, "--depth", "2")
run("solenoid", "member", "--a", "1,2,2", "--theta", "1/4,5/8,5/16")
run("solenoid", "coords", "--a", "1,2", "--theta", "1/4,5/8")
run("solenoid", "times", "--a", "1,2", "--tau", "1/4", "--digits", "1")
run("bo", bo, "--depth", "4")
run("iso", spec, spec, "--depth", "2")
exact = loaded(("mpmath", "numpy", "dataclasses", "inspect"))
assert exact == [], "exact subcommands loaded " + str(exact)
run("average", spec, "--poly", poly, "--depth", "2")
run("equidistribution", spec, "--nu", "1,-1", "--depth", "2")
closed_form = loaded(("mpmath", "numpy", "dataclasses", "inspect"))
assert closed_form == ["mpmath"], "closed-form averages loaded " + str(closed_form)
run("simulate", spec, "--t1", "1", "--steps", "2", "--depth", "2", "--out", out)
assert loaded() == ["mpmath", "numpy"], "simulate loaded " + str(loaded())
"""


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ["kronflow", "kronflow.cli", "kronflow.dynamics"])
def test_import_leaves_numpy_unloaded(module):
    proc = _python(PROBE.format(module=module))
    assert proc.returncode == 0, proc.stderr


def test_each_subcommand_loads_only_what_it_runs(tmp_path):
    files = {
        "spec.json": '{"kind": "finite", "terms": [{"1": "1"}, {"sqrt2": "1"}]}',
        "bo.json": '{"beta": {"name": "b", "kind": "opaque"}, "s": {"prefix": [], "tail": {"c": "1/2", "r": "1/2"}}}',
        "poly.json": '{"terms": [{"cos": {"1": 1, "2": -1}}]}',
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    proc = _python(SUBCOMMANDS, *(str(tmp_path / name) for name in (*files, "traj.csv")))
    assert proc.returncode == 0, proc.stderr
