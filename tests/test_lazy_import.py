"""Only the float paths load numpy: ``import kronflow``, ``import kronflow.cli``
and an exact subcommand leave it, and ``csv``, which the package does not use,
out of ``sys.modules``, while every float name of the package
(``kronflow._DYNAMICS_EXPORTS``) still resolves to the ``kronflow.dynamics``
object, and a removed name raises AttributeError."""

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
assert "numpy" not in sys.modules, "numpy loaded"
assert "csv" not in sys.modules, "csv loaded"

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


@pytest.mark.parametrize("module", ["kronflow", "kronflow.cli"])
def test_import_leaves_numpy_unloaded(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(module=module)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
