"""The benchmark's trace harness against the current sources: perfbench's
``spans.Tracer.install`` wraps functions by name (``SigmaSequence.partial_product``
among them), so removing or renaming a wrapped name in ``src/`` breaks
``perfbench/run.py --trace 1``.  The harness is imported as it is, in a fresh
interpreter, and nothing under ``perfbench/`` is edited."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
tracer = spans.Tracer()
tracer.install()
from kronflow import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert cli.main(["reduce", "--nu", "4,6,10"]) == 0
counts = tracer.end_pass()["calls"]
assert counts["cli.main"] == 1 and counts["resonance_reduction.reduce_vector"] == 1, counts
print("ok")
"""


def test_tracer_installs_against_current_sources():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
