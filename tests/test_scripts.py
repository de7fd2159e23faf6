"""Smoke test of the scripts: each example runs against the library in src/
and prints its pinned bytes, and the depth sweep gives its documented rows
and cold-start entries."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 of each example's stdout at its default arguments: a change to the
# library calls a script makes must leave its output byte-identical
SCRIPT_STDOUT_SHA256 = {
    "classify_zoo.py": "22a05ea4cc8f1419df83704d58ea9c43401059f1b0d91cec29f0bbe8bc7cfd1e",
    "equidistribution_decay.py": "bed517bb360afe0672507bbe284e9d7db8557c1219fe104b5e8387a8ccf3401d",
    "solenoid_approximation.py": "4f07d96abd9202cb57261c430713d1d4c83ecbb561c1ddf94d36644d04ae42a5",
}


@pytest.mark.parametrize(
    "script", ["classify_zoo.py", "equidistribution_decay.py", "solenoid_approximation.py"]
)
def test_script_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout.strip()
    assert hashlib.sha256(proc.stdout).hexdigest() == SCRIPT_STDOUT_SHA256[script]


@pytest.fixture
def depth_sweep():
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("depth_sweep", ROOT / "scripts" / "depth_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert sys.path == path  # the sweep needs nothing from perfbench/
    return module


def test_depth_sweep_rows(tmp_path, monkeypatch, depth_sweep):
    """``depth_sweep.sweep`` at depths 16 and 32: every row has its documented
    fields, the d32 rows their growth over d16, and the outputs and the
    ``reduce-flow`` Hermite work counts are the same on a second sweep."""
    monkeypatch.setattr(depth_sweep, "DEPTHS", (16, 32))
    sweeps = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        sweeps.append(depth_sweep.sweep(tmp_path / name))
    first, second = sweeps
    assert {row["command"] for row in first} == {
        "resonance", "reduce-flow", "bo", "solenoid member", "solenoid coords", "solenoid times", "simulate"}
    for row in first:
        fields = {"command", "family", "depth", "best_ms", "tracemalloc_peak_bytes"}
        fields |= {"csv_bytes", "csv_sha256"} if row["command"] == "simulate" else {"stdout_bytes", "stdout_sha256"}
        if row["command"] == "reduce-flow":
            fields.add("hermite_ops")
            assert row["hermite_ops"] > 0, row
        if row["depth"] == 32:
            fields |= {"time_growth", "peak_growth"}
            if row["command"] == "reduce-flow":
                fields.add("hermite_growth")
        assert set(row) == fields, row
    exact = [(row["family"], row["depth"]) for row in first if row["command"] == "resonance"]
    assert exact == [(family, depth) for family in ("halving", "bo", "product", "product-chains", "factorial",
                                                    "bo-odd", "mixed") for depth in (16, 32)]
    simulated = [(row["family"], row["depth"]) for row in first if row["command"] == "simulate"]
    assert simulated == [(family, depth) for family in ("halving", "product", "mixed", "bo-valued", "factorial-sqrt2")
                         for depth in (16, 32)]
    for key in ("csv_sha256", "stdout_sha256", "hermite_ops"):
        assert [row.get(key) for row in first] == [row.get(key) for row in second]


def test_depth_sweep_cold_start(tmp_path, monkeypatch, depth_sweep):
    """``depth_sweep.cold_start`` with one interpreter per entry: each cold
    call has a time and an excess over the bare interpreter of its round, the
    exact calls load none of mpmath, numpy and dataclasses, the closed-form
    averages mpmath and (through ``dynamics``) dataclasses, and ``simulate``
    all three."""
    monkeypatch.setattr(depth_sweep, "COLD_RUNS", 1)
    entries = depth_sweep.cold_start(tmp_path)
    assert [(e["call"], e["mpmath"], e["numpy"], e["dataclasses"]) for e in entries] == [
        ("python -c pass", False, False, False),
        ("import kronflow.cli", False, False, False),
        ("kron reduce --nu 4,6", False, False, False),
        ("kron classify halving --depth 16", False, False, False),
        ("kron average t3", True, False, True),
        ("kron equidistribution t3", True, False, True),
        ("kron simulate t3", True, True, True),
    ]
    assert all(set(e) == {"call", "median_ms", "excess_ms", "mpmath", "numpy", "dataclasses"}
               and e["median_ms"] > 0 for e in entries)
    assert entries[0]["excess_ms"] == 0
