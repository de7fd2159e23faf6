#!/usr/bin/env python3
"""Depth sweep of the exact subcommands on the README specs.

For ``kron resonance`` and ``kron reduce-flow`` on the README's halving, BO
and product specs, on ``product-chains`` (two ``qa`` chains, on the powers
of 2 and of 3, and two free components: the README product has one chain),
on the factorial solenoid rule (a_j = j, so its terms grow), on the
odd-denominator BO spec ``bo-odd`` (r = 1/3, whose sigmas' common
denominator D is not the lcm of the beta row, so its sha256 columns guard
the scale of the integer table), and on a mixed finite spec of 1024 terms,
for ``kron bo`` on the README's BO spec (its sigma and tail-sum tables grow
with the square of the depth), and for ``kron solenoid member``, ``coords``
and ``times`` on the factorial and halving sequences, at depths 16, 32,
..., 1024, runs ``cli.main``
in-process and records the best-of-3 wall time in ms (``best_ms``), the
stdout bytes and their sha256, the tracemalloc peak of one more run (timed
runs go untraced), and the growth of ``best_ms`` and of the peak per
doubling of the depth.  Each ``reduce-flow`` row also records
``hermite_ops``, a count of the Hermite work that does not depend on the
host: in one more untimed run, the entries touched by
``exact_linalg._combine`` plus the entries scanned by ``_hermite_reduce``
(each call's vector at its start), and, past the first depth, its growth
per doubling, ``hermite_growth``.

The mixed spec is drawn from a fixed seed: each term is one or two of 1,
sqrt2 and sqrt3 with coefficients +-1 or +-2 over 1, 2 or 3, so its
coordinate matrix has three rows and columns of one or two entries.  The solenoid point at depth N has
tau = 5/7 and digits n_j = (j^2 + 1) mod a_j, so it is a member whose
angles have denominators up to 7 a_1 ... a_j.  One more ``member`` row, family
``factorial-scaled``, writes that factorial member's entry j as 3p/3q for
odd j and 2p/2q for even j, so q_{j-1} divides q_j only where 6 divides j:
five relations in six take the check's cross-multiplication, whose cost
this row records.  ``kron simulate`` runs on the
halving, product and mixed specs, and on two specs whose every omega_j
evaluates a generator other than 1: ``bo-valued``, the README's BO spec with
beta declared as a 48-digit numeral (the README's own beta has no numeric
value, so ``bo`` itself cannot be simulated), and ``factorial-sqrt2``, the
factorial rule on sqrt2.  Each runs with ``--steps 200 --t1 1e6`` from the
origin; its stdout echoes the ``--out`` path, a temporary file, so its rows
record the bytes and sha256 of the CSV instead.

The ``cold_start`` block times what a single ``kron`` call pays before it
works: the median wall time, over 11 fresh interpreters, of a bare ``python
-c pass``, of ``import kronflow.cli`` and of one ``kron`` call each
(``reduce --nu 4,6``, ``classify`` on halving at depth 16, and ``average``,
``equidistribution`` and ``simulate`` on T^3), with whether mpmath, numpy and
dataclasses were loaded at the end.  Each entry's ``excess_ms`` is the median
over the rounds of its time less the bare interpreter's in the same round:
what kronflow adds to the interpreter and ``site``, a figure that a host's
drift between runs moves far less than the raw medians.  Each interpreter
runs ``kronflow.cli.main`` as the ``kron`` script does, on a copy of the
imported package with no ``__pycache__`` and with
``PYTHONDONTWRITEBYTECODE=1``, so kronflow is compiled from source every
time while the standard library and site-packages read their installed
bytecode.  The rounds run every entry once, as the timed sweep does.

    PYTHONPATH=src python scripts/depth_sweep.py                  # JSON to stdout
    PYTHONPATH=src python scripts/depth_sweep.py --label after --out BENCH.json

With ``--out``, the run is stored under ``--label`` in that JSON file, next to
any runs already there, so two commits can be swept into one record.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import kronflow
from kronflow import exact_linalg
from kronflow.cli import main
from kronflow.frequency import SigmaSequence

COMMANDS = ("resonance", "reduce-flow")
DEPTHS = tuple(2**k for k in range(4, 11))
COLD_RUNS = 11


def _mixed_finite(n: int) -> dict:
    rng = random.Random(1024)
    terms = []
    for _ in range(n):
        gens = rng.sample(("1", "sqrt2", "sqrt3"), rng.randint(1, 2))
        terms.append({g: f"{rng.choice((1, -1, 2, -2))}/{rng.randint(1, 3)}" for g in gens})
    return {"kind": "finite", "terms": terms}


SPECS = {
    "halving": {"kind": "solenoid", "generator": "1", "a": {"prefix": [1, 2], "tail": {"constant": 2}}},
    "bo": {
        "kind": "bo",
        "beta": {"name": "beta", "kind": "opaque"},
        "s": {"prefix": ["1/3"], "tail": {"c": "1/2", "r": "1/2"}},
    },
    "product": {"kind": "product", "components": [{"free": "1"}, {"qa": {"prefix": [1], "tail": {"constant": 2}}}]},
    "product-chains": {"kind": "product", "components": [
        {"free": "1"}, {"qa": {"prefix": [1], "tail": {"constant": 2}}},
        {"free": "1/2"}, {"qa": {"prefix": [1, 3], "tail": "increment"}}]},
    "factorial": {"kind": "solenoid", "generator": "1", "a": {"prefix": [1], "tail": "increment"}},
    "bo-odd": {"kind": "bo", "s": {"prefix": ["1/2"], "tail": {"c": "1/2", "r": "1/3"}}},
    "mixed": _mixed_finite(DEPTHS[-1]),
}
T3 = {"kind": "finite", "terms": [{"1": "1"}, {"sqrt2": "1"}, {"sqrt3": "1"}]}
SIMULATE_SPECS = {
    "bo-valued": {
        "kind": "bo",
        "generators": [{"name": "beta", "kind": "opaque",
                        "value": "0.318309886183790671537767526745028724068919291480"}],
        "beta": "beta",
        "s": SPECS["bo"]["s"],
    },
    "factorial-sqrt2": {"kind": "solenoid", "generator": "sqrt2", "a": SPECS["factorial"]["a"]},
}
SIMULATE_FAMILIES = ("halving", "product", "mixed", *SIMULATE_SPECS)
SOLENOID_OPS = ("member", "coords", "times")
SOLENOID_SEQUENCES = {
    "factorial": {"prefix": [1], "tail": "increment"},
    "halving": {"prefix": [1, 2], "tail": {"constant": 2}},
}


def _solenoid_argv(op: str, seq: dict, depth: int, scaled: bool = False) -> list[str]:
    """``kron solenoid op`` on the member with tau = 5/7 and n_j = (j^2 + 1)
    mod a_j, whose angles are theta_j = (theta_{j-1} + n_j) / a_j; if
    ``scaled``, entry j is written as 3p/3q for odd j and 2p/2q for even j."""
    a = SigmaSequence.from_json(seq).terms(depth)
    tau = Fraction(5, 7)
    digits = [(j * j + 1) % a[j - 1] for j in range(2, depth + 1)]
    argv = ["solenoid", op, "--a", json.dumps(seq, separators=(",", ":"))]
    if op == "times":
        return argv + ["--tau", str(tau), "--digits", ",".join(map(str, digits))]
    theta = [tau]
    for j, n in enumerate(digits, start=2):
        theta.append((theta[-1] + n) / a[j - 1])
    if scaled:
        return argv + ["--theta", ",".join(f"{x.numerator * f}/{x.denominator * f}"
                                           for x, f in zip(theta, itertools.cycle((3, 2))))]
    return argv + ["--theta", ",".join(map(str, theta))]


def _run(argv: list[str]) -> tuple[float, int, str]:
    """(seconds, stdout bytes, their sha256) of one in-process ``kron`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
    if code:
        raise SystemExit(f"kron {' '.join(argv)} exited {code}")
    data = out.getvalue().encode()
    return seconds, len(data), hashlib.sha256(data).hexdigest()


def _peak(argv: list[str]) -> int:
    tracemalloc.start()
    try:
        _run(argv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _hermite_ops(argv: list[str]) -> int:
    """Entries touched by ``exact_linalg._combine`` plus entries scanned by
    ``exact_linalg._hermite_reduce`` in one run, both wrapped for that run."""
    count = 0
    combine, reduce = exact_linalg._combine, exact_linalg._hermite_reduce

    def counting_combine(x, y, a, b):
        nonlocal count
        count += (len(x) if a != 1 else 0) + (len(y) if b else 0)
        combine(x, y, a, b)

    def counting_reduce(basis, k):
        nonlocal count
        count += len(basis[k][0])
        reduce(basis, k)

    exact_linalg._combine, exact_linalg._hermite_reduce = counting_combine, counting_reduce
    try:
        _run(argv)
    finally:
        exact_linalg._combine, exact_linalg._hermite_reduce = combine, reduce
    return count


def sweep(workdir: Path) -> list[dict]:
    """One row per (command, family, depth).  The three timed rounds each run
    every row once, so a slow spell of the host spoils at most one run of a
    row, and the best of the three is kept."""
    cases = []
    for family, spec in {**SPECS, **SIMULATE_SPECS}.items():
        (workdir / f"{family}.json").write_text(json.dumps(spec))
    cases += [(command, family, depth, [command, str(workdir / f"{family}.json"), "--depth", str(depth)])
              for family in SPECS for command in COMMANDS for depth in DEPTHS]
    cases += [("bo", "bo", depth, ["bo", str(workdir / "bo.json"), "--depth", str(depth)]) for depth in DEPTHS]
    cases += [(f"solenoid {op}", family, depth, _solenoid_argv(op, seq, depth))
              for family, seq in SOLENOID_SEQUENCES.items() for op in SOLENOID_OPS for depth in DEPTHS]
    cases += [("solenoid member", "factorial-scaled", depth,
               _solenoid_argv("member", SOLENOID_SEQUENCES["factorial"], depth, scaled=True))
              for depth in DEPTHS]
    cases += [("simulate", family, depth, ["simulate", str(workdir / f"{family}.json"), "--depth", str(depth),
                                           "--steps", "200", "--t1", "1e6",
                                           "--out", str(workdir / f"{family}-{depth}.csv")])
              for family in SIMULATE_FAMILIES for depth in DEPTHS]
    runs = [[_run(argv) for *_, argv in cases] for _ in range(3)]
    rows = []
    for k, (command, family, depth, argv) in enumerate(cases):
        if command == "simulate":
            data = Path(argv[-1]).read_bytes()
            output = {"csv_bytes": len(data), "csv_sha256": hashlib.sha256(data).hexdigest()}
        else:
            output = {"stdout_bytes": runs[0][k][1], "stdout_sha256": runs[0][k][2]}
        row = {
            "command": command,
            "family": family,
            "depth": depth,
            "best_ms": round(min(r[k][0] for r in runs) * 1e3, 3),
            **output,
            "tracemalloc_peak_bytes": _peak(argv),
        }
        if command == "reduce-flow":
            row["hermite_ops"] = _hermite_ops(argv)
        prev = rows[-1] if rows and depth > DEPTHS[0] else None
        if prev is not None:
            row["time_growth"] = round(row["best_ms"] / prev["best_ms"], 2)
            row["peak_growth"] = round(row["tracemalloc_peak_bytes"] / prev["tracemalloc_peak_bytes"], 2)
            if command == "reduce-flow":
                row["hermite_growth"] = round(row["hermite_ops"] / prev["hermite_ops"], 2)
        rows.append(row)
    return rows


# the libraries whose loading each cold call reports
COLD_LIBS = ("mpmath", "numpy", "dataclasses")
# a kron call in a fresh interpreter (none for the bare import), then the
# libraries it loaded, as the last line of stderr
COLD_PROBE = f"""import sys
import kronflow.cli
code = kronflow.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print("loaded:", *[m for m in {COLD_LIBS!r} if m in sys.modules], file=sys.stderr)
sys.exit(code)
"""
BARE = "python -c pass"


def cold_start(workdir: Path) -> list[dict]:
    """One entry per cold call, the bare interpreter first: its median wall
    time in ms over COLD_RUNS fresh interpreters, the median of its excess
    over the bare interpreter in the same round, and which of COLD_LIBS
    were loaded."""
    src = workdir / "src"
    shutil.copytree(Path(kronflow.__file__).parent, src / "kronflow", ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    files = {"halving": SPECS["halving"], "t3": T3, "cos": {"terms": [{"cos": {"1": 1, "2": -1}}]}}
    for name, doc in files.items():
        (workdir / f"{name}.json").write_text(json.dumps(doc))
    halving, t3, cos = (str(workdir / f"{name}.json") for name in files)
    cases = {
        BARE: None,
        "import kronflow.cli": [],
        "kron reduce --nu 4,6": ["reduce", "--nu", "4,6"],
        "kron classify halving --depth 16": ["classify", halving, "--depth", "16"],
        "kron average t3": ["average", t3, "--poly", cos, "--depth", "3"],
        "kron equidistribution t3": ["equidistribution", t3, "--nu", "1,-1", "--depth", "3"],
        "kron simulate t3": ["simulate", t3, "--t1", "100", "--steps", "200", "--depth", "3",
                             "--out", str(workdir / "t3.csv")],
    }
    times: dict[str, list[float]] = {name: [] for name in cases}
    loaded: dict[str, list[str]] = {}
    for _ in range(COLD_RUNS):
        for name, argv in cases.items():
            code = ["pass"] if argv is None else [COLD_PROBE, *argv]
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", *code], env=env, cwd=workdir,
                                  capture_output=True, text=True, timeout=120)
            times[name].append(time.perf_counter() - start)
            if proc.returncode:
                raise SystemExit(f"{name} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            loaded[name] = proc.stderr.splitlines()[-1].split() if argv is not None else []
    return [{"call": name, "median_ms": round(statistics.median(times[name]) * 1e3, 1),
             "excess_ms": round(statistics.median(t - b for t, b in zip(times[name], times[BARE])) * 1e3, 1),
             **{lib: lib in loaded[name] for lib in COLD_LIBS}}
            for name in cases]


def main_sweep() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", default="run")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        rows = sweep(Path(tmp))
        cold = cold_start(Path(tmp))
    run = {
        "host": {"python": platform.python_version(), "machine": platform.machine()},
        "rows": rows,
        "cold_start": cold,
    }
    if args.out is None:
        print(json.dumps({args.label: run}, indent=1))
        return
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record[args.label] = run
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main_sweep()
