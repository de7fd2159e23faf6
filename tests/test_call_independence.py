"""No ``kron`` call leaves anything behind for the next one.

The benchmark's served traffic (its three workloads at seed 301, built by
``perfbench/workloads.build``) runs through ``cli.main`` in one fresh
interpreter, once in order and once in reverse: every argv gives the same
exit code, stdout, stderr and ``--out`` CSV bytes both times.  Around the
two passes the interpreter takes a deep snapshot of every kronflow module's
globals (containers by their items, a record or table by every slot, a
function by its defaults, a class by its attributes): the first pass may
grow the prime table ``primes._PRIMES`` and nothing else, and the second
changes nothing.  Nothing under ``perfbench/`` is edited."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import contextlib, importlib, io, json, pkgutil, sys, tempfile, types
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
import kronflow
from kronflow import cli

MODULES = [importlib.import_module(m.name) for m in pkgutil.iter_modules(kronflow.__path__, "kronflow.")]


def contents(x, seen):
    if isinstance(x, (str, int, float, complex, bool, type(None))):
        return repr(x)
    if isinstance(x, types.ModuleType):
        return x.__name__
    if id(x) in seen:
        return "<seen>"
    seen.add(id(x))
    if isinstance(x, dict):
        return [[contents(k, seen), contents(v, seen)] for k, v in x.items()]
    if isinstance(x, (list, tuple, set, frozenset)):
        return [type(x).__name__] + [contents(v, seen) for v in x]
    if hasattr(x, "cache_info"):
        return ["cache", x.cache_info().currsize]
    own = (getattr(x, "__module__", None) or "").startswith("kronflow")
    if isinstance(x, types.FunctionType):
        return [x.__qualname__, contents(x.__defaults__, seen), contents(x.__kwdefaults__, seen)] if own else repr(x)
    if isinstance(x, type):
        return [x.__qualname__, contents(dict(vars(x)), seen)] if own else repr(x)
    if own:
        slots = [s for c in type(x).__mro__ for s in getattr(c, "__slots__", ())]
        return [type(x).__qualname__, {s: contents(getattr(x, s, "<unset>"), seen) for s in slots},
                contents(getattr(x, "__dict__", None), seen)]
    return repr(x)


def snapshot():
    return {f"{m.__name__}.{name}": json.dumps(contents(value, set()))
            for m in MODULES for name, value in vars(m).items()
            if not (name.startswith("__") and name.endswith("__"))}


def serve(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    csv = Path(argv[argv.index("--out") + 1]).read_bytes().hex() if "--out" in argv else None
    return [code, out.getvalue(), err.getvalue(), csv]


def changed(before, after):
    return sorted(name for name in before.keys() | after.keys() if before.get(name) != after.get(name))


with tempfile.TemporaryDirectory() as tmp:
    argvs = []
    for w in workloads.WORKLOADS:
        (Path(tmp) / w).mkdir()
        argvs += [r.argv for r in workloads.build(w, 301, Path(tmp) / w)[0] if r.argv is not None]
    s0 = snapshot()
    first = [serve(argv) for argv in argvs]
    s1 = snapshot()
    second = [serve(argv) for argv in reversed(argvs)][::-1]
    s2 = snapshot()
print(json.dumps({"argvs": len(argvs), "codes": sorted({r[0] for r in first}),
                  "differ": [argv for argv, a, b in zip(argvs, first, second) if a != b],
                  "first": changed(s0, s1), "second": changed(s1, s2)}))
"""


def test_served_argvs_give_the_same_bytes_in_either_order_and_leave_nothing():
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=300, cwd=ROOT,
                          env={k: v for k, v in os.environ.items() if k != "KRON_PRECISION"})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["argvs"] > 100 and result["codes"] == [0]
    assert result["differ"] == []
    assert set(result["first"]) <= {"kronflow.primes._PRIMES"}
    assert result["second"] == []
