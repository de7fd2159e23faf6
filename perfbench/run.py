#!/usr/bin/env python3
"""kronflow benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload exact-reduce --seed 1 --seconds 30 --trace 0

One client in one thread issues the next request only after the previous one
returns, as a script calling ``kron`` would.  A request is one in-process
``kron`` subcommand (``kronflow.cli.main(argv)`` with stdout and stderr
captured) or, for ``minimality_probe`` and ``time_average_quadrature``, the
library call.  The seeded request list is replayed in whole passes until the
timed loop has run ``--seconds``; every output is checked against an
independent oracle after its pass, outside the timed region.

On a shared machine the host's speed can drift by 10-30% over seconds to
minutes, for CPU time as much as for wall time.  So between requests, at most
every CAL_EVERY_S, the loop times a fixed pure-Python reference chunk that
does not touch kronflow, and each request's wall and CPU time is multiplied by
REF_CHUNK_S over the median duration of the 2 * CAL_NEIGHBOURS chunks nearest
to it.  The timing metrics are these host-speed-corrected times: milliseconds
as they would read on a host running the chunk at its nominal speed (the speed
of the 2-vCPU, 2.1 GHz Xeon the benchmark was defined on).  A slower program
reads slower; a slower host does not.  The report also prints the raw figures.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` first replays untraced passes for a quarter of the time, then
wraps the public functions of every kronflow module and reports the
per-layer metrics, writing all spans to ``.perfbench_out/``.  The last line
of stdout is the JSON result; the lines before it name every metric with its
unit for a human reader.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPS = 9
REQUEST_TIMEOUT_S = 30.0  # the slowest request at the seed takes about 0.8 s
AS_HEADROOM = 1536 << 20  # address space allowed beyond what set-up used
UNTRACED_SHARE = 0.25  # of --seconds, in a traced run, to measure tracing overhead

REF_CHUNK_S = 0.003  # nominal duration of reference_chunk(), wall and CPU
CAL_EVERY_S = 0.05  # least request time between two reference chunks
CAL_NEIGHBOURS = 2  # chunks on each side of a request that set its correction

# per-layer functions whose ".ms.<label>" medians are taken over one request kind
LABEL_KIND = {"resonance_reduction.resonance_basis": "resonance", "resonance_reduction.reduce_flow": "reduce-flow"}


class RequestTimeout(BaseException):
    """Raised by SIGALRM inside a request; a BaseException so that no
    ``except Exception`` in the program can swallow it."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


def run_request(req, cli) -> tuple[float, float, object, str | None]:
    """(wall seconds, CPU seconds, output, error) for one request under the
    wall-clock timeout."""
    out_buf, err_buf = io.StringIO(), io.StringIO()
    out, error = None, None
    signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
            if req.argv is not None:
                out = (cli.main(req.argv), out_buf.getvalue())
            else:
                out = req.call()
    except RequestTimeout:
        error = "timeout"
    except MemoryError:
        error = "memory cap"
    except SystemExit as exc:
        error = f"exit {exc.code}: {err_buf.getvalue().strip()[-200:]}"
    except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return seconds, cpu, out, error


def reference_chunk() -> tuple:
    """Fixed pure-Python work of the kinds kronflow does (a small-int loop,
    Fraction sums, big-integer products), about REF_CHUNK_S on the reference
    host.  It calls nothing in kronflow, so its duration follows the host's
    speed and not the program's."""
    s = 0
    for i in range(20000):
        s += i * i % 7
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i % 17 + 1, i)
    x, m = 3**2000, 7**1500
    for _ in range(100):
        x = x * 12345678901 % m
    return s, acc, x


class SpeedProbe:
    """Times reference_chunk between requests and turns a request's raw time
    into host-speed-corrected time."""

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.last = -math.inf

    def tick(self, force: bool = False) -> None:
        """Run one chunk if CAL_EVERY_S has passed since the last (or if forced).
        The cyclic collector is off during the chunk, so the program's heap
        does not slow it."""
        if not force and time.perf_counter() - self.last < CAL_EVERY_S:
            return
        collecting = gc.isenabled()
        gc.disable()
        try:
            cpu0, t0 = time.process_time(), time.perf_counter()
            reference_chunk()
            t1, cpu1 = time.perf_counter(), time.process_time()
        finally:
            if collecting:
                gc.enable()
        self.wall.append(t1 - t0)
        self.cpu.append(cpu1 - cpu0)
        self.last = t1

    def factors(self, j: int) -> tuple[float, float]:
        """(wall, CPU) correction for a request run after chunk j-1 and before chunk j."""
        lo = max(0, min(j, len(self.wall) - 1) - CAL_NEIGHBOURS)
        hi = max(lo + 1, min(len(self.wall), j + CAL_NEIGHBOURS))
        return (REF_CHUNK_S / statistics.median(self.wall[lo:hi]),
                REF_CHUNK_S / statistics.median(self.cpu[lo:hi]))


def cold_import() -> None:
    """``import kronflow.cli`` in a fresh interpreter, as every kron call pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", "import kronflow.cli"], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cold import failed: {proc.stderr.strip()[-500:]}")


def cap_address_space() -> int:
    """Cap this process's address space at its current size plus AS_HEADROOM,
    so a memory blow-up fails one request instead of the machine."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        current = int(fh.read().split()[0]) * resource.getpagesize()
    limit = current + AS_HEADROOM
    _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    return limit


class Verifier:
    """Runs the independent checks.  The program is deterministic, so an
    output byte-identical to one already verified for the same request (and
    the same input) gets that verdict again without recomputing the check."""

    def __init__(self, checks):
        self.checks = checks
        self.verified: dict[int, tuple[str, dict]] = {}

    def __call__(self, i: int, req, out) -> dict:
        h = hashlib.sha256(repr(out).encode())
        if req.kind == "simulate":
            h.update(Path(req.ctx["out"]).read_bytes())
        key = h.hexdigest()
        hit = self.verified.get(i)
        if hit is not None and hit[0] == key:
            return hit[1]
        obs = self.checks.CHECKS[req.kind](req.ctx, out)
        self.verified[i] = (key, obs)
        return obs


class Pass:
    """One replay of the request list: timings, outputs, check verdicts."""

    def __init__(self, reqs, cli, verify: Verifier, probe: SpeedProbe, tracer=None):
        self.n = len(reqs)
        self.failures, self.phase_err = [], 0.0
        self.stdout_bytes = self.exit_nonzero = 0
        results, self.chunk_after = [], []
        t0 = time.perf_counter()
        for i, req in enumerate(reqs):
            if tracer is not None:
                tracer.request = (i, req.kind, req.label)
            results.append(run_request(req, cli))
            self.chunk_after.append(len(probe.wall))
            probe.tick()
        self.wall = time.perf_counter() - t0
        self.layers = tracer.end_pass() if tracer is not None else None
        self.latencies = [r[0] for r in results]
        self.cpu_times = [r[1] for r in results]
        for i, (req, (_s, _c, out, error)) in enumerate(zip(reqs, results)):  # untimed
            if req.argv is not None and out is not None:
                self.stdout_bytes += len(out[1].encode())
                self.exit_nonzero += out[0] != 0
            if error is None:
                try:
                    obs = verify(i, req, out)
                    self.phase_err = max(self.phase_err, obs.get("phase_err_rad", 0.0))
                except Exception as exc:  # noqa: BLE001 - any checker error fails the request
                    error = f"check failed: {type(exc).__name__}: {exc}"
            if error is not None:
                self.failures.append(f"{req.kind} {req.label}: {error}")
        self.ok = self.n - len(self.failures)

    def correct(self, probe: SpeedProbe) -> None:
        """Host-speed-corrected wall and CPU time of each request; call once
        the chunks after the last request have run."""
        self.chunk_wall = probe.wall
        factors = [probe.factors(j) for j in self.chunk_after]
        self.latencies_c = [s * fw for s, (fw, _fc) in zip(self.latencies, factors)]
        self.cpu_c = [c * fc for c, (_fw, fc) in zip(self.cpu_times, factors)]


def replay(reqs, cli, verify: Verifier, seconds: float, tracer=None) -> list[Pass]:
    """Whole passes until the timed loop has run ``seconds`` (at least one),
    with reference chunks before, between and after the requests."""
    probe = SpeedProbe()
    probe.tick(force=True)
    passes: list[Pass] = []
    while not passes or sum(p.wall for p in passes) < seconds:
        if tracer is not None:
            tracer.begin_pass()
        passes.append(Pass(reqs, cli, verify, probe, tracer))
    for _ in range(CAL_NEIGHBOURS):
        probe.tick(force=True)
    for p in passes:
        p.correct(probe)
    return passes


def throughput(passes: list[Pass]) -> float:
    """Successful requests per second of corrected request time, over the run."""
    return sum(p.ok for p in passes) / sum(s for p in passes for s in p.latencies_c)


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, float]:
    lat_ms = [s * 1000 for p in passes for s in p.latencies_c]
    return {
        "throughput_rps": throughput(passes),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "cpu_ms_per_req": sum(c for p in passes for c in p.cpu_c) * 1000 / len(lat_ms),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def raw_end_to_end(passes: list[Pass]) -> dict[str, float]:
    """The timing metrics without the host-speed correction, for the report."""
    lat_ms = [s * 1000 for p in passes for s in p.latencies]
    return {
        "throughput_rps": sum(p.ok for p in passes) / sum(lat_ms) * 1000,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "cpu_ms_per_req": sum(c for p in passes for c in p.cpu_times) * 1000 / len(lat_ms),
    }


def per_layer(names: list[str], traced: list[Pass], untraced: list[Pass]) -> dict[str, float]:
    """Resolve each declared per-layer metric name from the traced passes.
    Counts come from the first traced pass (deterministic for a seed); times
    are medians over passes (self time per request) or over calls (.ms)."""
    first = traced[0].layers
    calls, counts = first["calls"], first["counts"]

    def per_call_ms(fn: str, label: str | None = None) -> float:
        vals = [s * 1000 for p in traced for kind, lab, s in p.layers["per_call"].get(fn, ())
                if label is None or (lab == label and kind == LABEL_KIND.get(fn))]
        return statistics.median(vals) if vals else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    traced_rps = throughput(traced)
    special = {
        "cli.stdout_bytes": traced[0].stdout_bytes,
        "cli.exit_nonzero": traced[0].exit_nonzero,
        "resonance_reduction.reduce_flow.kernels_per_zero":
            ratio(counts.get("reduce_flow.kernels", 0), counts.get("reduce_flow.zero_rank", 0)),
        "dynamics.evaluate_float_per_flow":
            ratio(counts.get("flow.evaluate_float", 0), calls.get("dynamics.flow", 0)),
        "dynamics.minimality_probe.hit_frac":
            ratio(counts.get("dynamics.minimality_probe.hits", 0), calls.get("dynamics.minimality_probe", 0)),
        "dynamics.float_phase_err_rad": max(p.phase_err for p in traced),
        "trace.throughput_rps": traced_rps,
        "trace.overhead_ratio": throughput(untraced) / traced_rps,
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".self_ms"):
            fn = name[: -len(".self_ms")]
            out[name] = statistics.median(p.layers["self_s"].get(fn, 0.0) * 1000 / p.n for p in traced)
        elif name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".ms"):
            out[name] = per_call_ms(name[: -len(".ms")])
        elif ".ms." in name:
            fn, label = name.split(".ms.", 1)
            out[name] = per_call_ms(fn, label)
        else:
            out[name] = counts.get(name, 0)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "kronflow" / "cli.py").is_file():
        print(f"error: no kronflow sources under {SRC}; run from a kronflow checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import mpmath
    import numpy

    import checks
    import spans
    import workloads
    from kronflow import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_specs = declared["per_layer"] if args.trace else declared["end_to_end"]

    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # set-up: cold import + generation + warm-up, SETUP_REPS times, each
        # corrected by the reference chunks just before and after it
        setup, setup_raw = [], []
        probe = SpeedProbe()
        for _ in range(SETUP_REPS):
            for _ in range(CAL_NEIGHBOURS):
                probe.tick(force=True)
            start = time.perf_counter()
            cold_import()
            reqs, warm = workloads.build(args.workload, args.seed, workdir)
            warm_results = [run_request(r, cli) for r in warm]
            setup_raw.append(time.perf_counter() - start)
            j = len(probe.wall)
            for _ in range(CAL_NEIGHBOURS):
                probe.tick(force=True)
            setup.append(setup_raw[-1] * probe.factors(j)[0])
        samples = [(r.kind, r.ctx, out) for r, (_s, _c, out, err) in zip(warm, warm_results) if err is None]
        problems = checks.self_test(samples)
        problems += [f"{r.kind}: warm-up request failed: {err}"
                     for r, (_s, _c, _o, err) in zip(warm, warm_results) if err]
        cap = cap_address_space()
        verify = Verifier(checks)

        untraced: list[Pass] = []
        traced: list[Pass] = []
        if args.trace:
            untraced = replay(reqs, cli, verify, args.seconds * UNTRACED_SHARE)
            tracer = spans.Tracer()
            tracer.install()
            traced = replay(reqs, cli, verify, args.seconds * (1 - UNTRACED_SHARE), tracer)
            metrics = per_layer([m["name"] for m in metric_specs], traced, untraced)
            spans_path = OUT / f"spans-{args.workload}.csv"
            tracer.write_spans(spans_path)
        else:
            untraced = replay(reqs, cli, verify, args.seconds)
            metrics = end_to_end(untraced, setup)
        passes = untraced + traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.n for p in passes)
    failures = [f for p in passes for f in p.failures]
    for line in (failures[:20] + problems):
        print(f"FAIL {line}", file=sys.stderr)

    # human-readable report: every metric by name with its unit
    n_lat = sum(len(p.latencies) for p in untraced)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)} x {len(reqs)} requests  "
          f"trace {args.trace}")
    print(f"host: nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {numpy.__version__}, "
          f"mpmath {mpmath.__version__}, address-space cap {cap >> 20} MB, request timeout {REQUEST_TIMEOUT_S:g} s")
    print(f"timings corrected to a reference chunk of {REF_CHUNK_S * 1000:g} ms; it took "
          f"{statistics.median(untraced[0].chunk_wall) * 1000:.3f} ms (median) in this run")
    for spec in metric_specs:
        print(f"  {spec['name']:58s} {metrics[spec['name']]:14.6g} {spec['unit']}")
    print(f"  {'ops_failed_frac':58s} {len(failures) / attempted:14.6g} ratio")
    if args.trace:
        print(f"  spans: {len(tracer.span_name)} kept, {tracer.dropped} dropped, written to {spans_path}")
        print("  waiting time: not reported; one client in a closed loop has no queue to wait in")
    else:
        print(f"  {'latency_samples':58s} {n_lat:14d} count")
        for name, value in {**raw_end_to_end(untraced), "setup_s": statistics.median(setup_raw)}.items():
            print(f"  {name + ' (raw, uncorrected)':58s} {value:14.6g}")
        if args.workload == "float-flow":
            print(f"  {'float_phase_err_rad':58s} {max(p.phase_err for p in passes):14.6g} rad")

    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in metric_specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
