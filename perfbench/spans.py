"""Per-layer spans around kronflow's public functions.

``Tracer.install`` wraps every public function defined in each kronflow
module (plus ``SigmaSequence.partial_product``) and puts the wrapper under
every name a caller looks it up by: the defining module, each module that
imported it with ``from .x import f``, and the package namespace.  Nothing
in ``src/`` is edited; the wrappers live only in the traced process.

Each call records a span (name, start, end, parent span, request id) in
compact arrays that are written out once, at the end.  Self time (duration
minus the time covered by child spans) and call counts are aggregated per
pass as the spans close; work counts come from arguments and return values.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "frequency", "primes", "exact_linalg", "resonance_reduction", "classification",
          "solenoid_geometry", "dynamics", "benjamin_ono")
# functions whose per-call inclusive times are kept, for the ".ms" metrics
PER_CALL = {"resonance_reduction.resonance_basis", "resonance_reduction.reduce_flow",
            "dynamics.sample_trajectory", "dynamics.time_average_quadrature", "dynamics.time_average",
            "dynamics.equidistribution_report", "dynamics.minimality_probe"}
MAX_SPANS = 3_000_000  # about 100 MB of arrays; later spans are counted, not kept


def _bits_of_vectors(vectors) -> int:
    return max((abs(v).bit_length() for vec in vectors for _i, v in vec.items()), default=0)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_req = array("i")
        self.dropped = 0
        self.stack: list[list] = []  # [span index, name id, start, child seconds]
        self.active: dict[str, int] = defaultdict(int)
        self.request = (-1, "", "")  # (id, kind, label) of the running request
        self.t0 = time.perf_counter()
        self.begin_pass()

    # -- per-pass aggregates

    def begin_pass(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)
        self.per_call: dict[str, list] = defaultdict(list)  # name -> [(kind, label, seconds)]

    def end_pass(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls), "counts": dict(self.counts),
                "per_call": dict(self.per_call)}

    # -- spans

    def _enter(self, nid: int) -> list:
        now = time.perf_counter()
        idx = len(self.span_name)
        if idx < MAX_SPANS:
            self.span_name.append(nid)
            self.span_start.append(now - self.t0)
            self.span_end.append(0.0)
            self.span_parent.append(self.stack[-1][0] if self.stack else -1)
            self.span_req.append(self.request[0])
        else:
            self.dropped += 1
            idx = -1
        frame = [idx, nid, now, 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list, failed: bool) -> float:
        now = time.perf_counter()
        self.stack.pop()
        idx, nid, start, child = frame
        dur = now - start
        if idx >= 0:
            self.span_end[idx] = now - self.t0
        name = self.names[nid]
        self.self_s[name] += dur - child
        if self.stack:
            self.stack[-1][3] += dur
        if failed:
            parent_layer = self.layer_of[self.stack[-1][1]] if self.stack else None
            if parent_layer != self.layer_of[nid]:
                self.counts[f"{self.layer_of[nid]}.errors"] += 1
        return dur

    def _wrap(self, name: str, layer: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        hook = _HOOKS.get(name)
        keep = name in PER_CALL

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                self.active[name] += 1
                gen = fn(*args, **kwargs)
                total = 0.0
                try:
                    while True:
                        frame = self._enter(nid)
                        try:
                            item = next(gen)
                        except StopIteration:
                            total += self._exit(frame, False)
                            break
                        except BaseException:
                            self._exit(frame, True)
                            raise
                        total += self._exit(frame, False)
                        yield item
                finally:
                    self.active[name] -= 1
                    gen.close()
                if keep:
                    self.per_call[name].append((self.request[1], self.request[2], total))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            self.active[name] += 1
            frame = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.active[name] -= 1
                self._exit(frame, True)
                raise
            self.active[name] -= 1
            dur = self._exit(frame, False)
            if keep:
                self.per_call[name].append((self.request[1], self.request[2], dur))
            if hook is not None:
                start = time.perf_counter()
                hook(self, args, result)
                if self.stack:  # keep the hook's cost out of the caller's self time
                    self.stack[-1][3] += time.perf_counter() - start
            return result
        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer under all their names."""
        modules = {layer: importlib.import_module(f"kronflow.{layer}") for layer in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("kronflow")]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", layer, fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapped)
        seq = modules["frequency"].SigmaSequence
        seq.partial_product = self._wrap("frequency.partial_product", "frequency", seq.partial_product)

    def write_spans(self, path: Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "name", "start_s", "end_s", "parent", "request"])
            for i in range(len(self.span_name)):
                w.writerow([i, self.names[self.span_name[i]], f"{self.span_start[i]:.9f}",
                            f"{self.span_end[i]:.9f}", self.span_parent[i], self.span_req[i]])


# -- work counts taken from arguments and return values


def _integer_kernel(tr: Tracer, args, result) -> None:
    key = "exact_linalg.integer_kernel.coeff_bits_max"
    tr.counts[key] = max(tr.counts[key], _bits_of_vectors(result))
    if tr.active["resonance_reduction.reduce_flow"]:
        tr.counts["reduce_flow.kernels"] += 1


def _reduce_vector(tr: Tracer, args, result) -> None:
    tr.counts["resonance_reduction.reduce_vector.steps"] += len(result.steps)
    tr.counts["resonance_reduction.reduce_vector.passes"] += len(result.pass_sums)


def _reduce_flow(tr: Tracer, args, result) -> None:
    m = result.transform
    rows = [m.row(i) for i in range(1, m.dimension + 1)] + [m.inverse_row(i) for i in range(1, m.dimension + 1)]
    key = "resonance_reduction.reduce_flow.transform_bits_max"
    tr.counts[key] = max(tr.counts[key], _bits_of_vectors(rows))
    tr.counts["reduce_flow.zero_rank"] += result.zero_rank


def _evaluate_float(tr: Tracer, args, result) -> None:
    if tr.active["dynamics.flow"]:
        tr.counts["flow.evaluate_float"] += 1


def _minimality_probe(tr: Tracer, args, result) -> None:
    tr.counts["dynamics.minimality_probe.samples"] += result.samples
    tr.counts["dynamics.minimality_probe.hits"] += int(result.hit)


_HOOKS = {
    "exact_linalg.integer_kernel": _integer_kernel,
    "resonance_reduction.reduce_vector": _reduce_vector,
    "resonance_reduction.reduce_flow": _reduce_flow,
    "frequency.evaluate_float": _evaluate_float,
    "dynamics.minimality_probe": _minimality_probe,
}
