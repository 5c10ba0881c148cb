"""Span tracer that wraps cnnergy's public functions from outside the package.

``Tracer.install`` replaces every public function of the traced modules with
a wrapper, through the module attributes, including the names other traced
modules imported (``tuner.infer_shapes`` is ``arch.infer_shapes``, so both
attributes get the same wrapper). Calls inside a module look their callees up
in the module globals at call time, so nested calls are traced too. Nothing
under ``src/`` is edited: ``uninstall`` puts the original functions back.

Each call records one span ``(id, parent_id, op_id, name, t0, t1, work)`` in
memory; ``dump`` writes them once, at the end. ``work`` is a size for the few
functions whose throughput is reported: bytes parsed or emitted, and samples
x channels of the trace for every integrate call, including one that raises.
Self time is a span's duration minus its direct children's.
"""
from __future__ import annotations

import inspect
import itertools
import json
import os
from time import perf_counter

MODULES = ("arch", "costmodel", "energymodel", "multigpu", "tuner", "powertrace", "cli")

#: Span name -> the ROADMAP pipeline stage it times. A later in-program
#: timing flag is meant to report under the same stage names.
STAGES = {
    "arch.parse_network": "parse",
    "arch.infer_shapes": "infer_shapes",
    "costmodel.network_cost": "network_cost",
    "energymodel.calibrate": "calibrate",
    "tuner.score": "score",
    "tuner.rank": "rank",
    "powertrace.parse_trace": "trace_parse",
    "powertrace.parse_regions": "trace_parse",
    "powertrace.integrate": "integrate",
    "powertrace.region_results_csv": "csv_emit",
    "powertrace.trace_csv": "csv_emit",
}


def _source_bytes(args, result):
    source = args[0]
    if hasattr(source, "fileno"):
        return os.fstat(source.fileno()).st_size
    return len(source)


def _samples_visited(args, result):
    trace = args[0]
    return trace.n_samples * trace.n_channels


def _result_bytes(args, result):
    return 0 if result is None else len(result)


SPAN_WORK = {
    "powertrace.parse_trace": _source_bytes,
    "powertrace.integrate": _samples_visited,
    "powertrace.trace_csv": _result_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = 0
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn):
        work = SPAN_WORK.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                size = work(args, result) if work else None
                spans.append((span_id, parent, self.op_id, name, t0, t1, size))

        return traced

    def install(self, package) -> None:
        traced_names = {f"{package.__name__}.{m}" for m in MODULES}
        wrappers = {}
        for module in (getattr(package, m) for m in MODULES):
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ not in traced_names):
                    continue
                if id(value) not in wrappers:
                    home = value.__module__.rpartition(".")[2]
                    wrappers[id(value)] = self._wrap(f"{home}.{value.__name__}", value)
                self._restore.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, t0, t1, size in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "stage": STAGES.get(name),
                                     "t0": t0, "t1": t1, "work": size}) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for _, parent, _, _, t0, t1, _ in spans:
        if parent in own:
            own[parent] -= t1 - t0
    return own
