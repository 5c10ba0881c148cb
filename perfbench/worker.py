"""One workload process: set-up, then closed-loop ops, then one JSON line.

``run.py`` starts this in a fresh interpreter, so the time from its start to
the first timed op (the set-up) covers interpreter start, ``import cnnergy``
(in a child process for cli-cold), building the inputs and, for model-warm,
the warm-up pass.

Modes:
  setup   stop at the first timed op (one more set-up sample);
  loop    run passes over the workload's op mix for ``--seconds``;
  traced  run untraced passes for half of ``--seconds``, then passes with the
          tracer installed for the other half, and summarise the spans.

Each op runs with one client in a closed loop: the next op starts when the
previous one has returned and its output has been checked. The deadline is
only checked between passes, so every pass runs the whole mix.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from common import BUILTINS, HERE, SRC, WORK, WORKLOADS, child_env, require_sources

import oracles
import tracer as tracing

GEN_TRACE_NOISE = "0.1"
RANKS = [(device, metric) for device in ("pascal", "maxwell")
         for metric in ("time", "energy", "edp")]


@dataclass(frozen=True)
class Op:
    kind: str
    argv: list[str]
    check: Callable[[str], str | None]


def _golden_op(kind, argv, name):
    return Op(kind, argv, lambda out: oracles.check_golden(name, out))


def import_cnnergy():
    """Import cnnergy from the checkout's ``src`` into this process."""
    sys.path.insert(0, str(SRC))
    import cnnergy
    import cnnergy.cli

    if not cnnergy.__file__.startswith(str(SRC)):
        sys.exit(f"perfbench: imported cnnergy from {cnnergy.__file__}, not from {SRC}")
    return cnnergy


def model_warm_ops(cnnergy, seed: int) -> list[Op]:
    import inputs

    arch_files = inputs.write_arch_files(cnnergy, WORK)
    models_file = WORK / "models.json"

    def check_calibrate(out):
        return (oracles.check_golden("calibrate", out)
                or oracles.check_golden("calibrate_models",
                                        models_file.read_text(encoding="utf-8")))

    units = [[_golden_op("analyze", ["analyze", "--builtin", b], f"analyze_{b}")]
             for b in BUILTINS]
    units += [[_golden_op("analyze", ["analyze", "--builtin", b, "--batch", "64"],
                          f"analyze_{b}_batch64")] for b in BUILTINS]
    units.append([_golden_op("analyze", ["analyze", "--builtin", "caffenet", "--format", "table"],
                             "analyze_caffenet_table")])
    units += [[_golden_op("analyze", ["analyze", "--arch", str(path)], f"analyze_{b}")]
              for b, path in arch_files.items()]
    units.append([
        Op("calibrate", ["calibrate", "--bundled", "--model-out", str(models_file)], check_calibrate),
        _golden_op("predict", ["predict", "--models", str(models_file), "--device", "pascal",
                               "--network", "resnet_gait", "--step", "forward", "--gpus", "1",
                               "--batch", "96"], "predict"),
    ])
    units += [[_golden_op("rank", ["rank", "--bundled", "--device", d, "--metric", m],
                          f"rank_{d}_{m}")] for d, m in RANKS]
    random.Random(seed).shuffle(units)
    return [op for unit in units for op in unit]


def cli_cold_ops(seed: int) -> list[Op]:
    ops = [_golden_op("analyze", ["analyze", "--builtin", b], f"analyze_{b}")
           for b in BUILTINS]
    ops.append(_golden_op("calibrate", ["calibrate", "--bundled"], "calibrate"))
    ops += [_golden_op("rank", ["rank", "--bundled", "--device", d, "--metric", m],
                       f"rank_{d}_{m}") for d, m in (("pascal", "edp"), ("maxwell", "energy"))]
    random.Random(seed).shuffle(ops)
    return ops


def trace_regions_ops(seed: int, size: str) -> list[Op]:
    import inputs

    data = inputs.trace_inputs(seed, size)
    trace_file = WORK / "trace.csv"
    regions_file = WORK / "regions.csv"
    trace_file.write_text(data.trace_text, encoding="utf-8")
    regions_file.write_text(data.regions_text, encoding="utf-8")
    reference = oracles.integrate_reference(data.times, data.watts, data.regions)
    segments, profile = inputs.gen_trace_segments(seed, size)
    return [
        Op("integrate", ["integrate", "--trace", str(trace_file), "--regions", str(regions_file)],
           lambda out: oracles.check_integrate(out, data.labels, data.regions, reference)),
        Op("gen-trace", ["gen-trace", "--segments", segments, "--rate", str(inputs.RATE_HZ),
                         "--channels", str(inputs.CHANNELS), "--noise", GEN_TRACE_NOISE,
                         "--seed", str(seed)],
           lambda out: oracles.check_gen_trace(out, profile, inputs.CHANNELS, inputs.RATE_HZ)),
    ]


def in_process_runner(cli):
    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    return run


class ColdRunner:
    """Runs each op in a fresh interpreter; keeps the largest child's peak RSS."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.env = child_env()
        self.spawned = 0
        self.peak_kb = 0

    def __call__(self, argv):
        self.spawned += 1
        if self.traced:
            spans = WORK / f"spans-cold-{self.spawned}.jsonl"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans)]
        else:
            cmd = [sys.executable, "-m", "cnnergy.cli"]
        proc = subprocess.Popen(cmd + argv, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True, env=self.env)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return proc.returncode, out


def corrupt(kind: str, text: str) -> str:
    """A deliberately wrong output, to show the self-test that oracles are live."""
    lines = text.splitlines(keepends=True)
    if kind == "integrate":
        col = lines[0].split(",").index("joules_total")
        for i, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            if cells[col]:
                cells[col] = f"{float(cells[col]) * 1.01:.6g}"
                lines[i] = ",".join(cells)
                break
    else:  # gen-trace and rank: swap the first two data rows
        first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
        lines[first], lines[first + 1] = lines[first + 1], lines[first]
    return "".join(lines)


def run_passes(ops, runner, seconds, corrupt_kind=None, tracer=None):
    """Closed loop over whole passes; returns per-op records and failure reasons."""
    records, failures = [], []
    deadline = time.monotonic() + seconds
    n_pass = 0
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op_id += 1
            t0 = time.perf_counter()
            try:
                code, out = runner(op.argv)
                reason = None if code == 0 else f"{op.kind}: exit {code}"
            # SystemExit too: argparse exits from inside cli.main on bad argv.
            except (Exception, SystemExit):
                out, reason = "", f"{op.kind}: raised {traceback.format_exc(limit=3)}"
            latency = time.perf_counter() - t0
            if reason is None:
                if op.kind == corrupt_kind:
                    out = corrupt(op.kind, out)
                try:
                    reason = op.check(out)
                except Exception:
                    reason = f"{op.kind}: oracle could not read the output: " \
                             f"{traceback.format_exc(limit=1)}"
            records.append({"pass": n_pass, "op": tracer.op_id if tracer else None,
                            "kind": op.kind, "s": latency, "ok": reason is None})
            if reason:
                failures.append(reason)
        n_pass += 1
        if time.monotonic() >= deadline:
            return records, failures


def summarise_spans(spans, records):
    """Per-function self time, calls and work for each pass, as medians over passes."""
    own = tracing.self_times(spans)
    op_pass = {r["op"]: r["pass"] for r in records}
    per_pass = defaultdict(lambda: defaultdict(lambda: [0.0, 0, 0]))
    per_op = defaultdict(lambda: defaultdict(float))
    for span in spans:
        span_id, _, op, name, _, _, work = span
        entry = per_pass[op_pass[op]][name]
        entry[0] += own[span_id]
        entry[1] += 1
        entry[2] += work or 0
        per_op[op][name] += own[span_id]
    names = sorted({name for fns in per_pass.values() for name in fns})
    passes = list(per_pass.values())
    functions = {}
    for name in names:
        rows = [p.get(name, [0.0, 0, 0]) for p in passes]
        functions[name] = {
            "ms": statistics.median(r[0] for r in rows) * 1e3,
            "calls": statistics.median(r[1] for r in rows),
            "work": statistics.median(r[2] for r in rows),
            "total_s": sum(r[0] for r in rows),
            "total_work": sum(r[2] for r in rows),
        }
    stages = defaultdict(float)
    for name, stage in tracing.STAGES.items():
        if name in functions:
            stages[stage] += functions[name]["ms"]
    parts = ("powertrace.parse_trace", "powertrace.parse_regions", "powertrace.integrate",
             "powertrace.region_results_csv")
    accounted = [sum(per_op[r["op"]][p] for p in parts) / r["s"]
                 for r in records if r["kind"] == "integrate"]
    return {"functions": functions, "stages": dict(stages),
            "integrate_accounted": statistics.median(accounted) if accounted else None}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "loop", "traced"), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt", choices=("integrate", "gen-trace", "rank"))
    args = parser.parse_args()
    require_sources()
    WORK.mkdir(exist_ok=True)

    cold = args.workload == "cli-cold"
    if cold:
        # The client stays small and imports cnnergy only in a child: a
        # spawned child's peak RSS starts from its parent's at spawn time.
        subprocess.run([sys.executable, "-c", "import cnnergy"], env=child_env(),
                       check=True, timeout=60)
        ops = cli_cold_ops(args.seed)
        runner = ColdRunner(traced=False)
    else:
        cnnergy = import_cnnergy()
        runner = in_process_runner(cnnergy.cli)
        if args.workload == "model-warm":
            ops = model_warm_ops(cnnergy, args.seed)
            run_passes(ops, runner, 0)
        else:
            ops = trace_regions_ops(args.seed, args.size)
    result = {"t_first": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    seconds = args.seconds if args.mode == "loop" else args.seconds / 2
    records, failures = run_passes(ops, runner, seconds, args.corrupt)
    peak_kb = runner.peak_kb if cold else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.mode == "traced":
        result["untraced"] = records
        tracer = None
        if cold:
            runner = ColdRunner(traced=True)
        else:
            tracer = tracing.Tracer()
            tracer.install(cnnergy)
        try:
            records, more = run_passes(ops, runner, seconds, args.corrupt, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        failures += more
        if tracer is not None:
            tracer.dump(WORK / f"spans-{args.workload}.jsonl")
            result["spans"] = summarise_spans(tracer.spans, records)
    result.update(ops=records, failures=failures[:20], maxrss_kb=peak_kb)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
