"""cnnergy benchmark: end-to-end metrics per workload, per-layer metrics from a traced run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is ``model-warm``, ``cli-cold``, ``trace-regions`` or ``all``. Every input
is generated from the seed (``inputs.py``); cnnergy only receives the files
and the argv. Each workload runs as a closed loop with one client, since a
CLI user waits for each command before sending the next, and every output is
checked by an oracle (``oracles.py``). The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` (the untraced run) reports per workload:
  setup_s      median over 5 fresh processes of the time from process start to
               the first timed op: interpreter start, ``import cnnergy``, the
               inputs and, for model-warm, one warm-up pass;
  ops_per_s    correct ops per second of op time (oracle time excluded);
  op_p50_ms    median op latency;
  peak_rss_mb  peak RSS of the process running cnnergy (for cli-cold, the
               largest child);
and, on the human-readable lines only, ``op_tail_ms`` (the highest percentile
with at least 10 samples beyond it, printed with that percentile and n;
omitted below 11 ops, which is the usual case on trace-regions) and
``error_rate`` (failed ops over attempted ops; it is 0 on a correct program,
so it travels as ``failed``/``attempted`` rather than as a metric).

``--trace 1`` (the traced run) wraps cnnergy's public functions from this
directory (``tracer.py``) and reports ``<module>.<function>.<stat>``:
``ms`` is self time per pass over the workload's op mix (median over passes),
``calls`` a count per pass, ``sample_visits`` integrate calls x samples x
channels per pass, ``mb_per_s`` bytes parsed or emitted over self time.
Each layer is measured on the workload where it does its work: arch,
costmodel, energymodel, multigpu, tuner and cli on model-warm, powertrace on
trace-regions, and import time on fresh interpreters (the cold-start probe).
So the traced run of any workload also runs those two; the workload named by
``--workload`` gives ``bench.tracing_overhead_pct``, the drop in ops_per_s
from its untraced to its traced passes. ``cli.main.ms`` is the self time of
the whole cli module: argparse, command glue, ``_render_table``, ``_deliver``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import HERE, WORK, WORKLOADS, child_env, require_sources

SETUP_SAMPLES = 5
PROBE_SAMPLES = 7
CHILD_TIMEOUT_S = 170

#: Functions whose per-layer metrics the traced run reports, by home workload.
LAYER_FUNCTIONS = {
    "model-warm": {
        "arch.parse_network": ("ms",),
        "arch.infer_shapes": ("ms", "calls"),
        "costmodel.network_cost": ("ms", "calls"),
        "costmodel.cost_csv": ("ms",),
        "energymodel.parse_measurements": ("ms", "calls"),
        "energymodel.calibrate": ("ms",),
        "energymodel.find_model": ("calls",),
        "energymodel.bundled_plans": ("ms",),
        "tuner.score": ("ms", "calls"),
        "tuner.memory_feasible": ("calls",),
        "tuner.rank": ("ms",),
        "multigpu.set_energy": ("calls",),
        "multigpu.split_batch": ("calls",),
    },
    "trace-regions": {
        "powertrace.parse_trace": ("ms", "mb_per_s"),
        "powertrace.parse_regions": ("ms",),
        "powertrace.integrate": ("ms", "calls", "sample_visits"),
        "powertrace.region_results_csv": ("ms",),
        "powertrace.generate_synthetic_trace": ("ms",),
        "powertrace.trace_csv": ("ms", "mb_per_s"),
    },
}
UNITS = {"ms": "ms", "calls": "count", "sample_visits": "count", "mb_per_s": "MB/s"}


class BenchError(Exception):
    pass


def worker(workload, seed, seconds, mode, size, corrupt=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, "--size", size]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker ({mode}) exited {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["t_first"] - started
    return result


def throughput(records) -> float:
    """Correct ops per second of op time."""
    return sum(r["ok"] for r in records) / sum(r["s"] for r in records)


def tail(latencies):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(latencies)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


def measure(workload, seed, seconds, size, corrupt=None):
    """The untraced run: end-to-end metrics and the human-readable lines."""
    # Set-up-only runs go first: in a fresh checkout the first one also fills
    # the bytecode cache, which must not count in the measured run's peak RSS.
    setups = [worker(workload, seed, seconds, "setup", size)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    run = worker(workload, seed, seconds, "loop", size, corrupt)
    setups.append(run["setup_s"])
    ops = run["ops"]
    latencies = [r["s"] for r in ops]
    failed = sum(not r["ok"] for r in ops)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (throughput(ops), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mb": (run["maxrss_kb"] / 1024, "MB"),
    }
    n = len(ops)
    notes = {"setup_s": f"median of {len(setups)} set-ups", "ops_per_s": f"n={n}",
             "op_p50_ms": f"n={n}",
             "peak_rss_mb": f"largest of {n} children" if workload == "cli-cold" else "worker"}
    lines = [f"{workload}: closed loop, 1 client, seed {seed}, {n} ops in "
             f"{1 + max(r['pass'] for r in ops)} passes"]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<12} {value:12.6g} {unit:<4} {notes.get(name, '')}")
    t = tail(latencies)
    lines.append(f"  {'op_tail_ms':<12} " + (f"{t[1] * 1e3:12.6g} ms   p{t[0]:.4g} n={n}" if t
                                             else f"{'omitted':>12}      n={n} < 11"))
    lines.append(f"  {'error_rate':<12} {failed / n:12.6g}      {failed}/{n}")
    lines += [f"  failure: {reason}" for reason in run["failures"]]
    return metrics, n, failed, lines


def cold_start_probe():
    """import.* metrics, each from fresh interpreters."""
    env = child_env()

    def timed(code):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        return time.perf_counter() - t0, out

    bare = [timed("pass")[0] for _ in range(PROBE_SAMPLES)]
    imports = [float(timed("import time; t = time.perf_counter(); import cnnergy; "
                           "print(time.perf_counter() - t)")[1]) for _ in range(PROBE_SAMPLES)]
    out_file = WORK / "probe-analyze.csv"
    _, flag = timed("import sys; from cnnergy import cli; "
                    f"code = cli.main(['analyze', '--builtin', 'two_d_cnn', '--output', {str(out_file)!r}]); "
                    "print(int('numpy' in sys.modules) if code == 0 else -1)")
    if int(flag) < 0:
        raise BenchError("cold analyze in the probe failed")
    return {
        "import.python_bare_ms": (statistics.median(bare) * 1e3, "ms"),
        "import.cnnergy_ms": (statistics.median(imports) * 1e3, "ms"),
        "import.numpy_loaded": (int(flag), "count"),
    }


def layer_metrics(spans, functions, lines):
    """Metrics of the named functions; one that never ran reads 0 and is flagged."""
    found = spans["functions"]
    metrics = {}
    for name, stats in functions.items():
        if name not in found:
            lines.append(f"  warning: {name} was not called; its metrics read 0")
        f = found.get(name, {"ms": 0.0, "calls": 0, "work": 0, "total_s": 0.0, "total_work": 0})
        for stat in stats:
            if stat == "mb_per_s":
                value = f["total_work"] / 2 ** 20 / f["total_s"] if f["total_s"] else 0.0
            else:
                value = f["work"] if stat == "sample_visits" else f[stat]
            metrics[f"{name}.{stat}"] = (value, UNITS[stat])
    return metrics


def traced(workload, seed, seconds, size, corrupt=None):
    """The traced run: per-layer metrics and the human-readable lines."""
    runs = {w: worker(w, seed, seconds, "traced", size, corrupt if w == workload else None)
            for w in dict.fromkeys([workload, "model-warm", "trace-regions"])}
    metrics = cold_start_probe()
    warnings = []
    warm, trace = runs["model-warm"]["spans"], runs["trace-regions"]["spans"]
    metrics.update(layer_metrics(warm, LAYER_FUNCTIONS["model-warm"], warnings))
    cli_ms = sum(f["ms"] for name, f in warm["functions"].items() if name.startswith("cli."))
    metrics["cli.main.ms"] = (cli_ms, "ms")
    metrics.update(layer_metrics(trace, LAYER_FUNCTIONS["trace-regions"], warnings))
    own = runs[workload]
    untraced, traced_ops = throughput(own["untraced"]), throughput(own["ops"])
    metrics["bench.tracing_overhead_pct"] = (100.0 * (untraced - traced_ops) / untraced, "%")
    metrics["bench.integrate_op_accounted_pct"] = (100.0 * trace["integrate_accounted"], "%")

    attempted = sum(len(r["ops"]) + len(r["untraced"]) for r in runs.values())
    failed = sum(not o["ok"] for r in runs.values() for o in r["ops"] + r["untraced"])
    lines = [f"traced run for {workload}, seed {seed}: per-layer metrics "
             "(self time per pass of each layer's home workload)"]
    lines += [f"  {name:<40} {value:12.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append("  stages (ms per pass): " + ", ".join(
        f"{stage} {ms:.4g}" for spans in (warm, trace) for stage, ms in spans["stages"].items()))
    lines += warnings
    lines += [f"  failure: {reason}" for r in runs.values() for reason in r["failures"]]
    return metrics, attempted, failed, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long each loop measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="trace-regions input size; tiny is for the self-test")
    parser.add_argument("--corrupt", choices=("integrate", "gen-trace", "rank"),
                        help="corrupt this op's output before the oracle sees it (self-test)")
    args = parser.parse_args()
    require_sources()
    WORK.mkdir(exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    step = traced if args.trace else measure
    results = {}
    try:
        for w in workloads:
            results[w] = step(w, args.seed, args.seconds, args.size, args.corrupt)
    except (BenchError, subprocess.SubprocessError, ValueError, KeyError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for *_, lines in results.values():
        print("\n".join(lines))
    prefix = len(workloads) > 1
    metrics = {(f"{w}.{name}" if prefix else name): {"value": value, "unit": unit}
               for w, (m, *_) in results.items() for name, (value, unit) in m.items()}
    attempted = sum(r[1] for r in results.values())
    failed = sum(r[2] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
