"""Self-test of the benchmark: every named metric prints, and the oracles are live.

    python3 perfbench/selftest.py

Runs each workload at the tiny size for one second, untraced and traced, and
checks that each run prints every metric BENCHMARK.json names, with its unit,
and no failure. Then runs with a deliberately corrupted integrate, gen-trace
or rank output and checks that the corruption is counted as a failed op.
Exits with status 1 on the first check that does not hold.
"""
import json
import subprocess
import sys

from common import HERE, ROOT, WORKLOADS

CORRUPTIONS = (("integrate", "trace-regions"), ("gen-trace", "trace-regions"),
               ("rank", "model-warm"), ("rank", "cli-cold"))


def bench(*args) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--seed", "3", "--seconds", "1",
           "--size", "tiny", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def fail(message: str) -> None:
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = bench("--workload", workload, "--trace", str(trace))
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                fail(f"{workload} --trace {trace}: metrics {sorted(got)} != {sorted(want)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{workload} --trace {trace}: {result['failed']} of "
                     f"{result['attempted']} ops failed")
            print(f"selftest: {workload} --trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops, none failed")
    for kind, workload in CORRUPTIONS:
        result = bench("--workload", workload, "--trace", "0", "--corrupt", kind)
        if result["correct"] or result["failed"] < 1:
            fail(f"a corrupted {kind} output on {workload} was not counted as failed")
        print(f"selftest: corrupted {kind} on {workload}: {result['failed']} of "
              f"{result['attempted']} ops counted as failed")
    print("selftest: ok")


if __name__ == "__main__":
    main()
