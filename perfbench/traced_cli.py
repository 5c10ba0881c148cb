"""``python -m cnnergy.cli`` with the benchmark tracer installed.

    python3 perfbench/traced_cli.py SPANS_OUT <cnnergy arguments...>

The traced run of cli-cold starts each op this way, so that the tracing cost
of a fresh process (importing the tracer, wrapping, writing spans) shows in
``bench.tracing_overhead_pct``. Expects ``src`` on ``PYTHONPATH``.
"""
import sys

import cnnergy
import cnnergy.cli

import tracer as tracing

if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracer.install(cnnergy)
    try:
        code = cnnergy.cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])
    sys.exit(code)
