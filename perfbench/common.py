"""Paths and helpers shared by the benchmark's processes."""
from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

WORKLOADS = ("model-warm", "cli-cold", "trace-regions")
BUILTINS = ("two_d_cnn", "resnet_gait", "caffenet", "resnet_im")


def require_sources() -> None:
    """Exit with status 2 unless the checkout holds cnnergy's sources."""
    if not (SRC / "cnnergy" / "__init__.py").is_file():
        print(f"perfbench: no cnnergy sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)


def child_env() -> dict[str, str]:
    """Environment for a fresh interpreter that imports cnnergy from ``src``.

    Bytecode is cached under ``_work`` whatever the caller's environment says,
    so a cold start costs what it costs an installed package, on every machine.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env
