"""Cold start: what ``import cnnergy`` and each entry point load, checked in
fresh interpreters.

pytest itself has numpy loaded, so every check runs in a subprocess.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cnnergy

SRC = str(Path(cnnergy.__file__).resolve().parents[1])


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports cnnergy from this tree."""
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def cli_run(argv) -> dict:
    """``cli.main(argv)`` in a new interpreter: exit code, stdout, numpy loaded."""
    code = ("import contextlib, io, json, sys\n"
            "from cnnergy import cli\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    code = cli.main({list(argv)!r})\n"
            "print(json.dumps({'code': code, 'out': out.getvalue(),\n"
            "                  'numpy': 'numpy' in sys.modules}))\n")
    return json.loads(fresh(code))


MODULES = ("arch", "costmodel", "energymodel", "errors", "multigpu", "powertrace", "tuner")

# cnnergy.__all__ written out, so that any change to the public surface shows here
ALL = [
    "BUILTIN_NETWORK_NAMES", "CalibratedModel", "CnnergyError", "ConfigReport", "CostSummary",
    "DeviceProfile", "GpuSet", "LayerSpec", "MeasurementRecord", "NetworkSpec", "PowerTrace",
    "Region", "ShapedNetwork", "TensorShape", "TrainingConfig", "TrainingPlan", "batch_cost",
    "builtin_network", "bundled_accuracy", "bundled_devices", "bundled_grid",
    "bundled_measurements", "bundled_plans", "calibrate", "cost_csv", "edp", "emit_network",
    "generate_synthetic_trace", "generation_gap", "gflops_per_watt", "infer_shapes",
    "integrate", "integrate_many", "load_regions", "load_trace", "memory_feasible",
    "network_cost", "parse_network", "predict", "rank", "recommend", "records_by_key",
    "ring_allreduce_time", "score", "split_batch", "__version__",
]


def test_import_cnnergy_leaves_numpy_unloaded():
    out = fresh("import sys, cnnergy\n"
                "print('numpy' in sys.modules, [m for m in sys.modules if m.startswith('cnnergy.')])\n")
    assert out == "False []\n"


def test_every_export_and_every_module_resolve_first_thing():
    out = fresh("import json, sys, cnnergy\n"
                f"modules = {MODULES!r}\n"
                "loaded = {m: getattr(cnnergy, m) is sys.modules['cnnergy.' + m] for m in modules}\n"
                "holders = {n: [vars(getattr(cnnergy, m))[n] for m in modules\n"
                "               if n in vars(getattr(cnnergy, m))] for n in cnnergy.__all__[:-1]}\n"
                "star = {}\n"
                "exec('from cnnergy import *', star)\n"
                "print(json.dumps({\n"
                "    'all': cnnergy.__all__, 'loaded': loaded,\n"
                "    'foreign': [n for n, held in holders.items()\n"
                "                if not held or any(h is not getattr(cnnergy, n) for h in held)],\n"
                "    'unbound': [n for n in cnnergy.__all__ if n not in star],\n"
                "    'undir': sorted((set(cnnergy.__all__) | set(modules)) - set(dir(cnnergy))),\n"
                "    'nope': hasattr(cnnergy, 'nope')}))\n")
    assert json.loads(out) == {"all": ALL, "loaded": dict.fromkeys(MODULES, True),
                               "foreign": [], "unbound": [], "undir": [], "nope": False}


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "models.json"
    result = cli_run(["calibrate", "--bundled", "--model-out", str(path)])
    assert result["code"] == 0 and result["out"].startswith("# fitted: ")
    assert result["numpy"]  # the affine fit is the one model-side numpy user
    return path


@pytest.mark.parametrize("argv", [
    ["analyze", "--builtin", "resnet_im"],
    ["rank", "--bundled", "--device", "pascal"],
    ["predict", "--models", "MODELS", "--device", "pascal", "--network", "caffenet",
     "--step", "forward", "--gpus", "1", "--batch", "128"],
], ids=["analyze", "rank", "predict"])
def test_commands_that_leave_numpy_unloaded(argv, model_file):
    result = cli_run([str(model_file) if a == "MODELS" else a for a in argv])
    assert result["code"] == 0 and result["out"]
    assert not result["numpy"]


def test_trace_commands_in_a_fresh_process(tmp_path):
    trace = tmp_path / "trace.csv"
    generated = cli_run(["gen-trace", "--segments", "100:2", "--rate", "100",
                         "--channels", "2", "--output", str(trace)])
    assert generated["code"] == 0 and generated["numpy"]
    regions = tmp_path / "regions.csv"
    regions.write_text("id,label,t_start_s,t_end_s\nr1,forward,0,1\n", encoding="utf-8")
    result = cli_run(["integrate", "--trace", str(trace), "--regions", str(regions)])
    assert result["code"] == 0 and result["numpy"]
    header, row = result["out"].splitlines()
    joules_total = float(row.split(",")[header.split(",").index("joules_total")])
    assert joules_total == pytest.approx(100.0)  # 100 W, split over the channels, for 1 s
