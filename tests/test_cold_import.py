"""Cold start: what ``import cnnergy`` and each entry point load, checked in
fresh interpreters.

pytest itself has numpy loaded, so every check runs in a subprocess.
"""
import ast
import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import cnnergy

SRC = str(Path(cnnergy.__file__).resolve().parents[1])


def fresh(code: str, plain: bool = False) -> str:
    """Run ``code`` in a new interpreter that imports cnnergy from this tree;
    a ``plain`` one runs without ``site`` (``python -S``), so that no ``.pth``
    file of the host imports anything first."""
    done = subprocess.run([sys.executable, *["-S"] * plain, "-c", code],
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def cli_run(argv, plain: bool = False) -> dict:
    """``cli.main(argv)`` in a new interpreter, ``plain`` as for :func:`fresh`:
    exit code, stdout and every module loaded once it has returned."""
    code = ("import contextlib, io, sys\n"
            "from cnnergy import cli\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    code = cli.main({list(argv)!r})\n"
            "print(repr({'code': code, 'out': out.getvalue(), 'modules': sorted(sys.modules)}))\n")
    return ast.literal_eval(fresh(code, plain))


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


def test_importtime_logs_each_module_the_cli_loads():
    # ``python -X importtime`` logs only imports that go through the import
    # statement's machinery, so a module loaded another way would hide its
    # cost in the line of the module that asked for it. ``rank`` is the
    # command that loads the most cnnergy modules without numpy, and
    # ``analyze`` the one command that loads costmodel.
    for argv, modules in ((["rank", "--bundled", "--device", "pascal"],
                           ("arch", "energymodel", "multigpu", "tuner")),
                          (["analyze", "--builtin", "resnet_im"], ("arch", "costmodel"))):
        done = subprocess.run([sys.executable, "-X", "importtime", "-m", "cnnergy.cli", *argv],
                              env={**os.environ, "PYTHONPATH": SRC},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        logged = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
        for module in modules:
            assert f"cnnergy.{module}" in logged, done.stderr


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "models.json"
    result = cli_run(["calibrate", "--bundled", "--model-out", str(path)])
    assert result["code"] == 0 and result["out"].startswith("# fitted: ")
    assert "numpy" in result["modules"]  # the affine fit is the one model-side numpy user
    # only analyze and rank read the network descriptions, and only analyze costs them
    assert [m for m in ("cnnergy.arch", "cnnergy.costmodel") if m in result["modules"]] == []
    return path


@pytest.fixture(scope="module")
def argparse_modules():
    """What a fresh interpreter holds once it has imported ``argparse``,
    which reads the arguments: its own imports, and what ``site`` imported."""
    return set(fresh("import argparse, sys\n"
                     "print('\\n'.join(sys.modules))\n").split())


#: What a command that needs no numpy loads none of: records are named tuples,
#: so no command needs ``dataclasses`` or the ``inspect`` it imports.
NOT_NEEDED = ("numpy", "dataclasses", "inspect")


@pytest.mark.parametrize("argv, unloaded", [
    (["analyze", "--builtin", "resnet_im"],
     NOT_NEEDED + ("json", "cnnergy.energymodel", "cnnergy.multigpu", "cnnergy.tuner")),
    (["rank", "--bundled", "--device", "pascal"], NOT_NEEDED + ("json", "cnnergy.costmodel")),
    (["predict", "--models", "MODELS", "--device", "pascal", "--network", "caffenet",
      "--step", "forward", "--gpus", "1", "--batch", "128"],
     NOT_NEEDED + ("cnnergy.arch", "cnnergy.costmodel")),
], ids=["analyze", "rank", "predict"])
def test_commands_that_leave_numpy_unloaded(argv, unloaded, model_file, argparse_modules):
    result = cli_run([str(model_file) if a == "MODELS" else a for a in argv])
    assert result["code"] == 0 and result["out"]
    assert [m for m in unloaded
            if m in result["modules"] and m not in argparse_modules] == []


@pytest.mark.parametrize("argv", [["analyze", "--builtin", "resnet_gait"],
                                  ["rank", "--bundled", "--device", "pascal"]],
                         ids=["analyze", "rank"])
def test_commands_on_a_plain_interpreter_load_no_resource_reader(argv):
    # bundled tables are read by the package's loader, and file names split by os.path
    result = cli_run(argv, plain=True)
    assert result["code"] == 0 and result["out"]
    assert [m for m in ("importlib.resources", "pathlib", "inspect")
            if m in result["modules"]] == []


def test_a_zipped_package_prints_the_golden_output(tmp_path):
    package = Path(cnnergy.__file__).resolve().parent
    archive = tmp_path / "cnnergy.zip"
    with zipfile.ZipFile(archive, "w") as zipped:
        for path in sorted(package.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zipped.write(path, path.relative_to(package.parent).as_posix())
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
    for argv, name in ((["analyze", "--builtin", "two_d_cnn"], "analyze_two_d_cnn"),
                       (["rank", "--bundled", "--device", "pascal"], "rank_pascal_edp")):
        # without site and run from tmp_path, the archive is the only cnnergy on the path
        done = subprocess.run([sys.executable, "-S", "-m", "cnnergy.cli", *argv], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": str(archive)},
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == (golden / f"{name}.txt").read_text(encoding="utf-8")


def test_trace_commands_in_a_fresh_process(tmp_path):
    trace = tmp_path / "trace.csv"
    generated = cli_run(["gen-trace", "--segments", "100:2", "--rate", "100",
                         "--channels", "2", "--output", str(trace)])
    assert generated["code"] == 0 and "numpy" in generated["modules"]
    regions = tmp_path / "regions.csv"
    regions.write_text("id,label,t_start_s,t_end_s\nr1,forward,0,1\n", encoding="utf-8")
    result = cli_run(["integrate", "--trace", str(trace), "--regions", str(regions)])
    assert result["code"] == 0 and "numpy" in result["modules"]
    header, row = result["out"].splitlines()
    joules_total = float(row.split(",")[header.split(",").index("joules_total")])
    assert joules_total == pytest.approx(100.0)  # 100 W, split over the channels, for 1 s
