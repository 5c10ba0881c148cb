"""Byte-identical CLI output on the bundled inputs.

Every model-side command the benchmark checks is run in-process and compared
with its committed golden file under ``perfbench/golden/``. Those files are
only read here; they are the reference a refactor must reproduce exactly.
"""
import contextlib
import io
from pathlib import Path

import pytest

from cnnergy import BUILTIN_NETWORK_NAMES, builtin_network, cli, emit_network

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def golden(name: str) -> str:
    return (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("net", BUILTIN_NETWORK_NAMES)
def test_analyze_builtin_matches_golden(net, tmp_path):
    assert run(["analyze", "--builtin", net]) == golden(f"analyze_{net}")
    assert run(["analyze", "--builtin", net, "--batch", "64"]) == golden(f"analyze_{net}_batch64")
    arch_file = tmp_path / f"{net}.arch"
    arch_file.write_text(emit_network(builtin_network(net)), encoding="utf-8")
    assert run(["analyze", "--arch", str(arch_file)]) == golden(f"analyze_{net}")


def test_analyze_table_matches_golden():
    assert run(["analyze", "--builtin", "caffenet", "--format", "table"]) \
        == golden("analyze_caffenet_table")


def test_calibrate_and_predict_match_golden(tmp_path):
    models = tmp_path / "models.json"
    assert run(["calibrate", "--bundled", "--model-out", str(models)]) == golden("calibrate")
    assert models.read_text(encoding="utf-8") == golden("calibrate_models")
    assert run(["predict", "--models", str(models), "--device", "pascal",
                "--network", "resnet_gait", "--step", "forward", "--gpus", "1",
                "--batch", "96"]) == golden("predict")


@pytest.mark.parametrize("device", ("pascal", "maxwell"))
@pytest.mark.parametrize("metric", ("time", "energy", "edp"))
def test_rank_matches_golden(device, metric):
    assert run(["rank", "--bundled", "--device", device, "--metric", metric]) \
        == golden(f"rank_{device}_{metric}")
