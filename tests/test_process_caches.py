"""What each process builds once (the CLI parser, the bundled tables and
their record index, the built-in shapes and cost rows, a shaped network's
memory totals) must not carry state from one call to the next."""
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cnnergy
from cnnergy import cli
from cnnergy._tables import data_text
from cnnergy.arch import builtin_network, infer_shapes
from cnnergy.energymodel import (
    _bundled_index,
    bundled_devices,
    bundled_measurements,
    bundled_plans,
    records_by_key,
)
from cnnergy.tuner import bundled_grid, score

SRC = str(Path(cnnergy.__file__).resolve().parents[1])


def in_process(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def fresh_process(argv) -> tuple[int, str]:
    done = subprocess.run([sys.executable, "-m", "cnnergy.cli", *argv],
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout


def test_default_commands_after_other_calls_match_a_fresh_process(tmp_path):
    models = tmp_path / "models.json"
    assert fresh_process(["calibrate", "--bundled", "--model-out", str(models)])[0] == 0
    trace = tmp_path / "trace.csv"
    assert fresh_process(["gen-trace", "--segments", "100:1,50-150:2",
                          "--output", str(trace)])[0] == 0
    regions = tmp_path / "regions.csv"
    regions.write_text("id,label,t_start_s,t_end_s\nr1,forward,0,1\nr2,backward,1,2.5\n",
                       encoding="utf-8")
    default_commands = [
        *(["analyze", "--builtin", name] for name in cnnergy.BUILTIN_NETWORK_NAMES),
        ["calibrate", "--bundled"],
        ["rank", "--bundled", "--device", "pascal"],
        ["rank", "--bundled", "--device", "maxwell"],
        ["predict", "--models", str(models), "--device", "pascal", "--network",
         "resnet_gait", "--step", "forward", "--gpus", "1", "--batch", "96"],
        ["gen-trace", "--segments", "100:1"],
        ["integrate", "--trace", str(trace), "--regions", str(regions)],
    ]
    expected = [fresh_process(argv) for argv in default_commands]

    for argv in (["rank", "--bundled", "--device", "pascal", "--networks", "caffenet",
                  "--gpus", "1", "--batches", "64"],
                 ["rank", "--bundled", "--device", "maxwell", "--metric", "time",
                  "--update-overhead-pct", "10"],
                 ["analyze", "--builtin", "caffenet", "--batch", "64"],
                 ["analyze", "--builtin", "two_d_cnn", "--element-bytes", "2",
                  "--format", "table"],
                 ["calibrate", "--bundled", "--gpus", "1"]):
        assert in_process(argv)[0] == 0
    assert in_process(["rank", "--bundled", "--device", "pascal",
                       "--update-overhead-pct", "nan"])[0] == 2
    with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
        cli.main(["rank", "--bundled", "--device", "pascal", "--metric", "speed"])

    for argv, want in zip(default_commands, expected):
        assert in_process(argv) == want, argv


def test_bundled_tables_come_back_whole_after_callers_mutate_them():
    records, devices, plans = bundled_measurements(), bundled_devices(), bundled_plans()
    snapshot = (list(records), dict(devices), dict(plans))
    records.clear()
    devices["pascal"] = devices.pop("maxwell")
    plans.popitem()
    assert (bundled_measurements(), bundled_devices(), bundled_plans()) == snapshot


def test_score_with_default_shapes_equals_score_with_fresh_shapes():
    records = records_by_key(bundled_measurements())
    profiles, plans = bundled_devices(), bundled_plans()
    configs = bundled_grid("pascal", plans) + bundled_grid("maxwell", plans)
    assert len(configs) == 72
    for cfg in configs:
        shaped = infer_shapes(builtin_network(cfg.network))
        assert score(cfg, records, profiles) == score(cfg, records, profiles, shaped=shaped)


def test_the_cached_record_index_is_read_only():
    index = _bundled_index()
    key = next(iter(index))
    with pytest.raises(TypeError):
        index[key] = None
    assert index == records_by_key(bundled_measurements())
    fresh = records_by_key(bundled_measurements())
    fresh.clear()  # records_by_key still hands each caller its own dict
    assert records_by_key(bundled_measurements()) == index


def test_analyze_builtin_is_unchanged_by_batch_and_element_bytes_calls():
    argv = ["analyze", "--builtin", "resnet_gait"]
    before = in_process(argv)
    assert in_process([*argv, "--batch", "64"])[0] == 0
    assert in_process([*argv, "--element-bytes", "2"])[0] == 0
    assert in_process([*argv, "--element-bytes", "2", "--batch", "64"])[0] == 0
    assert before[0] == 0 and in_process(argv) == before


def test_rank_from_a_file_matches_rank_from_the_bundled_index(tmp_path):
    path = tmp_path / "measurements.csv"
    path.write_text(data_text("measurements.csv"), encoding="utf-8")
    for device in ("pascal", "maxwell"):
        bundled = in_process(["rank", "--bundled", "--device", device])
        assert bundled[0] == 0
        assert in_process(["rank", "--measurements", str(path), "--device", device]) == bundled
        assert in_process(["rank", "--bundled", "--device", device]) == bundled
