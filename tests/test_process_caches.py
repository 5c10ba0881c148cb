"""What each process keeps must pay, and must not carry state from one call
to the next.

cnnergy keeps five ``functools`` caches, each read by the command named:
the CLI parser (every ``cli.main`` call), the built-in networks' cost rows
(``analyze --builtin``), the bundled measurement records (``calibrate
--bundled``, and a ``rank --bundled`` grid that misses its memo), the
scored bundled rank grids (``rank --bundled``) and the built-in networks'
shapes (``score``, on such a miss). The bundled device and plan tables are
read on every call. Per-object memos (a shaped network's memory totals, a
GPU set's counts) live and die with their object and are not counted here.
"""
import contextlib
import importlib
import io
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cnnergy
import oracles
from cnnergy import arch, cli, costmodel, energymodel, tuner
from cnnergy._tables import data_text
from cnnergy.arch import BUILTIN_NETWORK_NAMES, builtin_network, emit_network, infer_shapes
from cnnergy.errors import CnnergyError, NothingFeasibleError
from cnnergy.energymodel import (
    bundled_devices,
    bundled_measurements,
    bundled_plans,
)
from cnnergy.tuner import RANK_METRICS, _bundled_reports, bundled_grid, score

SRC = str(Path(cnnergy.__file__).resolve().parents[1])


def in_process(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def in_process_with_errors(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def rank_reference(argv) -> tuple[int, str, str]:
    """What ``cli.main(argv)`` printed for a rank before its grids were kept."""
    try:
        return 0, oracles.rank_reference(cli._parser().parse_args(argv)), ""
    except NothingFeasibleError as exc:
        return 3, "", f"error: {exc}\n"
    except (CnnergyError, OSError, ValueError, OverflowError) as exc:
        return 2, "", f"error: {exc}\n"


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
    # score reads each built-in network's shapes from arch._builtin_shapes
    plans = bundled_plans()
    configs = bundled_grid("pascal", plans) + bundled_grid("maxwell", plans)
    assert len(configs) == 72
    for cfg in configs:
        assert arch._builtin_shapes(cfg.network) == infer_shapes(builtin_network(cfg.network))


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


@st.composite
def bundled_rank_argvs(draw):
    """``rank --bundled`` over a few devices, metrics and grids, some of them
    refused: an unknown device or network, a repeated or non-positive count,
    an empty grid, and an overhead that is not finite, is -100 or overflows."""
    argv = ["rank", "--bundled", "--device", draw(st.sampled_from(["pascal", "maxwell", "titan"]))]

    def listed(choices):
        return ",".join(map(str, draw(st.lists(st.sampled_from(choices), min_size=1, max_size=4))))

    if draw(st.booleans()):
        argv += ["--metric", draw(st.sampled_from(RANK_METRICS))]
    if draw(st.booleans()):
        argv.append("--networks=" + listed([*BUILTIN_NETWORK_NAMES, "lenet"]))
    if draw(st.booleans()):
        argv.append("--batches=" + listed([64, 128, 256, 96, 0]))
    if draw(st.booleans()):
        argv.append("--gpus=" + listed([1, 2, 4, 3, 0, -1]))
    if draw(st.booleans()):
        argv.append("--update-overhead-pct=" + draw(st.sampled_from(
            ["0", "-0", "12.5", "-50", "nan", "-100", "inf", "1e308"])))
    return argv


@given(st.lists(bundled_rank_argvs(), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_bundled_rank_sequences_print_what_the_uncached_path_prints(argvs):
    # the second, reversed half runs each grid again, after other grids
    for argv in argvs + argvs[::-1]:
        assert in_process_with_errors(argv) == rank_reference(argv), argv


def test_each_bundled_grid_is_scored_once_and_every_metric_reorders_it(monkeypatch):
    scored = []
    monkeypatch.setattr(tuner, "score", lambda *a, **k: scored.append(a[0]) or score(*a, **k))
    _bundled_reports.cache_clear()
    grids = [["rank", "--bundled", "--device", device, "--metric", metric]
             for device in ("pascal", "maxwell") for metric in RANK_METRICS]
    outputs = [in_process(argv) for argv in grids]
    assert len(scored) == 72  # 36 configurations for each of the two devices
    assert [in_process(argv) for argv in grids] == outputs
    assert len(scored) == 72
    assert all(code == 0 for code, _ in outputs)
    reports = _bundled_reports("pascal", None, (64, 128, 256), (1, 2, 4), 0.0)
    assert isinstance(reports, tuple) and len(reports) == 36
    assert reports is _bundled_reports("pascal", None, (64, 128, 256), (1, 2, 4), 0.0)


def test_the_scored_grid_memo_keeps_at_most_16_grids_and_no_error():
    maxsize = _bundled_reports.cache_parameters()["maxsize"]
    assert maxsize == 16
    for pct in range(maxsize + 8):
        assert in_process(["rank", "--bundled", "--device", "pascal",
                           f"--update-overhead-pct={pct}"])[0] == 0
        assert _bundled_reports.cache_info().currsize <= maxsize
    assert _bundled_reports.cache_info().currsize == maxsize
    _bundled_reports.cache_clear()
    for argv in (["rank", "--bundled", "--device", "titan"],
                 ["rank", "--bundled", "--device", "pascal", "--gpus", "3"],
                 ["rank", "--bundled", "--device", "pascal", "--update-overhead-pct=nan"],
                 ["rank", "--bundled", "--device", "pascal", "--update-overhead-pct=1e308"]):
        first = in_process_with_errors(argv)
        assert first[0] in (2, 3) and in_process_with_errors(argv) == first
    assert _bundled_reports.cache_info().currsize == 0


def test_rank_from_a_file_is_scored_again_after_the_file_changes(tmp_path):
    path = tmp_path / "measurements.csv"
    table = data_text("measurements.csv")
    argv = ["rank", "--measurements", str(path), "--device", "pascal", "--metric", "time"]
    path.write_text(table, encoding="utf-8")
    before = in_process_with_errors(argv)
    assert before[0] == 0 and before == rank_reference(argv)
    path.write_text(table.replace("pascal,caffenet,forward,1,64,", "pascal,caffenet,forward,1,64,9"),
                    encoding="utf-8")
    after = in_process_with_errors(argv)
    assert after[0] == 0 and after == rank_reference(argv) and after != before


#: The caches cnnergy keeps per process, by module.
KEPT = {
    "cli._parser": cli._parser,
    "costmodel._builtin_rows": costmodel._builtin_rows,
    "tuner._bundled_reports": tuner._bundled_reports,
    "energymodel._bundled_measurements": energymodel._bundled_measurements,
    "arch._builtin_shapes": arch._builtin_shapes,
}


def test_cnnergy_keeps_exactly_five_process_caches():
    found = set()
    for info in pkgutil.iter_modules(cnnergy.__path__):
        module = importlib.import_module(f"cnnergy.{info.name}")
        found |= {f"{info.name}.{name}" for name, obj in vars(module).items()
                  if hasattr(obj, "cache_info") and obj.__module__ == module.__name__}
    assert found == set(KEPT)


def model_warm_commands(tmp_path) -> list[list[str]]:
    """The 21 commands of one pass of the benchmark's model-warm workload."""
    commands = [["analyze", "--builtin", name] for name in BUILTIN_NETWORK_NAMES]
    commands += [["analyze", "--builtin", name, "--batch", "64"] for name in BUILTIN_NETWORK_NAMES]
    commands.append(["analyze", "--builtin", "caffenet", "--format", "table"])
    for name in BUILTIN_NETWORK_NAMES:
        path = tmp_path / f"{name}.arch"
        path.write_text(emit_network(builtin_network(name)), encoding="utf-8")
        commands.append(["analyze", "--arch", str(path)])
    models = str(tmp_path / "models.json")
    commands += [["calibrate", "--bundled", "--model-out", models],
                 ["predict", "--models", models, "--device", "pascal", "--network",
                  "resnet_gait", "--step", "forward", "--gpus", "1", "--batch", "96"]]
    commands += [["rank", "--bundled", "--device", device, "--metric", metric]
                 for device in ("pascal", "maxwell") for metric in RANK_METRICS]
    return commands


def test_each_kept_cache_is_read_again_by_the_model_warm_commands(tmp_path):
    commands = model_warm_commands(tmp_path)
    assert len(commands) == 21
    for argv in commands:
        assert in_process(argv)[0] == 0, argv
    before = {name: cache.cache_info().hits for name, cache in KEPT.items()}
    for argv in commands:
        assert in_process(argv)[0] == 0, argv
    hits = {name: cache.cache_info().hits - before[name] for name, cache in KEPT.items()}
    assert hits == {"cli._parser": 21, "costmodel._builtin_rows": 9,
                    "tuner._bundled_reports": 6, "energymodel._bundled_measurements": 1,
                    "arch._builtin_shapes": 0}
    # a grid the memo does not hold reads the shapes once per configuration,
    # 36 times for the four built-in networks
    tuner._bundled_reports.cache_clear()
    shapes_before = arch._builtin_shapes.cache_info().hits
    assert in_process(commands[-1])[0] == 0
    assert arch._builtin_shapes.cache_info().hits - shapes_before >= 32
