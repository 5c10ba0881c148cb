"""End-to-end command-line checks (in-process, no subprocesses)."""
import contextlib
import csv
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cnnergy import cli, energymodel, powertrace

from test_arch import arch_texts

TOY_ARCH = """\
# network: toy
input 8 8 3
conv c1 filters=4 k=3 stride=1 pad=1 bias=true
relu r1
fc f1 units=10
softmax out
"""

CONSTANT_TRACE = "t_s,gpu_w\n0,100\n1,100\n2,100\n"

REGIONS = ("id,label,t_start_s,t_end_s\n"
           "r1,forward,0,2\n"
           "r2,other,5,6\n")

MEASUREMENTS = (
    "device,network,step,gpus,batch,seconds_per_batch,joules_per_batch\n"
    "pascal,net_a,forward,1,64,0.01,4.0\n"
    "pascal,net_a,forward,1,128,0.02,8.0\n"
    "pascal,net_a,backward,1,64,0.03,9.0\n"
)

# finite cells whose fit overflows: the residuals square past the float range
OVERFLOWING_MEASUREMENTS = (
    "device,network,step,gpus,batch,seconds_per_batch,joules_per_batch\n"
    "pascal,net_a,forward,1,64,1e300,4.0\n"
    "pascal,net_a,forward,1,128,1.7e308,8.0\n"
    "pascal,net_a,forward,1,256,1e300,9.0\n"
)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_builtin_totals(capsys):
    code, out, err = run(["analyze", "--builtin", "caffenet"], capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "# network: caffenet"
    assert "# total_ops: 729009656" in lines
    assert "# read_mb: 239.077" in lines
    assert "# written_mb: 5.9679" in lines
    assert "# ctc: 11.632" in lines
    assert lines[5].startswith("layer,kind,")  # per-layer CSV header follows


def test_analyze_batch_scales_counts(capsys):
    code, out, _ = run(["analyze", "--builtin", "two_d_cnn", "--batch", "256"],
                       capsys)
    assert code == 0
    assert "# batch: 256" in out
    assert f"# total_ops: {256 * 783_854_257}" in out
    # the ratio is batch-invariant
    assert out.splitlines()[5].startswith("# ctc: 40.5")


def test_analyze_arch_file_prefers_embedded_name(tmp_path, capsys):
    path = tmp_path / "something_else.net"
    path.write_text(TOY_ARCH, encoding="utf-8")
    code, out, _ = run(["analyze", "--arch", str(path)], capsys)
    assert code == 0
    assert out.splitlines()[0] == "# network: toy"


def test_analyze_arch_file_falls_back_to_stem(tmp_path, capsys):
    path = tmp_path / "tiny.net"
    path.write_text(TOY_ARCH.replace("# network: toy\n", ""), encoding="utf-8")
    code, out, _ = run(["analyze", "--arch", str(path)], capsys)
    assert code == 0
    assert out.splitlines()[0] == "# network: tiny"


def test_analyze_missing_file_exits_2(capsys):
    code, out, err = run(["analyze", "--arch", "/nonexistent/file.net"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_analyze_rejects_bad_batch(capsys):
    code, _, err = run(["analyze", "--builtin", "caffenet", "--batch", "0"], capsys)
    assert code == 2 and "error:" in err


def test_analyze_rejects_element_bytes_below_one(tmp_path, capsys):
    path = tmp_path / "empty.net"
    path.write_text("input 4 4 1\n", encoding="utf-8")
    for source in (["--builtin", "caffenet"], ["--arch", str(path)]):
        code, out, err = run(["analyze", *source, "--element-bytes", "0"], capsys)
        assert (code, out, err) == (2, "", "error: element_bytes must be >= 1\n")


def test_analyze_refuses_a_comma_in_a_layer_name(tmp_path, capsys):
    # the name is a cell of the cost CSV: a comma in it would add a column
    path = tmp_path / "comma.net"
    path.write_text(TOY_ARCH.replace("relu r1", "relu a,b"), encoding="utf-8")
    for fmt in ("csv", "table"):
        code, out, err = run(["analyze", "--arch", str(path), "--format", fmt], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: line 4: ") and "'a,b'" in err


@pytest.mark.parametrize("name", ['"x', "total"])
def test_analyze_refuses_a_layer_name_that_breaks_the_cost_csv(name, tmp_path, capsys):
    # a quote would open a quoted CSV cell; "total" is the totals row's name
    path = tmp_path / "bad_name.net"
    path.write_text(TOY_ARCH.replace("relu r1", f"relu {name}"), encoding="utf-8")
    code, out, err = run(["analyze", "--arch", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: line 4: ") and repr(name) in err


def test_table_format_has_no_commas(capsys):
    code, out, _ = run(["analyze", "--builtin", "two_d_cnn",
                        "--format", "table"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# network: two_d_cnn"  # comments pass through untouched
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data and all("," not in ln for ln in data)
    assert data[0].startswith("layer")


# ---------------------------------------------------------------------------
# integrate / gen-trace
# ---------------------------------------------------------------------------

def test_integrate_reports_joules_and_failed_regions(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text(CONSTANT_TRACE, encoding="utf-8")
    regions = tmp_path / "regions.csv"
    regions.write_text(REGIONS, encoding="utf-8")
    code, out, _ = run(["integrate", "--trace", str(trace),
                        "--regions", str(regions)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "id,label,duration_s,joules_total,mean_watts,gpu_j,error"
    assert lines[1] == "r1,forward,2,200,100,200,"
    assert lines[2] == "r2,other,,,,,EmptyRegionError"


def test_integrate_bad_trace_exits_2(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("time,power\n0,1\n", encoding="utf-8")
    regions = tmp_path / "regions.csv"
    regions.write_text(REGIONS, encoding="utf-8")
    code, _, err = run(["integrate", "--trace", str(trace),
                        "--regions", str(regions)], capsys)
    assert code == 2 and err.startswith("error:")


def test_integrate_infinite_region_bound_exits_2(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text(CONSTANT_TRACE, encoding="utf-8")
    regions = tmp_path / "regions.csv"
    regions.write_text("id,label,t_start_s,t_end_s\nr1,forward,-inf,inf\n",
                       encoding="utf-8")
    code, out, err = run(["integrate", "--trace", str(trace),
                          "--regions", str(regions)], capsys)
    assert code == 2 and out == ""
    assert err == "error: line 2: region 'r1': t_start and t_end must be finite\n"


def test_gen_trace_energy_and_determinism(capsys):
    argv = ["gen-trace", "--segments", "100:1", "--rate", "10",
            "--channels", "2", "--noise", "0"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    trace = powertrace.parse_trace(io.StringIO(out))
    assert trace.channel_labels == ("ch1", "ch2")
    full = powertrace.Region("all", "other", trace.times[0], trace.times[-1])
    assert powertrace.integrate(trace, full).joules_total == pytest.approx(100.0)

    noisy = ["gen-trace", "--segments", "50:1,50-150:2", "--rate", "100",
             "--channels", "4", "--noise", "3", "--seed", "7"]
    _, first, _ = run(noisy, capsys)
    _, second, _ = run(noisy, capsys)
    assert first == second


@pytest.mark.parametrize("sigma", ["nan", "-1", "inf"])
def test_gen_trace_bad_noise_exits_2(sigma, capsys):
    code, out, err = run(["gen-trace", "--segments", "100:1", f"--noise={sigma}"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: noise_sigma must be finite and >= 0")


def test_gen_trace_bad_segment_exits_2(capsys):
    code, _, err = run(["gen-trace", "--segments", "watts-only"], capsys)
    assert code == 2 and err.startswith("error:")


def test_gen_trace_over_the_size_cap_exits_2(capsys):
    code, out, err = run(["gen-trace", "--segments", "100:1e9", "--rate", "1000"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "exceeds the limit" in err


# ---------------------------------------------------------------------------
# calibrate / predict
# ---------------------------------------------------------------------------

def test_calibrate_bundled_fits_everything(capsys):
    code, out, _ = run(["calibrate", "--bundled"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# fitted: 64"
    assert lines[1] == "# skipped: 0"
    assert lines[2] == ("device,network,step,gpus,quantity,slope,intercept,"
                        "r_squared,n_points")
    assert len(lines) == 3 + 64
    assert lines[3].startswith("maxwell,")  # groups come out sorted


def test_calibrate_reports_skipped_groups(tmp_path, capsys):
    measurements = tmp_path / "m.csv"
    measurements.write_text(MEASUREMENTS, encoding="utf-8")
    code, out, _ = run(["calibrate", "--measurements", str(measurements)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# fitted: 2"
    assert lines[1] == "# skipped: 2"
    assert lines[2].startswith("# skipped pascal/net_a/backward/1/")
    assert "only 1 distinct batch size(s)" in lines[2]


def test_calibrate_with_nothing_to_fit_exits_3(tmp_path, capsys):
    code, out, err = run(["calibrate", "--bundled", "--gpus", "0"], capsys)
    assert (code, out) == (3, "")
    assert err == "error: no model to fit (0 group(s) skipped)\n"

    measurements = tmp_path / "m.csv"
    measurements.write_text(MEASUREMENTS.replace("pascal,net_a,forward,1,128,0.02,8.0\n", ""),
                            encoding="utf-8")
    model_file = tmp_path / "models.json"
    code, out, err = run(["calibrate", "--measurements", str(measurements),
                          "--model-out", str(model_file)], capsys)
    assert (code, out) == (3, "")
    assert err == "error: no model to fit (4 group(s) skipped)\n"
    assert not model_file.exists()


def test_calibrate_model_out_round_trips_through_predict(tmp_path, capsys):
    measurements = tmp_path / "m.csv"
    measurements.write_text(MEASUREMENTS, encoding="utf-8")
    model_file = tmp_path / "models.json"
    code, _, _ = run(["calibrate", "--measurements", str(measurements),
                      "--model-out", str(model_file)], capsys)
    assert code == 0
    models = energymodel.load_models(model_file)
    assert len(models) == 2

    code, out, _ = run(["predict", "--models", str(model_file),
                        "--device", "pascal", "--network", "net_a",
                        "--step", "forward", "--gpus", "1", "--batch", "64"],
                       capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "device,network,step,gpus,batch,quantity,value,extrapolated"
    assert "pascal,net_a,forward,1,64,seconds,0.01,0" in lines
    assert "pascal,net_a,forward,1,64,joules,4,0" in lines

    code, out, _ = run(["predict", "--models", str(model_file),
                        "--device", "pascal", "--network", "net_a",
                        "--step", "forward", "--gpus", "1", "--batch", "512",
                        "--quantity", "seconds"], capsys)
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 1
    assert rows[0].endswith(",1")  # 512 is far outside the fitted range


def test_predict_missing_model_exits_2(tmp_path, capsys):
    measurements = tmp_path / "m.csv"
    measurements.write_text(MEASUREMENTS, encoding="utf-8")
    model_file = tmp_path / "models.json"
    run(["calibrate", "--measurements", str(measurements),
         "--model-out", str(model_file)], capsys)
    code, _, err = run(["predict", "--models", str(model_file),
                        "--device", "pascal", "--network", "other",
                        "--step", "forward", "--gpus", "1", "--batch", "64"],
                       capsys)
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("payload", [
    'not json',
    pytest.param('[' * 5000, id="deeply-nested"),
    '{"nope": 1}',
    '{"models": [{"device": "pascal"}]}',
    '{"models": [{"colour": "red"}]}',
])
def test_predict_bad_model_json_exits_2(tmp_path, capsys, payload):
    model_file = tmp_path / "models.json"
    model_file.write_text(payload, encoding="utf-8")
    code, out, err = run(["predict", "--models", str(model_file),
                          "--device", "pascal", "--network", "net_a",
                          "--step", "forward", "--gpus", "1", "--batch", "64"],
                         capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {model_file}: ")


def test_predict_model_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    model_file = tmp_path / "models.json"
    model_file.write_bytes(b"\xff\xfe{}")
    code, out, err = run(["predict", "--models", str(model_file), "--device", "pascal",
                          "--network", "net_a", "--step", "forward", "--gpus", "1",
                          "--batch", "64"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {model_file}: ")


def test_predict_overflowing_model_exits_2(tmp_path, capsys):
    measurements = tmp_path / "m.csv"
    measurements.write_text(MEASUREMENTS, encoding="utf-8")
    model_file = tmp_path / "models.json"
    run(["calibrate", "--measurements", str(measurements),
         "--model-out", str(model_file)], capsys)
    payload = json.loads(model_file.read_text(encoding="utf-8"))
    payload["models"][0]["slope"] = 1e308
    model_file.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run(["predict", "--models", str(model_file), "--device", "pascal",
                          "--network", "net_a", "--step", "forward", "--gpus", "1",
                          "--batch", "1000"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: predicted seconds at batch 1000 overflows (inf)")


@pytest.mark.parametrize("digits,batch,message", [
    (400, "64", "{file}: models[0]: bad value for 'slope': 1" + "0" * 400),
    (308, "1000", "predicted seconds at batch 1000 overflows (inf)"),
])
def test_predict_integer_slope_beyond_float_exits_2(tmp_path, capsys, digits, batch, message):
    """An integer slope is read as a float: one past the float range is a bad
    value named with its file and key, and one just inside it overflows the
    prediction rather than the integer-to-float conversion."""
    measurements = tmp_path / "m.csv"
    measurements.write_text(MEASUREMENTS, encoding="utf-8")
    model_file = tmp_path / "models.json"
    run(["calibrate", "--measurements", str(measurements),
         "--model-out", str(model_file)], capsys)
    payload = json.loads(model_file.read_text(encoding="utf-8"))
    payload["models"][0]["slope"] = 10 ** digits
    model_file.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run(["predict", "--models", str(model_file), "--device", "pascal",
                          "--network", "net_a", "--step", "forward", "--gpus", "1",
                          "--batch", batch], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message.format(file=model_file)}\n"


def test_calibrate_non_finite_measurement_exits_2(tmp_path, capsys):
    measurements = tmp_path / "m.csv"
    measurements.write_text(MEASUREMENTS.replace("0.02,8.0", "nan,8.0"), encoding="utf-8")
    code, out, err = run(["calibrate", "--measurements", str(measurements)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: line 3: ")


def test_calibrate_overflowing_fit_exits_2(tmp_path, capsys):
    measurements = tmp_path / "m.csv"
    measurements.write_text(OVERFLOWING_MEASUREMENTS, encoding="utf-8")
    model_file = tmp_path / "models.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
        code, out, err = run(["calibrate", "--measurements", str(measurements),
                              "--model-out", str(model_file)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: the fit of pascal/net_a/forward/1/seconds overflows: ")
    assert "nan" in err and err.count("\n") == 1
    assert not model_file.exists()


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def test_rank_unknown_device_exits_2(capsys):
    code, out, err = run(["rank", "--bundled", "--device", "foo"], capsys)
    assert code == 2 and out == ""
    assert err == "error: no bundled device profile named 'foo' (have: maxwell, pascal)\n"


def test_rank_bundled_pascal_by_edp(capsys):
    code, out, _ = run(["rank", "--bundled", "--device", "pascal"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# metric: edp"
    assert lines[1] == "rank,network,batch,gpus,gpu_set,kiloseconds,megajoules,edp_mj_ks"
    first = lines[2].split(",")
    assert first[:5] == ["1", "two_d_cnn", "256", "2", "pascal:2"]
    gait_rows = [ln.split(",") for ln in lines[2:]
                 if not ln.startswith("#") and ln.split(",")[1] == "resnet_gait"]
    assert gait_rows[0][2:4] == ["256", "1"]  # best gait config: batch 256, one GPU
    four = [ln for ln in lines if ",pascal:2+maxwell:2," in ln]
    assert four  # the mixed four-GPU testbed appears under its full label
    assert any(ln.startswith("# infeasible: resnet_im batch=256 gpu_set=pascal:1")
               for ln in lines)


@pytest.mark.parametrize("pct", ["nan", "inf", "-inf", "-100", "-1000"])
def test_rank_bad_update_overhead_exits_2(pct, capsys):
    code, out, err = run(["rank", "--bundled", "--device", "pascal",
                          f"--update-overhead-pct={pct}"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: update_overhead_pct (--update-overhead-pct) must be finite")


def test_rank_overflowing_update_overhead_exits_2(capsys):
    code, out, err = run(["rank", "--bundled", "--device", "pascal",
                          "--update-overhead-pct", "1e308"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: total seconds of ")
    assert err.rstrip().endswith("overflows (inf)")


def test_rank_nothing_feasible_exits_3(capsys):
    code, out, err = run(["rank", "--bundled", "--device", "pascal",
                          "--networks", "resnet_im", "--batches", "256",
                          "--gpus", "1"], capsys)
    assert code == 3
    assert out == ""
    assert err == "error: no feasible configuration to rank\n"


def test_rank_empty_grid_exits_3(capsys):
    code, _, err = run(["rank", "--bundled", "--device", "pascal",
                        "--batches", "999"], capsys)
    assert code == 3
    assert err == "error: the requested grid is empty\n"


@pytest.mark.parametrize("networks, name", [
    ("cafenet", "cafenet"), ("caffenet,cafenet", "cafenet"), ("", ""),
])
def test_rank_unknown_network_exits_2(networks, name, capsys):
    code, out, err = run(["rank", "--bundled", "--device", "pascal",
                          f"--networks={networks}"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: unknown builtin {name!r}; choose from ")


@pytest.mark.parametrize("option, values, message", [
    ("--networks", "caffenet,caffenet", "networks (--networks) lists 'caffenet' twice"),
    ("--batches", "64,64", "batches (--batches) lists 64 twice"),
    ("--gpus", "1,1", "gpu_counts (--gpus) lists 1 twice"),
])
def test_rank_repeated_value_exits_2(option, values, message, capsys):
    code, out, err = run(["rank", "--bundled", "--device", "pascal",
                          option, values], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("option, values, message", [
    ("--batches", "0", "batches (--batches) must be >= 1, got 0"),
    ("--batches", "-64", "batches (--batches) must be >= 1, got -64"),
    ("--gpus", "0", "gpu_counts (--gpus) must be >= 1, got 0"),
    ("--gpus", "0,1", "gpu_counts (--gpus) must be >= 1, got 0"),
    ("--gpus", "-1", "gpu_counts (--gpus) must be >= 1, got -1"),
])
def test_rank_count_below_one_exits_2(option, values, message, capsys):
    code, out, err = run(["rank", "--bundled", "--device", "pascal",
                          option, values], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_rank_output_file_and_repeatability(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for path in (first, second):
        code, out, _ = run(["rank", "--bundled", "--device", "maxwell",
                            "--metric", "energy", "--output", str(path)], capsys)
        assert code == 0
        assert out == ""  # written to the file, not stdout
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text(encoding="utf-8").startswith("# metric: energy\n")


def test_unwritable_output_exits_2(tmp_path, capsys):
    for argv, path in ((["analyze", "--builtin", "caffenet"], tmp_path),
                       (["rank", "--bundled", "--device", "pascal"],
                        tmp_path / "missing" / "x.csv")):
        code, out, err = run([*argv, "--output", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(path) in err


# ---------------------------------------------------------------------------
# every command, hostile arguments and malformed files
# ---------------------------------------------------------------------------

HOSTILE = ["nan", "inf", "-inf", "-1", "0", "1", "2", "64", "1e308", "9" * 30, "9" * 400, "x"]
MODEL = {"device": "pascal", "network": "net_a", "step": "forward", "gpus": 1,
         "quantity": "seconds", "slope": 1e-4, "intercept": 0.001, "r_squared": 1.0,
         "residuals": [0.0, 0.0], "batch_min": 64, "batch_max": 128, "n_points": 2}


def hostile(draw, good=()):
    return draw(st.sampled_from(list(good) + HOSTILE))


@st.composite
def csv_files(draw, header, good_cells):
    """A small CSV: the right header or a wrong one, then up to 12 rows whose
    cells are good or hostile numbers, now and then of the wrong width."""
    lines = [draw(st.sampled_from([header] * 4 + ["", "a,b", header + ",x"]))]
    for _ in range(draw(st.integers(0, 12))):
        cells = [hostile(draw, [good] * 12) for good in good_cells]
        lines.append(",".join(cells[:draw(st.sampled_from([len(cells)] * 9 + [1]))]))
    return "\n".join(lines).encode() + draw(st.sampled_from([b"", b"\n", b"\xff"]))


def model_files():
    bad_value = st.sampled_from(sorted(MODEL)).flatmap(
        lambda key: st.sampled_from([float("nan"), "x", None, -1, 1e308]).map(
            lambda v: {**MODEL, key: v}))
    return st.one_of(
        st.sampled_from([b"not json", b"[" * 5000, b"\xff{}", b"", b"{}", b'{"models": []}']),
        st.lists(st.one_of(st.just(MODEL), bad_value), max_size=3).map(
            lambda ms: json.dumps({"models": ms}).encode()),
    )


@st.composite
def cli_runs(draw):
    """``(argv, files)``: argv for one command, and the bytes of each file it
    names (as ``@name``). Every trace stays within 1e5 samples x channels
    and every resblock count far below the layer limit."""
    command = draw(st.sampled_from(["analyze", "integrate", "gen-trace",
                                    "calibrate", "predict", "rank"]))
    files, argv = {}, [command]

    def option(flag, value):
        if draw(st.booleans()):
            argv.extend([flag, value])

    # a file, the temporary directory itself, a path under a missing directory
    option("--output", draw(st.sampled_from(["@report", "@", "@missing/report"])))

    if command == "analyze":
        if draw(st.booleans()):
            argv += ["--builtin", draw(st.sampled_from(["caffenet", "two_d_cnn"]))]
        else:
            files["arch"] = draw(arch_texts()).encode() + draw(st.sampled_from([b"", b"\xff"]))
            argv += ["--arch", "@arch"]
        option("--batch", hostile(draw))
        option("--element-bytes", hostile(draw))
    elif command == "integrate":
        files["trace"] = draw(csv_files("t_s,gpu_w,cpu_w", ["0", "1", "100"]))
        files["regions"] = draw(csv_files("id,label,t_start_s,t_end_s",
                                          ["r1", "forward", "0", "1"]))
        argv += ["--trace", "@trace", "--regions", "@regions"]
    elif command == "gen-trace":
        segments = [f"{hostile(draw, ['100'])}:{hostile(draw, ['1'])}"
                    if draw(st.booleans()) else
                    f"{hostile(draw, ['50'])}-{hostile(draw, ['150'])}:{hostile(draw, ['2'])}"
                    for _ in range(draw(st.integers(1, 3)))]
        argv += ["--segments", ",".join(segments)]
        option("--rate", hostile(draw, ["10"]))
        option("--channels", hostile(draw, ["4"]))
        option("--noise", hostile(draw))
        option("--seed", hostile(draw))
    else:
        if command == "predict":
            files["models"] = draw(model_files())
            argv += ["--models", "@models", "--device", "pascal", "--network", "net_a",
                     "--step", "forward", "--gpus", hostile(draw), "--batch", hostile(draw)]
        elif draw(st.booleans()):
            argv.append("--bundled")
        else:
            files["measurements"] = draw(csv_files(
                "device,network,step,gpus,batch,seconds_per_batch,joules_per_batch",
                ["pascal", "net_a", "forward", "1", "64", "0.01", "4.0"]))
            argv += ["--measurements", "@measurements"]
        ints = ",".join(hostile(draw, ["1", "2", "4"]) for _ in range(draw(st.integers(1, 3))))
        if command == "calibrate":
            option("--gpus", ints)
            option("--model-out", "@out")
        elif command == "rank":
            argv += ["--device", draw(st.sampled_from(["pascal", "maxwell", "x"]))]
            option("--gpus", ints)
            option("--batches", ",".join(hostile(draw, ["64", "256"]) for _ in range(2)))
            option("--networks", draw(st.sampled_from(["two_d_cnn", "caffenet,x", ""])))
            option("--update-overhead-pct", hostile(draw))
    return argv, files


@given(cli_runs())
@example((["analyze", "--builtin", "caffenet", "--batch", "9" * 400], {}))
@example((["predict", "--models", "@models", "--device", "pascal", "--network", "net_a",
           "--step", "forward", "--gpus", "1", "--batch", "9" * 400],
          {"models": json.dumps({"models": [MODEL]}).encode()}))
@example((["predict", "--models", "@models", "--device", "pascal", "--network", "net_a",
           "--step", "forward", "--gpus", "1", "--batch", "1"], {"models": b"[" * 5000}))
@example((["calibrate", "--measurements", "@measurements", "--model-out", "@out"],
          {"measurements": OVERFLOWING_MEASUREMENTS.encode()}))
@example((["rank", "--bundled", "--device", "pascal", "--batches", "0"], {}))
@example((["rank", "--bundled", "--device", "pascal", "--gpus", "0,1"], {}))
@settings(max_examples=500, deadline=None)
def test_main_exits_0_2_or_3_on_any_input(run_spec):
    argv, files = run_spec
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data)
        argv = [str(Path(tmp) / a[1:]) if a.startswith("@") else a for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refuses an option's value
                code = exc.code
        assert code in (0, 2, 3)
        if argv[0] == "rank" and any(
                cell.lstrip("-").isdigit() and int(cell) < 1
                for flag, value in zip(argv, argv[1:]) if flag in ("--batches", "--gpus")
                for cell in value.split(",")):
            assert code == 2  # a batch or GPU count below 1 is refused
        if code == 0 and argv[0] == "analyze" and "--output" not in argv:
            # the cost CSV reads back as one row per layer plus one total row
            rows = list(csv.reader(line for line in stdout.getvalue().splitlines()
                                   if not line.startswith("#")))
            assert {len(row) for row in rows} == {10}
            layers = [row[0] for row in rows]
            assert layers.count("total") == 1 and layers[-1] == "total"
        if code == 0 and argv[0] == "calibrate":
            # a fit that succeeds is finite, and its model file reads back
            cells = stdout.getvalue().replace(",", " ").split()
            assert not {"nan", "inf", "-inf"} & set(cells)
            if "--model-out" in argv:
                energymodel.load_models(argv[argv.index("--model-out") + 1])
