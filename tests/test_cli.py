"""End-to-end command-line checks (in-process, no subprocesses)."""
import io

import pytest

from cnnergy import cli, energymodel, powertrace

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


def test_calibrate_non_finite_measurement_exits_2(tmp_path, capsys):
    measurements = tmp_path / "m.csv"
    measurements.write_text(MEASUREMENTS.replace("0.02,8.0", "nan,8.0"), encoding="utf-8")
    code, out, err = run(["calibrate", "--measurements", str(measurements)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: line 3: ")


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
