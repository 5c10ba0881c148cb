"""Device profiles, measurement tables, affine calibration, efficiency."""
import json
import math

import pytest

from cnnergy.arch import builtin_network, infer_shapes
from cnnergy.costmodel import network_cost
from cnnergy.energymodel import (
    MeasurementRecord,
    QUANTITIES,
    STEPS,
    bundled_devices,
    bundled_measurements,
    bundled_plans,
    calibrate,
    find_model,
    generation_gap,
    gflops_per_watt,
    iterations_for,
    load_models,
    parse_device_profile,
    parse_measurements,
    predict,
    records_by_key,
    samples_per_second,
    save_models,
    whole_training,
)
from cnnergy.errors import (
    DataFormatError,
    InsufficientDataError,
    KeyMismatchError,
    MismatchedRecordsError,
)

from oracles import affine_fit_closed_form


def record(device="pascal", network="two_d_cnn", step="forward", gpus=1,
           batch=64, seconds=0.01, joules=4.0):
    return MeasurementRecord(device, network, step, gpus, batch, seconds, joules)


# ---------------------------------------------------------------------------
# Device profiles
# ---------------------------------------------------------------------------

PROFILE_TEXT = """\
name=demo
generation=demo-2020
cores=1024
core_freq_mhz=1000
peak_tflops=5.5
dram_bytes=8589934592
bandwidth_bytes_per_s=3e11
tdp_watts=200
"""


def test_parse_device_profile():
    profile = parse_device_profile(PROFILE_TEXT)
    assert profile.name == "demo"
    assert profile.cores == 1024
    assert profile.peak_tflops == 5.5
    assert profile.dram_bytes == 8589934592
    assert profile.bandwidth_bytes_per_s == 3e11


def test_parse_device_profile_missing_key():
    text = PROFILE_TEXT.replace("tdp_watts=200\n", "")
    with pytest.raises(DataFormatError):
        parse_device_profile(text)


def test_parse_device_profile_bad_value():
    with pytest.raises(DataFormatError):
        parse_device_profile(PROFILE_TEXT.replace("cores=1024", "cores=many"))
    with pytest.raises(DataFormatError):
        parse_device_profile(PROFILE_TEXT + "bogus_key=1\n")
    for key, value in (("core_freq_mhz", "1000"), ("peak_tflops", "5.5"),
                       ("tdp_watts", "200")):
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(DataFormatError, match=f"{key} must be positive and finite"):
                parse_device_profile(PROFILE_TEXT.replace(f"{key}={value}", f"{key}={bad}"))


def test_bundled_devices():
    devices = bundled_devices()
    assert set(devices) == {"pascal", "maxwell"}
    pascal, maxwell = devices["pascal"], devices["maxwell"]
    # both boards carry 12 GB and the same 250 W budget; the newer one is
    # wider, faster, and higher-bandwidth
    assert pascal.dram_bytes == maxwell.dram_bytes == 12 * 2 ** 30
    assert pascal.tdp_watts == maxwell.tdp_watts == 250
    assert pascal.cores == 3584 and maxwell.cores == 3072
    assert pascal.peak_tflops > maxwell.peak_tflops
    assert pascal.bandwidth_bytes_per_s > maxwell.bandwidth_bytes_per_s


# ---------------------------------------------------------------------------
# Measurement records
# ---------------------------------------------------------------------------

def test_parse_measurements_happy_path():
    text = ("device,network,step,gpus,batch,seconds_per_batch,joules_per_batch\n"
            "pascal,two_d_cnn,forward,1,64,0.013,3.891\n")
    recs = parse_measurements(text)
    assert len(recs) == 1
    assert recs[0].key == ("pascal", "two_d_cnn", "forward", 1, 64)
    assert recs[0].joules_per_batch == 3.891


def test_parse_measurements_validates():
    with pytest.raises(DataFormatError):
        parse_measurements("device,network\npascal,x\n")
    good_header = "device,network,step,gpus,batch,seconds_per_batch,joules_per_batch\n"
    with pytest.raises(DataFormatError):
        parse_measurements(good_header + "pascal,x,sideways,1,64,0.1,1\n")
    with pytest.raises(DataFormatError):
        parse_measurements(good_header + "pascal,x,forward,1,64,fast,1\n")
    with pytest.raises(DataFormatError):
        parse_measurements(good_header + "pascal,x,forward,1,64,-0.1,1\n")
    for cells in ("nan,1", "0.1,inf", "-inf,1", "0.1,NaN"):
        with pytest.raises(DataFormatError, match="^line 3: .*finite"):
            parse_measurements(good_header + "pascal,x,forward,1,64,0.1,1\n"
                               f"pascal,x,forward,1,128,{cells}\n")


def test_bundled_measurements_cover_the_grid():
    recs = bundled_measurements()
    assert len(recs) == 140
    keys = {r.key for r in recs}
    assert len(keys) == 140  # no duplicates
    # the only holes are the single-GPU largest-batch rows of the big resnet
    for step in STEPS:
        assert ("pascal", "resnet_im", step, 1, 256) not in keys
        assert ("maxwell", "resnet_im", step, 1, 256) not in keys
        assert ("pascal", "resnet_im", step, 2, 256) in keys
    # 4-GPU rows mirror the shared mixed testbed on both device tables
    by_key = records_by_key(recs)
    for network in ("resnet_gait", "two_d_cnn", "caffenet", "resnet_im"):
        for step in STEPS:
            for batch in (64, 128, 256):
                p = by_key[("pascal", network, step, 4, batch)]
                m = by_key[("maxwell", network, step, 4, batch)]
                assert p.seconds_per_batch == m.seconds_per_batch


def test_records_by_key_rejects_duplicates():
    rec = record()
    with pytest.raises(DataFormatError):
        records_by_key([rec, rec])


# ---------------------------------------------------------------------------
# Training plans
# ---------------------------------------------------------------------------

def test_bundled_plans():
    plans = bundled_plans()
    assert len(plans) == 12
    assert plans[("resnet_gait", 64)].iterations == 72368
    assert plans[("caffenet", 256)].iterations == 450_000
    assert plans[("caffenet", 256)].epochs == 90
    # doubling the batch halves the iteration count
    for network in ("resnet_gait", "two_d_cnn", "caffenet", "resnet_im"):
        assert plans[(network, 64)].iterations == 2 * plans[(network, 128)].iterations
        assert plans[(network, 128)].iterations == 2 * plans[(network, 256)].iterations


def test_iterations_for_rounds_up_partial_batches():
    assert iterations_for(1000, 100, 5) == 50
    assert iterations_for(1001, 100, 5) == 55
    assert iterations_for(1, 256, 1) == 1


def test_whole_training_and_samples_per_second():
    plan = bundled_plans()[("two_d_cnn", 64)]
    assert whole_training(0.013, plan) == pytest.approx(0.013 * 72368)
    assert samples_per_second(64, 0.013) == pytest.approx(64 / 0.013)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def linear_records(slope=0.5, intercept=3.0, batches=(32, 64, 128, 256),
                   **overrides):
    recs = []
    for batch in batches:
        value = slope * batch + intercept
        recs.append(record(batch=batch, seconds=value / 1000, joules=value,
                           **overrides))
    return recs


def test_calibrate_recovers_exact_line():
    models, skipped = calibrate(linear_records())
    assert not skipped
    joules = find_model(models, "pascal", "two_d_cnn", "forward", 1, "joules")
    assert joules.slope == pytest.approx(0.5, rel=1e-9)
    assert joules.intercept == pytest.approx(3.0, rel=1e-9)
    assert joules.r_squared == pytest.approx(1.0, abs=1e-12)
    assert joules.n_points == 4
    assert joules.batch_min == 32 and joules.batch_max == 256
    assert max(abs(r) for r in joules.residuals) < 1e-9


def test_calibrate_matches_closed_form_on_noisy_data():
    batches = (64, 128, 256)
    joules = (4.0, 9.5, 15.0)
    recs = [record(batch=b, joules=j) for b, j in zip(batches, joules)]
    models, _ = calibrate(recs)
    fitted = find_model(models, "pascal", "two_d_cnn", "forward", 1, "joules")
    slope, intercept = affine_fit_closed_form(batches, joules)
    assert fitted.slope == pytest.approx(slope, rel=1e-12)
    assert fitted.intercept == pytest.approx(intercept, rel=1e-9)


def test_calibrate_skips_single_batch_groups():
    models, skipped = calibrate([record(batch=64), record(batch=64, step="backward"),
                                 record(batch=128, step="backward")])
    assert len(models) == 2  # backward seconds + joules
    assert len(skipped) == 2  # forward seconds + joules
    assert all(s.reason.startswith("only 1 distinct") for s in skipped)
    assert {s.quantity for s in skipped} == set(QUANTITIES)


def test_calibrate_filters_gpu_counts():
    recs = linear_records() + linear_records(gpus=4)
    models, _ = calibrate(recs)
    assert {m.gpus for m in models} == {1}
    models, _ = calibrate(recs, gpu_counts=(1, 4))
    assert {m.gpus for m in models} == {1, 4}


def test_calibrate_constant_series_r_squared_is_one():
    recs = [record(batch=b, joules=5.0) for b in (64, 128, 256)]
    models, _ = calibrate(recs)
    fitted = find_model(models, "pascal", "two_d_cnn", "forward", 1, "joules")
    assert fitted.slope == pytest.approx(0.0, abs=1e-12)
    assert fitted.r_squared == 1.0


def test_predict_clamps_and_warns():
    models, _ = calibrate(linear_records(slope=0.5, intercept=-40.0,
                                         batches=(96, 128, 256)))
    fitted = find_model(models, "pascal", "two_d_cnn", "forward", 1, "joules")
    assert predict(fitted, 128).value == pytest.approx(24.0)
    # inside the trusted window, no warning — including at both edges
    assert not predict(fitted, 48).extrapolation_warning
    assert not predict(fitted, 512).extrapolation_warning
    assert predict(fitted, 47).extrapolation_warning
    assert predict(fitted, 513).extrapolation_warning
    # far below the fitted range the line dives negative; output clamps at 0
    assert predict(fitted, 47).value == 0.0
    with pytest.raises(ValueError):
        predict(fitted, 0)


def test_find_model_missing_group():
    models, _ = calibrate(linear_records())
    with pytest.raises(InsufficientDataError):
        find_model(models, "pascal", "two_d_cnn", "forward", 2, "joules")


def test_save_load_models_round_trip(tmp_path):
    models, _ = calibrate(linear_records())
    path = tmp_path / "models.json"
    save_models(models, path)
    again = load_models(path)
    assert again == models


# ---------------------------------------------------------------------------
# Efficiency and generation comparison
# ---------------------------------------------------------------------------

def test_gflops_per_watt_formula():
    summary = network_cost(infer_shapes(builtin_network("two_d_cnn")))
    fwd = record(step="forward", batch=64, seconds=0.013, joules=3.891)
    bwd = record(step="backward", batch=64, seconds=0.021, joules=5.132)
    got = gflops_per_watt(summary, fwd, bwd)
    expect = 2 * summary.total_ops * 64 / ((3.891 + 5.132) * 1) / 1e9
    assert got == pytest.approx(expect, rel=1e-12)


def test_gflops_per_watt_divides_by_gpu_count():
    summary = network_cost(infer_shapes(builtin_network("two_d_cnn")))
    fwd1, bwd1 = record(step="forward"), record(step="backward")
    fwd2 = record(step="forward", gpus=2)
    bwd2 = record(step="backward", gpus=2)
    assert gflops_per_watt(summary, fwd2, bwd2) \
        == pytest.approx(gflops_per_watt(summary, fwd1, bwd1) / 2)


def test_gflops_per_watt_validates_steps_and_config():
    summary = network_cost(infer_shapes(builtin_network("two_d_cnn")))
    fwd = record(step="forward")
    with pytest.raises(MismatchedRecordsError):
        gflops_per_watt(summary, fwd, fwd)  # both forward
    with pytest.raises(MismatchedRecordsError):
        gflops_per_watt(summary, fwd, record(step="backward", batch=128))


@pytest.mark.parametrize("network,printed", [
    ("two_d_cnn", 11.1), ("caffenet", 9.8), ("resnet_gait", 2.7)])
def test_gflops_per_watt_bundled_spot_values(network, printed):
    summary = network_cost(infer_shapes(builtin_network(network)))
    by_key = records_by_key(bundled_measurements())
    fwd = by_key[("pascal", network, "forward", 1, 64)]
    bwd = by_key[("pascal", network, "backward", 1, 64)]
    assert gflops_per_watt(summary, fwd, bwd) == pytest.approx(printed, rel=0.05)


def test_generation_gap_hand_computed():
    a = [record(seconds=0.013, joules=4.0)]
    b = [record(device="maxwell", seconds=0.026, joules=3.2)]
    gaps = generation_gap(a, b)
    assert len(gaps) == 1
    gap = gaps[0]
    # the newer device takes half the time (+50%) but spends more energy (-25%)
    assert gap.seconds_pct == pytest.approx(50.0)
    assert gap.joules_pct == pytest.approx(-25.0)


def test_generation_gap_on_bundled_tables():
    recs = bundled_measurements()
    pascal = [r for r in recs if r.device == "pascal"]
    maxwell = [r for r in recs if r.device == "maxwell"]
    gaps = generation_gap(pascal, maxwell)
    assert len(gaps) == 70
    # the 4-GPU testbed is shared, so its step times cancel exactly (the
    # per-device energy columns still differ)
    for gap in gaps:
        if gap.gpus == 4:
            assert gap.seconds_pct == 0.0
    by_key = {(g.network, g.step, g.gpus, g.batch): g for g in gaps}
    fwd = by_key[("resnet_gait", "forward", 1, 64)]
    bwd = by_key[("resnet_gait", "backward", 1, 64)]
    # the newer board wins the forward pass by a quarter but loses the
    # backward pass on this network — the known outlier series
    assert fwd.seconds_pct == pytest.approx(25.6, abs=0.05)
    assert bwd.seconds_pct == pytest.approx(-13.6, abs=0.05)
    # outside that series, single-GPU rows all favor the newer board
    others = [g for g in gaps if g.gpus == 1 and not
              (g.network == "resnet_gait" and g.step == "backward")]
    assert all(g.seconds_pct > 0 for g in others)


def test_generation_gap_empty_intersection():
    with pytest.raises(KeyMismatchError):
        generation_gap([record(network="a")], [record(network="b")])


def _saved_model_entry(tmp_path):
    models, _ = calibrate(bundled_measurements(), gpu_counts=(1,))
    path = tmp_path / "models.json"
    save_models(models[:1], path)
    return json.loads(path.read_text(encoding="utf-8"))["models"][0]


@pytest.mark.parametrize("edit, message", [
    (lambda e: e.pop("residuals"), "models[0]: missing key 'residuals'"),
    (lambda e: e.update(colour="red"), "models[0]: unknown key 'colour'"),
    (lambda e: e.update(slope="steep"), "models[0]: bad value for 'slope': 'steep'"),
    (lambda e: e.update(intercept=math.nan), "models[0]: bad value for 'intercept': nan"),
    (lambda e: e.update(residuals=[0.1, None]), "models[0]: bad value for 'residuals'"),
    (lambda e: e.update(gpus=1.5), "models[0]: bad value for 'gpus': 1.5"),
    (lambda e: e.update(n_points=True), "models[0]: bad value for 'n_points': True"),
    (lambda e: e.update(device=7), "models[0]: bad value for 'device': 7"),
], ids=["no-residuals", "unknown-key", "str-slope", "nan-intercept", "null-residual",
        "float-gpus", "bool-n-points", "int-device"])
def test_load_models_names_the_file_and_the_bad_key(tmp_path, edit, message):
    entry = _saved_model_entry(tmp_path)
    edit(entry)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"models": [entry]}), encoding="utf-8")
    with pytest.raises(DataFormatError) as info:
        load_models(path)
    assert str(info.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("payload", [{"nope": 1}, [], {"models": {}}, {"models": [3]}])
def test_load_models_rejects_other_json_shapes(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DataFormatError) as info:
        load_models(path)
    assert str(info.value).startswith(f"{path}: ")
