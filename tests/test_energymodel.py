"""Device profiles, measurement tables, affine calibration, efficiency."""
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cnnergy.arch import builtin_network, infer_shapes
from cnnergy.costmodel import network_cost
from cnnergy.energymodel import (
    CalibratedModel,
    DeviceProfile,
    MeasurementRecord,
    QUANTITIES,
    STEPS,
    TrainingPlan,
    bundled_devices,
    bundled_measurements,
    bundled_plans,
    calibrate,
    find_model,
    generation_gap,
    gflops_per_watt,
    load_models,
    parse_measurements,
    predict,
    records_by_key,
    save_models,
)
from cnnergy.errors import (
    DataFormatError,
    InsufficientDataError,
    KeyMismatchError,
    MismatchedRecordsError,
)

from oracles import (
    affine_fit_closed_form,
    calibrate_reference,
    load_models_reference,
    save_models_reference,
)


def record(device="pascal", network="two_d_cnn", step="forward", gpus=1,
           batch=64, seconds=0.01, joules=4.0):
    return MeasurementRecord(device, network, step, gpus, batch, seconds, joules)


# ---------------------------------------------------------------------------
# Device profiles
# ---------------------------------------------------------------------------

def test_device_profile_rejects_non_finite():
    for bad in (0, -1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError,
                           match="^DeviceProfile.dram_bytes must be positive and finite$"):
            DeviceProfile("demo", bad)


def test_bundled_devices_keep_every_value():
    # the values the bundled table holds, field by field
    assert list(DeviceProfile._fields) == ["name", "dram_bytes"]
    assert bundled_devices() == {
        "pascal": DeviceProfile(name="pascal", dram_bytes=12884901888),
        "maxwell": DeviceProfile(name="maxwell", dram_bytes=12884901888),
    }
    for device in bundled_devices().values():
        assert [type(device.name), type(device.dram_bytes)] == [str, int]


def test_bundled_devices():
    devices = bundled_devices()
    assert set(devices) == {"pascal", "maxwell"}
    # both boards carry 12 GB
    assert devices["pascal"].dram_bytes == devices["maxwell"].dram_bytes == 12 * 2 ** 30


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


@pytest.mark.parametrize("field", ["device", "network"])
@pytest.mark.parametrize("name", ['"pascal', 'pas"cal', "a,b", "a\nb", "a\rb"])
def test_record_names_must_read_back_as_one_csv_cell(field, name):
    # calibrate prints both as cells of its CSV
    with pytest.raises(ValueError, match=f"^{field} must be without commas, double quotes"):
        record(**{field: name})


@pytest.mark.parametrize("field", ["gpus", "batch"])
@pytest.mark.parametrize("value", [1.0, True, np.int64(1)], ids=repr)
def test_record_gpus_and_batch_must_be_exact_ints(field, value):
    with pytest.raises(ValueError, match=r"^gpus and batch must be ints, got "):
        record(**{field: value})


def test_records_of_float_gpus_never_reach_calibrate():
    # calibrate once reported their finite fit as an overflow
    with pytest.raises(ValueError, match=r"^gpus and batch must be ints, got 1\.0 and 64$"):
        calibrate([record(gpus=1.0, batch=64), record(gpus=1.0, batch=128, seconds=0.02)])


# ---------------------------------------------------------------------------
# Training plans
# ---------------------------------------------------------------------------

def test_bundled_plans():
    plans = bundled_plans()
    # the values the bundled table holds, field by field
    assert list(TrainingPlan._fields) == ["network", "batch", "iterations"]
    assert plans == {
        ("resnet_gait", 64): TrainingPlan("resnet_gait", 64, 72_368),
        ("resnet_gait", 128): TrainingPlan("resnet_gait", 128, 36_184),
        ("resnet_gait", 256): TrainingPlan("resnet_gait", 256, 18_092),
        ("two_d_cnn", 64): TrainingPlan("two_d_cnn", 64, 72_368),
        ("two_d_cnn", 128): TrainingPlan("two_d_cnn", 128, 36_184),
        ("two_d_cnn", 256): TrainingPlan("two_d_cnn", 256, 18_092),
        ("caffenet", 64): TrainingPlan("caffenet", 64, 1_800_000),
        ("caffenet", 128): TrainingPlan("caffenet", 128, 900_000),
        ("caffenet", 256): TrainingPlan("caffenet", 256, 450_000),
        ("resnet_im", 64): TrainingPlan("resnet_im", 64, 1_800_000),
        ("resnet_im", 128): TrainingPlan("resnet_im", 128, 900_000),
        ("resnet_im", 256): TrainingPlan("resnet_im", 256, 450_000),
    }
    for plan in plans.values():
        assert [type(plan.network), type(plan.batch), type(plan.iterations)] == [str, int, int]
    # doubling the batch halves the iteration count
    for network in ("resnet_gait", "two_d_cnn", "caffenet", "resnet_im"):
        assert plans[(network, 64)].iterations == 2 * plans[(network, 128)].iterations
        assert plans[(network, 128)].iterations == 2 * plans[(network, 256)].iterations


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


def test_calibrate_keeps_skipped_groups_in_order():
    recs = (linear_records(step="backward") + [record(batch=64)]
            + [record(gpus=2, batch=64), record(gpus=2, batch=64, seconds=0.02)])
    _, skipped = calibrate(recs)
    assert [(s.step, s.gpus, s.quantity) for s in skipped] == [
        ("forward", 1, "seconds"), ("forward", 1, "joules"),
        ("forward", 2, "seconds"), ("forward", 2, "joules"),
    ]


def test_calibrate_fits_equal_one_polyfit_per_quantity_bit_for_bit():
    np = pytest.importorskip("numpy")
    models, skipped = calibrate(bundled_measurements(), gpu_counts=(1, 2, 4))
    assert not skipped and len(models) == 2 * 48
    groups = {}
    for rec in bundled_measurements():
        groups.setdefault((rec.device, rec.network, rec.step, rec.gpus), []).append(rec)
    for model in models:
        recs = sorted(groups[model.key[:4]], key=lambda r: r.batch)
        x = np.array([r.batch for r in recs], dtype=float)
        y = np.array([r.seconds_per_batch if model.quantity == "seconds"
                      else r.joules_per_batch for r in recs])
        slope, intercept = np.polyfit(x, y, 1)
        assert (model.slope, model.intercept) == (slope, intercept), model.key
        assert model.residuals == tuple(y - (slope * x + intercept)), model.key


@pytest.mark.parametrize("gpu_counts", [(1, 2), (1, 2, 4)])
def test_calibrate_calls_polyfit_once_per_batch_vector(monkeypatch, gpu_counts):
    np = pytest.importorskip("numpy")
    polyfit, calls = np.polyfit, []

    def counting(*args, **kwargs):
        calls.append(args[1].shape)
        return polyfit(*args, **kwargs)

    monkeypatch.setattr(np, "polyfit", counting)
    models, _ = calibrate(bundled_measurements(), gpu_counts=gpu_counts)
    # the bundled groups hold only the (64, 128) and (64, 128, 256) vectors
    assert sorted(shape[0] for shape in calls) == [2, 3]
    assert sum(shape[1] for shape in calls) == len(models)


def fit_bits(models):
    """Every model as a tuple, each float as its ``float.hex``."""
    return [tuple(tuple(map(float.hex, v)) if isinstance(v, tuple)
                  else v.hex() if isinstance(v, float) else v
                  for v in m) for m in models]


FIT_VALUES = st.one_of(st.floats(1e-4, 1e4), st.sampled_from([1e-300, 1e300, 1.7e308]))


@st.composite
def record_sets(draw):
    """Measurement records over a few groups, batch vectors mixed: some
    batches repeat within a group, and some groups have only one."""
    recs = []
    for device, network, step, gpus in draw(st.lists(st.tuples(
            st.sampled_from(["pascal", "maxwell"]), st.sampled_from(["net_a", "net_b"]),
            st.sampled_from(STEPS), st.sampled_from([1, 2, 4])), max_size=8, unique=True)):
        for batch in draw(st.lists(st.sampled_from([1, 32, 64, 96, 128, 256]),
                                   min_size=1, max_size=5)):
            recs.append(MeasurementRecord(device, network, step, gpus, batch,
                                          draw(FIT_VALUES), draw(FIT_VALUES)))
    return draw(st.permutations(recs))


@given(record_sets(), st.sampled_from([(1, 2), (1, 2, 4), (4,)]))
# A group with an extreme value next to one without, on one batch vector:
# fitted together, the second group's zero slope came out in other bits.
@example([record(network="net_a", gpus=g, batch=b, seconds=1.0, joules=j)
          for g, j in ((1, 1e300), (2, 1.0)) for b in (1, 32)], (1, 2))
@example([record(network="net_a", gpus=g, batch=b, seconds=s, joules=1.0)
          for g, s in ((1, 1e-300), (2, 3.0)) for b in (1, 32, 64)], (1, 2))
@settings(max_examples=300, deadline=None)
def test_calibrate_fits_equal_the_per_group_oracle_bit_for_bit(recs, gpu_counts):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the oracle's overflow warnings
        expected, expected_skipped = calibrate_reference(recs, gpu_counts)
    overflowed = [m for m in expected if not all(map(math.isfinite, (
        m.slope, m.intercept, m.r_squared, *m.residuals)))]
    if overflowed:
        with pytest.raises(DataFormatError, match="^the fit of {} overflows: ".format(
                "/".join(map(str, overflowed[0].key)))):
            calibrate(recs, gpu_counts)
        return
    models, skipped = calibrate(recs, gpu_counts)
    assert fit_bits(models) == fit_bits(expected)
    assert skipped == expected_skipped


def test_calibrate_overflowing_fit_raises_naming_the_group():
    recs = [record(batch=b, seconds=s) for b, s in ((64, 1e300), (128, 1.7e308), (256, 1e300))]
    recs += [record(network="net_z", batch=b, seconds=1e300) for b in (64, 128)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning gets out
        with pytest.raises(DataFormatError, match=(
                r"^the fit of pascal/net_z/forward/1/seconds overflows: .*r_squared nan")):
            calibrate(recs + [record(network="net_z", batch=256, seconds=1.7e308)])
        with pytest.raises(DataFormatError, match=(
                r"^the fit of pascal/two_d_cnn/forward/1/seconds overflows: ")):
            calibrate(recs)


def test_calibrate_filters_gpu_counts():
    recs = linear_records() + linear_records(gpus=4)
    models, _ = calibrate(recs)
    assert {m.gpus for m in models} == {1}
    models, _ = calibrate(recs, gpu_counts=(1, 4))
    assert {m.gpus for m in models} == {1, 4}


@pytest.mark.parametrize("gpu_counts, message", [
    ((0,), "gpu_counts (--gpus) must be >= 1, got 0"),
    ((1, -1), "gpu_counts (--gpus) must be >= 1, got -1"),
    ((1, 2, 1), "gpu_counts (--gpus) lists 1 twice"),
])
def test_calibrate_refuses_what_rank_refuses_in_gpu_counts(gpu_counts, message):
    with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
        calibrate(linear_records(), gpu_counts=gpu_counts)


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


def test_predict_rejects_an_overflowing_value():
    models, _ = calibrate(linear_records())
    steep = models[0]._replace(slope=1e308)
    with pytest.raises(DataFormatError, match="predicted seconds at batch 1000"):
        predict(steep, 1000)


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


def test_save_models_refuses_a_non_finite_number(tmp_path):
    models, _ = calibrate(linear_records())
    path = tmp_path / "models.json"
    for field, value in (("slope", math.inf), ("r_squared", math.nan),
                         ("residuals", (0.0, -math.inf))):
        # the model refuses the number, so there is no such model to save
        with pytest.raises(ValueError,
                           match=rf"^bad value for '{field}': {re.escape(repr(value))}$"):
            save_models([models[0], models[1]._replace(**{field: value})], path)
        assert not path.exists()


@pytest.mark.parametrize("field, name", [("device", '"pascal'), ("network", "net,a"),
                                         ("network", "net\na")])
def test_save_models_refuses_a_name_that_load_models_refuses(field, name, tmp_path):
    models, _ = calibrate(linear_records())
    path = tmp_path / "models.json"
    # the model refuses the name, so there is no such model to save
    with pytest.raises(ValueError, match=rf"^bad value for '{field}': {field} must be "
                                         "without commas, double quotes or line breaks"):
        save_models([models[0], models[1]._replace(**{field: name})], path)
    assert not path.exists()


JSON_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([-0.0, 5e-324, 2.2e-308, 1e300, -1.7e308]))

CELL_NAMES = st.text(st.characters(exclude_characters=',"\r\n'))


@st.composite
def saved_models(draw):
    """Any model there can be: every rule of CalibratedModel holds."""
    residuals = tuple(draw(st.lists(JSON_FLOATS, min_size=2, max_size=4)))
    batch_min = draw(st.integers(1, 2 ** 70 - 1))
    return CalibratedModel(
        draw(CELL_NAMES), draw(CELL_NAMES), draw(st.sampled_from(STEPS)), draw(st.integers(1, 8)),
        draw(st.sampled_from(QUANTITIES)), draw(JSON_FLOATS), draw(JSON_FLOATS),
        draw(JSON_FLOATS.filter(lambda r_squared: r_squared <= 1)), residuals, batch_min,
        draw(st.integers(batch_min + 1, 2 ** 70)), len(residuals))


SAVED_MODELS = saved_models()


@given(st.lists(SAVED_MODELS, max_size=4))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_save_models_writes_the_bytes_json_dumps_wrote(tmp_path, models):
    path = tmp_path / "models.json"
    path.unlink(missing_ok=True)
    save_models(models, path)
    save_models_reference(models, tmp_path / "reference.json")
    assert path.read_bytes() == (tmp_path / "reference.json").read_bytes()
    assert load_models(path) == models


OTHER_JSON = st.one_of(st.none(), st.booleans(), st.integers(), st.just(10 ** 400),
                      st.floats(), st.text(max_size=3), st.lists(st.floats(), max_size=2),
                      st.lists(st.one_of(st.integers(), st.booleans(), st.none()), max_size=2),
                      st.just({}))


@st.composite
def model_entries(draw):
    """A saved model entry, left as written or with one key dropped, added or
    given a value of another JSON type (booleans, NaN and huge integers
    included, in the residual list too); now and then not an object at all."""
    entry = draw(SAVED_MODELS)._asdict()
    entry = {**entry, "residuals": list(entry["residuals"])}
    key = draw(st.sampled_from(sorted(entry)))
    mutation = draw(st.sampled_from(["none", "drop", "add", "retype", "bool", "nan", "int",
                                     "other"]))
    value = draw({"add": OTHER_JSON, "retype": OTHER_JSON, "bool": st.booleans(),
                  "nan": st.sampled_from([math.nan, math.inf, -math.inf]),
                  "int": st.sampled_from([0, -3, 2 ** 1100])}.get(mutation, st.none()))
    if mutation == "drop":
        del entry[key]
    elif mutation == "add":
        entry[draw(st.sampled_from(["colour", "", "Slope", key]))] = value
    elif mutation == "other":
        entry = draw(OTHER_JSON)
    elif mutation != "none":
        if key == "residuals" and mutation != "retype":
            value = [*entry[key], value]
        entry[key] = value
    return entry


@given(st.lists(model_entries(), max_size=3))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_models_matches_the_per_key_oracle(tmp_path, entries):
    path = tmp_path / "models.json"
    path.write_text(json.dumps({"models": entries}), encoding="utf-8")
    try:
        expected = load_models_reference(path)
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        with pytest.raises(type(exc)) as info:
            load_models(path)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
    else:
        # repr tells an integer or a boolean from the float it equals
        assert repr(load_models(path)) == repr(expected)


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


def test_generation_gap_refuses_a_repeated_key():
    # both devices' rows in one argument would pair maxwell with itself
    homogeneous = [r for r in bundled_measurements() if r.gpus in (1, 2)]
    maxwell = [r for r in homogeneous if r.device == "maxwell"]
    with pytest.raises(DataFormatError) as mixed:
        generation_gap(homogeneous, maxwell)
    assert str(mixed.value).startswith("a_records: duplicate measurement for (")
    with pytest.raises(DataFormatError) as repeated:
        generation_gap([record()], [record(device="maxwell"), record(device="maxwell")])
    assert str(repeated.value) == \
        "b_records: duplicate measurement for ('two_d_cnn', 'forward', 1, 64)"


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
    (lambda e: e.update(gpus=0), "models[0]: bad value for 'gpus': 0"),
    (lambda e: e.update(batch_min=512, batch_max=64), "models[0]: bad value for 'batch_max': 64"),
    (lambda e: e.update(n_points=-3), "models[0]: bad value for 'n_points': -3"),
    (lambda e: e.update(r_squared=7.5), "models[0]: bad value for 'r_squared': 7.5"),
    (lambda e: e.update(step="sideways"), "models[0]: bad value for 'step': 'sideways'"),
    (lambda e: e.update(quantity="watts"), "models[0]: bad value for 'quantity': 'watts'"),
], ids=["no-residuals", "unknown-key", "str-slope", "nan-intercept", "null-residual",
        "float-gpus", "bool-n-points", "int-device", "zero-gpus", "batch-min-above-max",
        "negative-n-points", "r-squared-above-one", "sideways-step", "watts-quantity"])
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
