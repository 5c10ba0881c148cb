"""Memory feasibility, config scoring, ranking, and batch recommendations."""
import copy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cnnergy.arch import builtin_network, infer_shapes
from cnnergy.energymodel import (
    MeasurementRecord,
    TrainingPlan,
    bundled_devices,
    bundled_measurements,
    bundled_plans,
    calibrate,
    records_by_key,
)
from cnnergy.errors import (
    DataFormatError,
    IndivisibleBatchError,
    NoDataForConfigError,
    NothingFeasibleError,
    UnknownNetworkError,
)
from cnnergy.multigpu import GpuSet
from cnnergy.tuner import (
    AccuracyRecord,
    ConfigReport,
    FAMILY_NETWORKS,
    HETERO_TESTBED,
    MULTI_GPU_ADVISORY,
    PRIMARY_METRIC,
    Recommendation,
    TrainingConfig,
    bundled_accuracy,
    bundled_grid,
    edp,
    memory_feasible,
    parse_accuracy,
    rank,
    recommend,
    score,
)

from oracles import recommend_reference

PROFILES = bundled_devices()
PASCAL, MAXWELL = PROFILES["pascal"], PROFILES["maxwell"]
RECORDS = records_by_key(bundled_measurements())
PLANS = bundled_plans()


def config(network="resnet_gait", batch=64, gpus=1, device="pascal"):
    gpu_set = HETERO_TESTBED if gpus == 4 else GpuSet.homogeneous(device, gpus)
    return TrainingConfig(network, batch, gpu_set, PLANS[(network, batch)])


# ---------------------------------------------------------------------------
# EDP
# ---------------------------------------------------------------------------

def test_edp_is_exact_product():
    assert edp(11140.0, 1465000.0) == 11140.0 * 1465000.0
    report = ConfigReport(config(), feasible=True,
                          edp_joule_seconds=edp(11140.0, 1465000.0))
    assert report.edp_mj_ks == pytest.approx(16.32, abs=0.005)
    with pytest.raises(ValueError):
        edp(-1.0, 1.0)


# ---------------------------------------------------------------------------
# Memory feasibility
# ---------------------------------------------------------------------------

def test_memory_estimate_resnet_im():
    shaped = infer_shapes(builtin_network("resnet_im"))
    too_big = memory_feasible(shaped, 256, PASCAL)
    assert not too_big.feasible
    assert too_big.estimate_bytes == 21_727_061_504
    assert "needs 20.23 GiB but device has 12.00 GiB" == too_big.reason

    fits = memory_feasible(shaped, 128, PASCAL)
    assert fits.feasible
    assert fits.estimate_bytes == 11_448_444_416
    assert fits.reason == "10.66 GiB needed of 12.00 GiB"


def test_memory_estimate_scales_with_element_bytes():
    shaped = infer_shapes(builtin_network("resnet_im"))
    # half precision halves everything but the fixed overhead
    est = memory_feasible(shaped, 256, PASCAL, element_bytes=2)
    assert est.estimate_bytes == (21_727_061_504 - 2 ** 30) // 2 + 2 ** 30
    assert est.feasible
    with pytest.raises(ValueError):
        memory_feasible(shaped, 0, PASCAL)


# ---------------------------------------------------------------------------
# TrainingConfig
# ---------------------------------------------------------------------------

def test_config_rejects_indivisible_batch():
    with pytest.raises(IndivisibleBatchError):
        TrainingConfig("resnet_gait", 100, GpuSet.homogeneous("pascal", 3),
                       TrainingPlan("resnet_gait", 100, 10))


def test_config_rejects_plan_mismatch():
    with pytest.raises(ValueError):
        TrainingConfig("resnet_gait", 64, GpuSet.homogeneous("pascal", 1),
                       PLANS[("resnet_gait", 128)])


# ---------------------------------------------------------------------------
# Scoring against the bundled measurements
# ---------------------------------------------------------------------------

def test_score_single_gpu_matches_bundled_records():
    cfg = config("resnet_gait", 64, gpus=1)
    report = score(cfg, RECORDS, PROFILES)
    assert report.feasible and report.reason == "fits device memory"

    fwd = RECORDS[("pascal", "resnet_gait", "forward", 1, 64)]
    bwd = RECORDS[("pascal", "resnet_gait", "backward", 1, 64)]
    iters = PLANS[("resnet_gait", 64)].iterations
    step_s = fwd.seconds_per_batch + bwd.seconds_per_batch
    step_j = fwd.joules_per_batch + bwd.joules_per_batch
    assert report.total_seconds == pytest.approx(step_s * iters, rel=1e-12)
    assert report.total_joules == pytest.approx(step_j * iters, rel=1e-12)
    assert report.edp_joule_seconds == pytest.approx(
        report.total_seconds * report.total_joules, rel=1e-12)
    # published headline values for this configuration
    assert report.kiloseconds == pytest.approx(11.1, rel=0.005)
    assert report.megajoules == pytest.approx(1.47, rel=0.005)
    assert report.edp_mj_ks == pytest.approx(16.3, rel=0.005)


def test_score_hetero_testbed_sums_per_device_energy():
    cfg = config("resnet_gait", 64, gpus=4)
    report = score(cfg, RECORDS, PROFILES)
    assert report.feasible

    per_dev = {}
    step = 0.0
    for dev in ("pascal", "maxwell"):
        fwd = RECORDS[(dev, "resnet_gait", "forward", 4, 64)]
        bwd = RECORDS[(dev, "resnet_gait", "backward", 4, 64)]
        step = max(step, fwd.seconds_per_batch + bwd.seconds_per_batch)
        per_dev[dev] = fwd.joules_per_batch + bwd.joules_per_batch
    iters = PLANS[("resnet_gait", 64)].iterations
    assert report.total_seconds == pytest.approx(step * iters, rel=1e-12)
    assert report.total_joules == pytest.approx(
        (2 * per_dev["pascal"] + 2 * per_dev["maxwell"]) * iters, rel=1e-12)


def test_score_declares_infeasible_before_touching_data():
    cfg = config("resnet_im", 256, gpus=1)
    # empty records and no models: would raise NoDataForConfigError if the
    # scorer looked up measurements before checking memory
    report = score(cfg, {}, PROFILES)
    assert not report.feasible
    assert report.reason.startswith("pascal: needs")
    assert report.total_seconds is None and report.edp_joule_seconds is None


def test_score_splits_batch_before_memory_check():
    # 256 across two GPUs is a 128 sub-batch, which fits
    cfg = config("resnet_im", 256, gpus=2)
    report = score(cfg, RECORDS, PROFILES)
    assert report.feasible


def test_score_update_overhead_scales_both_totals():
    cfg = config("two_d_cnn", 128, gpus=1)
    base = score(cfg, RECORDS, PROFILES)
    padded = score(cfg, RECORDS, PROFILES, update_overhead_pct=10.0)
    assert padded.total_seconds == pytest.approx(base.total_seconds * 1.1, rel=1e-12)
    assert padded.total_joules == pytest.approx(base.total_joules * 1.1, rel=1e-12)
    assert padded.edp_joule_seconds == pytest.approx(
        base.edp_joule_seconds * 1.1 ** 2, rel=1e-12)
    halved = score(cfg, RECORDS, PROFILES, update_overhead_pct=-50.0)
    assert halved.total_seconds == pytest.approx(base.total_seconds / 2, rel=1e-12)


@pytest.mark.parametrize("pct", [float("nan"), float("inf"), float("-inf"), -100.0, -150.0])
def test_score_rejects_non_finite_or_too_negative_update_overhead(pct):
    cfg = config("two_d_cnn", 128, gpus=1)
    with pytest.raises(DataFormatError, match="--update-overhead-pct"):
        score(cfg, RECORDS, PROFILES, update_overhead_pct=pct)


def linear_records(batches=(32, 64, 128), gpus=1):
    recs = []
    for step, (s_slope, s_int, j_slope, j_int) in {
        "forward": (1e-4, 0.002, 0.05, 0.4),
        "backward": (3e-4, 0.004, 0.11, 0.9),
    }.items():
        for b in batches:
            recs.append(MeasurementRecord(
                device="pascal", network="two_d_cnn", step=step, gpus=gpus,
                batch=b, seconds_per_batch=s_slope * b + s_int,
                joules_per_batch=j_slope * b + j_int))
    return recs


def test_score_falls_back_to_calibrated_models():
    recs = linear_records()
    models, _ = calibrate(recs, gpu_counts=(1,))
    plan = TrainingPlan("two_d_cnn", 96, 1000)
    cfg = TrainingConfig("two_d_cnn", 96, GpuSet.homogeneous("pascal", 1), plan)
    report = score(cfg, [], PROFILES, models=models)
    assert report.feasible
    step_s = (1e-4 * 96 + 0.002) + (3e-4 * 96 + 0.004)
    step_j = (0.05 * 96 + 0.4) + (0.11 * 96 + 0.9)
    assert report.total_seconds == pytest.approx(step_s * 1000, rel=1e-9)
    assert report.total_joules == pytest.approx(step_j * 1000, rel=1e-9)
    assert report.warnings == ()  # 96 is inside the fitted batch range


def test_score_model_fallback_warns_on_extrapolation():
    recs = linear_records()
    models, _ = calibrate(recs, gpu_counts=(1,))
    plan = TrainingPlan("two_d_cnn", 512, 1000)
    cfg = TrainingConfig("two_d_cnn", 512, GpuSet.homogeneous("pascal", 1), plan)
    report = score(cfg, [], PROFILES, models=models)
    assert report.feasible
    assert any("outside the fitted batch range" in w for w in report.warnings)


def test_score_without_records_or_models_raises():
    cfg = config("resnet_gait", 64, gpus=1)
    with pytest.raises(NoDataForConfigError):
        score(cfg, {}, PROFILES)


def test_score_accepts_record_list_or_index():
    cfg = config("caffenet", 64, gpus=1)
    from_list = score(cfg, bundled_measurements(), PROFILES)
    from_index = score(cfg, RECORDS, PROFILES)
    assert from_list.total_seconds == from_index.total_seconds
    assert from_list.total_joules == from_index.total_joules


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------

def pascal_reports():
    shapes = {net: infer_shapes(builtin_network(net)) for net in
              ("resnet_gait", "two_d_cnn", "caffenet", "resnet_im")}
    return [score(cfg, RECORDS, PROFILES, shaped=shapes[cfg.network])
            for cfg in bundled_grid("pascal", PLANS)]


def test_rank_orders_by_metric_and_records_positions():
    reports = pascal_reports()
    before = copy.deepcopy(reports)
    ranked = rank(reports, metric="edp")
    values = [r.edp_joule_seconds for r in ranked]
    assert values == sorted(values)
    # ranking returns an ordering and leaves the reports it was given as they were
    assert reports == before
    assert all(r.feasible for r in ranked)
    # the overall winner is the small plain stack at the largest batch on two GPUs
    top = ranked[0]
    assert (top.config.network, top.config.batch, top.config.gpu_set.total_gpus) \
        == ("two_d_cnn", 256, 2)


def test_rank_best_gait_residual_config():
    ranked = rank(pascal_reports(), metric="edp")
    best_gait = next(r for r in ranked if r.config.network == "resnet_gait")
    assert best_gait.config.batch == 256
    assert best_gait.config.gpu_set.total_gpus == 1


def test_rank_drops_infeasible_and_handles_empty():
    reports = pascal_reports()
    infeasible = [r for r in reports if not r.feasible]
    assert infeasible, "expected the large residual net at batch 256 to overflow"
    ranked = rank(reports, metric="time")
    assert len(ranked) == len(reports) - len(infeasible)
    with pytest.raises(NothingFeasibleError):
        rank(infeasible, metric="edp")
    with pytest.raises(ValueError):
        rank(reports, metric="speed")


def test_rank_tie_break_is_deterministic():
    def report(network, batch, gpus):
        plan = TrainingPlan(network, batch, 10)
        cfg = TrainingConfig(network, batch, GpuSet.homogeneous("pascal", gpus), plan)
        return ConfigReport(cfg, feasible=True, total_seconds=5.0,
                            total_joules=7.0, edp_joule_seconds=35.0)

    ranked = rank([report("b_net", 128, 1), report("a_net", 64, 2),
                   report("a_net", 64, 1)], metric="edp")
    keys = [(r.config.batch, r.config.gpu_set.total_gpus, r.config.network)
            for r in ranked]
    assert keys == [(64, 1, "a_net"), (64, 2, "a_net"), (128, 1, "b_net")]


def test_rank_edp_order_invariant_under_energy_scaling():
    reports = [r for r in pascal_reports() if r.feasible]
    baseline = [r.config for r in rank(reports, metric="edp")]
    scaled = [r._replace(
        total_joules=r.total_joules * 3.7,
        edp_joule_seconds=r.total_seconds * r.total_joules * 3.7) for r in reports]
    assert [r.config for r in rank(scaled, metric="edp")] == baseline


# ---------------------------------------------------------------------------
# Accuracy records
# ---------------------------------------------------------------------------

def test_parse_accuracy():
    recs = parse_accuracy("network,batch,metric,value\n"
                          "resnet_gait,64,weighted-average,97.5\n")
    assert recs == [AccuracyRecord("resnet_gait", 64, "weighted-average", 97.5)]


@pytest.mark.parametrize("text", [
    "net,batch,metric,value\na,1,m,50\n",        # wrong header
    "network,batch,metric,value\na,1,m\n",       # missing column
    "network,batch,metric,value\na,x,m,50\n",    # non-integer batch
    "network,batch,metric,value\na,1,m,101\n",   # accuracy out of range
])
def test_parse_accuracy_rejects_malformed(text):
    with pytest.raises(DataFormatError):
        parse_accuracy(text)


def test_bundled_accuracy_tables():
    gait = bundled_accuracy("tumgaid")
    image = bundled_accuracy("imagenet")
    assert len(gait) == 42
    assert len(image) == 12
    assert {r.metric for r in image} == {"top-1", "top-5"}
    assert {r.network for r in gait} == {"resnet_gait", "two_d_cnn"}
    assert {r.batch for r in gait} == {64, 128, 256}
    with pytest.raises(ValueError):
        bundled_accuracy("cifar")


# ---------------------------------------------------------------------------
# Recommendations
# ---------------------------------------------------------------------------

def test_recommend_small_residual_keeps_smallest_batch():
    rec = recommend("small", "residual", bundled_accuracy("tumgaid"))
    assert rec.network == "resnet_gait"
    assert rec.qualifying_batches == (64,)
    assert rec.batch == 64
    assert MULTI_GPU_ADVISORY in rec.rationale


def test_recommend_large_residual_takes_largest_batch():
    rec = recommend("large", "residual", bundled_accuracy("imagenet"))
    assert rec.network == "resnet_im"
    assert rec.qualifying_batches == (256,)
    assert rec.batch == 256


def test_recommend_tolerance_widens_qualifier_set():
    acc = bundled_accuracy("tumgaid")
    at5 = recommend("small", "plain_conv", acc, tolerance_pct=5.0)
    assert at5.network == "two_d_cnn"
    assert at5.qualifying_batches == (64, 128)
    assert at5.batch == 128
    at6 = recommend("small", "plain_conv", acc, tolerance_pct=6.0)
    assert at6.qualifying_batches == (64, 128, 256)
    assert at6.batch == 256


def test_recommend_reports_pick_lowest_edp_qualifier():
    acc = [AccuracyRecord("two_d_cnn", 64, "weighted-average", 99.0),
           AccuracyRecord("two_d_cnn", 128, "weighted-average", 98.0)]

    def report(batch, edp_value):
        plan = TrainingPlan("two_d_cnn", batch, 10)
        cfg = TrainingConfig("two_d_cnn", batch, GpuSet.homogeneous("pascal", 1), plan)
        return ConfigReport(cfg, feasible=True, total_seconds=1.0,
                            total_joules=edp_value, edp_joule_seconds=edp_value)

    rec = recommend("small", "plain_conv", acc,
                    reports=[report(64, 50.0), report(128, 90.0)])
    assert rec.qualifying_batches == (64, 128)
    assert rec.batch == 64
    assert "lowest EDP" in rec.rationale


def test_recommend_validation():
    acc = bundled_accuracy("tumgaid")
    with pytest.raises(ValueError):
        recommend("medium", "residual", acc)
    with pytest.raises(ValueError):
        recommend("small", "transformer", acc)
    with pytest.raises(DataFormatError):
        recommend("small", "residual", bundled_accuracy("imagenet"))


GPU_SETS = (GpuSet.homogeneous("pascal", 1), GpuSet.homogeneous("maxwell", 2), HETERO_TESTBED)
BATCHES = st.sampled_from([32, 64, 128, 256])


@st.composite
def recommend_args(draw):
    """Arguments of ``recommend``: accuracy tables and report lists that are
    mostly about the pair's own network and metric, reports scored and
    unscored, feasible and not, or no reports at all."""
    dataset_class = draw(st.sampled_from(["small", "large"]))
    net_family = draw(st.sampled_from(["plain_conv", "residual"]))
    own = FAMILY_NETWORKS[(dataset_class, net_family)]
    networks = st.sampled_from([own] * 4 + ["two_d_cnn", "resnet_im"])
    metric = draw(st.sampled_from([None, "top-1", "top-5"]))
    metrics = st.sampled_from([metric or PRIMARY_METRIC[dataset_class]] * 3 + ["top-5"])
    accuracy = draw(st.lists(st.builds(
        AccuracyRecord, networks, BATCHES, metrics,
        st.sampled_from([90.0, 99.0, 100.0]) | st.floats(0.0, 100.0)), max_size=8))
    reports = None
    if draw(st.integers(0, 4)):
        # totals from a few values, so that ties are common; None is unscored
        totals = st.sampled_from(draw(st.lists(st.floats(0.0, 1e12), min_size=1, max_size=3))
                                 + [None])
        reports = []
        for _ in range(draw(st.integers(0, 10))):
            network, batch = draw(networks), draw(BATCHES)
            cfg = TrainingConfig(network, batch, draw(st.sampled_from(GPU_SETS)),
                                 TrainingPlan(network, batch, 10))
            reports.append(ConfigReport(cfg, draw(st.integers(0, 3)) > 0, "why",
                                        draw(totals), draw(totals), draw(totals)))
    tolerance_pct = draw(st.sampled_from([0.0, 5.0, 10.0, 100.0]) | st.floats(0.0, 100.0))
    return dataset_class, net_family, accuracy, tolerance_pct, reports, metric


def _outcome(call):
    try:
        return call()
    except DataFormatError as exc:
        return type(exc), str(exc)


def _two_d_cnn_report(batch, feasible, edp_value):
    cfg = TrainingConfig("two_d_cnn", batch, GPU_SETS[0], TrainingPlan("two_d_cnn", batch, 10))
    return ConfigReport(cfg, feasible, "why", edp_value, 1.0, edp_value)


TUMGAID = bundled_accuracy("tumgaid")  # two_d_cnn qualifies 64 and 128 at 5%


@given(recommend_args())
@example(("small", "plain_conv", TUMGAID, 5.0, [], None))
@example(("small", "plain_conv", TUMGAID, 5.0,
          [_two_d_cnn_report(64, False, None), _two_d_cnn_report(128, False, None)], None))
@example(("small", "plain_conv", TUMGAID, 5.0,
          [_two_d_cnn_report(128, True, 1.0), _two_d_cnn_report(64, True, 1.0)], None))
@settings(max_examples=500, deadline=None)
def test_recommend_matches_the_reference(args):
    got, want = _outcome(lambda: recommend(*args)), _outcome(lambda: recommend_reference(*args))
    assert type(got) is type(want)
    if isinstance(want, Recommendation):
        for field in Recommendation._fields:
            assert getattr(got, field) == getattr(want, field), field
    else:
        assert got == want


def test_family_networks_cover_all_builtins():
    assert set(FAMILY_NETWORKS.values()) == \
        {"two_d_cnn", "resnet_gait", "caffenet", "resnet_im"}


# ---------------------------------------------------------------------------
# Bundled grid
# ---------------------------------------------------------------------------

def test_bundled_grid_full_size_and_testbed():
    configs = bundled_grid("pascal", PLANS)
    assert len(configs) == 36  # 4 networks x 3 batches x {1, 2, 4} GPUs
    four = [c for c in configs if c.gpu_set.total_gpus == 4]
    assert len(four) == 12
    assert all(c.gpu_set == HETERO_TESTBED for c in four)
    solos = [c for c in configs if c.gpu_set.total_gpus == 1]
    assert all(c.gpu_set.device_names == ("pascal",) for c in solos)


def test_bundled_grid_skips_missing_plans_and_indivisible_batches():
    some_plans = {("two_d_cnn", 64): PLANS[("two_d_cnn", 64)],
                  ("two_d_cnn", 50): TrainingPlan("two_d_cnn", 50, 10)}
    configs = bundled_grid("pascal", some_plans, networks=("two_d_cnn",),
                           batches=(50, 64), gpu_counts=(1, 4))
    got = {(c.batch, c.gpu_set.total_gpus) for c in configs}
    assert got == {(50, 1), (64, 1), (64, 4)}  # 50 is indivisible by 4


@pytest.mark.parametrize("networks", [("cafenet",), ("caffenet", "cafenet"), ("",)])
def test_bundled_grid_refuses_a_network_that_is_not_built_in(networks):
    with pytest.raises(UnknownNetworkError) as err:
        bundled_grid("pascal", PLANS, networks=networks)
    with pytest.raises(UnknownNetworkError) as direct:
        builtin_network(networks[-1])
    assert str(err.value) == str(direct.value)


@pytest.mark.parametrize("grid, message", [
    ({"networks": ("caffenet", "resnet_im", "caffenet")},
     "networks (--networks) lists 'caffenet' twice"),
    ({"batches": (64, 64)}, "batches (--batches) lists 64 twice"),
    ({"gpu_counts": (1, 2, 1)}, "gpu_counts (--gpus) lists 1 twice"),
])
def test_bundled_grid_refuses_a_repeated_value(grid, message):
    with pytest.raises(DataFormatError) as err:
        bundled_grid("pascal", PLANS, **grid)
    assert str(err.value) == message
