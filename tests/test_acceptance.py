"""Acceptance gate: one test per headline criterion, each printing one
PASS line (run ``pytest -v`` for the per-criterion verdicts, add ``-s``
to see the lines inline).

The expectation tables under ``tests/data/`` hold the reference numbers
the bundled measurements must reproduce; every checker counts the rows it
verified so a truncated table cannot fake a pass.
"""
import csv
import time
from pathlib import Path

import numpy as np
import pytest

from cnnergy import energymodel as em
from cnnergy import powertrace as pt
from cnnergy import tuner
from cnnergy.arch import (
    LayerSpec,
    NetworkSpec,
    TensorShape,
    builtin_network,
    infer_shapes,
)
from cnnergy.costmodel import batch_cost, layer_cost, network_cost
from cnnergy.multigpu import (
    DEFAULT_LINK_BANDWIDTH,
    DEFAULT_LINK_LATENCY,
    GpuSet,
    ring_allreduce_time,
    split_batch,
)
from oracles import conv_macc_by_enumeration, conv_macc_per_placement, \
    pool_ops_per_placement, slide_positions

DATA = Path(__file__).parent / "data"
NETWORKS = ("resnet_gait", "two_d_cnn", "caffenet", "resnet_im")

RECORDS = em.records_by_key(em.bundled_measurements())
PLANS = em.bundled_plans()
PROFILES = em.bundled_devices()
SHAPED = {name: infer_shapes(builtin_network(name)) for name in NETWORKS}


def rows_of(name: str) -> list[dict]:
    with open(DATA / name, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def within(got: float, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(got - want) <= rel * abs(want) + abs_tol


# ---------------------------------------------------------------------------
# 1. Characterization of the four built-in networks
# ---------------------------------------------------------------------------

def test_criterion_1_characterization():
    start = time.perf_counter()
    summaries = {name: network_cost(infer_shapes(builtin_network(name)))
                 for name in NETWORKS}
    elapsed = time.perf_counter() - start

    checked = 0
    for row in rows_of("characterization.csv"):
        s = summaries[row["network"]]
        ops_rel = 0.05 if row["network"] == "caffenet" else 0.10
        assert within(s.total_ops, float(row["million_ops"]) * 1e6, ops_rel), row
        assert within(s.total_read_bytes / 2 ** 20, float(row["read_mb"]), 0.10), row
        assert within(s.total_written_bytes / 2 ** 20, float(row["written_mb"]), 0.10), row
        assert within(s.ctc, float(row["ctc"]), 0.10), row
        checked += 1
    assert checked == 4
    assert elapsed < 1.0, f"characterization took {elapsed:.2f} s"
    print(f"PASS criterion 1: ops/read/written/CTC for all four built-ins "
          f"within 10% (caffenet ops within 5%) in {elapsed * 1e3:.0f} ms")


# ---------------------------------------------------------------------------
# 2. Derived columns of the per-batch measurement tables
# ---------------------------------------------------------------------------

def test_criterion_2_derived_columns():
    checked = 0
    for row in rows_of("derived_columns.csv"):
        key = (row["device"], row["network"], row["step"],
               int(row["gpus"]), int(row["batch"]))
        rec = RECORDS[key]
        plan = PLANS[(row["network"], int(row["batch"]))]
        sps = rec.batch / rec.seconds_per_batch
        assert within(sps, float(row["samples_per_second"]), 0.01, 0.5), row
        whole_s = rec.seconds_per_batch * plan.iterations
        assert within(whole_s, float(row["whole_seconds"]), 0.01, 0.5), row
        whole_j = rec.joules_per_batch * plan.iterations
        assert within(whole_j, float(row["whole_joules"]), 0.01, 0.5), row
        checked += 1
    assert checked == 140
    print("PASS criterion 2: samples/s and whole-training seconds/joules "
          "agree with all 140 recorded rows within 1% + rounding")


# ---------------------------------------------------------------------------
# 3. Whole-training time/energy/EDP tables and their boldfaced winners
# ---------------------------------------------------------------------------

def _config_for(device: str, network: str, gpus: int, batch: int) -> tuner.TrainingConfig:
    gpu_set = tuner.HETERO_TESTBED if gpus == 4 else GpuSet.homogeneous(device, gpus)
    return tuner.TrainingConfig(network, batch, gpu_set, PLANS[(network, batch)].iterations)


def test_criterion_3_edp_tables():
    groups: dict[tuple, list] = {}
    checked = 0
    for row in rows_of("edp_tables.csv"):
        cfg = _config_for(row["device"], row["network"],
                          int(row["gpus"]), int(row["batch"]))
        report = tuner.score(cfg, RECORDS, PROFILES)
        assert report.feasible, row
        assert within(report.kiloseconds, float(row["kiloseconds"]), 0.01, 0.051), row
        assert within(report.megajoules, float(row["megajoules"]), 0.01, 0.0051), row
        edp_err = abs(report.edp_mj_ks - float(row["edp"]))
        assert edp_err <= max(0.1, 0.01 * float(row["edp"])), row
        groups.setdefault((row["device"], row["network"]), []).append((row, report))
        checked += 1
    assert checked == 70

    winners = 0
    for (device, network), pairs in groups.items():
        for flag, attr in (("best_time", "total_seconds"),
                           ("best_energy", "total_joules"),
                           ("best_edp", "edp_joule_seconds")):
            flagged = {(r["gpus"], r["batch"]) for r, _ in pairs if r[flag] == "1"}
            assert flagged, (device, network, flag)
            best_row, _ = min(pairs, key=lambda p: getattr(p[1], attr))
            assert (best_row["gpus"], best_row["batch"]) in flagged, \
                (device, network, flag)
            winners += 1
    assert winners == 24  # 2 devices x 4 networks x 3 metrics
    print("PASS criterion 3: all 70 time/energy/EDP entries reproduced "
          "(ks/MJ within 1% + rounding, EDP within max(0.1, 1%)) and every "
          "per-table winner matches the flagged row")


# ---------------------------------------------------------------------------
# 4. GFLOPS-per-watt reconstruction
# ---------------------------------------------------------------------------

def test_criterion_4_gflops_per_watt():
    summaries = {name: network_cost(SHAPED[name]) for name in NETWORKS}
    checked = 0
    spot = {}
    for row in rows_of("gflops_per_watt.csv"):
        gpus = int(row["gpus"])
        if gpus not in (1, 2):
            continue
        fwd = RECORDS[(row["device"], row["network"], "forward", gpus, int(row["batch"]))]
        bwd = RECORDS[(row["device"], row["network"], "backward", gpus, int(row["batch"]))]
        got = em.gflops_per_watt(summaries[row["network"]], fwd, bwd)
        assert within(got, float(row["gflops_per_watt"]), 0.05), row
        if row["device"] == "pascal" and gpus == 1 and row["batch"] == "64":
            spot[row["network"]] = got
        checked += 1
    assert checked == 46
    assert spot["two_d_cnn"] == pytest.approx(11.1, rel=0.05)
    assert spot["caffenet"] == pytest.approx(9.8, rel=0.05)
    assert spot["resnet_gait"] == pytest.approx(2.7, rel=0.05)
    print("PASS criterion 4: all 46 single- and dual-GPU efficiency entries "
          "within 5% (spot values 11.1 / 9.8 / 2.7 confirmed)")


# ---------------------------------------------------------------------------
# 5. Affine-in-batch calibration quality
# ---------------------------------------------------------------------------

ANOMALY = ("pascal", "resnet_gait", "backward", 1)


def test_criterion_5_calibration_quality():
    models, skipped = em.calibrate(em.bundled_measurements(), gpu_counts=(1, 2))
    assert not skipped
    joules = [m for m in models if m.quantity == "joules"]
    assert len(joules) == 32
    regular = [m for m in joules
               if (m.device, m.network, m.step, m.gpus) != ANOMALY]
    assert len(regular) == 31
    assert all(m.r_squared >= 0.95 for m in regular), \
        min(regular, key=lambda m: m.r_squared)
    anomaly = next(m for m in joules
                   if (m.device, m.network, m.step, m.gpus) == ANOMALY)
    assert anomaly.r_squared < 0.95  # the documented outlier series

    exact = []
    for step in ("forward", "backward"):
        for batch in (32, 64, 128, 256):
            exact.append(em.MeasurementRecord(
                device="d", network="n", step=step, gpus=1, batch=batch,
                seconds_per_batch=2e-4 * batch + 0.01,
                joules_per_batch=0.5 * batch + 3.0))
    fitted, _ = em.calibrate(exact, gpu_counts=(1,))
    for m in fitted:
        slope, intercept = (2e-4, 0.01) if m.quantity == "seconds" else (0.5, 3.0)
        assert within(m.slope, slope, 1e-9)
        assert within(m.intercept, intercept, 1e-9)
        assert m.r_squared == pytest.approx(1.0, abs=1e-12)
    print("PASS criterion 5: 31/31 bundled joules series fit with "
          "R^2 >= 0.95 (known outlier excluded) and exact-linear data "
          "recovers coefficients to 1e-9")


# ---------------------------------------------------------------------------
# 6. Trace integration exactness and additivity
# ---------------------------------------------------------------------------

def test_criterion_6_energy_integration():
    flat = pt.PowerTrace.build(("a", "b"), [0.0, 0.5, 2.0],
                               [[100.0, 40.0]] * 3)
    whole = pt.Region("r", "other", 0.0, 2.0)
    got = pt.integrate(flat, whole).joules_total
    assert within(got, 2.0 * 140.0, 1e-9)

    ramp = pt.PowerTrace.build(("a",), [0.0, 1.0, 2.0],
                               [[0.0], [50.0], [100.0]])
    got = pt.integrate(ramp, whole).joules_total
    assert within(got, 100.0, 1e-9)  # area under the 0 -> 100 W ramp

    rng = np.random.default_rng(20260819)
    for _ in range(1000):
        n = int(rng.integers(3, 12))
        channels = int(rng.integers(1, 4))
        times = np.cumsum(rng.uniform(0.01, 1.0, size=n))
        watts = rng.uniform(0.0, 300.0, size=(n, channels))
        trace = pt.PowerTrace.build(tuple(f"c{i}" for i in range(channels)),
                                    times, watts)
        split = rng.uniform(times[0], times[-1])
        total = pt.integrate(trace, pt.Region("w", "other", times[0], times[-1]))
        left = pt.integrate(trace, pt.Region("l", "forward", times[0], split))
        right = pt.integrate(trace, pt.Region("r", "backward", split, times[-1]))
        assert within(left.joules_total + right.joules_total,
                      total.joules_total, 1e-9)
    print("PASS criterion 6: constant and ramp traces integrate exactly and "
          "1000 random region splits are additive to 1e-9")


# ---------------------------------------------------------------------------
# 7. Property suites
# ---------------------------------------------------------------------------

def _conv_pool_oracle_grid():
    cases = 0
    for size in range(1, 9):
        for k in range(1, 9):
            for stride in (1, 2, 3):
                for pad in (0, 1, 2):
                    if not slide_positions(size, k, stride, pad):
                        continue
                    for ci, co, g in ((1, 1, 1), (2, 3, 1), (4, 2, 2)):
                        layer = LayerSpec("c", "conv", kernel_w=k, kernel_h=k,
                                          stride=stride, padding=pad,
                                          out_channels=co, groups=g)
                        net = NetworkSpec("n", TensorShape(size, size, ci), (layer,))
                        sl = infer_shapes(net).per_layer[0]
                        got = layer_cost(sl).macc
                        assert got == conv_macc_per_placement(
                            size, size, ci, co, k, k, stride, pad, g)
                        cases += 1
                    pool = LayerSpec("p", "pool", kernel_w=k, kernel_h=k,
                                     stride=stride, padding=pad, pool_kind="max")
                    net = NetworkSpec("n", TensorShape(size, size, 3), (pool,))
                    sl = infer_shapes(net).per_layer[0]
                    got = layer_cost(sl).max_ops
                    assert got == pool_ops_per_placement(size, size, 3, k, k,
                                                         stride, pad)
                    cases += 1
    # full six-deep enumeration stays tractable on tiny dimensions
    for size in (1, 2, 3, 4):
        for k in (1, 2, 3):
            if k > size:
                continue
            layer = LayerSpec("c", "conv", kernel_w=k, kernel_h=k,
                              out_channels=2, groups=1)
            net = NetworkSpec("n", TensorShape(size, size, 2), (layer,))
            sl = infer_shapes(net).per_layer[0]
            assert layer_cost(sl).macc == \
                conv_macc_by_enumeration(size, size, 2, 2, k, k, 1, 0)
            cases += 1
    return cases


def test_criterion_7_property_suites():
    # exact batch linearity of the cost summaries
    for name in NETWORKS:
        summary = network_cost(SHAPED[name])
        for batch in (2, 7, 256):
            scaled = batch_cost(summary, batch)
            assert scaled.total_ops == summary.total_ops * batch
            assert scaled.total_read_elems == summary.total_read_elems * batch
            assert scaled.total_written_elems == summary.total_written_elems * batch

    grid_cases = _conv_pool_oracle_grid()
    assert grid_cases > 1000

    # ring all-reduce: zero cost alone, bounded by one full double transfer
    assert ring_allreduce_time(123456.0, 1) == 0.0
    for n in range(2, 17):
        for nbytes in (0.0, 1e6, 1e9):
            t = ring_allreduce_time(nbytes, n)
            bound = 2 * nbytes / DEFAULT_LINK_BANDWIDTH \
                + 2 * (n - 1) * DEFAULT_LINK_LATENCY
            assert 0.0 < t <= bound or (nbytes == 0.0 and t <= bound)

    # EDP ranking is invariant under uniform positive energy scaling
    reports = [tuner.score(cfg, RECORDS, PROFILES)
               for cfg in tuner.bundled_grid("pascal", PLANS)]
    baseline = [r.config for r in tuner.rank(list(reports), metric="edp")]
    for factor in (0.001, 0.5, 3.7, 1000.0):
        scaled = [r._replace(
            total_joules=None if r.total_joules is None else r.total_joules * factor,
            edp_joule_seconds=None if r.edp_joule_seconds is None
            else r.total_seconds * r.total_joules * factor) for r in reports]
        assert [r.config for r in tuner.rank(scaled, metric="edp")] == baseline

    # batch splitting conserves samples
    for n_gpus in (1, 2, 4, 8):
        for batch in (n_gpus, 64, 256, 1024):
            if batch % n_gpus:
                continue
            assert split_batch(batch, n_gpus) * n_gpus == batch

    print(f"PASS criterion 7: batch linearity, {grid_cases} sliding-window "
          "oracle cases, ring bounds, rank scaling invariance, and batch "
          "split conservation all hold")


# ---------------------------------------------------------------------------
# 8. Memory feasibility of the large residual network
# ---------------------------------------------------------------------------

def test_criterion_8_memory_feasibility():
    pascal = PROFILES["pascal"]
    big = tuner.memory_feasible(SHAPED["resnet_im"], 256, pascal)
    small = tuner.memory_feasible(SHAPED["resnet_im"], 128, pascal)
    assert not big.feasible
    assert small.feasible
    print("PASS criterion 8: the large residual net overflows the 12 GB "
          f"device at batch 256 ({big.estimate_bytes / 2 ** 30:.1f} GiB) "
          f"and fits at batch 128 ({small.estimate_bytes / 2 ** 30:.1f} GiB)")


# ---------------------------------------------------------------------------
# 9. Batch-size recommendations from the bundled accuracy tables
# ---------------------------------------------------------------------------

def test_criterion_9_recommendations():
    small = tuner.recommend("small", "residual", tuner.bundled_accuracy("tumgaid"))
    assert small.batch == 64
    assert small.qualifying_batches == (64,)
    large = tuner.recommend("large", "residual", tuner.bundled_accuracy("imagenet"))
    assert large.batch == 256
    assert large.qualifying_batches == (256,)
    print("PASS criterion 9: accuracy-aware recommendations pick batch 64 "
          "for the small residual case and 256 for the large one")
