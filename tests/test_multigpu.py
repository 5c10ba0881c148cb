"""GPU sets, batch splitting, ring all-reduce, and set-level step costs."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnnergy.arch import builtin_network, infer_shapes
from cnnergy.errors import (
    DataFormatError,
    IndivisibleBatchError,
    MissingDeviceError,
)
from cnnergy.multigpu import (
    DEFAULT_CTC_OVERLAP_THRESHOLD,
    DEFAULT_LINK_BANDWIDTH,
    DEFAULT_LINK_LATENCY,
    GpuSet,
    LOW_CTC_OVERLAP,
    emit_gpu_set,
    gradient_bytes,
    hetero_step_time,
    parse_gpu_set,
    resolve_overlap,
    ring_allreduce_time,
    set_energy,
    split_batch,
)


# ---------------------------------------------------------------------------
# GpuSet
# ---------------------------------------------------------------------------

def test_gpu_set_basics():
    mixed = GpuSet((("pascal", 2), ("maxwell", 2)))
    assert mixed.total_gpus == 4
    assert mixed.device_names == ("pascal", "maxwell")
    assert mixed.link_bandwidth == DEFAULT_LINK_BANDWIDTH
    assert mixed.link_latency == DEFAULT_LINK_LATENCY


def test_gpu_set_homogeneous():
    solo = GpuSet.homogeneous("pascal", 1)
    assert solo.members == (("pascal", 1),)
    assert solo.total_gpus == 1


def test_gpu_set_skips_zero_count_members():
    s = GpuSet((("pascal", 2), ("maxwell", 0)))
    assert s.total_gpus == 2
    assert s.device_names == ("pascal",)


def test_gpu_set_validation():
    with pytest.raises(ValueError):
        GpuSet((("pascal", -1),))
    with pytest.raises(ValueError):
        GpuSet((("pascal", 0),))  # total must be >= 1
    with pytest.raises(ValueError):
        GpuSet((("pascal", 1),), link_bandwidth=0.0)
    with pytest.raises(ValueError):
        GpuSet((("pascal", 1),), link_latency=-1e-6)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="link_bandwidth"):
            GpuSet((("pascal", 1),), link_bandwidth=bad)
        with pytest.raises(ValueError, match="link_latency"):
            GpuSet((("pascal", 1),), link_latency=bad)
    with pytest.raises(ValueError, match="members: device 'pascal'"):
        GpuSet((("pascal", 2), ("maxwell", 1), ("pascal", 0)))


def test_parse_emit_gpu_set_round_trip():
    text = "members=pascal:2,maxwell:2\nlink_bandwidth=1.575e10\nlink_latency=5e-06\n"
    s = parse_gpu_set(text)
    assert s.members == (("pascal", 2), ("maxwell", 2))
    assert s.link_bandwidth == pytest.approx(1.575e10)
    assert parse_gpu_set(emit_gpu_set(s)) == s


def test_parse_gpu_set_defaults_link_parameters():
    s = parse_gpu_set("members=pascal:1")
    assert s.link_bandwidth == DEFAULT_LINK_BANDWIDTH
    assert s.link_latency == DEFAULT_LINK_LATENCY


@pytest.mark.parametrize("text", [
    "",                                 # no members
    "members=pascal",                   # missing count
    "members=pascal:two",               # non-integer count
    "members=pascal:1\nbandwidth=1e9",  # unknown field
    "link_bandwidth=1e9",               # members missing entirely
])
def test_parse_gpu_set_rejects_malformed(text):
    with pytest.raises(DataFormatError):
        parse_gpu_set(text)


@pytest.mark.parametrize("text, key", [
    ("members=pascal:1\nlink_bandwidth=nan", "link_bandwidth"),
    ("members=pascal:1\nlink_bandwidth=inf", "link_bandwidth"),
    ("members=pascal:1\nlink_latency=nan", "link_latency"),
    ("members=pascal:1\nlink_latency=inf", "link_latency"),
    ("members=pascal:2,pascal:2", "members"),
    ("members=pascal:2,maxwell:2,pascal:1", "members"),
])
def test_parse_gpu_set_rejects_non_finite_links_and_duplicate_members(text, key):
    with pytest.raises(DataFormatError, match=f"^{key}"):
        parse_gpu_set(text)


# ---------------------------------------------------------------------------
# Batch splitting
# ---------------------------------------------------------------------------

def test_split_batch():
    assert split_batch(256, 4) == 64
    assert split_batch(64, 1) == 64
    with pytest.raises(IndivisibleBatchError):
        split_batch(100, 3)
    with pytest.raises(ValueError):
        split_batch(100, 0)


@given(sub=st.integers(min_value=1, max_value=1024),
       n=st.integers(min_value=1, max_value=16))
@settings(max_examples=100, deadline=None)
def test_split_batch_conserves_samples(sub, n):
    batch = sub * n
    assert split_batch(batch, n) * n == batch


# ---------------------------------------------------------------------------
# Ring all-reduce
# ---------------------------------------------------------------------------

def test_ring_time_zero_for_single_gpu():
    assert ring_allreduce_time(1e9, 1) == 0.0


def test_ring_time_two_gpus_exact():
    expected = 2 * (1 / 2) * 1e9 / DEFAULT_LINK_BANDWIDTH + 2 * DEFAULT_LINK_LATENCY
    assert ring_allreduce_time(1e9, 2) == pytest.approx(expected, rel=1e-12)


def test_ring_time_uses_gpu_set_link_parameters():
    s = GpuSet((("pascal", 4),), link_bandwidth=1e9, link_latency=1e-3)
    expected = 2 * (3 / 4) * 4e8 / 1e9 + 2 * 3 * 1e-3
    assert ring_allreduce_time(4e8, 4, s) == pytest.approx(expected, rel=1e-12)


def test_ring_time_validation():
    with pytest.raises(ValueError):
        ring_allreduce_time(-1.0, 2)
    with pytest.raises(ValueError):
        ring_allreduce_time(1.0, 0)


@given(nbytes=st.floats(min_value=0, max_value=1e12),
       n=st.integers(min_value=2, max_value=64))
@settings(max_examples=100, deadline=None)
def test_ring_time_bounded_by_full_transfer(nbytes, n):
    t = ring_allreduce_time(nbytes, n)
    assert t <= 2 * nbytes / DEFAULT_LINK_BANDWIDTH + 2 * (n - 1) * DEFAULT_LINK_LATENCY
    assert t > 0


def test_gradient_bytes_resnet_im():
    shaped = infer_shapes(builtin_network("resnet_im"))
    assert gradient_bytes(shaped) == 12_010_688 * 4
    assert gradient_bytes(shaped, element_bytes=2) == 12_010_688 * 2


# ---------------------------------------------------------------------------
# Overlap and heterogeneous step time
# ---------------------------------------------------------------------------

def test_resolve_overlap_rules():
    assert resolve_overlap(overlap=0.7) == 0.7
    assert resolve_overlap(ctc=DEFAULT_CTC_OVERLAP_THRESHOLD) == 1.0
    assert resolve_overlap(ctc=DEFAULT_CTC_OVERLAP_THRESHOLD - 0.01) == LOW_CTC_OVERLAP
    assert resolve_overlap() == 1.0
    with pytest.raises(ValueError):
        resolve_overlap(overlap=1.5)


def test_hetero_step_time_gated_by_slowest():
    est = hetero_step_time({"pascal": 0.10, "maxwell": 0.16})
    assert est.step_time == pytest.approx(0.16)
    assert est.comm_time == 0.0


def test_hetero_step_time_exposes_unhidden_comm():
    est = hetero_step_time({"a": 0.1}, comm_time=0.04, overlap=0.5)
    assert est.step_time == pytest.approx(0.1 + 0.02)
    # low compute-to-traffic ratio leaves half the communication exposed
    est = hetero_step_time({"a": 0.1}, comm_time=0.04, ctc=10.0)
    assert est.step_time == pytest.approx(0.1 + 0.02)
    # high ratio hides it completely
    est = hetero_step_time({"a": 0.1}, comm_time=0.04, ctc=40.0)
    assert est.step_time == pytest.approx(0.1)


def test_hetero_step_time_accepts_pairs_and_validates():
    est = hetero_step_time([("a", 0.2), ("b", 0.1)], energy_joules=7.0)
    assert est.step_time == pytest.approx(0.2)
    assert est.energy_joules == 7.0
    with pytest.raises(ValueError):
        hetero_step_time({})
    with pytest.raises(ValueError):
        hetero_step_time({"a": 0.1}, comm_time=-1.0)


# ---------------------------------------------------------------------------
# Set energy
# ---------------------------------------------------------------------------

def test_set_energy_weighted_sum():
    s = GpuSet((("pascal", 2), ("maxwell", 2)))
    total = set_energy({"pascal": 4.322, "maxwell": 6.350}, s)
    assert total == pytest.approx(2 * 4.322 + 2 * 6.350)


def test_set_energy_homogeneous_scales_by_count():
    assert set_energy({"pascal": 4.322}, GpuSet.homogeneous("pascal", 3)) == pytest.approx(
        3 * 4.322)


def test_set_energy_missing_device():
    s = GpuSet((("pascal", 2), ("maxwell", 2)))
    with pytest.raises(MissingDeviceError):
        set_energy({"pascal": 4.0}, s)


def test_set_energy_ignores_zero_count_members():
    s = GpuSet((("pascal", 1), ("maxwell", 0)))
    assert set_energy({"pascal": 3.0}, s) == pytest.approx(3.0)
