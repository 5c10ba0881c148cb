"""GPU sets, batch splitting, ring all-reduce time, and set energy."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnnergy.errors import IndivisibleBatchError, MissingDeviceError
from cnnergy.multigpu import (
    DEFAULT_LINK_BANDWIDTH,
    DEFAULT_LINK_LATENCY,
    GpuSet,
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
    with pytest.raises(ValueError, match="members: device 'pascal'"):
        GpuSet((("pascal", 2), ("pascal", 2)))
    with pytest.raises(ValueError, match="members: device 'pascal'"):
        GpuSet((("pascal", 2), ("maxwell", 1), ("pascal", 0)))


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
