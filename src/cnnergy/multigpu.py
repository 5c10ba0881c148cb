"""Data-parallel training across homogeneous or mixed GPU sets.

Each step splits the batch evenly across the set's GPUs; whole-set energy
is the count-weighted sum of the per-device joules. The ring all-reduce
cost of exchanging gradients over a PCIe link is given in closed form.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from ._tables import Checked
from .errors import IndivisibleBatchError, MissingDeviceError

#: PCIe 3.0 x16 effective payload bandwidth, bytes/second.
DEFAULT_LINK_BANDWIDTH = 15.75e9
#: Per-hop latency of one ring package exchange, seconds.
DEFAULT_LINK_LATENCY = 5e-6


class GpuSet(Checked, NamedTuple("GpuSet", [("members", tuple[tuple[str, int], ...])])):
    """A set of GPUs training one model: (device name, count) members. It has
    a ``__dict__``, which holds its cached properties."""

    def __new__(cls, members):
        return super().__new__(cls, tuple((str(n), int(c)) for n, c in members))

    def _check(self):
        if any(count < 0 for _, count in self.members):
            raise ValueError("member counts must be >= 0")
        names = [name for name, _ in self.members]
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"members: device {name!r} is listed more than once")
        if self.total_gpus < 1:
            raise ValueError("a GpuSet needs at least one GPU")

    @classmethod
    def homogeneous(cls, device: str, count: int) -> "GpuSet":
        return cls(members=((device, count),))

    @cached_property
    def total_gpus(self) -> int:
        return sum(count for _, count in self.members)

    @cached_property
    def device_names(self) -> tuple[str, ...]:
        return tuple(name for name, count in self.members if count > 0)


def split_batch(batch: int, n_gpus: int) -> int:
    """Per-GPU sub-batch under even splitting.

    Raises:
        IndivisibleBatchError: n_gpus does not divide batch.
    """
    if n_gpus < 1:
        raise ValueError("n_gpus must be >= 1")
    if batch % n_gpus != 0:
        raise IndivisibleBatchError(f"batch {batch} not divisible by {n_gpus} GPUs")
    return batch // n_gpus


def ring_allreduce_time(nbytes: float, n_gpus: int) -> float:
    """Seconds to all-reduce ``nbytes`` of gradients around a ring of ``n_gpus``.

    0 for a single GPU; otherwise 2(n-1)/n * bytes/bandwidth plus
    2(n-1) * per-hop latency (reduce-scatter then all-gather, each n-1 hops),
    over a link of :data:`DEFAULT_LINK_BANDWIDTH` and
    :data:`DEFAULT_LINK_LATENCY`.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    if n_gpus < 1:
        raise ValueError("n_gpus must be >= 1")
    if n_gpus == 1:
        return 0.0
    return 2.0 * (n_gpus - 1) / n_gpus * nbytes / DEFAULT_LINK_BANDWIDTH \
        + 2.0 * (n_gpus - 1) * DEFAULT_LINK_LATENCY


def set_energy(per_device_joules, gpu_set: GpuSet) -> float:
    """Whole-set joules per batch: sum of count x per-device joules.

    Raises:
        MissingDeviceError: a member with count > 0 has no joules value.
    """
    total = 0.0
    for name, count in gpu_set.members:
        if count == 0:
            continue
        if name not in per_device_joules:
            raise MissingDeviceError(f"no joules value for device {name!r}")
        total += count * per_device_joules[name]
    return total
