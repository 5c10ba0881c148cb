"""Data-parallel training across homogeneous or mixed GPU sets.

Each step splits the batch evenly, computes on every GPU, then sums
gradients with a ring all-reduce. The step is gated by the slowest device
(synchronous data parallelism); exchanged bytes default to the network's
parameter volume. How much of the exchange hides behind compute is an
overlap factor: by default fully hidden for compute-bound networks and half
exposed below a compute-to-traffic ratio of 15, both configurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._tables import read_key_values
from .errors import DataFormatError, IndivisibleBatchError, MissingDeviceError

#: PCIe 3.0 x16 effective payload bandwidth, bytes/second.
DEFAULT_LINK_BANDWIDTH = 15.75e9
#: Per-hop latency of one ring package exchange, seconds.
DEFAULT_LINK_LATENCY = 5e-6
#: CTC (ops per element read) below which gradient exchange is assumed to
#: be only partially hidden behind compute.
DEFAULT_CTC_OVERLAP_THRESHOLD = 15.0
#: Overlap factor used below the CTC threshold.
LOW_CTC_OVERLAP = 0.5


@dataclass(frozen=True)
class GpuSet:
    """A set of GPUs training one model: (device name, count) members plus
    the link they exchange gradients over."""

    members: tuple[tuple[str, int], ...]
    link_bandwidth: float = DEFAULT_LINK_BANDWIDTH
    link_latency: float = DEFAULT_LINK_LATENCY

    def __post_init__(self):
        object.__setattr__(self, "members", tuple((str(n), int(c)) for n, c in self.members))
        if any(count < 0 for _, count in self.members):
            raise ValueError("member counts must be >= 0")
        names = [name for name, _ in self.members]
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"members: device {name!r} is listed more than once")
        if self.total_gpus < 1:
            raise ValueError("a GpuSet needs at least one GPU")
        if not 0 < self.link_bandwidth < math.inf:
            raise ValueError("link_bandwidth must be finite and > 0")
        if not 0 <= self.link_latency < math.inf:
            raise ValueError("link_latency must be finite and >= 0")

    @classmethod
    def homogeneous(cls, device: str, count: int, **link) -> "GpuSet":
        return cls(members=((device, count),), **link)

    @property
    def total_gpus(self) -> int:
        return sum(count for _, count in self.members)

    @property
    def device_names(self) -> tuple[str, ...]:
        return tuple(name for name, count in self.members if count > 0)


def parse_gpu_set(text: str) -> GpuSet:
    """Parse a key=value GPU-set file.

    Keys: ``members=<device>:<count>[,<device>:<count>...]`` (required),
    ``link_bandwidth`` (bytes/s), ``link_latency`` (s).
    """
    members = None
    link: dict[str, float] = {}
    for lineno, key, val in read_key_values(text):
        if key == "members":
            members = []
            for part in val.split(","):
                if ":" not in part:
                    raise DataFormatError(
                        f"line {lineno}: member must be <device>:<count>, got {part!r}"
                    )
                name, _, count = part.partition(":")
                try:
                    members.append((name.strip(), int(count)))
                except ValueError:
                    raise DataFormatError(f"line {lineno}: bad count in {part!r}") from None
        elif key in ("link_bandwidth", "link_latency"):
            try:
                link[key] = float(val)
            except ValueError:
                raise DataFormatError(f"line {lineno}: bad value for {key}: {val!r}") from None
        else:
            raise DataFormatError(f"line {lineno}: unknown key {key!r}")
    if members is None:
        raise DataFormatError("GPU-set file needs a members= line")
    try:
        return GpuSet(members=tuple(members), **link)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from None


def emit_gpu_set(gpu_set: GpuSet) -> str:
    members = ",".join(f"{name}:{count}" for name, count in gpu_set.members)
    return (f"members={members}\n"
            f"link_bandwidth={gpu_set.link_bandwidth:.10g}\n"
            f"link_latency={gpu_set.link_latency:.10g}\n")


@dataclass(frozen=True)
class StepEstimate:
    """One training step across a GPU set."""

    compute_times: tuple[tuple[str, float], ...]
    comm_time: float
    step_time: float
    energy_joules: float


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


def ring_allreduce_time(gradient_bytes: float, n_gpus: int,
                        gpu_set: GpuSet | None = None) -> float:
    """Seconds to all-reduce ``gradient_bytes`` around a ring of ``n_gpus``.

    0 for a single GPU; otherwise 2(n-1)/n * bytes/bandwidth plus
    2(n-1) * per-hop latency (reduce-scatter then all-gather, each n-1 hops).
    Link parameters come from ``gpu_set`` (defaults when None).
    """
    if gradient_bytes < 0:
        raise ValueError("gradient_bytes must be >= 0")
    if n_gpus < 1:
        raise ValueError("n_gpus must be >= 1")
    if n_gpus == 1:
        return 0.0
    bandwidth = gpu_set.link_bandwidth if gpu_set is not None else DEFAULT_LINK_BANDWIDTH
    latency = gpu_set.link_latency if gpu_set is not None else DEFAULT_LINK_LATENCY
    return 2.0 * (n_gpus - 1) / n_gpus * gradient_bytes / bandwidth \
        + 2.0 * (n_gpus - 1) * latency


def gradient_bytes(shaped, element_bytes: int = 4) -> int:
    """Bytes exchanged per step: the network's parameter volume."""
    return shaped.weight_elems * element_bytes


def resolve_overlap(overlap: float | None = None, ctc: float | None = None,
                    threshold: float = DEFAULT_CTC_OVERLAP_THRESHOLD) -> float:
    """Overlap factor to use: explicit value, else 1.0 (fully hidden) for
    CTC >= threshold and 0.5 below it; 1.0 when no CTC is known."""
    if overlap is not None:
        if not 0.0 <= overlap <= 1.0:
            raise ValueError("overlap must be within [0, 1]")
        return overlap
    if ctc is not None and ctc < threshold:
        return LOW_CTC_OVERLAP
    return 1.0


def hetero_step_time(compute_times, comm_time: float = 0.0, *,
                     overlap: float | None = None, ctc: float | None = None,
                     energy_joules: float = 0.0) -> StepEstimate:
    """Step time of a synchronized set: slowest device plus exposed comm.

    ``compute_times`` maps device name -> seconds (any mapping or pair
    iterable). step = max(compute) + (1 - overlap) * comm_time, with the
    overlap factor resolved per :func:`resolve_overlap`.
    """
    pairs = tuple(compute_times.items()) if hasattr(compute_times, "items") \
        else tuple(compute_times)
    if not pairs:
        raise ValueError("at least one compute time is required")
    if comm_time < 0:
        raise ValueError("comm_time must be >= 0")
    omega = resolve_overlap(overlap, ctc)
    step = max(t for _, t in pairs) + (1.0 - omega) * comm_time
    return StepEstimate(pairs, comm_time, step, energy_joules)


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
