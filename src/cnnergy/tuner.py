"""Score, rank, and recommend training configurations.

A configuration is (network, batch, GPU set, training plan). Scoring checks
memory feasibility first, then builds whole-training seconds and joules from
per-batch measurements (or calibrated predictions) times the plan's
iteration count, and the energy-delay product (EDP = joules x seconds) from
those totals. Per-batch time across a set is gated by its slowest device;
per-batch energy is the count-weighted device sum. The update step is
excluded from totals by default (it is small next to forward+backward); an
optional percentage adjustment covers it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from ._tables import RANK_METRICS, checked, data_text, read_csv
from .arch import BUILTIN_NETWORK_NAMES, ShapedNetwork, _builtin_shapes, _check_builtin
from .energymodel import (
    DeviceProfile,
    MeasurementRecord,
    TrainingPlan,
    _check_listed,
    bundled_devices,
    bundled_measurements,
    bundled_plans,
    find_model,
    predict,
    records_by_key,
)
from .errors import (
    DataFormatError,
    InsufficientDataError,
    MissingDeviceError,
    NoDataForConfigError,
    NothingFeasibleError,
)
from .multigpu import GpuSet, set_energy, split_batch

#: Host-side fixed overhead reserved on each GPU (context, workspace), bytes.
DEFAULT_FIXED_OVERHEAD_BYTES = 2 ** 30

#: The mixed 4-GPU testbed the bundled 4-GPU measurements come from.
HETERO_TESTBED = GpuSet((("pascal", 2), ("maxwell", 2)))


def edp(total_seconds: float, total_joules: float) -> float:
    """Energy-delay product in joule-seconds (exact float product)."""
    if total_seconds < 0 or total_joules < 0:
        raise ValueError("totals must be >= 0")
    return total_joules * total_seconds


# ---------------------------------------------------------------------------
# Memory feasibility
# ---------------------------------------------------------------------------

class MemoryEstimate(NamedTuple):
    feasible: bool
    estimate_bytes: int
    dram_bytes: int

    @property
    def reason(self) -> str:
        """The estimate against the device's memory, in GiB."""
        gib = self.estimate_bytes / 2 ** 30
        cap = self.dram_bytes / 2 ** 30
        return (f"{gib:.2f} GiB needed of {cap:.2f} GiB" if self.feasible
                else f"needs {gib:.2f} GiB but device has {cap:.2f} GiB")


def memory_feasible(shaped: ShapedNetwork, batch: int, device: DeviceProfile,
                    element_bytes: int = 4) -> MemoryEstimate:
    """Estimate whether one GPU can hold a training step at ``batch``.

    estimate = element_bytes x (activations x batch x 2 + weights +
    gradients) + DEFAULT_FIXED_OVERHEAD_BYTES; activations are stored twice
    because forward tensors are retained for the backward pass.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    estimate = element_bytes * (shaped.activation_elems * batch * 2
                                + 2 * shaped.weight_elems) + DEFAULT_FIXED_OVERHEAD_BYTES
    return MemoryEstimate(estimate <= device.dram_bytes, estimate, device.dram_bytes)


# ---------------------------------------------------------------------------
# Configurations and reports
# ---------------------------------------------------------------------------

@checked
class TrainingConfig(NamedTuple):
    """One point of the tuning grid."""

    network: str
    batch: int
    gpu_set: GpuSet
    plan: TrainingPlan

    def _check(self):
        split_batch(self.batch, self.gpu_set.total_gpus)  # raises IndivisibleBatch
        if self.plan.network != self.network or self.plan.batch != self.batch:
            raise ValueError(
                f"plan {self.plan.network}@{self.plan.batch} does not match "
                f"config {self.network}@{self.batch}"
            )


class ConfigReport(NamedTuple):
    """Scored configuration. Totals are None when infeasible."""

    config: TrainingConfig
    feasible: bool
    reason: str = ""
    total_seconds: float | None = None
    total_joules: float | None = None
    edp_joule_seconds: float | None = None
    warnings: tuple[str, ...] = ()

    @property
    def edp_mj_ks(self) -> float | None:
        if self.edp_joule_seconds is None:
            return None
        return self.edp_joule_seconds / 1e9

    @property
    def kiloseconds(self) -> float | None:
        return None if self.total_seconds is None else self.total_seconds / 1e3

    @property
    def megajoules(self) -> float | None:
        return None if self.total_joules is None else self.total_joules / 1e6


def _per_batch_values(config: TrainingConfig, device: str, step: str,
                      records_index, models) -> tuple[float, float, list[str]]:
    """(seconds, joules) per batch for one member device, from records when
    available, else from calibrated models."""
    key = (device, config.network, step, config.gpu_set.total_gpus, config.batch)
    rec = records_index.get(key) if records_index else None
    if rec is not None:
        return rec.seconds_per_batch, rec.joules_per_batch, []
    if models is None:
        raise NoDataForConfigError(f"no measurement for {key} and no models supplied")
    out = []
    warnings = []
    for quantity in ("seconds", "joules"):
        try:
            model = find_model(models, device, config.network, step,
                               config.gpu_set.total_gpus, quantity)
        except InsufficientDataError:
            raise NoDataForConfigError(
                f"no measurement for {key} and no calibrated model either"
            ) from None
        pred = predict(model, config.batch)
        if pred.extrapolation_warning:
            warnings.append(
                f"{quantity} for {device}/{step} predicted outside the fitted "
                f"batch range [{model.batch_min}, {model.batch_max}]"
            )
        out.append(pred.value)
    return out[0], out[1], warnings


def score(config: TrainingConfig, records, profiles, shaped: ShapedNetwork | None = None,
          models=None, update_overhead_pct: float = 0.0) -> ConfigReport:
    """Score one configuration into a ConfigReport.

    ``records`` is a list or a (device, network, step, gpus, batch)-keyed
    dict of MeasurementRecord; ``profiles`` maps device name ->
    DeviceProfile. Feasibility is decided first (per-GPU sub-batch against
    each member device's memory); infeasible configs get no totals. Totals
    are per-batch values x plan iterations, where per-batch time is the
    slowest member's forward+backward and per-batch energy is the
    count-weighted member sum.

    ``shaped`` defaults to the built-in network named by the config.
    ``update_overhead_pct`` must be finite and > -100.

    Raises:
        NoDataForConfigError: neither records nor models cover the config.
        DataFormatError: ``update_overhead_pct`` is out of range, or a total
            overflows to a non-finite value.
    """
    if not -100.0 < update_overhead_pct < math.inf:
        raise DataFormatError("update_overhead_pct (--update-overhead-pct) must be finite "
                              f"and > -100, got {update_overhead_pct!r}")
    if records and not hasattr(records, "get"):
        records = records_by_key(records)
    if shaped is None:
        shaped = _builtin_shapes(config.network)
    sub_batch = split_batch(config.batch, config.gpu_set.total_gpus)
    for name in config.gpu_set.device_names:
        estimate = memory_feasible(shaped, sub_batch, profiles[name])
        if not estimate.feasible:
            return ConfigReport(config, feasible=False,
                                reason=f"{name}: {estimate.reason}")
    step_seconds = 0.0
    per_device_joules = {}
    warnings: list[str] = []
    for name in config.gpu_set.device_names:
        fwd_s, fwd_j, w1 = _per_batch_values(config, name, "forward", records, models)
        bwd_s, bwd_j, w2 = _per_batch_values(config, name, "backward", records, models)
        step_seconds = max(step_seconds, fwd_s + bwd_s)
        per_device_joules[name] = fwd_j + bwd_j
        warnings += w1 + w2
    batch_joules = set_energy(per_device_joules, config.gpu_set)
    factor = 1.0 + update_overhead_pct / 100.0
    total_seconds = step_seconds * factor * config.plan.iterations
    total_joules = batch_joules * factor * config.plan.iterations
    total_edp = edp(total_seconds, total_joules)
    for quantity, value in (("total seconds", total_seconds),
                            ("total joules", total_joules), ("EDP", total_edp)):
        if not math.isfinite(value):
            raise DataFormatError(f"{quantity} of {config.network} at batch "
                                  f"{config.batch} overflows ({value})")
    return ConfigReport(
        config, feasible=True, reason="fits device memory",
        total_seconds=total_seconds, total_joules=total_joules,
        edp_joule_seconds=total_edp, warnings=tuple(warnings),
    )


_METRIC_VALUE = {
    "time": lambda r: r.total_seconds,
    "energy": lambda r: r.total_joules,
    "edp": lambda r: r.edp_joule_seconds,
}


def rank(reports, metric: str = "edp") -> list[ConfigReport]:
    """Feasible reports sorted ascending by ``metric``.

    Ties break toward smaller batch, then fewer GPUs, then network name, so
    the order is deterministic regardless of input order. The reports
    themselves are left unchanged.

    Raises:
        NothingFeasibleError: no feasible scored report to rank.
    """
    if metric not in RANK_METRICS:
        raise ValueError(f"metric must be one of {RANK_METRICS}, got {metric!r}")
    value = _METRIC_VALUE[metric]
    feasible = [r for r in reports if r.feasible and value(r) is not None]
    if not feasible:
        raise NothingFeasibleError("no feasible configuration to rank")
    return sorted(feasible, key=lambda r: (
        value(r), r.config.batch, r.config.gpu_set.total_gpus, r.config.network,
    ))


# ---------------------------------------------------------------------------
# Accuracy records and recommendations
# ---------------------------------------------------------------------------

@checked
class AccuracyRecord(NamedTuple):
    network: str
    batch: int
    metric: str
    value: float

    def _check(self):
        if not 0.0 <= self.value <= 100.0:
            raise ValueError(f"accuracy must be in [0, 100], got {self.value}")


def parse_accuracy(text: str) -> list[AccuracyRecord]:
    """Parse accuracy CSV (header ``network,batch,metric,value``)."""
    return read_csv(
        text, "accuracy", "network,batch,metric,value",
        lambda network, batch, metric, value: AccuracyRecord(
            network, int(batch), metric, float(value)),
    )


def bundled_accuracy(dataset: str) -> list[AccuracyRecord]:
    """Bundled accuracy tables: dataset "tumgaid" or "imagenet"."""
    if dataset not in ("tumgaid", "imagenet"):
        raise ValueError('dataset must be "tumgaid" or "imagenet"')
    return parse_accuracy(data_text(f"accuracy_{dataset}.csv"))


#: (dataset_class, net_family) -> bundled network name.
FAMILY_NETWORKS = {
    ("small", "plain_conv"): "two_d_cnn",
    ("small", "residual"): "resnet_gait",
    ("large", "plain_conv"): "caffenet",
    ("large", "residual"): "resnet_im",
}

#: Headline accuracy metric per dataset class.
PRIMARY_METRIC = {"small": "weighted-average", "large": "top-1"}

MULTI_GPU_ADVISORY = ("sets larger than a GPU pair scale unevenly across "
                      "networks; validate them case by case before committing")


class Recommendation(NamedTuple):
    dataset_class: str
    net_family: str
    network: str
    batch: int
    qualifying_batches: tuple[int, ...]
    rationale: str


def recommend(dataset_class: str, net_family: str, accuracy,
              tolerance_pct: float = 5.0, reports=None,
              metric: str | None = None) -> Recommendation:
    """Suggest a batch size for a (dataset size, network family) pair.

    Batches within ``tolerance_pct`` percent of the best ``accuracy`` record
    qualify, and the first of them in :func:`rank`'s EDP order of ``reports``
    wins; with none feasible and scored there, the largest qualifier does.

    Raises:
        DataFormatError: ``accuracy`` holds no record for the pair's network
            and metric.
    """
    if dataset_class not in ("small", "large"):
        raise ValueError('dataset_class must be "small" or "large"')
    if net_family not in ("plain_conv", "residual"):
        raise ValueError('net_family must be "plain_conv" or "residual"')
    network = FAMILY_NETWORKS[(dataset_class, net_family)]
    metric = metric or PRIMARY_METRIC[dataset_class]

    by_batch: dict[int, float] = {}
    for rec in accuracy:
        if rec.network == network and rec.metric == metric:
            by_batch[rec.batch] = rec.value
    if not by_batch:
        raise DataFormatError(
            f"no accuracy records for network {network!r} with metric {metric!r}"
        )
    best = max(by_batch.values())
    floor = best * (1.0 - tolerance_pct / 100.0)
    qualifying = tuple(sorted(b for b, v in by_batch.items() if v >= floor))
    batch, why = qualifying[-1], "the largest of them saves the most time and energy"
    try:
        batch = rank([r for r in reports or () if r.config.network == network
                      and r.config.batch in qualifying], metric="edp")[0].config.batch
        why = f"batch {batch} has the lowest EDP among them"
    except NothingFeasibleError:
        pass
    return Recommendation(
        dataset_class, net_family, network, batch, qualifying,
        f"batches {list(qualifying)} sit within {tolerance_pct:g}% of the best "
        f"{metric} accuracy ({best:g}%); {why}; {MULTI_GPU_ADVISORY}",
    )


# ---------------------------------------------------------------------------
# Bundled grid helpers
# ---------------------------------------------------------------------------

def bundled_grid(device: str, plans, networks=None, batches=(64, 128, 256),
                 gpu_counts=(1, 2, 4)) -> list[TrainingConfig]:
    """The measurement grid for one device: homogeneous 1/2-GPU sets of
    ``device`` plus the mixed 4-GPU testbed, for every (network, batch)
    with a bundled plan.

    Raises:
        UnknownNetworkError: a name in ``networks`` is not a built-in network.
        DataFormatError: ``networks``, ``batches`` or ``gpu_counts`` repeats
            a value, or a batch or GPU count is below 1.
    """
    networks = tuple(networks) if networks else BUILTIN_NETWORK_NAMES
    for network in networks:
        _check_builtin(network)
    _check_listed("networks", "networks", networks, counts=False)
    _check_listed("batches", "batches", batches)
    _check_listed("gpu_counts", "gpus", gpu_counts)
    gpu_sets = [HETERO_TESTBED if n_gpus == 4 else GpuSet.homogeneous(device, n_gpus)
                for n_gpus in gpu_counts]
    configs = []
    for network in networks:
        for gpu_set in gpu_sets:
            for batch in batches:
                plan = plans.get((network, batch))
                if plan is None or batch % gpu_set.total_gpus != 0:
                    continue
                configs.append(TrainingConfig(network, batch, gpu_set, plan))
    return configs


def _score_grid(records, device, networks, batches, gpu_counts,
                update_overhead_pct) -> tuple[ConfigReport, ...]:
    """``score`` of every configuration of ``device``'s bundled grid against
    the list ``records``, indexed once, in grid order.

    Raises, in this order:
        DataFormatError: ``records`` holds two records of one key.
        MissingDeviceError: ``device`` is not a bundled device profile.
        UnknownNetworkError, DataFormatError: as :func:`bundled_grid`.
        NothingFeasibleError: the grid is empty.
        DataFormatError, NoDataForConfigError: as :func:`score`.
    """
    records = records_by_key(records)
    profiles = bundled_devices()
    if device not in profiles:
        raise MissingDeviceError(f"no bundled device profile named {device!r} "
                                 f"(have: {', '.join(sorted(profiles))})")
    configs = bundled_grid(device, bundled_plans(), networks, batches, gpu_counts)
    if not configs:
        raise NothingFeasibleError("the requested grid is empty")
    return tuple(score(c, records, profiles, update_overhead_pct=update_overhead_pct)
                 for c in configs)


@lru_cache(maxsize=16)
def _bundled_reports(device, networks, batches, gpu_counts,
                     update_overhead_pct) -> tuple[ConfigReport, ...]:
    """``_score_grid`` against the bundled records, kept per process.

    Every input is a bundled table that cannot change within a process, so
    each grid is scored once and each ranking metric re-orders the same
    immutable reports. Only a grid that is not kept yet reads the tables:
    the device and plan tables afresh, the records from
    ``bundled_measurements``. The key
    is the arguments, as the CLI parses them (tuples of ints, a float), and
    leaves out the metric. At most 16 grids are kept, the least recently
    used going first; a grid holds at most one report per bundled plan and
    GPU count. An error is raised again on every call, never kept.
    """
    return _score_grid(bundled_measurements(), device, networks, batches, gpu_counts,
                       update_overhead_pct)
