"""Device profiles, measurement records, linear calibration, efficiency.

The package bundles per-batch forward/backward time and energy measurements
for four networks on two GPU generations (plus the mixed 4-GPU testbed),
together with the device capability table and per-(network, batch) training
plans. This module loads those tables, derives throughput and whole-training
totals from them, fits affine-in-batch predictors per configuration group,
and computes GFLOPS-per-watt and cross-generation deltas.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cache

from ._tables import data_text, read_csv, read_key_values
from .costmodel import CostSummary
from .errors import (
    DataFormatError,
    InsufficientDataError,
    KeyMismatchError,
    MismatchedRecordsError,
)

STEPS = ("forward", "backward")
QUANTITIES = ("seconds", "joules")


# ---------------------------------------------------------------------------
# Device profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviceProfile:
    """Capability summary of one GPU model."""

    name: str
    generation: str
    cores: int
    core_freq_mhz: float
    peak_tflops: float
    dram_bytes: int
    bandwidth_bytes_per_s: float
    tdp_watts: float

    def __post_init__(self):
        for field in ("cores", "core_freq_mhz", "peak_tflops", "dram_bytes",
                      "bandwidth_bytes_per_s", "tdp_watts"):
            if not 0 < getattr(self, field) < math.inf:
                raise ValueError(f"DeviceProfile.{field} must be positive and finite")


_PROFILE_FIELDS = {
    "name": str,
    "generation": str,
    "cores": int,
    "core_freq_mhz": float,
    "peak_tflops": float,
    "dram_bytes": int,
    "bandwidth_bytes_per_s": float,
    "tdp_watts": float,
}


def parse_device_profile(text: str) -> DeviceProfile:
    """Parse a key=value device profile file.

    Raises:
        DataFormatError: unknown/missing keys or non-numeric values.
    """
    values: dict[str, object] = {}
    for lineno, key, val in read_key_values(text):
        if key not in _PROFILE_FIELDS:
            raise DataFormatError(f"line {lineno}: unknown profile key {key!r}")
        try:
            values[key] = _PROFILE_FIELDS[key](val)
        except ValueError:
            raise DataFormatError(f"line {lineno}: bad value for {key}: {val!r}") from None
    missing = set(_PROFILE_FIELDS) - set(values)
    if missing:
        raise DataFormatError(f"profile missing keys: {sorted(missing)}")
    try:
        return DeviceProfile(**values)  # type: ignore[arg-type]
    except ValueError as exc:
        raise DataFormatError(str(exc)) from None


def bundled_devices() -> dict[str, DeviceProfile]:
    """Both bundled device profiles by name, read once per process; each call
    returns a new dict."""
    return dict(_bundled_devices())


@cache
def _bundled_devices() -> dict[str, DeviceProfile]:
    return {name: parse_device_profile(data_text(f"devices/{name}.profile"))
            for name in ("pascal", "maxwell")}


# ---------------------------------------------------------------------------
# Measurement records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasurementRecord:
    """Per-batch time and energy of one (device, network, step, gpus, batch).

    ``joules_per_batch`` is energy drawn by one measured GPU of this device
    kind; whole-set energy multiplies by the device counts (see multigpu).
    """

    device: str
    network: str
    step: str
    gpus: int
    batch: int
    seconds_per_batch: float
    joules_per_batch: float

    def __post_init__(self):
        if self.step not in STEPS:
            raise ValueError(f"step must be one of {STEPS}, got {self.step!r}")
        if self.gpus < 1 or self.batch < 1:
            raise ValueError("gpus and batch must be >= 1")
        if not (0 < self.seconds_per_batch < math.inf and 0 < self.joules_per_batch < math.inf):
            raise ValueError("seconds_per_batch and joules_per_batch must be finite and > 0")

    @property
    def key(self) -> tuple[str, str, str, int, int]:
        return (self.device, self.network, self.step, self.gpus, self.batch)


def parse_measurements(text: str) -> list[MeasurementRecord]:
    """Parse measurement CSV (header ``device,network,step,gpus,batch,
    seconds_per_batch,joules_per_batch``)."""
    return read_csv(
        text, "measurement",
        "device,network,step,gpus,batch,seconds_per_batch,joules_per_batch",
        lambda device, network, step, gpus, batch, seconds, joules: MeasurementRecord(
            device, network, step, int(gpus), int(batch), float(seconds), float(joules)),
    )


def load_measurements(path) -> list[MeasurementRecord]:
    with open(path, encoding="utf-8") as fh:
        return parse_measurements(fh.read())


def bundled_measurements() -> list[MeasurementRecord]:
    """All bundled per-batch records (two devices, both steps, 1/2/4 GPUs),
    read once per process; each call returns a new list."""
    return list(_bundled_measurements())


@cache
def _bundled_measurements() -> tuple[MeasurementRecord, ...]:
    return tuple(parse_measurements(data_text("measurements.csv")))


def records_by_key(records) -> dict[tuple, MeasurementRecord]:
    """Index records by (device, network, step, gpus, batch); duplicates are
    an error since they would make lookups ambiguous."""
    index: dict[tuple, MeasurementRecord] = {}
    for rec in records:
        if rec.key in index:
            raise DataFormatError(f"duplicate measurement for {rec.key}")
        index[rec.key] = rec
    return index


# ---------------------------------------------------------------------------
# Training plans and derived columns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainingPlan:
    """How long one training run is: iterations at a batch size."""

    network: str
    batch: int
    iterations: int
    epochs: int

    def __post_init__(self):
        if self.batch < 1 or self.iterations < 1 or self.epochs < 1:
            raise ValueError("batch, iterations and epochs must be >= 1")


def bundled_plans() -> dict[tuple[str, int], TrainingPlan]:
    """Bundled (network, batch) -> TrainingPlan table, read once per process;
    each call returns a new dict."""
    return dict(_bundled_plans())


@cache
def _bundled_plans() -> dict[tuple[str, int], TrainingPlan]:
    return _parse_plans(data_text("iterations.csv"))


def _parse_plans(text: str) -> dict[tuple[str, int], TrainingPlan]:
    """(network, batch) -> TrainingPlan from the iterations CSV; a later row
    for the same pair replaces an earlier one."""
    plans = read_csv(
        text, "iterations", "network,batch,iterations,epochs",
        lambda network, batch, iterations, epochs: TrainingPlan(
            network, int(batch), int(iterations), int(epochs)),
    )
    return {(plan.network, plan.batch): plan for plan in plans}


def iterations_for(dataset_samples: int, batch: int, epochs: int) -> int:
    """Iterations to run: epochs x ceil(dataset_samples / batch)."""
    if dataset_samples < 1 or batch < 1 or epochs < 1:
        raise ValueError("dataset_samples, batch and epochs must be >= 1")
    return epochs * math.ceil(dataset_samples / batch)


def samples_per_second(batch: int, seconds_per_batch: float) -> float:
    if seconds_per_batch <= 0:
        raise ValueError("seconds_per_batch must be > 0")
    return batch / seconds_per_batch


def whole_training(per_batch_value: float, plan: TrainingPlan) -> float:
    """Total over a training run: per-batch value x iterations."""
    return per_batch_value * plan.iterations


# ---------------------------------------------------------------------------
# Affine-in-batch calibration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibratedModel:
    """value = slope * batch + intercept for one configuration group."""

    device: str
    network: str
    step: str
    gpus: int
    quantity: str  # "seconds" or "joules"
    slope: float
    intercept: float
    r_squared: float
    residuals: tuple[float, ...]
    batch_min: int
    batch_max: int
    n_points: int

    @property
    def key(self) -> tuple[str, str, str, int, str]:
        return (self.device, self.network, self.step, self.gpus, self.quantity)


@dataclass(frozen=True)
class SkippedGroup:
    device: str
    network: str
    step: str
    gpus: int
    quantity: str
    reason: str


@dataclass(frozen=True)
class Prediction:
    value: float
    extrapolation_warning: bool


def _fit_affine(batches, values) -> tuple[float, float, float, tuple[float, ...]]:
    import numpy as np  # only fitting needs numpy; keep it off the import path

    x = np.asarray(batches, dtype=float)
    y = np.asarray(values, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    residuals = y - fitted
    ss_res = float(np.sum(residuals ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r_squared, tuple(float(r) for r in residuals)


def calibrate(records, gpu_counts=(1, 2), quantities=QUANTITIES
              ) -> tuple[list[CalibratedModel], list[SkippedGroup]]:
    """Least-squares affine fits per (device, network, step, gpus) group.

    Only groups whose gpus value is in ``gpu_counts`` are fitted — the
    default (1, 2) leaves out the 4-GPU rows, which mix device generations
    and synchronization stalls. Groups with fewer than two distinct batch
    sizes are skipped with a diagnostic rather than raised.
    """
    groups: dict[tuple, list[MeasurementRecord]] = {}
    for rec in records:
        if rec.gpus in gpu_counts:
            groups.setdefault((rec.device, rec.network, rec.step, rec.gpus), []).append(rec)
    models: list[CalibratedModel] = []
    skipped: list[SkippedGroup] = []
    for (device, network, step, gpus), recs in sorted(groups.items()):
        recs = sorted(recs, key=lambda r: r.batch)
        batches = [r.batch for r in recs]
        for quantity in quantities:
            if len(set(batches)) < 2:
                skipped.append(SkippedGroup(
                    device, network, step, gpus, quantity,
                    f"only {len(set(batches))} distinct batch size(s)",
                ))
                continue
            values = [r.seconds_per_batch if quantity == "seconds" else r.joules_per_batch
                      for r in recs]
            slope, intercept, r2, residuals = _fit_affine(batches, values)
            models.append(CalibratedModel(
                device, network, step, gpus, quantity, slope, intercept, r2,
                residuals, min(batches), max(batches), len(batches),
            ))
    return models, skipped


def predict(model: CalibratedModel, batch: int) -> Prediction:
    """Evaluate a calibrated model (clamped at 0), flagging extrapolation
    outside [batch_min/2, 2*batch_max]."""
    if batch < 1:
        raise ValueError("batch must be >= 1")
    value = max(0.0, model.slope * batch + model.intercept)
    warn = not (model.batch_min / 2 <= batch <= 2 * model.batch_max)
    return Prediction(value, warn)


def find_model(models, device: str, network: str, step: str, gpus: int,
               quantity: str) -> CalibratedModel:
    """Locate one fitted group.

    Raises:
        InsufficientDataError: no model covers that group.
    """
    for m in models:
        if m.key == (device, network, step, gpus, quantity):
            return m
    raise InsufficientDataError(
        f"no calibrated model for ({device}, {network}, {step}, {gpus}, {quantity})"
    )


def save_models(models, path) -> None:
    payload = {"models": [m.__dict__ for m in models]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


_JSON_KINDS = {"str": str, "int": int, "float": float, "tuple[float, ...]": list}
_MODEL_FIELDS = {f.name: _JSON_KINDS[f.type] for f in fields(CalibratedModel)}


def _json_fits(kind, value) -> bool:
    """Whether a JSON value can stand for a ``kind`` field of CalibratedModel;
    a number must be finite, and JSON booleans are not numbers here."""
    if isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    if kind is list:
        return isinstance(value, list) and all(_json_fits(float, v) for v in value)
    return isinstance(value, kind)


def load_models(path) -> list[CalibratedModel]:
    """Read models written by :func:`save_models`.

    Raises:
        DataFormatError: the JSON is not ``{"models": [...]}``, or a model
            has a missing, unknown or mistyped key (non-finite numbers
            included); the message names the file and the key.
    """
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    entries = payload.get("models") if isinstance(payload, dict) else None
    if not isinstance(entries, list):
        raise DataFormatError(f"{path}: expected an object with a 'models' list")
    models = []
    for i, entry in enumerate(entries):
        where = f"{path}: models[{i}]"
        if not isinstance(entry, dict):
            raise DataFormatError(f"{where}: expected an object")
        for key in entry:
            if key not in _MODEL_FIELDS:
                raise DataFormatError(f"{where}: unknown key {key!r}")
        for key, kind in _MODEL_FIELDS.items():
            if key not in entry:
                raise DataFormatError(f"{where}: missing key {key!r}")
            if not _json_fits(kind, entry[key]):
                raise DataFormatError(f"{where}: bad value for {key!r}: {entry[key]!r}")
        models.append(CalibratedModel(**{**entry, "residuals": tuple(entry["residuals"])}))
    return models


# ---------------------------------------------------------------------------
# Efficiency and cross-generation comparison
# ---------------------------------------------------------------------------

def gflops_per_watt(summary: CostSummary, fwd: MeasurementRecord,
                    bwd: MeasurementRecord) -> float:
    """GFLOPS per watt of one forward+backward batch.

    The backward pass is charged the forward operation count (2x total) and
    one macc counts as one FLOP. Record joules are per measured GPU, so the
    denominator scales by the GPU count to cover the whole set:
    2 * ops_per_sample * batch / (joules * gpus) / 1e9.

    Raises:
        MismatchedRecordsError: records are not the fwd/bwd pair of one
            configuration.
    """
    if fwd.step != "forward" or bwd.step != "backward":
        raise MismatchedRecordsError("pass (forward, backward) records in that order")
    if (fwd.device, fwd.network, fwd.gpus, fwd.batch) != \
            (bwd.device, bwd.network, bwd.gpus, bwd.batch):
        raise MismatchedRecordsError(
            f"records describe different configurations: {fwd.key} vs {bwd.key}"
        )
    flops = 2.0 * summary.total_ops * fwd.batch
    joules = (fwd.joules_per_batch + bwd.joules_per_batch) * fwd.gpus
    return flops / joules / 1e9


@dataclass(frozen=True)
class GenerationGap:
    """Relative time/energy delta between two devices for one configuration."""

    network: str
    step: str
    gpus: int
    batch: int
    seconds_pct: float
    joules_pct: float


def generation_gap(a_records, b_records) -> list[GenerationGap]:
    """Per-configuration deltas (b - a) / b * 100 for seconds and joules.

    Positive values mean device A is faster / draws less energy than device
    B on that configuration. Keys are (network, step, gpus, batch); only the
    intersection is compared.

    Raises:
        KeyMismatchError: the record sets share no keys.
    """
    def index(records):
        return {(r.network, r.step, r.gpus, r.batch): r for r in records}

    a_idx, b_idx = index(a_records), index(b_records)
    common = sorted(set(a_idx) & set(b_idx))
    if not common:
        raise KeyMismatchError("record sets share no (network, step, gpus, batch) keys")
    gaps = []
    for key in common:
        a, b = a_idx[key], b_idx[key]
        gaps.append(GenerationGap(
            network=key[0], step=key[1], gpus=key[2], batch=key[3],
            seconds_pct=(b.seconds_per_batch - a.seconds_per_batch) / b.seconds_per_batch * 100.0,
            joules_pct=(b.joules_per_batch - a.joules_per_batch) / b.joules_per_batch * 100.0,
        ))
    return gaps
