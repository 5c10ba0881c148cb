"""Device profiles, measurement records, linear calibration, efficiency.

The package bundles per-batch forward/backward time and energy measurements
for four networks on two GPU generations (plus the mixed 4-GPU testbed),
together with each device's memory size and per-(network, batch) training
plans. This module loads those tables, fits affine-in-batch predictors per
configuration group, and computes GFLOPS-per-watt and cross-generation
deltas; whole-training totals are :func:`cnnergy.tuner.score`'s.
"""

from __future__ import annotations

import json
import math
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, get_type_hints

from ._tables import QUANTITIES, STEPS, check_cell, checked, data_text, read_csv, read_file
from .costmodel import CostSummary
from .errors import (
    DataFormatError,
    InsufficientDataError,
    KeyMismatchError,
    MismatchedRecordsError,
)


# ---------------------------------------------------------------------------
# Device profiles
# ---------------------------------------------------------------------------

@checked
class DeviceProfile(NamedTuple):
    """One GPU model, as far as memory feasibility needs it."""

    name: str
    dram_bytes: int

    def _check(self):
        if not 0 < self.dram_bytes < math.inf:
            raise ValueError("DeviceProfile.dram_bytes must be positive and finite")


def bundled_devices() -> dict[str, DeviceProfile]:
    """Both bundled device profiles by name, read from the table on every
    call, so each call returns a new dict."""
    devices = read_csv(
        data_text("devices.csv"), "devices", "name,dram_bytes",
        lambda name, dram: DeviceProfile(name, int(dram)),
    )
    return {device.name: device for device in devices}


# ---------------------------------------------------------------------------
# Measurement records
# ---------------------------------------------------------------------------

@checked
class MeasurementRecord(NamedTuple):
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

    def _check(self):
        check_cell("device", self.device)
        check_cell("network", self.network)
        if self.step not in STEPS:
            raise ValueError(f"step must be one of {STEPS}, got {self.step!r}")
        if self.gpus < 1 or self.batch < 1:
            raise ValueError("gpus and batch must be >= 1")
        if not (0 < self.seconds_per_batch < math.inf and 0 < self.joules_per_batch < math.inf):
            raise ValueError("seconds_per_batch and joules_per_batch must be finite and > 0")

    @property
    def key(self) -> tuple[str, str, str, int, int]:
        return (self.device, self.network, self.step, self.gpus, self.batch)


def parse_measurements(source) -> list[MeasurementRecord]:
    """Parse measurement CSV (header ``device,network,step,gpus,batch,
    seconds_per_batch,joules_per_batch``) from text or a text stream."""
    return read_csv(
        source, "measurement",
        "device,network,step,gpus,batch,seconds_per_batch,joules_per_batch",
        lambda device, network, step, gpus, batch, seconds, joules: MeasurementRecord(
            device, network, step, int(gpus), int(batch), float(seconds), float(joules)),
    )


def load_measurements(path) -> list[MeasurementRecord]:
    """:func:`parse_measurements` of a file; its errors name the file."""
    return read_file(path, parse_measurements)


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

@checked
class TrainingPlan(NamedTuple):
    """How long one training run is: iterations at a batch size."""

    network: str
    batch: int
    iterations: int

    def _check(self):
        if self.batch < 1 or self.iterations < 1:
            raise ValueError("batch and iterations must be >= 1")


def bundled_plans() -> dict[tuple[str, int], TrainingPlan]:
    """Bundled (network, batch) -> TrainingPlan table, read from the table on
    every call, so each call returns a new dict."""
    return _parse_plans(data_text("iterations.csv"))


def _parse_plans(text: str) -> dict[tuple[str, int], TrainingPlan]:
    """(network, batch) -> TrainingPlan from the iterations CSV; a later row
    for the same pair replaces an earlier one."""
    plans = read_csv(
        text, "iterations", "network,batch,iterations",
        lambda network, batch, iterations: TrainingPlan(network, int(batch), int(iterations)),
    )
    return {(plan.network, plan.batch): plan for plan in plans}


# ---------------------------------------------------------------------------
# Affine-in-batch calibration
# ---------------------------------------------------------------------------

class CalibratedModel(NamedTuple):
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


class SkippedGroup(NamedTuple):
    device: str
    network: str
    step: str
    gpus: int
    quantity: str
    reason: str


class Prediction(NamedTuple):
    value: float
    extrapolation_warning: bool


def _check_listed(what: str, option: str, values, counts: bool = True) -> None:
    """Refuse a value that ``values`` lists twice or, for ``counts``, a count
    below 1, naming the parameter ``what`` and its CLI option ``--option``.

    Raises:
        DataFormatError: as above.
    """
    seen = set()
    for value in values:
        if counts and value < 1:
            raise DataFormatError(f"{what} (--{option}) must be >= 1, got {value}")
        if value in seen:
            raise DataFormatError(f"{what} (--{option}) lists {value!r} twice")
        seen.add(value)


def calibrate(records, gpu_counts=(1, 2)) -> tuple[list[CalibratedModel], list[SkippedGroup]]:
    """Least-squares affine fits per (device, network, step, gpus) group, one
    per quantity of :data:`QUANTITIES`.

    Only groups whose gpus value is in ``gpu_counts`` are fitted — the
    default (1, 2) leaves out the 4-GPU rows, which mix device generations
    and synchronization stalls. Groups with fewer than two distinct batch
    sizes are skipped with a diagnostic rather than raised. Groups that share
    a sorted batch vector are fitted together, in one polyfit call, unless a
    value is beyond 1e±280; then each of them is fitted alone.

    Raises:
        DataFormatError: ``gpu_counts`` repeats a count or holds one below 1,
            or a fit overflows, so its slope, intercept, R² or a residual is
            not finite; the message names the first such group.
    """
    _check_listed("gpu_counts", "gpus", gpu_counts)
    import numpy as np  # only fitting needs numpy; keep it off the import path

    groups: dict[tuple, list[MeasurementRecord]] = {}
    for rec in records:
        if rec.gpus in gpu_counts:
            groups.setdefault((rec.device, rec.network, rec.step, rec.gpus), []).append(rec)
    skipped: list[SkippedGroup] = []
    fitted: list[tuple] = []  # the groups to fit, sorted
    by_batches: dict[tuple[int, ...], list] = {}  # batch vector -> [(group, records)]
    for group, recs in sorted(groups.items()):
        recs.sort(key=lambda r: r.batch)
        batches = tuple(r.batch for r in recs)
        distinct = len(set(batches))
        if distinct < 2:
            skipped += [SkippedGroup(*group, quantity, f"only {distinct} distinct batch size(s)")
                        for quantity in QUANTITIES]
            continue
        fitted.append(group)
        by_batches.setdefault(batches, []).append((group, recs))

    fits: dict[tuple, CalibratedModel] = {}  # model key -> model
    overflowed = set()  # model keys
    calls = list(by_batches.items())
    for batches, members in calls:  # grows when a call is split below
        x = np.array(batches, dtype=float)
        keys = [(*group, quantity) for group, _ in members for quantity in QUANTITIES]
        series = [[r.seconds_per_batch if quantity == "seconds" else r.joules_per_batch
                   for r in recs] for _, recs in members for quantity in QUANTITIES]
        # LAPACK's least-squares routine rescales every series of a call when
        # the largest value is extreme, which changes the last bits of each
        # series fitted with it; so such a call is split into one per group.
        if len(members) > 1 and not (1e-280 < min(map(min, series), default=1.0)
                                     and max(map(max, series), default=1.0) < 1e280):
            calls += [(batches, [member]) for member in members]
            continue
        y = np.array(series, dtype=float).reshape(-1, len(batches))
        with np.errstate(all="ignore"):  # an overflow is raised below, naming its group
            slope, intercept = np.polyfit(x, y.T, 1)
            residuals = y - (slope[:, None] * x + intercept[:, None])
            ss_res = np.sum(residuals ** 2, axis=1)
            ss_tot = np.sum((y - y.mean(axis=1, keepdims=True)) ** 2, axis=1)
            r_squared = np.where(ss_tot == 0.0, 1.0, 1.0 - ss_res / ss_tot)
        finite = (np.isfinite(slope) & np.isfinite(intercept) & np.isfinite(r_squared)
                  & np.isfinite(residuals).all(axis=1))
        for key, *fit, ok in zip(keys, slope.tolist(), intercept.tolist(), r_squared.tolist(),
                                 map(tuple, residuals.tolist()), finite.tolist()):
            fits[key] = CalibratedModel(*key, *fit, batches[0], batches[-1], len(batches))
            if not ok:
                overflowed.add(key)
    models = [fits[(*group, quantity)] for group in fitted for quantity in QUANTITIES]
    if overflowed:
        m = next(m for m in models if m.key in overflowed)
        raise DataFormatError(
            f"the fit of {'/'.join(map(str, m.key))} overflows: slope {m.slope!r}, "
            f"intercept {m.intercept!r}, r_squared {m.r_squared!r}")
    return models, skipped


def predict(model: CalibratedModel, batch: int) -> Prediction:
    """Evaluate a calibrated model (clamped at 0), flagging extrapolation
    outside [batch_min/2, 2*batch_max].

    Raises:
        DataFormatError: the prediction overflows to a non-finite value.
    """
    if batch < 1:
        raise ValueError(f"batch (--batch) must be >= 1, got {batch}")
    value = model.slope * batch + model.intercept
    if not math.isfinite(value):
        raise DataFormatError(f"predicted {model.quantity} at batch {batch} overflows ({value})")
    value = max(0.0, value)
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


def _json_number(value) -> str:
    """A number as ``json`` writes it (``float.__repr__``/``int.__repr__``)."""
    return float.__repr__(value) if isinstance(value, float) else int.__repr__(value)


def _model_json(m: CalibratedModel) -> str:
    """One model as ``json.dumps(m._asdict(), indent=2, sort_keys=True)``
    writes it two levels deep."""
    for value in (m.slope, m.intercept, m.r_squared, *m.residuals):
        if not math.isfinite(value):
            raise ValueError(f"model {m.key}: cannot save the non-finite number {value!r}")
    try:  # load_models refuses what predict could not print as one CSV cell
        check_cell("device", m.device)
        check_cell("network", m.network)
    except ValueError as exc:
        raise ValueError(f"model {m.key}: {exc}") from None
    residuals = ("[\n        " + ",\n        ".join(map(_json_number, m.residuals)) + "\n      ]"
                 if m.residuals else "[]")
    return (f'    {{\n'
            f'      "batch_max": {_json_number(m.batch_max)},\n'
            f'      "batch_min": {_json_number(m.batch_min)},\n'
            f'      "device": {encode_basestring_ascii(m.device)},\n'
            f'      "gpus": {_json_number(m.gpus)},\n'
            f'      "intercept": {_json_number(m.intercept)},\n'
            f'      "n_points": {_json_number(m.n_points)},\n'
            f'      "network": {encode_basestring_ascii(m.network)},\n'
            f'      "quantity": {encode_basestring_ascii(m.quantity)},\n'
            f'      "r_squared": {_json_number(m.r_squared)},\n'
            f'      "residuals": {residuals},\n'
            f'      "slope": {_json_number(m.slope)},\n'
            f'      "step": {encode_basestring_ascii(m.step)}\n'
            f'    }}')


def save_models(models, path) -> None:
    """Write ``{"models": [...]}`` JSON, indented by two spaces with sorted
    keys, one object per model with the :class:`CalibratedModel` fields.

    Raises:
        ValueError: a model holds a non-finite number, or a device or
            network name that is not one CSV cell (see
            :func:`~._tables.check_cell`); the message names the model's
            key. Nothing is written then.
    """
    entries = ",\n".join(map(_model_json, models))
    text = f'{{\n  "models": [\n{entries}\n  ]\n}}\n' if entries else '{\n  "models": []\n}\n'
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


_JSON_KINDS = {str: str, int: int, float: float, tuple[float, ...]: list}
_MODEL_FIELDS = {name: _JSON_KINDS[kind] for name, kind in get_type_hints(CalibratedModel).items()}
_MODEL_KINDS = tuple(_MODEL_FIELDS.values())
_FLOAT_FIELDS = [key for key, kind in _MODEL_FIELDS.items() if kind is float]


def _json_fits(kind, value) -> bool:
    """Whether a JSON value can stand for a ``kind`` field of CalibratedModel;
    a number must be finite as a float, and JSON booleans are not numbers here."""
    if isinstance(value, bool):
        return False
    if kind is float:
        try:
            return isinstance(value, (int, float)) and math.isfinite(float(value))
        except OverflowError:  # an integer beyond the float range
            return False
    if kind is list:
        return isinstance(value, list) and all(_json_fits(float, v) for v in value)
    return isinstance(value, kind)


def _as_written(entry) -> bool:
    """Whether a model entry is as :func:`save_models` writes it: exactly the
    fields, each of its JSON type (floats as floats), every number finite."""
    return (type(entry) is dict and entry.keys() == _MODEL_FIELDS.keys()
            and tuple(map(type, map(entry.__getitem__, _MODEL_FIELDS))) == _MODEL_KINDS
            and all(type(v) is float for v in entry["residuals"])
            and all(map(math.isfinite, (entry["slope"], entry["intercept"],
                                        entry["r_squared"], *entry["residuals"]))))


def _check_entry(where: str, entry) -> None:
    """Raise naming the first missing, unknown or mistyped key of an entry
    that is not as :func:`save_models` writes it; return if it is still a
    model (a finite integer in a float field, say)."""
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


def load_models(path) -> list[CalibratedModel]:
    """Read models written by :func:`save_models`.

    Raises:
        DataFormatError: the file is not UTF-8 JSON, the JSON is not
            ``{"models": [...]}``, or a model has a missing, unknown or
            mistyped key (non-finite numbers included) or a device or network
            name that is not one CSV cell (see :func:`~._tables.check_cell`);
            the message names the file and the key. Integers in float fields
            are read as floats.
    """
    return read_file(path, _parse_models)


def _parse_models(fh) -> list[CalibratedModel]:
    """The models of a JSON text stream, for :func:`load_models`."""
    try:
        payload = json.load(fh)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise DataFormatError(str(exc)) from None
    entries = payload.get("models") if isinstance(payload, dict) else None
    if not isinstance(entries, list):
        raise DataFormatError("expected an object with a 'models' list")
    models = []
    for i, entry in enumerate(entries):
        if not _as_written(entry):
            _check_entry(f"models[{i}]", entry)
            entry = {**entry, **{key: float(entry[key]) for key in _FLOAT_FIELDS},
                     "residuals": list(map(float, entry["residuals"]))}
        for key in ("device", "network"):  # predict prints both as CSV cells
            try:
                check_cell(key, entry[key])
            except ValueError as exc:
                raise DataFormatError(f"models[{i}]: bad value for {key!r}: {exc}") from None
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


class GenerationGap(NamedTuple):
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
