"""Device profiles, measurement records, linear calibration, efficiency.

The package bundles per-batch forward/backward time and energy measurements
for four networks on two GPU generations (plus the mixed 4-GPU testbed),
together with each device's memory size and per-(network, batch) training
plans. This module loads those tables, fits affine-in-batch predictors per
configuration group, and computes GFLOPS-per-watt and cross-generation
deltas; whole-training totals are :func:`cnnergy.tuner.score`'s.
"""

from __future__ import annotations

import math
from functools import cache
from operator import attrgetter, itemgetter
from typing import NamedTuple

from ._tables import QUANTITIES, STEPS, check_cell, checked, data_text, read_csv, read_file
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
        if type(self.gpus) is not int or type(self.batch) is not int:  # a bool is no int
            raise ValueError(f"gpus and batch must be ints, got {self.gpus!r} and {self.batch!r}")
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

@checked
class CalibratedModel(NamedTuple):
    """value = slope * batch + intercept for one configuration group, fitted
    to ``n_points`` records, one residual each, over batches ``batch_min`` to
    ``batch_max``."""

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

    def _check(self):
        """Refuse as ``bad value for '<field>': ...`` the first field, in field
        order, not of its exact type (a bool is no int, an int no float) or
        breaking its rule, which reads no later field. Written without loops,
        as calibrate builds one model per fit."""
        (device, network, step, gpus, quantity, slope, intercept, r_squared, residuals,
         batch_min, batch_max, n_points) = self
        if type(device) is not str:
            raise ValueError(f"bad value for 'device': {device!r}")
        try:  # predict prints both names as CSV cells
            check_cell("device", device)
        except ValueError as exc:
            raise ValueError(f"bad value for 'device': {exc}") from None
        if type(network) is not str:
            raise ValueError(f"bad value for 'network': {network!r}")
        try:
            check_cell("network", network)
        except ValueError as exc:
            raise ValueError(f"bad value for 'network': {exc}") from None
        if step not in STEPS:
            raise ValueError(f"bad value for 'step': {step!r}")
        if type(gpus) is not int or gpus < 1:
            raise ValueError(f"bad value for 'gpus': {gpus!r}")
        if quantity not in QUANTITIES:
            raise ValueError(f"bad value for 'quantity': {quantity!r}")
        if type(slope) is not float or not math.isfinite(slope):
            raise ValueError(f"bad value for 'slope': {slope!r}")
        if type(intercept) is not float or not math.isfinite(intercept):
            raise ValueError(f"bad value for 'intercept': {intercept!r}")
        if type(r_squared) is not float or not -math.inf < r_squared <= 1.0:
            raise ValueError(f"bad value for 'r_squared': {r_squared!r}")
        if type(residuals) is not tuple or len(residuals) < 2:
            raise ValueError(f"bad value for 'residuals': {residuals!r}")
        for value in residuals:
            if type(value) is not float or not math.isfinite(value):
                raise ValueError(f"bad value for 'residuals': {residuals!r}")
        if type(batch_min) is not int or batch_min < 1:
            raise ValueError(f"bad value for 'batch_min': {batch_min!r}")
        if type(batch_max) is not int or batch_max <= batch_min:
            raise ValueError(f"bad value for 'batch_max': {batch_max!r}")
        if type(n_points) is not int or n_points != len(residuals):
            raise ValueError(f"bad value for 'n_points': {n_points!r}")

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
            or a fit overflows, so that :class:`CalibratedModel` refuses its
            slope, intercept, R² or a residual as not finite; the message
            names the first such group.
    """
    _check_listed("gpu_counts", "gpus", gpu_counts)
    import numpy as np  # only fitting needs numpy; keep it off the import path

    batch = attrgetter("batch")
    groups: dict[tuple, list[MeasurementRecord]] = {}
    for rec in records:
        if rec.gpus in gpu_counts:
            groups.setdefault(rec[:4], []).append(rec)  # (device, network, step, gpus)
    skipped: list[SkippedGroup] = []
    fitted: list[tuple] = []  # (group, (batch_min, batch_max, n_points)) to fit, sorted
    by_batches: dict[tuple[int, ...], list] = {}  # batch vector -> [(group, records)]
    for group, recs in sorted(groups.items()):
        recs.sort(key=batch)
        batches = tuple(map(batch, recs))
        distinct = len(set(batches))
        if distinct < 2:
            skipped += [SkippedGroup(*group, quantity, f"only {distinct} distinct batch size(s)")
                        for quantity in QUANTITIES]
            continue
        fitted.append((group, (batches[0], batches[-1], len(batches))))
        by_batches.setdefault(batches, []).append((group, recs))

    series = [attrgetter(f"{quantity}_per_batch") for quantity in QUANTITIES]  # record fields
    fits: dict[tuple, tuple] = {}  # model key -> (slope, intercept, r_squared, residuals)
    calls = list(by_batches.items())
    for batches, members in calls:  # grows when a call is split below
        y = np.array([list(map(value, recs)) for _, recs in members for value in series],
                     dtype=float)
        # LAPACK's least-squares routine rescales every series of a call when
        # the largest value is extreme, which changes the last bits of each
        # series fitted with it; so such a call is split into one per group.
        if len(members) > 1 and not 1e-280 < y.min() <= y.max() < 1e280:
            calls += [(batches, [member]) for member in members]
            continue
        x = np.array(batches, dtype=float)
        with np.errstate(all="ignore"):  # CalibratedModel refuses an overflow below
            slope, intercept = np.polyfit(x, y.T, 1)
            residuals = y - (slope[:, None] * x + intercept[:, None])
            # .sum and a division give np.sum's and np.mean's bits at less cost per call
            ss_res = (residuals ** 2).sum(axis=1)
            ss_tot = ((y - y.sum(axis=1, keepdims=True) / len(batches)) ** 2).sum(axis=1)
            r_squared = np.where(ss_tot == 0.0, 1.0, 1.0 - ss_res / ss_tot)
        keys = [(*group, quantity) for group, _ in members for quantity in QUANTITIES]
        fits.update(zip(keys, zip(slope.tolist(), intercept.tolist(), r_squared.tolist(),
                                  map(tuple, residuals.tolist()))))
    models = []
    for group, span in fitted:
        for quantity in QUANTITIES:
            fit = fits[(*group, quantity)]
            try:
                models.append(CalibratedModel(*group, quantity, *fit, *span))
            except ValueError:
                raise DataFormatError(
                    f"the fit of {'/'.join(map(str, (*group, quantity)))} overflows: "
                    f"slope {fit[0]!r}, intercept {fit[1]!r}, r_squared {fit[2]!r}") from None
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


def _model_json(m: CalibratedModel) -> str:
    """One model as ``json.dumps(m._asdict(), indent=2, sort_keys=True)``
    writes it two levels deep; a model's numbers are exactly ints and floats,
    which ``repr`` writes as ``json`` does."""
    from json.encoder import encode_basestring_ascii  # rank, which saves nothing, loads no json

    residuals = ",\n        ".join(map(repr, m.residuals))
    return (f'    {{\n'
            f'      "batch_max": {m.batch_max!r},\n'
            f'      "batch_min": {m.batch_min!r},\n'
            f'      "device": {encode_basestring_ascii(m.device)},\n'
            f'      "gpus": {m.gpus!r},\n'
            f'      "intercept": {m.intercept!r},\n'
            f'      "n_points": {m.n_points!r},\n'
            f'      "network": {encode_basestring_ascii(m.network)},\n'
            f'      "quantity": "{m.quantity}",\n'
            f'      "r_squared": {m.r_squared!r},\n'
            f'      "residuals": [\n        {residuals}\n      ],\n'
            f'      "slope": {m.slope!r},\n'
            f'      "step": "{m.step}"\n'
            f'    }}')


def save_models(models, path) -> None:
    """Write ``{"models": [...]}`` JSON, indented by two spaces with sorted
    keys, one object per model with the :class:`CalibratedModel` fields."""
    entries = ",\n".join(map(_model_json, models))
    text = f'{{\n  "models": [\n{entries}\n  ]\n}}\n' if entries else '{\n  "models": []\n}\n'
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_models(path) -> list[CalibratedModel]:
    """Read models written by :func:`save_models`; integers in float fields
    are read as floats.

    Raises:
        DataFormatError: the file is not UTF-8 JSON, the JSON is not
            ``{"models": [...]}``, or a model has a missing or unknown key or
            a value that :class:`CalibratedModel` refuses; the message names
            the file, the model and the key.
    """
    return read_file(path, _parse_models)


_MODEL_KEYS = frozenset(CalibratedModel._fields)
_model_values = itemgetter(*CalibratedModel._fields)


def _parse_models(fh) -> list[CalibratedModel]:
    """The models of a JSON text stream, for :func:`load_models`."""
    import json

    try:
        payload = json.load(fh)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise DataFormatError(str(exc)) from None
    entries = payload.get("models") if isinstance(payload, dict) else None
    if not isinstance(entries, list):
        raise DataFormatError("expected an object with a 'models' list")
    models = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DataFormatError(f"models[{i}]: expected an object")
        if entry.keys() != _MODEL_KEYS:
            faults = [*(f"unknown key {key!r}" for key in entry if key not in _MODEL_KEYS),
                      *(f"missing key {key!r}" for key in CalibratedModel._fields
                        if key not in entry)]
            raise DataFormatError(f"models[{i}]: {faults[0]}")
        values = _model_values(entry)  # in field order: 5-7 the floats, 8 the residuals
        residuals = values[8]
        if type(residuals) is list:
            residuals = tuple(map(_json_float, residuals))
        try:
            models.append(CalibratedModel(*values[:5], *map(_json_float, values[5:8]),
                                          residuals, *values[9:]))
        except ValueError as exc:
            raise DataFormatError(f"models[{i}]: {exc}") from None
    return models


def _json_float(value):
    """A JSON integer as the float it stands for; any other value as it is."""
    try:
        return float(value) if type(value) is int else value
    except OverflowError:  # an integer beyond the float range, for the model to refuse
        return value


# ---------------------------------------------------------------------------
# Efficiency and cross-generation comparison
# ---------------------------------------------------------------------------

def gflops_per_watt(summary: costmodel.CostSummary, fwd: MeasurementRecord,
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
        DataFormatError: one record set holds two records of one key; the
            message names the set and the key.
        KeyMismatchError: the record sets share no keys.
    """
    def index(records, what):
        idx = {}
        for r in records:
            key = (r.network, r.step, r.gpus, r.batch)
            if key in idx:
                raise DataFormatError(f"{what}: duplicate measurement for {key}")
            idx[key] = r
        return idx

    a_idx, b_idx = index(a_records, "a_records"), index(b_records, "b_records")
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
