"""Independent oracles the tests compare the package against.

Everything here is deliberately written the slow, obvious way — explicit
sliding-window enumeration, textbook closed forms and one line loop per
table format — so a bug in the package's vectorized/algebraic versions or
its shared table reader cannot hide in a shared implementation.
"""
import json
import math
from collections import namedtuple

from cnnergy import arch, energymodel, tuner
from cnnergy.arch import LayerSpec
from cnnergy.costmodel import LayerCost
from cnnergy.energymodel import QUANTITIES, CalibratedModel, MeasurementRecord, SkippedGroup
from cnnergy.errors import DataFormatError, MissingDeviceError, NothingFeasibleError


def slide_positions(size: int, kernel: int, stride: int, padding: int) -> int:
    """Count kernel placements by actually sliding the window: start at
    -padding and advance by stride while the window stays inside the
    padded extent."""
    count = 0
    pos = -padding
    while pos + kernel <= size + padding:
        count += 1
        pos += stride
    return count


def conv_macc_per_placement(w, h, ci, co, kw, kh, stride, padding, groups=1):
    """Placements x (kernel area x in-group channels x filters)."""
    n_x = slide_positions(w, kw, stride, padding)
    n_y = slide_positions(h, kh, stride, padding)
    return n_x * n_y * kw * kh * (ci // groups) * co


def conv_macc_by_enumeration(w, h, ci, co, kw, kh, stride, padding, groups=1):
    """One multiply-accumulate per explicit six-deep loop iteration.
    Only usable for tiny dimensions."""
    total = 0
    for _x in range(slide_positions(w, kw, stride, padding)):
        for _y in range(slide_positions(h, kh, stride, padding)):
            for _f in range(co):
                for _c in range(ci // groups):
                    for _ky in range(kh):
                        for _kx in range(kw):
                            total += 1
    return total


def pool_ops_per_placement(w, h, ch, kw, kh, stride, padding):
    """Placements x kernel area, once per channel."""
    n_x = slide_positions(w, kw, stride, padding)
    n_y = slide_positions(h, kh, stride, padding)
    return n_x * n_y * kw * kh * ch


def check_shapes_reference(layer, inp, out):
    """The per-layer shape check ``layer_cost`` used to make when it was
    handed a separate output: ``out`` must be what ``layer`` makes of ``inp``
    (an error of ``layer_output`` propagates)."""
    expected = arch.layer_output(layer, inp)
    assert out == expected, (
        f"layer {layer.name!r} ({layer.kind}): output {out} inconsistent with "
        f"input {inp}; expected {expected}")


def layer_cost_reference(layer, inp, out) -> LayerCost:
    """One layer's cost row from its spec, input and output, checked first
    by :func:`check_shapes_reference`: the form ``layer_cost`` had when it
    took the three separately."""
    check_shapes_reference(layer, inp, out)
    kind = layer.kind
    macc = max_ops = add_div = exp_add_div = mul01 = bias_add = 0
    if kind == "conv":
        window = layer.kernel_w * layer.kernel_h * out.width * out.height
        macc = window * (inp.channels // layer.groups) * out.channels
        if layer.has_bias:
            bias_add = out.channels
    elif kind == "fully_connected":
        macc = inp.elements * layer.units
    elif kind == "pool":
        window = layer.kernel_w * layer.kernel_h * out.width * out.height * inp.channels
        if layer.pool_kind == "average":
            add_div = window
        else:
            max_ops = window
    elif kind == "relu":
        max_ops = out.elements
    elif kind == "dropout":
        mul01 = out.elements
    elif kind == "batch_norm":
        add_div = 2 * out.elements
    elif kind == "softmax":
        exp_add_div = 3 * out.elements
    elif kind == "residual_sum":
        add_div = out.elements
    else:
        add_div = layer.kernel_w * layer.kernel_h * out.width * out.height * out.channels
    read_mult, write_mult = {"batch_norm": (2, 2), "softmax": (3, 3),
                             "residual_sum": (2, 1)}.get(kind, (1, 1))
    return LayerCost(layer.name, kind, macc, max_ops, add_div, exp_add_div, mul01, bias_add,
                     inp.elements * read_mult + arch.layer_weight_elems(layer, inp),
                     out.elements * write_mult)


def affine_fit_closed_form(xs, ys):
    """Least-squares line via the mean-centered textbook formulas."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, my - slope * mx


def trapezoid_segment_energy(w_start, w_end, duration):
    """Exact integral of a linearly varying power segment."""
    return 0.5 * (w_start + w_end) * duration


# ---------------------------------------------------------------------------
# Power traces: the straightforward per-line, per-region, per-sample versions
# ---------------------------------------------------------------------------

def parse_trace_rows_reference(text):
    """Trace CSV read line by line with ``float()``.

    Returns ``(labels, times, watts)`` for ``PowerTrace.build``; raises
    ``ChannelCountMismatchError``/``TraceFormatError`` naming the first bad
    line by its number in the file, blank lines included.
    """
    from cnnergy.errors import ChannelCountMismatchError, TraceFormatError

    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise TraceFormatError("empty trace file")
    header = [c.strip() for c in lines[0][1].split(",")]
    if len(header) < 2 or header[0] != "t_s" or not all(c.endswith("_w") for c in header[1:]):
        raise TraceFormatError(f"trace header must be t_s,<label>_w,...; got {lines[0][1]!r}")
    labels = tuple(c[:-2] for c in header[1:])
    n_cols = len(header)
    times, watts = [], []
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != n_cols:
            raise ChannelCountMismatchError(
                f"line {lineno}: expected {n_cols} columns, got {len(cells)}"
            )
        try:
            row = [float(c) for c in cells]
        except ValueError:
            raise TraceFormatError(f"line {lineno}: non-numeric cell in {line!r}") from None
        times.append(row[0])
        watts.append(row[1:])
    return labels, times, watts


def trace_csv_reference(trace):
    """Trace CSV written one f-string per cell."""
    out = [("t_s," + ",".join(f"{l}_w" for l in trace.channel_labels) + "\n")]
    for i in range(trace.n_samples):
        row = ",".join(f"{w:.6g}" for w in trace.watts[i])
        out.append(f"{trace.times[i]:.9g},{row}\n")
    return "".join(out)


def trapezoid_region_reference(times, watts, lo, hi):
    """Joules per channel over [lo, hi] (inside the trace span): the samples
    strictly inside plus both ends interpolated, summed segment by segment."""
    import numpy as np

    inner = (times > lo) & (times < hi)
    grid = np.concatenate(([lo], times[inner], [hi]))
    joules = []
    for ch in range(watts.shape[1]):
        w = np.interp(grid, times, watts[:, ch])
        joules.append(float(np.sum(np.diff(grid) * (w[1:] + w[:-1]) / 2.0)))
    return joules


def cumulative_energy_reference(t, w):
    """integrate_many's cumulative trapezoid as it stood before it was built
    in one array: one expression, then a cumsum into a zeroed array."""
    import numpy as np

    cumulative = np.zeros_like(w)
    np.cumsum(np.diff(t)[:, None] * (w[1:] + w[:-1]) / 2.0, axis=0, out=cumulative[1:])
    return cumulative


def noisy_watts_reference(per_channel, channels, noise_sigma, seed):
    """generate_synthetic_trace's noise step as it stood before it worked in
    place: the (n, 1) level repeated per channel, the noise added to it, then
    clamped at 0."""
    import numpy as np

    watts = np.repeat(per_channel, channels, axis=1)
    rng = np.random.default_rng(seed)
    return np.clip(watts + rng.normal(0.0, noise_sigma, watts.shape), 0.0, None)


def synthetic_samples_reference(segments, sample_rate):
    """Sample times and total watts of a piecewise profile, one sample per
    loop step: a junction sample per segment start at the midpoint of the
    levels on either side, interior samples at
    k/sample_rate while short of the segment end by more than 1e-12 s, and
    the final level at the end."""
    dt = 1.0 / sample_rate
    times, totals = [], []
    t0 = 0.0
    for i, seg in enumerate(segments):
        prev_end = segments[i - 1].final_watts if i > 0 else seg.start_watts
        times.append(t0)
        total = prev_end + seg.start_watts  # halved after the sum, unless it overflows
        totals.append(total / 2.0 if math.isfinite(total) else prev_end / 2.0 + seg.start_watts / 2.0)
        k = 1
        while k * dt < seg.duration_s - 1e-12:
            times.append(t0 + k * dt)
            totals.append(seg.value_at(k * dt))
            k += 1
        t0 += seg.duration_s
    times.append(t0)
    totals.append(segments[-1].final_watts)
    return times, totals


# ---------------------------------------------------------------------------
# Table parsers: each one as it stood before the shared table reader, one
# hand-written line loop per file format
# ---------------------------------------------------------------------------

_MEASUREMENT_HEADER = "device,network,step,gpus,batch,seconds_per_batch,joules_per_batch"


def parse_measurements_reference(text):
    """Parse measurement CSV (header ``device,network,step,gpus,batch,
    seconds_per_batch,joules_per_batch``)."""
    from cnnergy.energymodel import MeasurementRecord
    from cnnergy.errors import DataFormatError

    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or [c.strip() for c in lines[0][1].split(",")] != _MEASUREMENT_HEADER.split(","):
        raise DataFormatError(f"measurement header must be {_MEASUREMENT_HEADER}")
    records = []
    for lineno, line in lines[1:]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 7:
            raise DataFormatError(f"line {lineno}: expected 7 columns, got {len(cells)}")
        try:
            records.append(MeasurementRecord(
                cells[0], cells[1], cells[2], int(cells[3]), int(cells[4]),
                float(cells[5]), float(cells[6]),
            ))
        except ValueError as exc:
            raise DataFormatError(f"line {lineno}: {exc}") from None
    return records


_ACCURACY_HEADER = "network,batch,metric,value"


def parse_accuracy_reference(text):
    from cnnergy.errors import DataFormatError
    from cnnergy.tuner import AccuracyRecord

    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or [c.strip() for c in lines[0][1].split(",")] != _ACCURACY_HEADER.split(","):
        raise DataFormatError(f"accuracy header must be {_ACCURACY_HEADER}")
    records = []
    for lineno, line in lines[1:]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 4:
            raise DataFormatError(f"line {lineno}: expected 4 columns, got {len(cells)}")
        try:
            records.append(AccuracyRecord(cells[0], int(cells[1]), cells[2], float(cells[3])))
        except ValueError as exc:
            raise DataFormatError(f"line {lineno}: {exc}") from None
    return records


def parse_regions_reference(source):
    """Parse region CSV (header ``id,label,t_start_s,t_end_s``)."""
    from cnnergy.errors import TraceFormatError
    from cnnergy.powertrace import Region

    text = source.read() if hasattr(source, "read") else source
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or [c.strip() for c in lines[0][1].split(",")] != ["id", "label", "t_start_s", "t_end_s"]:
        raise TraceFormatError("region header must be id,label,t_start_s,t_end_s")
    regions = []
    for lineno, line in lines[1:]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 4:
            raise TraceFormatError(f"line {lineno}: expected 4 columns, got {len(cells)}")
        try:
            regions.append(Region(cells[0], cells[1], float(cells[2]), float(cells[3])))
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from None
    return regions


def parse_plans_reference(text):
    """The bundled iterations table, read from ``text``. A malformed row
    raises a bare ``ValueError`` here (or ``IndexError`` on empty text)."""
    from cnnergy.energymodel import TrainingPlan
    from cnnergy.errors import DataFormatError

    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines[0].strip() != "network,batch,iterations":
        raise DataFormatError("iterations header must be network,batch,iterations")
    plans = {}
    for line in lines[1:]:
        net, batch, iters = (c.strip() for c in line.split(","))
        plan = TrainingPlan(net, int(batch), int(iters))
        plans[(plan.network, plan.batch)] = plan
    return plans


# ---------------------------------------------------------------------------
# Calibration and the model file: calibrate with one polyfit call per group,
# the model file written by json.dumps(indent=2) and read by a per-key walk.
# The bodies are the package's as they stood before the array pass.
# ---------------------------------------------------------------------------

def fit_affine_reference(batches, series) -> list[tuple[float, float, float, tuple[float, ...]]]:
    """(slope, intercept, R², residuals) of a least-squares line through each
    value list in ``series`` against ``batches``, all in one polyfit call."""
    import numpy as np  # only fitting needs numpy; keep it off the import path

    x = np.asarray(batches, dtype=float)
    ys = np.asarray(series, dtype=float).reshape(-1, len(x))
    fits = []
    for (slope, intercept), y in zip(np.polyfit(x, ys.T, 1).T, ys):
        residuals = y - (slope * x + intercept)
        ss_res = float(np.sum(residuals ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
        fits.append((float(slope), float(intercept), r_squared, tuple(map(float, residuals))))
    return fits


class OverflowedFit(namedtuple("OverflowedFit", CalibratedModel._fields)):
    """The fields of a fit with a number that is not finite, which a
    CalibratedModel refuses to hold."""

    __slots__ = ()
    key = CalibratedModel.key


def calibrate_reference(records, gpu_counts=(1, 2), quantities=QUANTITIES
                        ) -> tuple[list[CalibratedModel], list[SkippedGroup]]:
    """Least-squares affine fits per (device, network, step, gpus) group.

    Only groups whose gpus value is in ``gpu_counts`` are fitted — the
    default (1, 2) leaves out the 4-GPU rows, which mix device generations
    and synchronization stalls. Groups with fewer than two distinct batch
    sizes are skipped with a diagnostic rather than raised. A fit whose
    slope, intercept, R² or a residual is not finite is an
    :class:`OverflowedFit` in the list.
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
        distinct = len(set(batches))
        if distinct < 2:
            skipped += [SkippedGroup(device, network, step, gpus, quantity,
                                     f"only {distinct} distinct batch size(s)")
                        for quantity in quantities]
            continue
        series = [[r.seconds_per_batch if quantity == "seconds" else r.joules_per_batch
                   for r in recs] for quantity in quantities]
        for quantity, fit in zip(quantities, fit_affine_reference(batches, series)):
            finite = all(map(math.isfinite, (*fit[:3], *fit[3])))
            models.append((CalibratedModel if finite else OverflowedFit)(
                device, network, step, gpus, quantity, *fit,
                min(batches), max(batches), len(batches)))
    return models, skipped


def save_models_reference(models, path) -> None:
    payload = {"models": [m._asdict() for m in models]}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_as_float(value):
    """A JSON integer as its float, unless it is beyond the float range; any
    other value as it is."""
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            return value
    return value


def _finite_float(value) -> bool:
    return type(value) is float and math.isfinite(value)


def _model_fault(m: dict):
    """``(key, why)`` for the first field of a model entry, in field order,
    whose value breaks its rule; None if every value holds."""
    for key in ("device", "network"):
        if type(m[key]) is not str:
            return key, repr(m[key])
        if any(c in m[key] for c in ',"\r\n'):
            return key, (f"{key} must be without commas, double quotes or line breaks, "
                         f"got {m[key]!r}")
    rules = {
        "step": lambda: m["step"] in ("forward", "backward"),
        "gpus": lambda: type(m["gpus"]) is int and m["gpus"] >= 1,
        "quantity": lambda: m["quantity"] in ("seconds", "joules"),
        "slope": lambda: _finite_float(m["slope"]),
        "intercept": lambda: _finite_float(m["intercept"]),
        "r_squared": lambda: _finite_float(m["r_squared"]) and m["r_squared"] <= 1,
        "residuals": lambda: (type(m["residuals"]) is tuple and len(m["residuals"]) >= 2
                              and all(map(_finite_float, m["residuals"]))),
        "batch_min": lambda: type(m["batch_min"]) is int and m["batch_min"] >= 1,
        "batch_max": lambda: type(m["batch_max"]) is int and m["batch_max"] > m["batch_min"],
        "n_points": lambda: type(m["n_points"]) is int and m["n_points"] == len(m["residuals"]),
    }
    for key, holds in rules.items():  # each rule runs once the fields before it hold
        if not holds():
            return key, repr(m[key])
    return None


def load_models_reference(path) -> list[CalibratedModel]:
    """Read models written by :func:`save_models`, key by key.

    Raises:
        DataFormatError: the file is not UTF-8 JSON, the JSON is not
            ``{"models": [...]}``, or a model has an unknown key (the first
            in the entry), a missing key (the first in field order), or a
            value that breaks its field's rule (the first in field order):
            a device or network name is a string without a comma, a double
            quote or a line break; step and quantity are in their sets;
            gpus and batch_min are integers >= 1 and batch_max an integer
            above batch_min; slope, intercept and r_squared are finite
            floats, r_squared at most 1; residuals are two or more finite
            floats, and n_points is their count. Booleans are not numbers
            here. Integers in float fields are read as floats first.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise DataFormatError(f"{path}: {exc}") from None
    entries = payload.get("models") if isinstance(payload, dict) else None
    if not isinstance(entries, list):
        raise DataFormatError(f"{path}: expected an object with a 'models' list")
    fields = CalibratedModel._fields
    models = []
    for i, entry in enumerate(entries):
        where = f"{path}: models[{i}]"
        if not isinstance(entry, dict):
            raise DataFormatError(f"{where}: expected an object")
        for key in entry:
            if key not in fields:
                raise DataFormatError(f"{where}: unknown key {key!r}")
        for key in fields:
            if key not in entry:
                raise DataFormatError(f"{where}: missing key {key!r}")
        model = {**entry, **{key: _read_as_float(entry[key])
                             for key in ("slope", "intercept", "r_squared")}}
        if isinstance(model["residuals"], list):
            model["residuals"] = tuple(map(_read_as_float, model["residuals"]))
        fault = _model_fault(model)
        if fault:
            raise DataFormatError(f"{where}: bad value for {fault[0]!r}: {fault[1]}")
        models.append(CalibratedModel(**model))
    return models


# ---------------------------------------------------------------------------
# Layer kinds: LayerSpec's checks and emit_network as they stood before the
# one table of kinds, a hand-written per-kind cascade each
# ---------------------------------------------------------------------------

REFERENCE_LAYER_KINDS = frozenset({"conv", "fully_connected", "pool", "relu", "dropout", "batch_norm",
                          "softmax", "residual_sum", "local_response_norm"})
_KERNEL_KINDS = frozenset({"conv", "pool", "local_response_norm"})
_EMIT_KIND = {"conv": "conv", "fully_connected": "fc", "pool": "pool", "relu": "relu",
              "dropout": "dropout", "batch_norm": "batch_norm", "softmax": "softmax",
              "residual_sum": "sum", "local_response_norm": "lrn"}


def check_layer_reference(name, kind, kernel_w=None, kernel_h=None, stride=1, padding=0,
                          out_channels=None, units=None, groups=1, has_bias=False,
                          pool_kind=None, skip=None):
    """Raise as ``LayerSpec(...)`` used to for these fields, or return None.
    A None stride, padding or groups raised TypeError from a comparison."""
    if not name:
        raise ValueError("layer name must be non-empty")
    if kind not in REFERENCE_LAYER_KINDS:
        raise ValueError(f"unknown layer kind {kind!r}")
    if kind in _KERNEL_KINDS:
        if kernel_w is None or kernel_h is None:
            raise ValueError(f"{kind} layer {name!r} needs a kernel size")
        if kernel_w < 1 or kernel_h < 1:
            raise ValueError(f"kernel of layer {name!r} must be >= 1")
    elif kernel_w is not None or kernel_h is not None:
        raise ValueError(f"{kind} layer {name!r} must not have a kernel")
    if stride < 1:
        raise ValueError(f"stride of layer {name!r} must be >= 1")
    if padding < 0:
        raise ValueError(f"padding of layer {name!r} must be >= 0")
    if (stride, padding) != (1, 0) and kind not in ("conv", "pool"):
        raise ValueError(f"stride and pad only apply to conv and pool layers, not {kind}")
    if groups < 1:
        raise ValueError(f"groups of layer {name!r} must be >= 1")
    if groups != 1 and kind != "conv":
        raise ValueError(f"groups only applies to conv layers, not {kind}")
    if has_bias and kind != "conv":
        raise ValueError(f"bias only applies to conv layers, not {kind}")
    if kind == "conv":
        if out_channels is None or out_channels < 1:
            raise ValueError(f"conv layer {name!r} needs filters >= 1")
    elif out_channels is not None:
        raise ValueError(f"{kind} layer {name!r} must not set out_channels")
    if kind == "fully_connected":
        if units is None or units < 1:
            raise ValueError(f"fully_connected layer {name!r} needs units >= 1")
    elif kind == "softmax":
        if units is not None and units < 1:
            raise ValueError(f"softmax layer {name!r} units must be >= 1")
    elif units is not None:
        raise ValueError(f"{kind} layer {name!r} must not set units")
    if kind == "pool":
        if pool_kind not in ("max", "average"):
            raise ValueError(f"pool layer {name!r} needs type=max or type=average")
    elif pool_kind is not None:
        raise ValueError(f"{kind} layer {name!r} must not set pool_kind")
    if skip is not None and kind != "residual_sum":
        raise ValueError(f"skip= only applies to residual_sum, not {kind}")


def emit_network_reference(net):
    """The canonical file form of ``net``, one ``if`` per kind and key."""
    lines = [f"# network: {net.name}",
             f"input {net.input.width} {net.input.height} {net.input.channels}"]
    for layer in net.layers:
        parts = [_EMIT_KIND[layer.kind], layer.name]
        if layer.kind in _KERNEL_KINDS:
            if layer.kernel_w == layer.kernel_h:
                parts.append(f"k={layer.kernel_w}")
            else:
                parts.append(f"kw={layer.kernel_w}")
                parts.append(f"kh={layer.kernel_h}")
        if layer.kind == "conv":
            parts.append(f"filters={layer.out_channels}")
        if layer.kind in ("conv", "pool"):
            parts.append(f"stride={layer.stride}")
            parts.append(f"pad={layer.padding}")
        if layer.kind == "conv" and layer.groups != 1:
            parts.append(f"groups={layer.groups}")
        if layer.kind == "conv" and layer.has_bias:
            parts.append("bias=true")
        if layer.kind == "pool":
            parts.append(f"type={layer.pool_kind}")
        if layer.kind == "fully_connected" or (layer.kind == "softmax" and layer.units is not None):
            parts.append(f"units={layer.units}")
        if layer.skip is not None:
            parts.append(f"skip={layer.skip}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# resblock: the function parse_network expanded each residual block with
# before it read the block's layer lines as file lines
# ---------------------------------------------------------------------------

def residual_block_reference(prefix: str, channels: int, skip_from: str, convs: int = 2
                             ) -> list[LayerSpec]:
    """Expand one residual block into explicit layers.

    ``convs=2`` gives the classic expansion conv-bn-relu-conv-bn-sum-relu;
    ``convs=1`` gives the lighter conv-bn-relu-sum-relu variant. The sum's
    second input is the output of ``skip_from`` (the block's input), so the
    caller must keep channel counts aligned across the block.
    """
    conv = dict(kernel_w=3, kernel_h=3, padding=1, out_channels=channels)
    if convs == 2:
        layers = [
            LayerSpec(f"{prefix}_conv1", "conv", **conv),
            LayerSpec(f"{prefix}_bn1", "batch_norm"),
            LayerSpec(f"{prefix}_relu1", "relu"),
            LayerSpec(f"{prefix}_conv2", "conv", **conv),
            LayerSpec(f"{prefix}_bn2", "batch_norm"),
        ]
    elif convs == 1:
        layers = [
            LayerSpec(f"{prefix}_conv", "conv", **conv),
            LayerSpec(f"{prefix}_bn", "batch_norm"),
            LayerSpec(f"{prefix}_relu", "relu"),
        ]
    else:
        raise ValueError("residual blocks support convs=1 or convs=2")
    layers.append(LayerSpec(f"{prefix}_sum", "residual_sum", skip=skip_from))
    layers.append(LayerSpec(f"{prefix}_relu_out", "relu"))
    return layers


# ---------------------------------------------------------------------------
# recommend: tuner.recommend as it stood before it took its winner from rank;
# the EDP order is its own min key, with one return per branch
# ---------------------------------------------------------------------------

def recommend_reference(dataset_class, net_family, accuracy, tolerance_pct=5.0,
                        reports=None, metric=None) -> tuner.Recommendation:
    if dataset_class not in ("small", "large"):
        raise ValueError('dataset_class must be "small" or "large"')
    if net_family not in ("plain_conv", "residual"):
        raise ValueError('net_family must be "plain_conv" or "residual"')
    network = tuner.FAMILY_NETWORKS[(dataset_class, net_family)]
    metric = metric or tuner.PRIMARY_METRIC[dataset_class]
    by_batch = {}
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
    if reports is not None:
        candidates = [r for r in reports
                      if r.feasible and r.config.network == network
                      and r.config.batch in qualifying
                      and r.edp_joule_seconds is not None]
        if candidates:
            winner = min(candidates, key=lambda r: (
                r.edp_joule_seconds, r.config.batch, r.config.gpu_set.total_gpus))
            return tuner.Recommendation(
                dataset_class, net_family, network, winner.config.batch, qualifying,
                f"batches {list(qualifying)} sit within {tolerance_pct:g}% of the best "
                f"{metric} accuracy ({best:g}%); "
                f"batch {winner.config.batch} has the lowest EDP among them; "
                f"{tuner.MULTI_GPU_ADVISORY}",
            )
    return tuner.Recommendation(
        dataset_class, net_family, network, qualifying[-1], qualifying,
        f"batches {list(qualifying)} sit within {tolerance_pct:g}% of the best "
        f"{metric} accuracy ({best:g}%); the largest of them saves the most "
        f"time and energy; {tuner.MULTI_GPU_ADVISORY}",
    )


# ---------------------------------------------------------------------------
# rank: cli.cmd_rank as it stood before the bundled grids were scored once per
# process; every call builds its grid and scores each configuration afresh
# ---------------------------------------------------------------------------

def rank_reference(args) -> str:
    """The text ``cnnergy rank`` prints for parsed ``args``; raises as the
    command does."""
    records = energymodel.records_by_key(
        energymodel.bundled_measurements() if args.bundled
        else energymodel.load_measurements(args.measurements))
    profiles = energymodel.bundled_devices()
    if args.device not in profiles:
        raise MissingDeviceError(f"no bundled device profile named {args.device!r} "
                                 f"(have: {', '.join(sorted(profiles))})")
    plans = energymodel.bundled_plans()
    configs = tuner.bundled_grid(args.device, plans, networks=args.networks,
                                 batches=args.batches, gpu_counts=args.gpus)
    if not configs:
        raise NothingFeasibleError("the requested grid is empty")
    reports = [tuner.score(c, records, profiles, update_overhead_pct=args.update_overhead_pct)
               for c in configs]
    ranked = tuner.rank(reports, metric=args.metric)

    def label(gpu_set):
        return "+".join(f"{name}:{count}" for name, count in gpu_set.members if count > 0)

    lines = [f"# metric: {args.metric}",
             "rank,network,batch,gpus,gpu_set,kiloseconds,megajoules,edp_mj_ks"]
    for position, report in enumerate(ranked, start=1):
        cfg = report.config
        lines.append(f"{position},{cfg.network},{cfg.batch},{cfg.gpu_set.total_gpus},"
                     f"{label(cfg.gpu_set)},{report.kiloseconds:.6g},"
                     f"{report.megajoules:.6g},{report.edp_mj_ks:.6g}")
    for report in reports:
        if not report.feasible:
            cfg = report.config
            lines.append(f"# infeasible: {cfg.network} batch={cfg.batch} "
                         f"gpu_set={label(cfg.gpu_set)} ({report.reason})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# --format table: cli._render_table as it stood before commands handed rows to
# _tables.render; it re-splits the printed CSV on commas
# ---------------------------------------------------------------------------

def render_table_reference(csv_text: str) -> str:
    """Align a CSV report into padded columns; comment lines pass through."""
    comments, rows = [], []
    for line in csv_text.splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif line:
            rows.append(line.split(","))
    widths: list[int] = []
    for row in rows:
        for i, cell in enumerate(row):
            if i >= len(widths):
                widths.append(0)
            widths[i] = max(widths[i], len(cell))
    lines = comments + [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    ]
    return "\n".join(lines) + "\n"
