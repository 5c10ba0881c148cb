"""Independent oracles the tests compare the package against.

Everything here is deliberately written the slow, obvious way — explicit
sliding-window enumeration, textbook closed forms and one line loop per
table format — so a bug in the package's vectorized/algebraic versions or
its shared table reader cannot hide in a shared implementation.
"""


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
    line, counting the header as line 1 and skipping blank lines.
    """
    from cnnergy.errors import ChannelCountMismatchError, TraceFormatError

    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise TraceFormatError("empty trace file")
    header = [c.strip() for c in lines[0].split(",")]
    if len(header) < 2 or header[0] != "t_s" or not all(c.endswith("_w") for c in header[1:]):
        raise TraceFormatError(f"trace header must be t_s,<label>_w,...; got {lines[0]!r}")
    labels = tuple(c[:-2] for c in header[1:])
    n_cols = len(header)
    times, watts = [], []
    for lineno, line in enumerate(lines[1:], start=2):
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


def synthetic_samples_reference(segments, sample_rate):
    """Sample times and total watts of a piecewise profile, one sample per
    loop step: a junction sample per segment start, interior samples at
    k/sample_rate while short of the segment end by more than 1e-12 s, and
    the final level at the end."""
    dt = 1.0 / sample_rate
    times, totals = [], []
    t0 = 0.0
    for i, seg in enumerate(segments):
        prev_end = segments[i - 1].final_watts if i > 0 else seg.start_watts
        times.append(t0)
        totals.append((prev_end + seg.start_watts) / 2.0)
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

    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or [c.strip() for c in lines[0].split(",")] != _MEASUREMENT_HEADER.split(","):
        raise DataFormatError(f"measurement header must be {_MEASUREMENT_HEADER}")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
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

    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or [c.strip() for c in lines[0].split(",")] != _ACCURACY_HEADER.split(","):
        raise DataFormatError(f"accuracy header must be {_ACCURACY_HEADER}")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
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
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or [c.strip() for c in lines[0].split(",")] != ["id", "label", "t_start_s", "t_end_s"]:
        raise TraceFormatError("region header must be id,label,t_start_s,t_end_s")
    regions = []
    for lineno, line in enumerate(lines[1:], start=2):
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
    if lines[0].strip() != "network,batch,iterations,epochs":
        raise DataFormatError("iterations header must be network,batch,iterations,epochs")
    plans = {}
    for line in lines[1:]:
        net, batch, iters, epochs = (c.strip() for c in line.split(","))
        plan = TrainingPlan(net, int(batch), int(iters), int(epochs))
        plans[(plan.network, plan.batch)] = plan
    return plans


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


def parse_device_profile_reference(text):
    """Parse a key=value device profile file.

    Raises:
        DataFormatError: unknown/missing keys or non-numeric values.
    """
    from cnnergy.energymodel import DeviceProfile
    from cnnergy.errors import DataFormatError

    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
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
