"""Multi-channel power traces: parsing, region bookkeeping, integration.

A trace is a time-ordered series of per-channel wattage samples (one channel
per sensed supply rail). Regions are labeled [t_start, t_end) intervals from
a sidecar file; integrating a region yields joules per channel and in total,
via the trapezoidal rule with linear interpolation at region boundaries —
exact for constant and piecewise-linear signals. All regions of a trace are
integrated in one pass over a cumulative trapezoid of every channel.

A synthetic generator builds traces from piecewise power profiles so the
whole pipeline is testable without sensor hardware. At a power discontinuity
it emits one junction sample at the midpoint of the two levels, which keeps
the trapezoidal integral of a step profile exact.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from ._tables import read_csv
from .errors import (
    ChannelCountMismatchError,
    CnnergyError,
    EmptyRegionError,
    InsufficientSamplesError,
    NonMonotoneTimeError,
    TraceFormatError,
    TraceTooLargeError,
)

REGION_LABELS = frozenset({"forward", "backward", "update", "load", "other"})

#: Channel names of the default 8-rail sensing layout: the two PCIe slot
#: rails plus six external 12 V supply pins.
DEFAULT_CHANNEL_LABELS = (
    "pcie_12v", "pcie_3v3",
    "ext12v_1", "ext12v_2", "ext12v_3", "ext12v_4", "ext12v_5", "ext12v_6",
)

#: Largest synthetic trace, in samples x channels, that
#: :func:`generate_synthetic_trace` will build: 400 MB of float64 watts, or
#: about 1.7 hours of 8 channels at 1 kHz.
MAX_SYNTHETIC_VALUES = 50_000_000


@dataclass(frozen=True)
class PowerTrace:
    """Immutable sampled power series.

    ``times`` has shape (n,), strictly increasing; ``watts`` has shape
    (n, n_channels). Build instances through :meth:`build`, which validates
    and collapses duplicate timestamps to their mean sample.
    """

    channel_labels: tuple[str, ...]
    times: np.ndarray
    watts: np.ndarray

    @classmethod
    def build(cls, channel_labels, times, watts) -> "PowerTrace":
        """Validate raw arrays and return an immutable trace.

        Raises:
            ChannelCountMismatchError: watts row width != len(channel_labels).
            NonMonotoneTimeError: a timestamp decreases.
            TraceFormatError: non-finite or negative readings, or no samples.
        """
        labels = tuple(str(l) for l in channel_labels)
        t = np.asarray(times, dtype=float)
        w = np.asarray(watts, dtype=float)
        if t.ndim != 1 or w.ndim != 2 or w.shape[0] != t.shape[0]:
            raise TraceFormatError(
                f"times {t.shape} and watts {w.shape} must be (n,) and (n, channels)"
            )
        if t.shape[0] == 0:
            raise TraceFormatError("trace has no samples")
        if w.shape[1] != len(labels):
            raise ChannelCountMismatchError(
                f"{w.shape[1]} watt columns but {len(labels)} channel labels"
            )
        if not (np.isfinite(t).all() and np.isfinite(w).all()):
            raise TraceFormatError("timestamps and watts must be finite")
        if (w < 0).any():
            raise TraceFormatError("watts must be >= 0")
        dt = np.diff(t)
        if (dt < 0).any():
            i = int(np.argmax(dt < 0)) + 1
            raise NonMonotoneTimeError(f"timestamp decreases at sample {i}: {t[i]} < {t[i-1]}")
        if (dt == 0).any():
            # Collapse runs of equal timestamps to one mean sample each.
            uniq, inverse = np.unique(t, return_inverse=True)
            merged = np.zeros((uniq.shape[0], w.shape[1]))
            counts = np.bincount(inverse, minlength=uniq.shape[0]).astype(float)
            for ch in range(w.shape[1]):
                merged[:, ch] = np.bincount(inverse, weights=w[:, ch],
                                            minlength=uniq.shape[0]) / counts
            t, w = uniq, merged
        t.flags.writeable = False
        w.flags.writeable = False
        return cls(labels, t, w)

    @property
    def n_samples(self) -> int:
        return self.times.shape[0]

    @property
    def n_channels(self) -> int:
        return len(self.channel_labels)

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])


@dataclass(frozen=True)
class Region:
    """A labeled time interval to integrate over."""

    id: str
    label: str
    t_start: float
    t_end: float

    def __post_init__(self):
        if self.label not in REGION_LABELS:
            raise ValueError(
                f"region label must be one of {sorted(REGION_LABELS)}, got {self.label!r}"
            )
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError(f"region {self.id!r}: t_start and t_end must be finite")
        if not (self.t_start < self.t_end):
            raise ValueError(f"region {self.id!r}: t_start must be < t_end")


@dataclass(frozen=True)
class EnergyResult:
    """Integrated energy over one region (channel sum plus breakdown)."""

    joules_total: float
    joules_per_channel: tuple[float, ...]
    duration: float
    mean_watts: float


def parse_trace(source) -> PowerTrace:
    """Parse trace CSV (header ``t_s,<label>_w,...``) from text or a stream.

    Raises:
        TraceFormatError / NonMonotoneTimeError / ChannelCountMismatchError
    """
    text = source.read() if hasattr(source, "read") else source
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise TraceFormatError("empty trace file")
    header = [c.strip() for c in lines[0].split(",")]
    if len(header) < 2 or header[0] != "t_s" or not all(c.endswith("_w") for c in header[1:]):
        raise TraceFormatError(f"trace header must be t_s,<label>_w,...; got {lines[0]!r}")
    labels = tuple(c[:-2] for c in header[1:])
    n_cols = len(header)
    rows = lines[1:]
    try:
        data = _parse_rows(rows) if rows else np.empty((0, n_cols))
    except ValueError:
        data = None
    if data is None or data.shape[1] != n_cols:
        _raise_first_bad_row(text, n_cols)
    return PowerTrace.build(labels, data[:, 0], data[:, 1:])


def _parse_rows(rows) -> np.ndarray:
    """Comma-separated numbers, one row per string, in one numpy pass.

    Cells may be padded with whitespace and may read ``inf`` or ``nan``
    (:meth:`PowerTrace.build` rejects those); unlike ``float()``, digit
    separators (``1_0``) and non-ASCII digits are rejected.
    """
    return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)


def _raise_first_bad_row(text: str, n_cols: int):
    """Raise the error of the first row of ``text`` that :func:`_parse_rows`
    cannot read, naming its line in the file (blank lines count). Only this
    error path numbers the lines."""
    numbered = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    for lineno, line in numbered[1:]:
        n_cells = line.count(",") + 1
        if n_cells != n_cols:
            raise ChannelCountMismatchError(
                f"line {lineno}: expected {n_cols} columns, got {n_cells}"
            )
        try:
            _parse_rows([line])
        except ValueError:
            raise TraceFormatError(f"line {lineno}: non-numeric cell in {line!r}") from None
    raise TraceFormatError("trace rows could not be read")


def load_trace(path) -> PowerTrace:
    with open(path, encoding="utf-8") as fh:
        return parse_trace(fh)


def parse_regions(source) -> list[Region]:
    """Parse region CSV (header ``id,label,t_start_s,t_end_s``)."""
    text = source.read() if hasattr(source, "read") else source
    return read_csv(
        text, "region", "id,label,t_start_s,t_end_s",
        lambda rid, label, start, end: Region(rid, label, float(start), float(end)),
        error=TraceFormatError,
    )


def load_regions(path) -> list[Region]:
    with open(path, encoding="utf-8") as fh:
        return parse_regions(fh)


def integrate_many(trace: PowerTrace, regions) -> list[EnergyResult | CnnergyError]:
    """Trapezoidal energy over each region, clipped to the trace's span.

    Channel readings at the (clipped) region boundaries are linearly
    interpolated; joules_total is the per-channel sum and mean_watts is
    joules_total over the clipped duration.

    One pass builds the cumulative trapezoid integral of every channel. Each
    clipped region end is then found by binary search and completed with its
    interpolated partial segment, so N samples x C channels and R regions
    cost O(N*C + R*log N).

    Returns one entry per region, in order: its :class:`EnergyResult`, or
    the :class:`InsufficientSamplesError` (trace has fewer than 2 samples)
    or :class:`EmptyRegionError` (region does not overlap the trace span)
    it failed with.
    """
    regions = list(regions)
    if trace.n_samples < 2:
        return [InsufficientSamplesError("need at least 2 samples to integrate")
                for _ in regions]
    t, w = trace.times, trace.watts
    cumulative = np.zeros_like(w)
    np.cumsum(np.diff(t)[:, None] * (w[1:] + w[:-1]) / 2.0, axis=0, out=cumulative[1:])

    n = len(regions)
    bounds = np.array([(r.t_start, r.t_end) for r in regions], dtype=float).reshape(n, 2)
    ends = np.clip(bounds, t[0], t[-1]).T.ravel()  # every clipped start, then every end
    j = np.clip(np.searchsorted(t, ends, side="right") - 1, 0, t.shape[0] - 2)
    into = ends - t[j]
    w_end = w[j] + (w[j + 1] - w[j]) * (into / (t[j + 1] - t[j]))[:, None]
    energy = cumulative[j] + into[:, None] * (w[j] + w_end) / 2.0
    joules = energy[n:] - energy[:n]

    results = []
    for region, lo, hi, per_channel in zip(regions, ends[:n].tolist(), ends[n:].tolist(),
                                           joules.tolist()):
        if not (lo < hi):
            results.append(EmptyRegionError(
                f"region {region.id!r} [{region.t_start}, {region.t_end}] does not overlap "
                f"trace span [{trace.t_start}, {trace.t_end}]"
            ))
            continue
        total = float(sum(per_channel))
        duration = hi - lo
        results.append(EnergyResult(total, tuple(per_channel), duration, total / duration))
    return results


def integrate(trace: PowerTrace, region: Region) -> EnergyResult:
    """:func:`integrate_many` for one region.

    Raises:
        InsufficientSamplesError: trace has fewer than 2 samples.
        EmptyRegionError: region does not overlap the trace span.
    """
    (result,) = integrate_many(trace, [region])
    if isinstance(result, CnnergyError):
        raise result
    return result


# ---------------------------------------------------------------------------
# Synthetic traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SegmentSpec:
    """One piece of a piecewise-linear total-power profile.

    Constant at ``start_watts`` when ``end_watts`` is None, otherwise a
    linear ramp from ``start_watts`` to ``end_watts`` across the segment.
    """

    duration_s: float
    start_watts: float
    end_watts: float | None = None

    def __post_init__(self):
        if not 0 < self.duration_s < math.inf:
            raise ValueError("segment duration must be finite and > 0")
        if self.start_watts < 0 or (self.end_watts is not None and self.end_watts < 0):
            raise ValueError("segment watts must be >= 0")

    @property
    def final_watts(self) -> float:
        return self.start_watts if self.end_watts is None else self.end_watts

    def value_at(self, offset: float) -> float:
        if self.end_watts is None:
            return self.start_watts
        return self.start_watts + (self.end_watts - self.start_watts) * (offset / self.duration_s)


def default_labels(channels: int) -> tuple[str, ...]:
    if channels == len(DEFAULT_CHANNEL_LABELS):
        return DEFAULT_CHANNEL_LABELS
    return tuple(f"ch{i}" for i in range(1, channels + 1))


def generate_synthetic_trace(segments, sample_rate: float = 1000.0, channels: int = 8,
                             noise_sigma: float = 0.0,
                             seed: int | None = None) -> PowerTrace:
    """Sample a piecewise profile into a trace (deterministic given ``seed``).

    Total power is split evenly across ``channels``, labelled as
    :func:`default_labels` gives them. Sampling runs at
    ``sample_rate`` Hz from t=0; at each discontinuous segment junction a
    single sample carries the midpoint of the adjacent power levels, so step
    profiles integrate exactly under the trapezoidal rule. Gaussian noise of
    ``noise_sigma`` watts (finite and >= 0; per channel, clamped at 0) is
    added when nonzero.
    """
    if not 0.0 <= noise_sigma < math.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    segs = list(segments)
    if not segs:
        raise ValueError("at least one segment is required")
    if not 0 < sample_rate < math.inf:
        raise ValueError("sample_rate must be finite and > 0")
    if channels < 1:
        raise ValueError("channels must be >= 1")
    dt = 1.0 / sample_rate
    # Upper bound on the sample count: each segment has its junction sample
    # and fewer than duration / dt + 1 interior ones, plus the final sample.
    seconds = sum(seg.duration_s for seg in segs)
    if (seconds / dt + 2 * len(segs) + 1) * channels > MAX_SYNTHETIC_VALUES:
        raise TraceTooLargeError(
            f"a trace of {seconds:g} s at {sample_rate:g} Hz x {channels} channels "
            f"exceeds the limit of {MAX_SYNTHETIC_VALUES} samples x channels"
        )
    times, totals = [], []
    t0 = 0.0
    for i, seg in enumerate(segs):
        # Junction sample at the segment start: midpoint across an abrupt
        # power step, the shared value otherwise.
        prev_end = segs[i - 1].final_watts if i > 0 else seg.start_watts
        # Interior samples: every k >= 1 with k*dt < duration - 1e-12.
        limit = seg.duration_s - 1e-12
        offsets = np.arange(1, max(math.ceil(limit / dt), 0) + 2) * dt
        offsets = offsets[offsets < limit]
        times += [[t0], t0 + offsets]
        totals += [[(prev_end + seg.start_watts) / 2.0],
                   np.broadcast_to(seg.value_at(offsets), offsets.shape)]
        t0 += seg.duration_s
    t_arr = np.concatenate(times + [[t0]])
    per_channel = np.concatenate(totals + [[segs[-1].final_watts]])[:, None] / channels
    watts = np.repeat(per_channel, channels, axis=1)
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        watts = np.clip(watts + rng.normal(0.0, noise_sigma, watts.shape), 0.0, None)
    return PowerTrace.build(default_labels(channels), t_arr, watts)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

#: Rows formatted per ``%`` operation by :func:`trace_csv`, which bounds the
#: Python floats alive at once.
_CSV_BLOCK_ROWS = 4096


def trace_csv(trace: PowerTrace) -> str:
    """Serialize a trace (timestamps keep 9 significant digits, watts 6)."""
    out = io.StringIO()
    out.write("t_s," + ",".join(f"{l}_w" for l in trace.channel_labels) + "\n")
    row = "%.9g" + ",%.6g" * trace.n_channels + "\n"
    values = np.column_stack((trace.times, trace.watts))
    for start in range(0, trace.n_samples, _CSV_BLOCK_ROWS):
        block = values[start:start + _CSV_BLOCK_ROWS]
        out.write((row * block.shape[0]) % tuple(block.ravel().tolist()))
    return out.getvalue()


def region_results_csv(trace: PowerTrace, regions) -> str:
    """One output row per region; failed regions keep their row with the
    numeric cells empty and the error named in the trailing column."""
    out = io.StringIO()
    per_channel = ",".join(f"{l}_j" for l in trace.channel_labels)
    out.write(f"id,label,duration_s,joules_total,mean_watts,{per_channel},error\n")
    blank = "," * (trace.n_channels + 2)
    regions = list(regions)
    for region, r in zip(regions, integrate_many(trace, regions)):
        if isinstance(r, CnnergyError):
            out.write(f"{region.id},{region.label},{blank},{type(r).__name__}\n")
            continue
        channel_cells = ",".join(f"{j:.6g}" for j in r.joules_per_channel)
        out.write(f"{region.id},{region.label},{r.duration:.6g},{r.joules_total:.6g},"
                  f"{r.mean_watts:.6g},{channel_cells},\n")
    return out.getvalue()
