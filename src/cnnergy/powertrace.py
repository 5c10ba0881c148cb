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
import itertools
import math
from typing import NamedTuple

import numpy as np

from ._tables import check_cell, checked, numbered_lines, read_csv, read_file
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


class PowerTrace(NamedTuple):
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
        """Validate copies of raw arrays and return an immutable trace, which
        shares no memory with ``times`` and ``watts``.

        Raises:
            ChannelCountMismatchError: watts row width != len(channel_labels).
            NonMonotoneTimeError: a timestamp decreases.
            TraceFormatError: a channel label that is empty, repeated or not
                one CSV cell (see :func:`check_cell`); non-finite or negative
                readings, or no samples.
        """
        return cls._adopt(channel_labels, np.array(times, dtype=float),
                          np.array(watts, dtype=float))

    @classmethod
    def _adopt(cls, channel_labels, t, w) -> "PowerTrace":
        """:meth:`build` of float arrays that nothing else holds, nor their
        base: they are made read-only, not copied. The package's reader and
        generator hand over the arrays they made, so that building a trace
        never holds two copies of them."""
        labels = tuple(str(l) for l in channel_labels)
        try:
            for label in labels:
                check_cell("channel label", label, ("",))
        except ValueError as exc:
            raise TraceFormatError(str(exc)) from None
        if len(set(labels)) < len(labels):
            twice = next(l for i, l in enumerate(labels) if l in labels[:i])
            raise TraceFormatError(f"channel label {twice!r} appears twice")
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
        with np.errstate(over="ignore"):  # only the sign of each step is read
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


@checked
class Region(NamedTuple):
    """A labeled time interval to integrate over."""

    id: str
    label: str
    t_start: float
    t_end: float

    def _check(self):
        check_cell("region id", self.id)
        if self.label not in REGION_LABELS:
            raise ValueError(
                f"region label must be one of {sorted(REGION_LABELS)}, got {self.label!r}"
            )
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError(f"region {self.id!r}: t_start and t_end must be finite")
        if not (self.t_start < self.t_end):
            raise ValueError(f"region {self.id!r}: t_start must be < t_end")


class EnergyResult(NamedTuple):
    """Integrated energy over one region (channel sum plus breakdown)."""

    joules_total: float
    joules_per_channel: tuple[float, ...]
    duration: float
    mean_watts: float


def parse_trace(source) -> PowerTrace:
    """Parse trace CSV (header ``t_s,<label>_w,...``) from text or a text
    stream, in one pass that holds the rows (8 bytes a value), not the text.

    Lines end at LF, CR LF or CR, as a file's do (a stream's are the lines it
    yields); whitespace-only lines are skipped. The first other line is the
    header; one ``np.loadtxt`` reads the rest, so cells may be padded with
    whitespace and may read ``inf`` or ``nan`` (:meth:`PowerTrace.build`
    rejects those), but unlike ``float()`` may not hold digit separators
    (``1_0``) or non-ASCII digits. A stream must be seekable (:func:`load_trace`
    reads a pipe); a ``str`` is read as its UTF-8 bytes (about 1 byte a character).

    Raises:
        TraceFormatError / NonMonotoneTimeError / ChannelCountMismatchError
    """
    if isinstance(source, str):
        source = io.TextIOWrapper(io.BytesIO(source.encode("utf-8", "surrogatepass")),
                                  encoding="utf-8", errors="surrogatepass")
    elif not source.seekable():
        raise TraceFormatError("a trace stream must be seekable; load_trace reads a pipe")
    lines = (line for line in source if not line.isspace())
    try:
        header = next(lines, None)
        if header is None:
            raise TraceFormatError("empty trace file")
        labels = _header_labels(header.rstrip("\n"))
        first = next(lines, None)  # np.loadtxt warns on an empty body
        data = (np.empty((0, len(labels) + 1)) if first is None else
                np.loadtxt(itertools.chain([first], lines), delimiter=",", comments=None,
                           ndmin=2))
    except ValueError:  # a row numpy cannot read, or a byte that is not UTF-8
        data = None
    if data is None or data.shape[1] != len(labels) + 1:
        _raise_first_bad_row(source)
    return PowerTrace._adopt(labels, data[:, 0], data[:, 1:])


def _header_labels(line: str) -> tuple[str, ...]:
    """The channel labels of a trace header line ``t_s,<label>_w,...``."""
    header = [c.strip() for c in line.split(",")]
    if len(header) < 2 or header[0] != "t_s" or not all(c.endswith("_w") for c in header[1:]):
        raise TraceFormatError(f"trace header must be t_s,<label>_w,...; got {line!r}")
    return tuple(c[:-2] for c in header[1:])


def _raise_first_bad_row(source):
    """Raise the error of the first row of the seekable text stream
    ``source`` that :func:`parse_trace` cannot read, naming its line among
    the lines the stream yields (blank lines count); only this error path
    numbers the lines."""
    source.seek(0)
    numbered = numbered_lines(source)
    n_cols = next(numbered)[1].count(",") + 1
    for lineno, line in numbered:
        n_cells = line.count(",") + 1
        if n_cells != n_cols:
            raise ChannelCountMismatchError(f"line {lineno}: expected {n_cols} columns, "
                                            f"got {n_cells}")
        try:
            np.loadtxt([line], delimiter=",", comments=None)
        except ValueError:
            raise TraceFormatError(f"line {lineno}: non-numeric cell in {line!r}") from None
    raise TraceFormatError("trace rows could not be read")


def load_trace(path) -> PowerTrace:
    """:func:`parse_trace` of a file; its errors name the file."""
    return read_file(path, parse_trace)


def parse_regions(source) -> list[Region]:
    """Parse region CSV (header ``id,label,t_start_s,t_end_s``), text or a stream."""
    return read_csv(
        source, "region", "id,label,t_start_s,t_end_s",
        lambda rid, label, start, end: Region(rid, label, float(start), float(end)),
        error=TraceFormatError,
    )


def load_regions(path) -> list[Region]:
    """:func:`parse_regions` of a file; its errors name the file."""
    return read_file(path, parse_regions)


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

    Raises:
        TraceFormatError: the trace's watts or timestamps are so large that
            an overlapping region's joules, duration or mean watts overflow;
            the message names the first such region.
    """
    regions = list(regions)
    if trace.n_samples < 2:
        return [InsufficientSamplesError("need at least 2 samples to integrate")
                for _ in regions]
    t, w = trace.times, trace.watts
    n = len(regions)
    bounds = np.array([(r.t_start, r.t_end) for r in regions], dtype=float).reshape(n, 2)
    ends = np.clip(bounds, t[0], t[-1]).T.ravel()  # every clipped start, then every end
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        cumulative = _cumulative_energy(t, w)
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
        total = float(sum(per_channel))  # not finite if a channel's joules are not
        duration = hi - lo
        mean = total / duration
        if not (math.isfinite(duration) and math.isfinite(mean)):
            raise TraceFormatError(
                f"region {region.id!r} [{region.t_start}, {region.t_end}]: its energy "
                f"overflows (joules_total {total}, duration_s {duration}, mean_watts {mean})")
        results.append(EnergyResult(total, tuple(per_channel), duration, mean))
    return results


def _cumulative_energy(t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Joules per channel from ``t[0]`` to each sample: 0, then the running
    sum of each step's trapezoid ``dt * (w[i+1] + w[i]) / 2``, built in the
    one array it returns."""
    cumulative = np.zeros_like(w)
    steps = cumulative[1:]
    np.add(w[1:], w[:-1], out=steps)
    steps *= np.diff(t)[:, None]
    steps /= 2.0
    np.cumsum(steps, axis=0, out=steps)
    return cumulative


def integrate(trace: PowerTrace, region: Region) -> EnergyResult:
    """:func:`integrate_many` for one region.

    Raises:
        InsufficientSamplesError: trace has fewer than 2 samples.
        EmptyRegionError: region does not overlap the trace span.
        TraceFormatError: the region's energy overflows.
    """
    (result,) = integrate_many(trace, [region])
    if isinstance(result, CnnergyError):
        raise result
    return result


# ---------------------------------------------------------------------------
# Synthetic traces
# ---------------------------------------------------------------------------

@checked
class SegmentSpec(NamedTuple):
    """One piece of a piecewise-linear total-power profile.

    Constant at ``start_watts`` when ``end_watts`` is None, otherwise a
    linear ramp from ``start_watts`` to ``end_watts`` across the segment.
    """

    duration_s: float
    start_watts: float
    end_watts: float | None = None

    def _check(self):
        if not 0 < self.duration_s < math.inf:
            raise ValueError("segment duration must be finite and > 0")
        if not all(0 <= watts < math.inf for watts in (self.start_watts, self.final_watts)):
            raise ValueError("segment watts must be finite and >= 0")

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


def _midpoint(a: float, b: float) -> float:
    """``(a + b) / 2``, also where ``a + b`` overflows."""
    total = a + b
    return total / 2.0 if total < math.inf else a / 2.0 + b / 2.0


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
    added when nonzero; ``seed``, if given, must be >= 0.
    """
    if seed is not None and seed < 0:
        raise ValueError(f"seed (--seed) must be >= 0, got {seed}")
    if not 0.0 <= noise_sigma < math.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    segs = list(segments)
    if not segs:
        raise ValueError("at least one segment is required")
    if not 0 < sample_rate < math.inf:
        raise ValueError(f"sample_rate (--rate) must be finite and > 0, got {sample_rate}")
    if channels < 1:
        raise ValueError(f"channels (--channels) must be >= 1, got {channels}")
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
        totals += [[_midpoint(prev_end, seg.start_watts)],
                   np.broadcast_to(seg.value_at(offsets), offsets.shape)]
        t0 += seg.duration_s
    t_arr = np.concatenate(times + [[t0]])
    per_channel = np.concatenate(totals + [[segs[-1].final_watts]])[:, None] / channels
    if noise_sigma > 0.0:
        # The noise array becomes the watts: level added, then clamped at 0.
        watts = np.random.default_rng(seed).normal(0.0, noise_sigma,
                                                   (per_channel.shape[0], channels))
        watts += per_channel
        np.clip(watts, 0.0, None, out=watts)
    else:
        watts = np.repeat(per_channel, channels, axis=1)
    return PowerTrace._adopt(default_labels(channels), t_arr, watts)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

#: Rows formatted per block by :func:`_csv_blocks`, which bounds the size of
#: the arrays alive at once.
_CSV_BLOCK_ROWS = 4096

#: A scaled value farther than this from its nearest integer is a near-tie,
#: left to Python's ``%`` (see :class:`_GCells`).
_NEAR_TIE = 0.5 - 2.0 ** -20


class _GCells:
    """The text of ``"%.<p>g" % v`` for each value of a 1-D float array, as
    columns of characters (one array per character position) with the width
    of each cell.

    Cells that ``%g`` writes in fixed notation, with a decimal exponent X in
    ``-4 <= X < p``, are formatted here. Each value is scaled to ``m = |v| *
    10**k`` with ``k = p - 1 - X`` and ``X = floor(log10|v|)``, so that m lies
    in ``[10**(p-1), 10**p)``. As k lies in ``[0, p + 3]``, the scaling is one
    multiply by an exact power of ten, at most ``10**12`` for ``p <= 9``, so
    m is within half an ulp, 2**-24 at most, of the exact product; ``rint(m)``
    then gives the same p digits as Python's correctly rounded ``%`` wherever
    m is not within 2**-20 of a half. Where ``floor(log10|v|)`` is one off, v
    lies within about 1e-13 of a power of ten, which rounding to p digits
    reaches anyway: m rounds to ``10**(p-1)``, or to ``10**p`` and carries,
    with the same digits.

    The rounded digits are then laid out as ``%g`` does: trailing zeros
    stripped, a ``0.000`` lead where X < 0, ``0`` and ``-0`` for zeros.
    The *slow* cells, near-ties (true ties included, which Python breaks to
    even on the exact binary value) and every cell in exponential notation
    (X < -4 or X >= p after rounding: watts below 1e-4 or from 1e6,
    timestamps from 1e9), are formatted by one bulk ``%``.
    """

    def __init__(self, values: np.ndarray, p: int):
        n = values.shape[0]
        a = np.abs(values)
        zero = a == 0.0
        k = (p - 1) - np.floor(np.log10(np.maximum(a, 5e-324))).astype(np.intp)
        # Out of range, k is clipped: those are slow cells.
        m = a * (10.0 ** np.arange(p + 4))[np.clip(k, 0, p + 3)]
        r = np.rint(m)
        slow = np.abs(m - r) > _NEAR_TIE
        carry = r == 10.0 ** p  # rounded up to one digit more
        r[carry] = 10.0 ** (p - 1)
        k -= carry
        slow |= (k < 0) | (k > p + 3)
        slow &= ~zero
        # Zeros, and slow cells until their text replaces it, print as "0".
        plain = zero | slow
        r[plain] = 0.0
        k[plain] = p - 1
        exponent = ((p - 1) - k).astype(np.int8)

        digits = np.empty((p, n), np.uint8)
        q = r.astype(np.int32)
        for i in range(p - 1, 0, -1):
            q_10 = q // 10
            digits[i] = q - 10 * q_10
            q = q_10
        digits[0] = q
        kept = np.full(n, p, np.int8)  # digits left after stripping zeros
        trailing = digits[p - 1] == 0
        kept -= trailing
        for i in range(p - 2, 0, -1):
            trailing &= digits[i] == 0
            kept -= trailing
        digits += ord("0")

        # Masks pick by arithmetic, not np.where, which branches per value.
        small = exponent < 0  # 0.000ddd: its "0." and zeros lead
        before_point = 1 + exponent + small * (p - 1 - exponent)  # p if small
        point = kept > before_point
        n_digits = np.maximum(kept, before_point) - small * (p - kept)  # kept if small
        # Row j is each cell's j-th character after the sign and the lead:
        # its digits with the decimal point inserted. Row j starts as the
        # digit before it, as it is after the point; where the point falls
        # on or after j it is then moved (uint8 arithmetic wraps, so adding
        # a difference of characters gives the other one).
        self.mantissa = np.empty((p + 1, n), np.uint8)
        self.mantissa[0] = digits[0]
        self.mantissa[1:] = digits
        for j in range(1, before_point.max() + 1):
            row = self.mantissa[j]
            row += (before_point == j) * (ord(".") - row)
            if j < p:
                row += (before_point > j) * (digits[j] - row)
        self.negative = np.signbit(values) & ~slow
        self.lead = small * (1 - exponent)
        self.small = np.flatnonzero(small)
        self.width = self.negative + self.lead + n_digits + point
        self.slow = np.flatnonzero(slow)
        if self.slow.size:
            text = ("%%.%dg\n" % p) * self.slow.size % tuple(values[self.slow].tolist())
            self.slow_text = np.frombuffer(text.encode("ascii"), np.uint8)
            ends = np.flatnonzero(self.slow_text == ord("\n"))
            self.width[self.slow] = np.diff(ends, prepend=-1) - 1

    def mantissa_start(self, start: np.ndarray) -> np.ndarray:
        """Where each cell's mantissa begins, for cells beginning at ``start``."""
        return start + self.negative + self.lead

    def write_rest(self, buf: np.ndarray, start: np.ndarray) -> None:
        """Write each cell's sign and lead, and the slow cells' text, for
        cells beginning at ``start``."""
        if self.small.size:
            at = start[self.small] + self.negative[self.small]
            lead = self.lead[self.small]
            for j, char in enumerate(b"0.000"):
                inside = np.flatnonzero(lead > j)
                buf[at[inside] + j] = char
        buf[start[self.negative]] = ord("-")
        if self.slow.size:
            # Each text ends in the "\n" that the cell's separator overwrites.
            text = self.slow_text
            begins = np.flatnonzero(text == ord("\n")) - self.width[self.slow]
            to = np.repeat(start[self.slow] - begins, self.width[self.slow] + 1)
            buf[to + np.arange(text.size)] = text


def _csv_block(times: np.ndarray, watts: np.ndarray) -> str:
    """Rows of trace CSV: each timestamp as ``%.9g``, each watt as ``%.6g``,
    byte for byte as Python's ``%`` prints them, laid out in one byte buffer
    at offsets summed from the cell widths."""
    n, channels = watts.shape
    t_cells, w_cells = _GCells(times, 9), _GCells(watts.ravel(), 6)
    widths = np.empty((n, channels + 1), np.intp)
    widths[:, 0] = t_cells.width
    widths[:, 1:] = w_cells.width.reshape(n, channels)
    widths += 1  # the separator after each cell
    ends = np.cumsum(widths.ravel()).reshape(n, channels + 1)
    starts = ends - widths
    size = int(ends[-1, -1])
    buf = np.empty(size + 10, np.uint8)  # room for what the last cells spill
    t_start, w_start = starts[:, 0], starts[:, 1:].ravel()
    t_at, w_at = t_cells.mantissa_start(t_start), w_cells.mantissa_start(w_start)
    # Each mantissa is written whole, all its p + 1 columns, even where it is
    # shorter. Column j of a cell lies before column j of every later cell,
    # so what spills past a mantissa lands on its own separator, written
    # afterwards, or on a later cell's column of a lower index, which this
    # loop, from the last column to the first, also writes afterwards.
    for j in range(9, -1, -1):
        buf[t_at + j] = t_cells.mantissa[j]
        if j <= 6:
            buf[w_at + j] = w_cells.mantissa[j]
    t_cells.write_rest(buf, t_start)
    w_cells.write_rest(buf, w_start)
    buf[ends - 1] = ord(",")
    buf[ends[:, -1] - 1] = ord("\n")
    return buf[:size].tobytes().decode("ascii")


def _csv_blocks(trace: PowerTrace):
    """A trace as the CSV that :func:`parse_trace` reads, in the pieces it is
    formatted in: the header line, then one per :data:`_CSV_BLOCK_ROWS` rows."""
    yield "t_s," + ",".join(f"{l}_w" for l in trace.channel_labels) + "\n"
    for start in range(0, trace.n_samples, _CSV_BLOCK_ROWS):
        stop = start + _CSV_BLOCK_ROWS
        yield _csv_block(trace.times[start:stop], trace.watts[start:stop])


def _region_rows(trace: PowerTrace, regions) -> list[tuple[str, ...]]:
    """The cells of ``integrate``'s report: the header, then one row per
    region; a failed region keeps its row with the numeric cells empty and
    the error named in the trailing column."""
    rows = [("id", "label", "duration_s", "joules_total", "mean_watts",
             *[f"{l}_j" for l in trace.channel_labels], "error")]
    blank = ("",) * (trace.n_channels + 3)
    regions = list(regions)
    for region, r in zip(regions, integrate_many(trace, regions)):
        if isinstance(r, CnnergyError):
            rows.append((region.id, region.label, *blank, type(r).__name__))
        else:
            rows.append((region.id, region.label, f"{r.duration:.6g}", f"{r.joules_total:.6g}",
                         f"{r.mean_watts:.6g}", *[f"{j:.6g}" for j in r.joules_per_channel], ""))
    return rows
