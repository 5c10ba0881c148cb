"""Power-trace parsing, trapezoidal integration, and synthetic traces."""
import contextlib
import io
import math
import os
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cnnergy.errors import (
    ChannelCountMismatchError,
    CnnergyError,
    DataFormatError,
    EmptyRegionError,
    InsufficientSamplesError,
    NonMonotoneTimeError,
    TraceFormatError,
    TraceTooLargeError,
)
from cnnergy import arch, energymodel, powertrace
from cnnergy.powertrace import (
    DEFAULT_CHANNEL_LABELS,
    EnergyResult,
    PowerTrace,
    Region,
    SegmentSpec,
    default_labels,
    generate_synthetic_trace,
    integrate,
    integrate_many,
    parse_regions,
    parse_trace,
)
from cnnergy._tables import read_file, render

from oracles import (
    cumulative_energy_reference,
    noisy_watts_reference,
    parse_trace_rows_reference,
    synthetic_samples_reference,
    trace_csv_reference,
    trapezoid_region_reference,
    trapezoid_segment_energy,
)


def trace_csv(trace):
    """The CSV text of a trace, joined from the blocks gen-trace writes."""
    return "".join(powertrace._csv_blocks(trace))


def flat_trace(watts=100.0, t_end=2.0, channels=2, n=5):
    times = np.linspace(0.0, t_end, n)
    w = np.full((n, channels), watts / channels)
    return PowerTrace.build([f"ch{i}" for i in range(channels)], times, w)


# ---------------------------------------------------------------------------
# Trace construction and validation
# ---------------------------------------------------------------------------

def test_build_validates_shapes():
    with pytest.raises(TraceFormatError):
        PowerTrace.build(["a"], [[0.0]], [[1.0]])  # times not 1-D
    with pytest.raises(TraceFormatError):
        PowerTrace.build(["a"], [], np.empty((0, 1)))


def test_build_rejects_channel_count_mismatch():
    with pytest.raises(ChannelCountMismatchError):
        PowerTrace.build(["a", "b"], [0.0, 1.0], [[1.0], [1.0]])


def test_build_rejects_negative_and_non_finite():
    with pytest.raises(TraceFormatError):
        PowerTrace.build(["a"], [0.0, 1.0], [[1.0], [-0.5]])
    with pytest.raises(TraceFormatError):
        PowerTrace.build(["a"], [0.0, float("nan")], [[1.0], [1.0]])


def test_build_rejects_decreasing_time():
    with pytest.raises(NonMonotoneTimeError):
        PowerTrace.build(["a"], [0.0, 2.0, 1.0], [[1.0]] * 3)


CELL_RULE = "channel label must be non-empty and without commas, double quotes or line breaks"


@pytest.mark.parametrize("labels, message", [
    (['"a', "b"], f"{CELL_RULE}, got '\"a'"),
    (["a", ""], f"{CELL_RULE}, got ''"),
    (["a,b"], f"{CELL_RULE}, got 'a,b'"),
    (["a\rb"], f"{CELL_RULE}, got 'a\\rb'"),
    (["a", "b", "a"], "channel label 'a' appears twice"),
])
def test_build_refuses_a_label_that_is_not_one_distinct_csv_cell(labels, message):
    # gen-trace's CSV and integrate's report print each label as a header cell
    with pytest.raises(TraceFormatError, match=f"^{re.escape(message)}$"):
        PowerTrace.build(labels, [0.0, 1.0], [[1.0] * len(labels)] * 2)


def test_build_collapses_equal_timestamps_to_mean():
    trace = PowerTrace.build(["a", "b"], [0.0, 1.0, 1.0, 2.0],
                             [[1.0, 10.0], [2.0, 20.0], [4.0, 40.0], [8.0, 80.0]])
    assert trace.n_samples == 3
    assert trace.times.tolist() == [0.0, 1.0, 2.0]
    assert trace.watts[1].tolist() == [3.0, 30.0]


def test_trace_arrays_are_immutable():
    trace = flat_trace()
    with pytest.raises(ValueError):
        trace.times[0] = -1.0
    with pytest.raises(ValueError):
        trace.watts[0, 0] = 0.0


def test_region_validation():
    Region("r", "forward", 0.0, 1.0)
    with pytest.raises(ValueError):
        Region("r", "inference", 0.0, 1.0)  # not a known label
    with pytest.raises(ValueError):
        Region("r", "forward", 1.0, 1.0)
    for start, end in ((-math.inf, 1.0), (0.0, math.inf), (-math.inf, math.inf),
                       (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            Region("r", "forward", start, end)
    for rid in ('"r', 'r"', "a,b", "a\nb", "a\rb"):  # would not read back as one cell
        with pytest.raises(ValueError, match="^region id must be without commas"):
            Region(rid, "forward", 0.0, 1.0)


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

def test_integrate_constant_power_exact():
    trace = flat_trace(watts=100.0, t_end=2.0)
    result = integrate(trace, Region("r", "forward", 0.5, 1.5))
    assert result.joules_total == pytest.approx(100.0, rel=1e-12)
    assert result.duration == pytest.approx(1.0)
    assert result.mean_watts == pytest.approx(100.0, rel=1e-12)
    assert sum(result.joules_per_channel) == pytest.approx(result.joules_total)


def test_integrate_linear_ramp_exact():
    # one channel ramping 0 -> 100 W over 2 s, sampled sparsely
    trace = PowerTrace.build(["a"], [0.0, 0.5, 2.0], [[0.0], [25.0], [100.0]])
    full = integrate(trace, Region("r", "forward", 0.0, 2.0))
    assert full.joules_total == pytest.approx(
        trapezoid_segment_energy(0.0, 100.0, 2.0), rel=1e-12)
    # an interior window needs interpolated boundary samples: 50->75 W over 0.5 s
    inner = integrate(trace, Region("r", "forward", 1.0, 1.5))
    assert inner.joules_total == pytest.approx(
        trapezoid_segment_energy(50.0, 75.0, 0.5), rel=1e-12)


def test_integrate_clips_region_to_trace_span():
    trace = flat_trace(watts=100.0, t_end=2.0)
    result = integrate(trace, Region("r", "load", -5.0, 10.0))
    assert result.joules_total == pytest.approx(200.0, rel=1e-12)
    assert result.duration == pytest.approx(2.0)


def test_integrate_empty_region():
    trace = flat_trace(t_end=2.0)
    with pytest.raises(EmptyRegionError):
        integrate(trace, Region("r", "other", 3.0, 4.0))
    with pytest.raises(EmptyRegionError):
        integrate(trace, Region("r", "other", -2.0, -1.0))


def test_integrate_needs_two_samples():
    trace = PowerTrace.build(["a"], [1.0], [[5.0]])
    with pytest.raises(InsufficientSamplesError):
        integrate(trace, Region("r", "forward", 0.0, 2.0))
    results = integrate_many(trace, [Region("r", "forward", 0.0, 2.0),
                                     Region("s", "other", 5.0, 6.0)])
    assert [type(r) for r in results] == [InsufficientSamplesError] * 2


@pytest.mark.parametrize("times, watts, region", [
    ([0.0, 1.0], [1e308, 1e308], ("r1", 0.0, 1.0)),  # the trapezoid's sum overflows
    ([-1e308, 1e308], [1.0, 1.0], ("r1", -1.0, 1.0)),  # the sample step overflows
    ([-1e308, 0.0, 1e308], [0.0, 0.0, 0.0], ("r1", -1e308, 1e308)),  # the duration does
])
def test_integrate_many_refuses_an_energy_that_overflows(times, watts, region):
    trace = PowerTrace.build(["a"], times, [[w] for w in watts])
    rid, start, end = region
    # a region wholly before the trace is named only by its own empty result
    regions = [Region("early", "other", -1.7e308, -1.6e308),
               Region(rid, "forward", start, end), Region("r2", "forward", start, end)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy RuntimeWarning
        with pytest.raises(TraceFormatError, match=f"^region '{rid}' .*overflows"):
            integrate_many(trace, regions)
        with pytest.raises(TraceFormatError, match=f"^region '{rid}' "):
            integrate(trace, regions[1])


def test_integrate_additivity_on_split():
    trace = flat_trace(watts=123.0, t_end=3.0, n=17)
    whole = integrate(trace, Region("r", "forward", 0.2, 2.8)).joules_total
    left = integrate(trace, Region("r", "forward", 0.2, 1.3)).joules_total
    right = integrate(trace, Region("r", "forward", 1.3, 2.8)).joules_total
    assert left + right == pytest.approx(whole, rel=1e-12)


@st.composite
def traces_and_regions(draw):
    n = draw(st.integers(2, 30))
    channels = draw(st.integers(1, 3))
    steps = draw(st.lists(st.floats(1e-3, 2.0), min_size=n - 1, max_size=n - 1))
    t0 = draw(st.floats(-5.0, 5.0))
    times = t0 + np.concatenate(([0.0], np.cumsum(steps)))
    watts = np.array(draw(st.lists(st.floats(0.0, 400.0), min_size=n * channels,
                                   max_size=n * channels))).reshape(n, channels)
    trace = PowerTrace.build([f"c{i}" for i in range(channels)], times, watts)
    span = trace.t_end - trace.t_start
    ends = st.floats(trace.t_start - span, trace.t_end + span)
    pairs = draw(st.lists(st.tuples(ends, st.floats(1e-6, 2 * span)), max_size=12))
    regions = [Region(f"r{i}", "forward", a, a + length)
               for i, (a, length) in enumerate(pairs) if a < a + length]
    return trace, regions


@given(traces_and_regions())
@settings(max_examples=150, deadline=None)
def test_integrate_many_matches_per_region_integrate_and_reference(case):
    trace, regions = case
    results = integrate_many(trace, regions)
    assert len(results) == len(regions)
    for region, got in zip(regions, results):
        lo, hi = max(region.t_start, trace.t_start), min(region.t_end, trace.t_end)
        if not lo < hi:
            assert isinstance(got, EmptyRegionError)
            with pytest.raises(EmptyRegionError):
                integrate(trace, region)
            continue
        assert got == integrate(trace, region)
        want = trapezoid_region_reference(trace.times, trace.watts, lo, hi)
        assert got.duration == hi - lo
        assert got.joules_per_channel == pytest.approx(want, rel=1e-9, abs=1e-9)
        assert got.joules_total == pytest.approx(sum(want), rel=1e-9, abs=1e-9)


@given(st.integers(0, 2**32 - 1), st.integers(2, 300), st.integers(1, 9))
@settings(max_examples=100, deadline=None)
def test_cumulative_energy_is_the_one_expression_bit_for_bit(seed, n, channels):
    rng = np.random.default_rng(seed)
    steps = rng.exponential(rng.choice([1e-3, 1.0, 1e5]), n - 1)
    steps[rng.random(n - 1) < 0.2] = 0.0  # equal timestamps
    times = rng.uniform(-10.0, 10.0) + np.concatenate(([0.0], np.cumsum(steps)))
    rows = np.column_stack([times, rng.uniform(0.0, 300.0, (n, channels))])
    watts = rows[:, 1:]  # strided, as np.loadtxt's rows are sliced
    watts[rng.random(watts.shape) < 0.1] = 0.0
    watts[rng.random(watts.shape) < 0.1] = -0.0
    with np.errstate(all="ignore"):
        got = powertrace._cumulative_energy(times, watts)
        want = cumulative_energy_reference(times, watts)
    assert got.tobytes() == want.tobytes()


def test_integrate_many_short_regions_late_in_long_trace():
    # The cumulative integral reaches ~1e5 J per channel here while each
    # region holds ~0.3 J, so a prefix-sum difference cancels about 6 digits;
    # 1e-8 relative still leaves a 1000x margin over double rounding.
    rng = np.random.default_rng(2024)
    n, channels = 600_000, 8
    times = np.arange(n) / 1000.0
    trace = PowerTrace.build([f"c{i}" for i in range(channels)], times,
                             rng.uniform(0.0, 300.0, (n, channels)))
    starts = rng.uniform(trace.t_end - 1.0, trace.t_end - 0.01, 50)
    regions = [Region(f"r{i}", "forward", a, a + rng.uniform(0.0015, 0.0025))
               for i, a in enumerate(starts)]
    for region, got in zip(regions, integrate_many(trace, regions)):
        first, last = np.searchsorted(times, [region.t_start, region.t_end])
        around = slice(first - 1, last + 1)
        want = trapezoid_region_reference(trace.times[around], trace.watts[around],
                                          region.t_start, region.t_end)
        assert got.joules_per_channel == pytest.approx(want, rel=1e-8)
        assert got.joules_total == pytest.approx(sum(want), rel=1e-8)


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------

def test_trace_csv_round_trip():
    trace = generate_synthetic_trace(
        [SegmentSpec(0.01, 80.0), SegmentSpec(0.01, 80.0, 160.0)],
        sample_rate=500.0, channels=3)
    again = parse_trace(io.StringIO(trace_csv(trace)))
    assert again.channel_labels == trace.channel_labels
    np.testing.assert_allclose(again.times, trace.times, rtol=1e-8)
    np.testing.assert_allclose(again.watts, trace.watts, rtol=1e-5)


def test_parse_trace_validates_header_and_rows():
    with pytest.raises(TraceFormatError):
        parse_trace(io.StringIO("time,ch1_w\n0,1\n"))  # wrong time column
    with pytest.raises(TraceFormatError):
        parse_trace(io.StringIO("t_s,ch1\n0,1\n"))  # missing _w suffix
    with pytest.raises(TraceFormatError):
        parse_trace(io.StringIO("t_s,ch1_w\n0,abc\n"))
    with pytest.raises(ChannelCountMismatchError):
        parse_trace(io.StringIO("t_s,ch1_w\n0,1,2\n"))  # extra cell


def _outcome(parse):
    """(labels, times, watts) of a parse, or its error class and line number."""
    try:
        trace = parse()
    except (ChannelCountMismatchError, TraceFormatError, NonMonotoneTimeError) as exc:
        line = re.match(r"line (\d+):", str(exc))
        return type(exc), line and int(line.group(1))
    return trace.channel_labels, trace.times.tolist(), trace.watts.tolist()


NUMBER_CELLS = st.one_of(
    st.floats(0.0, 1e6).map(repr),
    st.integers(0, 10**6).map(str),
    st.floats(0.0, 1e6).map(lambda x: f"{x:.3e}"),
    st.sampled_from(["0", "+1", ".5", "5.", "1E3", "inf", "-inf", "nan", "Infinity"]),
)
BAD_CELLS = st.sampled_from(["", "#", "# 1", "1#", "abc", "1 2", "1e", "0x10", "--1", "n/a"])
PADDING = st.sampled_from(["", " ", "  ", "\t", " \t"])


#: Cells that a trace accepts: finite, and watts not below zero.
VALID_CELLS = st.one_of(
    st.floats(0.0, 1e6).map(repr),
    st.integers(0, 10**6).map(str),
    st.sampled_from(["0", "-0.0", "+1", ".5", "5.", "1E3", "1e-320"]),
)


@st.composite
def trace_texts(draw, valid=False):
    """Trace CSV that is mostly valid: increasing times, numeric cells, with
    padded cells, blank and whitespace-only lines, CRLF endings, and some
    wrong column counts and non-numeric cells. If ``valid``, a trace that
    :func:`parse_trace` accepts: no such faults, and no whitespace-only line."""
    n_cols = draw(st.integers(2, 4))
    header = ",".join(["t_s"] + [f"ch{i}_w" for i in range(1, n_cols)])
    headers = [header, " " + header.replace(",", " , ")]
    lines = [draw(st.sampled_from(headers if valid else [*headers, "t_s,x"]))]
    for k in range(draw(st.integers(1 if valid else 0, 8))):
        width = n_cols if valid or draw(st.integers(0, 9)) else draw(st.integers(1, n_cols + 2))
        cells = [f"{k * 0.5!r}"] + [draw(VALID_CELLS if valid else NUMBER_CELLS)
                                    for _ in range(width - 1)]
        if not (valid or draw(st.integers(0, 9))):
            cells[draw(st.integers(0, width - 1))] = draw(BAD_CELLS)
        lines.append(",".join(draw(PADDING) + c + draw(PADDING) for c in cells))
        if not draw(st.integers(0, 4)):
            lines.append(draw(st.sampled_from([""] if valid else ["", " ", "\t", "  \t "])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@given(trace_texts())
@settings(max_examples=300, deadline=None)
def test_parse_trace_matches_line_by_line_parser(text):
    want = _outcome(lambda: PowerTrace.build(*parse_trace_rows_reference(text)))
    assert _outcome(lambda: parse_trace(text)) == want


#: What str.splitlines breaks a line at (all but NUL). Of these, a file read
#: with universal newlines breaks only at \r; np.loadtxt reads the others, and
#: NUL, as part of a line.
LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\x00"]


@st.composite
def trace_files(draw):
    """The bytes of a trace file: a :func:`trace_texts` text, valid or not,
    some with blank lines before the header, cut to the header alone, with
    characters of :data:`LINE_BREAKS` put in, or with a byte that is not
    UTF-8."""
    text = draw(st.one_of(trace_texts(), trace_texts(valid=True)))
    if not draw(st.integers(0, 4)):
        text = draw(st.sampled_from(["\n", " \n", "\r\n\t\n"])) + text
    if not draw(st.integers(0, 5)):
        text = text.splitlines(keepends=True)[0]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(LINE_BREAKS)) + text[at:]
    data = text.encode("utf-8")
    if not draw(st.integers(0, 5)):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3"])) + data[at:]
    return data


def _bits(call):
    """A trace as its labels and the bytes of its arrays, or the class and
    message of the error ``call`` raised."""
    try:
        trace = call()
    except (DataFormatError, ChannelCountMismatchError, TraceFormatError,
            NonMonotoneTimeError) as exc:
        return type(exc), str(exc)
    return (trace.channel_labels, trace.times.shape, trace.watts.shape,
            trace.times.tobytes(), trace.watts.tobytes())


@given(trace_files())
@example(b"t_s,a_w\n1\x0c,2\n")  # one row, [1, 2]: \x0c does not end a line
@example(b"t_s,a_w\n-0.0,-0.0\n1,0\n")
@example(b"t_s,a_w\n")
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_trace_reads_a_file_as_parse_trace_reads_its_text(tmp_path, data):
    path = tmp_path / "trace.csv"
    path.write_bytes(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        want = DataFormatError, f"{path}: {exc}"
    else:
        want = _bits(lambda: parse_trace(text))
        if isinstance(want[0], type):
            want = want[0], f"{path}: {want[1]}"
    assert _bits(lambda: powertrace.load_trace(path)) == want


@contextlib.contextmanager
def piped(data: bytes):
    """A path that reads ``data`` from a pipe, as ``/dev/stdin`` reads one
    that a shell pipes in; a thread writes it."""
    read_fd, write_fd = os.pipe()

    def write():
        with contextlib.suppress(BrokenPipeError), open(write_fd, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        yield f"/dev/fd/{read_fd}"
    finally:
        os.close(read_fd)
        writer.join(timeout=60)
        assert not writer.is_alive()


def _trace_bits(path):
    trace = powertrace.load_trace(path)
    return trace.channel_labels, trace.times.tobytes(), trace.watts.tobytes()


def outcome_in(path, load):
    """What ``load(path)`` returns, or the class and message of the error
    it raises, with the path written as ``<path>``."""
    try:
        return "ok", load(path)
    except CnnergyError as exc:
        return type(exc), str(exc).replace(str(path), "<path>")


#: A fault past numpy's and the text decoder's first chunks, and past a
#: pipe's buffer, and the error it gives.
LATE_FAULTS = {
    "none": None,
    "row": "line 20002: non-numeric cell in '20000,x'",
    "byte": "'utf-8' codec can't decode byte 0xff in position 100000: invalid start byte",
}


@pytest.mark.parametrize("fault", sorted(LATE_FAULTS))
def test_a_pipe_reads_as_the_file_does_far_into_the_trace(tmp_path, fault):
    data = ("t_s,a_w\n" + "".join(f"{i},{i % 7}.5\n" for i in range(20_000))).encode()
    if fault == "row":
        data += b"20000,x\n"
    elif fault == "byte":
        data = data[:100_000] + b"\xff" + data[100_000:]
    path = tmp_path / "trace.csv"
    path.write_bytes(data)
    from_file = outcome_in(path, _trace_bits)
    with piped(data) as pipe:
        assert outcome_in(pipe, _trace_bits) == from_file
    if LATE_FAULTS[fault]:
        assert from_file[1] == f"<path>: {LATE_FAULTS[fault]}"
    else:
        assert from_file[1][0] == ("a",)


def _times_and_watts(trace):
    return trace.times.tolist(), trace.watts.tolist()


#: Per reader of a text: a text whose one row holds @, and what it reads as.
ONE_ROW_TEXTS = {
    "trace": (lambda source: _times_and_watts(parse_trace(source)), "t_s,a_w\n1@,2\n",
              ([1.0], [[2.0]])),
    "regions": (parse_regions, "id,label,t_start_s,t_end_s\nr1,forward,0@,1\n",
                [Region("r1", "forward", 0.0, 1.0)]),
    "measurements": (energymodel.parse_measurements,
                     "device,network,step,gpus,batch,seconds_per_batch,joules_per_batch\n"
                     "pascal,n,forward,1,64@,0.5,4\n",
                     [energymodel.MeasurementRecord("pascal", "n", "forward", 1, 64, 0.5, 4.0)]),
    "arch": (lambda source: [layer.kernel_w for layer in arch.parse_network(source).layers],
             "input 8 8 3\nconv c1 filters=4@k=3\n", [3]),
}


def test_only_lf_cr_lf_and_cr_end_a_line(tmp_path):
    # str.splitlines also breaks at \x0b, \x0c, \x1c-\x1e, \x85, \u2028 and
    # \u2029; a text file's lines do not, and neither do those of any reader.
    path = tmp_path / "one_row"
    for parse, text, want in ONE_ROW_TEXTS.values():
        for char in "\x0b\x0c\x1c\x85\u2028\u2029":
            path.write_text(text.replace("@", char), encoding="utf-8")
            assert parse(text.replace("@", char)) == want
            assert read_file(path, parse) == want
        for newline in ("\r", "\r\n"):
            path.write_bytes(text.replace("@", " ").replace("\n", newline).encode())
            assert parse(text.replace("@", " ").replace("\n", newline)) == want
            assert read_file(path, parse) == want
    with pytest.raises(ChannelCountMismatchError, match="^line 2: expected 2 columns, got 3$"):
        parse_trace("t_s,a_w\n0,1\x0c1,2\n")
    assert parse_trace("t_s,a_w\r0,1\r\n\r1,2\r").times.tolist() == [0.0, 1.0]


def test_every_reader_reads_a_bare_cr_stream_as_one_line():
    # A stream's lines are the lines it yields, and a StringIO's end only at
    # LF: with bare CRs its whole text is the header line, which every reader
    # refuses; with CR LF each line ends in a CR that the reader strips.
    refusals = {"trace": r"^trace header must be t_s,<label>_w,\.\.\.; got 't_s,a_w\\r1 ,2\\r'$",
                "regions": "^region header must be ",
                "measurements": "^measurement header must be ",
                "arch": "^line 1: first line must be: input <w> <h> <ch>$"}
    for name, (parse, text, want) in ONE_ROW_TEXTS.items():
        with pytest.raises(CnnergyError, match=refusals[name]):
            parse(io.StringIO(text.replace("@", " ").replace("\n", "\r")))
        assert parse(io.StringIO(text.replace("@", " ").replace("\n", "\r\n"))) == want


def test_parse_trace_refuses_a_stream_that_cannot_seek():
    # Its error path reads the stream again; load_trace holds a pipe's bytes.
    with piped(b"t_s,a_w\n0,1\n") as pipe, open(pipe, encoding="utf-8") as fh:
        with pytest.raises(TraceFormatError,
                           match="^a trace stream must be seekable; load_trace reads a pipe$"):
            parse_trace(fh)


def test_parse_trace_numbers_the_lines_a_stream_yields():
    # A StringIO's lines end only at LF, for its rows and for its error.
    with pytest.raises(ChannelCountMismatchError, match="^line 2: expected 2 columns, got 3$"):
        parse_trace(io.StringIO("t_s,a_w\n0,1\r1,2\n"))


def test_a_trace_text_keeps_its_lone_surrogates():
    # a str is read as its UTF-8 bytes; a surrogate that is not UTF-8 goes through
    assert parse_trace("t_s,\ud800_w\n0,1\n").channel_labels == ("\ud800",)
    with pytest.raises(TraceFormatError, match=r"^line 2: non-numeric cell in '0,\\ud800'$"):
        parse_trace("t_s,a_w\n0,\ud800\n")


def test_parse_trace_rejects_what_only_float_accepts():
    # The one intended difference from float(): numpy reads neither digit
    # separators nor non-ASCII digits.
    for cell in ("1_0", "\u0661"):
        text = f"t_s,a_w\n0,1\n1,{cell}\n"
        assert PowerTrace.build(*parse_trace_rows_reference(text)).watts[1, 0] > 0
        with pytest.raises(TraceFormatError, match="^line 3: non-numeric"):
            parse_trace(text)


def test_parse_trace_errors_name_the_line_in_the_file():
    # blank lines count, as in an editor
    with pytest.raises(TraceFormatError, match="^line 5: non-numeric cell in '2,x'$"):
        parse_trace("t_s,a_w\n0,1\n\n \n2,x\n")
    with pytest.raises(ChannelCountMismatchError, match="^line 6: expected 2 columns, got 3$"):
        parse_trace("\nt_s,a_w\n0,1\n\n1,2\n2,1,3\n")


def test_parse_trace_strips_watt_suffix():
    trace = parse_trace(io.StringIO("t_s,pcie_12v_w,ext12v_1_w\n0,1,2\n1,3,4\n"))
    assert trace.channel_labels == ("pcie_12v", "ext12v_1")


#: Values at the vectorised formatter's decision boundaries: ties at 6 and 9
#: digits, rounding that carries into one more digit, the fixed/exponential
#: edges and values far past them (1e-17, 1e28), neighbours of powers of ten
#: (where floor(log10) may be one off) and the ends of the range.
EDGE_WATTS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              123456.5, 12345.25, 1234.125, 999999.5, 99999.95, 9.999995e-05, 999999.7,
              1e-4, 1e-5, 9.99999e-05, 1e6, 1e9, 1e-17, 1e-18, 1e27, 1e28,
              999.9999999999999, 1000.0000000000001, 0.09999999999999999, 0.1]


@st.composite
def csv_traces(draw):
    """(times, watts rows): any finite timestamps, subnormals included, and
    watts from the whole finite range >= 0 or from :data:`EDGE_WATTS`."""
    channels = draw(st.integers(1, 4))
    times = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=1, max_size=20, unique=True))
    watts = st.one_of(st.floats(min_value=0.0, allow_infinity=False), st.sampled_from(EDGE_WATTS))
    rows = draw(st.lists(st.lists(watts, min_size=channels, max_size=channels),
                         min_size=len(times), max_size=len(times)))
    return sorted(times), rows


@given(csv_traces())
@example(([12345678.25, 123456789.5],  # 9-digit ties, broken to even
          [[123456.5, 12345.25, 1234.125], [999999.5, 99999.95, 9.999995e-05]]))
@example(([-1e-5, 1e-5, 9.9999999995e-05, 1e-4, 999999999.7, 1e9, 1e27, 1e30],
          [[1e-4, 1e-5, 1e6], [9.99999e-05, 999999.4, 1e5], [1e9, 0.0, -0.0],
           [1e-17, 1e-18, 1e27], [1e28, 999999.7, 5e-324], [1.0, 10.0, 100.0],
           [0.1, 0.01, 0.001], [1e-3, 1e-2, 1e-1]]))
@example(([-0.0, 5e-324, 1.7976931348623157e308],
          [[5e-324, 1.7976931348623157e308, 0.0]] * 3))
@settings(max_examples=300, deadline=None)
def test_trace_csv_matches_cell_by_cell_emitter(table):
    times, rows = table
    labels = [f"c{i}" if i % 2 else f"\u00e9{i}" for i in range(len(rows[0]))]  # UTF-8 too
    trace = PowerTrace.build(labels, times, rows)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        text = trace_csv(trace)
    assert text == trace_csv_reference(trace)


def test_trace_csv_matches_cell_by_cell_emitter_across_blocks():
    trace = generate_synthetic_trace([SegmentSpec(9.0, 50.0, 250.0)], sample_rate=997.3,
                                     channels=3, noise_sigma=2.0, seed=5)
    assert trace.n_samples > 2 * powertrace._CSV_BLOCK_ROWS
    assert trace_csv(trace) == trace_csv_reference(trace)


def test_only_exponential_notation_and_near_ties_are_formatted_by_percent():
    # Fixed notation, the 0.000ddd lead included, is formatted at array speed.
    fixed = [0.0, -0.0, 0.00012, 0.5, 6.25, 999999.4]
    assert powertrace._GCells(np.array(fixed), 6).slow.tolist() == []
    cells = powertrace._GCells(np.array(fixed + [9.99e-05, 1e6, 123456.5]), 6)
    assert cells.slow.tolist() == [6, 7, 8]


def test_parse_regions():
    regions = parse_regions(io.StringIO(
        "id,label,t_start_s,t_end_s\nf0,forward,0.0,0.5\nb0,backward,0.5,1.5\n"))
    assert [r.id for r in regions] == ["f0", "b0"]
    assert regions[1].label == "backward"
    with pytest.raises(TraceFormatError):
        parse_regions(io.StringIO("id,label\nf0,forward\n"))
    with pytest.raises(TraceFormatError):
        parse_regions(io.StringIO(
            "id,label,t_start_s,t_end_s\nf0,warmup,0.0,0.5\n"))


def test_region_results_csv_reports_failures_in_place():
    trace = flat_trace(watts=100.0, t_end=2.0)
    regions = [Region("ok", "forward", 0.0, 1.0),
               Region("late", "other", 5.0, 6.0)]
    lines = render((), powertrace._region_rows(trace, regions)).strip().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["id", "label", "duration_s", "joules_total", "mean_watts"]
    assert header[-1] == "error"
    ok, late = lines[1].split(","), lines[2].split(",")
    assert len(ok) == len(late) == len(header)
    assert float(ok[3]) == pytest.approx(100.0)
    assert ok[-1] == ""
    assert late[-1] == "EmptyRegionError"
    assert late[3] == ""


# ---------------------------------------------------------------------------
# Synthetic trace generation
# ---------------------------------------------------------------------------

def test_synthetic_step_profile_integrates_exactly():
    trace = generate_synthetic_trace(
        [SegmentSpec(1.0, 100.0), SegmentSpec(1.0, 200.0)], sample_rate=100.0)
    total = integrate(trace, Region("r", "forward", 0.0, 2.0)).joules_total
    assert total == pytest.approx(300.0, rel=1e-12)


def test_synthetic_ramp_profile_integrates_exactly():
    trace = generate_synthetic_trace([SegmentSpec(1.0, 100.0, 200.0)],
                                     sample_rate=250.0)
    total = integrate(trace, Region("r", "forward", 0.0, 1.0)).joules_total
    assert total == pytest.approx(trapezoid_segment_energy(100, 200, 1.0),
                                  rel=1e-12)


def test_synthetic_channels_split_evenly():
    trace = generate_synthetic_trace([SegmentSpec(0.1, 80.0)], channels=4,
                                     sample_rate=100.0)
    assert trace.n_channels == 4
    np.testing.assert_allclose(trace.watts, 20.0)


def test_synthetic_default_labels():
    trace = generate_synthetic_trace([SegmentSpec(0.01, 8.0)], channels=8)
    assert trace.channel_labels == DEFAULT_CHANNEL_LABELS
    assert default_labels(2) == ("ch1", "ch2")


def test_synthetic_noise_is_seeded_and_nonnegative():
    segments = [SegmentSpec(0.05, 1.0)]  # tiny power so noise wants to go negative
    a = generate_synthetic_trace(segments, noise_sigma=5.0, seed=7)
    b = generate_synthetic_trace(segments, noise_sigma=5.0, seed=7)
    c = generate_synthetic_trace(segments, noise_sigma=5.0, seed=8)
    np.testing.assert_array_equal(a.watts, b.watts)
    assert not np.array_equal(a.watts, c.watts)
    assert (a.watts >= 0).all()


WATTS = st.sampled_from([0.0, -0.0, 1e-300, 80.0, 1.7e308, -1e-300, -1.0,
                         math.inf, -math.inf, math.nan])


@given(WATTS, st.none() | WATTS)
def test_segment_watts_are_finite_and_non_negative_at_both_ends(start, end):
    valid = all(0 <= watts < math.inf for watts in (start, start if end is None else end))
    if valid:
        segment = SegmentSpec(1.0, start, end)
        assert (segment.start_watts, segment.end_watts) == (start, end)
    else:
        with pytest.raises(ValueError, match="^segment watts must be finite and >= 0$"):
            SegmentSpec(1.0, start, end)


def test_synthetic_rejects_bad_segments():
    with pytest.raises(ValueError):
        SegmentSpec(0.0, 100.0)
    with pytest.raises(ValueError):
        SegmentSpec(1.0, -1.0)
    with pytest.raises(ValueError):
        SegmentSpec(math.inf, 100.0)
    with pytest.raises(ValueError):
        SegmentSpec(math.nan, 100.0)
    with pytest.raises(ValueError):
        generate_synthetic_trace([])
    with pytest.raises(ValueError):
        generate_synthetic_trace([SegmentSpec(1.0, 1.0)], sample_rate=math.inf)
    for sigma in (math.nan, -1.0, math.inf):
        with pytest.raises(ValueError, match="^noise_sigma must be finite and >= 0"):
            generate_synthetic_trace([SegmentSpec(1.0, 1.0)], noise_sigma=sigma, seed=1)


@given(st.lists(st.tuples(st.floats(1e-4, 0.5), st.floats(0.0, 300.0),
                          st.one_of(st.none(), st.floats(0.0, 300.0))),
                min_size=1, max_size=4),
       st.sampled_from([1.0, 3.0, 100.0, 997.3, 1000.0, 4096.0]))
@example([(0.5, 1e308, None), (0.5, 1.7e308, 1e308), (0.5, 100.0, None)], 4.0)  # a + b overflows
@settings(max_examples=150, deadline=None)
def test_synthetic_samples_match_loop_reference(parts, rate):
    segments = [SegmentSpec(*p) for p in parts]
    times, totals = synthetic_samples_reference(segments, rate)
    trace = generate_synthetic_trace(segments, sample_rate=rate, channels=2)
    assert trace.times.tolist() == times
    assert trace.watts.tolist() == [[w / 2] * 2 for w in totals]


@given(st.lists(st.tuples(st.floats(1e-3, 0.2), st.sampled_from([0.0, -0.0, 0.5, 80.0, 300.0]),
                          st.one_of(st.none(), st.sampled_from([0.0, -0.0, 120.0]))),
                min_size=1, max_size=3),
       st.integers(1, 8), st.sampled_from([1e-3, 1.0, 40.0]), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_synthetic_noise_is_the_repeat_and_clip_bit_for_bit(parts, channels, sigma, seed):
    segments = [SegmentSpec(*p) for p in parts]
    level = generate_synthetic_trace(segments, sample_rate=1000.0, channels=channels).watts
    want = noisy_watts_reference(level[:, :1], channels, sigma, seed)
    got = generate_synthetic_trace(segments, sample_rate=1000.0, channels=channels,
                                   noise_sigma=sigma, seed=seed).watts
    assert got.tobytes() == want.tobytes()


def test_synthetic_size_cap_refuses_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(TraceTooLargeError, match="exceeds the limit"):
            generate_synthetic_trace([SegmentSpec(1e12, 100.0)], sample_rate=1000.0)
        with pytest.raises(TraceTooLargeError):
            generate_synthetic_trace([SegmentSpec(0.01, 100.0)], channels=10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_negative_seed_is_refused_before_anything_is_built():
    # numpy's own error names no option; this one is checked before the size cap
    with pytest.raises(ValueError, match=r"^seed \(--seed\) must be >= 0, got -5$"):
        generate_synthetic_trace([SegmentSpec(1e12, 100.0)], noise_sigma=1.0, seed=-5)
    assert generate_synthetic_trace([SegmentSpec(0.01, 100.0)], noise_sigma=1.0,
                                    seed=0).n_samples == 11


def test_synthetic_size_cap_bounds_the_sample_count(monkeypatch):
    # 0.1 s at 1 kHz holds 101 samples (the junction, 99 interior, the
    # final one); the check admits it against duration x rate + 2 per segment
    # + 1 = 103 samples, so before any sample exists.
    monkeypatch.setattr(powertrace, "MAX_SYNTHETIC_VALUES", 2 * 103)
    trace = generate_synthetic_trace([SegmentSpec(0.1, 10.0)], channels=2)
    assert trace.n_samples == 101
    with pytest.raises(TraceTooLargeError):
        generate_synthetic_trace([SegmentSpec(0.1, 10.0)], channels=3)
    with pytest.raises(TraceTooLargeError):
        generate_synthetic_trace([SegmentSpec(0.1005, 10.0)], channels=2)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_random_trace_split_additivity(seed):
    rng = np.random.default_rng(seed)
    segments = [
        SegmentSpec(float(rng.uniform(0.05, 0.3)), float(rng.uniform(0, 300)),
                    float(rng.uniform(0, 300)) if rng.random() < 0.5 else None)
        for _ in range(rng.integers(1, 4))
    ]
    trace = generate_synthetic_trace(segments, sample_rate=200.0,
                                     noise_sigma=2.0, seed=seed)
    t0, t1 = trace.t_start, trace.t_end
    mid = t0 + float(rng.uniform(0.25, 0.75)) * (t1 - t0)
    whole = integrate(trace, Region("w", "forward", t0, t1)).joules_total
    left = integrate(trace, Region("l", "forward", t0, mid)).joules_total
    right = integrate(trace, Region("r", "forward", mid, t1)).joules_total
    assert left + right == pytest.approx(whole, rel=1e-9)
