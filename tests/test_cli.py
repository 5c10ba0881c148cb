"""End-to-end command-line checks (in-process, no subprocesses)."""
import codecs
import contextlib
import csv
import io
import json
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cnnergy import arch, cli, energymodel, powertrace
from cnnergy._tables import read_file
from cnnergy.errors import DataFormatError, TraceFormatError

from oracles import trace_csv_reference
from test_arch import arch_texts
from test_powertrace import LATE_FAULTS, outcome_in, piped

TOY_ARCH = """\
# network: toy
input 8 8 3
conv c1 filters=4 k=3 stride=1 pad=1 bias=true
relu r1
fc f1 units=10
softmax out
"""

CONSTANT_TRACE = "t_s,gpu_w\n0,100\n1,100\n2,100\n"

REGIONS = ("id,label,t_start_s,t_end_s\n"
           "r1,forward,0,2\n"
           "r2,other,5,6\n")

MEASUREMENTS = (
    "device,network,step,gpus,batch,seconds_per_batch,joules_per_batch\n"
    "pascal,net_a,forward,1,64,0.01,4.0\n"
    "pascal,net_a,forward,1,128,0.02,8.0\n"
    "pascal,net_a,backward,1,64,0.03,9.0\n"
)

MODEL = {"device": "pascal", "network": "net_a", "step": "forward", "gpus": 1,
         "quantity": "seconds", "slope": 1e-4, "intercept": 0.001, "r_squared": 1.0,
         "residuals": [0.0, 0.0], "batch_min": 64, "batch_max": 128, "n_points": 2}

# finite cells whose fit overflows: the residuals square past the float range
OVERFLOWING_MEASUREMENTS = (
    "device,network,step,gpus,batch,seconds_per_batch,joules_per_batch\n"
    "pascal,net_a,forward,1,64,1e300,4.0\n"
    "pascal,net_a,forward,1,128,1.7e308,8.0\n"
    "pascal,net_a,forward,1,256,1e300,9.0\n"
)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_builtin_totals(capsys):
    code, out, err = run(["analyze", "--builtin", "caffenet"], capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "# network: caffenet"
    assert "# total_ops: 729009656" in lines
    assert "# read_mb: 239.077" in lines
    assert "# written_mb: 5.9679" in lines
    assert "# ctc: 11.632" in lines
    assert lines[5].startswith("layer,kind,")  # per-layer CSV header follows


def test_analyze_batch_scales_counts(capsys):
    code, out, _ = run(["analyze", "--builtin", "two_d_cnn", "--batch", "256"],
                       capsys)
    assert code == 0
    assert "# batch: 256" in out
    assert f"# total_ops: {256 * 783_854_257}" in out
    # the ratio is batch-invariant
    assert out.splitlines()[5].startswith("# ctc: 40.5")


def test_analyze_arch_file_prefers_embedded_name(tmp_path, capsys):
    path = tmp_path / "something_else.net"
    path.write_text(TOY_ARCH, encoding="utf-8")
    code, out, _ = run(["analyze", "--arch", str(path)], capsys)
    assert code == 0
    assert out.splitlines()[0] == "# network: toy"


def test_analyze_arch_file_falls_back_to_stem(tmp_path, capsys):
    path = tmp_path / "tiny.net"
    path.write_text(TOY_ARCH.replace("# network: toy\n", ""), encoding="utf-8")
    code, out, _ = run(["analyze", "--arch", str(path)], capsys)
    assert code == 0
    assert out.splitlines()[0] == "# network: tiny"


def test_analyze_missing_file_exits_2(capsys):
    code, out, err = run(["analyze", "--arch", "/nonexistent/file.net"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_analyze_rejects_bad_batch(capsys):
    code, _, err = run(["analyze", "--builtin", "caffenet", "--batch", "0"], capsys)
    assert code == 2 and "error:" in err


def test_analyze_rejects_element_bytes_below_one(tmp_path, capsys):
    path = tmp_path / "empty.net"
    path.write_text("input 4 4 1\n", encoding="utf-8")
    for source in (["--builtin", "caffenet"], ["--arch", str(path)]):
        code, out, err = run(["analyze", *source, "--element-bytes", "0"], capsys)
        assert (code, out, err) == (2, "", "error: element_bytes must be >= 1\n")


def test_analyze_refuses_a_comma_in_a_layer_name(tmp_path, capsys):
    # the name is a cell of the cost CSV: a comma in it would add a column
    path = tmp_path / "comma.net"
    path.write_text(TOY_ARCH.replace("relu r1", "relu a,b"), encoding="utf-8")
    for fmt in ("csv", "table"):
        code, out, err = run(["analyze", "--arch", str(path), "--format", fmt], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: line 4: ") and "'a,b'" in err


@pytest.mark.parametrize("name", ['"x', "total"])
def test_analyze_refuses_a_layer_name_that_breaks_the_cost_csv(name, tmp_path, capsys):
    # a quote would open a quoted CSV cell; "total" is the totals row's name
    path = tmp_path / "bad_name.net"
    path.write_text(TOY_ARCH.replace("relu r1", f"relu {name}"), encoding="utf-8")
    code, out, err = run(["analyze", "--arch", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: line 4: ") and repr(name) in err


def test_table_format_has_no_commas(capsys):
    code, out, _ = run(["analyze", "--builtin", "two_d_cnn",
                        "--format", "table"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# network: two_d_cnn"  # comments pass through untouched
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data and all("," not in ln for ln in data)
    assert data[0].startswith("layer")


# ---------------------------------------------------------------------------
# integrate / gen-trace
# ---------------------------------------------------------------------------

def test_integrate_reports_joules_and_failed_regions(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text(CONSTANT_TRACE, encoding="utf-8")
    regions = tmp_path / "regions.csv"
    regions.write_text(REGIONS, encoding="utf-8")
    code, out, _ = run(["integrate", "--trace", str(trace),
                        "--regions", str(regions)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "id,label,duration_s,joules_total,mean_watts,gpu_j,error"
    assert lines[1] == "r1,forward,2,200,100,200,"
    assert lines[2] == "r2,other,,,,,EmptyRegionError"


def test_integrate_bad_trace_exits_2(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("time,power\n0,1\n", encoding="utf-8")
    regions = tmp_path / "regions.csv"
    regions.write_text(REGIONS, encoding="utf-8")
    code, _, err = run(["integrate", "--trace", str(trace),
                        "--regions", str(regions)], capsys)
    assert code == 2 and err.startswith("error:")


def test_integrate_infinite_region_bound_exits_2(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text(CONSTANT_TRACE, encoding="utf-8")
    regions = tmp_path / "regions.csv"
    regions.write_text("id,label,t_start_s,t_end_s\nr1,forward,-inf,inf\n",
                       encoding="utf-8")
    code, out, err = run(["integrate", "--trace", str(trace),
                          "--regions", str(regions)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {regions}: line 2: region 'r1': t_start and t_end must be finite\n"


#: Traces whose trapezoid overflows: watts near the float limit, and a time
#: span whose sample step exceeds it.
OVERFLOWING_TRACES = {
    "huge_watts": ("t_s,a_w\n0,1e308\n1,1e308\n", "r1,forward,0,1"),
    "huge_span": ("t_s,a_w\n-1e308,1\n1e308,1\n", "r1,forward,-1,1"),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_TRACES))
def test_integrate_refuses_a_region_whose_energy_overflows(name, tmp_path, capsys):
    trace_text, region = OVERFLOWING_TRACES[name]
    trace = tmp_path / "trace.csv"
    trace.write_text(trace_text, encoding="utf-8")
    regions = tmp_path / "regions.csv"
    regions.write_text(f"id,label,t_start_s,t_end_s\n{region}\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(["integrate", "--trace", str(trace),
                              "--regions", str(regions)], capsys)
    assert (code, out, caught) == (2, "", [])
    assert err.startswith("error: region 'r1' ") and "overflows" in err
    assert err.count("\n") == 1


def test_integrate_and_calibrate_refuse_a_name_that_breaks_their_csv(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text(CONSTANT_TRACE, encoding="utf-8")
    regions = tmp_path / "regions.csv"
    regions.write_text(REGIONS.replace("r1,", '"r1,'), encoding="utf-8")
    code, out, err = run(["integrate", "--trace", str(trace), "--regions", str(regions)], capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: {regions}: line 2: region id must be without commas, double "
                   "quotes or line breaks, got '\"r1'\n")
    measurements = tmp_path / "measurements.csv"
    for old, new, what in (("pascal,net_a,forward,1,64,", '"pascal,net_a,forward,1,64,', "device"),
                           ("pascal,net_a,forward,1,64,", 'pascal,net"a,forward,1,64,', "network")):
        measurements.write_text(MEASUREMENTS.replace(old, new), encoding="utf-8")
        code, out, err = run(["calibrate", "--measurements", str(measurements)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {measurements}: line 2: {what} must be without commas, "
                              "double quotes")


@pytest.mark.parametrize("header, message", [
    ('t_s,"a_w,b_w', "must be non-empty and without commas, double quotes or line breaks, "
                     "got '\"a'"),
    ("t_s,_w", "must be non-empty and without commas, double quotes or line breaks, got ''"),
    ("t_s,a_w,a_w", "'a' appears twice"),
])
def test_integrate_refuses_a_channel_label_that_breaks_its_csv(header, message, tmp_path,
                                                              capsys):
    trace = tmp_path / "trace.csv"
    row = ",".join(["1"] * (header.count(",") + 1))
    trace.write_text(f"{header}\n0,{row[2:]}\n{row}\n", encoding="utf-8")
    regions = tmp_path / "regions.csv"
    regions.write_text(REGIONS, encoding="utf-8")
    code, out, err = run(["integrate", "--trace", str(trace), "--regions", str(regions)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {trace}: channel label {message}\n"


def test_gen_trace_energy_and_determinism(capsys):
    argv = ["gen-trace", "--segments", "100:1", "--rate", "10",
            "--channels", "2", "--noise", "0"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    trace = powertrace.parse_trace(io.StringIO(out))
    assert trace.channel_labels == ("ch1", "ch2")
    full = powertrace.Region("all", "other", trace.times[0], trace.times[-1])
    assert powertrace.integrate(trace, full).joules_total == pytest.approx(100.0)

    noisy = ["gen-trace", "--segments", "50:1,50-150:2", "--rate", "100",
             "--channels", "4", "--noise", "3", "--seed", "7"]
    _, first, _ = run(noisy, capsys)
    _, second, _ = run(noisy, capsys)
    assert first == second


@pytest.mark.parametrize("sigma", ["nan", "-1", "inf"])
def test_gen_trace_bad_noise_exits_2(sigma, capsys):
    code, out, err = run(["gen-trace", "--segments", "100:1", f"--noise={sigma}"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: noise_sigma must be finite and >= 0")


def test_gen_trace_negative_seed_exits_2_naming_the_option(capsys):
    code, out, err = run(["gen-trace", "--segments", "100:1", "--noise", "1", "--seed", "-5"],
                         capsys)
    assert (code, out, err) == (2, "", "error: seed (--seed) must be >= 0, got -5\n")


def test_gen_trace_bad_segment_exits_2(capsys):
    code, _, err = run(["gen-trace", "--segments", "watts-only"], capsys)
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("segments", ["nan:1", "inf:1", "100-nan:1", "nan-100:1", "100-inf:1"])
def test_gen_trace_non_finite_watts_exit_2_naming_the_segment(segments, capsys):
    code, out, err = run(["gen-trace", "--segments", f"100:1,{segments}"], capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: bad segment {segments!r} (want watts:seconds or "
                   "start-end:seconds): segment watts must be finite and >= 0\n")


@pytest.mark.parametrize("segments", ["1e308:1", "1e308:1,1e308:1"])
def test_gen_trace_accepts_levels_whose_sum_overflows(segments, capsys):
    # the junction sample between two levels near the float limit is their
    # midpoint, not an infinite sum halved; 1e308 prints through Python's %
    code, out, err = run(["gen-trace", "--segments", segments, "--channels", "1",
                          "--rate", "2"], capsys)
    assert (code, err) == (0, "")
    rows = out.splitlines()
    assert rows[0] == "t_s,ch1_w" and len(rows) == 2 * segments.count(":") + 2
    assert {row.split(",")[1] for row in rows[1:]} == {"1e+308"}


def test_gen_trace_refuses_the_table_format_before_building_a_trace(tmp_path, capsys):
    # integrate could not read a padded trace back; a trace over the size cap
    # shows that the format is refused first
    output = tmp_path / "trace.txt"
    for extra in ([], ["--output", str(output)]):
        code, out, err = run(["gen-trace", "--segments", "100:1e9", "--format", "table", *extra],
                             capsys)
        assert (code, out) == (2, "")
        assert err == "error: gen-trace prints CSV only; --format table is not supported\n"
    assert not output.exists()


def test_gen_trace_over_the_size_cap_exits_2(capsys):
    code, out, err = run(["gen-trace", "--segments", "100:1e9", "--rate", "1000"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "exceeds the limit" in err


class _Writes(io.StringIO):
    """Standard output that counts its writes."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_gen_trace_writes_the_bytes_of_trace_csv_block_by_block(tmp_path):
    segments = "50:5,50-150:5"
    argv = ["gen-trace", "--segments", segments, "--rate", "997.3", "--channels", "3",
            "--noise", "2", "--seed", "11"]
    trace = powertrace.generate_synthetic_trace(cli._parse_segments(segments), sample_rate=997.3,
                                                channels=3, noise_sigma=2.0, seed=11)
    blocks = -(-trace.n_samples // powertrace._CSV_BLOCK_ROWS)
    assert blocks >= 3
    want = trace_csv_reference(trace)
    stdout = _Writes()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    assert stdout.getvalue() == want
    assert stdout.writes == 1 + blocks  # the header, then each block as it is formatted
    output = tmp_path / "trace.csv"
    with contextlib.redirect_stdout(stdout):
        assert cli.main([*argv, "--output", str(output)]) == 0
    assert stdout.getvalue() == want  # nothing more on stdout
    assert output.read_bytes() == want.encode("ascii")


@pytest.mark.parametrize("refused", [["--noise", "nan"], ["--segments", "100:1e9"]])
def test_a_refused_gen_trace_leaves_the_output_file_as_it_was(refused, tmp_path, capsys):
    output = tmp_path / "trace.csv"
    output.write_bytes(b"kept\n")
    code, out, err = run(["gen-trace", "--segments", "100:1", *refused,
                          "--output", str(output)], capsys)
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert output.read_bytes() == b"kept\n"


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: 150 s at 1 kHz x 8 channels: 150001 samples, 1.2M watt values.
BIG_GEN_TRACE = ["gen-trace", "--segments", "200-80:150", "--noise", "1", "--seed", "3"]


def _big_trace_files(tmp_path):
    """The :data:`BIG_GEN_TRACE` trace file, 1000 regions over it, and the
    bytes of the trace's float64 arrays."""
    trace_file, regions = tmp_path / "trace.csv", tmp_path / "regions.csv"
    assert cli.main([*BIG_GEN_TRACE, "--output", str(trace_file)]) == 0
    trace = powertrace.load_trace(trace_file)
    assert trace.watts.size >= 1_200_000
    regions.write_text("id,label,t_start_s,t_end_s\n" + "".join(
        f"r{i},forward,{i * 0.15},{i * 0.15 + 0.3}\n" for i in range(1000)), encoding="utf-8")
    return trace_file, regions, trace.times.nbytes + trace.watts.nbytes


def test_trace_commands_hold_a_small_multiple_of_the_trace_arrays(tmp_path):
    # numpy reports its buffers to tracemalloc, so the peak counts every array.
    trace_file, regions, array_bytes = _big_trace_files(tmp_path)
    out = tmp_path / "out"
    # about 1.6x and 2.0x; the text and its lines were 3.2x and 4.0x
    assert _traced_peak([*BIG_GEN_TRACE, "--output", str(out)]) <= 2.0 * array_bytes
    assert _traced_peak(["integrate", "--trace", str(trace_file), "--regions", str(regions),
                         "--output", str(out)]) <= 2.5 * array_bytes


def test_a_non_ascii_label_keeps_integrate_in_one_pass(tmp_path):
    # One label outside ASCII changes nothing in how the rows are read.
    trace_file, regions, array_bytes = _big_trace_files(tmp_path)
    data = trace_file.read_bytes()
    assert b"ext12v_1_w" in data.split(b"\n", 1)[0]
    trace_file.write_bytes(data.replace(b"ext12v_1_w", "r\u00e9il1_w".encode(), 1))
    assert "r\u00e9il1" in powertrace.load_trace(trace_file).channel_labels
    assert _traced_peak(["integrate", "--trace", str(trace_file), "--regions", str(regions),
                         "--output", str(tmp_path / "out")]) <= 2.5 * array_bytes


def test_a_piped_trace_is_held_as_its_bytes(tmp_path):
    # A pipe is read once and held as bytes, about 1 byte a character of its
    # text (about 2.2x the arrays); held as a StringIO it was 4 (5.1x).
    trace_file, _, array_bytes = _big_trace_files(tmp_path)
    with piped(trace_file.read_bytes()) as pipe:
        tracemalloc.start()
        try:
            powertrace.load_trace(pipe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 2.5 * array_bytes


#: Per input file: its library reader and text parser, the argv of a command
#: that reads it as @, a text longer than a pipe's buffer, and a row that
#: the reader refuses, as the file's last line.
LONG_INPUTS = {
    "arch": (lambda path: read_file(path, arch.parse_network), arch.parse_network,
             ["analyze", "--arch", "@"],
             "# network: piped\ninput 8 8 3\n" + "".join(
                 f"relu relu_{i}\n" for i in range(9000)), "bogus x\n"),
    "measurements": (energymodel.load_measurements, energymodel.parse_measurements,
                     ["calibrate", "--measurements", "@"],
                     MEASUREMENTS.split("\n")[0] + "\n" + "".join(
                         f"pascal,n,forward,1,{b},{b * 1e-4},{b * 0.1}\n"
                         for b in range(1, 4000)), "pascal,n,forward,1,64,x,4\n"),
    "models": (energymodel.load_models,
               lambda text: energymodel._parse_models(io.StringIO(text)),
               ["predict", "--models", "@", "--device", "pascal", "--network", "n0",
                "--step", "forward", "--gpus", "1", "--batch", "64", "--quantity", "seconds"],
               json.dumps({"models": [{**MODEL, "network": f"n{i}"} for i in range(600)]},
                          indent=2), "x\n"),
    "regions": (powertrace.load_regions, powertrace.parse_regions,
                ["integrate", "--trace", "@trace", "--regions", "@"],
                REGIONS + "".join(f"r{i},forward,{i},{i + 1}\n" for i in range(3, 6000)),
                "x,sideways,0,1\n"),
}


@pytest.mark.parametrize("fault", sorted(LATE_FAULTS))
@pytest.mark.parametrize("reader", sorted(LONG_INPUTS))
def test_an_input_file_reads_as_its_text_and_as_a_pipe_does(reader, fault, tmp_path, capsys):
    load, parse, argv, text, bad_row = LONG_INPUTS[reader]
    data = text.encode() + (bad_row.encode() if fault == "row" else b"")
    if fault == "byte":
        data = data[:100_000] + b"\xff" + data[100_000:]
    path = tmp_path / reader
    path.write_bytes(data)
    (tmp_path / "trace").write_text(CONSTANT_TRACE, encoding="utf-8")
    from_file = outcome_in(path, load)
    with piped(data) as pipe:
        assert outcome_in(pipe, load) == from_file
    argv = [str(tmp_path / a[1:]) if a.startswith("@") and a != "@" else a for a in argv]
    by_file = run([str(path) if a == "@" else a for a in argv], capsys)
    with piped(data) as pipe:
        code, out, err = run([pipe if a == "@" else a for a in argv], capsys)
        assert (code, out, err.replace(pipe, str(path))) == by_file
    assert by_file[0] == (0 if fault == "none" else 2)
    if fault == "byte":
        assert from_file == (DataFormatError, f"<path>: {LATE_FAULTS['byte']}")
    else:
        want = outcome_in(path, lambda _: parse(data.decode()))
        assert from_file == (want if want[0] == "ok" else (want[0], f"<path>: {want[1]}"))
        assert (want[0] == "ok") == (fault == "none")


#: Per input file: the argv of a command that reads it as @, and a text it reads.
BOM_INPUTS = {
    "arch": (["analyze", "--arch", "@"], TOY_ARCH),  # its first line is a comment
    "measurements": (["calibrate", "--measurements", "@"], MEASUREMENTS),
    "models": (["predict", "--models", "@", "--device", "pascal", "--network", "net_a",
                "--step", "forward", "--gpus", "1", "--batch", "64", "--quantity", "seconds"],
               json.dumps({"models": [MODEL]})),
    "regions": (["integrate", "--trace", "@trace", "--regions", "@"], REGIONS),
    "trace": (["integrate", "--trace", "@", "--regions", "@regions"], CONSTANT_TRACE),
}


@pytest.mark.parametrize("reader", sorted(BOM_INPUTS))
def test_a_byte_order_mark_starts_any_input_file(reader, tmp_path, capsys):
    argv, text = BOM_INPUTS[reader]
    (tmp_path / "trace").write_text(CONSTANT_TRACE, encoding="utf-8")
    (tmp_path / "regions").write_text(REGIONS, encoding="utf-8")
    path = tmp_path / "input"
    argv = [str(path) if a == "@" else str(tmp_path / a[1:]) if a[0] == "@" else a
            for a in argv]
    path.write_text(text, encoding="utf-8")
    plain = run(argv, capsys)
    assert plain[0] == 0
    path.write_text(text, encoding="utf-8-sig")
    assert run(argv, capsys) == plain
    # a bad byte is named at its offset in the file, the mark's 3 bytes counted
    path.write_bytes(codecs.BOM_UTF8 + text.encode()[:10] + b"\xff\n")
    assert run(argv, capsys) == (2, "", f"error: {path}: 'utf-8' codec can't decode byte "
                                        "0xff in position 13: invalid start byte\n")


def test_integrate_reads_a_form_feed_as_part_of_its_row(tmp_path, capsys):
    # Only LF, CR LF and CR end a line, so this row has 3 cells.
    (tmp_path / "trace").write_text("t_s,a_w\n0,1\x0c1,2\n", encoding="utf-8")
    (tmp_path / "regions").write_text(REGIONS, encoding="utf-8")
    code, out, err = run(["integrate", "--trace", str(tmp_path / "trace"),
                          "--regions", str(tmp_path / "regions")], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {tmp_path / 'trace'}: line 2: expected 2 columns, got 3\n"


#: Per input reader: the argv that reads it as @bad, a text it refuses, and
#: the start of the error, which names the file.
BAD_FILES = {
    "arch": (["analyze", "--arch", "@bad"], "input 8 8 3\nbogus x\n",
             "line 2: unknown layer kind 'bogus'"),
    "trace": (["integrate", "--trace", "@bad", "--regions", "@regions"],
              "t_s,gpu_w\n0,100\n\nx,100\n", "line 4: non-numeric cell in 'x,100'"),
    "regions": (["integrate", "--trace", "@trace", "--regions", "@bad"],
                "id,label,t_start_s,t_end_s\nr1,forward,0,x\n",
                "line 2: could not convert string to float: 'x'"),
    "measurements": (["calibrate", "--measurements", "@bad"],
                     MEASUREMENTS.replace("0.02,8.0", "x,8.0"),
                     "line 3: could not convert string to float: 'x'"),
}


@pytest.mark.parametrize("reader", sorted(BAD_FILES))
def test_an_input_file_error_names_the_file(reader, tmp_path, capsys):
    argv, text, message = BAD_FILES[reader]
    (tmp_path / "trace").write_text(CONSTANT_TRACE, encoding="utf-8")
    (tmp_path / "regions").write_text(REGIONS, encoding="utf-8")
    bad = tmp_path / "bad"
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    for data, start in ((text.encode(), message),
                        (text.encode()[:12] + b"\xff\n", "'utf-8' codec can't decode byte 0xff")):
        bad.write_bytes(data)
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}: {start}"), err


def test_input_file_errors_keep_their_class(tmp_path):
    bad = tmp_path / "bad"
    for load, error in ((powertrace.load_trace, TraceFormatError),
                        (powertrace.load_regions, TraceFormatError),
                        (energymodel.load_measurements, DataFormatError)):
        bad.write_text("x\n", encoding="utf-8")
        with pytest.raises(error, match=f"^{re.escape(str(bad))}: .* header must be"):
            load(bad)
        bad.write_bytes(b"\xff")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(bad))}: 'utf-8' codec"):
            load(bad)


# ---------------------------------------------------------------------------
# calibrate / predict
# ---------------------------------------------------------------------------

def test_calibrate_bundled_fits_everything(capsys):
    code, out, _ = run(["calibrate", "--bundled"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# fitted: 64"
    assert lines[1] == "# skipped: 0"
    assert lines[2] == ("device,network,step,gpus,quantity,slope,intercept,"
                        "r_squared,n_points")
    assert len(lines) == 3 + 64
    assert lines[3].startswith("maxwell,")  # groups come out sorted


def test_calibrate_reports_skipped_groups(tmp_path, capsys):
    measurements = tmp_path / "m.csv"
    measurements.write_text(MEASUREMENTS, encoding="utf-8")
    code, out, _ = run(["calibrate", "--measurements", str(measurements)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# fitted: 2"
    assert lines[1] == "# skipped: 2"
    assert lines[2].startswith("# skipped pascal/net_a/backward/1/")
    assert "only 1 distinct batch size(s)" in lines[2]


def test_calibrate_with_nothing_to_fit_exits_3(tmp_path, capsys):
    code, out, err = run(["calibrate", "--bundled", "--gpus", "3"], capsys)  # no 3-GPU rows
    assert (code, out) == (3, "")
    assert err == "error: no model to fit (0 group(s) skipped)\n"

    measurements = tmp_path / "m.csv"
    measurements.write_text(MEASUREMENTS.replace("pascal,net_a,forward,1,128,0.02,8.0\n", ""),
                            encoding="utf-8")
    model_file = tmp_path / "models.json"
    code, out, err = run(["calibrate", "--measurements", str(measurements),
                          "--model-out", str(model_file)], capsys)
    assert (code, out) == (3, "")
    assert err == "error: no model to fit (4 group(s) skipped)\n"
    assert not model_file.exists()


@pytest.mark.parametrize("values, message", [
    ("0", "gpu_counts (--gpus) must be >= 1, got 0"),
    ("1,0", "gpu_counts (--gpus) must be >= 1, got 0"),
    ("-2", "gpu_counts (--gpus) must be >= 1, got -2"),
    ("1,1", "gpu_counts (--gpus) lists 1 twice"),
    ("2,1,2", "gpu_counts (--gpus) lists 2 twice"),
])
def test_calibrate_count_below_one_or_repeated_exits_2(values, message, tmp_path, capsys):
    model_file = tmp_path / "models.json"
    code, out, err = run(["calibrate", "--bundled", "--gpus", values,
                          "--model-out", str(model_file)], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not model_file.exists()


def test_calibrate_model_out_round_trips_through_predict(tmp_path, capsys):
    measurements = tmp_path / "m.csv"
    measurements.write_text(MEASUREMENTS, encoding="utf-8")
    model_file = tmp_path / "models.json"
    code, _, _ = run(["calibrate", "--measurements", str(measurements),
                      "--model-out", str(model_file)], capsys)
    assert code == 0
    models = energymodel.load_models(model_file)
    assert len(models) == 2

    code, out, _ = run(["predict", "--models", str(model_file),
                        "--device", "pascal", "--network", "net_a",
                        "--step", "forward", "--gpus", "1", "--batch", "64"],
                       capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "device,network,step,gpus,batch,quantity,value,extrapolated"
    assert "pascal,net_a,forward,1,64,seconds,0.01,0" in lines
    assert "pascal,net_a,forward,1,64,joules,4,0" in lines

    code, out, _ = run(["predict", "--models", str(model_file),
                        "--device", "pascal", "--network", "net_a",
                        "--step", "forward", "--gpus", "1", "--batch", "512",
                        "--quantity", "seconds"], capsys)
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 1
    assert rows[0].endswith(",1")  # 512 is far outside the fitted range


def test_predict_missing_model_exits_2(tmp_path, capsys):
    measurements = tmp_path / "m.csv"
    measurements.write_text(MEASUREMENTS, encoding="utf-8")
    model_file = tmp_path / "models.json"
    run(["calibrate", "--measurements", str(measurements),
         "--model-out", str(model_file)], capsys)
    code, _, err = run(["predict", "--models", str(model_file),
                        "--device", "pascal", "--network", "other",
                        "--step", "forward", "--gpus", "1", "--batch", "64"],
                       capsys)
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("payload", [
    'not json',
    pytest.param('[' * 5000, id="deeply-nested"),
    '{"nope": 1}',
    '{"models": [{"device": "pascal"}]}',
    '{"models": [{"colour": "red"}]}',
])
def test_predict_bad_model_json_exits_2(tmp_path, capsys, payload):
    model_file = tmp_path / "models.json"
    model_file.write_text(payload, encoding="utf-8")
    code, out, err = run(["predict", "--models", str(model_file),
                          "--device", "pascal", "--network", "net_a",
                          "--step", "forward", "--gpus", "1", "--batch", "64"],
                         capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {model_file}: ")


@pytest.mark.parametrize("key, name", [("device", '"pascal'), ("network", "net,a"),
                                       ("network", "net\na")])
@pytest.mark.parametrize("slope", [1e-4, 1])  # as save_models writes it, and an int slope
def test_predict_refuses_a_model_name_that_is_not_one_csv_cell(key, name, slope, tmp_path,
                                                               capsys):
    model_file = tmp_path / "models.json"
    model = {**MODEL, key: name, "slope": slope}
    model_file.write_text(json.dumps({"models": [MODEL, model]}), encoding="utf-8")
    code, out, err = run(["predict", "--models", str(model_file), "--device", model["device"],
                          "--network", model["network"], "--step", "forward", "--gpus", "1",
                          "--batch", "64", "--quantity", "seconds"], capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: {model_file}: models[1]: bad value for {key!r}: {key} must be "
                   f"without commas, double quotes or line breaks, got {name!r}\n")


def test_predict_model_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    model_file = tmp_path / "models.json"
    model_file.write_bytes(b"\xff\xfe{}")
    code, out, err = run(["predict", "--models", str(model_file), "--device", "pascal",
                          "--network", "net_a", "--step", "forward", "--gpus", "1",
                          "--batch", "64"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {model_file}: ")


def test_predict_overflowing_model_exits_2(tmp_path, capsys):
    measurements = tmp_path / "m.csv"
    measurements.write_text(MEASUREMENTS, encoding="utf-8")
    model_file = tmp_path / "models.json"
    run(["calibrate", "--measurements", str(measurements),
         "--model-out", str(model_file)], capsys)
    payload = json.loads(model_file.read_text(encoding="utf-8"))
    payload["models"][0]["slope"] = 1e308
    model_file.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run(["predict", "--models", str(model_file), "--device", "pascal",
                          "--network", "net_a", "--step", "forward", "--gpus", "1",
                          "--batch", "1000"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: predicted seconds at batch 1000 overflows (inf)")


@pytest.mark.parametrize("digits,batch,message", [
    (400, "64", "{file}: models[0]: bad value for 'slope': 1" + "0" * 400),
    (308, "1000", "predicted seconds at batch 1000 overflows (inf)"),
])
def test_predict_integer_slope_beyond_float_exits_2(tmp_path, capsys, digits, batch, message):
    """An integer slope is read as a float: one past the float range is a bad
    value named with its file and key, and one just inside it overflows the
    prediction rather than the integer-to-float conversion."""
    measurements = tmp_path / "m.csv"
    measurements.write_text(MEASUREMENTS, encoding="utf-8")
    model_file = tmp_path / "models.json"
    run(["calibrate", "--measurements", str(measurements),
         "--model-out", str(model_file)], capsys)
    payload = json.loads(model_file.read_text(encoding="utf-8"))
    payload["models"][0]["slope"] = 10 ** digits
    model_file.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run(["predict", "--models", str(model_file), "--device", "pascal",
                          "--network", "net_a", "--step", "forward", "--gpus", "1",
                          "--batch", batch], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message.format(file=model_file)}\n"


def test_calibrate_non_finite_measurement_exits_2(tmp_path, capsys):
    measurements = tmp_path / "m.csv"
    measurements.write_text(MEASUREMENTS.replace("0.02,8.0", "nan,8.0"), encoding="utf-8")
    code, out, err = run(["calibrate", "--measurements", str(measurements)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {measurements}: line 3: ")


def test_calibrate_overflowing_fit_exits_2(tmp_path, capsys):
    measurements = tmp_path / "m.csv"
    measurements.write_text(OVERFLOWING_MEASUREMENTS, encoding="utf-8")
    model_file = tmp_path / "models.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise here
        code, out, err = run(["calibrate", "--measurements", str(measurements),
                              "--model-out", str(model_file)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: the fit of pascal/net_a/forward/1/seconds overflows: ")
    assert "nan" in err and err.count("\n") == 1
    assert not model_file.exists()


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def test_rank_unknown_device_exits_2(capsys):
    code, out, err = run(["rank", "--bundled", "--device", "foo"], capsys)
    assert code == 2 and out == ""
    assert err == "error: no bundled device profile named 'foo' (have: maxwell, pascal)\n"


def test_rank_bundled_pascal_by_edp(capsys):
    code, out, _ = run(["rank", "--bundled", "--device", "pascal"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# metric: edp"
    assert lines[1] == "rank,network,batch,gpus,gpu_set,kiloseconds,megajoules,edp_mj_ks"
    first = lines[2].split(",")
    assert first[:5] == ["1", "two_d_cnn", "256", "2", "pascal:2"]
    gait_rows = [ln.split(",") for ln in lines[2:]
                 if not ln.startswith("#") and ln.split(",")[1] == "resnet_gait"]
    assert gait_rows[0][2:4] == ["256", "1"]  # best gait config: batch 256, one GPU
    four = [ln for ln in lines if ",pascal:2+maxwell:2," in ln]
    assert four  # the mixed four-GPU testbed appears under its full label
    assert any(ln.startswith("# infeasible: resnet_im batch=256 gpu_set=pascal:1")
               for ln in lines)


@pytest.mark.parametrize("pct", ["nan", "inf", "-inf", "-100", "-1000"])
def test_rank_bad_update_overhead_exits_2(pct, capsys):
    code, out, err = run(["rank", "--bundled", "--device", "pascal",
                          f"--update-overhead-pct={pct}"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: update_overhead_pct (--update-overhead-pct) must be finite")


def test_rank_overflowing_update_overhead_exits_2(capsys):
    code, out, err = run(["rank", "--bundled", "--device", "pascal",
                          "--update-overhead-pct", "1e308"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: total seconds of ")
    assert err.rstrip().endswith("overflows (inf)")


def test_rank_nothing_feasible_exits_3(capsys):
    code, out, err = run(["rank", "--bundled", "--device", "pascal",
                          "--networks", "resnet_im", "--batches", "256",
                          "--gpus", "1"], capsys)
    assert code == 3
    assert out == ""
    assert err == "error: no feasible configuration to rank\n"


def test_rank_empty_grid_exits_3(capsys):
    code, _, err = run(["rank", "--bundled", "--device", "pascal",
                        "--batches", "999"], capsys)
    assert code == 3
    assert err == "error: the requested grid is empty\n"


@pytest.mark.parametrize("networks, name", [
    ("cafenet", "cafenet"), ("caffenet,cafenet", "cafenet"), ("", ""),
])
def test_rank_unknown_network_exits_2(networks, name, capsys):
    code, out, err = run(["rank", "--bundled", "--device", "pascal",
                          f"--networks={networks}"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: unknown builtin {name!r}; choose from ")


@pytest.mark.parametrize("option, values, message", [
    ("--networks", "caffenet,caffenet", "networks (--networks) lists 'caffenet' twice"),
    ("--batches", "64,64", "batches (--batches) lists 64 twice"),
    ("--gpus", "1,1", "gpu_counts (--gpus) lists 1 twice"),
])
def test_rank_repeated_value_exits_2(option, values, message, capsys):
    code, out, err = run(["rank", "--bundled", "--device", "pascal",
                          option, values], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("option, values, message", [
    ("--batches", "0", "batches (--batches) must be >= 1, got 0"),
    ("--batches", "-64", "batches (--batches) must be >= 1, got -64"),
    ("--gpus", "0", "gpu_counts (--gpus) must be >= 1, got 0"),
    ("--gpus", "0,1", "gpu_counts (--gpus) must be >= 1, got 0"),
    ("--gpus", "-1", "gpu_counts (--gpus) must be >= 1, got -1"),
])
def test_rank_count_below_one_exits_2(option, values, message, capsys):
    code, out, err = run(["rank", "--bundled", "--device", "pascal",
                          option, values], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_rank_output_file_and_repeatability(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for path in (first, second):
        code, out, _ = run(["rank", "--bundled", "--device", "maxwell",
                            "--metric", "energy", "--output", str(path)], capsys)
        assert code == 0
        assert out == ""  # written to the file, not stdout
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text(encoding="utf-8").startswith("# metric: energy\n")


def test_unwritable_output_exits_2(tmp_path, capsys):
    for argv, path in ((["analyze", "--builtin", "caffenet"], tmp_path),
                       (["rank", "--bundled", "--device", "pascal"],
                        tmp_path / "missing" / "x.csv")):
        code, out, err = run([*argv, "--output", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(path) in err


# ---------------------------------------------------------------------------
# every command, hostile arguments and malformed files
# ---------------------------------------------------------------------------

HOSTILE = ["nan", "inf", "-inf", "-1", "0", "1", "2", "64", "1e308", "9" * 30, "9" * 400, "x"]


def hostile(draw, good=()):
    return draw(st.sampled_from(list(good) + HOSTILE))


@st.composite
def csv_files(draw, header, good_cells):
    """A small CSV: the right header or a wrong one, then up to 12 rows whose
    cells are good or hostile numbers, now and then of the wrong width. A
    good cell given as a list is one of its values: a name with a double
    quote among good ones, say."""
    lines = [draw(st.sampled_from([header] * 4 + ["", "a,b", header + ",x"]))]
    for _ in range(draw(st.integers(0, 12))):
        cells = [hostile(draw, (good if isinstance(good, list) else [good]) * 12)
                 for good in good_cells]
        lines.append(",".join(cells[:draw(st.sampled_from([len(cells)] * 9 + [1]))]))
    return "\n".join(lines).encode() + draw(st.sampled_from([b"", b"\n", b"\xff"]))


def model_files():
    bad_value = st.sampled_from(sorted(MODEL)).flatmap(
        lambda key: st.sampled_from([float("nan"), "x", None, -1, 1e308]).map(
            lambda v: {**MODEL, key: v}))
    return st.one_of(
        st.sampled_from([b"not json", b"[" * 5000, b"\xff{}", b"", b"{}", b'{"models": []}']),
        st.lists(st.one_of(st.just(MODEL), bad_value), max_size=3).map(
            lambda ms: json.dumps({"models": ms}).encode()),
    )


@st.composite
def cli_runs(draw):
    """``(argv, files)``: argv for one command, and the bytes of each file it
    names (as ``@name``). Every trace stays within 1e5 samples x channels
    and every resblock count far below the layer limit."""
    command = draw(st.sampled_from(["analyze", "integrate", "gen-trace",
                                    "calibrate", "predict", "rank"]))
    files, argv = {}, [command]

    def option(flag, value):
        if draw(st.booleans()):
            argv.extend([flag, value])

    # a file, the temporary directory itself, a path under a missing directory
    option("--output", draw(st.sampled_from(["@report", "@", "@missing/report"])))
    option("--format", draw(st.sampled_from(["csv", "table"])))

    if command == "analyze":
        if draw(st.booleans()):
            argv += ["--builtin", draw(st.sampled_from(["caffenet", "two_d_cnn"]))]
        else:
            files["arch"] = draw(arch_texts()).encode() + draw(st.sampled_from([b"", b"\xff"]))
            argv += ["--arch", "@arch"]
        option("--batch", hostile(draw))
        option("--element-bytes", hostile(draw))
    elif command == "integrate":
        files["trace"] = draw(csv_files("t_s,gpu_w,cpu_w", ["0", "1", "100"]))
        files["regions"] = draw(csv_files("id,label,t_start_s,t_end_s",
                                          [["r1", "r1", "r2", '"r1'], "forward", "0", "1"]))
        argv += ["--trace", "@trace", "--regions", "@regions"]
    elif command == "gen-trace":
        segments = [f"{hostile(draw, ['100'])}:{hostile(draw, ['1'])}"
                    if draw(st.booleans()) else
                    f"{hostile(draw, ['50'])}-{hostile(draw, ['150'])}:{hostile(draw, ['2'])}"
                    for _ in range(draw(st.integers(1, 3)))]
        argv += ["--segments", ",".join(segments)]
        option("--rate", hostile(draw, ["10"]))
        option("--channels", hostile(draw, ["4"]))
        option("--noise", hostile(draw))
        option("--seed", hostile(draw))
    else:
        if command == "predict":
            files["models"] = draw(model_files())
            argv += ["--models", "@models", "--device", "pascal", "--network", "net_a",
                     "--step", "forward", "--gpus", hostile(draw), "--batch", hostile(draw)]
        elif draw(st.booleans()):
            argv.append("--bundled")
        else:
            files["measurements"] = draw(csv_files(
                "device,network,step,gpus,batch,seconds_per_batch,joules_per_batch",
                [["pascal", "pascal", "maxwell", '"pascal'], ["net_a", "net_a", 'net"a'],
                 "forward", "1", "64", "0.01", "4.0"]))
            argv += ["--measurements", "@measurements"]
        ints = ",".join(hostile(draw, ["1", "2", "4"]) for _ in range(draw(st.integers(1, 3))))
        if command == "calibrate":
            option("--gpus", ints)
            option("--model-out", "@out")
        elif command == "rank":
            argv += ["--device", draw(st.sampled_from(["pascal", "maxwell", "x"]))]
            option("--gpus", ints)
            option("--batches", ",".join(hostile(draw, ["64", "256"]) for _ in range(2)))
            option("--networks", draw(st.sampled_from(["two_d_cnn", "caffenet,x", ""])))
            option("--update-overhead-pct", hostile(draw))
    return argv, files


@given(cli_runs())
@example((["analyze", "--builtin", "caffenet", "--batch", "9" * 400], {}))
@example((["predict", "--models", "@models", "--device", "pascal", "--network", "net_a",
           "--step", "forward", "--gpus", "1", "--batch", "9" * 400],
          {"models": json.dumps({"models": [MODEL]}).encode()}))
@example((["predict", "--models", "@models", "--device", "pascal", "--network", "net_a",
           "--step", "forward", "--gpus", "1", "--batch", "1"], {"models": b"[" * 5000}))
@example((["calibrate", "--measurements", "@measurements", "--model-out", "@out"],
          {"measurements": OVERFLOWING_MEASUREMENTS.encode()}))
@example((["rank", "--bundled", "--device", "pascal", "--batches", "0"], {}))
@example((["rank", "--bundled", "--device", "pascal", "--gpus", "0,1"], {}))
@example((["calibrate", "--bundled", "--gpus", "0"], {}))
@example((["calibrate", "--bundled", "--gpus", "1,1"], {}))
@example((["gen-trace", "--segments", "nan:1"], {}))
@example((["gen-trace", "--segments", "1e308:1,1e308:1", "--channels", "1", "--rate", "2"], {}))
@example((["predict", "--models", "@models", "--device", '"pascal', "--network", "net_a",
           "--step", "forward", "--gpus", "1", "--batch", "64"],
          {"models": json.dumps({"models": [{**MODEL, "device": '"pascal'}]}).encode()}))
@example((["gen-trace", "--segments", "100-inf:1"], {}))
@example((["integrate", "--trace", "@trace", "--regions", "@regions"],
          {"trace": OVERFLOWING_TRACES["huge_watts"][0].encode(),
           "regions": f"id,label,t_start_s,t_end_s\n{OVERFLOWING_TRACES['huge_watts'][1]}\n".encode()}))
@example((["integrate", "--trace", "@trace", "--regions", "@regions"],
          {"trace": OVERFLOWING_TRACES["huge_span"][0].encode(),
           "regions": f"id,label,t_start_s,t_end_s\n{OVERFLOWING_TRACES['huge_span'][1]}\n".encode()}))
@example((["integrate", "--trace", "@trace", "--regions", "@regions"],
          {"trace": CONSTANT_TRACE.encode(), "regions": REGIONS.replace("r1,", '"r1,').encode()}))
@example((["calibrate", "--measurements", "@measurements"],
          {"measurements": MEASUREMENTS.replace("pascal,", '"pascal,', 1).encode()}))
@settings(max_examples=500, deadline=None)
def test_main_exits_0_2_or_3_on_any_input(run_spec):
    argv, files = run_spec
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data)
        argv = [str(Path(tmp) / a[1:]) if a.startswith("@") else a for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refuses an option's value
                code = exc.code
        assert code in (0, 2, 3)
        table = "table" in argv
        if argv[0] == "gen-trace" and table:
            assert code == 2  # gen-trace prints CSV only
        counts = [value.split(",") for flag, value in zip(argv, argv[1:])
                  if flag in ("--batches", "--gpus")]
        if argv[0] in ("rank", "calibrate") and any(
                len(set(cells)) < len(cells)
                or any(cell.lstrip("-").isdigit() and int(cell) < 1 for cell in cells)
                for cells in counts):
            assert code == 2  # a batch or GPU count below 1, or one listed twice, is refused
        if code == 0 and argv[0] == "analyze" and "--output" not in argv and not table:
            # the cost CSV reads back as one row per layer plus one total row
            rows = list(csv.reader(line for line in stdout.getvalue().splitlines()
                                   if not line.startswith("#")))
            assert {len(row) for row in rows} == {10}
            layers = [row[0] for row in rows]
            assert layers.count("total") == 1 and layers[-1] == "total"
        if code == 0 and argv[0] == "integrate" and "--output" not in argv and not table:
            # one row per region, each as wide as the header, and no NaN or infinity
            rows = list(csv.reader(stdout.getvalue().splitlines()))
            assert len({len(row) for row in rows}) == 1
            assert not {"nan", "inf", "-inf"} & {cell for row in rows for cell in row}
        if code == 0 and argv[0] == "calibrate":
            # a fit that succeeds is finite, and its model file reads back
            cells = stdout.getvalue().replace(",", " ").split()
            assert not {"nan", "inf", "-inf"} & set(cells)
            if "--output" not in argv and not table:
                rows = list(csv.reader(line for line in stdout.getvalue().splitlines()
                                       if not line.startswith("#")))
                assert {len(row) for row in rows} == {9}
            if "--model-out" in argv:
                energymodel.load_models(argv[argv.index("--model-out") + 1])
