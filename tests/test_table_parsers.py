"""Differential fuzz of the table parsers against their hand-written originals.

Each parser now reads through the shared CSV reader. On generated text
(blank and whitespace-only lines, CR LF and CR endings, padded cells, wrong widths,
wrong headers, non-numeric, ``nan``/``inf`` and ``#`` cells) it must return
what the original line loop in ``oracles.py`` returned, or raise the same
error class with the same message, and every failure must be a
``CnnergyError``. The writer, ``_tables.render``, must print what the
hand-joined CSV and the old comma-splitting table renderer printed.
"""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnnergy._tables import data_text, render
from cnnergy.energymodel import _parse_plans, parse_measurements
from cnnergy.errors import CnnergyError, DataFormatError, TraceFormatError
from cnnergy.powertrace import parse_regions
from cnnergy.tuner import parse_accuracy

from oracles import (
    parse_accuracy_reference,
    parse_measurements_reference,
    parse_plans_reference,
    parse_regions_reference,
    render_table_reference,
)

JUNK = ["", " ", "#", "# 1", "1#", "nan", "NaN", "inf", "-inf", "Infinity", "1e400",
        "x", "1 2", "1_0", "١", "+3", "-1", "0", "0.5", "abc"]
PADDING = st.sampled_from(["", " ", "  ", "\t", " \t"])
BLANKS = ["", " ", "\t", "  \t "]


def outcome(parse, text):
    try:
        return ("ok", parse(text))
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return ("error", type(exc), str(exc))


def cell(draw, pool):
    """A value of the column's pool nine times in ten, else a junk cell."""
    return draw(st.sampled_from(pool if draw(st.integers(0, 9)) else JUNK))


@st.composite
def csv_texts(draw, header, columns):
    names = header.split(",")
    headers = [
        header,
        " " + header.replace(",", " , ") + "\t",
        ",".join(names[:-1]),
        header + ",extra",
        ",".join(names[1:] + names[:1]),
        "",
    ]
    lines = [headers[0] if draw(st.integers(0, 2)) else draw(st.sampled_from(headers))]
    for _ in range(draw(st.integers(0, 6))):
        cells = [cell(draw, pool) for pool in columns]
        width = draw(st.sampled_from(("keep",) * 8 + ("drop", "extra")))
        if width == "drop":
            cells.pop(draw(st.integers(0, len(cells) - 1)))
        elif width == "extra":
            cells.append(cell(draw, columns[-1]))
        lines.append(",".join(draw(PADDING) + c + draw(PADDING) for c in cells))
        if not draw(st.integers(0, 4)):
            lines.append(draw(st.sampled_from(BLANKS)))
    if not draw(st.integers(0, 4)):
        lines.insert(0, draw(st.sampled_from(BLANKS)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


NETWORKS = ["resnet_gait", "caffenet", "two_d_cnn"]
INTS = ["64", "1", "2", "128"]
FLOATS = ["0.029", "4.255", "12", "1e-3", "+7.5"]

MEASUREMENT_TEXTS = csv_texts(
    "device,network,step,gpus,batch,seconds_per_batch,joules_per_batch",
    [["pascal", "maxwell"], NETWORKS, ["forward", "backward"],
     INTS, INTS, FLOATS, FLOATS])
ACCURACY_TEXTS = csv_texts(
    "network,batch,metric,value",
    [NETWORKS, INTS, ["top-1", "n", "weighted-average"], ["89.0", "100", "0", "76.25"]])
REGION_TEXTS = csv_texts(
    "id,label,t_start_s,t_end_s",
    [["r1", "r2", "a b"], ["forward", "backward", "update", "load", "other"],
     ["0", "1.5", "-1"], ["2", "3.5", "1e3"]])
PLAN_TEXTS = csv_texts(
    "network,batch,iterations",
    [NETWORKS, ["64", "128"], ["72368", "1"]])

def assert_same(parse, reference, text):
    got = outcome(parse, text)
    assert got == outcome(reference, text)
    if got[0] == "error":
        assert issubclass(got[1], CnnergyError)


@given(MEASUREMENT_TEXTS)
@settings(max_examples=300, deadline=None)
def test_parse_measurements_matches_original(text):
    assert_same(parse_measurements, parse_measurements_reference, text)


@given(ACCURACY_TEXTS)
@settings(max_examples=300, deadline=None)
def test_parse_accuracy_matches_original(text):
    assert_same(parse_accuracy, parse_accuracy_reference, text)


@given(REGION_TEXTS)
@settings(max_examples=300, deadline=None)
def test_parse_regions_matches_original(text):
    assert_same(parse_regions, parse_regions_reference, text)


def _strip_header_cells(text: str) -> str:
    """``text`` with the cells of its first non-blank line stripped."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.strip():
            lines[i] = ",".join(c.strip() for c in line.split(","))
            break
    return "\n".join(lines)


@given(PLAN_TEXTS)
@settings(max_examples=300, deadline=None)
def test_parse_plans_matches_original_except_its_bare_errors(text):
    # Two intended differences. The header is compared cell by cell after
    # stripping, like every other table; and where the original raised a
    # bare ValueError (a short or long row, a non-integer cell, a plan out
    # of range) or an IndexError (no lines), the reader raises
    # DataFormatError: "line N: ..." for a row, the header message for none.
    got = outcome(_parse_plans, text)
    want = outcome(parse_plans_reference, _strip_header_cells(text))
    if want[0] == "ok" or want[1] is DataFormatError:
        assert got == want
    elif want[1] is IndexError:
        assert got == ("error", DataFormatError,
                       "iterations header must be network,batch,iterations")
    else:
        assert want[1] is ValueError
        assert got[:2] == ("error", DataFormatError)
        assert re.match(r"line \d+: ", got[2])


def test_bundled_tables_read_as_before():
    text = data_text("measurements.csv")
    assert parse_measurements(text) == parse_measurements_reference(text)
    for dataset in ("tumgaid", "imagenet"):
        text = data_text(f"accuracy_{dataset}.csv")
        assert parse_accuracy(text) == parse_accuracy_reference(text)
    assert _parse_plans(data_text("iterations.csv")) \
        == parse_plans_reference(data_text("iterations.csv"))


def test_row_errors_name_the_line_in_the_file():
    # blank lines count, as in an editor
    regions = "id,label,t_start_s,t_end_s\n\nr1,forward,0,1\n\nr2,sideways,0,1\n"
    with pytest.raises(TraceFormatError, match="^line 5: region label must be one of"):
        parse_regions(regions)
    measurements = ("device,network,step,gpus,batch,seconds_per_batch,joules_per_batch\n"
                    "\n  \npascal,n,forward,1,64,0.01\n")
    with pytest.raises(DataFormatError, match="^line 4: expected 7 columns, got 6$"):
        parse_measurements(measurements)


def test_plans_bad_row_is_a_data_format_error():
    text = "network,batch,iterations\nresnet_gait,64\n"
    with pytest.raises(DataFormatError, match="^line 2: expected 3 columns, got 2$"):
        _parse_plans(text)


# a cell holds no comma, no line break (any that str.splitlines knows) and no
# "#", which would turn a first cell into a comment line
CELLS = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"),
                              blacklist_characters=",#"), max_size=6)
COMMENTS = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                   max_size=12).map(lambda text: "#" + text)


@st.composite
def reports(draw):
    """``(head, rows, tail)``: a header row and up to 8 rows of 2 to 5 cells
    (a row of one empty cell would print as a blank line), empty cells
    included, between comment lines."""
    width = draw(st.integers(2, 5))
    rows = draw(st.lists(st.tuples(*[CELLS] * width), min_size=1, max_size=9))
    return draw(st.lists(COMMENTS, max_size=3)), rows, draw(st.lists(COMMENTS, max_size=3))


@given(reports())
@settings(max_examples=300, deadline=None)
def test_render_prints_what_the_hand_joined_csv_and_old_table_printed(report):
    head, rows, tail = report
    csv_text = "".join(line + "\n" for line in [*head, *(",".join(row) for row in rows), *tail])
    assert render(head, rows, tail) == csv_text
    assert render(head, rows, tail, table=True) == render_table_reference(csv_text)
