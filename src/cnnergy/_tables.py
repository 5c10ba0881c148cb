"""The one text format cnnergy's tables come in, read and written here.

Every table is CSV with a fixed header: lines end at LF, CR LF or CR (a
stream's are the lines it yields, as for a trace), blank and whitespace-only
lines are skipped, the header and every row are split on commas with each
cell stripped, and row errors name their line in the file, blank lines
included. Errors from a file name it as ``<path>: ...``.

The reader checks only the format; the records it builds check their own
values: each record is a ``typing.NamedTuple``, and :func:`checked` makes one
whose ``_check`` runs however it is built. A name that a command prints as a
CSV cell is checked by :func:`check_cell`. Every report a command prints is
written by :func:`render`, as CSV or as aligned columns. The value sets that
tables and commands share live here, so the CLI reads them without loading
the modules that use them.
"""

from __future__ import annotations

import io
import os

from .errors import CnnergyError, DataFormatError

#: The steps of a measurement row and the quantities measured per batch.
STEPS = ("forward", "backward")
QUANTITIES = ("seconds", "joules")
#: The totals ``rank`` can order configurations by.
RANK_METRICS = ("time", "energy", "edp")
#: The bundled architectures, each shipped as ``cnnergy/data/networks/<name>.net``.
BUILTIN_NETWORK_NAMES = ("two_d_cnn", "resnet_gait", "caffenet", "resnet_im")


class Checked:
    """Mixin, first among the bases of a record class over a NamedTuple with
    a ``_check`` method, which raises on a bad field value. Every way to
    build a record runs it: the constructor, ``_make`` and so ``_replace``,
    and pickle and ``copy``, which build through the constructor."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        record = super().__new__(cls, *args, **kwargs)
        record._check()
        return record

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


def checked(base):
    """The record class of the NamedTuple class ``base``: a :class:`Checked`
    subclass of the same name and documentation."""
    return type(base.__name__, (Checked, base),
                {"__slots__": (), "__doc__": base.__doc__, "__module__": base.__module__})


def data_text(relpath: str) -> str:
    """Text of a bundled file under ``cnnergy/data``, read by the package's
    loader, so that a zipped install reads it too."""
    path = os.path.join(os.path.dirname(__file__), "data", relpath)
    return __loader__.get_data(path).decode("utf-8")


def read_file(path, parse):
    """``parse(fh)`` of a file as a seekable UTF-8 text stream (a pipe held as
    bytes, a byte-order mark skipped). Errors keep their class and name the
    file as ``"<path>: ..."``; a file not UTF-8 is refused at its first bad byte."""
    with open(path, "rb") as raw:
        raw = raw if raw.seekable() else io.BytesIO(raw.read())
        fh = io.TextIOWrapper(raw, encoding="utf-8-sig")
        try:
            return parse(fh)
        except (UnicodeDecodeError, CnnergyError) as exc:
            raw.seek(0)
            try:  # utf-8-sig would name offsets 3 bytes short after a BOM
                raw.read().decode("utf-8")
            except UnicodeDecodeError as bad:
                raise DataFormatError(f"{path}: {bad}") from None
            exc.args = (f"{path}: {exc}",)
            raise


def numbered_lines(source):
    """``(n, line)`` for each line of text or a text stream that is not
    whitespace only, ``n`` counting blank lines, ``line`` without its end: a
    text's lines end at LF, CR LF or CR, a stream's are the lines it yields."""
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else source
    return ((n, line.rstrip("\n")) for n, line in enumerate(lines, start=1) if not line.isspace())


def read_csv(source, what: str, header: str, build, error=DataFormatError) -> list:
    """``build(*cells)`` for every row of a CSV text or text stream with this header.

    Raises:
        error: the header is not ``header`` (``"<what> header must be
            <header>"``), a row has the wrong number of columns, or ``build``
            raises ``ValueError`` (``"line N: ..."``).
    """
    lines = numbered_lines(source)
    names = header.split(",")
    if [c.strip() for c in next(lines, (0, ""))[1].split(",")] != names:
        raise error(f"{what} header must be {header}")
    rows = []
    for lineno, line in lines:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(names):
            raise error(f"line {lineno}: expected {len(names)} columns, got {len(cells)}")
        try:
            rows.append(build(*cells))
        except ValueError as exc:
            raise error(f"line {lineno}: {exc}") from None
    return rows


def check_cell(what: str, value: str, refused: tuple[str, ...] = ()) -> None:
    """Refuse a name that a command prints as a CSV cell unless it reads back
    as that one cell: it may hold no comma, double quote or line break, and
    may not be one of ``refused`` (where ``""`` stands for the empty name).

    Raises:
        ValueError: ``"<what> must be [non-empty, not '<refused>' and ]without
            commas, double quotes or line breaks, got <value>"``.
    """
    if value in refused or "," in value or '"' in value or "\r" in value or "\n" in value:
        rules = ", ".join(f"not {r!r}" if r else "non-empty" for r in refused)
        raise ValueError(f"{what} must be {rules + ' and ' if rules else ''}without commas, "
                         f"double quotes or line breaks, got {value!r}")


def render(head, rows, tail=(), table=False) -> str:
    """A report from ``#`` comment lines ``head`` and ``tail`` and ``rows``
    of cell strings, the header row first: as CSV in that order, or as a
    table of every comment, then each column padded to its widest cell, two
    spaces apart, with trailing spaces stripped."""
    if not table:
        return "\n".join([*head, *map(",".join, rows), *tail]) + "\n"
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join([*head, *tail, *(
        "  ".join([cell.ljust(width) for cell, width in zip(row, widths)]).rstrip()
        for row in rows)]) + "\n"
