"""The one text format cnnergy's tables come in, read in one place.

Every table is CSV with a fixed header: blank and whitespace-only lines are
skipped, the header and every row are split on commas with each cell
stripped, and row errors name their line, counting the header as line 1.

The reader checks only the format; the records it builds check their own
values.
"""

from __future__ import annotations

from importlib import resources

from .errors import DataFormatError


def data_text(relpath: str) -> str:
    """Text of a bundled file under ``cnnergy/data``."""
    return resources.files("cnnergy").joinpath(f"data/{relpath}").read_text(encoding="utf-8")


def read_csv(text: str, what: str, header: str, build, error=DataFormatError) -> list:
    """``build(*cells)`` for every row of a CSV table with the given header.

    Raises:
        error: the header is not ``header`` (``"<what> header must be
            <header>"``), a row has the wrong number of columns, or ``build``
            raises ``ValueError`` (``"line N: ..."``).
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    names = header.split(",")
    if not lines or [c.strip() for c in lines[0].split(",")] != names:
        raise error(f"{what} header must be {header}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(names):
            raise error(f"line {lineno}: expected {len(names)} columns, got {len(cells)}")
        try:
            rows.append(build(*cells))
        except ValueError as exc:
            raise error(f"line {lineno}: {exc}") from None
    return rows

