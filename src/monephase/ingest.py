"""Canonical CSV ingest for the monetary and CPI input files.

The tool consumes two hand-converted CSVs rather than the source
spreadsheets: converting once by hand is less brittle than scraping a
workbook layout, and the expected headers below make the conversion
unambiguous. Monetary quantities are in 100 million yen; CPI columns are
2020=100 index numbers. Dates are YYYY-MM, ascending, gap-free.

Validation is total: a malformed input raises a DataError naming file,
line, and column, and no partial panel is returned. read_artifact checks
both inputs as it checks every CSV a command reads; the same monthly-table
reader also reads the pipeline's panel.csv. A table's Artifact declares
its shape, once: table_rows gives the rows the pipeline writes for it,
and remember holds a table just written as the Panel its text parses to.
The process holds each table's Panel with the length and hash of its
text, not the text.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .csvio import Artifact, Record, parse_float_cell, read_artifact, read_text, read_utf8
from .errors import DataError
from .series import MonthIndex, MonthlySeries, Panel, month_labels

MONETARY = Artifact(None, ("date", "MB", "BN", "CO", "RB", "MB_SA"))
CPI = Artifact(None, ("date", "CPI", "CPI_core"))


# header -> ((length, hash) of its text, Panel) of the table of that shape last parsed, or written
# and remembered, under any declaration: a chain in one process reads the tables the command before
# wrote. A stale table needs two texts of one length whose per-process 64-bit str hashes collide.
_memo: dict[tuple[str, ...], tuple[tuple[int, int], Panel]] = {}


def _fingerprint(text: str) -> tuple[int, int]:
    return len(text), hash(text)


def load_table(path: Path | str, artifact: Artifact) -> Panel:
    """Read a monthly table a column at a time; its by_year columns, from the date, are not read.

    Of several bad cells, the first in file order is reported: the earliest
    line, and in it the date, then the columns in header order. A file
    whose text has the length and hash of the text last parsed with the same
    header, or last written and remembered with it, gives that Panel, whose
    arrays are read-only, without a parse: the checks depend on the text
    alone. Each call reads the file once; no text and no failure is kept.
    """
    path = Path(path)
    text = read_text(path, artifact)
    if (held := _memo.get(artifact.header)) and held[0] == _fingerprint(text):
        return held[1]
    _, rows = read_artifact(path, artifact, text)
    try:
        start = MonthIndex.parse(rows[0][0])
    except DataError:  # report it as the Record of the first row does
        raise Record(path, artifact, rows[0]).error(f"cannot parse date {rows[0][0]!r}") from None
    dates = month_labels(start, len(rows))  # each date must be the month after the one above it
    bad = next((i for i, row in enumerate(rows) if row[0].strip() != dates[i]), len(rows))
    series, by_year = {}, dict(artifact.by_year)
    for j, name in enumerate(artifact.header):
        if j and name not in by_year:
            series[name], first_bad = _numbers([row[j] for row in rows])
            bad = min(bad, first_bad)
    if bad < len(rows):  # raise through that row's Record; the rows above it are sound
        rec = Record(path, artifact, rows[bad])
        month, previous = rec.parse("date", MonthIndex.parse), start + (bad - 1)
        if month != previous + 1:
            gap = f"months must ascend without gaps ({previous} -> {month})"
            raise rec.error(f"duplicate month {month}" if month == previous else gap)
        for name in series:
            rec.parse(name, parse_float_cell)
    panel = Panel(start, len(rows), {name: MonthlySeries(start, v) for name, v in series.items()})
    _memo[artifact.header] = (_fingerprint(text), panel)
    return panel


def remember(path: Path, artifact: Artifact, panel: Panel):
    """Hold panel as the table that path, just written from it by table_rows, parses to.

    It is served for a text of the length and hash of the file's text as
    read back, which is not kept. The Panel held has the artifact's read
    columns in header order, each missing month the NaN that a blank cell
    parses to: write_csv's shortest round-trip floats read back bit for
    bit, and a MonthlySeries holds no infinity, so a parse of the text
    would give the same Panel and pass every check.
    """
    series, by_year = {}, dict(artifact.by_year)
    for name in artifact.header[1:]:
        if name not in by_year:
            values = panel[name].values
            series[name] = MonthlySeries(panel.start, np.where(np.isnan(values), np.nan, values))
    held = Panel(panel.start, panel.length, series)
    _memo[artifact.header] = (_fingerprint(read_utf8(path)), held)


def _numbers(cells: list[str]) -> tuple[np.ndarray | None, int]:
    """(values, len(cells)), or (None, the row of the first cell parse_float_cell refuses)."""
    text = "".join(cells)
    try:  # a blank cell reads as NaN; any other cell must be finite
        if text.isascii() and "_" not in text:  # float() and DECIMAL agree on finite values
            values = np.array([float(c) if c.strip() else np.nan for c in cells])
            if not any(cells[i].strip() for i in np.flatnonzero(~np.isfinite(values))):
                return values, len(cells)
    except ValueError:
        pass
    values = []
    for i, cell in enumerate(cells):
        try:
            values.append(parse_float_cell(cell))
        except DataError:
            return None, i
    return np.array(values), len(cells)


def load_monetary(path: Path | str) -> Panel:
    """Read the monetary file (MB, BN, CO, RB, MB_SA; 100 million yen)."""
    return load_table(path, MONETARY)


def load_cpi(path: Path | str) -> Panel:
    """Read the CPI file (headline and core, 2020=100 index numbers).

    Index numbers must be positive. If the file covers any 2020 months
    whose headline average strays outside [95, 105], a warning is issued:
    the data are probably not on the 2020 base the pipeline assumes.
    """
    panel = load_table(path, CPI)
    for name in ("CPI", "CPI_core"):
        bad = panel[name].values <= 0.0  # False for a missing month
        if bad.any():
            month = panel.start + int(np.argmax(bad))
            raise DataError(
                f"{path}: column {name}: index numbers must be positive, "
                f"offending month {month}"
            )
    first = 2020 * 12 - panel.start.ordinal  # the position of 2020-01
    y2020 = panel["CPI"].values[max(first, 0) : max(first + 12, 0)]
    y2020 = y2020[~np.isnan(y2020)]
    if y2020.size:
        mean = float(np.mean(y2020))
        if not 95.0 <= mean <= 105.0:
            warnings.warn(
                f"{path}: 2020 average of CPI is {mean:.2f}, expected "
                f"about 100 for a 2020-base index",
                stacklevel=2,
            )
    return panel


def table_rows(panel: Panel, artifact: Artifact):
    """The rows of artifact's monthly table; its by_year cells are computed from the year."""
    years = [o // 12 for o in range(panel.start.ordinal, panel.start.ordinal + panel.length)]
    by_year = dict(artifact.by_year)
    cells = [month_labels(panel.start, panel.length)] + [
        list(map(by_year[n], years)) if n in by_year else panel[n].values.tolist()
        for n in artifact.header[1:]
    ]
    return zip(*cells)
