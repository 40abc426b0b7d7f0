"""Canonical CSV ingest for the monetary and CPI input files.

The tool consumes two hand-converted CSVs rather than the source
spreadsheets: converting once by hand is less brittle than scraping a
workbook layout, and the expected headers below make the conversion
unambiguous. Monetary quantities are in 100 million yen; CPI columns are
2020=100 index numbers. Dates are YYYY-MM, ascending, gap-free.

Validation is total: a malformed input raises a DataError naming file,
line, and column, and no partial panel is returned. read_artifact checks
both inputs as it checks every CSV a command reads; the same monthly-table
reader, load_table, reads the pipeline's panel.csv too, row by row. A
table's Artifact declares its shape, once: table_rows gives the rows the
pipeline writes for it, a write block of months at a time, and remember
holds a table just written as the Panel its text parses to. Only a write
puts a table in the process's memo, which holds its Panel with the length
and hash of its text, not the text.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from . import csvio
from .csvio import Artifact, Record, parse_float_cell, read_artifact, read_text
from .errors import DataError
from .series import MonthIndex, MonthlySeries, Panel, month_labels

MONETARY = Artifact(None, ("date", "MB", "BN", "CO", "RB", "MB_SA"))
CPI = Artifact(None, ("date", "CPI", "CPI_core"))


# header -> ((length, hash) of its text, Panel) of the table of that shape last written and
# remembered, under any declaration: a chain in one process reads the tables the command before
# wrote. A stale table needs two texts of one length whose per-process 64-bit str hashes collide.
_memo: dict[tuple[str, ...], tuple[tuple[int, int], Panel]] = {}


def _fingerprint(text: str) -> tuple[int, int]:
    return len(text), hash(text)


def load_table(path: Path | str, artifact: Artifact) -> Panel:
    """Read a monthly table row by row; its by_year columns, from the date, are not read.

    The first bad cell in file order is reported: the earliest line, and in
    it the date, then the columns in header order. A file whose text has the
    length and hash of the table last written and remembered with the same
    header gives that Panel, whose arrays are read-only, without a parse:
    the checks depend on the text alone. Each call reads the file once; no
    text, parse or failure is kept.
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
    by_year, values = dict(artifact.by_year), []
    columns = [j for j, name in enumerate(artifact.header) if j and name not in by_year]
    for i, (row, date) in enumerate(zip(rows, month_labels(start, len(rows)))):
        if row[0].strip() != date:  # each date must be the month after the one above it
            rec, previous = Record(path, artifact, row), start + (i - 1)
            month = rec.parse("date", MonthIndex.parse)
            gap = f"months must ascend without gaps ({previous} -> {month})"
            raise rec.error(f"duplicate month {month}" if month == previous else gap)
        for j in columns:
            try:
                values.append(parse_float_cell(row[j]))
            except DataError:
                problem = f"cannot parse {artifact.header[j]} {row[j]!r}"
                raise Record(path, artifact, row).error(problem) from None
    table = np.array(values).reshape(len(rows), len(columns)).T
    series = {artifact.header[j]: MonthlySeries(start, v) for j, v in zip(columns, table)}
    return Panel(start, len(rows), series)


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
    _memo[artifact.header] = (_fingerprint(read_text(path, artifact)), held)


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
    """The rows of artifact's monthly table, made a csvio.WRITE_BLOCK-month slice of the
    panel's arrays at a time; its by_year cells are computed from the year."""
    by_year = dict(artifact.by_year)
    for i in range(0, panel.length, csvio.WRITE_BLOCK):
        first, n = panel.start + i, min(csvio.WRITE_BLOCK, panel.length - i)
        years = [o // 12 for o in range(first.ordinal, first.ordinal + n)]
        yield from zip(month_labels(first, n), *(
            list(map(by_year[c], years)) if c in by_year else panel[c].values[i : i + n].tolist()
            for c in artifact.header[1:]
        ))
