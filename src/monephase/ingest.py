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
puts a table in the process's memo, which holds its Panel with the
digest write_csv took of its text as it wrote it, not the text.
"""

from __future__ import annotations

import warnings
from _blake2 import blake2b  # hashlib would load OpenSSL's _hashlib
from pathlib import Path

import numpy as np

from . import csvio
from .csvio import Artifact, Record, parse_cell, parse_float_cell, read_artifact, read_text
from .errors import DataError
from .series import MonthIndex, MonthlySeries, Panel, month_labels

MONETARY = Artifact(None, ("date", "MB", "BN", "CO", "RB", "MB_SA"))
CPI = Artifact(None, ("date", "CPI", "CPI_core"))


# header -> (digest of its text, Panel) of the table of that shape last written and remembered
_memo: dict[tuple[str, ...], tuple[bytes, Panel]] = {}


def load_table(path: Path | str, artifact: Artifact) -> Panel:
    """Read a monthly table row by row; its by_year columns, from the date, are not read.

    The first bad cell in file order is reported: the earliest line, and in
    it the date, then the columns in header order. A file whose text has the
    digest of the table last written and remembered with the same header
    gives that Panel, whose arrays are read-only, without a parse: the
    checks depend on the text alone. Each call reads the file once; no
    text, parse or failure is kept.
    """
    path = Path(path)
    text = read_text(path, artifact)
    if (held := _memo.get(artifact.header)) and held[0] == blake2b(text.encode()).digest():
        return held[1]
    _, rows = read_artifact(path, artifact, text)
    start = parse_cell(Record(path, artifact, rows[0]), "date", MonthIndex.parse)
    by_year, values = dict(artifact.by_year), []
    columns = [j for j, name in enumerate(artifact.header) if j and name not in by_year]
    for i, (row, date) in enumerate(zip(rows, month_labels(start, len(rows)))):
        if row[0].strip() != date:  # each date must be the month after the one above it
            rec, previous = Record(path, artifact, row), start + (i - 1)
            month = parse_cell(rec, "date", MonthIndex.parse)
            gap = f"months must ascend without gaps ({previous} -> {month})"
            raise rec.error(f"duplicate month {month}" if month == previous else gap)
        for j in columns:
            try:
                values.append(parse_float_cell(row[j]))
            except DataError:  # refused at its line, as parse_cell words it
                parse_cell(Record(path, artifact, row), artifact.header[j], parse_float_cell)
    table = np.array(values).reshape(len(rows), len(columns)).T
    series = {artifact.header[j]: MonthlySeries(start, v) for j, v in zip(columns, table)}
    return Panel(start, len(rows), series)


def remember(artifact: Artifact, panel: Panel, digest: bytes):
    """Hold panel as the table that table_rows wrote from it, whose text has digest.

    It is served for a text of that digest, the blake2b that write_csv
    took as it wrote the file; nothing is read. The Panel held is panel's
    own read-only series of the artifact's read columns, in header order:
    write_csv's shortest round-trip floats read back bit for bit, a missing
    month's NaN is written blank and a blank cell parses to NaN, and a
    MonthlySeries holds no infinity, so a parse of the text would give the
    same Panel and pass every check.
    """
    by_year = dict(artifact.by_year)
    series = {name: panel[name] for name in artifact.header[1:] if name not in by_year}
    _memo[artifact.header] = (digest, Panel(panel.start, panel.length, series))


# a level that must be positive: why, in the order read_panel_csv checks them
POSITIVE = {
    "MB_SA": "values must be positive to take logs",
    "CPI": "index numbers must be positive",
    "CPI_core": "index numbers must be positive",
}


def refuse_non_positive(path: Path | str, panel: Panel, names) -> Panel:
    """panel, once each named column of POSITIVE is positive in every month it holds."""
    for name in names:
        bad = panel[name].values <= 0.0  # False for a missing month
        if bad.any():
            month = panel.start + int(np.argmax(bad))
            raise DataError(f"{path}: column {name}: {POSITIVE[name]}, offending month {month}")
    return panel


def load_monetary(path: Path | str) -> Panel:
    """Read the monetary file (MB, BN, CO, RB, MB_SA; 100 million yen); MB_SA must be positive."""
    return refuse_non_positive(path, load_table(path, MONETARY), ("MB_SA",))


def load_cpi(path: Path | str) -> Panel:
    """Read the CPI file (headline and core, 2020=100 index numbers).

    Index numbers must be positive. If the file covers any 2020 months
    whose headline average strays outside [95, 105], a warning is issued:
    the data are probably not on the 2020 base the pipeline assumes.
    """
    panel = refuse_non_positive(path, load_table(path, CPI), ("CPI", "CPI_core"))
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
