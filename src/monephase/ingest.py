"""Canonical CSV ingest for the monetary and CPI input files.

The tool consumes two hand-converted CSVs rather than the source
spreadsheets: converting once by hand is less brittle than scraping a
workbook layout, and the expected headers below make the conversion
unambiguous. Monetary quantities are in 100 million yen; CPI columns are
2020=100 index numbers. Dates are YYYY-MM, ascending, gap-free.

Validation is total: a malformed input raises a DataError naming file,
line, and column, and no partial panel is returned. read_artifact checks
both inputs as it checks every CSV a command reads; the same monthly-table
reader also reads the pipeline's panel.csv, and table_rows gives the rows
that the pipeline writes for all three.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .csvio import Artifact, Record, parse_float_cell, read_artifact, read_text
from .errors import DataError
from .series import MonthIndex, MonthlySeries, Panel, month_labels

MONETARY = Artifact(None, ("date", "MB", "BN", "CO", "RB", "MB_SA"))
CPI = Artifact(None, ("date", "CPI", "CPI_core"))


MonthColumns = Mapping[str, Callable[[int], str]]  # column -> its cell for a year

# ((text, artifact, month_columns), Panel) of the last table parsed: the commands of a chain
# in one process read one panel.csv in turn, and each after the first takes its Panel from here
_last: list[tuple[tuple, Panel]] = []


def load_table(path: Path | str, artifact: Artifact, month_columns: MonthColumns = {}) -> Panel:
    """Read a monthly table a column at a time; month_columns, derived from the date, are not read.

    Of several bad cells, the first in file order is reported: the earliest
    line, and in it the date, then the columns in header order. A file
    holding the text last parsed as the same artifact gives that Panel,
    whose arrays are read-only, without a second parse: the checks depend
    on the text alone. Each call reads the file once, and no failure is kept.
    """
    path = Path(path)
    text = read_text(path, artifact)
    if _last and _last[0][0] == (text, artifact, month_columns):
        return _last[0][1]
    _, rows = read_artifact(path, artifact, text)
    try:
        start = MonthIndex.parse(rows[0][0])
    except DataError:  # report it as the Record of the first row does
        raise Record(path, artifact, rows[0]).error(f"cannot parse date {rows[0][0]!r}") from None
    dates = month_labels(start, len(rows))  # each date must be the month after the one above it
    bad = next((i for i, row in enumerate(rows) if row[0].strip() != dates[i]), len(rows))
    series = {}
    for j, name in enumerate(artifact.header):
        if j and name not in month_columns:
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
    _last[:] = [((text, artifact, month_columns), panel)]
    return panel


def _numbers(cells: list[str]) -> tuple[np.ndarray | None, int]:
    """(values, len(cells)), or (None, the row of the first cell parse_float_cell refuses)."""
    try:  # a blank cell reads as NaN; any other cell must be finite
        values = np.array([float(c) if c.strip() else np.nan for c in cells])
        if not any(cells[i].strip() for i in np.flatnonzero(~np.isfinite(values))):
            return values, len(cells)
    except ValueError:
        pass
    for i, cell in enumerate(cells):
        try:
            parse_float_cell(cell)
        except DataError:
            return None, i


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


def table_rows(panel: Panel, columns: tuple[str, ...], month_columns: MonthColumns = {}):
    """The rows of a monthly table; month_columns cells are computed from the year."""
    years = [o // 12 for o in range(panel.start.ordinal, panel.start.ordinal + panel.length)]
    cells = [month_labels(panel.start, panel.length)] + [
        list(map(month_columns[n], years)) if n in month_columns else panel[n].values.tolist()
        for n in columns[1:]
    ]
    return zip(*cells)
