"""Canonical CSV ingest for the monetary and CPI input files.

The tool consumes two hand-converted CSVs rather than the source
spreadsheets: converting once by hand is less brittle than scraping a
workbook layout, and the expected headers below make the conversion
unambiguous. Monetary quantities are in 100 million yen; CPI columns are
2020=100 index numbers. Dates are YYYY-MM, ascending, gap-free.

Validation is total: a malformed input raises a DataError naming file,
line, and column, and no partial panel is returned. read_artifact checks
both inputs as it checks every CSV a command reads; the same monthly-table
reader and table_rows also carry the pipeline's panel.csv.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .csvio import Artifact, parse_float_cell, read_artifact, write_csv
from .errors import DataError
from .series import MonthIndex, MonthlySeries, Panel

MONETARY = Artifact(None, ("date", "MB", "BN", "CO", "RB", "MB_SA"))
CPI = Artifact(None, ("date", "CPI", "CPI_core"))


MonthColumns = Mapping[str, Callable[[MonthIndex], str]]


def load_table(path: Path | str, artifact: Artifact, month_columns: MonthColumns = {}) -> Panel:
    """Read a monthly table; the month_columns, derived from the date, are not read."""
    _, records = read_artifact(path, artifact)
    names = [name for name in artifact.header[1:] if name not in month_columns]
    months: list[MonthIndex] = []
    data: dict[str, list[float]] = {name: [] for name in names}
    for rec in records:
        month = rec.parse("date", MonthIndex.parse)
        if months:
            step = month - months[-1]
            if step == 0:
                raise rec.error(f"duplicate month {month}")
            if step != 1:
                raise rec.error(f"months must ascend without gaps ({months[-1]} -> {month})")
        months.append(month)
        for name in names:
            data[name].append(rec.parse(name, parse_float_cell))

    start = months[0]
    series = {
        name: MonthlySeries(start, np.asarray(vals)) for name, vals in data.items()
    }
    return Panel(start, len(months), series)


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
        vals = panel[name].values
        bad = ~np.isnan(vals) & (vals <= 0.0)
        if bad.any():
            month = panel.start + int(np.argmax(bad))
            raise DataError(
                f"{path}: column {name}: index numbers must be positive, "
                f"offending month {month}"
            )
    y2020 = [
        panel["CPI"].values[i]
        for i, m in enumerate(panel.months())
        if m.year == 2020 and not np.isnan(panel["CPI"].values[i])
    ]
    if y2020:
        mean = float(np.mean(y2020))
        if not 95.0 <= mean <= 105.0:
            warnings.warn(
                f"{path}: 2020 average of CPI is {mean:.2f}, expected "
                f"about 100 for a 2020-base index",
                stacklevel=2,
            )
    return panel


def table_rows(panel: Panel, columns: tuple[str, ...], month_columns: MonthColumns = {}):
    """The rows of a monthly table; month_columns cells are computed from the month."""
    months = panel.months()
    cells = [[str(month) for month in months]]
    for name in columns[1:]:
        if name in month_columns:
            cells.append([month_columns[name](month) for month in months])
        else:
            cells.append(panel[name].values.tolist())
    return zip(*cells)


def write_monetary(path: Path | str, panel: Panel) -> Path:
    """Inverse of load_monetary; round-trips bit-exactly."""
    return write_csv(path, MONETARY.header, table_rows(panel, MONETARY.header))


def write_cpi(path: Path | str, panel: Panel) -> Path:
    """Inverse of load_cpi; round-trips bit-exactly."""
    return write_csv(path, CPI.header, table_rows(panel, CPI.header))
