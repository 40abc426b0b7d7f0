"""Deterministic CSV reading/writing helpers, and the one checked reader.

Floats are serialized with Python's shortest round-trip representation,
so write-then-read reproduces every value bit-exactly and repeated runs
produce byte-identical files. Missing values are empty cells. Every CSV
a command reads, input or hand-off, is declared as an Artifact and read
through read_artifact, which checks it before any cell is used.
"""

from __future__ import annotations

import itertools
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import DataError

WRITE_BLOCK = 256  # rows write_csv formats at once


def fmt(value) -> str:
    """One CSV cell: shortest round-trip float, plain int, str as-is."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):  # repr of np.float64 is "np.float64(...)"; write the plain number
        return "" if math.isnan(value) else repr(float(value))
    return str(value)


# an optional ASCII sign, ASCII digits with at most one point, an optional exponent: the
# finite forms float() reads, without its digit grouping and other scripts' digits
DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
INTEGER = re.compile(r"[+-]?[0-9]+")  # an optional ASCII sign and ASCII digits, as DECIMAL


def parse_int(cell: str) -> int:
    """A cell that, stripped, must be an INTEGER."""
    if not INTEGER.fullmatch(text := cell.strip()):
        raise DataError(f"cannot parse integer {cell!r}")
    return int(text)


def parse_float_cell(cell: str) -> float:
    """Empty cell -> NaN; anything else, stripped, must be a finite DECIMAL."""
    text = cell.strip()
    if text == "":
        return math.nan
    if not DECIMAL.fullmatch(text):
        raise DataError(f"cannot parse number {cell!r}")
    v = float(text)
    if not math.isfinite(v):  # such as 1e400
        raise DataError(f"non-finite number {cell!r}")
    return v


def write_csv(
    path: Path | str,
    header: Sequence[str],
    rows: Iterable[Sequence],
    preamble: Sequence[tuple[str, object]] = (),
    digest=None,
) -> Path:
    """Write a comma-delimited UTF-8 file after a '# key: value' preamble, and make its
    directory. It holds one block of WRITE_BLOCK rows' cells, formatted a column at a time,
    and each block's text, written in order: never the whole file as one text or as bytes.
    Every block is formatted before the file is opened, so a row of other than one cell
    per header column raises ValueError, and nothing is written. A blake2b digest, if
    given, is fed each block's text, UTF-8 encoded, as it is written."""
    path = Path(path)
    lines = [f"# {key}: {fmt(value)}" for key, value in preamble]
    texts, rows = ["\n".join([*lines, ",".join(header), ""])], iter(rows)
    while block := list(itertools.islice(rows, WRITE_BLOCK)):
        columns = [  # a column of plain floats skips fmt's tests
            [repr(v) if v == v else "" for v in column] if set(map(type, column)) == {float}
            else list(map(fmt, column))
            for _, *column in zip(header, *block, strict=True)
        ]
        texts.append("\n".join([*map(",".join, zip(*columns)), ""]))
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as file:
        for text in texts:
            file.write(text)
            if digest is not None:
                digest.update(text.encode())
    return path


def read_utf8(path: Path) -> str:
    """The text of a UTF-8 file, without a leading BOM; other bytes raise DataError."""
    try:
        return path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}: byte {exc.start} (0x{exc.object[exc.start]:02x}) is not UTF-8; "
            "save the file as UTF-8"
        ) from None


class Row(list):
    """The string cells of one data row, with its physical line number."""

    def __init__(self, cells: list[str], lineno: int):
        super().__init__(cells)
        self.lineno = lineno


def read_csv(
    path: Path | str, text: str | None = None
) -> tuple[dict[str, str], list[str], list[Row]]:
    """Read back (preamble dict, header, raw string rows) of path, or split its text if given.

    Accepts LF or CRLF endings and skips blank lines, before the header as
    after it; raises on ragged rows and on a preamble key given twice, with
    the path and line number. Each row keeps the line it was read from as
    its lineno.
    """
    path = Path(path)
    text = read_utf8(path) if text is None else text
    preamble: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[Row] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if line == "":
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, _, value = body.partition(":")
                if (key := key.strip()) in preamble:
                    raise DataError(f"{path}:{lineno}: preamble key {key!r} given twice")
                preamble[key] = value.strip()
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            continue
        if len(cells) != len(header):
            raise DataError(
                f"{path}:{lineno}: expected {len(header)} columns, got {len(cells)}"
            )
        rows.append(Row(cells, lineno))
    if header is None:
        raise DataError(f"{path}: no header line found")
    return preamble, header, rows


@dataclass(frozen=True)
class Artifact:
    """A file a command writes, or an input."""

    command: str | None  # the command that writes it; None for an input file
    header: tuple[str, ...]  # empty for a file that is not a CSV
    preamble: tuple[str, ...] = ()  # keys its readers require
    # a monthly table's (column, its cell for a year) pairs: written from the date, never read
    by_year: tuple[tuple[str, Callable[[int], str]], ...] = ()
    # (name, the kind that parses it) of each column or required key other than a setting that
    # a reader parses other than by parse_number; see parse_cell
    kinds: tuple[tuple[str, Callable[[str], object]], ...] = ()

    @property
    def rerun(self) -> str:
        """The hint that ends an error in the file: the command that writes it, if any."""
        return f"; rerun the {self.command} command" if self.command else ""


def parse_number(cell: str) -> float:
    """parse_float_cell for a cell that must hold a number: an empty cell is an error, not NaN."""
    if not cell.strip():
        raise DataError("empty cell")
    return parse_float_cell(cell)


class Record(dict):
    """The values of one data row, or of the preamble, of a file read_artifact checked, keyed
    by column or key as its reader parses them; text holds each as written."""

    def __init__(self, path: Path, artifact: Artifact, cells: Row | dict[str, str]):
        super().__init__()
        row = isinstance(cells, Row)
        self.text: dict[str, str] = dict(zip(artifact.header, cells) if row else cells)
        self.where = f"{path}:{cells.lineno}" if row else str(path)  # a preamble names no line
        self.rerun = artifact.rerun  # the rerun hint of an upstream file; empty for an input

    def error(self, problem: str) -> DataError:
        """A DataError for this row, naming its path, its line if any and, upstream, the rerun."""
        return DataError(f"{self.where}: {problem}{self.rerun}")


def parse_cell(rec: Record, key: str, kind: Callable[[str], object] = parse_number):
    """rec's cell or key as written, parsed by kind. A kind raises DataError for a text that
    does not parse, and ValueError, with the problem that follows the key, for a value out of
    its bound; either is refused with rec's path and line."""
    try:
        return kind(rec.text[key])
    except DataError:
        raise rec.error(f"cannot parse {key} {rec.text[key]!r}") from None
    except ValueError as bound:
        raise rec.error(f"{key} {bound}") from None


@contextmanager
def context(prefix: str = "", suffix: str = ""):
    """Re-raise a DataError of the block as prefix + its message + suffix, without its chain."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{prefix}{exc}{suffix}") from None


def read_text(path: Path, artifact: Artifact) -> str:
    """A file's text, with read_artifact's DataError for a missing file or one not UTF-8."""
    if not path.exists():
        if artifact.command is None:
            raise DataError(f"input file not found: {path}")
        raise DataError(f"missing upstream {path}: run the {artifact.command} command first")
    with context(suffix=artifact.rerun):
        return read_utf8(path)


def read_artifact(
    path: Path | str, artifact: Artifact, text: str | None = None
) -> tuple[dict[str, str], list[Row]]:
    """(preamble, rows) of a CSV, checked against its artifact; text, if given, is its read_text.

    A missing file, text that is not UTF-8, a ragged row, another header,
    a missing preamble key or no data rows raise DataError naming the file
    and, unless it is an input, the command that writes it; parse_cell
    reports a cell that does not parse the same way, with its line.
    """
    path, rerun = Path(path), artifact.rerun
    text = read_text(path, artifact) if text is None else text
    with context(suffix=rerun):
        preamble, header, rows = read_csv(path, text)
    problem = None
    if tuple(header) != artifact.header:
        problem = f"header {','.join(header)}, expected {','.join(artifact.header)}"
    elif missing := [key for key in artifact.preamble if key not in preamble]:
        problem = f"no preamble key {', '.join(missing)}"
    elif not rows:
        problem = "no data rows"
    if problem:
        raise DataError(f"{path}: {problem}{rerun}")
    return preamble, rows
