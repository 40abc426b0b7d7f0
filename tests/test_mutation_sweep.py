"""A mutation sweep over the monthly tables: no corrupted file ends in a traceback.

One 240-month economy is built; then each mutation of `monetary.csv` and
`cpi.csv` is read by `transform`, and each of `panel.csv` by
`breakpoints`, `fit-phase` and `irf`. The sweep is fixed: no mutation
and no position is drawn at random.
- A cell that is not a decimal, a row duplicated, dropped, swapped or cut
  short, a trailing comma, a preamble key given twice and an empty file
  exit 1 with one error line that names the file, and the line when one
  row is at fault.
- CRLF line ends and a BOM exit 0, every output byte-identical.
- A decimal edit may exit 0 or 1, with one error line, which names the
  file when `transform` reads it; a negative RB exits 1 from `transform`.
"""

import shutil
from pathlib import Path

import pytest

from monephase.cli import main

MONTHS = ("2016-05", "2021-06")  # the cells edited; rows are mutated at the first
# file: (the commands that read it, the column edited in each month of MONTHS)
READERS = {
    "monetary.csv": (("transform",), ("RB", "RB")),
    "cpi.csv": (("transform",), ("CPI_core", "CPI")),
    "panel.csv": (("breakpoints", "fit-phase", "irf"), ("phi", "pi_core")),
}
NOT_DECIMAL = ("nan", "inf", "1_0", "abc")
DECIMAL = ("1e300", "-1e300", "-1", "0", "")
WARNING, ERROR = "monephase: warning: ", "monephase: error: "  # what starts a stderr line

# name: (lines, the row's index) -> (the mutated lines, the line at fault or None)
REFUSED = {
    "duplicated": lambda lines, k: ([*lines[: k + 1], *lines[k:]], k + 2),
    "dropped": lambda lines, k: ([*lines[:k], *lines[k + 1 :]], k + 1),
    "swapped": lambda lines, k: ([*lines[:k], lines[k + 1], lines[k], *lines[k + 2 :]], k + 1),
    "truncated": lambda lines, k: ([*lines[:k], lines[k][: len(lines[k]) // 2], *lines[k + 1 :]],
                                   k + 1),
    "trailing_comma": lambda lines, k: ([*lines[:k], lines[k] + ",", *lines[k + 1 :]], k + 1),
    "preamble_key_twice": lambda lines, k: (["# note: a", "# note: b", *lines], 2),
    "empty": lambda lines, k: ([], None),
}
UNCHANGED = {
    "crlf": lambda lines: [line + "\r" if line else line for line in lines],
    "bom": lambda lines: ["\ufeff" + lines[0], *lines[1:]],
}


def _cases():
    for name, (commands, columns) in READERS.items():
        edits = [f"{column}={cell}@{month}" for month, column in zip(MONTHS, columns)
                 for cell in NOT_DECIMAL + DECIMAL]
        for command in commands:
            for mutation in [*edits, *REFUSED, *UNCHANGED]:
                yield pytest.param(name, command, mutation, id=f"{name}-{command}-{mutation}")


@pytest.fixture(scope="module")
def economy(tmp_path_factory):
    """A 240-month economy through irf: its directory and its config file."""
    out = tmp_path_factory.mktemp("clean")
    assert main(["synth", "--out", str(out), "--set", "synth.months=240"]) == 0
    config = str(out / "synthetic_config.txt")
    for command in ("transform", "breakpoints", "fit-phase", "irf"):
        assert main([command, "--config", config]) == 0
    return out, config


def _row(lines: list[str], month: str) -> int:
    return next(i for i, line in enumerate(lines) if line.startswith(month))


def _edit(lines: list[str], month: str, column: str, cell: str) -> list[str]:
    """lines with column's cell of month set to cell."""
    k, header = _row(lines, month), next(line for line in lines if not line.startswith("#"))
    cells = lines[k].split(",")
    cells[header.split(",").index(column)] = cell
    return [*lines[:k], ",".join(cells), *lines[k + 1 :]]


def _run(economy, tmp_path, capsys, name, command, lines):
    """Run command in tmp_path on the economy's files, name holding lines: (exit code, the
    paths it wrote, its one error line without the prefix, or None)."""
    out, config = economy
    for read in ("monetary.csv", "cpi.csv") if command == "transform" else ("panel.csv",):
        shutil.copy(out / read, tmp_path / read)
    (tmp_path / name).write_text("\n".join(lines), encoding="utf-8", newline="")
    inputs = ["--monetary", str(tmp_path / "monetary.csv"), "--cpi", str(tmp_path / "cpi.csv")]
    capsys.readouterr()
    code = main([command, "--config", config, "--out", str(tmp_path), *inputs])
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if not line.startswith(WARNING)]
    assert len(errors) == bool(code) and all(line.startswith(ERROR) for line in errors)
    error = errors[0].removeprefix(ERROR) if errors else None
    return code, list(map(Path, captured.out.splitlines())), error


@pytest.mark.filterwarnings("ignore::UserWarning")  # windows outside the data
@pytest.mark.parametrize("name, command, mutation", _cases())
def test_mutated_table(economy, tmp_path, capsys, name, command, mutation):
    out, _ = economy
    path, lines = tmp_path / name, (out / name).read_text().split("\n")
    if mutation in UNCHANGED:
        code, written, _ = _run(economy, tmp_path, capsys, name, command,
                                UNCHANGED[mutation](lines))
        assert code == 0 and written
        for output in written:
            assert output.read_bytes() == (out / output.name).read_bytes(), output.name
    elif mutation in REFUSED:
        mutated, line = REFUSED[mutation](lines, _row(lines, MONTHS[0]))
        code, _, error = _run(economy, tmp_path, capsys, name, command, mutated)
        assert code == 1 and error.startswith(f"{path}:{line}: " if line else f"{path}: ")
    else:
        edit, _, month = mutation.partition("@")
        column, _, cell = edit.partition("=")
        code, _, error = _run(economy, tmp_path, capsys, name, command,
                              _edit(lines, month, column, cell))
        if cell in NOT_DECIMAL:
            line = _row(lines, month) + 1
            assert code == 1 and error.startswith(f"{path}:{line}: cannot parse {column} {cell!r}")
        elif column == "RB" and cell.startswith("-"):
            assert code == 1
            assert error == f"{path}: reserve balances negative at {month}; composition violated"
        elif code and command == "transform":
            assert code == 1 and error.startswith(f"{path}: ")
        else:  # the error of a command downstream may name a series, not the file
            assert code in (0, 1)


@pytest.mark.parametrize("column, cell, problem", [
    ("MB", "0", "monetary base must be positive, offending month 2016-05"),
    ("RB", "1e300", "reserve balances exceed monetary base at 2016-05; composition violated"),
    ("RB", "-1", "reserve balances negative at 2016-05; composition violated"),
])
def test_composition_refused_naming_the_monetary_file(economy, tmp_path, capsys, column, cell,
                                                      problem):
    out, _ = economy
    lines = _edit((out / "monetary.csv").read_text().split("\n"), "2016-05", column, cell)
    code, _, error = _run(economy, tmp_path, capsys, "monetary.csv", "transform", lines)
    assert code == 1 and error == f"{tmp_path / 'monetary.csv'}: {problem}"
