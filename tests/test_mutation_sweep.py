"""A mutation sweep over the files one command reads: no corrupted file ends in a traceback.

One 240-month economy is built through `report`. Each mutation of
`monetary.csv` and `cpi.csv` is read by `transform`, and each of
`panel.csv` by `breakpoints`, `fit-phase` and `irf`: the monthly tables.
Each mutation of a hand-off file is read by the commands that read it:
the IRF files by `efficiency` and `calibrate` (only a mutation let pass
runs `calibrate`'s solve), `phase_means.csv` by `calibrate`,
`tanh_fit.csv`, `breakpoints.csv` and `efficiency.csv` by `report`, and
`critical_point_summary.csv` by `landau` and `report`. The sweep is
fixed: no mutation and no position is drawn at random.
- A cell that is not a decimal, a row duplicated, dropped, swapped or cut
  short, a trailing comma, a preamble key given twice and an empty file
  exit 1 with one error line that names the file, and the line when one
  row is at fault. In a hand-off file, whose reader keys its rows by
  phase, h or series, a swapped row changes nothing, nor does a cell that
  its reader does not read; a dropped `breakpoints.csv` row is refused
  by its `windows` count.
- A preamble key that a hand-off file's readers require (its recorded
  settings, an IRF file's `response_variable`, the summary's three flags
  and `breakpoints.csv`'s `windows`), set to `x`, exits 1 with one error
  line that names the file.
- CRLF line ends and a BOM exit 0, every output byte-identical.
- A decimal edit of `panel.csv` exits 1 naming the file: its derived
  columns must be what its levels give. An IRF `n` of 0 or -1 exits 1
  naming the file: a projection needs more rows than its 2L + 2
  regressors. A decimal edit of another file
  may exit 0 or 1, with one error line, which names the file when
  `transform` reads it or the file is a hand-off file; a negative RB
  exits 1 from `transform`.
"""

import shutil
from pathlib import Path

import pytest

from monephase.cli import main
from monephase.pipeline import ARTIFACTS, IRF_PHI_FILE, IRF_PI_FILE, SUMMARY_FILE

MONTHS = ("2016-05", "2021-06")  # the cells edited; rows are mutated at the first
# monthly table: (the commands that read it, the column edited in each month of MONTHS)
READERS = {
    "monetary.csv": (("transform",), ("RB", "RB")),
    "cpi.csv": (("transform",), ("CPI_core", "CPI")),
    "panel.csv": (("breakpoints", "fit-phase", "irf"), ("phi", "pi_core")),
}
# hand-off file: (the commands that read it, the start of the row mutated, the columns edited:
# one of numbers and, where the file has one, one of integers)
HANDOFFS = {
    IRF_PI_FILE: (("efficiency", "calibrate"), "cash,3,", ("beta", "h")),
    IRF_PHI_FILE: (("efficiency", "calibrate"), "reserve,5,", ("se", "n")),
    "phase_means.csv": (("calibrate",), "cash,", ("phi_bar", "n_months")),
    "tanh_fit.csv": (("report",), "", ("w_months",)),
    "breakpoints.csv": (("report",), "phi,2013,", ("rss",)),
    "efficiency.csv": (("report",), "cash,", ("eff_r", "argmax_r")),
    SUMMARY_FILE: (("landau", "report"), "", ("phi_c",)),
}
# command: the files it reads
READS = {
    "transform": ("monetary.csv", "cpi.csv"),
    **{command: ("panel.csv",) for command in ("breakpoints", "fit-phase", "irf")},
    "calibrate": (IRF_PI_FILE, IRF_PHI_FILE, "phase_means.csv"),
    "landau": (SUMMARY_FILE,),
    "efficiency": (IRF_PI_FILE, IRF_PHI_FILE),
    "report": ("tanh_fit.csv", "breakpoints.csv", "efficiency.csv", SUMMARY_FILE),
}
NOT_DECIMAL = ("nan", "inf", "1_0", "abc")
DECIMAL = ("1e300", "-1e300", "-1", "0", "")
GARBAGE = "x"  # the value each preamble key that a hand-off file's readers require is set to
WARNING, ERROR = "monephase: warning: ", "monephase: error: "  # what starts a stderr line
PREFIXES = {"landau": "phi_c unavailable: "}  # what a command says before the file's error

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
    for name, (commands, _, columns) in HANDOFFS.items():
        edits = [f"{column}={cell}" for column in columns for cell in NOT_DECIMAL + DECIMAL]
        edits += [f"#{key}={GARBAGE}" for key in ARTIFACTS[name].preamble]
        for command in commands:
            for mutation in [*edits, *REFUSED, *UNCHANGED]:
                yield pytest.param(name, command, mutation, id=f"{name}-{command}-{mutation}")


@pytest.fixture(scope="module")
def economy(tmp_path_factory):
    """A 240-month economy through report: its directory and its config file."""
    out = tmp_path_factory.mktemp("clean")
    assert main(["synth", "--out", str(out), "--set", "synth.months=240"]) == 0
    config = str(out / "synthetic_config.txt")
    for command in READS:
        assert main([command, "--config", config]) == 0
    return out, config


def _row(lines: list[str], start: str) -> int:
    """The index of the first data row that starts with start."""
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    return next(i for i, line in enumerate(lines) if i > header and line.startswith(start))


def _edit(lines: list[str], k: int, column: str, cell: str) -> list[str]:
    """lines with column's cell of the row at index k set to cell."""
    header = next(line for line in lines if not line.startswith("#"))
    cells = lines[k].split(",")
    cells[header.split(",").index(column)] = cell
    return [*lines[:k], ",".join(cells), *lines[k + 1 :]]


def _run(economy, tmp_path, capsys, name, command, lines):
    """Run command in tmp_path on the economy's files, name holding lines: (exit code, the
    paths it wrote, its one error line without the prefix, or None)."""
    out, config = economy
    for read in READS[command]:
        shutil.copy(out / read, tmp_path / read)
    (tmp_path / name).write_text("\n".join(lines), encoding="utf-8", newline="")
    inputs = ["--monetary", str(tmp_path / "monetary.csv"), "--cpi", str(tmp_path / "cpi.csv")]
    capsys.readouterr()
    code = main([command, "--config", config, "--out", str(tmp_path), *inputs])
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if not line.startswith(WARNING)]
    assert len(errors) == bool(code) and all(line.startswith(ERROR) for line in errors)
    error = errors[0].removeprefix(ERROR).removeprefix(PREFIXES.get(command, "")) if code else None
    return code, list(map(Path, captured.out.splitlines())), error


def _unchanged(economy, code, written):
    """Whether the run exited 0 and wrote what the economy's run of its command wrote."""
    out, _ = economy
    return code == 0 and bool(written) and all(
        path.read_bytes() == (out / path.name).read_bytes() for path in written
    )


@pytest.mark.filterwarnings("ignore::UserWarning")  # windows outside the data
@pytest.mark.parametrize("name, command, mutation", _cases())
def test_mutated_table(economy, tmp_path, capsys, name, command, mutation):
    out, _ = economy
    path, lines = tmp_path / name, (out / name).read_text().split("\n")
    handoff = name in HANDOFFS
    k = _row(lines, HANDOFFS[name][1] if handoff else MONTHS[0])  # the row mutated
    if mutation in UNCHANGED:
        code, written, _ = _run(economy, tmp_path, capsys, name, command,
                                UNCHANGED[mutation](lines))
        assert _unchanged(economy, code, written)
    elif mutation in REFUSED:
        mutated, line = REFUSED[mutation](lines, k)
        code, written, error = _run(economy, tmp_path, capsys, name, command, mutated)
        if handoff and mutation == "swapped":
            assert _unchanged(economy, code, written)
        elif handoff:  # a phase's, a horizon's or the one row missing names no line
            assert code == 1 and error.startswith((f"{path}:{line}: ", f"{path}: "))
        else:
            assert code == 1 and error.startswith(f"{path}:{line}: " if line else f"{path}: ")
    elif mutation.startswith("#"):  # a preamble key set to a value
        key, _, value = mutation[1:].partition("=")
        mutated = [f"# {key}: {value}" if line.startswith(f"# {key}:") else line for line in lines]
        code, _, error = _run(economy, tmp_path, capsys, name, command, mutated)
        assert code == 1 and error.startswith(f"{path}: ")
    else:
        edit, _, month = mutation.partition("@")
        column, _, cell = edit.partition("=")
        k = _row(lines, month) if month else k
        code, written, error = _run(economy, tmp_path, capsys, name, command,
                                    _edit(lines, k, column, cell))
        if cell in NOT_DECIMAL:
            refused = f"{path}:{k + 1}: cannot parse {column} {cell!r}"
            assert (code == 1 and error.startswith(refused)) or (
                handoff and _unchanged(economy, code, written)  # a cell its reader skips
            )
        elif column == "RB" and cell.startswith("-"):
            assert code == 1
            assert error == f"{path}: reserve balances negative at {month}; composition violated"
        elif name == "panel.csv":
            assert code == 1 and error.startswith(f"{path}: ")
        elif column == "n" and cell in ("0", "-1"):  # a projection has 2L + 2 = 26 regressors
            problem = f"n {cell} at h=5 of the reserve phase is not above 2L + 2 = 26"
            assert code == 1 and error == f"{path}: {problem}; rerun the irf command"
        elif code and (handoff or command == "transform"):
            assert code == 1 and error.startswith(f"{path}:")
        else:  # the error of a command downstream of an input may name a series, not the file
            assert code in (0, 1)


@pytest.mark.parametrize("column, cell, problem", [
    ("MB", "0", "monetary base must be positive, offending month 2016-05"),
    ("RB", "1e300", "reserve balances exceed monetary base at 2016-05; composition violated"),
    ("RB", "-1", "reserve balances negative at 2016-05; composition violated"),
    ("MB_SA", "0", "column MB_SA: values must be positive to take logs, offending month 2016-05"),
])
def test_composition_refused_naming_the_monetary_file(economy, tmp_path, capsys, column, cell,
                                                      problem):
    out, _ = economy
    lines = (out / "monetary.csv").read_text().split("\n")
    lines = _edit(lines, _row(lines, "2016-05"), column, cell)
    code, _, error = _run(economy, tmp_path, capsys, "monetary.csv", "transform", lines)
    assert code == 1 and error == f"{tmp_path / 'monetary.csv'}: {problem}"
