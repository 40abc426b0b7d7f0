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
  row is at fault. In a hand-off file, from each of its readers, every
  column of the row mutated takes each cell that is not a decimal, or an
  empty cell where the file's Artifact declares text; each exits 1
  naming the file and the line, as its reader parses every cell. A
  hand-off file's reader keys its rows by phase, h or series, so a
  swapped row changes nothing; a dropped `breakpoints.csv` row is
  refused by its `windows` count.
- A preamble key that a hand-off file's readers require (its recorded
  settings, an IRF file's `response_variable`, the summary's three flags
  and `breakpoints.csv`'s `windows`), set to `x`, exits 1 with one error
  line that names the file.
- CRLF line ends and a BOM exit 0, every output byte-identical.
- A decimal edit of `panel.csv` exits 1 naming the file: its derived
  columns must be what its levels give. Each number and integer column
  of a hand-off file takes each decimal edit from each of its readers.
  An IRF `n` of 0 or -1 exits 1 naming the file: a projection needs more
  rows than its 2L + 2 regressors. A decimal edit of another file may
  exit 0 or 1, with one error line, which names the file when
  `transform` reads it or the file is a hand-off file; a negative RB
  exits 1 from `transform`.
"""

import shutil
from pathlib import Path

import pytest

from monephase.cli import main
from monephase.csvio import parse_float_cell, parse_int, parse_number
from monephase.pipeline import ARTIFACTS, IRF_PHI_FILE, IRF_PI_FILE, SUMMARY_FILE, _text

MONTHS = ("2016-05", "2021-06")  # the cells edited; rows are mutated at the first
# monthly table: (the commands that read it, the column edited in each month of MONTHS)
READERS = {
    "monetary.csv": (("transform",), ("RB", "RB")),
    "cpi.csv": (("transform",), ("CPI_core", "CPI")),
    "panel.csv": (("breakpoints", "fit-phase", "irf"), ("phi", "pi_core")),
}
# hand-off file: (the commands that read it, the start of the row mutated)
HANDOFFS = {
    IRF_PI_FILE: (("efficiency", "calibrate"), "cash,3,"),
    IRF_PHI_FILE: (("efficiency", "calibrate"), "reserve,5,"),
    "phase_means.csv": (("calibrate",), "cash,"),
    "tanh_fit.csv": (("report",), ""),
    "breakpoints.csv": (("report",), "phi,2013,"),
    "efficiency.csv": (("report",), "cash,"),
    SUMMARY_FILE: (("landau", "report"), ""),
}
NUMBERS = (parse_number, parse_float_cell, parse_int)  # the kinds of cells that a decimal edits
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


def _kind(name: str, column: str):
    """The kind that name's Artifact declares for column, without the bound of a bounded one."""
    kind = dict(ARTIFACTS[name].kinds).get(column, parse_number)
    return getattr(kind, "args", (kind,))[0]  # partial(_within, kind, ...)


def _cells(name: str, column: str) -> tuple[str, ...]:
    """The cells column takes: an empty one if it holds text, else each that is not a decimal
    and, if it holds a number or an integer, each decimal."""
    kind = _kind(name, column)
    return ("",) if kind is _text else NOT_DECIMAL + DECIMAL * (kind in NUMBERS)


def _cases():
    for name, (commands, columns) in READERS.items():
        edits = [f"{column}={cell}@{month}" for month, column in zip(MONTHS, columns)
                 for cell in NOT_DECIMAL + DECIMAL]
        for command in commands:
            for mutation in [*edits, *REFUSED, *UNCHANGED]:
                yield pytest.param(name, command, mutation, id=f"{name}-{command}-{mutation}")
    for name, (commands, _) in HANDOFFS.items():
        edits = [f"{column}={cell}" for column in ARTIFACTS[name].header
                 for cell in _cells(name, column)]
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
        if cell in NOT_DECIMAL or (handoff and _kind(name, column) is _text):
            assert code == 1 and error.startswith(f"{path}:{k + 1}: cannot parse {column} {cell!r}")
        elif column == "RB" and cell.startswith("-"):
            assert code == 1
            assert error == f"{path}: reserve balances negative at {month}; composition violated"
        elif name == "panel.csv":
            assert code == 1 and error.startswith(f"{path}: ")
        elif column == "n" and cell in ("0", "-1"):  # a projection has 2L + 2 = 26 regressors
            phase, h = HANDOFFS[name][1].split(",")[:2]
            problem = f"n {cell} at h={h} of the {phase} phase is not above 2L + 2 = 26"
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


# (file, command, data row, column, cell, the problem at that row's line): each cell is parsed
# and held to its kind's bound, and report holds a row's cells to each other
EDITS = [
    ("phase_means.csv", "calibrate", 0, "n_months", "-5", "n_months -5 is negative"),
    ("tanh_fit.csv", "report", 0, "sse", "abc", "cannot parse sse 'abc'"),
    ("tanh_fit.csv", "report", 0, "w_months", "-3", "w_months -3.0 is not positive"),
    ("tanh_fit.csv", "report", 0, "t0_calendar", "2013-04+7",
     "cannot parse t0_calendar '2013-04+7'"),
    ("breakpoints.csv", "report", 0, "rss", "x", "cannot parse rss 'x'"),
    ("breakpoints.csv", "report", 1, "tie", "maybe", "cannot parse tie 'maybe'"),
    ("breakpoints.csv", "report", 0, "cluster", "", "cannot parse cluster ''"),
    ("breakpoints.csv", "report", 0, "window_end", "1900-01",
     "window_end 1900-01 is before window_start {window_start}"),
    ("breakpoints.csv", "report", 0, "tau", "1900-01",
     "tau 1900-01 outside its window {window_start}..{window_end}"),
    ("efficiency.csv", "report", 0, "H", "zz", "cannot parse H 'zz'"),
    ("efficiency.csv", "report", 0, "H", "5", "H 5 is not lp.horizon = 24"),
    ("efficiency.csv", "report", 0, "eff_r", "-1", "eff_r -1.0 is negative"),
    ("efficiency.csv", "report", 0, "argmax_r", "-3", "argmax_r -3 is negative"),
    ("efficiency.csv", "report", 0, "argmax_r", "99", "argmax_r 99 is above lp.horizon = 24"),
    (SUMMARY_FILE, "landau", 0, "s_pi", "abc", "cannot parse s_pi 'abc'"),
    (SUMMARY_FILE, "landau", 0, "objective", "abc", "cannot parse objective 'abc'"),
]


@pytest.mark.parametrize(
    "name, command, index, column, cell, problem", EDITS,
    ids=[f"{name}-{command}-{column}={cell}" for name, command, _, column, cell, _ in EDITS],
)
def test_edit_refused_at_its_line(economy, tmp_path, capsys, name, command, index, column, cell,
                                  problem):
    out, _ = economy
    path, lines = tmp_path / name, (out / name).read_text().split("\n")
    k = _row(lines, "") + index
    header = next(line for line in lines if not line.startswith("#")).split(",")
    problem = problem.format(**dict(zip(header, lines[k].split(","))))
    code, _, error = _run(economy, tmp_path, capsys, name, command, _edit(lines, k, column, cell))
    rerun = f"; rerun the {ARTIFACTS[name].command} command"
    assert code == 1 and error.startswith(f"{path}:{k + 1}: {problem}{rerun}")


def test_summary_made_under_another_horizon_refused(economy, tmp_path, capsys):
    # the summary records the IRF files' settings, so landau refuses one calibrated from H = 24
    out, config = economy
    shutil.copy(out / SUMMARY_FILE, tmp_path / SUMMARY_FILE)
    capsys.readouterr()
    args = ["--config", config, "--out", str(tmp_path), "--set", "lp.horizon=20"]
    assert main(["landau", *args]) == 1
    assert capsys.readouterr().err == (
        f"{ERROR}{PREFIXES['landau']}{tmp_path / SUMMARY_FILE}: made with H = 24, but the config "
        "sets lp.horizon = 20; rerun the calibrate command; or set landau.phi_c\n"
    )
