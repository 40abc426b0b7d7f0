"""The monthly-table reader's errors and the CSV writer's cells.

An input (`monetary.csv`) and `panel.csv` share one reader; an input's
errors carry no rerun hint, and `panel.csv`'s end with the command that
writes it. A table with several bad cells is reported at the first one in
file order: the earliest line, and in it the date, then the columns in
header order.
"""

import math
import tracemalloc
from _blake2 import blake2b
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monephase import csvio, ingest
from monephase.csvio import Record, fmt, parse_cell, parse_float_cell, read_artifact, write_csv
from monephase.errors import DataError
from monephase.ingest import MONETARY, load_table
from monephase.pipeline import ARTIFACTS
from monephase.series import MonthIndex, MonthlySeries, Panel

# kind: (file name, reader, header, the hint that ends its errors); the reader is load_table,
# without the range rules load_monetary adds
TABLES = {
    "input": ("monetary.csv", lambda path: load_table(path, MONETARY), MONETARY.header, ""),
    "panel": ("panel.csv", lambda path: load_table(path, ARTIFACTS["panel.csv"]),
              ARTIFACTS["panel.csv"].header,
              "; rerun the transform command"),
}
START = MonthIndex(1990, 1)


def _load(tmp_path, kind, edits=None, months=4):
    """Read a table of months from START with every other cell 1, edited first.

    edits maps (row, column) to the cell's text; row i is on line i + 2.
    """
    name, read, header, _ = TABLES[kind]
    lines = [",".join(header)]
    for i in range(months):
        cells = {column: "1" for column in header} | {"date": str(START + i)}
        cells |= {column: text for (row, column), text in (edits or {}).items() if row == i}
        lines.append(",".join(cells[column] for column in header))
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return read(path)


def _error(tmp_path, kind, edits):
    with pytest.raises(DataError) as exc:
        _load(tmp_path, kind, edits)
    return str(exc.value)


def _message(tmp_path, kind, line, problem):
    name, _, _, hint = TABLES[kind]
    return f"{tmp_path / name}:{line}: {problem}{hint}"


@pytest.mark.parametrize("kind", sorted(TABLES))
class TestFirstBadCell:
    def test_earlier_line_before_earlier_column(self, tmp_path, kind):
        edits = {(2, "MB"): "x", (0, "RB"): "y"}
        assert _error(tmp_path, kind, edits) == _message(
            tmp_path, kind, 2, "cannot parse RB 'y'"
        )

    def test_columns_in_header_order_on_one_line(self, tmp_path, kind):
        edits = {(1, "RB"): "y", (1, "MB"): "x"}
        assert _error(tmp_path, kind, edits) == _message(
            tmp_path, kind, 3, "cannot parse MB 'x'"
        )

    def test_bad_date_before_bad_cell_on_one_line(self, tmp_path, kind):
        edits = {(1, "date"): "1990-13", (1, "MB"): "x"}
        assert _error(tmp_path, kind, edits) == _message(
            tmp_path, kind, 3, "cannot parse date '1990-13'"
        )

    def test_bad_first_date_before_bad_cell_on_one_line(self, tmp_path, kind):
        # the first row's date is the table's start, parsed before any cell of the table
        edits = {(0, "MB"): "x", (0, "date"): "1990-13"}
        assert _error(tmp_path, kind, edits) == _message(
            tmp_path, kind, 2, "cannot parse date '1990-13'"
        )

    def test_month_gap_before_bad_cell_on_one_line(self, tmp_path, kind):
        edits = {(2, "date"): "1990-05", (2, "MB"): "x"}
        assert _error(tmp_path, kind, edits) == _message(
            tmp_path, kind, 4, "months must ascend without gaps (1990-02 -> 1990-05)"
        )

    def test_bad_cell_before_later_month_gap(self, tmp_path, kind):
        edits = {(3, "date"): "1991-01", (1, "BN"): "x"}
        assert _error(tmp_path, kind, edits) == _message(
            tmp_path, kind, 3, "cannot parse BN 'x'"
        )

    def test_date_of_other_digits_refused(self, tmp_path, kind):
        # a date is ASCII YYYY-MM, so a date cell equals its month's text once stripped
        assert _error(tmp_path, kind, {(1, "date"): "\u0661\u0669\u0669\u0660-02"}) == _message(
            tmp_path, kind, 3, "cannot parse date '\u0661\u0669\u0669\u0660-02'"
        )

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_cell(self, tmp_path, kind, cell):
        assert _error(tmp_path, kind, {(1, "RB"): cell}) == _message(
            tmp_path, kind, 3, f"cannot parse RB {cell!r}"
        )

    @pytest.mark.parametrize("cell", ["1_0", "\u0661\u0662", "\uff11\uff12", "0x10", "1e"])
    def test_other_number_forms_refused(self, tmp_path, kind, cell):
        # float() reads the first three as 10.0, 12.0 and 12.0
        assert _error(tmp_path, kind, {(1, "RB"): cell}) == _message(
            tmp_path, kind, 3, f"cannot parse RB {cell!r}"
        )

    def test_whitespace_only_cell_is_missing(self, tmp_path, kind):
        panel = _load(tmp_path, kind, {(1, "RB"): "  "})
        rb = panel["RB"].values
        assert np.isnan(rb[1]) and rb[[0, 2, 3]].tolist() == [1.0, 1.0, 1.0]

    def test_blank_cells_parse_no_cell_through_a_record(self, tmp_path, kind, monkeypatch):
        # a blank cell, empty or not, is missing without the per-cell path that reports errors;
        # parse_cell parses only the first date, the table's start
        calls, parse = [], ingest.parse_cell
        monkeypatch.setattr(
            ingest, "parse_cell", lambda rec, *args: calls.append(args) or parse(rec, *args)
        )
        panel = _load(tmp_path, kind, {(1, "RB"): "", (2, "RB"): " \t"})
        assert np.isnan(panel["RB"].values[1:3]).all() and calls == [("date", MonthIndex.parse)]

    def test_surrounding_spaces_accepted(self, tmp_path, kind):
        panel = _load(tmp_path, kind, {(1, "RB"): " 1.5 ", (1, "date"): " 1990-02 "})
        assert panel.start == START and panel.length == 4
        assert panel["RB"].values.tolist() == [1.0, 1.5, 1.0, 1.0]


# cells of ASCII digits, the characters of signs, points, exponents and digit grouping,
# blanks, other scripts' digits and the words float() reads; and finite floats as written
GRAMMAR_CELLS = st.one_of(
    st.lists(
        st.sampled_from([*"0123456789+-.eE_ \t", "\u0661", "\uff11", "\u0967", "nan", "inf",
                         "Infinity", "NaN"]),
        max_size=8,
    ).map("".join),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


@pytest.mark.parametrize("kind", sorted(TABLES))
@given(cell=GRAMMAR_CELLS, row=st.integers(0, 3),
       column=st.sampled_from(["MB", "BN", "CO", "RB", "MB_SA"]))
@settings(max_examples=200, deadline=None)
def test_reader_reads_a_cell_as_parse_float_cell_does(tmp_path_factory, kind, cell, row, column):
    # one number grammar: a cell is read exactly when parse_float_cell reads it, to the
    # same bits, and is otherwise reported at its line
    where = tmp_path_factory.mktemp("g")
    try:
        value = parse_float_cell(cell)
    except DataError:
        message = _message(where, kind, row + 2, f"cannot parse {column} {cell!r}")
        assert _error(where, kind, {(row, column): cell}) == message
    else:
        got = _load(where, kind, {(row, column): cell})[column].values[row]
        assert got.tobytes() == np.float64(value).tobytes()


@pytest.mark.parametrize(
    "cell, value",
    [("1", 1.0), ("-1.5", -1.5), ("+.5", 0.5), ("1.", 1.0), ("2e3", 2e3), ("1E-5", 1e-5),
     (" 2.5\t", 2.5), ("\u00a07\u2003", 7.0), ("", math.nan)],
)
def test_parse_float_cell_reads_ascii_decimals(cell, value):
    got = parse_float_cell(cell)
    assert got == value or (math.isnan(got) and math.isnan(value))


@pytest.mark.parametrize(
    "cell, problem",
    [("1_0", "cannot parse"), ("\u0661\u0662", "cannot parse"), ("\uff11\uff12", "cannot parse"),
     ("nan", "cannot parse"), ("inf", "cannot parse"), ("1.2.3", "cannot parse"),
     ("1e400", "non-finite"), ("-1e400", "non-finite")],
)
def test_parse_float_cell_refuses_other_forms(cell, problem):
    with pytest.raises(DataError) as exc:
        parse_float_cell(cell)
    assert str(exc.value) == f"{problem} number {cell!r}"


def test_preamble_key_given_twice_refused(tmp_path):
    path = tmp_path / "phase_means.csv"
    path.write_text("# H: 24\n# note: x\n#  H : 20\nphase,phi_bar,n_months\ncash,0.1,5\n")
    with pytest.raises(DataError) as exc:
        csvio.read_csv(path)
    assert str(exc.value) == f"{path}:3: preamble key 'H' given twice"
    with pytest.raises(DataError) as exc:
        read_artifact(path, ARTIFACTS["phase_means.csv"])
    assert str(exc.value) == f"{path}:3: preamble key 'H' given twice; rerun the irf command"


def walk_rows(path, artifact):
    """Reference reader: every row through its Record, top to bottom, each cell in header order."""
    _, rows = read_artifact(path, artifact)
    months, data = [], {name: [] for name in artifact.header[1:]}
    for row in rows:
        rec = Record(path, artifact, row)
        month = parse_cell(rec, "date", MonthIndex.parse)
        if months and month - months[-1] == 0:
            raise rec.error(f"duplicate month {month}")
        if months and month - months[-1] != 1:
            raise rec.error(f"months must ascend without gaps ({months[-1]} -> {month})")
        months.append(month)
        for name in data:
            data[name].append(parse_cell(rec, name, parse_float_cell))
    return Panel(months[0], len(months), {n: MonthlySeries(months[0], v) for n, v in data.items()})


DATES = st.sampled_from(["1990-13", "x", "", "1990-1", "199O-01"])
NUMBER_CELLS = st.sampled_from(["1", " 1.5 ", "-0.0", "", "  ", "nan", "inf", "1e999", "x", "1_0"])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_reader_matches_row_walk(tmp_path_factory, data):
    # a few rows with a handful of cells replaced: the same panel, or the same message
    n = data.draw(st.integers(1, 5))
    rows = [[str(START + i)] + ["1"] * 5 for i in range(n)]
    for _ in range(data.draw(st.integers(0, 4))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 5))
        if j:
            rows[i][j] = data.draw(NUMBER_CELLS)
        else:  # the month as written with spaces, the month above (repeated), one skipped
            near = [f" {START + i}\t", str(START + i - 1), str(START + i + 1)]
            rows[i][0] = data.draw(st.sampled_from(near) | DATES)
    path = tmp_path_factory.mktemp("r") / "monetary.csv"
    path.write_text("\n".join([",".join(MONETARY.header)] + [",".join(r) for r in rows]) + "\n")
    try:
        expected = walk_rows(path, MONETARY)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            load_table(path, MONETARY)
        assert str(got.value) == str(exc)
    else:
        assert load_table(path, MONETARY) == expected


FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, -0.0, 5e-324, 2.2e-308, 1e300]))
CELLS = st.one_of(
    FLOATS,
    FLOATS.map(np.float64),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
)


@st.composite
def tables(draw):
    """Rows of equal length; each column all floats, all ints, ints, str and bools, or any mix."""
    n_rows = draw(st.integers(0, 6))
    kinds = [FLOATS, st.integers(), st.integers() | st.text(max_size=6) | st.booleans(), CELLS]
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5))
    columns = [draw(st.lists(kind, min_size=n_rows, max_size=n_rows)) for kind in kinds]
    return [list(row) for row in zip(*columns)], len(columns)


@given(tables())
@settings(max_examples=200, deadline=None)
def test_write_csv_cells_are_fmt_of_each_value(tmp_path_factory, table):
    rows, n_columns = table
    header = [f"c{j}" for j in range(n_columns)]
    path = tmp_path_factory.mktemp("w") / "t.csv"
    assert write_csv(path, header, rows, [("note", 1.5)]) == path
    lines = ["# note: 1.5", ",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


@given(tables(), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_write_csv_blocks_join_to_the_same_bytes(tmp_path_factory, table, block):
    rows, n_columns = table
    header = [f"c{j}" for j in range(n_columns)]
    path, digest = tmp_path_factory.mktemp("w") / "t.csv", blake2b()
    with mock.patch.object(csvio, "WRITE_BLOCK", block):
        write_csv(path, header, iter(rows), digest=digest)
    lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
    assert digest.digest() == blake2b(path.read_bytes()).digest()


@pytest.mark.parametrize("rows", [[(1.0, 2.0), (3.0,)], [(1.0, 2.0), (3.0, 4.0), (5.0,)], [(1.0, 2.0, 3.0)]])
def test_write_csv_refuses_rows_not_as_wide_as_the_header(tmp_path, rows):
    # within a block, in a later block, and in every row
    path = tmp_path / "t.csv"
    with mock.patch.object(csvio, "WRITE_BLOCK", 2), pytest.raises(ValueError):
        write_csv(path, ["a", "b"], rows)
    assert not path.exists()


def test_write_csv_holds_one_block_of_cells(tmp_path):
    # a 2,000-row table: the text of each block and one block's cells; the whole
    # file's cells at once would be more than five times the file
    rng = np.random.default_rng(0)
    rows = [("x", i, *r) for i, r in enumerate(rng.standard_normal((2000, 8)).tolist())]
    path = tmp_path / "t.csv"
    tracemalloc.start()
    try:
        write_csv(path, ["s", "i"] + [f"c{j}" for j in range(8)], rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * path.stat().st_size
