from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monephase import csvio
from monephase.csvio import Artifact, write_csv
from monephase.errors import DataError
from monephase.ingest import CPI, MONETARY, load_cpi, load_monetary, table_rows
from monephase.pipeline import era_label
from monephase.series import MonthIndex, MonthlySeries, Panel, month_labels


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_minimal_monetary(tmp_path):
    path = write_lines(
        tmp_path / "m.csv",
        [
            "date,MB,BN,CO,RB,MB_SA",
            "1970-01,100,60,5,35,101",
            "1970-02,102,61,5,36,103",
        ],
    )
    panel = load_monetary(path)
    assert panel.start == MonthIndex(1970, 1)
    assert panel.length == 2
    assert panel["RB"].values.tolist() == [35.0, 36.0]


def test_month_gap_is_ordering_error(tmp_path):
    path = write_lines(
        tmp_path / "m.csv",
        [
            "date,MB,BN,CO,RB,MB_SA",
            "1970-01,1,1,1,1,1",
            "1970-03,1,1,1,1,1",
        ],
    )
    with pytest.raises(DataError, match="m.csv:3.*without gaps"):
        load_monetary(path)


@pytest.mark.parametrize(
    "lines",
    [
        ["# note", "date,MB,BN,CO,RB,MB_SA", "1970-01,1,1,1,1,1", "1970-03,1,1,1,1,1"],
        ["date,MB,BN,CO,RB,MB_SA", "", "1970-01,1,1,1,1,1", "1970-03,1,1,1,1,1"],
        ["", "date,MB,BN,CO,RB,MB_SA", "1970-01,1,1,1,1,1", "1970-03,1,1,1,1,1"],
    ],
    ids=["comment-on-top", "blank-after-header", "blank-before-header"],
)
def test_error_names_physical_line(tmp_path, lines):
    # skipped comment and blank lines still count: the gap is on line 4
    path = write_lines(tmp_path / "m.csv", lines)
    with pytest.raises(DataError, match="m.csv:4: months must ascend without gaps"):
        load_monetary(path)


def test_all_blank_file_has_no_header(tmp_path):
    path = write_lines(tmp_path / "m.csv", ["", ""])
    with pytest.raises(DataError, match="no header line found"):
        load_monetary(path)


def test_duplicate_month(tmp_path):
    path = write_lines(
        tmp_path / "m.csv",
        [
            "date,MB,BN,CO,RB,MB_SA",
            "1970-01,1,1,1,1,1",
            "1970-01,1,1,1,1,1",
        ],
    )
    with pytest.raises(DataError, match="duplicate month"):
        load_monetary(path)


def test_unparseable_cell_names_line_and_column(tmp_path):
    path = write_lines(
        tmp_path / "m.csv",
        [
            "date,MB,BN,CO,RB,MB_SA",
            "1970-01,1,1,1,oops,1",
        ],
    )
    with pytest.raises(DataError, match="m.csv:2: cannot parse RB"):
        load_monetary(path)


def test_wrong_header_rejected(tmp_path):
    path = write_lines(tmp_path / "m.csv", ["date,MB,RB", "1970-01,1,1"])
    with pytest.raises(DataError, match="header"):
        load_monetary(path)


def test_empty_cells_become_missing(tmp_path):
    path = write_lines(
        tmp_path / "m.csv",
        [
            "date,MB,BN,CO,RB,MB_SA",
            "1970-01,1,,1,1,1",
        ],
    )
    panel = load_monetary(path)
    assert np.isnan(panel["BN"].values[0])


def test_cpi_thirteen_months_feeds_yoy(tmp_path):
    lines = ["date,CPI,CPI_core"]
    month = MonthIndex(1970, 1)
    for i in range(13):
        lines.append(f"{month + i},{100 + i},{100 + i}")
    panel = load_cpi(write_lines(tmp_path / "c.csv", lines))
    from monephase.series import yoy

    out = yoy(panel["CPI"])
    assert out.values[12] == pytest.approx(12.0)


def test_cpi_nonpositive_rejected(tmp_path):
    path = write_lines(
        tmp_path / "c.csv",
        ["date,CPI,CPI_core", "1970-01,-1,100"],
    )
    with pytest.raises(DataError, match="positive"):
        load_cpi(path)


def test_cpi_2020_sanity_warning(tmp_path):
    lines = ["date,CPI,CPI_core"]
    month = MonthIndex(2020, 1)
    for i in range(12):
        lines.append(f"{month + i},250,250")
    with pytest.warns(UserWarning, match="2020 average"):
        load_cpi(write_lines(tmp_path / "c.csv", lines))


def test_cpi_2020_near_100_no_warning(tmp_path, recwarn):
    lines = ["date,CPI,CPI_core"]
    month = MonthIndex(2020, 1)
    for i in range(12):
        lines.append(f"{month + i},100.2,99.8")
    load_cpi(write_lines(tmp_path / "c.csv", lines))
    assert not [w for w in recwarn if "2020" in str(w.message)]


def test_crlf_accepted(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"date,MB,BN,CO,RB,MB_SA\r\n1970-01,1,1,1,1,1\r\n")
    panel = load_monetary(path)
    assert panel.length == 1


values_st = st.lists(
    st.one_of(st.none(), st.floats(-1e12, 1e12, allow_nan=False)),
    min_size=1,
    max_size=40,
)


@given(values_st, st.integers(1990, 2030), st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_monetary_roundtrip_bit_exact(tmp_path_factory, values, year, month):
    start = MonthIndex(year, month)
    panel = Panel(
        start,
        len(values),
        {
            name: MonthlySeries(start, values)
            for name in ("MB", "BN", "CO", "RB", "MB_SA")
        },
    )
    path = tmp_path_factory.mktemp("rt") / "m.csv"
    write_csv(path, MONETARY.header, table_rows(panel, MONETARY))
    assert load_monetary(path) == panel


@given(st.lists(st.floats(0.01, 1e6, allow_nan=False), min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_cpi_roundtrip_bit_exact(tmp_path_factory, values):
    # 1999 start keeps the sample clear of the 2020 base-year check
    start = MonthIndex(1999, 7)
    panel = Panel(
        start,
        len(values),
        {name: MonthlySeries(start, values) for name in ("CPI", "CPI_core")},
    )
    path = tmp_path_factory.mktemp("rt") / "c.csv"
    write_csv(path, CPI.header, table_rows(panel, CPI))
    assert load_cpi(path) == panel


@pytest.mark.parametrize("block", [1, 2, 3, 4])
def test_table_rows_blocks_give_the_whole_columns(block):
    # lengths that are whole blocks and lengths that are not, over the 1989 -> 1990
    # change of era, with a missing month
    table = Artifact(None, ("date", "x", "era", "y"), by_year=(("era", era_label),))
    for length in range(1, 3 * block + 2):
        start = MonthIndex(1990, 1) + -(length // 2)
        x = np.arange(length) / 7.0
        y = np.where(np.arange(length) == length // 2, np.nan, -x)
        panel = Panel(start, length, {"x": MonthlySeries(start, x), "y": MonthlySeries(start, y)})
        years = [(start.ordinal + i) // 12 for i in range(length)]
        whole = zip(month_labels(start, length), x.tolist(), map(era_label, years), y.tolist())
        with mock.patch.object(csvio, "WRITE_BLOCK", block):
            assert list(map(repr, table_rows(panel, table))) == list(map(repr, whole))
