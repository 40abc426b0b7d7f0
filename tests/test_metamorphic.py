"""Metamorphic relations of the chain: how its outputs relate across transformed inputs.

A relation needs no ground truth, so it holds on real data as on a
synthetic economy (Chen et al. 2018). One 240-month economy (seed 1)
runs from `transform` through `report`, `irf` with `--robustness`,
three times: as `synth` wrote it, with its monetary columns doubled and
with its CPI columns doubled. Doubling a float is exact, and every
series the chain estimates from is a ratio of two levels of one kind
(phi = RB/MB, the year-on-year rates, the indexed levels) or
log(MB_SA), which doubling shifts by log 2. So every file downstream of
`panel.csv` is byte-identical to the plain run's, except the `rss` of a
two-segment fit to log(MB_SA), whose last bits the shift may move; every
break date stays.
"""

from pathlib import Path

import pytest

from monephase.cli import main
from monephase.csvio import fmt, parse_float_cell, read_csv
from monephase.pipeline import ARTIFACTS

from conftest import CHAIN_COMMANDS

RELATIONS = {"monetary": ("MB", "BN", "CO", "RB", "MB_SA"), "prices": ("CPI", "CPI_core")}
INPUTS = ("monetary.csv", "cpi.csv")
DOWNSTREAM = [name for name, a in ARTIFACTS.items() if a.command not in ("synth", "transform")]


def _scaled(source: Path, target: Path, columns: tuple[str, ...]) -> None:
    """source with each cell of columns doubled; a missing cell stays missing."""
    preamble, header, rows = read_csv(source)
    assert preamble == {}
    at = [header.index(column) for column in columns if column in header]
    lines = [",".join(header)]
    for row in rows:
        cells = list(row)
        for i in at:
            cells[i] = fmt(2.0 * parse_float_cell(cells[i]))
        lines.append(",".join(cells))
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The directory of each run, plain and each relation's, through report."""
    economy = tmp_path_factory.mktemp("economy")
    assert main(["synth", "--out", str(economy), "--seed", "1", "--set", "synth.months=240"]) == 0
    dirs = {}
    for run in ("plain", *RELATIONS):
        out = dirs[run] = tmp_path_factory.mktemp(run)
        for name in INPUTS:
            _scaled(economy / name, out / name, RELATIONS.get(run, ()))
        args = ["--config", str(economy / "synthetic_config.txt"), "--out", str(out)]
        args += ["--monetary", str(out / "monetary.csv"), "--cpi", str(out / "cpi.csv")]
        for command in CHAIN_COMMANDS:
            robustness = ["--robustness"] if command == "irf" else []
            assert main([command, *args, *robustness]) == 0, command
    return dirs


def _without_log_mb_sa_rss(data: bytes) -> bytes:
    """breakpoints.csv's bytes with the rss cell of each log_MB_SA row blanked."""
    rows = [line.split(b",") for line in data.split(b"\n")]
    return b"\n".join(b",".join([*c[:5], b"", *c[6:]] if c[0] == b"log_MB_SA" else c) for c in rows)


@pytest.mark.parametrize("relation", RELATIONS)
def test_doubled_levels_leave_every_downstream_file_unchanged(runs, relation):
    plain, scaled = runs["plain"], runs[relation]
    # panel.csv differs, so the relation compares two distinct runs
    assert (scaled / "panel.csv").read_bytes() != (plain / "panel.csv").read_bytes()
    for name in DOWNSTREAM:
        a, b = (plain / name).read_bytes(), (scaled / name).read_bytes()
        if name == "breakpoints.csv" and relation == "monetary":
            a, b = _without_log_mb_sa_rss(a), _without_log_mb_sa_rss(b)
        assert a == b, name
