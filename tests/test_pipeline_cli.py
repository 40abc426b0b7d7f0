import ast
import functools
import gc
import inspect
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monephase
from monephase import compartment, csvio, ingest
from monephase import econometrics as em
from monephase import landau as ld
from monephase import pipeline
from monephase.cli import COMMANDS, main
from monephase.compartment import steady_state_phi
from monephase.config import (
    _SCALAR_KEYS,
    DEFAULT_CLUSTERS,
    RunConfig,
    apply_overrides,
    config_text,
    parse_config,
)
from monephase.csvio import fmt, parse_float_cell, read_csv
from monephase.errors import DataError
from monephase.phase import CASH, RESERVE
from monephase.pipeline import (
    ARTIFACTS,
    IRF_PHI_FILE,
    IRF_PI_FILE,
    SUMMARY_FILE,
    cmd_breakpoints,
    cmd_calibrate,
    cmd_efficiency,
    cmd_fit_phase,
    cmd_irf,
    cmd_landau,
    cmd_report,
    cmd_transform,
    era_label,
    read_irfs,
    read_panel_csv,
    write_economy,
    write_irfs,
)
from monephase.series import MonthIndex, Panel
from monephase.synth import default_spec, generate, two_compartment_spec


PATHS = st.text("abcXYZ019_-./#", max_size=16)
MONTHS = st.builds(MonthIndex, st.integers(1000, 9999), st.integers(1, 12))
CHAIN_COMMANDS = (
    "transform", "breakpoints", "fit-phase", "irf", "calibrate", "landau", "efficiency", "report"
)


@pytest.fixture(scope="module")
def econ_dir(tmp_path_factory):
    """A small noiseless-transition economy plus a config pointing at it."""
    out = tmp_path_factory.mktemp("econ")
    spec = two_compartment_spec(
        seed=7, months=480, start=MonthIndex(1986, 1), t0=MonthIndex(2013, 4)
    )
    panel, truth = generate(spec)
    write_economy(out, panel, truth)
    cfg = RunConfig(
        monetary_path=str(out / "monetary.csv"),
        cpi_path=str(out / "cpi.csv"),
        out_dir=str(out),
        seed=7,
    )
    cmd_transform(cfg)
    return out, cfg, spec


class TestConfig:
    def test_defaults_are_baseline(self):
        cfg = RunConfig()
        assert cfg.cash_max == 0.30 and cfg.reserve_min == 0.60
        assert cfg.shock_p == 12 and cfg.horizon == 24
        assert cfg.lags == 12 and cfg.hac_lag == 12
        assert cfg.tanh_start == MonthIndex(2010, 1)
        assert cfg.tanh_end == MonthIndex(2018, 12)
        assert set(cfg.clusters) == {"1990", "2013", "2022"}
        assert all(len(w) == 5 for w in cfg.clusters.values())

    def test_parse_and_override(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "# comment\n"
            "phase.cash_max = 0.25\n"
            "lp.horizon = 12\n"
            "breaks.cluster.custom = 2000-01:2009-12,2001-01:2008-12\n"
        )
        cfg = parse_config(path)
        assert cfg.cash_max == 0.25
        assert cfg.horizon == 12
        assert [str(a) for a, _ in cfg.clusters["custom"]] == ["2000-01", "2001-01"]
        cfg2 = apply_overrides(cfg, ["lp.horizon=36", "shock.kind=detrended"])
        assert cfg2.horizon == 36 and cfg2.shock_kind == "detrended"

    def test_cluster_keys_of_a_file_replace_the_defaults_and_a_set_adds_one(self, tmp_path):
        # a config file that names any cluster keeps only the clusters it names, while
        # --set breaks.cluster.<name> replaces or adds that one cluster of the config
        path = tmp_path / "run.conf"
        path.write_text(f"breaks.cluster.2013 = {DEFAULT_CLUSTERS['2013']}\n")
        assert list(parse_config(path).clusters) == ["2013"]
        cfg = apply_overrides(RunConfig(), [f"breaks.cluster.2013={DEFAULT_CLUSTERS['2013']}"])
        assert list(cfg.clusters) == ["1990", "2013", "2022"]
        cfg = apply_overrides(RunConfig(), ["breaks.cluster.2013=2009-01:2018-12"])
        assert [str(a) for a, _ in cfg.clusters["2013"]] == ["2009-01"]
        assert cfg.clusters["1990"] == RunConfig().clusters["1990"]

    def test_hash_starts_a_comment_only_after_whitespace(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "  # indented comment\n"
            "phase.cash_max = 0.25  # inline comment\n"
            "out.dir = runs/h#1\n"
            "data.cpi = #cpi.csv\n"
            "data.monetary = m.csv\t# after a tab\n"
        )
        cfg = parse_config(path)
        assert cfg.cash_max == 0.25 and cfg.out_dir == "runs/h#1"
        assert cfg.cpi_path == "#cpi.csv" and cfg.monetary_path == "m.csv"

    @pytest.mark.parametrize(
        "attr, key, value",
        [("cpi_path", "data.cpi", " cpi.csv"), ("monetary_path", "data.monetary", "m.csv "),
         ("out_dir", "out.dir", "a\nb"), ("out_dir", "out.dir", "a #b"),
         ("out_dir", "out.dir", "a\t#b")],
    )
    def test_config_text_refuses_values_that_do_not_read_back(self, attr, key, value):
        with pytest.raises(DataError, match=f"^{re.escape(f'{key} = {value!r}')} would not read"):
            config_text(RunConfig(**{attr: value}))

    @pytest.mark.parametrize("name", ["a,b", "a\nb", os.fsdecode(b"a\xff")])
    @pytest.mark.parametrize("command", ["synth", "breakpoints"])
    def test_cluster_name_its_files_cannot_hold_refused(
        self, default_chain, tmp_path, capsys, command, name
    ):
        # a comma or line break would split breakpoints.csv's cluster cell or
        # synthetic_config.txt's line; a lone surrogate has no UTF-8 bytes
        shutil.copy(default_chain[0] / "panel.csv", tmp_path / "panel.csv")
        out = tmp_path / "out" if command == "synth" else tmp_path
        key = f"breaks.cluster.{name}"
        assert main([command, "--out", str(out), "--set", f"{key}=2008-01:2019-12"]) == 1
        err = capsys.readouterr().err
        assert f"cluster name in {key!r} must be UTF-8" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["panel.csv"]

    def test_cluster_name_with_a_comma_refused_in_a_config_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("breaks.cluster.a,b = 2008-01:2019-12\n")
        with pytest.raises(DataError, match="cluster name in 'breaks.cluster.a,b' must be UTF-8"):
            parse_config(path)

    def test_synth_refuses_a_non_utf8_out_dir_before_writing(self, tmp_path, capsys):
        out = tmp_path / os.fsdecode(b"o\xff")
        assert main(["synth", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "would not read back from a config file unchanged" in err
        assert "Traceback" not in err and list(tmp_path.iterdir()) == []

    def test_non_utf8_config_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes("# 設定\nseed = 3\n".encode("cp932"))
        with pytest.raises(DataError, match=r"c\.txt: byte 2 \(0x90\) is not UTF-8; save the file"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("no.such.key = 1\n")
        with pytest.raises(DataError, match="unknown configuration key"):
            parse_config(path)

    @pytest.mark.parametrize(
        "line, problem",
        [
            ("seed", "expected 'key = value'"),
            ("no.such.key = 1", "unknown configuration key 'no.such.key'"),
            ("lp.horizon = abc", "cannot parse value 'abc' for key 'lp.horizon'"),
            ("tanh.window_start = 2010", "cannot parse month '2010', expected YYYY-MM"),
            ("breaks.cluster.x = 2008-01", "window '2008-01' must look like YYYY-MM:YYYY-MM"),
            ("breaks.cluster. = 2008-01:2019-12", "cluster key needs a name"),
            (
                "breaks.cluster.x = 2000-01:2009-12, 2010-01:2000-01",
                "window '2010-01:2000-01' of breaks.cluster.x ends before it starts",
            ),
        ],
    )
    def test_line_errors_name_the_path_as_given_and_the_line(self, tmp_path, line, problem):
        (tmp_path / "run.conf").write_text(f"# a comment\n{line}\n")
        given = f"{tmp_path}/./run.conf"  # Path(given) would print it without the ./
        with pytest.raises(DataError) as caught:
            parse_config(given)
        assert str(caught.value).startswith(f"{given}:2: {problem}")

    @pytest.mark.parametrize("key", ["seed", "breaks.cluster.x"])
    def test_key_set_twice_in_a_file_refused(self, tmp_path, key):
        value = "2008-01:2019-12" if key.startswith("breaks.") else "3"
        path = tmp_path / "run.conf"
        path.write_text(f"{key} = {value}\nlp.lags = 6\n{key}={value}\n")
        with pytest.raises(DataError, match=f"run.conf:3: {key} is set on line 1 already"):
            parse_config(path)

    @pytest.mark.parametrize(
        "key, value, problem",
        [
            ("shock.kind", "ar", "shock kind must be one of ('ar_resid', 'detrended'), got 'ar'"),
            ("shock.p", "0", "shock.p must be positive, got 0"),
            ("lp.horizon", "-1", "lp.horizon must be nonnegative, got -1"),
            ("lp.lags", "-1", "lp.lags must be nonnegative, got -1"),
            ("lp.hac_lag", "-1", "lp.hac_lag must be nonnegative, got -1"),
            ("breaks.min_segment", "0", "breaks.min_segment must be positive, got 0"),
            ("landau.phi_c", "1", "landau.phi_c must lie in (0, 1), got 1.0"),
            ("seed", "-1", "seed must be nonnegative, got -1"),
        ],
    )
    def test_range_errors_name_the_line(self, tmp_path, key, value, problem):
        # a key's own range is checked as its line is read; --set and a
        # RunConfig built in code give the same problem without a place
        path = tmp_path / "run.conf"
        path.write_text(f"# a comment\n{key} = {value}\n")
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}:2: {problem}')}$"):
            parse_config(path)
        with pytest.raises(DataError, match=f"^{re.escape(problem)}$"):
            apply_overrides(RunConfig(), [f"{key}={value}"])
        setting = _SCALAR_KEYS[key]
        with pytest.raises(DataError, match=f"^{re.escape(problem)}$"):
            RunConfig(**{setting.name: setting.metadata["parse"](value)})

    @pytest.mark.parametrize("command", ["synth", "breakpoints"])
    def test_reversed_window_refused_before_writing(self, default_chain, tmp_path, capsys, command):
        shutil.copy(default_chain[0] / "panel.csv", tmp_path / "panel.csv")
        out = tmp_path / "out" if command == "synth" else tmp_path
        windows = "breaks.cluster.x=2000-01:2009-12,2010-01:2000-01"
        assert main([command, "--out", str(out), "--set", windows]) == 1
        err = capsys.readouterr().err
        assert err == (
            "monephase: error: window '2010-01:2000-01' of breaks.cluster.x ends before it starts\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["panel.csv"]
        with pytest.raises(DataError, match="^window '2010-01:2000-01' of breaks.cluster.x ends"):
            RunConfig(clusters={"x": [(MonthIndex(2010, 1), MonthIndex(2000, 1))]})

    @pytest.mark.parametrize("command", ["synth", "fit-phase"])
    def test_reversed_tanh_window_refused_before_writing(
        self, default_chain, tmp_path, capsys, command
    ):
        shutil.copy(default_chain[0] / "panel.csv", tmp_path / "panel.csv")
        out = tmp_path / "out" if command == "synth" else tmp_path
        window = ["--set", "tanh.window_start=2018-01", "--set", "tanh.window_end=2010-06"]
        assert main([command, "--out", str(out), *window]) == 1
        problem = "tanh.window_start 2018-01 is after tanh.window_end 2010-06"
        assert capsys.readouterr().err == f"monephase: error: {problem}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["panel.csv"]
        config = tmp_path / "run.conf"
        config.write_text("tanh.window_start = 2018-01\ntanh.window_end = 2010-06\n")
        with pytest.raises(DataError, match=f"^{re.escape(f'{config}: {problem}')}$"):
            parse_config(config)
        with pytest.raises(DataError, match=f"^{re.escape(problem)}$"):
            RunConfig(tanh_start=MonthIndex(2018, 1), tanh_end=MonthIndex(2010, 6))

    def test_set_overrides_stay_last_wins(self):
        assert apply_overrides(RunConfig(), ["seed=2", "seed=3"]).seed == 3

    def test_config_wide_errors_name_the_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("phase.cash_max = 0.7\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: thresholds must satisfy"):
            parse_config(path)

    @given(
        st.builds(
            lambda tanh_window, **values: RunConfig(
                tanh_start=tanh_window[0], tanh_end=tanh_window[1], **values
            ),
            tanh_window=st.tuples(MONTHS, MONTHS).map(sorted),
            monetary_path=PATHS,
            cpi_path=PATHS,
            out_dir=PATHS,
            cash_max=st.floats(0.01, 0.49),
            reserve_min=st.floats(0.51, 0.99),
            shock_kind=st.sampled_from(("ar_resid", "detrended")),
            shock_p=st.integers(1, 36),
            horizon=st.integers(0, 60),
            lags=st.integers(0, 24),
            hac_lag=st.integers(0, 24),
            min_segment=st.integers(1, 60),
            robustness=st.booleans(),
            landau_phi_c=st.none() | st.floats(0.01, 0.99),
            synth_months=st.integers(1, 3000),
            seed=st.integers(0, 2**31),
            clusters=st.dictionaries(
                st.text("abc0123456789_", min_size=1, max_size=6),
                st.lists(st.tuples(MONTHS, MONTHS).map(sorted).map(tuple), max_size=3),
                max_size=3,
            ),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_config_text_round_trip(self, tmp_path_factory, cfg):
        path = tmp_path_factory.mktemp("config") / "run.conf"
        path.write_text(config_text(cfg), encoding="utf-8")
        assert parse_config(path) == cfg

    @pytest.mark.parametrize(
        "word, value",
        [("true", True), ("YES", True), ("1", True), ("False", False), ("no", False), ("0", False)],
    )
    def test_robustness_words(self, word, value):
        assert apply_overrides(RunConfig(), [f"irf.robustness={word}"]).robustness is value

    @pytest.mark.parametrize("word", ["on", "ture", ""])
    def test_unknown_robustness_word_exit_code(self, tmp_path, capsys, word):
        assert main(["irf", "--out", str(tmp_path), "--set", f"irf.robustness={word}"]) == 1
        err = capsys.readouterr().err
        assert f"cannot parse value {word!r} for key 'irf.robustness'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["lp.horizon", "lp.lags", "lp.hac_lag"])
    def test_keys_admitting_zero_say_nonnegative(self, key):
        apply_overrides(RunConfig(), [f"{key}=0"])  # 0 is admitted
        with pytest.raises(DataError, match=f"{key} must be nonnegative, got -1"):
            apply_overrides(RunConfig(), [f"{key}=-1"])

    def test_era_labels(self):
        assert era_label(1975) == "1971-1989"
        assert era_label(1990) == "1990-2012"
        assert era_label(2013) == "2013-2021"
        assert era_label(2024) == "2022-2026"
        # outside Japan's 1971-2026 record, as on a 2,400-month economy: a missing cell
        assert era_label(1970) == era_label(1826) == era_label(2027) == ""

    def test_scalar_keys_in_the_order_config_text_writes_them(self):
        assert list(_SCALAR_KEYS) == [
            "data.monetary", "data.cpi", "out.dir", "phase.cash_max", "phase.reserve_min",
            "tanh.window_start", "tanh.window_end", "shock.kind", "shock.p", "lp.horizon",
            "lp.lags", "lp.hac_lag", "breaks.min_segment", "irf.robustness", "landau.phi_c",
            "synth.months", "seed",
        ]

    def test_default_clusters_are_their_config_text(self):
        lines = config_text(RunConfig()).splitlines()
        clusters = [line for line in lines if line.startswith("breaks.cluster.")]
        assert clusters == [f"breaks.cluster.{n} = {text}" for n, text in DEFAULT_CLUSTERS.items()]

    def test_readme_configuration_block_is_the_defaults(self, tmp_path):
        # its uncommented lines set only the data paths and out.dir to other than the default
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"^## Configuration\n.*?^```\n(.*?)^```$", readme, re.M | re.S)[1]
        path = tmp_path / "run.conf"
        path.write_text(block, encoding="utf-8")
        cfg = parse_config(path)
        paths = dict(monetary_path=cfg.monetary_path, cpi_path=cfg.cpi_path, out_dir=cfg.out_dir)
        assert cfg == replace(RunConfig(), **paths)
        named = re.findall(r"^(?:# )?([\w.]+) = ", block, re.M)
        assert [key for key in _SCALAR_KEYS if key not in named] == []


class TestTransform:
    def test_panel_columns_and_leading_missing(self, econ_dir):
        out, cfg, spec = econ_dir
        panel = read_panel_csv(out / "panel.csv")
        phi = panel["phi"].values
        assert ((phi >= 0) & (phi <= 1)).all()
        for name in ("pi", "pi_core", "g_mb"):
            vals = panel[name].values
            assert np.isnan(vals[:12]).all()
            assert not np.isnan(vals[12:]).any()
        assert panel["idx_MB_SA"].values[0] == 100.0

    def test_rerun_byte_identical(self, econ_dir, tmp_path):
        out, cfg, spec = econ_dir
        first = (out / "panel.csv").read_bytes()
        from dataclasses import replace

        cfg2 = replace(cfg, out_dir=str(tmp_path))
        cmd_transform(cfg2)
        assert (tmp_path / "panel.csv").read_bytes() == first

    def test_missing_paths_error(self):
        with pytest.raises(DataError, match="data.monetary"):
            cmd_transform(RunConfig())


class TestBreakpoints:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_planted_2013_break_across_windows(self, econ_dir):
        # windows predating the 1986 data start are skipped with a warning
        out, cfg, spec = econ_dir
        cmd_breakpoints(cfg)
        _, _, rows = read_csv(out / "breakpoints.csv")
        planted = MonthIndex(2013, 4)
        taus = [
            MonthIndex.parse(cells[4])
            for cells in rows
            if cells[0] == "phi" and cells[1] == "2013"
        ]
        assert len(taus) == 5
        for tau in taus:
            assert abs(tau - planted) <= 1

    def test_row_per_series_window(self, econ_dir):
        out, cfg, spec = econ_dir
        _, _, rows = read_csv(out / "breakpoints.csv")
        data_start, data_end = MonthIndex(1986, 1), MonthIndex(2025, 12)
        expected = 0
        for _, windows in cfg.clusters.items():
            for a, b in windows:
                if not (a >= data_start and b <= data_end):
                    continue
                expected += 2  # log_MB_SA and phi cover the full range
                if a >= data_start + 12:  # pi_core starts 12 months later
                    expected += 1
        assert len(rows) == expected

    def test_min_segment_zero_exit_code(self, econ_dir, tmp_path, capsys):
        out, cfg, spec = econ_dir
        shutil.copy(out / "panel.csv", tmp_path / "panel.csv")
        argv = ["breakpoints", "--out", str(tmp_path), "--set", "breaks.min_segment=0"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "breaks.min_segment must be positive, got 0" in err and "Traceback" not in err
        assert not (tmp_path / "breakpoints.csv").exists()

    def test_window_too_short_names_its_cluster_and_min_segment(
        self, default_chain, tmp_path, capsys
    ):
        shutil.copy(default_chain[0] / "panel.csv", tmp_path / "panel.csv")
        assert main(["breakpoints", "--out", str(tmp_path), "--set", "breaks.min_segment=40"]) == 1
        assert capsys.readouterr().err == (
            "monephase: error: breaks.cluster.2013, breaks.min_segment = 40: "
            "window 2011-01..2016-12 has 72 months, needs at least 80\n"
        )
        assert not (tmp_path / "breakpoints.csv").exists()

    @pytest.mark.parametrize(
        "name, column, cell, series",
        [
            ("panel.csv", "phi", "1e160", "phi"),
            ("panel.csv", "pi_core", "1e160", "pi_core"),
            ("cpi.csv", "CPI_core", "1e300", "pi_core"),  # transform passes it on to pi_core
        ],
    )
    def test_overflowing_window_names_its_series(
        self, default_chain, tmp_path, capsys, name, column, cell, series
    ):
        for source in ("monetary.csv", "cpi.csv", "panel.csv"):
            shutil.copy(default_chain[0] / source, tmp_path / source)
        lines = (tmp_path / name).read_text().splitlines()
        j, row = lines[0].split(",").index(column), next(
            i for i, line in enumerate(lines) if line.startswith("1990-06,")
        )
        cells = lines[row].split(",")
        lines[row] = ",".join(cells[:j] + [cell] + cells[j + 1 :])
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        out = ["--out", str(tmp_path)]
        if name == "cpi.csv":
            inputs = ["--monetary", str(tmp_path / "monetary.csv"), "--cpi", str(tmp_path / name)]
            assert main(["transform", *inputs, *out]) == 0
        capsys.readouterr()
        assert main(["breakpoints", *out]) == 1
        message = (
            f"breaks.cluster.1990, series {series}: window 1983-01..1997-12: "
            "a two-segment RSS is not finite; values too large"
        )
        if column == "phi":  # refused as panel.csv is read, before any window is scanned
            where = f"{tmp_path / name}: phi 1e+160 outside [0, 1] at 1990-06"
            message = f"{where}; rerun the transform command"
        assert capsys.readouterr().err == f"monephase: error: {message}\n"
        assert not (tmp_path / "breakpoints.csv").exists()

    def test_out_of_range_window_warns_not_aborts(self, econ_dir, tmp_path):
        out, cfg, spec = econ_dir
        from dataclasses import replace

        outside = (MonthIndex(1900, 1), MonthIndex(1910, 1))
        inside = (MonthIndex(2008, 1), MonthIndex(2019, 12))
        cfg2 = replace(cfg, out_dir=str(tmp_path), clusters={"x": [outside, inside]})
        (tmp_path / "panel.csv").write_bytes((out / "panel.csv").read_bytes())
        with pytest.warns(UserWarning, match="outside data range"):
            paths = cmd_breakpoints(cfg2)
        _, _, rows = read_csv(paths[0])
        names = ("log_MB_SA", "phi", "pi_core")
        assert [list(r[:4]) for r in rows] == [[n, "x", "2008-01", "2019-12"] for n in names]

    def test_every_window_skipped_exit_code(self, econ_dir, tmp_path, capsys):
        out, cfg, spec = econ_dir
        shutil.copy(out / "panel.csv", tmp_path / "panel.csv")
        config = tmp_path / "config.txt"
        config.write_text(f"out.dir = {tmp_path}\nbreaks.cluster.x = 1900-01:1910-01\n")
        assert main(["breakpoints", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "monephase: warning: window 1900-01..1910-01 outside data range" in err
        assert "no breakpoint window could be scanned" in err and "Traceback" not in err
        assert not (tmp_path / "breakpoints.csv").exists()


@pytest.fixture(scope="module")
def irf_out(econ_dir):
    out, cfg, spec = econ_dir
    cmd_irf(cfg)
    return out, cfg, spec


@pytest.fixture(scope="module")
def wide_econ(tmp_path_factory):
    """The default economy with a 60-month transition, transformed."""
    out = tmp_path_factory.mktemp("wide")
    panel, truth = generate(replace(default_spec(1), w=60.0))
    write_economy(out, panel, truth)
    cmd_transform(
        RunConfig(
            monetary_path=str(out / "monetary.csv"),
            cpi_path=str(out / "cpi.csv"),
            out_dir=str(out),
        )
    )
    return out


class TestIrfCommand:

    def test_s4_schema(self, irf_out):
        out, cfg, spec = irf_out
        preamble, header, rows = read_csv(out / IRF_PI_FILE)
        assert header == ["phase", "h", "beta", "se", "ci_low", "ci_high", "n"]
        assert preamble["response_variable"] == "pi_core"
        assert preamble["shock_definition"] == "ar_resid(12)"
        assert preamble["H"] == "24" and preamble["L"] == "12"
        phases = [cells[0] for cells in rows]
        assert phases == ["cash"] * 25 + ["reserve"] * 25
        hs = [int(cells[1]) for cells in rows]
        assert hs == list(range(25)) * 2

    def test_roundtrip_zero_loss(self, irf_out, tmp_path):
        out, cfg, spec = irf_out
        paths = write_irfs(tmp_path, cfg, read_irfs(out, cfg))
        assert [p.name for p in paths] == [IRF_PI_FILE, IRF_PHI_FILE]
        for path in paths:
            assert path.read_bytes() == (out / path.name).read_bytes()

    def test_each_distinct_table_computed_once(self, econ_dir, tmp_path, monkeypatch):
        # the baseline, the diagnostic and the sweep share one table memo;
        # the H_12 tables are row prefixes of the baseline's H = 24 tables,
        # and H_36 estimates only the horizons 25..36 they lack
        out, cfg, spec = econ_dir
        shutil.copy(out / "panel.csv", tmp_path / "panel.csv")
        tables, estimated = [], []
        original = em.local_projection
        signature = inspect.signature(original)

        def counted(*args, **kwargs):
            prefix = signature.bind(*args, **kwargs).arguments.get("prefix")
            tables.append(original(*args, **kwargs))
            estimated.append(tables[-1].horizon - (-1 if prefix is None else prefix.horizon))
            return tables[-1]

        monkeypatch.setattr(em, "local_projection", counted)
        cmd_irf(replace(cfg, out_dir=str(tmp_path), robustness=True))
        distinct = {(t.beta.tobytes(), t.se.tobytes(), t.n.tobytes()) for t in tables}
        assert len(tables) == 36 and len(distinct) == len(tables)
        assert sum(estimated) == 848  # 948 when H_36 redid h = 0..24

    def test_each_shock_fitted_once(self, default_chain, tmp_path, monkeypatch):
        # a shock depends on its phase, the phase's months and the shock
        # definition, not on L or the HAC lag, so the L_6 and L_18 variants
        # reuse the baseline's shocks
        out, _ = default_chain
        shutil.copy(out / "panel.csv", tmp_path / "panel.csv")
        shocks = []
        for name, shock_of in (("ar_fit", lambda r: r[1]), ("detrended_shock", lambda r: r)):
            def fitted(*args, original=getattr(em, name), shock_of=shock_of, **kwargs):
                result = original(*args, **kwargs)
                shocks.append(shock_of(result).values.tobytes())
                return result

            monkeypatch.setattr(em, name, fitted)
        cfg = parse_config(out / "synthetic_config.txt")
        cmd_irf(replace(cfg, out_dir=str(tmp_path), robustness=True))
        # 16 fits when L_6 and L_18 refit the baseline's shocks
        assert len(set(shocks)) == len(shocks) == 12

    @pytest.mark.parametrize("H", [24, 30])
    def test_robustness_grid_is_fixed(self, default_chain, tmp_path, H):
        # the paper's grid, whatever the run's H; a variant keeps the run's other
        # settings, and one whose settings are the run's equals the baseline
        out, _ = default_chain
        shutil.copy(out / "panel.csv", tmp_path / "panel.csv")
        cfg = parse_config(out / "synthetic_config.txt")
        cmd_irf(replace(cfg, out_dir=str(tmp_path), horizon=H, robustness=True))
        _, header, rows = read_csv(tmp_path / "IRF_robustness.csv")
        assert header[:6] == ["variant", "cash_max", "reserve_min", "H", "L", "shock"]
        variants = list(dict.fromkeys(tuple(cells[:6]) for cells in rows))
        h, ar12 = str(H), "ar_resid(12)"
        assert variants == [
            ("thresholds_0.25_0.55", "0.25", "0.55", h, "12", ar12),
            ("thresholds_0.25_0.60", "0.25", "0.6", h, "12", ar12),
            ("thresholds_0.25_0.65", "0.25", "0.65", h, "12", ar12),
            ("thresholds_0.30_0.55", "0.3", "0.55", h, "12", ar12),
            ("thresholds_0.30_0.60", "0.3", "0.6", h, "12", ar12),
            ("thresholds_0.30_0.65", "0.3", "0.65", h, "12", ar12),
            ("thresholds_0.35_0.55", "0.35", "0.55", h, "12", ar12),
            ("thresholds_0.35_0.60", "0.35", "0.6", h, "12", ar12),
            ("thresholds_0.35_0.65", "0.35", "0.65", h, "12", ar12),
            ("H_12", "0.3", "0.6", "12", "12", ar12),
            ("H_24", "0.3", "0.6", "24", "12", ar12),
            ("H_36", "0.3", "0.6", "36", "12", ar12),
            ("L_6", "0.3", "0.6", h, "6", ar12),
            ("L_12", "0.3", "0.6", h, "12", ar12),
            ("L_18", "0.3", "0.6", h, "18", ar12),
            ("shock_ar6", "0.3", "0.6", h, "12", "ar_resid(6)"),
            ("shock_ar12", "0.3", "0.6", h, "12", ar12),
            ("shock_ar18", "0.3", "0.6", h, "12", "ar_resid(18)"),
            ("shock_detrended", "0.3", "0.6", h, "12", "detrended(12)"),
        ]
        baseline = sorted(
            (cells[0], response, *cells[1:])
            for response, name in pipeline.IRF_FILES.items()
            for cells in read_csv(tmp_path / name)[2]
        )
        run = ("0.3", "0.6", h, "12", ar12)
        same = [v[0] for v in variants if v[1:] == run]
        assert same == ["thresholds_0.30_0.60", *["H_24"] * (H == 24), "L_12", "shock_ar12"]
        for name in same:
            assert sorted(tuple(cells[6:]) for cells in rows if cells[0] == name) == baseline

    def test_only_lp_tables_estimates(self):
        # one estimation path in pipeline: every classify, shock fit and local
        # projection goes through _lp_tables and its memo
        tree = ast.parse(Path(pipeline.__file__).read_text(encoding="utf-8"))
        estimators = {"classify", "ar_fit", "detrended_shock", "local_projection"}

        def naming(root):
            return {
                (node.lineno, node.col_offset)
                for node in ast.walk(root)
                if {getattr(node, "id", None), getattr(node, "attr", None)} & estimators
            }

        lp_tables = [n for n in tree.body if getattr(n, "name", None) == "_lp_tables"]
        assert len(lp_tables) == 1 and len(naming(lp_tables[0])) == len(estimators)
        assert naming(tree) == naming(lp_tables[0])

    def test_ci_identity_in_files(self, irf_out):
        out, cfg, spec = irf_out
        for fname in (IRF_PI_FILE, IRF_PHI_FILE):
            for cells in read_csv(out / fname)[2]:
                beta, se, ci_low = (float(c) for c in cells[2:5])
                assert ci_low == pytest.approx(beta - 1.96 * se, abs=1e-12)

    def test_shock_definition_from_config(self, econ_dir, mechanism_run, tmp_path):
        out, cfg, spec = econ_dir
        shutil.copy(out / "panel.csv", tmp_path / "panel.csv")
        cmd_irf(replace(cfg, out_dir=str(tmp_path), shock_kind="detrended"))
        for name in (IRF_PI_FILE, IRF_PHI_FILE):
            assert read_csv(tmp_path / name)[0]["shock_definition"] == "detrended(12)"
        _, header, rows = read_csv(mechanism_run["out"] / "IRF_robustness.csv")
        shocks = {cells[0]: cells[header.index("shock")] for cells in rows}
        assert shocks["shock_detrended"] == "detrended(12)"
        assert shocks["shock_ar6"] == "ar_resid(6)"

    def test_intermediate_diagnostic_flagged(self, irf_out):
        out, cfg, spec = irf_out
        preamble, _, _ = read_csv(out / "IRF_intermediate_diagnostic.csv")
        assert preamble["unstable_region"] == "true"

    def test_intermediate_diagnostic_estimates_on_wide_transition(self, wide_econ, tmp_path):
        # a 60-month transition leaves intermediate runs long enough for AR(12)
        shutil.copy(wide_econ / "panel.csv", tmp_path / "panel.csv")
        cmd_irf(RunConfig(out_dir=str(tmp_path)))
        preamble, _, rows = read_csv(tmp_path / "IRF_intermediate_diagnostic.csv")
        assert "error" not in preamble
        assert [(cells[0], int(cells[1])) for cells in rows] == [
            (response, h) for response in ("pi_core", "phi") for h in range(25)
        ]
        assert all(np.isfinite(parse_float_cell(cells[2])) for cells in rows)
        assert int(rows[0][6]) == 38

    def test_sweep_failure_names_variant(self, wide_econ, tmp_path, capsys):
        # three threshold variants leave too few detrended-shock rows; the
        # sweep is all-or-nothing and names the first of them
        shutil.copy(wide_econ / "panel.csv", tmp_path / "panel.csv")
        argv = ["irf", "--out", str(tmp_path), "--robustness", "--set", "shock.kind=detrended"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "robustness variant thresholds_0.25_0.65: reserve pi_core: horizon h=10" in err
        assert "Traceback" not in err
        assert not (tmp_path / "IRF_robustness.csv").exists()

    def test_sweep_failure_past_the_baseline_horizon_names_variant(
        self, default_chain, tmp_path, capsys
    ):
        # without the last 66 months the reserve tables keep 58 rows at h = 0:
        # enough through the baseline's h = 24, and H_36, which estimates only
        # h = 25..36, runs short at h = 32
        out, _ = default_chain
        lines = (out / "panel.csv").read_text().splitlines(keepends=True)
        (tmp_path / "panel.csv").write_text("".join(lines[:-66]))
        assert main(["irf", "--out", str(tmp_path)]) == 0
        baseline = {name: (tmp_path / name).read_bytes() for name in (IRF_PI_FILE, IRF_PHI_FILE)}
        capsys.readouterr()
        assert main(["irf", "--out", str(tmp_path), "--robustness"]) == 1
        err = capsys.readouterr().err
        assert (
            "robustness variant H_36: reserve pi_core: horizon h=32: only 26 usable rows (need > 26)"
            in err
        )
        assert not (tmp_path / "IRF_robustness.csv").exists()
        assert all((tmp_path / name).read_bytes() == b for name, b in baseline.items())

    @pytest.mark.parametrize(
        "setting, problem",
        [
            ("lp.horizon=150", "horizon h=98: only 26 usable rows (need > 26)"),
            ("lp.hac_lag=200", "max_lag 200 must be below the sample size 124"),
        ],
    )
    def test_lp_errors_name_the_table(self, default_chain, tmp_path, capsys, setting, problem):
        shutil.copy(default_chain[0] / "panel.csv", tmp_path / "panel.csv")
        assert main(["irf", "--out", str(tmp_path), "--set", setting]) == 1
        assert capsys.readouterr().err == f"monephase: error: reserve pi_core: {problem}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["panel.csv"]

    def test_phase_means_written(self, irf_out):
        out, cfg, spec = irf_out
        _, _, rows = read_csv(out / "phase_means.csv")
        means = {cells[0]: float(cells[1]) for cells in rows}
        assert means[CASH] == pytest.approx(0.127, abs=0.02)
        assert means[RESERVE] == pytest.approx(0.694, abs=0.02)


class TestLandauCommand:
    def test_outputs(self, econ_dir, tmp_path):
        out, cfg, spec = econ_dir
        from dataclasses import replace

        cfg2 = replace(cfg, out_dir=str(tmp_path), landau_phi_c=0.231)
        paths = {p.name: p for p in cmd_landau(cfg2)}
        # the illustrations say that fixed constants, not the data, draw them; only the
        # susceptibility reads phi_c, and says which
        fixed = {"source": "fixed constants in the landau command, not the data"}
        for name in ("landau_sweep.csv", "landau_potential.csv", "steady_state_sweep.csv"):
            assert read_csv(paths[name])[0] == fixed, name
        assert read_csv(paths["susceptibility.csv"])[0] == {"phi_c": "0.231"}
        _, _, sweep = read_csv(paths["landau_sweep.csv"])
        for cells in sweep:
            a, m_star = float(cells[0]), float(cells[1])
            expected = 0.0 if a >= 0 else np.sqrt(-a)
            assert abs(abs(m_star) - expected) < 1e-8
        _, _, sus = read_csv(paths["susceptibility.csv"])
        phis = np.array([float(c[0]) for c in sus])
        vals = np.array([float(c[1]) for c in sus])
        assert vals.max() <= 1.0
        assert abs(phis[vals.argmax()] - 0.231) < 0.01
        _, _, steady = read_csv(paths["steady_state_sweep.csv"])
        stars = [float(c[1]) for c in steady]
        assert all(b >= a - 1e-12 for a, b in zip(stars, stars[1:]))

    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "0", "1"])
    def test_phi_c_outside_unit_interval_exit_code(self, tmp_path, capsys, value):
        assert main(["landau", "--out", str(tmp_path), "--set", f"landau.phi_c={value}"]) == 1
        err = capsys.readouterr().err
        assert "landau.phi_c must lie in (0, 1)" in err and "Traceback" not in err
        assert not (tmp_path / "susceptibility.csv").exists()

    def test_grid_files_equal_per_point_calls(self, tmp_path):
        written = cmd_landau(RunConfig(out_dir=str(tmp_path), landau_phi_c=0.231))
        expected = {
            "landau_potential.csv": [
                (a, m, ld.free_energy(m, ld.LandauParams(a=a, b=1.0, h_field=0.0)))
                for a in (0.5, -0.5)
                for m in np.linspace(-1.5, 1.5, 121).tolist()
            ],
            "steady_state_sweep.csv": [
                (th, steady_state_phi(th, (1.0, 0.0), rates=(0.06, 0.05, 0.02), injection=1.0))
                for th in np.linspace(-6.0, 6.0, 121).tolist()
            ],
            "susceptibility.csv": [
                (phi, ld.susceptibility(phi, 0.231, epsilon=0.05))
                for phi in np.linspace(0.0, 1.0, 201).tolist()
            ],
        }
        for path in written:
            if path.name in expected:
                rows = read_csv(path)[2]
                assert rows == [[fmt(v) for v in row] for row in expected[path.name]], path.name

    def test_set_phi_c_skips_the_summary(self, default_chain, tmp_path):
        out, _ = default_chain
        lines = (out / SUMMARY_FILE).read_text().splitlines()
        (tmp_path / SUMMARY_FILE).write_text("\n".join(_preamble("converged", "false")(lines)))
        assert main(["landau", "--out", str(tmp_path), "--set", "landau.phi_c=0.3"]) == 0

    def test_needs_phi_c(self, econ_dir, tmp_path):
        out, cfg, spec = econ_dir
        from dataclasses import replace

        cfg2 = replace(cfg, out_dir=str(tmp_path))
        with pytest.raises(DataError, match="phi_c unavailable"):
            cmd_landau(cfg2)


def _count_parses(monkeypatch) -> list:
    """A list that gains an item each time load_table parses a file rather than serve its memo."""
    parses, read = [], ingest.read_artifact
    monkeypatch.setattr(ingest, "read_artifact", lambda *args: parses.append(1) or read(*args))
    return parses


class TestPanelMemo:
    """Within one process, a monthly table whose text was last written with its header is not
    parsed; any other table is parsed on every read."""

    def test_keyed_by_content_not_by_size_or_mtime(self, econ_dir, tmp_path, capsys):
        out, _, _ = econ_dir
        path = pipeline._write_table(tmp_path, "panel.csv", read_panel_csv(out / "panel.csv"))
        text = path.read_text()
        first = read_panel_csv(path)
        assert read_panel_csv(path) is first
        lines = text.split("\n")
        cells = lines[200].split(",")  # line 201: row 199

        def rewrite(mb: str):
            stat = path.stat()
            row = ",".join([cells[0], mb, *cells[2:]])
            path.write_text("\n".join([*lines[:200], row, *lines[201:]]))
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
            now = path.stat()
            assert (now.st_size, now.st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)

        digit = cells[1][:-1] + str((int(cells[1][-1]) + 1) % 10)
        rewrite(digit)
        assert read_panel_csv(path)["MB"].values[199] == float(digit) != first["MB"].values[199]
        bad = "x" * len(cells[1])
        rewrite(bad)
        message = f"{path}:201: cannot parse MB {bad!r}; rerun the transform command"
        with pytest.raises(DataError) as exc:
            read_panel_csv(path)
        assert str(exc.value) == message
        capsys.readouterr()
        assert main(["fit-phase", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"monephase: error: {message}\n"
        path.write_text(text)
        again = read_panel_csv(path)
        ingest._memo.clear()
        fresh = read_panel_csv(path)
        for panel in (first, again):
            assert (panel.start, panel.length, list(panel.series)) == (
                fresh.start, fresh.length, list(fresh.series)
            )
            for name, series in fresh.series.items():
                assert panel[name].values.tobytes() == series.values.tobytes()

    def test_holds_one_table(self, econ_dir, tmp_path):
        out, _, _ = econ_dir
        whole = read_panel_csv(out / "panel.csv")
        end = whole.end - 1  # the last month dropped
        short = Panel(whole.start, whole.length - 1,
                      {name: s.restrict(whole.start, end) for name, s in whole.series.items()})
        paths = [pipeline._write_table(tmp_path / "whole", "panel.csv", whole)]
        first = weakref.ref(read_panel_csv(paths[0]))
        gc.collect()
        assert first() is not None
        length = first().length
        paths.append(pipeline._write_table(tmp_path / "short", "panel.csv", short))
        assert read_panel_csv(paths[1]).length == length - 1
        gc.collect()
        assert first() is None

    def test_table_not_written_here_is_parsed_on_every_read(self, econ_dir, tmp_path, monkeypatch):
        out, _, _ = econ_dir
        path = tmp_path / "panel.csv"
        path.write_text((out / "panel.csv").read_text())
        ingest._memo.clear()
        parses = _count_parses(monkeypatch)
        first, second = read_panel_csv(path), read_panel_csv(path)
        assert len(parses) == 2 and second is not first and ingest._memo == {}
        for name, series in first.series.items():
            assert second[name].values.tobytes() == series.values.tobytes()

    @pytest.mark.filterwarnings("ignore::UserWarning")  # windows outside the data
    def test_one_parse_per_chain(self, tmp_path, monkeypatch):
        # each table a command reads was written by the one before: none is parsed; with
        # the memo emptied before each command, transform parses both inputs, and
        # breakpoints, fit-phase and irf each parse panel.csv
        parses = _count_parses(monkeypatch)
        for run, parsed in (("memo", 0), ("emptied", 2 + 3)):
            parses.clear()
            out = tmp_path / run
            assert main(["synth", "--out", str(out), "--set", "synth.months=240"]) == 0
            for command in ("transform", "breakpoints", "fit-phase", "irf"):
                if run == "emptied":
                    ingest._memo.clear()
                assert main([command, "--config", str(out / "synthetic_config.txt")]) == 0
            assert len(parses) == parsed
        files = sorted(path.name for path in (tmp_path / "memo").iterdir())
        assert files == sorted(path.name for path in (tmp_path / "emptied").iterdir())
        for name in files:  # synthetic_config.txt names its own directory
            memo = (tmp_path / "memo" / name).read_text()
            memo = memo.replace(str(tmp_path / "memo"), str(tmp_path / "emptied"))
            assert memo == (tmp_path / "emptied" / name).read_text()

    @pytest.mark.filterwarnings("ignore::UserWarning")  # windows outside the data
    @pytest.mark.parametrize("months", [240, 612, 2400])
    def test_written_tables_equal_their_parse(self, tmp_path, months):
        assert main(["synth", "--out", str(tmp_path), "--set", f"synth.months={months}"]) == 0
        assert main(["transform", "--config", str(tmp_path / "synthetic_config.txt")]) == 0
        readers = {
            "monetary.csv": ingest.load_monetary,
            "cpi.csv": ingest.load_cpi,
            "panel.csv": read_panel_csv,
        }
        served = {name: read(tmp_path / name) for name, read in readers.items()}
        ingest._memo.clear()
        for name, read in readers.items():
            fresh = read(tmp_path / name)
            assert fresh is not served[name]
            assert (served[name].start, served[name].length, list(served[name].series)) == (
                fresh.start, fresh.length, list(fresh.series)
            )
            assert fresh.length == months
            for column, series in fresh.series.items():
                values = served[name][column].values
                assert values.tobytes() == series.values.tobytes()
                assert not values.flags.writeable

    @pytest.mark.filterwarnings("ignore::UserWarning")  # windows outside the data
    def test_holds_no_text(self, tmp_path):
        # beside each Panel the memo holds a few bytes, not the text of the file it serves
        assert main(["synth", "--out", str(tmp_path), "--set", "synth.months=2400"]) == 0
        assert main(["transform", "--config", str(tmp_path / "synthetic_config.txt")]) == 0
        assert (tmp_path / "panel.csv").stat().st_size > 600_000
        assert sorted(ingest._memo) == sorted(
            ARTIFACTS[name].header for name in ("monetary.csv", "cpi.csv", "panel.csv")
        )
        for entry in ingest._memo.values():
            others = [value for value in entry if not isinstance(value, Panel)]
            assert len(others) == len(entry) - 1
            assert all(sys.getsizeof(value) < 1024 for value in others)
        held = ingest._memo[ARTIFACTS["panel.csv"].header][1]
        assert read_panel_csv(tmp_path / "panel.csv") is held

    def test_written_file_edited_is_parsed_and_checked(self, tmp_path, capsys):
        # edited with the same size and mtime as written, a table is parsed and checked anew
        assert main(["synth", "--out", str(tmp_path), "--set", "synth.months=240"]) == 0
        config = str(tmp_path / "synthetic_config.txt")
        assert main(["transform", "--config", config]) == 0

        def edit(path, line: int, column: int, cell) -> str:  # cell(old) keeps the length
            stat, lines = path.stat(), path.read_text().split("\n")
            cells = lines[line - 1].split(",")
            cells[column] = cell(cells[column])
            path.write_text("\n".join([*lines[: line - 1], ",".join(cells), *lines[line:]]))
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
            now = path.stat()
            assert (now.st_size, now.st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
            return cells[column]

        bad = edit(tmp_path / "panel.csv", 51, 1, lambda cell: "x" * len(cell))  # MB of row 49
        message = f"{tmp_path / 'panel.csv'}:51: cannot parse MB {bad!r}; rerun the transform command"
        with pytest.raises(DataError) as exc:
            read_panel_csv(tmp_path / "panel.csv")
        assert str(exc.value) == message
        capsys.readouterr()
        assert main(["fit-phase", "--config", config]) == 1
        assert capsys.readouterr().err == f"monephase: error: {message}\n"
        edit(tmp_path / "cpi.csv", 2, 1, lambda cell: "-" + cell[1:])  # CPI of the first month
        with pytest.raises(DataError, match="column CPI: index numbers must be positive"):
            ingest.load_cpi(tmp_path / "cpi.csv")

    def test_phi_outside_unit_interval_refused_on_every_read(self, econ_dir, tmp_path, monkeypatch):
        # the first read parses the edited file; the second, once the same text is written
        # from its Panel, is served that Panel unparsed, and refuses it the same way
        out, _, _ = econ_dir
        path = tmp_path / "panel.csv"
        lines = (out / "panel.csv").read_text().split("\n")
        path.write_text(text := "\n".join(_panel_phi("1995-06", "1.7")(lines)))
        panel = ingest.load_table(path, ARTIFACTS["panel.csv"])  # phi is not checked here
        parses = _count_parses(monkeypatch)
        message = f"{path}: phi 1.7 outside [0, 1] at 1995-06; rerun the transform command"
        for parsed in (True, False):
            if not parsed:
                assert pipeline._write_table(tmp_path, "panel.csv", panel).read_text() == text
            parses.clear()
            with pytest.raises(DataError) as exc:
                read_panel_csv(path)
            assert str(exc.value) == message and bool(parses) == parsed

    @pytest.mark.filterwarnings("ignore::UserWarning")  # windows outside the data
    def test_table_write_peaks_below_three_times_its_file(self, tmp_path):
        # a 2,400-month panel.csv is written from blocks of rows: one block's cells and
        # the text of each block, not the whole file's cells, text and bytes at once
        assert main(["synth", "--out", str(tmp_path), "--set", "synth.months=2400"]) == 0
        assert main(["transform", "--config", str(tmp_path / "synthetic_config.txt")]) == 0
        panel = read_panel_csv(tmp_path / "panel.csv")
        tracemalloc.start()
        try:
            path = pipeline._write_table(tmp_path / "again", "panel.csv", panel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == (tmp_path / "panel.csv").read_bytes()
        assert peak < 3 * path.stat().st_size


class TestReport:
    def test_missing_upstream_listed(self, econ_dir, tmp_path):
        out, cfg, spec = econ_dir
        from dataclasses import replace

        cfg2 = replace(cfg, out_dir=str(tmp_path))
        with pytest.raises(DataError, match="missing upstream"):
            cmd_report(cfg2)


class TestCli:
    @pytest.mark.parametrize(
        "argv", [["nosuch"], ["irf", "--bogus"], ["irf", "--seed", "abc"], []]
    )
    def test_usage_error_exit_code(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "\nmonephase: error: " in err and "Traceback" not in err

    @pytest.mark.parametrize("shorthand_first", [True, False])
    @pytest.mark.parametrize(
        "shorthand, override, attr, value",
        [(["--monetary", "m.csv"], "data.monetary=x.csv", "monetary_path", "m.csv"),
         (["--cpi", "c.csv"], "data.cpi=x.csv", "cpi_path", "c.csv"),
         (["--out", "o"], "out.dir=x", "out_dir", "o"),
         (["--seed", "5"], "seed=9", "seed", 5),
         (["--robustness"], "irf.robustness=false", "robustness", True)],
    )
    def test_shorthand_option_beats_a_set_of_its_key(
        self, monkeypatch, shorthand, override, attr, value, shorthand_first
    ):
        seen = []
        monkeypatch.setitem(COMMANDS, "irf", lambda cfg: seen.append(cfg) or [])
        sets = ["--set", override]
        assert main(["irf", *(shorthand + sets if shorthand_first else sets + shorthand)]) == 0
        assert getattr(seen[0], attr) == value

    def test_help_exit_code(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: monephase")

    def test_commands_in_chain_order(self):
        # scripts/run_pipeline.py runs every command after synth in this order
        assert list(COMMANDS) == ["synth", *CHAIN_COMMANDS]

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "seed must be nonnegative, got -1" in err and "Traceback" not in err
        assert not (tmp_path / "monetary.csv").exists()

    @pytest.mark.parametrize("name", ["h #1", "h\n1"])
    def test_synth_refuses_out_dir_config_cannot_hold(self, tmp_path, capsys, name):
        assert main(["synth", "--out", str(tmp_path / name)]) == 1
        err = capsys.readouterr().err
        # the first value written holds the out dir too
        assert f"data.monetary = {str(tmp_path / name / 'monetary.csv')!r} would not" in err
        assert "Traceback" not in err and list(tmp_path.iterdir()) == []

    def test_hash_in_out_dir_survives_synthetic_config(self, tmp_path):
        out = tmp_path / "h#1"
        assert main(["synth", "--out", str(out), "--set", "synth.months=240"]) == 0
        assert main(["transform", "--config", str(out / "synthetic_config.txt")]) == 0
        assert (out / "panel.csv").is_file()

    def test_synth_then_full_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["synth", "--out", str(out), "--seed", "3",
                     "--set", "synth.months=480"]) == 0
        config = str(out / "synthetic_config.txt")
        assert main(["transform", "--config", config]) == 0
        assert main(["fit-phase", "--config", config]) == 0
        t0_line = (out / "tanh_fit.csv").read_text().splitlines()[-1]
        assert "2013-0" in t0_line  # transition found near 2013

    def test_default_economy_transform_raises_no_warning(self, tmp_path, capsys):
        # synthetic CPI is on the 2020 base that the CPI ingest checks
        out = tmp_path / "run"
        assert main(["synth", "--out", str(out), "--seed", "1"]) == 0
        assert main(["transform", "--config", str(out / "synthetic_config.txt")]) == 0
        assert "monephase: warning:" not in capsys.readouterr().err

    def test_each_run_in_one_process_prints_its_warnings(self, tmp_path, capsys):
        # a 240-month economy starts 2006-01: the five 1990-cluster windows are skipped
        out = tmp_path / "run"
        assert main(["synth", "--out", str(out), "--set", "synth.months=240"]) == 0
        config = str(out / "synthetic_config.txt")
        assert main(["transform", "--config", config]) == 0
        counts = []
        for _ in range(2):
            capsys.readouterr()
            assert main(["breakpoints", "--config", config]) == 0
            lines = capsys.readouterr().err.splitlines()
            assert all(line.startswith("monephase: warning: window ") for line in lines), lines
            counts.append(len(lines))
        assert counts == [5, 5]

    def test_main_restores_the_callers_warning_state(self, tmp_path):
        shown, filters = warnings.showwarning, list(warnings.filters)
        main(["breakpoints", "--out", str(tmp_path)])
        assert warnings.showwarning is shown and warnings.filters == filters

    def test_synth_months_past_year_zero_refused_before_writing(self, tmp_path, capsys):
        # 24,312 months ending 2025-12 start in 0000-01, the first month a date cell holds
        out = tmp_path / "run"
        assert main(["synth", "--out", str(out), "--set", "synth.months=24313"]) == 1
        err = capsys.readouterr().err
        assert "synth.months must be at most 24312" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("months", [152, 0, -5])
    def test_synth_months_before_the_transition_refused_before_writing(
        self, tmp_path, capsys, months
    ):
        # the economy ends 2025-12 and must hold its transition, 2013-04: 153 months at least
        out = tmp_path / "run"
        assert main(["synth", "--out", str(out), "--set", f"synth.months={months}"]) == 1
        err = capsys.readouterr().err
        least = "synth.months must be at least 153 (2013-04 to 2025-12)"
        assert err == f"monephase: error: {least}, got {months}\n"
        assert not out.exists()

    def test_synth_months_from_the_transition_accepted(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--set", "synth.months=153"]) == 0
        assert (tmp_path / "monetary.csv").read_text().split("\n")[1].startswith("2013-04,")

    @pytest.mark.filterwarnings("ignore::UserWarning")  # windows outside the data
    @pytest.mark.parametrize(
        "months, robustness, problem",
        [
            (217, False, "cash pi_core: horizon h=0: only 26 usable rows (need > 26)"),
            (218, False, None),
            (235, True, "robustness variant L_18: cash pi_core: horizon h=0: "
                        "only 38 usable rows (need > 38)"),
            (236, True, None),
        ],
    )
    def test_shortest_economy_the_default_chain_completes_on(
        self, tmp_path, capsys, months, robustness, problem
    ):
        # seed 1, as the README gives it: a month shorter, and irf has too few cash rows
        synth = ["synth", "--out", str(tmp_path), "--seed", "1", "--set", f"synth.months={months}"]
        assert main(synth) == 0
        config = str(tmp_path / "synthetic_config.txt")
        for command in CHAIN_COMMANDS:
            capsys.readouterr()
            sweep = ["--robustness"] if robustness and command == "irf" else []
            code = main([command, "--config", config, *sweep])
            if problem and command == "irf":
                assert code == 1
                assert capsys.readouterr().err == f"monephase: error: {problem}\n"
                return
            assert code == 0, command
        assert problem is None

    def test_seed_4_at_240_months_calibrates(self, tmp_path):
        # its polish once crept into the corner of an amplitude box, A and kappa up to 1e4,
        # and stopped at the iteration cap; the reduced form has no such corner
        synth = ["synth", "--out", str(tmp_path), "--seed", "4", "--set", "synth.months=240"]
        assert main(synth) == 0
        config = str(tmp_path / "synthetic_config.txt")
        for command in ("transform", "irf", "calibrate"):
            assert main([command, "--config", config]) == 0, command
        preamble, _, _ = read_csv(tmp_path / SUMMARY_FILE)
        assert preamble["converged"] == "true"

    @pytest.mark.parametrize("key", ["tanh.window_start", "tanh.window_end"])
    def test_tanh_window_outside_the_data_names_its_key(
        self, default_chain, tmp_path, capsys, key
    ):
        shutil.copy(default_chain[0] / "panel.csv", tmp_path / "panel.csv")
        month = {"tanh.window_start": "1970-01", "tanh.window_end": "2030-01"}[key]
        assert main(["fit-phase", "--out", str(tmp_path), "--set", f"{key}={month}"]) == 1
        problem = f"{key} {month} is outside the data 1975-01..2025-12"
        assert capsys.readouterr().err == f"monephase: error: {problem}\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["panel.csv"]

    @pytest.mark.parametrize(
        "command, upstream",
        [("breakpoints", "panel.csv"), ("fit-phase", "panel.csv"), ("irf", "panel.csv"),
         ("calibrate", IRF_PI_FILE), ("landau", SUMMARY_FILE), ("efficiency", IRF_PI_FILE),
         ("report", "tanh_fit.csv")],
    )
    def test_failing_reader_makes_no_directory(self, tmp_path, capsys, command, upstream):
        out = tmp_path / "fresh"
        assert main([command, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"missing upstream {out / upstream}: run the " in err and "Traceback" not in err
        assert not out.exists()

    def test_landau_with_phi_c_set_makes_its_directory(self, tmp_path):
        out = tmp_path / "fresh"
        assert main(["landau", "--set", "landau.phi_c=0.3", "--out", str(out)]) == 0
        declared = sorted(name for name, a in ARTIFACTS.items() if a.command == "landau")
        assert sorted(path.name for path in out.iterdir()) == declared and len(declared) == 4

    @pytest.mark.parametrize(
        "months, commands",
        [(612, ("transform", "irf")), (2400, CHAIN_COMMANDS)],
        ids=["612_through_irf", "2400_through_report"],
    )
    def test_irf_outputs_identical_across_blas_threads(self, tmp_path, months, commands):
        # at 2,400 months a threaded OpenBLAS moves the last bits of the cash
        # LP regressions, and from there the calibration, unless it is pinned
        src = str(Path(monephase.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads}
            out = tmp_path / f"threads_{threads}"
            config = str(out / "synthetic_config.txt")
            runs = [["synth", "--out", str(out), "--seed", "1", "--set", f"synth.months={months}"]]
            runs += [[c, "--config", config, *(["--robustness"] * (c == "irf"))] for c in commands]
            for argv in runs:
                subprocess.run(
                    [sys.executable, "-m", "monephase.cli", *argv],
                    env=env,
                    check=True,
                    capture_output=True,
                    timeout=300,
                )
            # synthetic_config.txt names the out directory; every byte else must agree
            outputs.append({p.name: p.read_bytes().replace(bytes(out), b"") for p in out.iterdir()})
        assert sorted(outputs[0]) == sorted(outputs[1])
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], name

    def test_cli_import_loads_no_scipy(self):
        # SciPy is no runtime dependency: importing it would triple each command's start-up
        src = str(Path(monephase.__file__).resolve().parents[1])
        code = "import sys, monephase.cli; print([m for m in sys.modules if m.startswith('scipy')])"
        run = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            check=True,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert run.stdout.strip() == "[]"

    def test_package_root_imports_no_module(self):
        # the package root exports nothing; each name is imported from its own module
        src = str(Path(monephase.__file__).resolve().parents[1])
        code = (
            "import monephase, sys; "
            "print(sorted(m for m in sys.modules if m.startswith('monephase.')))"
        )
        run = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            check=True,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert run.stdout.strip() == "[]"

    def test_cp932_input_exit_code(self, econ_dir, tmp_path, capsys):
        # a Shift-JIS comment line, as Japanese statistics exports often carry
        out, cfg, _ = econ_dir
        cpi = tmp_path / "cpi.csv"
        cpi.write_bytes("# 消費者物価指数\n".encode("cp932") + (out / "cpi.csv").read_bytes())
        argv = ["transform", "--monetary", cfg.monetary_path, "--cpi", str(cpi)]
        assert main([*argv, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"{cpi}: byte 2 (0x8f) is not UTF-8; save the file as UTF-8" in err
        assert "Traceback" not in err and not (tmp_path / "panel.csv").exists()

    @pytest.mark.parametrize("option", ["--monetary", "--config"])
    def test_directory_as_file_exit_code(self, econ_dir, tmp_path, capsys, option):
        _, cfg, _ = econ_dir
        argv = ["transform", "--monetary", cfg.monetary_path, "--cpi", cfg.cpi_path]
        assert main([*argv, option, str(tmp_path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("monephase: error: ") and str(tmp_path) in err
        assert "Traceback" not in err

    def test_warning_is_one_stderr_line(self, tmp_path):
        # the 240-month economy starts in 2006, so the 1990 cluster's windows are skipped
        out = tmp_path / "run"
        assert main(["synth", "--out", str(out), "--seed", "1", "--set", "synth.months=240"]) == 0
        config = str(out / "synthetic_config.txt")
        assert main(["transform", "--config", config]) == 0
        src = str(Path(monephase.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "monephase.cli", "breakpoints", "--config", config],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 0
        lines = run.stderr.splitlines()
        assert lines and all(line.startswith("monephase: warning: window ") for line in lines)
        assert "COMMANDS[" not in run.stderr

    @pytest.mark.parametrize("edit", ["drop", "duplicate"])
    def test_broken_panel_month_sequence_exit_code(self, econ_dir, tmp_path, capsys, edit):
        out, cfg, spec = econ_dir
        lines = (out / "panel.csv").read_text().splitlines(keepends=True)
        k = 100  # lines[k] is file line k + 1
        if edit == "drop":
            del lines[k]  # its successor, now on line k + 1, skips a month
            bad_line, message = k + 1, "months must ascend without gaps"
        else:
            lines.insert(k, lines[k])
            bad_line, message = k + 2, "duplicate month"
        (tmp_path / "panel.csv").write_text("".join(lines))
        assert main(["irf", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"panel.csv:{bad_line}: {message}" in err and "Traceback" not in err

    def test_old_diagnostic_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("irf.intermediate_diagnostic = true\n")
        assert main(["transform", "--config", str(cfg)]) == 1
        assert "unknown configuration key" in capsys.readouterr().err

    def test_validation_error_exit_code(self, tmp_path):
        assert main(["transform", "--out", str(tmp_path)]) == 1

    def test_unknown_key_exit_code(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("bogus.key = 1\n")
        assert main(["transform", "--config", str(cfg)]) == 1

    def test_efficiency_without_irf_files_exit_code(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["synth", "--out", str(out), "--seed", "3", "--set", "synth.months=240"]) == 0
        assert main(["efficiency", "--config", str(out / "synthetic_config.txt")]) == 1
        err = capsys.readouterr().err
        assert "run the irf command first" in err and "Traceback" not in err

    def test_synth_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--out", str(a), "--seed", "5", "--set", "synth.months=240"])
        main(["synth", "--out", str(b), "--seed", "5", "--set", "synth.months=240"])
        assert (a / "monetary.csv").read_bytes() == (b / "monetary.csv").read_bytes()
        assert (a / "cpi.csv").read_bytes() == (b / "cpi.csv").read_bytes()


class TestReportEndToEnd:
    def test_full_chain_and_cross_checks(self, mechanism_run):
        out = mechanism_run["out"]
        cfg = mechanism_run["cfg"]
        with warnings.catch_warnings():
            # the mechanism calendar ends 2024-12, so the widest 2022-cluster
            # windows are expected to be skipped with a warning
            warnings.simplefilter("ignore", UserWarning)
            cmd_breakpoints(cfg)
        cmd_fit_phase(cfg)
        cmd_efficiency(cfg)
        paths = cmd_report(cfg)
        text = paths[0].read_text()
        for key in (
            "tanh.t0_calendar",
            "breakpoints.2013.phi.median",
            "efficiency.cash.eff_r",
            "efficiency.reserve.eff_c",
            "calibration.phi_c",
            "calibration.ordering_holds = true",
        ):
            assert key in text

        # report efficiencies equal the peak of the cash phi table
        eff_r, _ = mechanism_run["tables"][(CASH, "phi")].peak()
        assert f"efficiency.cash.eff_r = {eff_r!r}" in text

        # regenerating the report without recomputation is byte-identical
        first = paths[0].read_bytes()
        again = cmd_report(cfg)[0].read_bytes()
        assert again == first


class TestCalibrationOutputs:
    def test_fit_cells_are_plain_numbers(self, mechanism_run):
        for label in (CASH, RESERVE):
            _, header, rows = read_csv(mechanism_run["out"] / f"fit_{label}_phase.csv")
            for column in ("model_value", "residual"):
                i = header.index(column)
                assert all(np.isfinite(parse_float_cell(cells[i])) for cells in rows)

    def test_diagnostics_in_summary_preamble(self, mechanism_run):
        preamble, _, _ = read_csv(mechanism_run["out"] / "critical_point_summary.csv")
        _, header, params = read_csv(mechanism_run["out"] / "two_compartment_parameters.csv")
        assert header == ["phase", "u", "v", "delta", "gamma"]
        assert [cells[0] for cells in params] == [CASH, RESERVE]
        assert list(preamble) == ["converged", "degenerate", "ordering_holds", "binding_bounds",
                                  "rate_evaluations"]
        assert preamble["converged"] == "true"
        assert int(preamble["rate_evaluations"]) > 0
        bounds = preamble["binding_bounds"]
        for item in [] if bounds == "none" else bounds.split():
            name, _, value = item.partition("=")
            assert name.split(".")[-1] in ("delta", "gamma", "phi_c")
            float(value)

    def test_rerun_byte_identical(self, mechanism_run, tmp_path):
        out = mechanism_run["out"]
        for name in (IRF_PI_FILE, IRF_PHI_FILE, "phase_means.csv"):
            shutil.copy(out / name, tmp_path / name)
        for path in cmd_calibrate(replace(mechanism_run["cfg"], out_dir=str(tmp_path))):
            assert path.read_bytes() == (out / path.name).read_bytes()

    def test_capped_polish_exit_code(self, default_chain, tmp_path, capsys, monkeypatch):
        capped = functools.partial(compartment._pattern_search, maxiter=3)
        monkeypatch.setattr(compartment, "optimize", SimpleNamespace(minimize=capped))
        out, _ = default_chain
        for name in (IRF_PI_FILE, IRF_PHI_FILE, "phase_means.csv"):
            shutil.copy(out / name, tmp_path / name)
        capsys.readouterr()
        assert main(["calibrate", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "non-convergence: calibration polish stopped at its iteration cap" in err
        preamble, _, _ = read_csv(tmp_path / SUMMARY_FILE)
        assert preamble["converged"] == "false"

    def test_null_price_responses_degenerate_exit_code(self, mechanism_run, tmp_path):
        out = mechanism_run["out"]
        shutil.copy(out / "phase_means.csv", tmp_path / "phase_means.csv")
        tables = dict(mechanism_run["tables"])
        for key in ((CASH, "pi_core"), (RESERVE, "pi_core")):
            tables[key] = replace(tables[key], beta=np.zeros_like(tables[key].beta))
        write_irfs(tmp_path, mechanism_run["cfg"], tables)
        assert main(["calibrate", "--out", str(tmp_path)]) == 2
        preamble, _, _ = read_csv(tmp_path / "critical_point_summary.csv")
        assert preamble["degenerate"] == "true"


@pytest.fixture(scope="module")
def default_chain(tmp_path_factory):
    """The README chain on the default economy (seed 1): out dir and each command's files."""
    out = tmp_path_factory.mktemp("chain")
    written = {"synth": COMMANDS["synth"](RunConfig(out_dir=str(out), seed=1))}
    cfg = parse_config(out / "synthetic_config.txt")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # windows outside the data
        for command in CHAIN_COMMANDS:
            written[command] = COMMANDS[command](cfg)
    return out, written


@pytest.fixture(scope="module")
def robust_chain(default_chain, tmp_path_factory):
    """A copy of default_chain's files with irf rerun with --robustness: every declared file."""
    out, written = default_chain
    copy = tmp_path_factory.mktemp("robust")
    for path in out.iterdir():
        shutil.copy(path, copy / path.name)
    cfg = replace(parse_config(out / "synthetic_config.txt"), out_dir=str(copy), robustness=True)
    return copy, {**written, "irf": COMMANDS["irf"](cfg)}


# the files one command reads back from another; each must hold data rows
HANDOFF_FILES = (
    "panel.csv", "breakpoints.csv", "tanh_fit.csv", IRF_PI_FILE, IRF_PHI_FILE,
    "phase_means.csv", SUMMARY_FILE, "efficiency.csv",
)


def _header_only(lines):
    return lines[: next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1]


def _swap_phi_bar_n_months(lines):
    return [",".join((c[0], c[2], c[1])) for c in (line.split(",") for line in lines)]


def _edit_row(lines, prefix, edit):
    return [edit(line) if line.startswith(prefix) else line for line in lines]


def _drop(lines, prefix):
    return [line for line in lines if not line.startswith(prefix)]


def _empty_cells(lines):
    return _edit_row(lines, "cash,3,", lambda line: "cash,3,,,,,99")


def _set_cell(line, index, value):
    cells = line.split(",")
    cells[index] = value
    return ",".join(cells)


def _panel_phi(month, value):
    """An edit of panel.csv's lines that sets the phi cell of month to value."""
    column = ARTIFACTS["panel.csv"].header.index("phi")
    return lambda lines: _edit_row(lines, f"{month},", lambda line: _set_cell(line, column, value))


def _degenerate(lines):
    return [line.replace("# degenerate: false", "# degenerate: true") for line in lines]


def _preamble(key, value):
    return lambda lines: [f"# {key}: {value}" if line.startswith(f"# {key}:") else line
                          for line in lines]


def _horizon_20(lines):
    """An IRF file cut to H = 20, each phase's rows h = 0..20."""
    cut = [line for line in lines if not re.match(r"(cash|reserve),2[1-4],", line)]
    return _preamble("H", 20)(cut)


MALFORMED = {
    # case: (file, edit of its lines, command that reads it, text expected in stderr)
    "phase_means_no_cash_row": (
        "phase_means.csv", lambda lines: _drop(lines, "cash,"),
        "calibrate", "expected rows of phases cash and reserve, got reserve",
    ),
    "phase_means_swapped_columns": (
        "phase_means.csv", _swap_phi_bar_n_months, "calibrate", "rerun the irf command",
    ),
    "phase_means_empty_phi_bar": (
        "phase_means.csv", lambda lines: _edit_row(lines, "cash,", lambda line: "cash,,1"),
        "calibrate", "phase_means.csv:2: cannot parse phi_bar ''",
    ),
    "summary_empty_phi_c": (
        SUMMARY_FILE, lambda lines: lines[:-1] + ["," + lines[-1].split(",", 1)[1]],
        "landau", "cannot parse phi_c ''",
    ),
    "summary_empty_phi_c_report": (
        SUMMARY_FILE, lambda lines: lines[:-1] + ["," + lines[-1].split(",", 1)[1]],
        "report", "critical_point_summary.csv:7: cannot parse phi_c ''",
    ),
    "phase_means_non_number": (
        "phase_means.csv", lambda lines: _edit_row(lines, "cash,", lambda line: "cash,abc,1"),
        "calibrate", "phase_means.csv:2: cannot parse phi_bar 'abc'",
    ),
    "summary_header_only_landau": (
        SUMMARY_FILE, _header_only, "landau", "no data rows; rerun the calibrate command",
    ),
    "summary_header_only_report": (
        SUMMARY_FILE, _header_only, "report", "no data rows; rerun the calibrate command",
    ),
    "tanh_fit_empty_fraction": (
        "tanh_fit.csv", lambda lines: [re.sub(r"\+[0-9.]+,", "+,", line) for line in lines],
        "report", "tanh_fit.csv:5: cannot parse t0_calendar",
    ),
    "tanh_fit_header_only": (
        "tanh_fit.csv", _header_only, "report", "no data rows; rerun the fit-phase command",
    ),
    "irf_no_preamble": (
        IRF_PHI_FILE, lambda lines: _drop(lines, "#"),
        "calibrate", "no preamble key response_variable, shock_definition, H, L",
    ),
    "irf_fractional_h": (
        IRF_PI_FILE,
        lambda lines: _edit_row(lines, "cash,3,", lambda line: "cash,3.5," + line[7:]),
        "efficiency", "cannot parse h '3.5'",
    ),
    "irf_ci_low_off": (
        IRF_PI_FILE, lambda lines: _edit_row(lines, "cash,3,", lambda r: _set_cell(r, 4, "-99")),
        "calibrate", "confidence bounds inconsistent at h=3",
    ),
    "irf_missing_horizon": (
        IRF_PHI_FILE, lambda lines: _drop(lines, "reserve,5,"),
        "efficiency", "IRF table must cover h = 0..24 without gaps",
    ),
    "irf_empty_cells_efficiency": (
        IRF_PHI_FILE, _empty_cells, "efficiency", "non-finite beta or se at h=3",
    ),
    "irf_empty_cells_calibrate": (
        IRF_PI_FILE, _empty_cells, "calibrate", "non-finite beta or se at h=3",
    ),
    "efficiency_no_rows": (
        "efficiency.csv", _header_only, "report", "no data rows; rerun the efficiency command",
    ),
    "panel_header_only": (
        "panel.csv", _header_only, "breakpoints", "no data rows; rerun the transform command",
    ),
    "panel_renamed_column": (
        "panel.csv", lambda lines: _edit_row(lines, "date,", lambda h: h.replace(",phi,", ",Phi,")),
        "irf", "rerun the transform command",
    ),
    "summary_degenerate_landau": (SUMMARY_FILE, _degenerate, "landau", "degenerate calibration"),
    "summary_degenerate_report": (SUMMARY_FILE, _degenerate, "report", "degenerate calibration"),
    "summary_ordering_holds_maybe_report": (
        SUMMARY_FILE, _preamble("ordering_holds", "maybe"), "report",
        f"{SUMMARY_FILE}: cannot parse ordering_holds 'maybe'; rerun the calibrate command",
    ),
    "summary_degenerate_False_landau": (
        SUMMARY_FILE, _preamble("degenerate", "False"), "landau",
        f"{SUMMARY_FILE}: cannot parse degenerate 'False'; rerun the calibrate command",
    ),
    "summary_converged_false_landau": (
        SUMMARY_FILE, _preamble("converged", "false"), "landau",
        f"{SUMMARY_FILE}: calibration did not converge; rerun the calibrate command",
    ),
    "summary_converged_false_report": (
        SUMMARY_FILE, _preamble("converged", "false"), "report",
        f"{SUMMARY_FILE}: calibration did not converge; rerun the calibrate command",
    ),
    "summary_no_converged_key": (
        SUMMARY_FILE, lambda lines: _drop(lines, "# converged:"), "report",
        f"{SUMMARY_FILE}: no preamble key converged; rerun the calibrate command",
    ),
    "summary_ordering_holds_false_report": (
        SUMMARY_FILE, _preamble("ordering_holds", "false"), "report",
        f"{SUMMARY_FILE}:7: ordering_holds is false, but phi_bar_cash < phi_c < "
        "phi_bar_reserve holds; rerun the calibrate command",
    ),
    "summary_phi_c_5_landau": (
        SUMMARY_FILE, lambda lines: lines[:-1] + ["5.0," + lines[-1].split(",", 1)[1]], "landau",
        f"{SUMMARY_FILE}:7: phi_c must lie in (0, 1), got 5.0; rerun the calibrate command",
    ),
    "summary_phi_c_5_report": (
        SUMMARY_FILE, lambda lines: lines[:-1] + ["5.0," + lines[-1].split(",", 1)[1]], "report",
        f"{SUMMARY_FILE}:7: phi_c must lie in (0, 1), got 5.0; rerun the calibrate command",
    ),
    "panel_blank_lines": (
        "panel.csv", lambda lines: ["", ""],
        "irf", "panel.csv: no header line found; rerun the transform command",
    ),
    "breakpoints_ragged_row": (
        "breakpoints.csv", lambda lines: lines[:2] + ["phi"] + lines[3:],
        "report", "breakpoints.csv:3: expected 7 columns, got 1; rerun the breakpoints command",
    ),
    "tanh_fit_converged_maybe": (
        "tanh_fit.csv", lambda lines: [re.sub(",true$", ",maybe", line) for line in lines],
        "report", "cannot parse converged 'maybe'; rerun the fit-phase command",
    ),
    "phase_means_non_number_full_path": (
        "phase_means.csv", lambda lines: _edit_row(lines, "cash,", lambda line: "cash,abc,1"),
        "calibrate", "/phase_means.csv:2: cannot parse phi_bar 'abc'; rerun the irf command",
    ),
    "irf_missing_horizon_rerun": (
        IRF_PHI_FILE, lambda lines: _drop(lines, "reserve,5,"),
        "efficiency", "22, 23, 24]; rerun the irf command",
    ),
    "irf_empty_cells_rerun": (
        IRF_PI_FILE, _empty_cells, "calibrate", "non-finite beta or se at h=3; rerun the irf command",
    ),
    "irf_ci_low_off_rerun": (
        IRF_PI_FILE, lambda lines: _edit_row(lines, "cash,3,", lambda r: _set_cell(r, 4, "-99")),
        "efficiency", "confidence bounds inconsistent at h=3; rerun the irf command",
    ),
    "irf_unparsable_H": (
        IRF_PHI_FILE, _preamble("H", "x"), "calibrate", "'x'; rerun the irf command",
    ),
    "irf_unparsable_L": (
        IRF_PI_FILE, _preamble("L", "12.5"), "efficiency", "'12.5'; rerun the irf command",
    ),
    "irf_no_cash_rows": (
        IRF_PI_FILE, lambda lines: _drop(lines, "cash,"), "calibrate",
        "expected rows of phases cash and reserve, got reserve; rerun the irf command",
    ),
    "phase_means_no_cash_row_rerun": (
        "phase_means.csv", lambda lines: _drop(lines, "cash,"), "calibrate",
        "expected rows of phases cash and reserve, got reserve; rerun the irf command",
    ),
    "irf_horizon_mismatch_calibrate": (
        IRF_PHI_FILE, _horizon_20, "calibrate",
        f"{IRF_PHI_FILE}: estimated with H = 20 and L = 12, but the config sets "
        "lp.horizon = 24 and lp.lags = 12; rerun the irf command",
    ),
    "irf_horizon_mismatch_efficiency": (
        IRF_PHI_FILE, _horizon_20, "efficiency",
        f"{IRF_PHI_FILE}: estimated with H = 20 and L = 12, but the config sets "
        "lp.horizon = 24 and lp.lags = 12; rerun the irf command",
    ),
    "phase_means_repeated_cash": (
        "phase_means.csv", lambda lines: lines + ["cash,0.5,3"], "calibrate",
        "phase_means.csv:4: repeated phase cash; rerun the irf command",
    ),
    "efficiency_no_reserve_row": (
        "efficiency.csv", lambda lines: _drop(lines, "reserve,"), "report",
        "efficiency.csv: expected rows of phases cash and reserve, got cash; "
        "rerun the efficiency command",
    ),
    "efficiency_repeated_cash": (
        "efficiency.csv", lambda lines: lines + [lines[1]], "report",
        "efficiency.csv:4: repeated phase cash; rerun the efficiency command",
    ),
    "irf_shock_mismatch_calibrate": (
        IRF_PI_FILE, _preamble("shock_definition", "detrended(12)"), "calibrate",
        f"{IRF_PI_FILE}: estimated with shock_definition detrended(12), but the config sets "
        "shock.kind = ar_resid and shock.p = 12; rerun the irf command",
    ),
    "irf_shock_mismatch_efficiency": (
        IRF_PHI_FILE, _preamble("shock_definition", "ar_resid(6)"), "efficiency",
        f"{IRF_PHI_FILE}: estimated with shock_definition ar_resid(6), but the config sets "
        "shock.kind = ar_resid and shock.p = 12; rerun the irf command",
    ),
    "tanh_fit_two_rows_report": (
        "tanh_fit.csv", lambda lines: lines + [lines[-1]], "report",
        "tanh_fit.csv:6: more than one data row; rerun the fit-phase command",
    ),
    "summary_two_rows_landau": (
        SUMMARY_FILE, lambda lines: lines + [lines[-1]], "landau",
        f"{SUMMARY_FILE}:8: more than one data row; rerun the calibrate command",
    ),
    "summary_two_rows_report": (
        SUMMARY_FILE, lambda lines: lines + [lines[-1]], "report",
        f"{SUMMARY_FILE}:8: more than one data row; rerun the calibrate command",
    ),
    "tanh_fit_not_converged": (
        "tanh_fit.csv", lambda lines: [re.sub(",true$", ",false", line) for line in lines],
        "report", "tanh_fit.csv: tanh fit did not converge; rerun the fit-phase command",
    ),
    "panel_phi_above_one_breakpoints": (
        "panel.csv", _panel_phi("1995-06", "1.7"), "breakpoints",
        "panel.csv: phi 1.7 outside [0, 1] at 1995-06; rerun the transform command",
    ),
    "panel_phi_below_zero_fit_phase": (
        "panel.csv", _panel_phi("2020-06", "-0.4"), "fit-phase",
        "panel.csv: phi -0.4 outside [0, 1] at 2020-06; rerun the transform command",
    ),
}


class TestUpstreamArtifacts:
    def test_each_artifact_written_by_its_command_with_its_header(self, robust_chain):
        out, written = robust_chain
        for name, artifact in ARTIFACTS.items():
            if not name.endswith(".csv"):
                continue
            preamble, header, rows = read_csv(out / name)
            assert tuple(header) == artifact.header, name
            assert set(artifact.preamble) <= set(preamble), name
            assert rows or name not in HANDOFF_FILES, name

    def test_each_command_writes_exactly_its_declared_files(self, robust_chain):
        out, written = robust_chain
        assert set(written) == {artifact.command for artifact in ARTIFACTS.values()}
        for command, paths in written.items():
            declared = sorted(name for name, a in ARTIFACTS.items() if a.command == command)
            assert sorted(path.name for path in paths) == declared, command
        assert sorted(path.name for path in out.iterdir()) == sorted(ARTIFACTS)

    def test_readme_command_table_names_the_declared_files(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = re.findall(r"^\| `([a-z-]+)` +\|(.*)\|$", readme.read_text(encoding="utf-8"), re.M)
        table = {
            command: sorted(re.findall(r"`(\w+\.(?:csv|txt))`", cell)) for command, cell in rows
        }
        declared: dict[str, list[str]] = {}
        for name, artifact in sorted(ARTIFACTS.items()):
            declared.setdefault(artifact.command, []).append(name)
        assert table == declared

    def test_clean_panel_read_parses_no_cell_through_a_record(self, default_chain, monkeypatch):
        # panel.csv is parsed row by row; a Record parses only to report a bad cell
        out, _ = default_chain
        calls = []
        parse = csvio.Record.parse
        monkeypatch.setattr(
            csvio.Record, "parse", lambda rec, *args: calls.append(args) or parse(rec, *args)
        )
        assert read_panel_csv(out / "panel.csv").length == 612
        assert calls == []

    def test_pipeline_names_write_csv_only_in_write(self):
        # every CSV a command writes, synth's included, takes its header from ARTIFACTS:
        # outside csvio, only pipeline imports write_csv, and only _write calls it
        stray, calls = [], []
        for path in sorted(Path(pipeline.__file__).parent.glob("*.py")):
            if path.stem == "csvio":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            allowed = set()
            if path.stem == "pipeline":
                body = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
                allowed = {id(node) for node in ast.walk(body["_write"])}
                calls = [node for node in ast.walk(body["_write"]) if isinstance(node, ast.Call)]
                allowed |= {
                    id(alias)
                    for node in tree.body if isinstance(node, ast.ImportFrom)
                    for alias in node.names
                }
            for node in ast.walk(tree):
                names = (getattr(node, a, None) for a in ("id", "attr", "name"))
                if "write_csv" in names and id(node) not in allowed:
                    stray.append(f"{path.name}:{node.lineno}")
        assert stray == []
        assert [getattr(call.func, "id", None) for call in calls] == ["write_csv"]

    def test_only_write_csv_makes_a_directory(self):
        # a command makes its output directory only by writing a file into it, so one that
        # fails before it writes leaves no directory behind
        stray = []
        for path in sorted(Path(pipeline.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            allowed = set()
            if path.stem == "csvio":
                body = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
                allowed = {id(node) for node in ast.walk(body["write_csv"])}
            for node in ast.walk(tree):
                names = (getattr(node, a, None) for a in ("id", "attr", "name"))
                if ("mkdir" in names or "makedirs" in names) and id(node) not in allowed:
                    stray.append(f"{path.name}:{node.lineno}")
        assert stray == []

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_upstream_exit_code(self, default_chain, tmp_path, capsys, case):
        name, edit, command, message = MALFORMED[case]
        out, _ = default_chain
        for path in out.glob("*.csv"):
            shutil.copy(path, tmp_path / path.name)
        lines = (out / name).read_text().splitlines()
        edited = edit(lines)
        assert edited != lines
        (tmp_path / name).write_text("\n".join(edited) + "\n")
        capsys.readouterr()
        assert main([command, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert name in err and message in err and "Traceback" not in err

    @pytest.mark.parametrize("command", CHAIN_COMMANDS)
    def test_stdout_lists_written_paths(self, default_chain, tmp_path, capsys, command):
        out, _ = default_chain
        for path in out.iterdir():
            shutil.copy(path, tmp_path / path.name)
        config = str(tmp_path / "synthetic_config.txt")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # windows outside the data
            assert main([command, "--config", config, "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(Path(line).parent == tmp_path for line in lines), lines
        assert all(Path(line).is_file() for line in lines)

    @pytest.mark.parametrize("command", ["calibrate", "efficiency"])
    @pytest.mark.parametrize("setting, H, L", [("lp.horizon=20", 20, 12), ("lp.lags=6", 24, 6)])
    def test_irf_files_of_other_lp_settings_refused(
        self, default_chain, tmp_path, capsys, command, setting, H, L
    ):
        out, _ = default_chain
        for path in out.iterdir():
            shutil.copy(path, tmp_path / path.name)
        config = str(tmp_path / "synthetic_config.txt")
        assert main(["irf", "--config", config, "--out", str(tmp_path), "--set", setting]) == 0
        capsys.readouterr()
        assert main([command, "--config", config, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert (
            f"{tmp_path / IRF_PI_FILE}: estimated with H = {H} and L = {L}, but the config "
            "sets lp.horizon = 24 and lp.lags = 12; rerun the irf command"
        ) in err
        assert "Traceback" not in err

    def test_only_csvio_names_read_csv(self):
        # every other module reads a CSV through read_artifact, so none skips its checks
        package = Path(monephase.__file__).parent
        naming = []
        for module in sorted(package.glob("*.py")):
            if module.name == "csvio.py":
                continue
            for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
                names = {
                    getattr(node, "id", None),
                    getattr(node, "attr", None),
                    getattr(node, "name", None),
                    getattr(node, "asname", None),
                }
                if "read_csv" in names:
                    naming.append(f"{module.name}:{node.lineno}")
        assert naming == []

    @pytest.mark.parametrize("command", CHAIN_COMMANDS)
    def test_empty_out_dir_exit_code(self, tmp_path, capsys, command):
        assert main([command, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "monephase: error:" in err and "Traceback" not in err


RUNNER = Path(__file__).resolve().parents[1] / "scripts" / "run_pipeline.py"


def run_pipeline(*args, cwd):
    src = str(Path(monephase.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, str(RUNNER), *map(str, args)],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestRunPipeline:
    def test_data_run_equals_synthetic_run(self, tmp_path):
        a, b = tmp_path / "A", tmp_path / "B"
        synthetic = run_pipeline("--synthetic", 1, "--out", a, cwd=tmp_path)
        assert synthetic.returncode == 0, synthetic.stderr
        data = run_pipeline("--data", a / "monetary.csv", a / "cpi.csv", "--out", b, cwd=tmp_path)
        assert data.returncode == 0, data.stderr
        for run, commands in ((synthetic, ["synth", *CHAIN_COMMANDS]), (data, CHAIN_COMMANDS)):
            steps = re.findall(r"^== monephase (\S+)", run.stdout, re.M)
            assert steps == list(commands)
            assert len(re.findall(r"^   took \d+\.\d\d s$", run.stdout, re.M)) == len(commands)
            assert "--robustness" in re.search(r"^== monephase irf .*$", run.stdout, re.M)[0]
        chain = sorted(name for name, artifact in ARTIFACTS.items() if artifact.command != "synth")
        assert len(chain) == 18 and sorted(path.name for path in b.iterdir()) == chain
        for name in chain:
            assert (b / name).read_bytes() == (a / name).read_bytes(), name

    @pytest.mark.parametrize("source", [[], ["--synthetic", "1", "--data", "m.csv", "c.csv"]])
    def test_neither_or_both_sources_exit_code(self, tmp_path, source):
        run = run_pipeline(*source, "--out", "out", cwd=tmp_path)
        assert run.returncode == 2 and run.stderr.startswith("usage: run_pipeline.py")
        assert run.stdout == "" and list(tmp_path.iterdir()) == []

    def test_missing_data_file_exit_code(self, tmp_path):
        run = run_pipeline("--data", "monetary.csv", "cpi.csv", "--out", "out", cwd=tmp_path)
        assert run.returncode == 1
        assert "monephase: error: input file not found: monetary.csv" in run.stderr
        assert "Traceback" not in run.stderr
        assert re.findall(r"^== monephase (\S+)", run.stdout, re.M) == ["transform"]
        assert list(tmp_path.iterdir()) == []
