"""Batch commands: each is a pure function of (config, input files).

Identical inputs produce byte-identical outputs: seeds are fixed in the
config, CSV row order is fixed (phase first, then horizon), and floats
are written in shortest round-trip form. ARTIFACTS declares every file
a command writes, once: the command, the header, the preamble keys its
readers require, a monthly table's by_year columns and the kinds of a
file that _read reads. Every CSV written here goes through _write with
that header, and only a write makes the output directory. Every file one
command reads from another, panel.csv aside, is read back through _read,
which checks it with read_artifact, parses each of its required keys and
cells once, by its kind, before any is used, and refuses it unless each
setting it records (SETTINGS) is the reader's. A
monthly table this process wrote is held by ingest as the Panel its text
parses to, and served unparsed while the file's text has the digest
write_csv took of that text as it wrote it.
"""

from __future__ import annotations

import warnings
from _blake2 import blake2b  # hashlib would load OpenSSL's _hashlib
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import econometrics as em
from . import landau as ld
from .compartment import CalibrationResult, calibrate, steady_state_phi
from .config import RunConfig, config_text, key_text
from .csvio import Artifact, Record, context, parse_cell, parse_float_cell, parse_int
from .csvio import parse_number
from .csvio import read_artifact, write_csv
from .errors import ConvergenceError, DataError
from .ingest import CPI, MONETARY, POSITIVE, load_cpi, load_monetary, load_table
from .ingest import refuse_non_positive, remember, table_rows
from .phase import (
    CASH,
    INTERMEDIATE,
    RESERVE,
    PhaseThresholds,
    classify,
    fit_tanh,
    phase_means,
)
from .series import MonthIndex, MonthlySeries, Panel, index_to_base, merge, order_parameter, yoy
from .synth import GroundTruth, default_spec, generate, ground_truth_rows

IRF_PI_FILE = "IRF_J6_core_inflation.csv"
IRF_PHI_FILE = "IRF_J7_phi.csv"
IRF_FILES = {"pi_core": IRF_PI_FILE, "phi": IRF_PHI_FILE}  # each response's file
SUMMARY_FILE = "critical_point_summary.csv"
FLAGS = ("converged", "degenerate", "ordering_holds")  # the summary's verdicts on its solve

ERAS = ((1971, 1989), (1990, 2012), (2013, 2021), (2022, 2026))  # of Japan's record


def era_label(year: int) -> str:
    """The era a year falls in, as 1990-2012; empty, a missing cell, outside 1971-2026."""
    return next((f"{first}-{last}" for first, last in ERAS if first <= year <= last), "")


# preamble key that records settings: (the config keys it records, its value from their values)
SETTINGS = {
    "shock_definition": (("shock.kind", "shock.p"), "{}({})"),
    "H": (("lp.horizon",), "{}"),
    "L": (("lp.lags",), "{}"),
    "cash_max": (("phase.cash_max",), "{}"),
    "reserve_min": (("phase.reserve_min",), "{}"),
    "hac_lag": (("lp.hac_lag",), "{}"),
    "window": (("tanh.window_start", "tanh.window_end"), "{}:{}"),
}
LP_SETTINGS = ("shock_definition", "H", "L", "cash_max", "reserve_min", "hac_lag")


def _flag(cell: str) -> bool:
    """A true or false cell, as fmt writes a bool."""
    if cell not in ("true", "false"):
        raise DataError(f"cannot parse flag {cell!r}")
    return cell == "true"


def _month_fraction(cell: str) -> tuple[MonthIndex, float]:
    """A YYYY-MM+fraction cell, as TanhFit.t0_calendar_str writes it: a fraction in [0, 1], as
    {:.4f} may round one just below 1 up to 1.0000."""
    month, _, fraction = cell.partition("+")
    if not 0.0 <= (value := parse_number(fraction)) <= 1.0:
        raise DataError("fraction outside [0, 1]")
    return MonthIndex.parse(month), value


def _text(cell: str) -> str:
    """A cell kept as written; a blank one does not parse."""
    if not cell.strip():
        raise DataError("blank cell")
    return cell


def _within(kind, test, problem: str, cell: str):
    """kind(cell), held to a bound: partial(_within, kind, test, problem) is a kind that raises
    ValueError with problem, given the value, for a value that fails test."""
    if not test(value := kind(cell)):
        raise ValueError(problem.format(value))
    return value


NON_NEGATIVE = (lambda v: v >= 0, "{} is negative")
COUNT = partial(_within, parse_int, *NON_NEGATIVE)  # as n_months
SIZE = partial(_within, parse_number, *NON_NEGATIVE)  # as rss
ARTIFACTS = {
    "monetary.csv": Artifact("synth", MONETARY.header),
    "cpi.csv": Artifact("synth", CPI.header),
    "ground_truth.csv": Artifact("synth", ("key", "value")),
    "synthetic_config.txt": Artifact("synth", ()),
    "panel.csv": Artifact(
        "transform",
        ("date", "MB", "BN", "CO", "RB", "MB_SA", "CPI", "CPI_core", "phi", "pi")
        + ("pi_core", "g_mb", "idx_MB_SA", "idx_CPI", "idx_CPI_core", "era"),
        by_year=(("era", era_label),),
    ),
    "breakpoints.csv": Artifact(
        "breakpoints", ("series", "cluster", "window_start", "window_end", "tau", "rss", "tie"),
        ("windows",),  # how many (series, window) pairs it scanned, one row each
        kinds=(("series", _text), ("cluster", _text),
               *((c, MonthIndex.parse) for c in ("window_start", "window_end", "tau")),
               ("rss", SIZE), ("tie", _flag), ("windows", COUNT)),
    ),
    "tanh_fit.csv": Artifact(
        "fit-phase", ("phi0", "A", "t0_calendar", "w_months", "sse", "converged"), ("window",),
        kinds=(("t0_calendar", _month_fraction), ("sse", SIZE), ("converged", _flag),
               ("w_months", partial(_within, parse_number, lambda v: v > 0, "{} is not positive"))),
    ),
    **{
        name: Artifact(
            "irf", ("phase", *em.IRF_COLUMNS), ("response_variable", *LP_SETTINGS),
            kinds=(("phase", _text), ("h", parse_int), ("n", parse_int),
                   ("response_variable",
                    partial(_within, str, response.__eq__, "is {}, expected " + response)),
                   *((c, parse_float_cell) for c in ("beta", "se", "ci_low", "ci_high"))),
        )
        for response, name in IRF_FILES.items()
    },
    "phase_means.csv": Artifact(
        "irf", ("phase", "phi_bar", "n_months"), ("cash_max", "reserve_min"),
        kinds=(("phase", _text), ("n_months", COUNT),
               ("phi_bar", partial(_within, parse_number, lambda v: 0 < v < 1,
                                   "{} outside (0, 1)"))),
    ),
    "IRF_intermediate_diagnostic.csv": Artifact("irf", ("response", *em.IRF_COLUMNS)),
    "IRF_robustness.csv": Artifact(
        "irf",
        ("variant", "cash_max", "reserve_min", "H", "L", "shock", "phase", "response")
        + em.IRF_COLUMNS,
    ),
    "two_compartment_parameters.csv": Artifact("calibrate", ("phase", "u", "v", "delta", "gamma")),
    SUMMARY_FILE: Artifact(
        "calibrate",
        ("phi_c", "s_pi", "phi_bar_cash", "phi_bar_reserve", "objective"),
        (*LP_SETTINGS, *FLAGS),
        kinds=(("phi_c", partial(_within, parse_number, lambda v: 0 < v < 1,
                                 "must lie in (0, 1), got {}")),
               *((key, _flag) for key in FLAGS)),
    ),
    **{
        f"fit_{label}_phase.csv": Artifact(
            "calibrate", ("h", "target", "empirical_beta", "model_value", "residual")
        )
        for label in (CASH, RESERVE)
    },
    "landau_sweep.csv": Artifact("landau", ("theta_or_a", "m_star", "F_min", "degenerate_flag")),
    "landau_potential.csv": Artifact("landau", ("a", "m", "F")),
    "steady_state_sweep.csv": Artifact("landau", ("theta", "phi_star")),
    "susceptibility.csv": Artifact("landau", ("phi", "S")),
    "efficiency.csv": Artifact(
        "efficiency", ("phase", "eff_r", "argmax_r", "eff_c", "argmax_c", "H"), LP_SETTINGS,
        kinds=(("phase", _text), ("H", parse_int), ("eff_r", SIZE), ("eff_c", SIZE),
               ("argmax_r", COUNT), ("argmax_c", COUNT)),
    ),
    "report.txt": Artifact("report", ()),
}


def recorded(cfg: RunConfig, name: str) -> dict[str, str]:
    """Each setting the file name records, as its preamble holds it under cfg, in SETTINGS order."""
    return {key: form.format(*(key_text(cfg, k) for k in keys))
            for key, (keys, form) in SETTINGS.items() if key in ARTIFACTS[name].preamble}


def _read(out: Path, name: str, cfg: RunConfig) -> tuple[Record, list[Record]]:
    """(preamble, records) of the file name in out, refused unless it records cfg's settings;
    then each other required key and each cell parsed once, by its kind, and refused at the
    first that fails in file order."""
    path, artifact = out / name, ARTIFACTS[name]
    preamble, rows = read_artifact(path, artifact)
    settings = recorded(cfg, name)
    head = Record(path, artifact, {k: v for k, v in preamble.items()
                                   if k in artifact.preamble and k not in settings})
    for key, value in settings.items():
        if preamble[key] != value:
            sets = " and ".join(f"{k} = {key_text(cfg, k)}" for k in SETTINGS[key][0])
            raise head.error(f"made with {key} = {preamble[key]}, but the config sets {sets}")
    kinds, records = dict(artifact.kinds), [Record(path, artifact, row) for row in rows]
    for rec in [head, *records]:
        for key in rec.text:
            rec[key] = parse_cell(rec, key, kinds.get(key, parse_number))
    return head, records


def _write(out: Path, name: str, rows, preamble=(), digest=None) -> Path:
    return write_csv(out / name, ARTIFACTS[name].header, rows, preamble, digest)


def _one_row(out: Path, name: str, cfg: RunConfig) -> tuple[Record, Record]:
    """(preamble, the record) of a file of one data row; a second row is refused."""
    preamble, (row, *more) = _read(out, name, cfg)
    if more:
        raise more[0].error("more than one data row")
    return preamble, row


def _phase_records(out: Path, name: str, cfg: RunConfig):
    """(preamble, the records of each phase) of a file of cash and reserve rows."""
    preamble, records = _read(out, name, cfg)
    by_phase: dict[str, list[Record]] = {}
    for rec in records:
        by_phase.setdefault(rec["phase"], []).append(rec)
    if sorted(by_phase) != [CASH, RESERVE]:
        got = ", ".join(sorted(by_phase))
        raise preamble.error(f"expected rows of phases cash and reserve, got {got}")
    return preamble, by_phase


def _both_phases(out: Path, name: str, cfg: RunConfig) -> dict[str, Record]:
    """The one record of each phase of a file, cash then reserve."""
    by_phase = _phase_records(out, name, cfg)[1]
    for phase, records in by_phase.items():
        if len(records) > 1:
            raise records[1].error(f"repeated phase {phase}")
    return {phase: by_phase[phase][0] for phase in (CASH, RESERVE)}


def build_panel(cfg: RunConfig) -> Panel:
    """Load both inputs, merge, and attach every derived series."""
    if not cfg.monetary_path or not cfg.cpi_path:
        raise DataError("config must set data.monetary and data.cpi")
    monetary = load_monetary(cfg.monetary_path)
    cpi = load_cpi(cfg.cpi_path)
    panel = merge({**monetary.series, **cpi.series})
    with context(f"{cfg.monetary_path}: "):  # the composition of the monetary file
        phi = order_parameter(panel["RB"], panel["MB"])
    return Panel(panel.start, panel.length, {**panel.series, **derive(panel, phi)})


def derive(levels: Panel, phi: MonthlySeries) -> dict[str, MonthlySeries]:
    """The columns transform derives: phi = RB/MB as given, then each from its levels."""
    return {
        "phi": phi,
        "pi": yoy(levels["CPI"]),
        "pi_core": yoy(levels["CPI_core"]),
        "g_mb": yoy(levels["MB_SA"]),
        "idx_MB_SA": index_to_base(levels["MB_SA"]),
        "idx_CPI": index_to_base(levels["CPI"]),
        "idx_CPI_core": index_to_base(levels["CPI_core"]),
    }


def read_panel_csv(path: Path | str) -> Panel:
    """panel.csv as load_table reads it, refused on every read unless MB_SA, CPI and CPI_core
    are positive, as in transform's inputs, phi lies in [0, 1] and each derived column is,
    bit for bit, what derive gives from the file's own levels."""
    panel, rerun = load_table(path, ARTIFACTS["panel.csv"]), ARTIFACTS["panel.csv"].rerun
    with context(suffix=rerun):
        refuse_non_positive(path, panel, POSITIVE)
    phi = panel["phi"].values
    if (bad := (phi < 0.0) | (phi > 1.0)).any():  # a missing month, NaN, is neither
        i = int(np.argmax(bad))
        raise DataError(f"{path}: phi {float(phi[i])} outside [0, 1] at {panel.start + i}{rerun}")
    with context(f"{path}: ", rerun):
        derived = derive(panel, order_parameter(panel["RB"], panel["MB"]))
    held = np.array([panel[name].values for name in derived])
    want = np.array([series.values for series in derived.values()])
    bad = (held.view(np.int64) != want.view(np.int64)) & ~(np.isnan(held) & np.isnan(want))
    if bad.any():  # the first in file order: the earliest month, then its first such column
        i, j = divmod(int(np.argmax(bad.T)), len(derived))
        name, a, b = list(derived)[j], float(held[j, i]), float(want[j, i])
        problem = f"{name} at {panel.start + i} is {a!r}, but the file's levels give {b!r}"
        raise DataError(f"{path}: {problem}{rerun}")
    return panel


def _write_table(out: Path, name: str, panel: Panel) -> Path:
    """A monthly table, remembered as the Panel that load_table would parse it to."""
    path = _write(out, name, table_rows(panel, ARTIFACTS[name]), digest=(digest := blake2b()))
    remember(ARTIFACTS[name], panel, digest.digest())
    return path


def cmd_transform(cfg: RunConfig) -> list[Path]:
    return [_write_table(Path(cfg.out_dir), "panel.csv", build_panel(cfg))]


def cmd_breakpoints(cfg: RunConfig) -> list[Path]:
    """Two-segment break search per (series, window) over the config clusters."""
    out = Path(cfg.out_dir)
    panel = read_panel_csv(out / "panel.csv")
    targets = {
        "log_MB_SA": MonthlySeries(panel.start, np.log(panel["MB_SA"].values)),
        "phi": panel["phi"],
        "pi_core": panel["pi_core"],
    }
    rows = []
    for cluster, windows in cfg.clusters.items():
        for a, b in windows:
            if a < panel.start or b > panel.end:  # one warning for the panel's three series
                span = f"{panel.start}..{panel.end}"
                warnings.warn(f"window {a}..{b} outside data range {span}; skipped")
                continue
            for name, series in targets.items():
                window = series.restrict(a, b).values
                if np.isnan(window).any():
                    warnings.warn(f"series {name} not fully defined on {a}..{b}; skipped")
                    continue
                # breakpoint refuses a window too short for the segments, or values too large
                short = window.size < 2 * cfg.min_segment
                where = f"breaks.min_segment = {cfg.min_segment}" if short else f"series {name}"
                with context(f"breaks.cluster.{cluster}, {where}: "):
                    res = em.breakpoint(series, (a, b), min_seg=cfg.min_segment)
                rows.append((name, cluster, str(a), str(b), str(res.tau), res.rss, res.tie))
    if not rows:
        raise DataError("no breakpoint window could be scanned; every window was skipped")
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return [_write(out, "breakpoints.csv", rows, [("windows", len(rows))])]


def cmd_fit_phase(cfg: RunConfig) -> list[Path]:
    out = Path(cfg.out_dir)
    panel = read_panel_csv(out / "panel.csv")
    for key, month in (("tanh.window_start", cfg.tanh_start), ("tanh.window_end", cfg.tanh_end)):
        if not panel.start <= month <= panel.end:
            raise DataError(f"{key} {month} is outside the data {panel.start}..{panel.end}")
    fit = fit_tanh(panel["phi"], (cfg.tanh_start, cfg.tanh_end))
    path = _write(
        out,
        "tanh_fit.csv",
        [
            (
                fit.phi0,
                fit.A,
                fit.t0_calendar_str(),
                fit.w,
                fit.sse,
                fit.converged,
            )
        ],
        preamble=[
            *recorded(cfg, "tanh_fit.csv").items(),
            ("degenerate_width", fit.degenerate_width),
            ("trustworthy", fit.trustworthy),
        ],
    )
    if not fit.converged:
        raise ConvergenceError("tanh fit did not converge")
    return [path]


def _lp_tables(cfg: RunConfig, panel: Panel, memo: dict, phases=(CASH, RESERVE)):
    """cfg's phase partition and its phases' pi_core and phi LP tables, keyed (phase, response).

    The memo keeps each shock under what it depends on: the phase, its
    months and the shock definition. It keeps the tables under that key
    plus L and the HAC lag, each horizon computed once. No horizon's
    regression depends on H, so a table for a shorter H is the row prefix
    of a longer one; the memo keeps the longest tables, and a longer H
    estimates only the horizons they lack. A projection's DataError is
    raised with its phase and response in front.
    """
    partition = classify(panel["phi"], PhaseThresholds(cfg.cash_max, cfg.reserve_min))
    H, out = cfg.horizon, {}
    for label in phases:
        mask = partition[label]
        key = (label, mask.tobytes(), cfg.shock_kind, cfg.shock_p)
        if key not in memo:
            if not mask.any():
                raise DataError(f"phase {label!r} is empty; cannot build shocks")
            if cfg.shock_kind == "ar_resid":
                _, shock = em.ar_fit(panel["g_mb"], cfg.shock_p, mask)
            else:
                shock = em.detrended_shock(panel["g_mb"], cfg.shock_p, mask)
            memo[key] = em.standardize(shock)
        tables = memo.setdefault((*key, cfg.lags, cfg.hac_lag), {})
        if not tables or tables["phi"].horizon < H:
            longer = {}
            for response in ("pi_core", "phi"):
                with context(f"{label} {response}: "):
                    longer[response] = em.local_projection(
                        panel[response], memo[key], H, cfg.lags, cfg.hac_lag, tables.get(response)
                    )
            tables.update(longer)
        out.update({(label, response): table.head(H) for response, table in tables.items()})
    return partition, out


def write_irfs(out: Path, cfg: RunConfig, tables: dict) -> list[Path]:
    """The (phase, response) tables estimated under cfg, one file per response; phase, then h."""
    paths = []
    for response, name in IRF_FILES.items():
        preamble = [("response_variable", response), *recorded(cfg, name).items()]
        rows = [(p, *c) for p in (CASH, RESERVE) for c in tables[(p, response)].cells()]
        paths.append(_write(out, name, rows, preamble))
    return paths


def read_irfs(out: Path, cfg: RunConfig) -> dict[tuple[str, str], em.IRFTable]:
    """The (phase, response) tables that write_irfs wrote under cfg, rows in any order.

    Each file must record cfg's settings and its own response_variable, and
    hold h = 0..H in both phases with a positive se and an n above 2L + 2.
    """
    tables, H = {}, cfg.horizon
    for response, name in IRF_FILES.items():
        by_phase = _phase_records(out, name, cfg)[1]
        with context(f"{out / name}: ", ARTIFACTS[name].rerun):
            for phase, records in by_phase.items():
                rows = sorted(tuple(rec.values()) for rec in records)  # one phase: by h
                _, hs, beta, se, ci_low, ci_high, n = zip(*rows)
                if list(hs) != list(range(H + 1)):
                    raise DataError(f"IRF table must cover h = 0..{H} without gaps, got {list(hs)}")
                table = em.IRFTable(np.array(beta), np.array(se), np.array(n))
                for h, _, _, low, high, _ in table.cells():  # the file's bands, recomputed
                    if not (abs(ci_low[h] - low) <= 1e-12 and abs(ci_high[h] - high) <= 1e-12):
                        raise DataError(f"confidence bounds inconsistent at h={h}")
                if (bad := table.se <= 0.0).any():
                    h = int(np.argmax(bad))
                    raise DataError(f"se {se[h]} at h={h} of the {phase} phase is not positive")
                if (bad := table.n <= 2 * cfg.lags + 2).any():  # no more rows than regressors
                    h, least = int(np.argmax(bad)), f"2L + 2 = {2 * cfg.lags + 2}"
                    raise DataError(f"n {n[h]} at h={h} of the {phase} phase is not above {least}")
                tables[(phase, response)] = table
    return tables


# (variant name, the RunConfig fields it sets), in the order IRF_robustness.csv lists them: the
# paper's fixed one-dimensional grid of thresholds 0.25/0.30/0.35 x 0.55/0.60/0.65, H 12/24/36,
# L 6/12/18, AR(6/12/18) and detrended(12) shocks, not a sweep around the run's own settings.
# Each variant keeps every other setting of the run, lp.hac_lag included, so
# thresholds_0.30_0.60 is the run's baseline only when the run uses those thresholds.
ROBUSTNESS_GRID = (
    *((f"thresholds_{c:.2f}_{r:.2f}", dict(cash_max=c, reserve_min=r))
      for c in (0.25, PhaseThresholds.cash_max, 0.35)
      for r in (0.55, PhaseThresholds.reserve_min, 0.65)),
    *((f"H_{H}", dict(horizon=H)) for H in (12, 24, 36)),
    *((f"L_{L}", dict(lags=L)) for L in (6, 12, 18)),
    *((f"shock_ar{p}", dict(shock_kind="ar_resid", shock_p=p)) for p in (6, 12, 18)),
    ("shock_detrended", dict(shock_kind="detrended", shock_p=12)),
)


def cmd_irf(cfg: RunConfig) -> list[Path]:
    out = Path(cfg.out_dir)
    panel = read_panel_csv(out / "panel.csv")
    memo: dict = {}  # shared by the baseline, the diagnostic and the sweep
    partition, tables = _lp_tables(cfg, panel, memo)
    written = write_irfs(out, cfg, tables)
    phi_bar_cash, phi_bar_reserve = phase_means(panel["phi"], partition)
    written.append(
        _write(
            out,
            "phase_means.csv",
            [
                (CASH, phi_bar_cash, int(partition[CASH].sum())),
                (RESERVE, phi_bar_reserve, int(partition[RESERVE].sum())),
            ],
            recorded(cfg, "phase_means.csv").items(),
        )
    )

    written.append(_intermediate_diagnostic(cfg, panel, memo, out))
    if cfg.robustness:
        written.append(_robustness_sweep(cfg, panel, memo, out))
    return written


def _intermediate_diagnostic(cfg: RunConfig, panel: Panel, memo: dict, out: Path) -> Path:
    """LP inside the critical band; expected to be unstable, flagged as such."""
    preamble = [("unstable_region", True)]
    rows = []
    try:
        tables = _lp_tables(cfg, panel, memo, (INTERMEDIATE,))[1]
    except DataError as exc:
        preamble.append(("error", str(exc)))
    else:
        rows = [(response, *c) for (_, response), t in tables.items() for c in t.cells()]
    return _write(out, "IRF_intermediate_diagnostic.csv", rows, preamble)


def _robustness_sweep(cfg: RunConfig, panel: Panel, memo: dict, out: Path) -> Path:
    """Estimate every variant, so that a failing one writes no file, then write their rows."""
    estimated = []
    for name, fields in ROBUSTNESS_GRID:
        v = replace(cfg, **fields)
        with context(f"robustness variant {name}: "):
            tables = sorted(_lp_tables(v, panel, memo)[1].items())
        shock = recorded(v, IRF_PI_FILE)["shock_definition"]
        settings = (name, v.cash_max, v.reserve_min, v.horizon, v.lags, shock)
        estimated.append((settings, tables))
    rows = (
        (*settings, *key, *c) for settings, tables in estimated
        for key, table in tables for c in table.cells()
    )
    return _write(out, "IRF_robustness.csv", rows)


def cmd_calibrate(cfg: RunConfig) -> list[Path]:
    out = Path(cfg.out_dir)
    tables = read_irfs(out, cfg)
    means = _both_phases(out, "phase_means.csv", cfg)
    phi_bars = {phase: rec["phi_bar"] for phase, rec in means.items()}
    if (cash := phi_bars[CASH]) >= phi_bars[RESERVE]:
        raise means[RESERVE].error(f"phi_bar {phi_bars[RESERVE]} is not above cash's {cash}")
    result = calibrate(tables, phi_bars)
    written = write_calibration(out, cfg, result, tables)
    if result.degenerate:
        msg = "calibration degenerate: fitted price responses are null, phi_c unidentified"
        raise ConvergenceError(msg)
    if not result.converged:
        raise ConvergenceError("calibration polish stopped at its iteration cap")
    return written


def write_calibration(
    out: Path, cfg: RunConfig, result: CalibrationResult, tables: dict
) -> list[Path]:
    fits = (("cash", result.cash), ("reserve", result.reserve))
    params_rows = [(label, f.u, f.v, f.delta, f.gamma) for label, f in fits]
    paths = [
        _write(out, "two_compartment_parameters.csv", params_rows),
        _write(
            out,
            SUMMARY_FILE,
            [
                (
                    result.coupling.phi_c,
                    result.coupling.s_pi,
                    result.cash.phi_bar,
                    result.reserve.phi_bar,
                    result.objective,
                )
            ],
            preamble=[
                *recorded(cfg, SUMMARY_FILE).items(),
                ("converged", result.converged),
                ("degenerate", result.degenerate),
                ("ordering_holds", result.ordering_holds()),
                ("binding_bounds", " ".join(result.binding) or "none"),
                ("rate_evaluations", result.rate_evaluations),
            ],
        ),
    ]
    for label in (CASH, RESERVE):
        rows = []
        for target in ("phi", "pi_core"):
            betas, resid = tables[(label, target)].beta, result.residuals[(label, target)]
            for h, (beta, dev) in enumerate(zip(betas.tolist(), resid.tolist())):
                rows.append((h, target, beta, beta + dev, dev))
        paths.append(_write(out, f"fit_{label}_phase.csv", rows))
    return paths


def _calibration(out: Path, cfg: RunConfig) -> tuple[Record, Record]:
    """The summary's preamble and row, once its flags hold."""
    preamble, row = _one_row(out, SUMMARY_FILE, cfg)
    if preamble["degenerate"]:
        raise DataError(f"{out / SUMMARY_FILE}: degenerate calibration, phi_c unidentified")
    if not preamble["converged"]:
        raise preamble.error("calibration did not converge")
    holds = row["phi_bar_cash"] < row["phi_c"] < row["phi_bar_reserve"]
    if holds != preamble["ordering_holds"]:
        ordering = f"phi_bar_cash < phi_c < phi_bar_reserve {'holds' if holds else 'fails'}"
        raise row.error(f"ordering_holds is {preamble.text['ordering_holds']}, but {ordering}")
    return preamble, row


def cmd_landau(cfg: RunConfig) -> list[Path]:
    out = Path(cfg.out_dir)
    phi_c = cfg.landau_phi_c
    if phi_c is None:
        with context("phi_c unavailable: ", "; or set landau.phi_c"):
            phi_c = _calibration(out, cfg)[1]["phi_c"]
    fixed = [("source", "fixed constants in the landau command, not the data")]

    sweep_rows = []
    for a in np.linspace(1.0, -1.0, 81):
        params = ld.LandauParams(a=float(a), b=1.0, h_field=0.0)
        stat = ld.stationary_points(params)
        sweep_rows.append(
            (
                float(a),
                stat.global_minimum,
                ld.free_energy(stat.global_minimum, params),
                stat.degenerate_pair,
            )
        )
    paths = [_write(out, "landau_sweep.csv", sweep_rows, fixed)]

    m_grid = np.linspace(-1.5, 1.5, 121)
    pot_rows = []
    for a in (0.5, -0.5):
        energy = ld.free_energy(m_grid, ld.LandauParams(a=a, b=1.0, h_field=0.0))
        pot_rows += [(a, m, f) for m, f in zip(m_grid.tolist(), energy.tolist())]
    paths.append(_write(out, "landau_potential.csv", pot_rows, fixed))

    theta_grid = np.linspace(-6.0, 6.0, 121)
    phi_star = steady_state_phi(theta_grid, (1.0, 0.0), rates=(0.06, 0.05, 0.02), injection=1.0)
    steady_rows = zip(theta_grid.tolist(), phi_star.tolist())
    paths.append(_write(out, "steady_state_sweep.csv", steady_rows, fixed))

    phi_grid = np.linspace(0.0, 1.0, 201)
    sus = ld.susceptibility(phi_grid, phi_c, epsilon=0.05)
    sus_rows = zip(phi_grid.tolist(), sus.tolist())
    paths.append(_write(out, "susceptibility.csv", sus_rows, [("phi_c", phi_c)]))
    return paths


def cmd_efficiency(cfg: RunConfig) -> list[Path]:
    out = Path(cfg.out_dir)
    tables = read_irfs(out, cfg)  # each holds h = 0..cfg.horizon
    # reservation efficiency (phi) and CPI-transmission efficiency (pi_core): the peak |beta|
    rows = [
        (label, *tables[(label, "phi")].peak(), *tables[(label, "pi_core")].peak(), cfg.horizon)
        for label in (CASH, RESERVE)
    ]
    return [_write(out, "efficiency.csv", rows, recorded(cfg, "efficiency.csv").items())]


def write_economy(out: Path, panel: Panel, truth: GroundTruth) -> list[Path]:
    """A synthetic economy's monetary.csv and cpi.csv, and its ground_truth.csv, in out."""
    return [
        _write_table(out, "monetary.csv", panel),
        _write_table(out, "cpi.csv", panel),
        _write(out, "ground_truth.csv", ground_truth_rows(truth)),
    ]


def cmd_synth(cfg: RunConfig) -> list[Path]:
    out = Path(cfg.out_dir)
    cfg_text = config_text(  # first: a value it refuses leaves no file behind
        replace(cfg, monetary_path=str(out / "monetary.csv"), cpi_path=str(out / "cpi.csv"))
    )
    panel, truth = generate(default_spec(cfg.seed, cfg.synth_months))
    paths = write_economy(out, panel, truth)
    config_path = out / "synthetic_config.txt"
    config_path.write_text(cfg_text, encoding="utf-8")
    return [*paths, config_path]


def cmd_report(cfg: RunConfig) -> list[Path]:
    out = Path(cfg.out_dir)
    fitted, tanh = _one_row(out, "tanh_fit.csv", cfg)
    if not tanh["converged"]:
        raise fitted.error("tanh fit did not converge")
    scanned, breaks = _read(out, "breakpoints.csv", cfg)
    effs = _both_phases(out, "efficiency.csv", cfg)
    summary, calibration = _calibration(out, cfg)
    # each number copied as written
    lines = [f"tanh.{c} = {tanh.text[c]}" for c in ("phi0", "A", "t0_calendar", "w_months")]
    by_key: dict[tuple[str, str], dict[tuple, int]] = {}  # (series, cluster): each window's tau
    for rec in breaks:
        window = start, end = rec["window_start"], rec["window_end"]
        if end < start:
            raise rec.error(f"window_end {end} is before window_start {start}")
        if not start <= rec["tau"] < end:
            raise rec.error(f"tau {rec['tau']} outside its window {start}..{end}")
        if window in (taus := by_key.setdefault((rec["series"], rec["cluster"]), {})):
            raise rec.error(f"repeated {rec['series']} window {start}..{end}")
        taus[window] = rec["tau"].ordinal
    if (windows := scanned["windows"]) != len(breaks):
        problem = f"holds {len(breaks)} rows, but records windows = {windows}"
        raise scanned.error(problem)
    for (series, cluster), taus in sorted(by_key.items()):
        median = MonthIndex.from_ordinal(sorted(taus.values())[(len(taus) - 1) // 2])
        lines.append(f"breakpoints.{cluster}.{series}.median = {median}")
    for rec in effs.values():
        if rec["H"] != cfg.horizon:
            raise rec.error(f"H {rec['H']} is not lp.horizon = {cfg.horizon}")
        for c in ("argmax_r", "argmax_c"):
            if rec[c] > cfg.horizon:
                raise rec.error(f"{c} {rec[c]} is above lp.horizon = {cfg.horizon}")
        for c in ("eff_r", "argmax_r", "eff_c", "argmax_c"):
            lines.append(f"efficiency.{rec['phase']}.{c} = {rec.text[c]}")
    lines += [f"calibration.{c} = {calibration.text[c]}" for c in ("phi_c", "s_pi", "objective")]
    lines.append(f"calibration.ordering_holds = {summary.text['ordering_holds']}")

    path = out / "report.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [path]
