"""Batch commands: each is a pure function of (config, input files).

Identical inputs produce byte-identical outputs: seeds are fixed in the
config, CSV row order is fixed (phase first, then horizon), and floats
are written in shortest round-trip form. ARTIFACTS declares every file
a command writes, once: the command, the header, the preamble keys its
readers require and a monthly table's by_year columns. Every CSV written
here goes through _write with that header, and only a write makes the
output directory. Every file one command reads from another is read
back through read_artifact, which checks it before any cell is used. A
monthly table this process wrote is held by ingest as the Panel its text
parses to, and served unparsed while the file's text has that text's
length and hash.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import econometrics as em
from . import landau as ld
from .compartment import CalibrationResult, calibrate, steady_state_phi
from .config import RunConfig, config_text
from .csvio import Artifact, Record, parse_float_cell, parse_number, read_artifact, write_csv
from .errors import ConvergenceError, DataError
from .ingest import CPI, MONETARY, load_cpi, load_monetary, load_table, remember, table_rows
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

ERAS = ((1971, 1989), (1990, 2012), (2013, 2021), (2022, 2026))  # of Japan's record


def era_label(year: int) -> str:
    """The era a year falls in, as 1990-2012; empty, a missing cell, outside 1971-2026."""
    return next((f"{first}-{last}" for first, last in ERAS if first <= year <= last), "")


IRF_FILE = Artifact(
    "irf", ("phase", *em.IRF_COLUMNS), ("response_variable", "shock_definition", "H", "L")
)
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
        "breakpoints", ("series", "cluster", "window_start", "window_end", "tau", "rss", "tie")
    ),
    "tanh_fit.csv": Artifact(
        "fit-phase", ("phi0", "A", "t0_calendar", "w_months", "sse", "converged")
    ),
    **{name: IRF_FILE for name in IRF_FILES.values()},
    "phase_means.csv": Artifact("irf", ("phase", "phi_bar", "n_months")),
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
        ("converged", "degenerate", "ordering_holds"),
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
        "efficiency", ("phase", "eff_r", "argmax_r", "eff_c", "argmax_c", "H")
    ),
    "report.txt": Artifact("report", ()),
}


def _month_fraction(cell: str) -> tuple[MonthIndex, float]:
    """A YYYY-MM+fraction cell, as TanhFit.t0_calendar_str writes it."""
    month, _, fraction = cell.partition("+")
    return MonthIndex.parse(month), parse_number(fraction)


def _flag(cell: str) -> bool:
    """A true or false cell, as fmt writes a bool."""
    if cell not in ("true", "false"):
        raise ValueError(cell)
    return cell == "true"


def _read(out: Path, name: str) -> tuple[dict[str, str], list[Record]]:
    preamble, rows = read_artifact(out / name, ARTIFACTS[name])
    return preamble, [Record(out / name, ARTIFACTS[name], row) for row in rows]


def _write(out: Path, name: str, rows, preamble=()) -> Path:
    return write_csv(out / name, ARTIFACTS[name].header, rows, preamble)


def _one_row(out: Path, name: str) -> tuple[dict[str, str], Record]:
    """(preamble, the record) of a file of one data row; a second row is refused."""
    preamble, (row, *more) = _read(out, name)
    if more:
        raise more[0].error("more than one data row")
    return preamble, row


def _error(path: Path, problem) -> DataError:
    """A DataError for the hand-off file at path, with its rerun hint."""
    return DataError(f"{path}: {problem}{ARTIFACTS[path.name].rerun}")


def _phase_records(out: Path, name: str) -> tuple[dict[str, str], dict[str, list[Record]]]:
    """(preamble, the records of each phase) of a file of cash and reserve rows."""
    preamble, records = _read(out, name)
    by_phase: dict[str, list[Record]] = {}
    for rec in records:
        by_phase.setdefault(rec["phase"], []).append(rec)
    if sorted(by_phase) != [CASH, RESERVE]:
        got = ", ".join(sorted(by_phase))
        raise _error(out / name, f"expected rows of phases cash and reserve, got {got}")
    return preamble, by_phase


def _both_phases(out: Path, name: str) -> dict[str, Record]:
    """The one record of each phase of a file, cash then reserve."""
    by_phase = _phase_records(out, name)[1]
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
    try:
        phi = order_parameter(panel["RB"], panel["MB"])
    except DataError as exc:  # the composition of the monetary file
        raise DataError(f"{cfg.monetary_path}: {exc}") from None
    derived = {
        "phi": phi,
        "pi": yoy(panel["CPI"]),
        "pi_core": yoy(panel["CPI_core"]),
        "g_mb": yoy(panel["MB_SA"]),
        "idx_MB_SA": index_to_base(panel["MB_SA"]),
        "idx_CPI": index_to_base(panel["CPI"]),
        "idx_CPI_core": index_to_base(panel["CPI_core"]),
    }
    return Panel(panel.start, panel.length, {**panel.series, **derived})


def read_panel_csv(path: Path | str) -> Panel:
    """panel.csv as load_table reads it; a phi outside [0, 1] is refused on every read."""
    panel = load_table(path, ARTIFACTS["panel.csv"])
    phi = panel["phi"].values
    if (bad := (phi < 0.0) | (phi > 1.0)).any():  # a missing month, NaN, is neither
        i = int(np.argmax(bad))
        rerun = ARTIFACTS["panel.csv"].rerun
        raise DataError(f"{path}: phi {float(phi[i])} outside [0, 1] at {panel.start + i}{rerun}")
    return panel


def _write_table(out: Path, name: str, panel: Panel) -> Path:
    """A monthly table, remembered as the Panel that load_table would parse it to."""
    path = _write(out, name, table_rows(panel, ARTIFACTS[name]))
    remember(path, ARTIFACTS[name], panel)
    return path


def cmd_transform(cfg: RunConfig) -> list[Path]:
    return [_write_table(Path(cfg.out_dir), "panel.csv", build_panel(cfg))]


def cmd_breakpoints(cfg: RunConfig) -> list[Path]:
    """Two-segment break search per (series, window) over the config clusters."""
    out = Path(cfg.out_dir)
    panel = read_panel_csv(out / "panel.csv")
    mb_sa = panel["MB_SA"].values
    if (mb_sa[~np.isnan(mb_sa)] <= 0).any():
        raise DataError("MB_SA must be positive to take logs")
    targets = {
        "log_MB_SA": MonthlySeries(panel.start, np.log(mb_sa)),
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
                try:
                    res = em.breakpoint(series, (a, b), min_seg=cfg.min_segment)
                except DataError as exc:  # a window too short for the segments, or values too large
                    short = window.size < 2 * cfg.min_segment
                    where = f"breaks.min_segment = {cfg.min_segment}" if short else f"series {name}"
                    raise DataError(f"breaks.cluster.{cluster}, {where}: {exc}") from None
                rows.append((name, cluster, str(a), str(b), str(res.tau), res.rss, res.tie))
    if not rows:
        raise DataError("no breakpoint window could be scanned; every window was skipped")
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return [_write(out, "breakpoints.csv", rows)]


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
            ("window", f"{cfg.tanh_start}:{cfg.tanh_end}"),
            ("degenerate_width", fit.degenerate_width),
            ("trustworthy", fit.trustworthy),
        ],
    )
    if not fit.converged:
        raise ConvergenceError("tanh fit did not converge")
    return [path]


def _shock_definition(cfg: RunConfig) -> str:
    return f"{cfg.shock_kind}({cfg.shock_p})"


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
        mask = partition.mask(label)
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
                try:
                    longer[response] = em.local_projection(
                        panel[response], memo[key], H, cfg.lags, cfg.hac_lag, tables.get(response)
                    )
                except DataError as exc:
                    raise DataError(f"{label} {response}: {exc}") from None
            tables.update(longer)
        out.update({(label, response): table.head(H) for response, table in tables.items()})
    return partition, out


def write_irfs(out: Path, cfg: RunConfig, tables: dict) -> list[Path]:
    """The (phase, response) tables estimated under cfg, one file per response; phase, then h."""
    paths = []
    for response, name in IRF_FILES.items():
        values = (response, _shock_definition(cfg), cfg.horizon, cfg.lags)
        rows = [(p, *c) for p in (CASH, RESERVE) for c in tables[(p, response)].cells()]
        paths.append(_write(out, name, rows, zip(IRF_FILE.preamble, values)))
    return paths


def read_irfs(out: Path, cfg: RunConfig) -> dict[tuple[str, str], em.IRFTable]:
    """The (phase, response) tables that write_irfs wrote under cfg, rows in any order.

    Each file must hold h = 0..H in both phases, with H, L and the
    shock definition cfg's.
    """
    kinds = {"h": int, "n": int}
    tables = {}
    for response, name in IRF_FILES.items():
        preamble, by_phase = _phase_records(out, name)
        parsed = {
            phase: [tuple(r.parse(c, kinds.get(c, parse_float_cell)) for c in em.IRF_COLUMNS)
                    for r in records]
            for phase, records in by_phase.items()
        }
        try:
            H, L = int(preamble["H"]), int(preamble["L"])
            if (H, L) != (cfg.horizon, cfg.lags):
                raise DataError(
                    f"estimated with H = {H} and L = {L}, but the config sets "
                    f"lp.horizon = {cfg.horizon} and lp.lags = {cfg.lags}"
                )
            if preamble["shock_definition"] != _shock_definition(cfg):
                raise DataError(
                    f"estimated with shock_definition {preamble['shock_definition']}, but the "
                    f"config sets shock.kind = {cfg.shock_kind} and shock.p = {cfg.shock_p}"
                )
            for phase, rows in parsed.items():
                hs, beta, se, ci_low, ci_high, n = zip(*sorted(rows, key=lambda r: r[0]))
                if list(hs) != list(range(H + 1)):
                    raise DataError(f"IRF table must cover h = 0..{H} without gaps, got {list(hs)}")
                table = em.IRFTable(np.array(beta), np.array(se), np.array(n))
                for h, _, _, low, high, _ in table.cells():  # the file's bands, recomputed
                    if not (abs(ci_low[h] - low) <= 1e-12 and abs(ci_high[h] - high) <= 1e-12):
                        raise DataError(f"confidence bounds inconsistent at h={h}")
                tables[(phase, response)] = table
        except (ValueError, DataError) as exc:
            raise _error(out / name, exc) from None
    return tables


# (variant name, the RunConfig fields it sets), in the order IRF_robustness.csv lists them
ROBUSTNESS_GRID = (
    *((f"thresholds_{c:.2f}_{r:.2f}", dict(cash_max=c, reserve_min=r))
      for c in (0.25, PhaseThresholds.cash_max, 0.35)
      for r in (0.55, PhaseThresholds.reserve_min, 0.65)),
    *((f"H_{H}", dict(horizon=H)) for H in (12, 24, 36)),
    *((f"L_{L}", dict(lags=L)) for L in (6, 12, 18)),
    *((f"shock_ar{p}", dict(shock_kind="ar_resid", shock_p=p)) for p in (6, 12, 18)),
    ("shock_detrended", dict(shock_kind="detrended", shock_p=12)),
)


def _robustness_variants(cfg: RunConfig) -> list[tuple[str, RunConfig]]:
    """The paper's fixed one-dimensional grid, each variant the run's cfg with its fields set.

    The grid is thresholds 0.25/0.30/0.35 x 0.55/0.60/0.65, H 12/24/36,
    L 6/12/18, AR(6/12/18) and detrended(12) shocks, not a sweep around the
    run's own settings. Each variant keeps every other setting of the run,
    lp.hac_lag included, so thresholds_0.30_0.60 is the run's baseline only
    when the run uses those thresholds.
    """
    return [(name, replace(cfg, **fields)) for name, fields in ROBUSTNESS_GRID]


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
                (CASH, phi_bar_cash, int(partition.mask(CASH).sum())),
                (RESERVE, phi_bar_reserve, int(partition.mask(RESERVE).sum())),
            ],
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
    for name, v in _robustness_variants(cfg):
        try:
            tables = sorted(_lp_tables(v, panel, memo)[1].items())
        except DataError as exc:
            raise DataError(f"robustness variant {name}: {exc}") from None
        settings = (name, v.cash_max, v.reserve_min, v.horizon, v.lags, _shock_definition(v))
        estimated.append((settings, tables))
    rows = (
        (*settings, *key, *c) for settings, tables in estimated
        for key, table in tables for c in table.cells()
    )
    return _write(out, "IRF_robustness.csv", rows)


def cmd_calibrate(cfg: RunConfig) -> list[Path]:
    out = Path(cfg.out_dir)
    tables = read_irfs(out, cfg)
    means = _both_phases(out, "phase_means.csv")
    result = calibrate(tables, {phase: rec.parse("phi_bar") for phase, rec in means.items()})
    written = write_calibration(out, result, tables)
    if result.degenerate:
        msg = "calibration degenerate: fitted price responses are null, phi_c unidentified"
        raise ConvergenceError(msg)
    if not result.converged:
        raise ConvergenceError("calibration polish stopped at its iteration cap")
    return written


def write_calibration(out: Path, result: CalibrationResult, tables: dict) -> list[Path]:
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


def _calibration(out: Path) -> tuple[dict, Record]:
    """The summary's preamble and row, once its flags parse and hold and phi_c is in (0, 1)."""
    preamble, row = _one_row(out, SUMMARY_FILE)
    flags = {}
    for key in ARTIFACTS[SUMMARY_FILE].preamble:
        try:
            flags[key] = _flag(preamble[key])
        except ValueError:
            raise _error(out / SUMMARY_FILE, f"cannot parse {key} {preamble[key]!r}") from None
    if flags["degenerate"]:
        raise DataError(f"{out / SUMMARY_FILE}: degenerate calibration, phi_c unidentified")
    if not flags["converged"]:
        raise _error(out / SUMMARY_FILE, "calibration did not converge")
    if not 0.0 < (phi_c := row.parse("phi_c")) < 1.0:
        raise row.error(f"phi_c must lie in (0, 1), got {phi_c}")
    holds = row.parse("phi_bar_cash") < phi_c < row.parse("phi_bar_reserve")
    if holds != flags["ordering_holds"]:
        ordering = f"phi_bar_cash < phi_c < phi_bar_reserve {'holds' if holds else 'fails'}"
        raise row.error(f"ordering_holds is {preamble['ordering_holds']}, but {ordering}")
    return preamble, row


def cmd_landau(cfg: RunConfig) -> list[Path]:
    out = Path(cfg.out_dir)
    phi_c = cfg.landau_phi_c
    if phi_c is None:
        try:
            phi_c = _calibration(out)[1].parse("phi_c")
        except DataError as exc:
            raise DataError(f"phi_c unavailable: {exc}; or set landau.phi_c") from None
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
    return [_write(out, "efficiency.csv", rows)]


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
    tanh = _one_row(out, "tanh_fit.csv")[1]
    if not tanh.parse("converged", _flag):
        raise _error(out / "tanh_fit.csv", "tanh fit did not converge")
    _, breaks = _read(out, "breakpoints.csv")
    effs = _both_phases(out, "efficiency.csv")
    summary, calibration = _calibration(out)
    kinds = {"t0_calendar": _month_fraction, "argmax_r": int, "argmax_c": int}

    def cell(rec: Record, column: str) -> str:  # copied as written, once it parses
        rec.parse(column, kinds.get(column, parse_number))
        return rec[column]

    lines = [f"tanh.{c} = {cell(tanh, c)}" for c in ("phi0", "A", "t0_calendar", "w_months")]
    by_key: dict[tuple[str, str], list[int]] = {}
    for rec in breaks:
        tau = rec.parse("tau", MonthIndex.parse).ordinal
        by_key.setdefault((rec["series"], rec["cluster"]), []).append(tau)
    for (series, cluster), taus in sorted(by_key.items()):
        taus.sort()
        median = MonthIndex.from_ordinal(taus[(len(taus) - 1) // 2])
        lines.append(f"breakpoints.{cluster}.{series}.median = {median}")
    for rec in effs.values():
        for c in ("eff_r", "argmax_r", "eff_c", "argmax_c"):
            lines.append(f"efficiency.{rec['phase']}.{c} = {cell(rec, c)}")
    lines += [f"calibration.{c} = {cell(calibration, c)}" for c in ("phi_c", "s_pi", "objective")]
    lines.append(f"calibration.ordering_holds = {summary['ordering_holds']}")

    path = out / "report.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [path]
