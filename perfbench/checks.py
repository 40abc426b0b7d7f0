"""Output checks, made apart from the program under test.

Each check reads the artifacts of one chain from its output directory and
raises `CheckFailed` when they are wrong. None imports `monephase`: the
local-projection refit has its own shock, least squares and HAC code,
the summaries are recomputed from the files they summarize, and the
planted truth comes from `workloads`.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from workloads import (
    CASH_MAX,
    HAC_LAG,
    HORIZON,
    LAGS,
    RESERVE_MIN,
    SHOCK_P,
    SIGN_PATTERN,
    TRUTH_PHASE_MEANS,
    TRUTH_PHI_C,
    TRUTH_T0,
    Workload,
)

IRF_FILES = {"pi_core": "IRF_J6_core_inflation.csv", "phi": "IRF_J7_phi.csv"}
PHASES = ("cash", "reserve")
CI = 1.96
REFIT_RTOL = 1e-8
T0_TOLERANCE = 2.0  # months
MEANS_TOLERANCE = 0.05
PHI_C_TOLERANCE = 0.05
MEDIUM = (6, 18)  # medium horizons, inclusive
CONTRADICTION = 3.0  # standard errors by which a sign may be missed
# variants of the robustness sweep whose tables equal the baseline's
BASELINE_VARIANTS = ("thresholds_0.30_0.60", "H_24", "L_12", "shock_ar12")
N_VARIANTS = 19


class CheckFailed(Exception):
    pass


class KnownFault(CheckFailed):
    """A check failure caused by a program fault this benchmark documents."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_table(path: Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """(preamble, header, rows) of a `# key: value` preambled CSV."""
    if not path.exists():
        raise CheckFailed(f"{path.name} is missing")
    preamble, header, rows = {}, None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            preamble[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    require(header is not None, f"{path.name} has no header")
    return preamble, header, rows


def num(cell: str) -> float:
    return float(cell) if cell != "" else math.nan


def month_ordinal(text: str) -> int:
    year, month = text.split("-")
    return int(year) * 12 + int(month) - 1


def fit_number(cell: str) -> float:
    """A fit-file cell; `check_numeric_cells` reports the np.float64(...) form."""
    if cell.startswith("np.float64(") and cell.endswith(")"):
        cell = cell[len("np.float64(") : -1]
    return num(cell)


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def read_irf(out: Path, response: str) -> dict[str, list[dict]]:
    """Baseline IRF pair file as {phase: rows ordered by h}."""
    preamble, header, rows = read_table(out / IRF_FILES[response])
    require(
        header == ["phase", "h", "beta", "se", "ci_low", "ci_high", "n"],
        f"{IRF_FILES[response]}: unexpected header",
    )
    require(
        (preamble.get("H"), preamble.get("L"), preamble.get("shock_definition"))
        == (str(HORIZON), str(LAGS), f"ar_resid({SHOCK_P})"),
        f"{IRF_FILES[response]}: preamble is not the baseline specification",
    )
    tables: dict[str, list[dict]] = {}
    for cells in rows:
        tables.setdefault(cells[0], []).append(
            dict(
                h=int(cells[1]),
                beta=num(cells[2]),
                se=num(cells[3]),
                ci_low=num(cells[4]),
                ci_high=num(cells[5]),
                n=int(cells[6]),
            )
        )
    require(sorted(tables) == list(PHASES), f"{IRF_FILES[response]}: phases {sorted(tables)}")
    return tables


# --- independent local-projection refit ---------------------------------


def read_panel(out: Path) -> dict[str, np.ndarray]:
    _, header, rows = read_table(out / "panel.csv")
    columns = {name: [] for name in ("phi", "pi_core", "g_mb")}
    for cells in rows:
        for name in columns:
            columns[name].append(num(cells[header.index(name)]))
    return {name: np.array(values) for name, values in columns.items()}


def phase_segments(phi: np.ndarray, phase: str) -> list[tuple[int, int]]:
    """Maximal runs of the phase, as inclusive position pairs."""
    inside = phi < CASH_MAX if phase == "cash" else phi > RESERVE_MIN  # NaN is in neither
    runs, begin = [], None
    for t, flag in enumerate(inside):
        if flag and begin is None:
            begin = t
        elif not flag and begin is not None:
            runs.append((begin, t - 1))
            begin = None
    if begin is not None:
        runs.append((begin, len(inside) - 1))
    return runs


def ar_shock(g: np.ndarray, segments: list[tuple[int, int]], p: int) -> np.ndarray:
    """Within-phase AR(p) residual with intercept, scaled to unit variance."""
    rows = [
        t
        for a, b in segments
        for t in range(a + p, b + 1)
        if np.isfinite(g[t - p : t + 1]).all()
    ]
    rows = np.array(rows)
    X = np.column_stack([np.ones(rows.size)] + [g[rows - k] for k in range(1, p + 1)])
    coef = np.linalg.lstsq(X, g[rows], rcond=None)[0]
    resid = g[rows] - X @ coef
    shock = np.full(g.shape, np.nan)
    shock[rows] = resid / math.sqrt(np.sum((resid - resid.mean()) ** 2) / (resid.size - 1))
    return shock


def bartlett_se(X: np.ndarray, resid: np.ndarray, lag: int, column: int) -> float:
    """Newey-West standard error over consecutive sample rows, denominator n."""
    scores = X * resid[:, None]
    meat = scores.T @ scores
    for j in range(1, lag + 1):
        cross = scores[j:].T @ scores[:-j]
        meat += (1.0 - j / (lag + 1.0)) * (cross + cross.T)
    bread = np.linalg.pinv(X.T @ X)
    return math.sqrt(max((bread @ meat @ bread)[column, column], 0.0))


def refit_lp(y: np.ndarray, u: np.ndarray, in_phase: np.ndarray, h: int) -> tuple[float, float, int]:
    """beta, se and n of y[t+h] on (1, u[t], L lags of y, L lags of u)."""
    t = np.arange(LAGS, y.size - h)
    usable = in_phase[t] & np.isfinite(u[t]) & np.isfinite(y[t + h])
    for k in range(1, LAGS + 1):
        usable &= np.isfinite(y[t - k]) & np.isfinite(u[t - k])
    rows = t[usable]
    X = np.column_stack(
        [np.ones(rows.size), u[rows]]
        + [y[rows - k] for k in range(1, LAGS + 1)]
        + [u[rows - k] for k in range(1, LAGS + 1)]
    )
    outcome = y[rows + h]
    coef = np.linalg.lstsq(X, outcome, rcond=None)[0]
    se = bartlett_se(X, outcome - X @ coef, HAC_LAG, 1)
    return float(coef[1]), se, int(rows.size)


def check_lp_refit(out: Path, workload: Workload) -> None:
    """Refit every horizon of the four baseline tables from panel.csv."""
    panel = read_panel(out)
    irfs = {response: read_irf(out, response) for response in IRF_FILES}
    for phase in PHASES:
        segments = phase_segments(panel["phi"], phase)
        shock = ar_shock(panel["g_mb"], segments, SHOCK_P)
        in_phase = np.zeros(panel["phi"].size, dtype=bool)
        for a, b in segments:
            in_phase[a : b + 1] = True
        for response in IRF_FILES:
            for row in irfs[response][phase]:
                beta, se, n = refit_lp(panel[response], shock, in_phase, row["h"])
                where = f"{phase}/{response} h={row['h']}"
                require(row["n"] == n, f"{where}: n {row['n']} != refit {n}")
                require(
                    close(row["beta"], beta, REFIT_RTOL),
                    f"{where}: beta {row['beta']!r} != refit {beta!r}",
                )
                require(close(row["se"], se, REFIT_RTOL), f"{where}: se {row['se']!r} != refit {se!r}")


# --- interval arithmetic and horizon grids --------------------------------


def check_rows(where: str, rows: list[dict], H: int) -> None:
    require([r["h"] for r in rows] == list(range(H + 1)), f"{where}: h is not 0..{H}")
    for r in rows:
        tol = 1e-12 * max(1.0, abs(r["beta"]), abs(r["se"]))
        require(r["se"] >= 0.0, f"{where} h={r['h']}: negative se")
        require(
            abs(r["ci_low"] - (r["beta"] - CI * r["se"])) <= tol
            and abs(r["ci_high"] - (r["beta"] + CI * r["se"])) <= tol,
            f"{where} h={r['h']}: ci is not beta +/- 1.96 se",
        )
        require(r["n"] > 2 * LAGS + 2, f"{where} h={r['h']}: n = {r['n']}")


def irf_row(cells: list[str]) -> dict:
    beta, se, lo, hi = (num(c) for c in cells[:4])
    return dict(beta=beta, se=se, ci_low=lo, ci_high=hi, n=int(cells[4]))


def check_irf_intervals(out: Path, workload: Workload) -> None:
    """ci = beta +/- 1.96 se and h = 0..H in every IRF file."""
    for response in IRF_FILES:
        for phase, rows in read_irf(out, response).items():
            check_rows(f"{IRF_FILES[response]} {phase}", rows, HORIZON)
    _, _, rows = read_table(out / "IRF_intermediate_diagnostic.csv")
    groups: dict[str, list[dict]] = {}
    for cells in rows:
        groups.setdefault(cells[0], []).append(dict(h=int(cells[1]), **irf_row(cells[2:])))
    for response, group in groups.items():
        check_rows(f"intermediate {response}", group, HORIZON)
    if workload.robustness:
        for key, (H, group) in read_sweep(out).items():
            check_rows(f"sweep {'/'.join(key)}", group, H)


def read_sweep(out: Path) -> dict[tuple[str, str, str], tuple[int, list[dict]]]:
    """{(variant, phase, response): (H, rows)} of IRF_robustness.csv."""
    _, _, rows = read_table(out / "IRF_robustness.csv")
    groups: dict = {}
    for cells in rows:
        H, rows_ = groups.setdefault((cells[0], cells[6], cells[7]), (int(cells[3]), []))
        rows_.append(dict(h=int(cells[8]), **irf_row(cells[9:])))
    return groups


def medium_mean(rows: list[dict], H: int) -> tuple[float, float]:
    """Mean beta over the medium horizons, and the mean of their se.

    The second bounds the standard error of the first from above, so a
    mean beyond CONTRADICTION times it differs from zero significantly.
    """
    medium = [r for r in rows if MEDIUM[0] <= r["h"] <= min(MEDIUM[1], H)]
    return float(np.mean([r["beta"] for r in medium])), float(np.mean([r["se"] for r in medium]))


def check_sign(where: str, rows: list[dict], H: int, sign: int, strict: bool) -> None:
    mean, se = medium_mean(rows, H)
    wrong = np.sign(mean) != sign
    require(
        not (wrong and (strict or abs(mean) > CONTRADICTION * se)),
        f"{where}: medium-horizon mean {mean:+.4g} (se <= {se:.3g})",
    )


def check_sweep(out: Path, workload: Workload) -> None:
    """19 variants; those equal to the baseline reproduce its tables exactly."""
    sweep = read_sweep(out)
    variants = sorted({key[0] for key in sweep})
    require(len(variants) == N_VARIANTS, f"sweep has {len(variants)} variants")
    for response in IRF_FILES:
        baseline = read_irf(out, response)
        for variant in BASELINE_VARIANTS:
            for phase in PHASES:
                H, rows = sweep[(variant, phase, response)]
                require(
                    rows == baseline[phase],
                    f"sweep {variant} {phase}/{response} differs from the baseline table",
                )


def check_signs(out: Path, workload: Workload) -> None:
    """Medium-horizon signs (+, +, +, -) as planted.

    The workload's strict pairs show the planted sign in the baseline
    tables. No checked table, sweep variants included, contradicts it by
    more than CONTRADICTION standard errors.
    """
    tables = [
        (f"baseline {phase}/{response}", phase, response, HORIZON, rows)
        for response in IRF_FILES
        for phase, rows in read_irf(out, response).items()
    ]
    if workload.robustness:
        tables += [
            (f"sweep {variant} {phase}/{response}", phase, response, H, rows)
            for (variant, phase, response), (H, rows) in read_sweep(out).items()
        ]
    for where, phase, response, H, rows in tables:
        if (phase, response) in workload.signs:
            strict = where.startswith("baseline") and (phase, response) in workload.strict_signs
            check_sign(where, rows, H, SIGN_PATTERN[(phase, response)], strict)


# --- planted truth ----------------------------------------------------------


def check_planted_truth(out: Path, workload: Workload) -> None:
    """tanh midpoint, phase means and, when calibrated, phi_c and its ordering."""
    _, _, truth_rows = read_table(out / "ground_truth.csv")
    truth = {cells[0]: cells[1] for cells in truth_rows}
    require(
        truth.get("t0") == "%04d-%02d" % TRUTH_T0
        and num(truth.get("truth_phi_c", "")) == TRUTH_PHI_C
        and num(truth.get("phi_low", "")) == TRUTH_PHASE_MEANS["cash"]
        and num(truth.get("phi_high", "")) == TRUTH_PHASE_MEANS["reserve"],
        "ground_truth.csv does not record the planted economy",
    )

    _, _, tanh = read_table(out / "tanh_fit.csv")
    month, _, frac = tanh[0][2].partition("+")
    t0 = month_ordinal(month) + float(frac)
    truth_t0 = TRUTH_T0[0] * 12 + TRUTH_T0[1] - 1
    require(abs(t0 - truth_t0) <= T0_TOLERANCE, f"tanh midpoint {tanh[0][2]}")

    _, _, rows = read_table(out / "phase_means.csv")
    means = {cells[0]: num(cells[1]) for cells in rows}
    for phase in PHASES:
        require(
            abs(means[phase] - TRUTH_PHASE_MEANS[phase]) <= MEANS_TOLERANCE,
            f"{phase} phase mean {means[phase]}",
        )
    if "calibrate" in workload.commands:
        _, _, summary = read_table(out / "critical_point_summary.csv")
        phi_c = num(summary[0][0])
        require(abs(phi_c - TRUTH_PHI_C) <= PHI_C_TOLERANCE, f"phi_c {phi_c}")
        require(means["cash"] < phi_c < means["reserve"], f"phi_c {phi_c} outside the phase means")


# --- summaries recomputed from what they summarize -------------------------


def check_efficiency(out: Path, workload: Workload) -> None:
    """efficiency.csv: max |beta| over h = 0..H per response, ties to the smallest h."""
    _, _, rows = read_table(out / "efficiency.csv")
    irfs = {response: read_irf(out, response) for response in IRF_FILES}
    expected = []
    for phase in PHASES:
        row = [phase]
        for response in ("phi", "pi_core"):
            best, arg = 0.0, 0
            for r in irfs[response][phase][: HORIZON + 1]:
                if abs(r["beta"]) > best:
                    best, arg = abs(r["beta"]), r["h"]
            row += [best, arg]
        expected.append(row + [HORIZON])
    got = [[c[0], num(c[1]), int(c[2]), num(c[3]), int(c[4]), int(c[5])] for c in rows]
    require(got == expected, f"efficiency.csv {got} != recomputed {expected}")


def check_calibration_objective(out: Path, workload: Workload) -> None:
    """The objective is the se-weighted sum of squares of the fit residuals."""
    irfs = {response: read_irf(out, response) for response in IRF_FILES}
    total = 0.0
    for phase in PHASES:
        _, _, rows = read_table(out / f"fit_{phase}_phase.csv")
        require(len(rows) == 2 * (HORIZON + 1), f"fit_{phase}_phase.csv has {len(rows)} rows")
        for cells in rows:
            h, response = int(cells[0]), cells[1]
            beta, model, resid = (fit_number(c) for c in cells[2:5])
            irf = irfs[response][phase][h]
            require(beta == irf["beta"], f"fit_{phase}_phase.csv h={h}: beta is not the IRF's")
            require(model == beta + resid, f"fit_{phase}_phase.csv h={h}: model != beta + residual")
            total += (resid / irf["se"]) ** 2
    preamble, _, summary = read_table(out / "critical_point_summary.csv")
    objective = num(summary[0][4])
    require(close(objective, total, 1e-9), f"objective {objective!r} != recomputed {total!r}")
    require(preamble.get("degenerate") == "false", "calibration flagged degenerate")


def expected_report(out: Path) -> str:
    _, _, tanh = read_table(out / "tanh_fit.csv")
    lines = [f"tanh.{key} = {value}" for key, value in zip(("phi0", "A", "t0_calendar", "w_months"), tanh[0])]
    _, _, breaks = read_table(out / "breakpoints.csv")
    taus: dict[tuple[str, str], list[str]] = {}
    for cells in breaks:
        taus.setdefault((cells[0], cells[1]), []).append(cells[4])
    for (series, cluster), months in sorted(taus.items()):
        months.sort(key=month_ordinal)
        lines.append(f"breakpoints.{cluster}.{series}.median = {months[(len(months) - 1) // 2]}")
    _, _, eff = read_table(out / "efficiency.csv")
    for cells in eff:
        for key, value in zip(("eff_r", "argmax_r", "eff_c", "argmax_c"), cells[1:5]):
            lines.append(f"efficiency.{cells[0]}.{key} = {value}")
    preamble, _, summary = read_table(out / "critical_point_summary.csv")
    lines += [
        f"calibration.phi_c = {summary[0][0]}",
        f"calibration.s_pi = {summary[0][1]}",
        f"calibration.objective = {summary[0][4]}",
        f"calibration.ordering_holds = {preamble.get('ordering_holds', '')}",
    ]
    return "\n".join(lines) + "\n"


def check_report(out: Path, workload: Workload) -> None:
    """report.txt equals a summary recomputed from the artifacts it reads."""
    path = out / "report.txt"
    require(path.exists(), "report.txt is missing")
    require(path.read_text(encoding="utf-8") == expected_report(out), "report.txt is stale")


# --- artifact format ------------------------------------------------------

TEXT_COLUMNS = {
    "date", "era", "series", "cluster", "window_start", "window_end", "tau", "tie",
    "t0_calendar", "converged", "phase", "response", "variant", "shock", "target",
    "degenerate_flag", "key", "value",
}
# pipeline.write_calibration passes numpy scalars to csvio.fmt, whose repr()
# is "np.float64(...)" under numpy 2, on every calibrating run
KNOWN_NON_NUMERIC = {
    f"fit_{phase}_phase.csv:{column}" for phase in PHASES for column in ("model_value", "residual")
}


def is_number(cell: str) -> bool:
    try:
        return cell == "" or math.isfinite(float(cell))
    except ValueError:
        return False


def check_numeric_cells(out: Path, workload: Workload) -> None:
    """Every cell of every CSV artifact outside the text columns is a plain number."""
    offenders = set()
    for path in sorted(out.glob("*.csv")):
        _, header, rows = read_table(path)
        for i, column in enumerate(header):
            if column not in TEXT_COLUMNS and not all(is_number(cells[i]) for cells in rows):
                offenders.add(f"{path.name}:{column}")
    if offenders == KNOWN_NON_NUMERIC:
        raise KnownFault(f"non-numeric cells in {sorted(offenders)}")
    require(not offenders, f"non-numeric cells in {sorted(offenders)}")


def checks_for(workload: Workload) -> list:
    """The checks that apply to a workload, in a fixed order."""
    checks = [check_numeric_cells, check_lp_refit, check_irf_intervals, check_signs, check_planted_truth]
    if workload.robustness:
        checks.append(check_sweep)
    for command, check in (
        ("efficiency", check_efficiency),
        ("calibrate", check_calibration_objective),
        ("report", check_report),
    ):
        if command in workload.commands:
            checks.append(check)
    return checks


def artifact_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every file the chain wrote, by name.

    synthetic_config.txt is left out: it records the output directory.
    """
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.is_file() and path.name != "synthetic_config.txt"
    }
